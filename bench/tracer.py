"""In-memory span tracer wrapped around the public entry points of each
qnslab layer, from outside the package.

Spans are recorded at layer boundaries: every call of a wrapped function
opens a span whose parent is the innermost span still open.  A span's
self time is its duration minus the durations of its direct children.
The spectral layer is measured at the FFT entry points of ``numpy.fft``
and ``scipy.fft``; those are wrapped before qnslab is imported, so a
module that binds an FFT function by name at import time still sees the
wrapper.  Layer functions are wrapped after import in every qnslab
module namespace that binds them, so calls through ``from .x import f``
are traced too.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

FFT_FORWARD = ("fft2", "rfft2", "fftn", "rfftn")
FFT_INVERSE = ("ifft2", "irfft2", "ifftn", "irfftn")
FFT_MODULES = ("numpy.fft", "scipy.fft")

# layer -> public callables, as "module:attr" or "module:Class.method";
# plus euler's private RK4 step, whose spans count the steps the solver
# really takes
LAYER_FUNCTIONS = {
    "qns": ("qnslab.qns:qns_step", "qnslab.qns:qns_init", "qnslab.qns:EnergyLedger.record"),
    "constitutive": ("qnslab.constitutive:bohm_force",),
    "diagnostics": ("qnslab.diagnostics:relative_entropy", "qnslab.diagnostics:theorem_lhs",
                    "qnslab.diagnostics:corollary_lhs",
                    "qnslab.diagnostics:density_deviation_norms", "qnslab.diagnostics:rate_fit"),
    "acoustic": ("qnslab.acoustic:acoustic_evolve", "qnslab.acoustic:acoustic_init"),
    "euler": ("qnslab.euler:euler_solve", "qnslab.euler:euler_residual",
              "qnslab.euler:taylor_green", "qnslab.euler:pressure_recover",
              "qnslab.euler:_rk4_vorticity_step"),
    "harness": ("qnslab.harness:run_sweep", "qnslab.harness:run_single",
                "qnslab.harness:build_initial_data"),
    "qnsio": ("qnslab.qnsio:write_csv", "qnslab.qnsio:write_snapshot",
              "qnslab.qnsio:read_snapshot"),
    "checks": ("qnslab.checks:bohm_form_check", "qnslab.checks:acoustic_check",
               "qnslab.checks:euler_check"),
}


def _fft_bytes(args, kwargs, out):
    """Computed bytes of one transform: argument plus result array."""
    return getattr(args[0], "nbytes", 0) + out.nbytes


def _file_size(fn):
    """Bytes of the file a qnsio writer produced (its ``path`` argument)."""
    sig = inspect.signature(fn)

    def extra(args, kwargs, out):
        return Path(sig.bind(*args, **kwargs).arguments["path"]).stat().st_size

    return extra


# span extras: qualified name -> factory of extra_of(args, kwargs, out)
EXTRAS = {
    "qnsio.write_csv": _file_size,
    "qnsio.write_snapshot": _file_size,
}


class Tracer:
    """Keeps every span in memory as a list row:
    [name, layer, parent index, start, end, extra]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, layer, name, fn, extra_of=None):
        """``fn`` recording one span per call; ``extra_of(args, kwargs,
        result)`` fills the span's extra field."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            row = [name, layer, stack[-1] if stack else -1, clock(), 0.0, None]
            spans.append(row)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                row[4] = clock()
                stack.pop()
            if extra_of is not None:
                row[5] = extra_of(args, kwargs, out)
            return out

        return traced

    def install_fft(self):
        """Wrap the FFT entry points; call before importing qnslab."""
        for mod_name in FFT_MODULES:
            mod = importlib.import_module(mod_name)
            for attr in FFT_FORWARD + FFT_INVERSE:
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                direction = "fwd" if attr in FFT_FORWARD else "inv"
                setattr(mod, attr, self.wrap("spectral", f"fft.{direction}", fn, _fft_bytes))

    def install_layers(self):
        """Wrap the layer functions wherever a qnslab module binds them."""
        for layer, targets in LAYER_FUNCTIONS.items():
            for target in targets:
                mod_name, qual = target.split(":")
                mod = importlib.import_module(mod_name)
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name)
                    if not hasattr(cls, meth):
                        continue
                    setattr(cls, meth, self.wrap(layer, f"{layer}.{meth}", getattr(cls, meth)))
                    continue
                original = getattr(mod, qual, None)
                if original is None:  # removed by a later version: reads 0
                    continue
                name = f"{layer}.{qual}"
                extra = EXTRAS[name](original) if name in EXTRAS else None
                wrapped = self.wrap(layer, name, original, extra)
                for m_name, m in list(sys.modules.items()):
                    if m_name == "qnslab" or m_name.startswith("qnslab."):
                        for attr, val in list(vars(m).items()):
                            if val is original:
                                setattr(m, attr, wrapped)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _within(spans, root: str) -> list[int]:
    """Indices of the spans with a span named ``root`` on their path."""
    inside = [False] * len(spans)
    for i, (name, layer, parent, t0, t1, extra) in enumerate(spans):
        inside[i] = name == root or (parent >= 0 and inside[parent])
    return [i for i, flag in enumerate(inside) if flag]


class SpanStats:
    """Per-name totals over the spans under a root span (the benchmark's
    job, so that calls made outside it are left out): calls, inclusive
    and self seconds and summed extras; self seconds per layer; and the
    spans under a named span."""

    def __init__(self, spans, root="bench.job"):
        self.spans = spans
        child = [0.0] * len(spans)
        for name, layer, parent, t0, t1, extra in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.layer_self: dict[str, float] = {}
        self.extra: dict[str, float] = {}
        for i in _within(spans, root):
            name, layer, parent, t0, t1, extra = spans[i]
            dur = t1 - t0
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + dur
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - child[i]
            self.layer_self[layer] = self.layer_self.get(layer, 0.0) + dur - child[i]
            if extra is not None:
                self.extra[name] = self.extra.get(name, 0.0) + extra

    def under(self, ancestor: str) -> list[list]:
        """The spans with ``ancestor`` on their span path."""
        return [self.spans[i] for i in _within(self.spans, ancestor)]

    def fft_under(self, ancestor: str) -> dict[str, float]:
        """FFT calls and computed bytes with ``ancestor`` on their span path."""
        out = {"fwd": 0, "inv": 0, "bytes": 0}
        for name, layer, parent, t0, t1, extra in self.under(ancestor):
            if name.startswith("fft."):
                out[name[4:]] += 1
                out["bytes"] += extra
        return out

    def count(self, name) -> int:
        return self.calls.get(name, 0)

    def seconds(self, name) -> float:
        return self.total.get(name, 0.0)

    def mean_ms(self, name, self_only=False) -> float:
        calls = self.count(name)
        if not calls:
            return 0.0
        src = self.self_time if self_only else self.total
        return 1e3 * src[name] / calls


# Per-layer metrics of a traced job, by the kind of job: the QNS runs
# (rate_study, highres_n256) and the verification batteries.  Each list
# names only layers the job enters; a function that a later version of
# the program stops calling reads 0.
COMMON_METRICS = (
    "spectral.fft_fwd_calls",
    "spectral.fft_inv_calls",
    "spectral.fft_time_share",
    "constitutive.bohm_force_ms",
    "constitutive.bohm_force_self_ms",
    "constitutive.self_share",
    "acoustic.acoustic_evolve_ms",
    "acoustic.self_share",
)
QNS_METRICS = COMMON_METRICS + (
    "spectral.fft_fwd_per_step",
    "spectral.fft_inv_per_step",
    "spectral.fft_bytes_per_step",
    "qns.steps",
    "qns.fft_per_step",
    "qns.qns_step_ms",
    "qns.qns_step_self_ms",
    "qns.ledger_record_ms",
    "qns.qns_init_ms",
    "qns.self_share",
    "diagnostics.relative_entropy_ms",
    "diagnostics.theorem_lhs_ms",
    "diagnostics.corollary_lhs_ms",
    "diagnostics.reports",
    "diagnostics.self_share",
    "acoustic.acoustic_init_ms",
    "harness.run_single_self_s",
    "harness.cpu_util",
    "harness.build_initial_data_ms",
    "harness.self_share",
    "qnsio.write_ms",
    "qnsio.bytes_written",
    "qnsio.self_share",
)
CHECKS_METRICS = COMMON_METRICS + (
    "euler.euler_solve_s",
    "euler.rk4_steps",
    "euler.ms_per_step",
    "euler.self_share",
    "checks.bohm_form_check_s",
    "checks.acoustic_check_s",
    "checks.euler_check_s",
    "checks.self_share",
)


def layer_metrics(spans, cpu_s: float, names) -> dict[str, float]:
    """The named per-layer metrics of one traced job, over the spans
    under its span bench.job.

    spectral.fft_*_per_step count every FFT of the QNS runs (steps,
    energy ledger, reports) per step; qns.fft_per_step counts only those
    inside qns_step.  Per-call times are means over the job's calls;
    *_self_* times and self shares exclude the wrapped functions and FFTs
    called inside.  FFT bytes are computed from argument and result array
    sizes, not measured.
    """
    st = SpanStats(spans)
    job = st.seconds("bench.job")
    steps = st.count("qns.qns_step")
    per_step = st.fft_under("harness.run_single")
    in_step = st.fft_under("qns.qns_step")
    fft_s = st.seconds("fft.fwd") + st.seconds("fft.inv")
    rk4 = sum(row[0] == "euler._rk4_vorticity_step" for row in st.under("euler.euler_solve"))
    m = {
        "spectral.fft_fwd_per_step": per_step["fwd"] / steps if steps else 0.0,
        "spectral.fft_inv_per_step": per_step["inv"] / steps if steps else 0.0,
        "spectral.fft_bytes_per_step": per_step["bytes"] / steps if steps else 0.0,
        "spectral.fft_fwd_calls": st.count("fft.fwd"),
        "spectral.fft_inv_calls": st.count("fft.inv"),
        "spectral.fft_time_share": fft_s / job,
        "qns.steps": steps,
        "qns.fft_per_step": (in_step["fwd"] + in_step["inv"]) / steps if steps else 0.0,
        "qns.qns_step_ms": st.mean_ms("qns.qns_step"),
        "qns.qns_step_self_ms": st.mean_ms("qns.qns_step", self_only=True),
        "qns.ledger_record_ms": st.mean_ms("qns.record"),
        "qns.qns_init_ms": st.mean_ms("qns.qns_init"),
        "constitutive.bohm_force_ms": st.mean_ms("constitutive.bohm_force"),
        "constitutive.bohm_force_self_ms": st.mean_ms("constitutive.bohm_force", self_only=True),
        "diagnostics.relative_entropy_ms": st.mean_ms("diagnostics.relative_entropy"),
        "diagnostics.theorem_lhs_ms": st.mean_ms("diagnostics.theorem_lhs"),
        "diagnostics.corollary_lhs_ms": st.mean_ms("diagnostics.corollary_lhs"),
        "diagnostics.reports": st.count("diagnostics.relative_entropy"),
        "acoustic.acoustic_evolve_ms": st.mean_ms("acoustic.acoustic_evolve"),
        "acoustic.acoustic_init_ms": st.mean_ms("acoustic.acoustic_init"),
        "euler.euler_solve_s": st.seconds("euler.euler_solve"),
        "euler.rk4_steps": rk4,
        "euler.ms_per_step": 1e3 * st.seconds("euler.euler_solve") / rk4 if rk4 else 0.0,
        "harness.run_single_self_s": st.self_time.get("harness.run_single", 0.0),
        "harness.cpu_util": cpu_s / job,
        "harness.build_initial_data_ms": st.mean_ms("harness.build_initial_data"),
        "qnsio.write_ms": 1e3 * (st.seconds("qnsio.write_csv") + st.seconds("qnsio.write_snapshot")),
        "qnsio.bytes_written": int(st.extra.get("qnsio.write_csv", 0)
                                   + st.extra.get("qnsio.write_snapshot", 0)),
        "checks.bohm_form_check_s": st.seconds("checks.bohm_form_check"),
        "checks.acoustic_check_s": st.seconds("checks.acoustic_check"),
        "checks.euler_check_s": st.seconds("checks.euler_check"),
    }
    for layer in LAYER_FUNCTIONS:
        m[f"{layer}.self_share"] = st.layer_self.get(layer, 0.0) / job
    return {name: m[name] for name in names}
