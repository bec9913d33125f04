import sys
import tracemalloc

import numpy as np
import pytest

from qnslab import Grid2D


@pytest.fixture(scope="session")
def grid64():
    return Grid2D(64)


@pytest.fixture(scope="session")
def grid32():
    return Grid2D(32)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def traced_fields():
    """traced_fields(call, n=256): call() and the peak of its traced
    allocations (tracemalloc) above their level at entry, in N x N
    float64 fields."""

    def measure(call, n=256):
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            result = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, (peak - entry) / (n * n * 8)

    return measure


_FORWARD = ("fft", "rfft", "fft2", "rfft2", "fftn", "rfftn")
_INVERSE = ("ifft", "irfft", "ifft2", "irfft2", "ifftn", "irfftn")


def _planes(args, kwargs):
    """2-D planes in the array a transform is called on: a stack of
    spectra or fields (..., N, M) is one transform per plane."""
    a = args[0] if args else next(kwargs[k] for k in ("a", "values", "fhat") if k in kwargs)
    return int(np.prod(np.shape(a)[:-2]))


@pytest.fixture()
def fft_counts(monkeypatch):
    """Counts {"fwd": ..., "inv": ..., "calls": ...} of the transforms
    qnslab takes.

    Every numpy.fft transform called from outside a counted call is one
    per 2-D plane of its input, whatever its dimension.  The spectral
    core's 1-D pairs, spectral.to_spectral forward and
    spectral._to_physical_into inverse, are one transform per plane,
    wherever a qnslab module binds them.
    "calls" counts the counted calls, forward and inverse together, so a
    batched call shows as fewer calls for the same transforms.  Reset
    with counts.update(fwd=0, inv=0, calls=0)."""
    from qnslab import spectral

    counts = {"fwd": 0, "inv": 0, "calls": 0}
    depth = [0]

    def counting(fn, kind):
        def wrapped(*args, **kwargs):
            if depth[0] == 0:
                counts[kind] += _planes(args, kwargs)
                counts["calls"] += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapped

    for names, kind in ((_FORWARD, "fwd"), (_INVERSE, "inv")):
        for name in names:
            monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name), kind))
    for attr, kind in (("to_spectral", "fwd"), ("_to_physical_into", "inv")):
        helper = getattr(spectral, attr)
        wrapped = counting(helper, kind)
        for name, module in list(sys.modules.items()):
            if name.startswith("qnslab") and getattr(module, attr, None) is helper:
                monkeypatch.setattr(module, attr, wrapped)
    return counts


@pytest.fixture()
def fft_shapes(monkeypatch):
    """Input shapes of every numpy.fft call, by function name: a dict
    {name: [shape, ...]}, filled as the calls are made."""
    shapes = {name: [] for name in _FORWARD + _INVERSE}

    def recording(fn, name):
        def wrapped(a, *args, **kwargs):
            shapes[name].append(np.shape(a))
            return fn(a, *args, **kwargs)

        return wrapped

    for name in shapes:
        monkeypatch.setattr(np.fft, name, recording(getattr(np.fft, name), name))
    return shapes
