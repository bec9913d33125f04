"""Pseudospectral laboratory for the Mach-scaled quantum Navier-Stokes
system on the 2-torus and its joint inviscid/incompressible/semiclassical
limit to incompressible Euler."""

from .acoustic import (
    AcousticState,
    InitialData,
    acoustic_energy,
    acoustic_evolve,
    acoustic_init,
    mollify,
)
from .constitutive import (
    DIVERGENCE,
    N_FLOOR,
    POTENTIAL,
    LimitParams,
    VacuumError,
    bohm_force,
    p_prime_at_one,
)
from .diagnostics import (
    EntropyReport,
    RateFit,
    corollary_lhs,
    density_deviation_norms,
    rate_fit,
    relative_entropy,
)
from .euler import (
    EulerReference,
    EulerSolverError,
    euler_residual,
    euler_solve,
    pressure_recover,
    taylor_green,
)
from .harness import (
    ConfigError,
    RunConfig,
    RunResult,
    RunSteps,
    Step,
    SweepResult,
    build_initial_data,
    linear_target,
    parse_config,
    run_single,
    run_sweep,
)
from .qns import (
    CflViolation,
    EnergyLedger,
    NumericalAbort,
    QnsState,
    cfl_bounds,
    cfl_dt,
    dissipation_rate,
    qns_init,
    qns_step,
    total_energy,
)
from .qnsio import (
    BadMagic,
    SnapshotError,
    Truncated,
    VersionMismatch,
    read_csv_columns,
    read_snapshot,
    write_csv,
    write_snapshot,
)
from .spectral import (
    Grid2D,
    ScalarField,
    SpectralError,
    VectorField,
    curl,
    dealias,
    differentiate,
    divergence,
    gradient,
    helmholtz_project,
    integrate,
    norm,
    random_band_limited,
    vector_field,
)

__version__ = "0.1.0"
