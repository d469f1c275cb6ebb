"""Solver laboratory for inertial probabilistic Ising machines."""

from .core import (
    ConfigError,
    DimensionError,
    IsingInstance,
    Schedule,
    ScheduleKind,
    SpinState,
    TrialRecord,
    energy,
)
from .quantize import FixedPointFormat, TanhLut, lut_tanh, quantize
from .solvers import (
    Quantization,
    SolverKind,
    make_schedule,
    run_batch,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DimensionError",
    "FixedPointFormat",
    "IsingInstance",
    "Quantization",
    "Schedule",
    "ScheduleKind",
    "SolverKind",
    "SpinState",
    "TanhLut",
    "TrialRecord",
    "energy",
    "lut_tanh",
    "make_schedule",
    "quantize",
    "run_batch",
    "__version__",
]
