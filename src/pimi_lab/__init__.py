"""Solver laboratory for inertial probabilistic Ising machines."""

from .core import (
    ConfigError,
    DimensionError,
    IsingInstance,
    NotMaxCutError,
    Schedule,
    ScheduleKind,
    SpinState,
    TrialRecord,
    cut_value,
    energy,
    local_fields,
)
from .quantize import FixedPointFormat, TanhLut, lut_tanh, quantize
from .solvers import (
    NoiseDist,
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
    "NoiseDist",
    "NotMaxCutError",
    "Quantization",
    "Schedule",
    "ScheduleKind",
    "SolverKind",
    "SpinState",
    "TanhLut",
    "TrialRecord",
    "cut_value",
    "energy",
    "local_fields",
    "lut_tanh",
    "make_schedule",
    "quantize",
    "run_batch",
    "__version__",
]
