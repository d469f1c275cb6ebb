"""Software emulation of the hardware fixed-point arithmetic and the
lookup-table tanh, bit-matched to truncation-toward-zero / saturating types.

Quantized values are represented as exact float64 reals lying on a fixed
binary grid; every representable value of the supported formats (total bits
<= 64 is accepted, <= 52 fractional bits guaranteed exact) round-trips
through float64 without error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class FixedPointFormat:
    """Signed fixed-point format: `total_bits` wide with `int_bits` integer
    bits (sign included). Rounding truncates toward zero; overflow saturates."""

    total_bits: int
    int_bits: int

    def __post_init__(self):
        if not (1 <= self.int_bits <= self.total_bits <= 64):
            raise ValueError("need 1 <= int_bits <= total_bits <= 64")

    @property
    def frac_bits(self) -> int:
        return self.total_bits - self.int_bits

    @property
    def step(self) -> float:
        return 2.0 ** (-self.frac_bits)

    @property
    def min_value(self) -> float:
        return -(2.0 ** (self.int_bits - 1))

    @property
    def max_value(self) -> float:
        return 2.0 ** (self.int_bits - 1) - self.step

    @property
    def name(self) -> str:
        return f"q{self.total_bits}.{self.int_bits}"

    @classmethod
    def parse(cls, name: str) -> "FixedPointFormat":
        """Parse a format string like "q4.2" or "q16.4"."""
        text = name.strip().lower()
        if not text.startswith("q"):
            raise ValueError(f"bad fixed-point format {name!r}; expected e.g. 'q16.4'")
        try:
            total, integer = text[1:].split(".")
            return cls(int(total), int(integer))
        except (ValueError, TypeError):
            raise ValueError(f"bad fixed-point format {name!r}; expected e.g. 'q16.4'")


def quantize(x, fmt: FixedPointFormat, out=None):
    """Truncate toward zero onto the format's grid, saturating at the range.

    Accepts scalars or arrays; total function (no errors raised on any
    finite input). `out`, an array of x's shape, receives the result; it may
    be x itself.
    """
    arr = np.asarray(x, dtype=np.float64)
    half_range = 2.0 ** (fmt.total_bits - 1)
    q = np.divide(arr, fmt.step, out=np.empty(arr.shape) if out is None else out)
    np.trunc(q, out=q)
    np.clip(q, -half_range, half_range - 1.0, out=q)
    np.multiply(q, fmt.step, out=q)
    if out is None and (np.isscalar(x) or np.ndim(x) == 0):
        return float(q)
    return q


@dataclass(frozen=True)
class TanhLut:
    """Piecewise-constant tanh over [-1, 1]: L uniformly spaced output levels
    and L+1 uniformly spaced breakpoints; inputs outside [-1, 1] saturate."""

    levels: int

    def __post_init__(self):
        if self.levels < 2:
            raise ValueError("LUT needs at least 2 levels")

    @property
    def output_levels(self) -> np.ndarray:
        return np.linspace(-1.0, 1.0, self.levels)

    @property
    def breakpoints(self) -> np.ndarray:
        return np.linspace(-1.0, 1.0, self.levels + 1)


@lru_cache(maxsize=None)
def _lut_tables(levels: int):
    lut = TanhLut(levels)
    return lut.breakpoints, lut.output_levels


def lut_tanh(x, lut: TanhLut, out=None):
    """LUT tanh: saturate outside [-1, 1]; otherwise return the output level
    of the half-open bin [b_k, b_{k+1}) containing x (rightmost bin closed).
    `out`, an array of x's shape other than x, receives the result."""
    breakpoints, levels = _lut_tables(lut.levels)
    arr = np.asarray(x, dtype=np.float64)
    # the clipped bin index saturates: it sends x < -1 and -inf to the first
    # level, -1, and x > 1, +inf and NaN to the last, +1
    idx = np.clip(np.searchsorted(breakpoints, arr, side="right") - 1,
                  0, lut.levels - 1)
    res = np.take(levels, idx, out=np.empty(arr.shape) if out is None else out)
    if out is None and (np.isscalar(x) or np.ndim(x) == 0):
        return float(res)
    return res
