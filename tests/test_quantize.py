import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimi_lab.quantize import FixedPointFormat, TanhLut, lut_tanh, quantize

Q42 = FixedPointFormat(4, 2)
Q164 = FixedPointFormat(16, 4)


def representable_values(fmt: FixedPointFormat) -> np.ndarray:
    """All representable values of a format, ascending (2**total_bits of them)."""
    ints = np.arange(-(2 ** (fmt.total_bits - 1)), 2 ** (fmt.total_bits - 1))
    return ints * fmt.step


def oracle_quantize(x: float, fmt: FixedPointFormat) -> float:
    """Independent scalar reference: truncate toward zero, then saturate."""
    step = 2.0 ** -(fmt.total_bits - fmt.int_bits)
    k = math.floor(abs(x) / step)
    val = math.copysign(k * step, x)
    lo = -(2.0 ** (fmt.int_bits - 1))
    hi = 2.0 ** (fmt.int_bits - 1) - step
    return min(max(val, lo), hi)


def oracle_lut_tanh(x: float, levels: int) -> float:
    """Straight-line transcription of the LUT algorithm: saturate outside
    [-1, 1], then first-match linear search over the half-open bins."""
    outs = np.linspace(-1.0, 1.0, levels)
    breaks = np.linspace(-1.0, 1.0, levels + 1)
    if x < -1.0:
        return -1.0
    if x > 1.0:
        return 1.0
    for k in range(levels):
        if breaks[k] <= x < breaks[k + 1]:
            return float(outs[k])
    return float(outs[levels - 1])  # x == +1, rightmost bin closed


class TestFixedPointFormat:
    def test_ranges(self):
        assert Q42.step == 0.25
        assert Q42.min_value == -2.0
        assert Q42.max_value == 1.75
        assert Q164.step == 2.0 ** -12
        assert Q164.min_value == -8.0
        assert Q164.max_value == 8.0 - 2.0 ** -12

    def test_parse(self):
        assert FixedPointFormat.parse("q4.2") == Q42
        assert FixedPointFormat.parse("Q16.4") == Q164
        with pytest.raises(ValueError):
            FixedPointFormat.parse("16.4")
        with pytest.raises(ValueError):
            FixedPointFormat.parse("qx.y")

    def test_invalid_bit_layout(self):
        with pytest.raises(ValueError):
            FixedPointFormat(4, 0)
        with pytest.raises(ValueError):
            FixedPointFormat(4, 5)
        with pytest.raises(ValueError):
            FixedPointFormat(65, 4)

    def test_representable_values_count(self):
        vals = representable_values(Q42)
        assert len(vals) == 16
        assert vals[0] == -2.0
        assert vals[-1] == 1.75
        assert np.all(np.diff(vals) == 0.25)


class TestQuantize:
    @pytest.mark.parametrize("x,expected", [
        (0.3, 0.25),
        (-0.3, -0.25),
        (5.0, 1.75),
        (-5.0, -2.0),
        (0.0, 0.0),
        (1.75, 1.75),
        (-2.0, -2.0),
        (0.2499999, 0.0),
    ])
    def test_q42_examples(self, x, expected):
        assert quantize(x, Q42) == expected

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(-20, 20, 300)
        out = quantize(xs, Q164)
        for x, o in zip(xs, out):
            assert o == oracle_quantize(float(x), Q164)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        xs = rng.uniform(-30, 30, 500)
        once = quantize(xs, Q42)
        assert np.array_equal(quantize(once, Q42), once)

    @given(st.floats(-100, 100), st.floats(-100, 100))
    @settings(max_examples=200, deadline=None)
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert quantize(lo, Q164) <= quantize(hi, Q164)

    @given(st.floats(-100, 100))
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, x):
        assert quantize(x, Q42) == oracle_quantize(x, Q42)
        assert quantize(x, Q164) == oracle_quantize(x, Q164)

    def test_exhaustive_q42_neighborhoods(self):
        # every representable value, nudged below / at / above, matches the oracle
        eps = 1e-9
        for v in representable_values(Q42):
            for x in (v - eps, v, v + eps, v + 0.1249, v - 0.1249):
                assert quantize(x, Q42) == oracle_quantize(x, Q42)


class TestTanhLut:
    def test_tables(self):
        lut = TanhLut(4)
        assert np.allclose(lut.output_levels, [-1, -1 / 3, 1 / 3, 1])
        assert np.array_equal(lut.breakpoints, [-1, -0.5, 0, 0.5, 1])
        assert lut.output_levels[0] == -1.0
        assert lut.output_levels[-1] == 1.0

    def test_rejects_single_level(self):
        with pytest.raises(ValueError):
            TanhLut(1)

    @pytest.mark.parametrize("x,expected", [
        (0.25, 1 / 3),
        (3.0, 1.0),
        (-3.0, -1.0),
        (1.0, 1.0),
        (-1.0, -1.0),
        (0.5, 1.0),   # bin [0.5, 1] for L=4
        (-0.5, -1 / 3),
    ])
    def test_l4_examples(self, x, expected):
        assert lut_tanh(x, TanhLut(4)) == pytest.approx(expected, abs=1e-15)

    def test_l2_negative_half(self):
        lut = TanhLut(2)
        assert lut_tanh(-0.1, lut) == -1.0
        assert lut_tanh(0.1, lut) == 1.0

    def test_monotone(self):
        rng = np.random.default_rng(2)
        for levels in (2, 3, 4, 8):
            xs = np.sort(rng.uniform(-1.5, 1.5, 400))
            ys = lut_tanh(xs, TanhLut(levels))
            assert np.all(np.diff(ys) >= 0)

    def test_odd_symmetry_even_levels_interior(self):
        rng = np.random.default_rng(3)
        for levels in (2, 4, 8):
            lut = TanhLut(levels)
            xs = rng.uniform(-1, 1, 500)
            xs = xs[~np.isin(xs, lut.breakpoints)]
            assert np.allclose(lut_tanh(-xs, lut), -lut_tanh(xs, lut), atol=1e-15)

    def test_error_bound_l4(self):
        xs = np.linspace(-1, 1, 2001)
        err = np.abs(lut_tanh(xs, TanhLut(4)) - np.tanh(xs))
        assert err.max() <= 1.0

    def test_matches_transcription_on_q164_sweep(self):
        lut = TanhLut(4)
        xs = representable_values(Q164)
        out = lut_tanh(xs, lut)
        ref = np.array([oracle_lut_tanh(float(x), 4) for x in xs])
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("levels", [2, 3, 5, 6, 8])
    def test_matches_transcription_out_of_range(self, levels):
        # NaN, +-inf, exactly +-1 and |x| > 1 take the end levels, -1 and +1
        lut = TanhLut(levels)
        xs = np.array([np.nan, -np.inf, np.inf, -1.0, 1.0, -1.5, 1.5, -1e300, 1e300,
                       np.nextafter(-1.0, -2.0), np.nextafter(1.0, 2.0)])
        ref = [oracle_lut_tanh(float(x), levels) for x in xs]
        assert set(ref) == {-1.0, 1.0}
        assert np.array_equal(lut_tanh(xs, lut), ref)
        assert [lut_tanh(float(x), lut) for x in xs] == ref

    def test_vectorized_matches_scalar(self):
        lut = TanhLut(6)
        xs = np.random.default_rng(4).uniform(-2, 2, 200)
        vec = lut_tanh(xs, lut)
        for x, v in zip(xs, vec):
            assert lut_tanh(float(x), lut) == v
