import itertools
import math

import numpy as np
import pytest

from pimi_lab.core import ConfigError
from pimi_lab.mimo import (
    CORRECTION_SET_LARGE,
    CORRECTION_SET_SMALL,
    DetectorConfig,
    THROUGHPUT_REQ_5G_NR_50MHZ_PER_MS,
    THROUGHPUT_REQ_LTE_10MHZ_PER_MS,
    ber,
    bits_per_symbol,
    bits_to_symbols,
    build_dimimo,
    complex_from_stack,
    correction_transform,
    default_correction_set,
    default_steps,
    detect,
    gen_scenario,
    mmse_detect,
    qam_axis_levels,
    real_stack_vector,
    slice_to_constellation,
    symbols_to_bits,
    to_real,
    zero_correction_spins,
)
from pimi_lab.quantize import FixedPointFormat, TanhLut
from pimi_lab.solvers import Quantization, SolverKind


class TestGrayMapping:
    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_bijective(self, m):
        b = bits_per_symbol(m)
        all_bits = np.array(list(itertools.product([0, 1], repeat=b))).reshape(-1)
        syms = bits_to_symbols(all_bits, m)
        assert len(set(syms.tolist())) == m
        assert np.array_equal(symbols_to_bits(syms, m), all_bits)

    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_axis_neighbors_differ_in_one_bit(self, m):
        levels = qam_axis_levels(m)
        for a, b_lv in zip(levels, levels[1:]):
            for other in levels:
                s1 = np.array([a + 1j * other])
                s2 = np.array([b_lv + 1j * other])
                d = symbols_to_bits(s1, m) != symbols_to_bits(s2, m)
                assert d.sum() == 1
                s1 = np.array([other + 1j * a])
                s2 = np.array([other + 1j * b_lv])
                d = symbols_to_bits(s1, m) != symbols_to_bits(s2, m)
                assert d.sum() == 1

    def test_levels(self):
        assert np.array_equal(qam_axis_levels(4), [-1, 1])
        assert np.array_equal(qam_axis_levels(16), [-3, -1, 1, 3])
        assert np.array_equal(qam_axis_levels(64), [-7, -5, -3, -1, 1, 3, 5, 7])

    def test_invalid_order(self):
        with pytest.raises(ConfigError):
            bits_per_symbol(8)

    def test_non_constellation_point_rejected(self):
        with pytest.raises(ConfigError):
            symbols_to_bits(np.array([9.0 + 1j]), 16)


class TestSlicing:
    def test_idempotent(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(100) * 4 + 1j * rng.standard_normal(100) * 4
        for m in (4, 16, 64):
            once = slice_to_constellation(z, m)
            assert np.array_equal(slice_to_constellation(once, m), once)

    def test_nearest_point(self):
        assert slice_to_constellation(np.array([2.6 - 0.2j]), 16)[0] == 3 - 1j
        assert slice_to_constellation(np.array([10.0 + 10.0j]), 16)[0] == 3 + 3j

    def test_midpoint_ties_resolve_to_smaller(self):
        # 0 sits exactly between -1 and 1; 2 between 1 and 3
        assert slice_to_constellation(np.array([0.0 + 0j]), 16)[0] == -1 - 1j
        assert slice_to_constellation(np.array([2.0 + 2j]), 16)[0] == 1 + 1j


class TestScenario:
    def test_stored_identity(self):
        sc = gen_scenario(4, 6, 16, 10.0, 3)
        assert np.array_equal(sc.y, sc.h_cplx @ sc.x_true + sc.noise)
        assert sc.h_cplx.shape == (6, 4)
        assert len(sc.bits_true) == 4 * 4

    def test_symbols_are_constellation_points(self):
        sc = gen_scenario(8, 8, 64, 14.0, 5)
        sliced = slice_to_constellation(sc.x_true, 64)
        assert np.array_equal(sliced, sc.x_true)
        assert np.array_equal(bits_to_symbols(sc.bits_true, 64), sc.x_true)

    def test_infinite_snr_is_noiseless(self):
        sc = gen_scenario(3, 3, 4, math.inf, 7)
        assert np.all(sc.noise == 0)
        assert np.array_equal(sc.y, sc.h_cplx @ sc.x_true)

    def test_db_conversion(self):
        sc = gen_scenario(2, 2, 4, 10.0, 1)
        assert sc.ebn0_linear == pytest.approx(10.0)

    def test_noise_power_tracks_snr(self):
        # average noise power over many draws close to E_y / (b Eb/N0)
        powers, targets = [], []
        for seed in range(300):
            sc = gen_scenario(4, 4, 16, 6.0, seed)
            clean = sc.h_cplx @ sc.x_true
            e_y = np.mean(np.abs(clean) ** 2)
            targets.append(e_y / (4 * 10 ** 0.6))
            powers.append(np.mean(np.abs(sc.noise) ** 2))
        assert np.mean(powers) == pytest.approx(np.mean(targets), rel=0.1)

    def test_reproducible(self):
        a = gen_scenario(4, 4, 16, 8.0, 42)
        b = gen_scenario(4, 4, 16, 8.0, 42)
        assert np.array_equal(a.h_cplx, b.h_cplx)
        assert np.array_equal(a.y, b.y)

    def test_invalid_args(self):
        with pytest.raises(ConfigError):
            gen_scenario(0, 4, 16, 10.0, 1)
        with pytest.raises(ConfigError):
            gen_scenario(4, 4, 32, 10.0, 1)


class TestRealModel:
    def test_block_structure_1x1(self):
        sc = gen_scenario(1, 1, 4, math.inf, 0)
        sc.h_cplx = np.array([[1.0 + 2.0j]])
        model = to_real(sc)
        assert np.array_equal(model.h_real, [[1.0, -2.0], [2.0, 1.0]])

    def test_real_channel_off_blocks_zero(self):
        sc = gen_scenario(2, 2, 4, math.inf, 1)
        sc.h_cplx = sc.h_cplx.real.astype(complex)
        model = to_real(sc)
        assert np.all(model.h_real[:2, 2:] == 0)
        assert np.all(model.h_real[2:, :2] == 0)

    def test_stacking_is_isometry(self):
        sc = gen_scenario(5, 6, 16, 12.0, 2)
        model = to_real(sc)
        assert model.y_real @ model.y_real == pytest.approx(
            float(np.sum(np.abs(sc.y) ** 2)))

    def test_round_trip(self):
        z = np.array([1.5 - 0.5j, -2.0 + 3.0j])
        assert np.array_equal(complex_from_stack(real_stack_vector(z)), z)

    def test_matvec_commutes_with_stacking(self):
        sc = gen_scenario(3, 4, 16, 9.0, 8)
        model = to_real(sc)
        lhs = model.h_real @ real_stack_vector(sc.x_true)
        assert np.allclose(lhs, real_stack_vector(sc.h_cplx @ sc.x_true))


class TestMmse:
    def test_scalar_example(self):
        # 1x1, h=1, Es/N0 = 1, y = 1 -> z = 1/(1+1) = 0.5
        sc = gen_scenario(1, 1, 4, 0.0, 0)
        sc.h_cplx = np.array([[1.0 + 0j]])
        sc.ebn0_db = 10.0 * math.log10(0.5)  # b=2 -> Es/N0 = 1
        sc.y = np.array([1.0 + 0j])
        res = mmse_detect(sc)
        assert res.z_unsliced[0] == pytest.approx(0.5 + 0j)

    def test_noiseless_exact_recovery(self):
        sc = gen_scenario(4, 4, 16, math.inf, 11)
        res = mmse_detect(sc)
        assert np.allclose(res.z_unsliced, sc.x_true, atol=1e-8)
        assert np.array_equal(res.symbols, sc.x_true)

    def test_pseudo_inverse_limit(self):
        # at extreme SNR the MMSE filter approaches the pseudo-inverse
        sc = gen_scenario(4, 6, 16, 120.0, 13)
        h = sc.h_cplx
        pinv = np.linalg.pinv(h)
        b = bits_per_symbol(sc.qam_order)
        reg = 1.0 / (b * sc.ebn0_linear)
        w = np.linalg.solve(h.conj().T @ h + reg * np.eye(4), h.conj().T)
        assert np.linalg.norm(w - pinv, 2) < 1e-6

    def test_better_at_higher_snr(self):
        def run(db):
            errs = 0
            for seed in range(400):
                sc = gen_scenario(4, 4, 4, db, 600 + seed)
                res = mmse_detect(sc)
                errs += np.sum(symbols_to_bits(res.symbols, 4) != sc.bits_true)
            return errs
        assert run(12.0) < run(0.0)


def residual_norm_sq(prob, s):
    """||y - H (x_m + T s)||^2, the residual the detection energy encodes."""
    r = prob.y_real - prob.h_real @ (prob.x_m + prob.t_matrix @ s)
    return float(r @ r)


class TestDiMimo:
    def test_spin_counts(self):
        sc = gen_scenario(8, 8, 16, 12.0, 3)
        prob = build_dimimo(sc, mmse_detect(sc).x_m_sliced)
        assert prob.n_spins == 32  # 2 * 2 * nt for the small set
        sc64 = gen_scenario(8, 8, 64, 12.0, 3)
        prob64 = build_dimimo(sc64, mmse_detect(sc64).x_m_sliced)
        assert prob64.n_spins == 48  # 3 * 2 * nt for the extended set

    def test_transform_shapes(self):
        t = correction_transform(4, CORRECTION_SET_SMALL)
        assert t.shape == (8, 16)
        t = correction_transform(4, CORRECTION_SET_LARGE)
        assert t.shape == (8, 24)
        with pytest.raises(ConfigError):
            correction_transform(4, (-1, 0, 1))

    def test_default_correction_sets(self):
        assert default_correction_set(4) == CORRECTION_SET_SMALL
        assert default_correction_set(16) == CORRECTION_SET_SMALL
        assert default_correction_set(64) == CORRECTION_SET_LARGE

    def test_structure(self):
        sc = gen_scenario(4, 4, 16, 10.0, 9)
        prob = build_dimimo(sc, mmse_detect(sc).x_m_sliced)
        assert np.all(np.diag(prob.j) == 0)
        assert np.array_equal(prob.j, prob.j.T)

    def test_zero_correction_spins(self):
        for cs in (CORRECTION_SET_SMALL, CORRECTION_SET_LARGE):
            s = zero_correction_spins(4, cs)
            t = correction_transform(4, cs)
            assert np.all(t @ s == 0)

    def test_paired_opposite_spins_give_anchor(self):
        sc = gen_scenario(3, 3, 4, 8.0, 4)
        mm = mmse_detect(sc)
        prob = build_dimimo(sc, mm.x_m_sliced)
        s = zero_correction_spins(3, prob.correction_set)
        assert np.array_equal(prob.reconstruct(s), prob.x_m)

    def test_objective_identity(self):
        # Ising-energy differences equal residual-norm differences
        rng = np.random.default_rng(5)
        for seed in range(10):
            sc = gen_scenario(4, 4, 16, 12.0, 100 + seed)
            prob = build_dimimo(sc, mmse_detect(sc).x_m_sliced)
            k = prob.n_spins
            for _ in range(20):
                s1 = rng.integers(0, 2, k) * 2.0 - 1.0
                s2 = rng.integers(0, 2, k) * 2.0 - 1.0
                de = prob.energy(s1) - prob.energy(s2)
                dr = residual_norm_sq(prob, s1) - residual_norm_sq(prob, s2)
                assert de == pytest.approx(dr, rel=1e-9, abs=1e-9)

    def test_zero_noise_anchor_is_global_minimum(self):
        # brute force over all spins at nt=2: d = 0 minimizes the residual
        sc = gen_scenario(2, 2, 4, math.inf, 21)
        mm = mmse_detect(sc)
        assert np.array_equal(mm.symbols, sc.x_true)
        prob = build_dimimo(sc, mm.x_m_sliced)
        k = prob.n_spins
        best_e, best_s = np.inf, None
        for mask in range(1 << k):
            s = ((mask >> np.arange(k)) & 1) * 2.0 - 1.0
            e = prob.energy(s)
            if e < best_e:
                best_e, best_s = e, s
        assert np.all(prob.t_matrix @ best_s == 0)


class TestDetect:
    def test_step_defaults(self):
        assert default_steps(SolverKind.PIMI, 8, 16, 32) == 32
        assert default_steps(SolverKind.CONV_SEQUENTIAL, 8, 16, 32) == 1024
        assert default_steps(SolverKind.CONV_PARALLEL, 8, 16, 32) == 32
        assert default_steps(SolverKind.PIMI, 16, 4, 64) == 32
        assert default_steps(SolverKind.PIMI, 4, 4, 16) == 32

    def test_zero_noise_detection_exact(self):
        for seed in (1, 2, 3):
            sc = gen_scenario(2, 2, 4, math.inf, seed)
            res = detect(sc, DetectorConfig(kind="pimi", trials=8, steps=16),
                         base_seed=seed)
            assert np.array_equal(res.bits, sc.bits_true)
            assert res.ber == 0.0

    def test_mmse_shortcut(self):
        sc = gen_scenario(4, 4, 16, 14.0, 8)
        res = detect(sc, DetectorConfig(kind="mmse"))
        assert res.best_energy is None
        assert np.array_equal(res.symbols, mmse_detect(sc).symbols)

    def test_detection_deterministic(self):
        sc = gen_scenario(4, 4, 4, 10.0, 17)
        cfg = DetectorConfig(kind="pimi", trials=8, steps=32)
        a = detect(sc, cfg, base_seed=5)
        b = detect(sc, cfg, base_seed=5)
        assert np.array_equal(a.bits, b.bits)
        assert a.best_energy == b.best_energy

    def test_selected_energy_is_min_over_trials(self):
        sc = gen_scenario(4, 4, 16, 15.0, 23)
        res = detect(sc, DetectorConfig(kind="pimi", trials=16, steps=32), base_seed=2)
        assert res.best_energy == res.trial_energies.min()

    def test_ber_improves_with_snr(self):
        lo = [gen_scenario(4, 4, 4, 0.0, 3000 + i) for i in range(150)]
        hi = [gen_scenario(4, 4, 4, 12.0, 3000 + i) for i in range(150)]
        cfg = DetectorConfig(kind="pimi", trials=16, steps=32)
        assert ber(hi, cfg, base_seed=1) <= ber(lo, cfg, base_seed=1)

    @pytest.mark.parametrize("kind, quantized, steps", [
        ("pimi", False, 4), ("pimi", True, 4), ("conv-par", True, 4),
        ("conv-seq", False, 64)])
    def test_ber_over_groups_equals_per_scenario_detect(self, kind, quantized, steps):
        # 40 scenarios at 8 trials run as groups of 32 and 8 stacked
        # instances; scenario idx is detected with base seed
        # SeedSequence([base_seed, idx]). Few trials and steps leave each
        # BER sensitive to its seeds.
        scenarios = [gen_scenario(4, 4, 16, 4.0, 40 + i) for i in range(40)]
        quant = (Quantization(FixedPointFormat(16, 4), TanhLut(4))
                 if quantized else None)
        cfg = DetectorConfig(kind=kind, trials=8, steps=steps, quantization=quant)
        per_scenario = [detect(sc, cfg, base_seed=scenario_seed(7, idx)).ber
                        for idx, sc in enumerate(scenarios)]
        assert sum(per_scenario) > 0
        assert ber(scenarios, cfg, base_seed=7) == float(np.mean(per_scenario))

    def test_ber_over_mixed_shapes_equals_per_scenario_detect(self):
        scenarios = [gen_scenario(2, 2, 4, 2.0, 60 + i) if i % 2 else
                     gen_scenario(4, 4, 16, 4.0, 60 + i) for i in range(9)]
        cfg = DetectorConfig(kind="pimi", trials=16, steps=16)
        per_scenario = [detect(sc, cfg, base_seed=scenario_seed(3, idx)).ber
                        for idx, sc in enumerate(scenarios)]
        assert ber(scenarios, cfg, base_seed=3) == float(np.mean(per_scenario))

    def test_ber_bounds(self):
        sc = gen_scenario(2, 2, 4, math.inf, 5)
        assert ber([sc], DetectorConfig(kind="mmse")) == 0.0
        with pytest.raises(ConfigError):
            ber([], DetectorConfig(kind="mmse"))


def scenario_seed(base_seed, idx):
    return int(np.random.SeedSequence([base_seed, idx]).generate_state(1, np.uint64)[0])


class TestConstants:
    def test_throughput_requirements(self):
        assert THROUGHPUT_REQ_LTE_10MHZ_PER_MS == 8400
        assert THROUGHPUT_REQ_5G_NR_50MHZ_PER_MS == 35640
