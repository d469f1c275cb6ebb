import math

import numpy as np
import pytest

from pimi_lab.core import ConfigError, IsingInstance, TrialRecord, as_spins
from pimi_lab.metrics import (
    CLOCK_HZ_MIMO_PIMI_8X8,
    CostModel,
    CostModelKind,
    SuccessCriterion,
    ccts,
    first_success_step,
    log_space_std,
    n_trials_required,
    neighbor_triggered_flip_rate,
    optimize_step_budget,
    speedup,
    success_curve,
    wall_clock,
)


def record(improvements, seed=0):
    step, e = improvements[-1]
    return TrialRecord(best_energy=e, best_step=step, final_spins=as_spins([1.0]),
                       seed=seed, improvements=improvements)


class TestSuccessCriterion:
    def test_threshold_relaxed_above_ground(self):
        crit = SuccessCriterion(ground_energy=-100.0)
        assert crit.threshold == pytest.approx(-99.9)
        assert crit.threshold >= crit.ground_energy

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigError):
            SuccessCriterion(ground_energy=-1.0, threshold_fraction=0.0)
        with pytest.raises(ConfigError):
            SuccessCriterion(ground_energy=-1.0, threshold_fraction=1.5)


class TestSuccessProbability:
    def test_all_at_ground(self):
        crit = SuccessCriterion(-10.0)
        recs = [record([(0, -10.0)]) for _ in range(8)]
        assert success_curve(recs, crit, [1])[0] == 1.0

    def test_fraction_and_budget(self):
        crit = SuccessCriterion(-10.0)
        recs = [
            record([(0, -4.0), (5, -10.0)]),
            record([(0, -9.5)]),      # above the 0.999 threshold -> miss
            record([(2, -9.995)]),    # below threshold -> hit
            record([(1, -3.0)]),
        ]
        assert success_curve(recs, crit, [6])[0] == 0.5
        # within a 3-step budget the step-5 improvement does not count
        assert success_curve(recs, crit, [3])[0] == 0.25

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            success_curve([], SuccessCriterion(-1.0), [1])

    def test_success_curve_monotone(self):
        crit = SuccessCriterion(-10.0)
        recs = [record([(3, -10.0)]), record([(7, -10.0)]), record([(0, -1.0)])]
        curve = success_curve(recs, crit, [1, 4, 8, 16])
        assert np.all(np.diff(curve) >= 0)
        assert curve[0] == 0.0
        assert curve[1] == pytest.approx(1 / 3)
        assert curve[-1] == pytest.approx(2 / 3)

    def test_first_success_step(self):
        crit = SuccessCriterion(-10.0)
        assert first_success_step(record([(2, -5.0), (9, -10.0)]), crit) == 9
        assert first_success_step(record([(2, -5.0)]), crit) is None


class TestNTrials:
    def test_examples(self):
        assert n_trials_required(0.5) == 10
        assert n_trials_required(1.0) == 1
        assert n_trials_required(0.999) == 1
        assert n_trials_required(0.0) == math.inf

    def test_monotone_in_p(self):
        ps = np.linspace(0.01, 0.99, 50)
        ns = [n_trials_required(p) for p in ps]
        assert all(b <= a for a, b in zip(ns, ns[1:]))

    def test_domain_checks(self):
        with pytest.raises(ConfigError):
            n_trials_required(-0.1)
        with pytest.raises(ConfigError):
            n_trials_required(1.1)
        with pytest.raises(ConfigError):
            n_trials_required(0.5, epsilon=0.0)


class TestCostModels:
    def test_pimi_at_200(self):
        model = CostModel(CostModelKind.PIMI)
        assert model.cycles_per_step(200) == pytest.approx(17.01, abs=0.01)

    def test_par_at_200(self):
        model = CostModel(CostModelKind.PAR)
        assert model.cycles_per_step(200) == pytest.approx(15.41, abs=0.01)

    def test_seq_per_sweep(self):
        model = CostModel(CostModelKind.SEQ)
        assert model.cycles_per_sweep(4) == pytest.approx(44.67, abs=1e-9)
        expected = 200 * math.log2(200) + 1600 + 4.67
        assert model.cycles_per_sweep(200) == pytest.approx(expected, abs=0.01)
        assert model.cycles_per_step(200) == pytest.approx(expected / 200, abs=1e-9)

    def test_constant_offset_pimi_minus_par(self):
        pimi = CostModel(CostModelKind.PIMI)
        par = CostModel(CostModelKind.PAR)
        for n in (2, 10, 100, 1000):
            assert pimi.cycles_per_step(n) - par.cycles_per_step(n) == pytest.approx(1.6)

    def test_seq_sweep_dominates_pimi_step(self):
        seq = CostModel(CostModelKind.SEQ)
        pimi = CostModel(CostModelKind.PIMI)
        for n in (2, 16, 64, 128, 256, 1024):
            assert seq.cycles_per_sweep(n) >= pimi.cycles_per_step(n)
            if n >= 64:
                assert seq.cycles_per_sweep(n) / pimi.cycles_per_step(n) > n / 2

    def test_small_n_rejected(self):
        with pytest.raises(ConfigError):
            CostModel(CostModelKind.SEQ).cycles_per_sweep(1)


class TestCcts:
    def test_reference_value(self):
        val = ccts(1.0, 100, CostModel(CostModelKind.PIMI), 200)
        assert val == pytest.approx(1701, abs=0.5)

    def test_unsolvable(self):
        assert math.isinf(ccts(0.0, 100, CostModel(CostModelKind.PIMI), 200))

    def test_linear_in_t_at_fixed_p(self):
        model = CostModel(CostModelKind.PAR)
        assert ccts(0.3, 200, model, 50) == pytest.approx(2 * ccts(0.3, 100, model, 50))

    def test_speedup(self):
        assert speedup(100.0, 4.0) == 25.0
        assert speedup(7.0, 7.0) == 1.0
        with pytest.raises(ConfigError):
            speedup(math.inf, 1.0)

    def test_wall_clock(self):
        assert wall_clock(2.74e8, CLOCK_HZ_MIMO_PIMI_8X8) == pytest.approx(1.0)
        assert wall_clock(0.0, 1e6) == 0.0


class TestLandscape:
    def test_synthetic_interior_optimum(self):
        # p(T) = min(1, T/100): closed-form scan locates the same optimum
        model = CostModel(CostModelKind.PIMI)
        grid = list(range(10, 210, 10))
        p = [min(1.0, t / 100.0) for t in grid]
        ls = optimize_step_budget(50, model, grid, p)
        assert ls.solved
        brute = min(
            ((t, n_trials_required(pv) * t * model.cycles_per_step(50))
             for t, pv in zip(grid, p) if pv > 0),
            key=lambda r: r[1],
        )
        assert ls.optimum == pytest.approx(brute)
        t_star, _ = ls.optimum
        assert 10 < t_star <= 100

    def test_saturated_p_puts_optimum_at_grid_start(self):
        model = CostModel(CostModelKind.PIMI)
        grid = [10, 20, 40]
        ls = optimize_step_budget(20, model, grid, [1.0, 1.0, 1.0])
        assert ls.optimum[0] == 10

    def test_single_point_grid_rejected(self):
        with pytest.raises(ConfigError):
            optimize_step_budget(20, CostModel(CostModelKind.PIMI), [10], [0.5])

    def test_all_zero_p_unsolved(self):
        ls = optimize_step_budget(20, CostModel(CostModelKind.PIMI),
                                  [10, 20], [0.0, 0.0])
        assert not ls.solved
        assert ls.optimum is None

    def test_non_monotone_p_rejected(self):
        with pytest.raises(ConfigError):
            optimize_step_budget(20, CostModel(CostModelKind.PIMI),
                                 [10, 20, 30], [0.5, 0.4, 0.6])

    def test_optimum_bounds_whole_grid(self):
        model = CostModel(CostModelKind.SEQ)
        grid = list(range(10, 110, 10))
        p = [min(1.0, (t / 80.0) ** 2) for t in grid]
        ls = optimize_step_budget(30, model, grid, p)
        _, best = ls.optimum
        finite = [row[3] for row in ls.grid if math.isfinite(row[3])]
        assert best == min(finite)


class TestLogSpaceStd:
    def test_hand_check(self):
        vals = [0.1, 0.2, 0.4]
        logs = np.log10(vals)
        assert log_space_std(vals) == pytest.approx(float(np.std(logs)))

    def test_ignores_zeros(self):
        assert log_space_std([0.0, 0.1, 0.1]) == 0.0
        assert math.isnan(log_space_std([0.0, 0.0]))


class TestFlipRate:
    def ferro2(self):
        return IsingInstance(2, np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2))

    def test_frozen_trajectory_all_null(self):
        states = np.ones((6, 2), dtype=np.int8)
        out = neighbor_triggered_flip_rate(states, self.ferro2())
        assert np.all(np.isnan(out))

    def test_period_two_orbit_is_one(self):
        states = np.array([[1, -1], [-1, 1], [1, -1], [-1, 1]], dtype=np.int8)
        out = neighbor_triggered_flip_rate(states, self.ferro2())
        assert np.all(out == 1.0)

    def test_isolated_spin_flip_not_counted(self):
        # spin 1 flips alone: spin 0's neighbor flipped (event, no self-flip);
        # spin 1 has no flipping neighbor, so it contributes no event
        states = np.array([[1, 1], [1, -1]], dtype=np.int8)
        out = neighbor_triggered_flip_rate(states, self.ferro2())
        assert out[0] == 0.0

    def test_aggregates_over_trials(self):
        orbit = np.array([[1, -1], [-1, 1]], dtype=np.int8)
        frozen = np.ones((2, 2), dtype=np.int8)
        out = neighbor_triggered_flip_rate([orbit, frozen], self.ferro2())
        assert out[0] == 1.0  # frozen trial adds no conditioning events

    def test_complete_graph_is_flipping_fraction(self):
        # all pairs coupled and two spins flip: each spin has a flipping
        # neighbor, so every spin is an event and P_NT = 2 of 3
        j = np.ones((3, 3)) - np.eye(3)
        inst = IsingInstance(3, j, np.zeros(3))
        states = np.array([[1, 1, 1], [-1, -1, 1]], dtype=np.int8)
        out = neighbor_triggered_flip_rate(states, inst)
        assert out[0] == pytest.approx(2 / 3)

    def test_short_trajectory_rejected(self):
        with pytest.raises(ConfigError):
            neighbor_triggered_flip_rate(np.ones((1, 2), dtype=np.int8), self.ferro2())

    def test_uncoupled_spins_never_condition(self):
        inst = IsingInstance(2, np.zeros((2, 2)), np.zeros(2))
        states = np.array([[1, -1], [-1, 1], [1, -1]], dtype=np.int8)
        out = neighbor_triggered_flip_rate(states, inst)
        assert np.all(np.isnan(out))
