import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimi_lab import solvers
from pimi_lab.core import (
    ConfigError,
    DimensionError,
    IsingInstance,
    Schedule,
    ScheduleKind,
    TrialRecord,
    as_spins,
    derive_seeds,
    energy,
    random_spins,
    read_records_jsonl,
    write_records_jsonl,
)


def k3_instance():
    a = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
    return IsingInstance(3, -a, np.zeros(3), "k3")


def energy_upper_triangle(inst, s):
    """Reference i<j form of the energy (independent of the quadratic form)."""
    iu, ju = np.triu_indices(inst.n, k=1)
    return float(-np.sum(inst.j[iu, ju] * s[iu] * s[ju]) - inst.h @ s)


def local_fields(inst, s):
    """Reference raw local fields I_i = sum_j J_ij s_j + h_i."""
    return inst.j @ s + inst.h


def random_instance(n, rng, with_bias=True):
    j = rng.standard_normal((n, n))
    j = (j + j.T) / 2.0
    np.fill_diagonal(j, 0.0)
    h = rng.standard_normal(n) if with_bias else np.zeros(n)
    return IsingInstance(n, j, h, "rand")


class TestInstanceInvariants:
    def test_rejects_asymmetric(self):
        j = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError):
            IsingInstance(2, j, np.zeros(2))

    def test_rejects_nonzero_diagonal(self):
        j = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            IsingInstance(2, j, np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_couplings(self, bad):
        # NaN is not equal to itself, so without a finiteness check first
        # this was reported as an asymmetric J
        j = np.array([[0.0, bad], [bad, 0.0]])
        with pytest.raises(ConfigError, match="finite"):
            IsingInstance(2, j, np.zeros(2))

    def test_rejects_non_finite_bias(self):
        with pytest.raises(ConfigError, match="finite"):
            IsingInstance(2, np.zeros((2, 2)), np.array([0.0, np.nan]))

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionError):
            IsingInstance(3, np.zeros((2, 2)), np.zeros(3))
        with pytest.raises(DimensionError):
            IsingInstance(2, np.zeros((2, 2)), np.zeros(3))

    def test_json_roundtrip(self, tmp_path):
        inst = k3_instance()
        path = tmp_path / "inst.json"
        inst.save(path)
        back = IsingInstance.load(path)
        assert back.n == inst.n
        assert np.array_equal(back.j, inst.j)
        assert np.array_equal(back.h, inst.h)
        assert back.label == inst.label
        assert back.field_scale == inst.field_scale


class TestEnergy:
    def test_k3_ground_state(self):
        # exhaustive check: -1 is the minimum over all 8 states
        inst = k3_instance()
        s = np.array([1.0, 1.0, -1.0])
        assert energy(inst, s) == -1.0
        energies = []
        for mask in range(8):
            bits = (mask >> np.arange(3)) & 1
            energies.append(energy(inst, bits * 2.0 - 1.0))
        assert min(energies) == -1.0

    def test_single_spin_bias(self):
        inst = IsingInstance(1, np.zeros((1, 1)), np.array([2.5]))
        assert energy(inst, np.array([1.0])) == -2.5

    def test_global_flip_symmetry_without_bias(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            inst = random_instance(8, rng, with_bias=False)
            s = random_spins(8, rng)
            assert energy(inst, s) == energy(inst, -s)

    def test_quadratic_form_matches_upper_triangle(self):
        rng = np.random.default_rng(7)
        for n in (2, 17, 64, 256):
            inst = random_instance(n, rng)
            s = random_spins(n, rng)
            a = energy(inst, s)
            b = energy_upper_triangle(inst, s)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    def test_flip_identity(self):
        # flipping spin k changes the energy by exactly 2 s_k I_k(s)
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 33))
            inst = random_instance(n, rng)
            s = random_spins(n, rng)
            fields = local_fields(inst, s)
            k = int(rng.integers(n))
            flipped = s.copy()
            flipped[k] = -flipped[k]
            delta = energy(inst, flipped) - energy(inst, s)
            assert delta == pytest.approx(2.0 * s[k] * fields[k], rel=1e-10, abs=1e-10)

    def test_dimension_mismatch(self):
        inst = k3_instance()
        with pytest.raises(DimensionError):
            energy(inst, np.ones(4))


class TestLocalFields:
    def test_k3_all_up(self):
        inst = k3_instance()
        assert np.array_equal(local_fields(inst, np.ones(3)), [-2.0, -2.0, -2.0])

    def test_bias_only(self):
        h = np.array([0.5, -1.5, 2.0, 0.0])
        inst = IsingInstance(4, np.zeros((4, 4)), h)
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert np.array_equal(local_fields(inst, random_spins(4, rng)), h)

    def test_matches_double_loop_reference(self):
        # integer-valued instance: every partial sum is exact, so the naive
        # double loop must agree bit-for-bit with the vectorized fields
        rng = np.random.default_rng(5)
        j = rng.integers(-3, 4, size=(6, 6)).astype(float)
        j = np.triu(j, 1)
        j = j + j.T
        h = rng.integers(-3, 4, size=6).astype(float)
        inst = IsingInstance(6, j, h, "int-rand")
        s = random_spins(6, rng)
        ref = np.zeros(6)
        for i in range(6):
            for jj in range(6):
                ref[i] += inst.j[i, jj] * s[jj]
            ref[i] += inst.h[i]
        assert np.array_equal(local_fields(inst, s), ref)

    def test_float_instance_close_to_double_loop(self):
        rng = np.random.default_rng(6)
        inst = random_instance(6, rng)
        s = random_spins(6, rng)
        ref = np.array([sum(inst.j[i, jj] * s[jj] for jj in range(6)) + inst.h[i]
                        for i in range(6)])
        assert np.allclose(local_fields(inst, s), ref, rtol=1e-13, atol=1e-13)


class TestSpinState:
    def test_rejects_zero_and_other_values(self):
        with pytest.raises(ValueError):
            as_spins([1.0, 0.0, -1.0])
        with pytest.raises(ValueError):
            as_spins([1.0, 2.0])

    def test_accepts_plus_minus_one(self):
        s = as_spins([-1, 1, 1])
        assert s.dtype == np.float64
        assert np.array_equal(s, [-1.0, 1.0, 1.0])


class TestSchedule:
    def test_rejects_negative_eta(self):
        with pytest.raises(ValueError):
            Schedule(ScheduleKind.CUSTOM, np.ones(3), np.array([0.1, -0.1, 0.0]), 0.0, 3)

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            Schedule(ScheduleKind.CUSTOM, np.ones(0), np.ones(0), 0.0, 0)

    def test_pimi_bench_requires_monotone_beta(self):
        beta = np.array([0.5, 0.4, 0.6])
        with pytest.raises(ValueError):
            Schedule(ScheduleKind.PIMI_BENCH, beta, np.ones(3), 0.5, 3)

    @pytest.mark.parametrize("field", ["beta", "eta", "xi"])
    def test_rejects_nan(self, field):
        args = {"beta": np.ones(3), "eta": np.ones(3), "xi": 0.5}
        args[field] = np.nan if field == "xi" else np.array([1.0, np.nan, 1.0])
        with pytest.raises(ConfigError, match="finite"):
            Schedule(ScheduleKind.CUSTOM, args["beta"], args["eta"], args["xi"], 3)


class TestTrialRecord:
    def test_jsonl_roundtrip(self, tmp_path):
        recs = [
            TrialRecord(best_energy=-2.0, best_step=1, final_spins=as_spins([1, -1]),
                        seed=42, improvements=[(0, -1.0), (1, -2.0)],
                        energy_trajectory=np.array([-1.0, -2.0])),
            TrialRecord(best_energy=-3.5, best_step=0, final_spins=as_spins([-1, -1]),
                        seed=43, improvements=[(0, -3.5)]),
        ]
        path = tmp_path / "r.jsonl"
        write_records_jsonl(path, recs,
                            extra=[{"instance": 0, "trial": k} for k in range(2)])
        back, extras = read_records_jsonl(path)
        assert len(back) == 2
        assert back[0].best_energy == -2.0
        assert back[0].improvements == [(0, -1.0), (1, -2.0)]
        assert np.array_equal(back[0].energy_trajectory, [-1.0, -2.0])
        assert back[1].energy_trajectory is None
        assert extras[1] == {"instance": 0, "trial": 1}

    def test_trajectory_consistency(self):
        # best_energy equals the trajectory minimum when a trajectory exists
        traj = np.array([-1.0, -4.0, -2.0, -4.0])
        rec = TrialRecord(best_energy=-4.0, best_step=1,
                          final_spins=as_spins([1]), seed=0,
                          improvements=[(0, -1.0), (1, -4.0)],
                          energy_trajectory=traj)
        assert rec.best_energy == traj.min()
        assert rec.best_step == int(np.argmin(traj))


# entropy ints across numpy's word boundaries: 1, 2 and 3 uint32 words
_ENTROPY_INT = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64]),
                         st.integers(0, 2**96 - 1))
_ENTROPY_ROW = st.lists(_ENTROPY_INT, min_size=1, max_size=5)
_SPAWN_KEY = st.sampled_from([(), (0,), (1,)])


class TestDeriveSeeds:
    """derive_seeds against np.random.SeedSequence itself: a numpy whose
    algorithm moved would fail here (and move every archive)."""

    @given(rows=st.lists(_ENTROPY_ROW, min_size=1, max_size=8),
           spawn_key=_SPAWN_KEY, words=st.sampled_from([1, 4]))
    @settings(max_examples=200, deadline=None)
    def test_rows_are_seed_sequence_states(self, rows, spawn_key, words):
        # rows of mixed entropy lengths in one call
        out = derive_seeds(rows, spawn_key, words)
        assert out.dtype == np.uint64 and out.shape == (len(rows), words)
        for row, got in zip(rows, out, strict=True):
            ss = np.random.SeedSequence(row, spawn_key=spawn_key)
            assert np.array_equal(got, ss.generate_state(words, np.uint64))

    @given(row=_ENTROPY_ROW, spawn_key=_SPAWN_KEY)
    @settings(max_examples=200, deadline=None)
    def test_generators_from_derived_words_are_default_rng(self, row, spawn_key):
        ref = np.random.default_rng(np.random.SeedSequence(row, spawn_key=spawn_key))
        rng = solvers._generators(derive_seeds([row], spawn_key, words=4))[0]
        assert np.array_equal(rng.standard_normal(7), ref.standard_normal(7))
        assert np.array_equal(rng.uniform(-1.0, 1.0, 7), ref.uniform(-1.0, 1.0, 7))
        assert np.array_equal(rng.integers(0, 2, 7), ref.integers(0, 2, 7))

    def test_rejects_what_seed_sequence_rejects(self):
        with pytest.raises(ValueError, match="non-negative"):
            derive_seeds([[3, -1]])
        with pytest.raises(ValueError, match="non-negative"):
            derive_seeds([[3]], spawn_key=(-1,))
        with pytest.raises(TypeError):
            derive_seeds([[1.5]])

    def test_words_other_than_derived_are_refused(self):
        words = derive_seeds([[1]], words=4)[0]
        with pytest.raises(ValueError, match="asked for 2"):
            solvers._words_type()(words).generate_state(2, np.uint64)
