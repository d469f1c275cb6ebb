import math
from concurrent.futures import Future

import numpy as np
import pytest

from pimi_lab import mimo, solvers
from pimi_lab.core import (
    ConfigError,
    DimensionError,
    IsingInstance,
    Schedule,
    ScheduleKind,
    energy,
)
from pimi_lab.harness import instance_seed
from pimi_lab.instances import Family, GeneratorSpec, gen_maxcut, gen_sk1
from pimi_lab.mimo import gen_scenario
from pimi_lab.quantize import FixedPointFormat, TanhLut
from pimi_lab.solvers import (
    Quantization,
    SolverKind,
    default_schedule_params,
    make_schedule,
    run_batch,
    schedule_for_solver,
)


def ferromagnet2():
    return IsingInstance(2, np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2), "ferro2")


def antiferromagnet2():
    return IsingInstance(2, np.array([[0.0, -1.0], [-1.0, 0.0]]), np.zeros(2), "anti2")


def k3():
    a = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
    return IsingInstance(3, -a, np.zeros(3), "k3", field_scale=2.0 / math.sqrt(3))


def const_schedule(beta, eta, xi, t_steps, kind=ScheduleKind.CUSTOM):
    return Schedule(kind, np.full(t_steps, float(beta)),
                    np.full(t_steps, float(eta)), xi, t_steps)


def trajectory(inst, kind, sched, init, base_seed=0):
    """State trajectory (initial state first) of one trial started from
    `init`; with eta = 0 every step is deterministic."""
    rec = run_batch([inst], kind, sched, 1, base_seed=base_seed,
                    init_state=init, record_states=True)[0][0]
    return rec.state_trajectory.astype(float)


class TestSteps:
    def test_sequential_aligns_with_field(self):
        # beta -> inf limit: tanh saturates, spin follows its field sign
        inst = ferromagnet2()
        sched = const_schedule(1e6, 0.0, 0.0, 2)
        out = trajectory(inst, SolverKind.CONV_SEQUENTIAL, sched, [-1.0, 1.0])[1]
        assert np.array_equal(out, [1.0, 1.0])  # only spin 0 changed

    def test_sequential_only_moves_one_spin(self):
        inst = k3()
        sched = const_schedule(0.5, 0.0, 0.0, 3)
        states = trajectory(inst, SolverKind.CONV_SEQUENTIAL, sched, [1.0, 1.0, 1.0])
        for t in range(3):
            changed = np.nonzero(states[t + 1] != states[t])[0]
            assert set(changed) <= {t}

    def test_sign_zero_is_plus_one(self):
        # eta = 0 and zero field: sign(tanh(0)) must resolve to +1
        inst = IsingInstance(2, np.zeros((2, 2)), np.zeros(2))
        sched = const_schedule(1.0, 0.0, 0.0, 2)
        s = [-1.0, -1.0]
        out = trajectory(inst, SolverKind.CONV_SEQUENTIAL, sched, s)[1]
        assert out[0] == 1.0
        out_par = trajectory(inst, SolverKind.CONV_PARALLEL, sched, s)[1]
        assert np.array_equal(out_par, [1.0, 1.0])

    def test_parallel_antiferromagnet_stable(self):
        inst = antiferromagnet2()
        sched = const_schedule(1e6, 0.0, 0.0, 1)
        s = np.array([1.0, -1.0])
        out = trajectory(inst, SolverKind.CONV_PARALLEL, sched, s)[1]
        assert np.array_equal(out, s)

    def test_parallel_ferromagnet_oscillates(self):
        # both spins chase each other: the coupled-oscillation pathology
        inst = ferromagnet2()
        sched = const_schedule(1e6, 0.0, 0.0, 1)
        out = trajectory(inst, SolverKind.CONV_PARALLEL, sched, [1.0, -1.0])[1]
        assert np.array_equal(out, [-1.0, 1.0])

    def test_pimi_large_xi_freezes(self):
        inst = ferromagnet2()
        sched = const_schedule(5.0, 0.0, 2.0, 1)
        for s in ([1.0, -1.0], [-1.0, -1.0], [1.0, 1.0]):
            out = trajectory(inst, SolverKind.PIMI, sched, s)[1]
            assert np.array_equal(out, s)

    def test_pimi_half_xi_two_spin(self):
        # xi = 0.5 does not freeze the 2-spin flip: direct evaluation gives (-1, +1)
        inst = ferromagnet2()
        sched = const_schedule(1e6, 0.0, 0.5, 1)
        out = trajectory(inst, SolverKind.PIMI, sched, [1.0, -1.0])[1]
        assert np.array_equal(out, [-1.0, 1.0])

    def test_parallel_reads_pre_step_state(self):
        # double-buffered reference: fields must come from the old state only
        rng = np.random.default_rng(0)
        inst = gen_sk1(GeneratorSpec(Family.SK_ONE, 9, 3))
        sched = const_schedule(0.8, 0.0, 0.3, 1)
        s = rng.integers(0, 2, 9) * 2.0 - 1.0
        out = trajectory(inst, SolverKind.PIMI, sched, s)[1]
        expected = np.empty(9)
        for i in range(9):
            field = inst.field_scale * (inst.j[i] @ s) + inst.h[i]
            z = math.tanh(sched.beta[0] * field) + sched.xi * s[i]
            expected[i] = 1.0 if z >= 0 else -1.0
        assert np.array_equal(out, expected)


class TestOscillationWitness:
    def test_period_two_versus_fixed_point(self):
        inst = ferromagnet2()
        sched = const_schedule(1e6, 0.0, 0.0, 6)
        seen = trajectory(inst, SolverKind.CONV_PARALLEL, sched, [1.0, -1.0])
        for k in range(len(seen) - 2):
            assert np.array_equal(seen[k], seen[k + 2])
            assert not np.array_equal(seen[k], seen[k + 1])

        sched_i = const_schedule(1e6, 0.0, 1.0, 6)
        _, s1, s2 = trajectory(inst, SolverKind.PIMI, sched_i, [1.0, -1.0])[:3]
        assert np.array_equal(s1, s2)  # fixed point within one step


class TestRunTrial:
    def test_deterministic(self):
        inst = k3()
        sched = make_schedule(ScheduleKind.PIMI_BENCH,
                              default_schedule_params(ScheduleKind.PIMI_BENCH, "maxcut", 3),
                              50)
        a = run_batch([inst], SolverKind.PIMI, sched, 4, base_seed=9,
                      record_trajectory=True)[0]
        b = run_batch([inst], SolverKind.PIMI, sched, 4, base_seed=9,
                      record_trajectory=True)[0]
        for x, y in zip(a, b):
            assert x.best_energy == y.best_energy
            assert x.best_step == y.best_step
            assert np.array_equal(x.final_spins, y.final_spins)
            assert np.array_equal(x.energy_trajectory, y.energy_trajectory)
            assert x.improvements == y.improvements

    def test_single_step_is_one_sweep(self):
        inst = ferromagnet2()
        sched = const_schedule(1e6, 0.0, 0.0, 1)
        rec = run_batch([inst], SolverKind.CONV_PARALLEL, sched, 1, base_seed=0,
                        init_state=np.array([1.0, -1.0]), record_states=True)[0][0]
        assert rec.state_trajectory.shape == (2, 2)
        assert rec.best_step == 0

    def test_trajectory_semantics(self):
        inst = k3()
        sched = const_schedule(0.7, 0.2, 0.5, 40)
        rec = run_batch([inst], SolverKind.PIMI, sched, 1, base_seed=11,
                        record_trajectory=True, record_states=True)[0][0]
        # trajectory[k] is the energy of the state after update step k
        for k in range(sched.t_steps):
            assert rec.energy_trajectory[k] == pytest.approx(
                energy(inst, rec.state_trajectory[k + 1].astype(float)), abs=1e-9)
        assert rec.best_energy == rec.energy_trajectory.min()
        assert rec.best_step == int(np.argmin(rec.energy_trajectory))
        assert rec.best_step < sched.t_steps
        assert np.array_equal(rec.final_spins, rec.state_trajectory[-1].astype(float))

    def test_sequential_sweep_accounting(self):
        # after N sequential steps each index was touched exactly once, in order
        inst = gen_sk1(GeneratorSpec(Family.SK_ONE, 6, 1))
        sched = const_schedule(0.4, 0.5, 0.0, 6)
        rec = run_batch([inst], SolverKind.CONV_SEQUENTIAL, sched, 1, base_seed=3,
                        record_states=True)[0][0]
        states = rec.state_trajectory.astype(float)
        for t in range(6):
            changed = np.nonzero(states[t + 1] != states[t])[0]
            assert set(changed) <= {t % 6}

    def test_xi_dominance_freeze(self):
        # xi just above 1 with eta = 0: |tanh| <= 1 can never flip any spin
        rng = np.random.default_rng(5)
        for seed in range(3):
            inst = gen_sk1(GeneratorSpec(Family.SK_ONE, 12, seed))
            sched = const_schedule(2.0, 0.0, 1.01, 1000)
            init = rng.integers(0, 2, 12) * 2.0 - 1.0
            states = trajectory(inst, SolverKind.PIMI, sched, init, base_seed=seed)
            assert np.all(states == states[0])

    def test_pimi_xi0_uniform_degenerates_to_conv_parallel(self):
        inst = gen_sk1(GeneratorSpec(Family.SK_ONE, 10, 2))
        sched = const_schedule(0.6, 0.8, 0.0, 120)
        init, _ = reference_streams(10, 21)
        # noise-free, the two kinds step identically
        still = const_schedule(0.6, 0.0, 0.0, 120)
        a = trajectory(inst, SolverKind.PIMI, still, init)
        b = trajectory(inst, SolverKind.CONV_PARALLEL, still, init)
        assert np.array_equal(a, b)
        # with noise, pimi at xi = 0 follows the conv-par rule on its own draws
        states = trajectory(inst, SolverKind.PIMI, sched, init, base_seed=33)
        _, rng = reference_streams(10, first_word([33, 0, 0]))
        ref, _ = reference_trial(inst, SolverKind.CONV_PARALLEL, sched, init,
                                 rng.standard_normal((120, 10)))
        assert np.array_equal(states, ref)

    def test_k3_pimi_reaches_ground(self):
        inst = k3()
        params = default_schedule_params(ScheduleKind.PIMI_BENCH, "maxcut", 3)
        sched = make_schedule(ScheduleKind.PIMI_BENCH, params, 300)
        records = run_batch([inst], SolverKind.PIMI, sched, 256, base_seed=100)[0]
        hits = sum(rec.best_energy <= -1.0 for rec in records)
        assert hits >= 250


class TestNoiseSource:
    def test_same_seed_same_stream(self):
        # a base seed fixes every trial's initial spins and noise: a rerun
        # repeats them, and each trial runs on numpy's streams for its seed
        inst = gen_sk1(GeneratorSpec(Family.SK_ONE, 8, 1))
        sched = schedule_for_solver(SolverKind.PIMI, "sk1", 8, 30)
        a, b = (run_batch([inst], SolverKind.PIMI, sched, 3, base_seed=5,
                          record_states=True)[0] for _ in range(2))
        for t_idx, (rec_a, rec_b) in enumerate(zip(a, b, strict=True)):
            assert np.array_equal(rec_a.state_trajectory, rec_b.state_trajectory)
            init, draws = trial_noise(SolverKind.PIMI, 8, 30, first_word([5, 0, t_idx]))
            states, _ = reference_trial(inst, SolverKind.PIMI, sched, init, draws)
            assert np.array_equal(rec_a.state_trajectory, states)

    def test_given_init_state_keeps_noise_stream(self):
        # a given initial state skips the init draw; the noise stream is a
        # separate spawn, so each trial runs on the draws it has without one
        inst = gen_sk1(GeneratorSpec(Family.SK_ONE, 8, 1))
        sched = schedule_for_solver(SolverKind.PIMI, "sk1", 8, 30)
        given = -np.ones(8)
        recs = run_batch([inst], SolverKind.PIMI, sched, 3, base_seed=5,
                         init_state=given, record_states=True)[0]
        for t_idx, rec in enumerate(recs):
            _, draws = trial_noise(SolverKind.PIMI, 8, 30, first_word([5, 0, t_idx]))
            states, _ = reference_trial(inst, SolverKind.PIMI, sched, given, draws)
            assert np.array_equal(rec.state_trajectory, states)

    def test_uniform_range(self):
        # conv kinds draw U(-1,1): a drive saturated at tanh = 1 is never
        # overturned by a draw, and at zero drive the draw's sign is balanced
        n, steps = 50, 40
        noisy = const_schedule(1e6, 1.0, 0.0, steps)
        pinned = IsingInstance(n, np.zeros((n, n)), np.ones(n))
        states = trajectory(pinned, SolverKind.CONV_PARALLEL, noisy, np.ones(n), 1)
        assert np.all(states == 1.0)
        free = IsingInstance(n, np.zeros((n, n)), np.zeros(n))
        states = trajectory(free, SolverKind.CONV_PARALLEL, noisy, np.ones(n), 1)
        assert abs(states[1:].mean()) < 0.1


def first_word(entropy, spawn_key=()):
    ss = np.random.SeedSequence(entropy, spawn_key=spawn_key)
    return int(ss.generate_state(1, np.uint64)[0])


def reference_streams(n, trial_seed):
    """A trial's initial spins and noise generator from numpy alone: the
    spins drawn from default_rng(SeedSequence(trial_seed, spawn_key=(0,))),
    the noise from default_rng of the first word of the (1,) child."""
    init_rng = np.random.default_rng(np.random.SeedSequence(trial_seed, spawn_key=(0,)))
    init = init_rng.integers(0, 2, size=n) * 2.0 - 1.0
    return init, np.random.default_rng(first_word(trial_seed, (1,)))


class TestSeedTree:
    """Every seed split against np.random.SeedSequence alone, for base seeds
    of one 32-bit word, of two and of three."""

    BASES = [7, 2**40 + 3, 2**64 - 1, 2**64 + 5]

    @pytest.mark.parametrize("base", BASES)
    def test_instance_and_trial_seeds(self, base):
        for a, b in [(0, 0), (20, 3), (100, 19)]:
            assert instance_seed(base, a, b) == first_word([base, a, b])
            seeds, _ = solvers._seed_block([(base, a)], [b], np.empty((1, 2)),
                                           np.ones(2))
            assert seeds == [first_word([base, a, b])]

    @pytest.mark.parametrize("base", BASES)
    def test_detection_base_seeds(self, base, monkeypatch):
        # scenario idx of a BER point runs with base seed SeedSequence([base, idx])
        seen = []

        def spy(instances, kind, sched, n_trials, base_seed, **kwargs):
            seen.extend(base_seed)
            return run_batch(instances, kind, sched, n_trials, base_seed, **kwargs)

        monkeypatch.setattr(mimo, "run_batch", spy)
        scenarios = [gen_scenario(2, 2, 4, 6.0, i) for i in range(10)]
        mimo.ber(scenarios, mimo.DetectorConfig(kind="pimi", trials=4, steps=4),
                 base_seed=base)
        assert seen == [first_word([base, idx]) for idx in range(10)]
        assert all(type(s) is int and 0 <= s < 2**64 for s in seen)

    @pytest.mark.parametrize("seed", BASES)
    def test_trial_streams(self, seed):
        # a block's trial k of the instance keyed (seed, 0): init spins from
        # the first child of spawn(2) of its trial seed, the noise generator
        # seeded from the second's first word, with or without an init state
        trials = [0, 1, 5]
        S = np.empty((len(trials), 9))
        seeds, rngs = solvers._seed_block([(seed, 0)], trials, S, None)
        given = np.ones((len(trials), 9))
        given_seeds, given_rngs = solvers._seed_block([(seed, 0)], trials, given,
                                                      np.ones(9))
        assert seeds == given_seeds == [first_word([seed, 0, k]) for k in trials]
        assert np.all(given == 1.0)
        for r, ts in enumerate(seeds):
            init_ss, noise_ss = np.random.SeedSequence(ts).spawn(2)
            ref_init = np.random.default_rng(init_ss).integers(0, 2, size=9) * 2.0 - 1.0
            ref_noise = np.random.default_rng(
                int(noise_ss.generate_state(1, np.uint64)[0])).standard_normal(20)
            assert np.array_equal(S[r], ref_init)
            assert np.array_equal(rngs[r].standard_normal(20), ref_noise)
            assert np.array_equal(given_rngs[r].standard_normal(20), ref_noise)

    @pytest.mark.parametrize("kind", [SolverKind.PIMI, SolverKind.CONV_SEQUENTIAL])
    def test_stacked_block_mixes_seed_lengths(self, kind):
        # base seeds of 1, 2 and 3 uint32 words, and 0, in one stacked block
        # of 5 instances x 3 trials: each record's seed, initial spins and
        # noise are numpy's
        bases = [7, 2**40 + 3, 2**64 + 5, 0, 2**70]
        assert solvers.instances_per_block(3) >= len(bases)
        insts = [gen_sk1(GeneratorSpec(Family.SK_ONE, 6, s)) for s in range(len(bases))]
        sched = schedule_for_solver(kind, "sk1", 6, 20)
        out = run_batch(insts, kind, sched, 3, base_seed=bases, record_states=True)
        for inst, base, recs in zip(insts, bases, out, strict=True):
            for t_idx, rec in enumerate(recs):
                assert rec.seed == first_word([base, 0, t_idx])
                init, draws = trial_noise(kind, 6, 20, rec.seed)
                assert np.array_equal(rec.state_trajectory[0], init)
                states, _ = reference_trial(inst, kind, sched, init, draws)
                assert np.array_equal(rec.state_trajectory, states)


class TestSchedules:
    def test_conv_mimo_eta_example(self):
        sched = make_schedule(ScheduleKind.CONV_MIMO, {"beta_scale": 1.0}, 10)
        assert sched.eta[4] == pytest.approx(1.0)
        assert sched.beta[0] == 1.0
        assert sched.xi == 0.0

    def test_pimi_bench_beta_monotone(self):
        params = {"beta_scale": 2.0, "beta_init": 0.1, "delta_beta": 0.01, "xi": 0.7}
        sched = make_schedule(ScheduleKind.PIMI_BENCH, params, 500)
        assert np.all(np.diff(sched.beta) >= 0)
        assert np.allclose(sched.eta, np.sqrt(sched.beta / 5.0))

    def test_pimi_mimo_degenerate_ramp(self):
        params = {"beta_scale": 1.0, "gamma_init": 1.5, "gamma_final": 1.5, "xi": 2.0}
        sched = make_schedule(ScheduleKind.PIMI_MIMO, params, 8)
        assert np.all(sched.eta == sched.eta[0])
        assert sched.eta[0] == pytest.approx(math.sqrt(1.0 / 7.5))

    def test_missing_and_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            make_schedule(ScheduleKind.PIMI_BENCH, {"beta_scale": 2.0}, 10)
        with pytest.raises(ConfigError):
            make_schedule(ScheduleKind.CONV_BENCH,
                          {"beta_scale": -1.0, "eta_scale": 1.0, "eta_floor": 0.0}, 10)
        with pytest.raises(ConfigError):
            make_schedule(ScheduleKind.PIMI_MIMO,
                          {"beta_scale": 1.0, "gamma_init": 0.0, "gamma_final": 1.0,
                           "xi": 2.0}, 10)

    def test_schedule_for_solver_families(self):
        s = schedule_for_solver(SolverKind.PIMI, "sk1", 20, 100)
        assert s.kind is ScheduleKind.PIMI_BENCH
        assert s.xi == 0.5
        s = schedule_for_solver(SolverKind.PIMI, "maxcut", 20, 100)
        assert s.xi == 0.7
        s = schedule_for_solver(SolverKind.CONV_SEQUENTIAL, "maxcut", 20, 100)
        assert s.kind is ScheduleKind.CONV_BENCH
        assert s.beta[0] == pytest.approx(0.2)
        s = schedule_for_solver(SolverKind.PIMI, "mimo", 32, 32)
        assert s.kind is ScheduleKind.PIMI_MIMO
        assert s.xi == 2.0
        s = schedule_for_solver(SolverKind.CONV_PARALLEL, "mimo", 32, 32)
        assert s.kind is ScheduleKind.CONV_MIMO


class TestRunBatch:
    def test_workers_equivalence(self):
        instances = [gen_sk1(GeneratorSpec(Family.SK_ONE, 8, s)) for s in range(3)]
        sched = schedule_for_solver(SolverKind.PIMI, "sk1", 8, 60)
        one = run_batch(instances, SolverKind.PIMI, sched, 10, base_seed=4, workers=1)
        eight = run_batch(instances, SolverKind.PIMI, sched, 10, base_seed=4, workers=8)
        assert len(one) == len(eight) == 3
        for recs1, recs8 in zip(one, eight):
            for a, b in zip(recs1, recs8):
                assert a.best_energy == b.best_energy
                assert a.seed == b.seed
                assert np.array_equal(a.final_spins, b.final_spins)
                assert a.improvements == b.improvements

    def test_every_worker_gets_a_block(self, monkeypatch):
        # eight instances of 32 trials fill one block with one worker; with
        # eight workers they run as eight blocks, with the same records
        submitted = []

        class InlinePool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                submitted.append(len(args[0]))
                future = Future()
                future.set_result(fn(*args))
                return future

        insts = [gen_sk1(GeneratorSpec(Family.SK_ONE, 8, s)) for s in range(8)]
        sched = schedule_for_solver(SolverKind.PIMI, "sk1", 8, 30)
        one = run_batch(insts, SolverKind.PIMI, sched, 32, base_seed=4)
        monkeypatch.setattr(solvers, "ProcessPoolExecutor", InlinePool)
        eight = run_batch(insts, SolverKind.PIMI, sched, 32, base_seed=4, workers=8)
        assert submitted == [1] * 8
        for recs1, recs8 in zip(one, eight, strict=True):
            for a, b in zip(recs1, recs8, strict=True):
                assert a.best_energy == b.best_energy
                assert a.improvements == b.improvements
                assert np.array_equal(a.final_spins, b.final_spins)

    def test_empty_instances(self):
        sched = const_schedule(1.0, 0.1, 0.0, 5)
        assert run_batch([], SolverKind.PIMI, sched, 4, base_seed=0) == []

    def test_result_ordering_and_seeds(self):
        instances = [gen_sk1(GeneratorSpec(Family.SK_ONE, 6, s)) for s in range(2)]
        sched = schedule_for_solver(SolverKind.CONV_SEQUENTIAL, "sk1", 6, 30)
        out = run_batch(instances, SolverKind.CONV_SEQUENTIAL, sched, 5, base_seed=9)
        for i_idx, recs in enumerate(out):
            assert len(recs) == 5
            for t_idx, rec in enumerate(recs):
                assert rec.seed == first_word([9, i_idx, t_idx])

    @pytest.mark.parametrize("kind, biased", [
        pytest.param(kind, biased, id=kind.value + ("-bias-scale" if biased else ""))
        for biased in (False, True)
        for kind in (SolverKind.PIMI, SolverKind.CONV_PARALLEL,
                     SolverKind.CONV_SEQUENTIAL)])
    def test_block_engine_matches_reference_on_integer_couplings(self, kind, biased):
        # integer-valued benchmark couplings make every field accumulation
        # exact, so the grouped engine must agree with the scalar reference
        # bit for bit even in full precision; an integer bias and a field
        # scale of 0.75 keep every sum exact too
        inst = gen_sk1(GeneratorSpec(Family.SK_ONE, 11, 6))
        if biased:
            h = np.random.default_rng(3).integers(-2, 3, 11).astype(float)
            inst = IsingInstance(11, inst.j, h, field_scale=0.75)
        sched = schedule_for_solver(kind, "sk1", 11, 150)
        batch = run_batch([inst], kind, sched, 10, base_seed=8,
                          record_trajectory=True, record_states=True)[0]
        for t_idx, rec in enumerate(batch):
            init, draws = trial_noise(kind, 11, 150, first_word([8, 0, t_idx]))
            states, energies = reference_trial(inst, kind, sched, init, draws)
            assert np.array_equal(rec.state_trajectory, states)
            assert np.array_equal(rec.final_spins, states[-1])
            assert np.array_equal(rec.energy_trajectory, energies)
            assert rec.improvements == improvements_of(energies)

    @pytest.mark.parametrize("kind", [SolverKind.PIMI, SolverKind.CONV_PARALLEL,
                                      SolverKind.CONV_SEQUENTIAL])
    def test_block_engine_matches_reference_quantized(self, kind):
        # quantized arithmetic is exact on the fixed-point grid, so the
        # grouped engine must agree bit-for-bit with the scalar reference;
        # the coarse q8.3 grid makes every truncation step visible in the
        # spin decisions
        inst = gen_sk1(GeneratorSpec(Family.SK_ONE, 7, 5))
        sched = schedule_for_solver(kind, "sk1", 7, 40)
        for total_bits, int_bits in ((16, 4), (8, 3)):
            quant = Quantization(FixedPointFormat(total_bits, int_bits), TanhLut(4))
            batch = run_batch([inst], kind, sched, 6, base_seed=2,
                              quantization=quant, record_trajectory=True,
                              record_states=True)[0]
            for t_idx, rec in enumerate(batch):
                init, draws = trial_noise(kind, 7, 40, first_word([2, 0, t_idx]))
                states, energies = reference_trial(inst, kind, sched, init, draws,
                                                   quant=(total_bits, int_bits, 4))
                assert np.array_equal(rec.state_trajectory, states)
                assert np.array_equal(rec.final_spins, states[-1])
                assert np.array_equal(rec.energy_trajectory, energies)

    @pytest.mark.parametrize("kind", [SolverKind.PIMI, SolverKind.CONV_PARALLEL,
                                      SolverKind.CONV_SEQUENTIAL])
    def test_noise_chunks_match_whole_run_draws(self, monkeypatch, kind):
        # one block, of one instance and then of two stacked ones, with a
        # noise buffer of 40 steps: a 150-step run refills it at steps 40, 80
        # and 120 and ends on a partial chunk of 30 steps (a block of K
        # instances gets 1/K of the buffer budget)
        n, trials, t_steps = 9, 3, 150
        width = 1 if kind is SolverKind.CONV_SEQUENTIAL else n
        sched = schedule_for_solver(kind, "sk1", n, t_steps)
        q83 = Quantization(FixedPointFormat(8, 3), TanhLut(4))
        for seeds in ([12], [12, 13]):
            rows = len(seeds) * trials
            monkeypatch.setattr(solvers, "_NOISE_CHUNK_BYTES",
                                40 * 8 * rows * width * len(seeds))
            insts = [gen_sk1(GeneratorSpec(Family.SK_ONE, n, s))
                     for s in (4, 5)[:len(seeds)]]
            for quantization, quant in ((None, None), (q83, (8, 3, 4))):
                batch = run_batch(insts, kind, sched, trials, base_seed=seeds,
                                  quantization=quantization,
                                  record_trajectory=True, record_states=True)
                for inst, seed, recs in zip(insts, seeds, batch, strict=True):
                    for t_idx, rec in enumerate(recs):
                        init, draws = trial_noise(kind, n, t_steps,
                                                  first_word([seed, 0, t_idx]))
                        states, energies = reference_trial(inst, kind, sched, init,
                                                           draws, quant=quant)
                        assert np.array_equal(rec.state_trajectory, states)
                        assert np.array_equal(rec.final_spins, states[-1])
                        assert np.array_equal(rec.energy_trajectory, energies)
                        assert rec.improvements == improvements_of(energies)

    @pytest.mark.parametrize("kind", [SolverKind.PIMI, SolverKind.CONV_PARALLEL,
                                      SolverKind.CONV_SEQUENTIAL])
    def test_records_independent_of_block_partition(self, monkeypatch, kind):
        # by default the three instances share one block of 3 x 37 rows;
        # the other partitions run 2 + 1 stacked instances, or each instance
        # alone in blocks of 16 or 4 trials
        insts = [gen_maxcut(GeneratorSpec(Family.MAXCUT_ER, 12, s))[0]
                 for s in (3, 4, 5)]
        sched = schedule_for_solver(kind, "maxcut", 12, 600)

        def run():
            out = run_batch(insts, kind, sched, 37, base_seed=6,
                            record_trajectory=True, record_states=True)
            return [rec for recs in out for rec in recs]

        default = run()
        for block_trials, block_rows in ((64, 74), (16, 256), (4, 256)):
            monkeypatch.setattr(solvers, "_BLOCK_TRIALS", block_trials)
            monkeypatch.setattr(solvers, "_BLOCK_ROWS", block_rows)
            for a, b in zip(default, run(), strict=True):
                assert a.best_energy == b.best_energy
                assert a.best_step == b.best_step
                assert a.seed == b.seed
                assert a.improvements == b.improvements
                assert np.array_equal(a.final_spins, b.final_spins)
                assert np.array_equal(a.energy_trajectory, b.energy_trajectory)
                assert np.array_equal(a.state_trajectory, b.state_trajectory)
        # trials that settle revisit their minimum; best_step is its first step
        revisits = 0
        for rec in default:
            traj = rec.energy_trajectory
            revisits += int(np.count_nonzero(traj == traj.min()) > 1)
            assert rec.best_step == int(np.argmin(traj))
            assert rec.best_energy == traj.min()
            assert rec.improvements == improvements_of(traj)
        assert revisits > 0

    @pytest.mark.parametrize("kind", [SolverKind.PIMI, SolverKind.CONV_PARALLEL,
                                      SolverKind.CONV_SEQUENTIAL])
    @pytest.mark.parametrize("fmt", [None, (16, 4), (8, 3)],
                             ids=["float", "q16.4", "q8.3"])
    @pytest.mark.parametrize("n_trials", [32, 70])
    def test_stacked_blocks_match_single_instance_calls(self, kind, fmt, n_trials):
        # ten instances with real-valued couplings, each with its own base
        # seed: at 32 trials they run stacked in blocks of 8 + 2 instances,
        # at 70 each runs alone in blocks of 64 + 6 trials. Biases and field
        # scales differ within a block, so the quantized path scales by
        # exactly 1 or adds exactly 0 for some of its instances.
        rng = np.random.default_rng(17)
        n, t_steps = 9, 40
        insts = []
        for k in range(10):
            a = np.triu(rng.standard_normal((n, n)) * 0.8, 1)
            h = rng.standard_normal(n) if k % 3 else np.zeros(n)
            insts.append(IsingInstance(n, a + a.T, h, f"real{k}",
                                       field_scale=0.7 if k % 2 else 1.0))
        seeds = [int(v) for v in rng.integers(0, 2**32, len(insts))]
        sched = schedule_for_solver(kind, "sk1", n, t_steps)
        quant = (Quantization(FixedPointFormat(*fmt), TanhLut(4))
                 if fmt else None)
        stacked = run_batch(insts, kind, sched, n_trials, base_seed=seeds,
                            quantization=quant, record_trajectory=True,
                            record_states=True)
        for inst, seed, recs in zip(insts, seeds, stacked, strict=True):
            alone = run_batch([inst], kind, sched, n_trials, base_seed=seed,
                              quantization=quant, record_trajectory=True,
                              record_states=True)[0]
            for a, b in zip(alone, recs, strict=True):
                assert a.best_energy == b.best_energy
                assert a.best_step == b.best_step
                assert a.seed == b.seed
                assert a.improvements == b.improvements
                assert np.array_equal(a.final_spins, b.final_spins)
                assert np.array_equal(a.energy_trajectory, b.energy_trajectory)
                assert np.array_equal(a.state_trajectory, b.state_trajectory)

    def test_base_seed_per_instance_count_must_match(self):
        inst = gen_sk1(GeneratorSpec(Family.SK_ONE, 6, 0))
        sched = const_schedule(1.0, 0.1, 0.0, 5)
        with pytest.raises(ConfigError):
            run_batch([inst, inst], SolverKind.PIMI, sched, 2, base_seed=[1])

    def test_best_step_is_first_visit_of_minimum(self):
        # the conv-par ferromagnet oscillates between two states of energy +1,
        # so every step reaches the minimum and only step 0 improves
        sched = const_schedule(1e6, 0.0, 0.0, 6)
        rec = run_batch([ferromagnet2()], SolverKind.CONV_PARALLEL, sched, 1,
                        base_seed=0, init_state=[1.0, -1.0],
                        record_trajectory=True)[0][0]
        assert np.array_equal(rec.energy_trajectory, np.ones(6))
        assert rec.best_step == 0
        assert rec.best_energy == 1.0
        assert rec.improvements == [(0, 1.0)]

    def test_init_state_must_match_instance_size(self):
        inst = gen_sk1(GeneratorSpec(Family.SK_ONE, 6, 0))
        sched = const_schedule(1.0, 0.1, 0.0, 5)
        for bad in (np.array([-1.0]), -np.ones(4)):
            with pytest.raises(DimensionError):
                run_batch([inst], SolverKind.PIMI, sched, 2, base_seed=1,
                          init_state=bad)

    def test_worker_error_propagates(self):
        inst = gen_sk1(GeneratorSpec(Family.SK_ONE, 6, 0))
        sched = const_schedule(1.0, 0.1, 0.0, 5)
        with pytest.raises(ConfigError):
            run_batch([inst], SolverKind.PIMI, sched, 0, base_seed=1)


# ---------------------------------------------------------------------------
# Independent scalar interpreter of the three update rules, written against
# the documented datapath only: scalar arithmetic, one spin at a time, its own
# quantizer and LUT search, energies from the pairwise sum.


def _sl_quant(x, total_bits, int_bits):
    step = 2.0 ** -(total_bits - int_bits)
    k = math.floor(abs(x) / step)
    v = math.copysign(k * step, x)
    lo = -(2.0 ** (int_bits - 1))
    hi = 2.0 ** (int_bits - 1) - step
    return min(max(v, lo), hi)


def _sl_lut_tanh(x, levels):
    outs = np.linspace(-1.0, 1.0, levels)
    breaks = np.linspace(-1.0, 1.0, levels + 1)
    if x < -1.0:
        return -1.0
    if x > 1.0:
        return 1.0
    for k in range(levels):
        if breaks[k] <= x < breaks[k + 1]:
            return float(outs[k])
    return float(outs[-1])


def trial_noise(kind, n, t_steps, trial_seed):
    """A trial's initial spins and its whole noise table under the noise
    contract: U(-1,1) for the conventional kinds, N(0,1) for pimi; one draw
    per step for conv-seq, one per spin and step for the parallel kinds."""
    init, rng = reference_streams(n, trial_seed)
    if kind is SolverKind.CONV_SEQUENTIAL:
        return init, rng.uniform(-1.0, 1.0, t_steps)
    if kind is SolverKind.CONV_PARALLEL:
        return init, rng.uniform(-1.0, 1.0, (t_steps, n))
    return init, rng.standard_normal((t_steps, n))


def improvements_of(energies):
    best, out = math.inf, []
    for t, e in enumerate(energies):
        if e < best:
            best = e
            out.append((t, float(e)))
    return out


def reference_trial(inst, kind, sched, init, draws, quant=None):
    """Scalar transcription of one trial from `init` with explicit `draws`.

    conv-seq updates spin t mod N at step t from the current state; conv-par
    and pimi update every spin from the pre-step state, pimi adding xi*s.
    `quant` = (total_bits, int_bits, lut_levels) runs the fixed-point
    datapath with the LUT tanh; None runs full precision. Returns the
    (T+1, N) state trajectory, initial state first, and the full-precision
    energy after each step.
    """
    n = inst.n
    if quant is None:
        def q(x):
            return x

        def act(x):
            return float(np.tanh(x))

        jq = inst.j.tolist()
        hq = [float(v) for v in inst.h]
        scale_q, xi_q = inst.field_scale, sched.xi
        beta_q = [float(v) for v in sched.beta]
        eta_q = [float(v) for v in sched.eta]
    else:
        total_bits, int_bits, levels = quant

        def q(x):
            return _sl_quant(x, total_bits, int_bits)

        def act(x):
            return _sl_lut_tanh(x, levels)

        jq = [[q(inst.j[i, k]) for k in range(n)] for i in range(n)]
        hq = [q(v) for v in inst.h]
        scale_q, xi_q = q(inst.field_scale), q(sched.xi)
        beta_q = [q(v) for v in sched.beta]
        eta_q = [q(v) for v in sched.eta]
    use_scale = inst.field_scale != 1.0
    use_bias = any(v != 0.0 for v in inst.h)
    sequential = kind is SolverKind.CONV_SEQUENTIAL
    inertial = kind is SolverKind.PIMI

    def update(s, t, i, draw):
        acc = 0.0
        for k in range(n):
            acc += q(jq[i][k] * s[k])
        f = q(acc)
        if use_scale:
            f = q(scale_q * f)
        if use_bias:
            f = q(f + hq[i])
        drive = q(act(q(beta_q[t] * f)))
        if inertial:
            drive = q(drive + q(xi_q * s[i]))
        z = q(drive + q(eta_q[t] * q(float(draw))))
        return 1.0 if z >= 0.0 else -1.0

    def pair_energy(s):
        e = 0.0
        for i in range(n):
            for k in range(i + 1, n):
                e -= inst.j[i, k] * s[i] * s[k]
            e -= inst.h[i] * s[i]
        return e

    s = [float(v) for v in init]
    states, energies = [list(s)], []
    for t in range(sched.t_steps):
        if sequential:
            i = t % n
            s[i] = update(s, t, i, draws[t])
        else:
            s = [update(s, t, i, draws[t][i]) for i in range(n)]
        states.append(list(s))
        energies.append(pair_energy(s))
    return np.array(states), np.array(energies)


class TestQuantizedTrace:
    def test_matches_straightline_interpreter(self):
        inst = gen_sk1(GeneratorSpec(Family.SK_ONE, 6, 8))
        sched = schedule_for_solver(SolverKind.PIMI, "sk1", 6, 30)
        quant = Quantization(FixedPointFormat(4, 2), TanhLut(4))
        init, draws = trial_noise(SolverKind.PIMI, 6, 30, first_word([3, 0, 0]))

        rec = run_batch([inst], SolverKind.PIMI, sched, 1, base_seed=3,
                        record_states=True, quantization=quant)[0][0]
        ref_states, _ = reference_trial(inst, SolverKind.PIMI, sched, init, draws,
                                        quant=(4, 2, 4))
        assert np.array_equal(rec.state_trajectory.astype(float), ref_states)

    def test_matches_straightline_q164(self):
        inst, _ = gen_maxcut(GeneratorSpec(Family.MAXCUT_ER, 8, 2))
        sched = schedule_for_solver(SolverKind.PIMI, "maxcut", 8, 25)
        quant = Quantization(FixedPointFormat(16, 4), TanhLut(4))
        init, draws = trial_noise(SolverKind.PIMI, 8, 25, first_word([5, 0, 1]))

        rec = run_batch([inst], SolverKind.PIMI, sched, 2, base_seed=5,
                        record_states=True, quantization=quant)[0][1]
        ref_states, _ = reference_trial(inst, SolverKind.PIMI, sched, init, draws,
                                        quant=(16, 4, 4))
        assert np.array_equal(rec.state_trajectory.astype(float), ref_states)
