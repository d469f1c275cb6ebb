"""The three spin-update dynamics (sequential, fully parallel, parallel with
inertia) and the deterministic batch engine that runs them.

Update rules, with I_i(t) = field_scale * sum_j J_ij s_j(t) + h_i:

    conv-seq   s_i(t+1) = sign[tanh(beta(t) I_i(t)) + eta(t) U(-1,1)],  i = t mod N
    conv-par   every spin updated from the pre-step state with the same rule
    pimi       s_i(t+1) = sign[tanh(beta(t) I_i(t)) + xi s_i(t) + eta(t) N(0,1)]

sign(0) is +1, fixed. One datapath runs both arithmetic modes: quantized,
every intermediate is truncated to the fixed-point grid and tanh goes
through the lookup table; full precision is its exact case. Recorded
energies always use the raw couplings in full precision.

`run_batch` is the one engine: it runs trials in vectorized blocks
(grouped trials, as the hardware kernels do) whatever the problem shape. A
block is a stack of whole same-size instances: 64 trials of one instance,
or as many instances with fewer trials as fit in 256 rows. Block boundaries
depend only on the problem shape, never on the worker count, so results are
reproducible for any `workers`.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from importlib import resources

import numpy as np

from .core import (
    ConfigError,
    DimensionError,
    Schedule,
    ScheduleKind,
    TrialRecord,
    as_spins,
    block_energies,
    derive_seeds,
    random_spins,
)
from .quantize import FixedPointFormat, TanhLut, lut_tanh, quantize


class SolverKind(str, Enum):
    CONV_SEQUENTIAL = "conv-seq"
    CONV_PARALLEL = "conv-par"
    PIMI = "pimi"


@dataclass(frozen=True)
class Quantization:
    """Fixed-point format plus tanh LUT used by the quantized solver path."""

    fmt: FixedPointFormat
    lut: TanhLut


# ---------------------------------------------------------------------------
# Schedules


@functools.cache
def _schedule_defaults() -> dict:
    """The shipped defaults file, read once; callers copy what they hand out."""
    text = resources.files("pimi_lab").joinpath("schedule_defaults.json").read_text()
    return json.loads(text)


def schedule_defaults_version() -> int:
    return int(_schedule_defaults()["version"])


def default_schedule_params(kind: ScheduleKind, family: str | None = None,
                            n: int | None = None) -> dict:
    """Shipped default parameters for a schedule kind, resolved per problem
    family and size bucket (smallest n_max >= n wins; n_max null is open)."""
    table = _schedule_defaults().get(kind.value)
    if table is None:
        raise ConfigError(f"no defaults for schedule kind {kind.value!r}")
    if isinstance(table, dict):
        if family is None or family not in table:
            raise ConfigError(
                f"schedule kind {kind.value!r} needs a problem family "
                f"among {sorted(table)}"
            )
        buckets = table[family]
    else:
        buckets = table
    chosen = None
    for bucket in buckets:
        n_max = bucket.get("n_max")
        if n_max is None or (n is not None and n <= n_max):
            chosen = bucket
            if n is not None and n_max is not None:
                break
    if chosen is None:
        chosen = buckets[-1]
    params = dict(chosen)
    params.pop("n_max", None)
    return params


def _require(params: dict, key: str, minimum=None, strict=False) -> float:
    if key not in params:
        raise ConfigError(f"schedule parameter {key!r} missing")
    try:
        value = float(params[key])
    except (TypeError, ValueError):
        raise ConfigError(f"schedule parameter {key!r} must be a number") from None
    if minimum is not None and (value <= minimum if strict else value < minimum):
        op = ">" if strict else ">="
        raise ConfigError(f"schedule parameter {key!r} must be {op} {minimum}")
    return value


def make_schedule(kind: ScheduleKind, params: dict, t_steps: int) -> Schedule:
    """Build a tabulated schedule of one of the four named shapes.

    pimi-bench: beta(t) = beta_scale * tanh(beta_init + delta_beta * t),
                eta(t) = sqrt(beta(t) / 5), constant xi.
    conv-bench: constant beta_scale, eta(t) = max(eta_scale/sqrt(t+1), eta_floor).
    pimi-mimo:  constant beta_scale, eta(t) = sqrt(1 / (5 gamma(t))) with
                gamma ramping linearly from gamma_init to gamma_final, xi = 2.
    conv-mimo:  constant beta_scale, eta(t) = 1 / sqrt((t+1) / 5).
    """
    if t_steps < 1:
        raise ConfigError("t_steps must be >= 1")
    t = np.arange(t_steps, dtype=np.float64)
    if kind is ScheduleKind.PIMI_BENCH:
        beta_scale = _require(params, "beta_scale", 0.0, strict=True)
        beta_init = _require(params, "beta_init", 0.0)
        delta_beta = _require(params, "delta_beta", 0.0)
        xi = _require(params, "xi", 0.0)
        beta = beta_scale * np.tanh(beta_init + delta_beta * t)
        eta = np.sqrt(beta / 5.0)
        return Schedule(kind, beta, eta, xi, t_steps)
    if kind is ScheduleKind.CONV_BENCH:
        beta_scale = _require(params, "beta_scale", 0.0, strict=True)
        eta_scale = _require(params, "eta_scale", 0.0, strict=True)
        eta_floor = _require(params, "eta_floor", 0.0)
        beta = np.full(t_steps, beta_scale)
        eta = np.maximum(eta_scale / np.sqrt(t + 1.0), eta_floor)
        return Schedule(kind, beta, eta, 0.0, t_steps)
    if kind is ScheduleKind.PIMI_MIMO:
        beta_scale = _require(params, "beta_scale", 0.0, strict=True)
        gamma_init = _require(params, "gamma_init", 0.0, strict=True)
        gamma_final = _require(params, "gamma_final", 0.0, strict=True)
        xi = _require(params, "xi", 0.0)
        if t_steps == 1:
            gamma = np.full(1, gamma_init)
        else:
            gamma = gamma_init + (gamma_final - gamma_init) * t / (t_steps - 1.0)
        eta = np.sqrt(1.0 / (5.0 * gamma))
        beta = np.full(t_steps, beta_scale)
        return Schedule(kind, beta, eta, xi, t_steps)
    if kind is ScheduleKind.CONV_MIMO:
        beta_scale = _require(params, "beta_scale", 0.0, strict=True)
        beta = np.full(t_steps, beta_scale)
        eta = 1.0 / np.sqrt((t + 1.0) / 5.0)
        return Schedule(kind, beta, eta, 0.0, t_steps)
    raise ConfigError(f"make_schedule cannot build kind {kind!r}; "
                      "construct custom schedules with Schedule directly")


def schedule_for_solver(kind: SolverKind, family: str, n: int,
                        t_steps: int, overrides: dict | None = None) -> Schedule:
    """Schedule of the matching shape for a solver kind with shipped defaults.

    Benchmark families ("maxcut", "sk1") map pimi -> pimi-bench and both
    conventional kinds -> conv-bench; family "mimo" maps to the mimo shapes.
    """
    if family == "mimo":
        sk = ScheduleKind.PIMI_MIMO if kind is SolverKind.PIMI else ScheduleKind.CONV_MIMO
        params = default_schedule_params(sk, None, n)
    else:
        sk = ScheduleKind.PIMI_BENCH if kind is SolverKind.PIMI else ScheduleKind.CONV_BENCH
        params = default_schedule_params(sk, family, n)
    if overrides:
        unknown = sorted(set(overrides) - set(params))
        if unknown:
            raise ConfigError(f"unknown {sk.value} schedule parameters {unknown}; "
                              f"known: {sorted(params)}")
        params.update(overrides)
    return make_schedule(sk, params, t_steps)


# ---------------------------------------------------------------------------
# Datapath


def _exact(x, out=None):
    """The rounding of full precision: every value is already on its grid."""
    return x


@dataclass(frozen=True)
class _Datapath:
    """A block's operands on the grid, the rounding applied after every
    operation and the tanh. `rnd(x, out=...)` returns x rounded, written to
    `out` unless the rounding is exact, where it returns x itself."""

    j: np.ndarray
    h: np.ndarray
    scale: np.ndarray
    beta: np.ndarray
    eta: np.ndarray
    xi: float
    rnd: Callable
    tanh: Callable
    apply_scale: bool
    add_bias: bool


def _datapath(j: np.ndarray, h: np.ndarray, scale: np.ndarray,
              sched: Schedule, quant: Quantization | None) -> _Datapath:
    """Datapath of a block with couplings `j`, bias `h` and field scale
    `scale`: the grid and LUT of `quant`, or full precision, its exact case,
    with the raw operands and np.tanh. Scaling by 1, adding a bias of 0 or
    skipping either moves a value at most by the sign of a zero, which the
    sign decision does not see."""
    if quant is None:
        rnd, tanh = _exact, np.tanh
    else:
        rnd = functools.partial(quantize, fmt=quant.fmt)
        tanh = functools.partial(lut_tanh, lut=quant.lut)
    scaled = scale != 1.0
    return _Datapath(rnd(j), rnd(h), np.where(scaled, rnd(scale), 1.0),
                     rnd(sched.beta), rnd(sched.eta), rnd(sched.xi), rnd, tanh,
                     apply_scale=bool(np.any(scaled)),
                     add_bias=bool(np.any(h != 0.0)))


def _update(acc, h, scale, s, t, dp: _Datapath, draws, with_inertia: bool,
            z, term):
    """z = tanh(beta(t) (scale acc + h)) [+ xi s] + eta(t) draw from an
    accumulated field `acc` (the block's `S @ dp.j` for all spins, or
    `S @ dp.j[i]` for one spin i, with `h`, `scale` and `s` the matching
    bias, scale and pre-step spins), computed in place: `acc` is
    overwritten and `z`, the result, and `term` are buffers of its shape.
    Every intermediate is rounded: the accumulated field, the post-scaling
    product, the bias add, beta*I, the tanh output, xi*s, the noise sample
    and its eta product, and each add of the final sum."""
    rnd = dp.rnd
    rnd(acc, out=acc)
    if dp.apply_scale:
        np.multiply(scale, acc, out=acc)
        rnd(acc, out=acc)
    if dp.add_bias:
        acc += h
        rnd(acc, out=acc)
    np.multiply(dp.beta[t], acc, out=acc)
    rnd(acc, out=acc)
    dp.tanh(acc, out=z)
    rnd(z, out=z)
    if with_inertia:
        np.multiply(dp.xi, s, out=term)
        rnd(term, out=term)
        z += term
        rnd(z, out=z)
    np.multiply(dp.eta[t], rnd(draws, out=term), out=term)
    rnd(term, out=term)
    z += term
    rnd(z, out=z)


# ---------------------------------------------------------------------------
# Batch runner


@functools.cache
def _words_type() -> type:
    """A numpy ISeedSequence that hands a bit generator the uint64 words
    derived for it (PCG64 asks for 4), and refuses any other request. Made
    on first use: numpy loads numpy.random lazily, and importing pimi_lab
    does not load it."""
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != len(self.words) or np.dtype(dtype) != np.uint64:
                raise ValueError(f"derived {len(self.words)} uint64 words, "
                                 f"asked for {n_words} of {np.dtype(dtype)}")
            return self.words

    return Words


def _generators(words: np.ndarray) -> list[np.random.Generator]:
    """One PCG64 Generator per row of (R, 4) seed words: row r's is
    default_rng(ss) where ss.generate_state(4, np.uint64) gives row r."""
    # PCG64 reads the words from their buffer, so each row must be contiguous
    words = np.ascontiguousarray(words, dtype=np.uint64)
    seq = _words_type()
    return [np.random.Generator(np.random.PCG64(seq(w))) for w in words]


def _seed_block(seed_keys, trial_indices, S: np.ndarray,
                init_state: np.ndarray | None):
    """The seed tree of a block, derived for all its trials at once: the
    seed of trial k of the instance keyed (base, idx) is the first word of
    SeedSequence([base, idx, k]); its noise generator is default_rng(c)
    with c the first word of its spawn key (1,) child; its initial spins
    are drawn into its row of the (rows, N) view `S` from
    default_rng(spawn key (0,) child), unless `init_state` is given, which
    every row then copies. Returns the trial seeds and noise generators."""
    seeds = derive_seeds([(base, idx, k) for base, idx in seed_keys
                          for k in trial_indices])
    children = derive_seeds(seeds.tolist(), spawn_key=(1,))
    noise = _generators(derive_seeds(children.tolist(), words=4))
    if init_state is None:
        for r, rng in enumerate(_generators(
                derive_seeds(seeds.tolist(), spawn_key=(0,), words=4))):
            S[r] = random_spins(S.shape[1], rng)
    else:
        S[:] = init_state
    return seeds[:, 0].tolist(), noise


_BLOCK_TRIALS = 64   # trials of one instance per block
_BLOCK_ROWS = 256    # rows (instances x trials) of a block of stacked instances
_NOISE_CHUNK_BYTES = 4 * 1024 * 1024  # a block's noise buffer, refilled every chunk


def instances_per_block(n_trials: int) -> int:
    """Same-size instances that share one engine block: one where an
    instance's trials fill blocks of _BLOCK_TRIALS by themselves, otherwise
    as many whole instances as fit in _BLOCK_ROWS rows."""
    return 1 if n_trials >= _BLOCK_TRIALS else max(1, _BLOCK_ROWS // n_trials)


def _best_so_far(energies: np.ndarray) -> list[tuple[float, int, list]]:
    """(best_energy, best_step, improvements) of every trial, read in one
    pass from the (T, trials) energy array. Step t improves when its energy
    is strictly below every earlier one, so best_step is the first step at
    the minimum; a NaN energy never improves, and a trial that never
    improves keeps best_energy inf and best_step -1."""
    # floor[t] is the lowest energy before step t: inf before step 0
    floor = np.empty((energies.shape[0] + 1, energies.shape[1]))
    floor[0] = np.inf
    floor[1:] = energies
    np.fmin.accumulate(floor, axis=0, out=floor)
    improved = energies < floor[:-1]
    out = []
    for b in range(energies.shape[1]):
        steps = np.flatnonzero(improved[:, b])
        if steps.size == 0:
            out.append((np.inf, -1, []))
            continue
        values = energies[steps, b]
        out.append((float(values[-1]), int(steps[-1]),
                    list(zip(steps.tolist(), values.tolist()))))
    return out


def _run_block(insts, seed_keys, kind: SolverKind, sched: Schedule,
               trial_indices, record_trajectory: bool, record_states: bool,
               quantization: Quantization | None,
               init_state: np.ndarray | None) -> list[list[TrialRecord]]:
    """Vectorized engine: runs the same trials of K same-size instances
    together as one block of spins, (B, N) for one instance and (K, B, N)
    for a stack, with stacked couplings and a batched `S @ J`. Returns each
    instance's records.

    Each trial's seed, initial state and noise stream depend only on its
    instance's (base_seed, instance_index) key in `seed_keys` and its trial
    index; each instance's arithmetic is that of a block of its own B
    trials. `init_state`, when given, replaces every trial's random initial
    spins with the same fixed configuration (noise streams stay per-trial).
    Noise is drawn a chunk of steps at a time from each trial's generator,
    which gives the same stream as one whole-run draw.
    """
    K, B, n = len(insts), len(trial_indices), insts[0].n
    rows = K * B
    # one instance steps as a (B, N) block, a stack of them as (K, B, N)
    lead = () if K == 1 else (K,)
    T = sched.t_steps
    seq = kind is SolverKind.CONV_SEQUENTIAL
    with_inertia = kind is SolverKind.PIMI
    exact = quantization is None

    S = np.empty(lead + (B, n))
    flat = S.reshape(rows, n)
    seeds, rngs = _seed_block(seed_keys, trial_indices, flat, init_state)

    # one draw per step for conv-seq, one per spin and step otherwise; a
    # block of K stacked instances gets 1/K of the buffer budget, since its
    # instances are small and the buffer would dominate their memory
    width = () if seq else (n,)
    budget = _NOISE_CHUNK_BYTES // K
    chunk = max(1, min(T, budget // (8 * rows * (1 if seq else n))))
    noise = np.empty(lead + (B, chunk) + width)
    noise_rows = noise.reshape((rows, chunk) + width)
    at_step = (slice(None),) * (len(lead) + 1)  # indexes the chunk axis

    def draws(t: int) -> np.ndarray:
        c = t % chunk
        if c == 0:
            m = min(chunk, T - t)
            for r, rng in enumerate(rngs):
                # inertial dynamics draw N(0,1), conventional ones U(-1,1)
                if with_inertia:
                    rng.standard_normal(out=noise_rows[r, :m])
                else:
                    noise_rows[r, :m] = rng.uniform(-1.0, 1.0, (m,) + width)
        return noise[at_step + (c,)]

    J = np.stack([inst.j for inst in insts]).reshape(lead + (n, n))
    h = np.stack([inst.h for inst in insts]).reshape(lead + (n,))
    scale = np.array([inst.field_scale for inst in insts]).reshape(lead)
    # bias and scale against the block's spins: one instance's as they are
    # (a vector and a 0-d array, the cheapest operands), a stack's on its
    # instance axis
    if lead:
        H, scale = h[:, None, :], scale[:, None, None]
    else:
        H = h
    dp = _datapath(J, H, scale, sched, quantization)

    # energies[t] is the full-precision energy after step t
    energies = np.empty((T,) + lead + (B,))
    states = np.empty((T + 1,) + lead + (B, n), dtype=np.int8) if record_states else None
    if states is not None:
        states[0] = S

    if seq:
        # spin i's coupling column and bias, raw for the energies and on the
        # datapath's grid for the update, and the scale, against lead + (B,) rows
        cols = np.moveaxis(J, -2, 0)[..., None]
        h_cols = np.moveaxis(H, -1, 0)
        dp_cols = np.moveaxis(dp.j, -2, 0)[..., None]
        dp_h_cols = np.moveaxis(dp.h, -1, 0)
        dp_scale = dp.scale.reshape(dp.scale.shape[:-1])
        z = np.empty(lead + (B,))
        term = np.empty(lead + (B,))
        prev = block_energies(J, h, S)
        for t in range(T):
            i = t % n
            s_i = S[..., i]
            field = np.matmul(S, cols[i])[..., 0]
            # the energy change should spin i flip, taken before full
            # precision steps in `field` itself
            gain = 2.0 * s_i * (field + h_cols[i])
            acc = field if exact else np.matmul(S, dp_cols[i])[..., 0]
            _update(acc, dp_h_cols[i], dp_scale, s_i, t, dp, draws(t), False,
                    z, term)
            new = np.where(z >= 0.0, 1.0, -1.0)  # sign(0) = +1
            np.add(prev, np.where(new != s_i, gain, 0.0), out=energies[t])
            prev = energies[t]
            S[..., i] = new
            if states is not None:
                states[t + 1] = S
    else:
        acc = np.empty(S.shape)
        z = np.empty(S.shape)
        term = np.empty(S.shape)
        up = np.empty(S.shape, dtype=bool)
        for t in range(T):
            np.matmul(S, dp.j, out=acc)
            if t > 0:
                # full precision has the energies' product already
                energies[t - 1] = block_energies(J, h, S, acc if exact else None)
            _update(acc, dp.h, dp.scale, S, t, dp, draws(t), with_inertia, z, term)
            # sign with sign(0) = +1
            np.greater_equal(z, 0.0, out=up)
            np.copyto(S, up)
            S *= 2.0
            S -= 1.0
            if states is not None:
                states[t + 1] = S
        energies[T - 1] = block_energies(J, h, S)

    records = []
    per_trial = energies.reshape(T, rows)
    trial_states = states.reshape(T + 1, rows, n) if states is not None else None
    for r, (best, best_step, improvements) in enumerate(_best_so_far(per_trial)):
        records.append(TrialRecord(
            best_energy=best,
            best_step=best_step,
            final_spins=flat[r].copy(),
            seed=seeds[r],
            improvements=improvements,
            energy_trajectory=per_trial[:, r].copy() if record_trajectory else None,
            state_trajectory=(trial_states[:, r].copy() if states is not None
                              else None),
        ))
    return [records[k * B:(k + 1) * B] for k in range(K)]


def run_batch(instances, kind: SolverKind, sched: Schedule, n_trials: int,
              base_seed: int | list[int], workers: int = 1,
              record_trajectory: bool = False,
              record_states: bool = False,
              quantization: Quantization | None = None,
              init_state: np.ndarray | None = None) -> list[list[TrialRecord]]:
    """Run n_trials per instance; returns records ordered by
    (instance index, trial index) regardless of worker scheduling.

    `base_seed` is one integer, and instance i's trials take their seeds
    from (base_seed, i, trial index); or it is a sequence of one base seed
    per instance, and instance i's from (base_seed[i], 0, trial index).
    The instances run in blocks: an instance with at least _BLOCK_TRIALS
    trials runs alone in blocks of that many trials; instances with fewer
    run whole, as many consecutive same-size ones per block as
    `instances_per_block` gives, and with several workers no more than
    there are instances per worker, so every worker has a block. No record
    depends on the cut, since each instance's arithmetic in a block is that
    of its trials run alone. The block tasks are consumed from a shared
    queue by the worker pool, so the result set is independent of
    scheduling and of the worker count. Each trial's noise stream, U(-1,1)
    for the conventional kinds and N(0,1) for pimi, is drawn a chunk of
    steps at a time into a buffer of a few MiB per block; the chunks join
    up to the stream one whole-run draw gives.

    The trajectories hold the full-precision energy of the state after each
    update step (the initial state is not part of the trajectory), and
    best_energy / best_step / improvements derive from them. For conv-seq
    each step updates the single spin t mod N; for the parallel kinds each
    step is one full sweep. `init_state`, a length-N spin vector, starts
    every trial from that state instead of the trial's random one.
    """
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    if n_trials < 1:
        raise ConfigError("n_trials must be >= 1")
    instances = list(instances)
    if np.ndim(base_seed) == 0:
        seed_keys = [(int(base_seed), i) for i in range(len(instances))]
    else:
        seed_keys = [(int(seed), 0) for seed in base_seed]
        if len(seed_keys) != len(instances):
            raise ConfigError(f"{len(seed_keys)} base seeds for "
                              f"{len(instances)} instances")
    if not instances:
        return []
    if init_state is not None:
        init_state = as_spins(init_state)
        for inst in instances:
            if init_state.shape != (inst.n,):
                raise DimensionError(
                    f"initial state of shape {init_state.shape} does not "
                    f"match instance size {inst.n}")

    per_block = instances_per_block(n_trials)
    if workers > 1:
        # cut finer so every worker has a block; no record depends on the cut
        per_block = min(per_block, -(-len(instances) // workers))
    groups = []  # runs of consecutive same-size instances, cut per block
    for i, inst in enumerate(instances):
        last = groups[-1] if groups else []
        if 0 < len(last) < per_block and instances[last[0]].n == inst.n:
            last.append(i)
        else:
            groups.append([i])
    tasks = []
    for group in groups:
        for start in range(0, n_trials, _BLOCK_TRIALS):
            trial_indices = list(range(start, min(start + _BLOCK_TRIALS, n_trials)))
            tasks.append((group, ([instances[i] for i in group],
                                  [seed_keys[i] for i in group], kind, sched,
                                  trial_indices, record_trajectory,
                                  record_states, quantization, init_state)))

    if workers == 1:
        chunks = [_run_block(*args) for _, args in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_block, *args) for _, args in tasks]
            chunks = [future.result() for future in futures]

    results: list[list[TrialRecord]] = [[] for _ in instances]
    for (group, _), per_instance in zip(tasks, chunks):
        for i, records in zip(group, per_instance):
            results[i].extend(records)
    return results
