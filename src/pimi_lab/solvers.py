"""The three spin-update dynamics (sequential, fully parallel, parallel with
inertia) and the deterministic batch engine that runs them.

Update rules, with I_i(t) = field_scale * sum_j J_ij s_j(t) + h_i:

    conv-seq   s_i(t+1) = sign[tanh(beta(t) I_i(t)) + eta(t) U(-1,1)],  i = t mod N
    conv-par   every spin updated from the pre-step state with the same rule
    pimi       s_i(t+1) = sign[tanh(beta(t) I_i(t)) + xi s_i(t) + eta(t) N(0,1)]

sign(0) is +1, fixed. In quantized mode every arithmetic intermediate is
truncated to the fixed-point grid and tanh goes through the lookup table;
recorded energies always use the raw couplings in full precision.

`run_batch` is the one engine: it runs trials in vectorized blocks of 64
(grouped trials, as the hardware kernels do) whatever the problem shape;
block boundaries depend only on the trial count, never on the worker count,
so results are reproducible for any `workers`.
"""

from __future__ import annotations

import functools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from importlib import resources

import numpy as np

from .core import (
    ConfigError,
    DimensionError,
    IsingInstance,
    Schedule,
    ScheduleKind,
    TrialRecord,
    as_spins,
    block_energies,
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


def _sign_pm1(z):
    return np.where(np.asarray(z) >= 0.0, 1.0, -1.0)


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
        params.update(overrides)
    return make_schedule(sk, params, t_steps)


# ---------------------------------------------------------------------------
# Quantized datapath

@dataclass(frozen=True)
class _QuantTables:
    jq: np.ndarray
    hq: np.ndarray
    scale_q: float
    beta_q: np.ndarray
    eta_q: np.ndarray
    xi_q: float
    fmt: FixedPointFormat
    lut: TanhLut
    apply_scale: bool
    add_bias: bool


def _quantized_tables(inst: IsingInstance, sched: Schedule,
                      quant: Quantization) -> _QuantTables:
    fmt = quant.fmt
    return _QuantTables(
        jq=quantize(inst.j, fmt),
        hq=quantize(inst.h, fmt),
        scale_q=quantize(inst.field_scale, fmt),
        beta_q=quantize(sched.beta, fmt),
        eta_q=quantize(sched.eta, fmt),
        xi_q=quantize(sched.xi, fmt),
        fmt=fmt,
        lut=quant.lut,
        apply_scale=inst.field_scale != 1.0,
        add_bias=bool(np.any(inst.h != 0.0)),
    )


def _quantized_update(acc, hq, s, t, q: _QuantTables, draws, with_inertia: bool):
    """Quantized update from an accumulated field `acc` (the caller's
    `S @ jq` for all spins, or `S @ jq[i]` for one spin i, with `hq` and `s`
    the matching bias and pre-step spins). All intermediates share the
    format: the accumulated field, the post-scaling product, the bias add,
    beta*I, the LUT output, xi*s, the noise sample and its eta product, and
    each add of the final sum."""
    fmt = q.fmt
    field = quantize(acc, fmt)
    if q.apply_scale:
        field = quantize(q.scale_q * field, fmt)
    if q.add_bias:
        field = quantize(field + hq, fmt)
    drive = quantize(lut_tanh(quantize(q.beta_q[t] * field, fmt), q.lut), fmt)
    if with_inertia:
        drive = quantize(drive + quantize(q.xi_q * s, fmt), fmt)
    noise_term = quantize(q.eta_q[t] * quantize(draws, fmt), fmt)
    return _sign_pm1(quantize(drive + noise_term, fmt))


# ---------------------------------------------------------------------------
# Batch runner


def derive_trial_seed(base_seed: int, instance_index: int, trial_index: int) -> int:
    """Per-trial seed from the documented hash-split of the base seed."""
    ss = np.random.SeedSequence([int(base_seed), int(instance_index), int(trial_index)])
    return int(ss.generate_state(1, np.uint64)[0])


def trial_setup(n: int, trial_seed: int):
    """Initial random spins and the noise generator for one trial, both
    derived deterministically from the trial seed."""
    init_ss, noise_ss = np.random.SeedSequence(int(trial_seed)).spawn(2)
    init = random_spins(n, np.random.default_rng(init_ss))
    noise_seed = int(noise_ss.generate_state(1, np.uint64)[0])
    return init, np.random.default_rng(noise_seed)


_BLOCK_TRIALS = 64
_NOISE_CHUNK_BYTES = 4 * 1024 * 1024  # a block's noise buffer, refilled every chunk


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


def _run_block(inst: IsingInstance, kind: SolverKind, sched: Schedule,
               base_seed: int, instance_index: int, trial_indices,
               record_trajectory: bool, record_states: bool,
               quantization: Quantization | None,
               init_state: np.ndarray | None) -> list[TrialRecord]:
    """Vectorized engine: runs a block of trials of one instance together.

    Each trial's seed, initial state and noise stream depend only on
    (base_seed, instance_index, trial index); the arithmetic is grouped
    across trials. `init_state`, when given, replaces every trial's random
    initial spins with the same fixed configuration (noise streams stay
    per-trial). Noise is drawn a chunk of steps at a time from each trial's
    generator, which gives the same stream as one whole-run draw.
    """
    n = inst.n
    T = sched.t_steps
    B = len(trial_indices)
    seq = kind is SolverKind.CONV_SEQUENTIAL
    with_inertia = kind is SolverKind.PIMI

    seeds = [derive_trial_seed(base_seed, instance_index, k) for k in trial_indices]
    S = np.empty((B, n))
    rngs = []
    for b, ts in enumerate(seeds):
        init, rng = trial_setup(n, ts)
        S[b] = init if init_state is None else init_state
        rngs.append(rng)

    # one draw per step for conv-seq, one per spin and step otherwise
    width = () if seq else (n,)
    chunk = max(1, min(T, _NOISE_CHUNK_BYTES // (8 * B * (1 if seq else n))))
    noise = np.empty((B, chunk) + width)

    def draws(t: int) -> np.ndarray:
        c = t % chunk
        if c == 0:
            m = min(chunk, T - t)
            for b, rng in enumerate(rngs):
                # inertial dynamics draw N(0,1), conventional ones U(-1,1)
                if with_inertia:
                    rng.standard_normal(out=noise[b, :m])
                else:
                    noise[b, :m] = rng.uniform(-1.0, 1.0, (m,) + width)
        return noise[:, c]

    j_raw = inst.j
    h = inst.h
    scale = inst.field_scale
    qt = _quantized_tables(inst, sched, quantization) if quantization else None
    beta, eta, xi = sched.beta, sched.eta, sched.xi

    # energies[t] is the full-precision energy after step t
    energies = np.empty((T, B))
    states = np.empty((T + 1, B, n), dtype=np.int8) if record_states else None
    if states is not None:
        states[0] = S

    if seq:
        prev = block_energies(inst, S)
        for t in range(T):
            i = t % n
            s_i = S[:, i]
            acc_i = S @ j_raw[i]
            if qt is None:
                z = np.tanh(beta[t] * (scale * acc_i + h[i])) + eta[t] * draws(t)
                new = _sign_pm1(z)
            else:
                new = _quantized_update(S @ qt.jq[i], qt.hq[i], s_i, t, qt,
                                        draws(t), with_inertia=False)
            np.add(prev, np.where(new != s_i, 2.0 * s_i * (acc_i + h[i]), 0.0),
                   out=energies[t])
            prev = energies[t]
            S[:, i] = new
            if states is not None:
                states[t + 1] = S
    else:
        acc = np.empty((B, n))
        z = np.empty((B, n))
        term = np.empty((B, n))
        up = np.empty((B, n), dtype=bool)
        for t in range(T):
            if qt is None:
                np.matmul(S, j_raw, out=acc)
                if t > 0:
                    energies[t - 1] = block_energies(inst, S, acc)
                # z = tanh(beta (scale acc + h)) [+ xi S] + eta draw, in place
                np.multiply(acc, scale, out=z)
                z += h
                z *= beta[t]
                np.tanh(z, out=z)
                if with_inertia:
                    np.multiply(S, xi, out=term)
                    z += term
                np.multiply(draws(t), eta[t], out=term)
                z += term
                # sign with sign(0) = +1
                np.greater_equal(z, 0.0, out=up)
                np.copyto(S, up)
                S *= 2.0
                S -= 1.0
            else:
                if t > 0:
                    energies[t - 1] = block_energies(inst, S)
                S = _quantized_update(S @ qt.jq, qt.hq, S, t, qt, draws(t),
                                      with_inertia)
            if states is not None:
                states[t + 1] = S
        energies[T - 1] = block_energies(inst, S)

    records = []
    for b, (best, best_step, improvements) in enumerate(_best_so_far(energies)):
        records.append(TrialRecord(
            best_energy=best,
            best_step=best_step,
            final_spins=S[b].copy(),
            seed=seeds[b],
            improvements=improvements,
            energy_trajectory=energies[:, b].copy() if record_trajectory else None,
            state_trajectory=states[:, b, :].copy() if states is not None else None,
        ))
    return records


def run_batch(instances, kind: SolverKind, sched: Schedule, n_trials: int,
              base_seed: int, workers: int = 1,
              record_trajectory: bool = False,
              record_states: bool = False,
              quantization: Quantization | None = None,
              init_state: np.ndarray | None = None) -> list[list[TrialRecord]]:
    """Run n_trials per instance; returns records ordered by
    (instance index, trial index) regardless of worker scheduling.

    Trials are grouped into fixed-size blocks and the block tasks are
    consumed from a shared queue by the worker pool; per-trial seeds are
    derived from (base_seed, instance index, trial index), so the result
    set is independent of scheduling. Each trial's noise stream, U(-1,1)
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
    if not instances:
        return []
    if init_state is not None:
        init_state = as_spins(init_state)
        for inst in instances:
            if init_state.shape != (inst.n,):
                raise DimensionError(
                    f"initial state of shape {init_state.shape} does not "
                    f"match instance size {inst.n}")

    block = _BLOCK_TRIALS
    tasks = []
    for i_idx, inst in enumerate(instances):
        for start in range(0, n_trials, block):
            trial_indices = list(range(start, min(start + block, n_trials)))
            tasks.append((inst, kind, sched, base_seed, i_idx, trial_indices,
                          record_trajectory, record_states, quantization,
                          init_state))

    if workers == 1:
        chunks = [_run_block(*task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_block, *task) for task in tasks]
            chunks = [future.result() for future in futures]

    results: list[list[TrialRecord]] = [[] for _ in instances]
    task_idx = 0
    for i_idx, _ in enumerate(instances):
        for _ in range(0, n_trials, block):
            results[i_idx].extend(chunks[task_idx])
            task_idx += 1
    return results
