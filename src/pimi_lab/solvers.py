"""The three spin-update dynamics (sequential, fully parallel, parallel with
inertia) and the deterministic batch engine that runs them.

Update rules, with I_i(t) = field_scale * sum_j J_ij s_j(t) + h_i:

    conv-seq   s_i(t+1) = sign[tanh(beta(t) I_i(t)) + eta(t) U(-1,1)],  i = t mod N
    conv-par   every spin updated from the pre-step state with the same rule
    pimi       s_i(t+1) = sign[tanh(beta(t) I_i(t)) + xi s_i(t) + eta(t) N(0,1)]

sign(0) is +1, fixed. In quantized mode every arithmetic intermediate is
truncated to the fixed-point grid and tanh goes through the lookup table;
recorded energies always use the raw couplings in full precision.

`run_batch` is the one engine: it runs trials in fixed-size vectorized
blocks (grouped trials, as the hardware kernels do); block boundaries depend
only on problem shape, never on the worker count, so results are
reproducible for any `workers`.
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

    @classmethod
    def parse(cls, fmt_name: str, tanh_levels: int = 4) -> "Quantization":
        try:
            return cls(FixedPointFormat.parse(fmt_name), TanhLut(int(tanh_levels)))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


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
    value = float(params[key])
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
_BLOCK_NOISE_BYTES = 128 * 1024 * 1024


def _block_size(t_steps: int, n: int, parallel_kind: bool) -> int:
    per_trial = t_steps * (n if parallel_kind else 1) * 8
    cap = max(1, _BLOCK_NOISE_BYTES // max(per_trial, 1))
    return int(min(_BLOCK_TRIALS, cap))


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
    per-trial).
    """
    n = inst.n
    T = sched.t_steps
    B = len(trial_indices)
    seq = kind is SolverKind.CONV_SEQUENTIAL

    seeds = [derive_trial_seed(base_seed, instance_index, k) for k in trial_indices]
    inits = np.empty((B, n))
    shape = (T,) if seq else (T, n)
    draws = np.empty((T, B) + shape[1:])
    for b, ts in enumerate(seeds):
        init, rng = trial_setup(n, ts)
        inits[b] = init if init_state is None else init_state
        # inertial dynamics draw N(0,1), conventional ones U(-1,1)
        if kind is SolverKind.PIMI:
            draws[:, b] = rng.standard_normal(shape)
        else:
            draws[:, b] = rng.uniform(-1.0, 1.0, shape)

    S = inits.copy()
    j_raw = inst.j
    h = inst.h
    scale = inst.field_scale
    qt = _quantized_tables(inst, sched, quantization) if quantization else None
    beta, eta, xi = sched.beta, sched.eta, sched.xi

    traj = np.empty((T, B)) if record_trajectory else None
    states = np.empty((T + 1, B, n), dtype=np.int8) if record_states else None
    if states is not None:
        states[0] = S
    improvements: list[list] = [[] for _ in range(B)]
    best = np.full(B, np.inf)
    best_step = np.full(B, -1, dtype=np.int64)

    def note(t_idx: int, e: np.ndarray):
        if traj is not None:
            traj[t_idx] = e
        improved = e < best
        if improved.any():
            for b in np.nonzero(improved)[0]:
                improvements[b].append((t_idx, float(e[b])))
            best[improved] = e[improved]
            best_step[improved] = t_idx

    if seq:
        h_cur = -0.5 * np.einsum("bn,bn->b", S, S @ j_raw) - S @ h
        for t in range(T):
            i = t % n
            acc_i = S @ j_raw[i]
            if qt is None:
                z = np.tanh(beta[t] * (scale * acc_i + h[i])) + eta[t] * draws[t]
                new = _sign_pm1(z)
            else:
                new = _quantized_update(S @ qt.jq[i], qt.hq[i], S[:, i], t, qt,
                                        draws[t], with_inertia=False)
            flipped = new != S[:, i]
            h_cur = h_cur + np.where(flipped, 2.0 * S[:, i] * (acc_i + h[i]), 0.0)
            S[:, i] = new
            if states is not None:
                states[t + 1] = S
            note(t, h_cur)
    else:
        with_inertia = kind is SolverKind.PIMI
        for t in range(T):
            if qt is None:
                acc = S @ j_raw
                if t > 0:
                    note(t - 1, -0.5 * np.einsum("bn,bn->b", S, acc) - S @ h)
                z = np.tanh(beta[t] * (scale * acc + h))
                if with_inertia:
                    z = z + xi * S
                S = _sign_pm1(z + eta[t] * draws[t])
            else:
                if t > 0:
                    note(t - 1, -0.5 * np.einsum("bn,bn->b", S, S @ j_raw) - S @ h)
                S = _quantized_update(S @ qt.jq, qt.hq, S, t, qt, draws[t],
                                      with_inertia)
            if states is not None:
                states[t + 1] = S
        note(T - 1, -0.5 * np.einsum("bn,bn->b", S, S @ j_raw) - S @ h)

    records = []
    for b in range(B):
        records.append(TrialRecord(
            best_energy=float(best[b]),
            best_step=int(best_step[b]),
            final_spins=S[b].copy(),
            seed=seeds[b],
            improvements=improvements[b],
            energy_trajectory=traj[:, b].copy() if traj is not None else None,
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
    set is independent of scheduling. Each trial draws its whole noise
    stream up front: U(-1,1) for the conventional kinds, N(0,1) for pimi.

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

    block = _block_size(sched.t_steps, instances[0].n,
                        kind is not SolverKind.CONV_SEQUENTIAL)
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
