"""Ground-truth energies: certified exhaustive search at small N, plus the
two heuristic reference procedures used at benchmark sizes (multi-restart
single-flip simulated annealing, and breakout-style local search).

Oracles always evaluate the raw couplings; the solver-side field_scale
metadata has no effect on oracle energies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import ConfigError, IsingInstance, SpinState, block_energies, energy

EXHAUSTIVE_MAX_N = 24
_ENUM_BLOCK = 1 << 16
_SA_WINDOW = 64  # upcoming proposals scored per chain in one pass


class OracleMethod(str, Enum):
    EXHAUSTIVE = "exhaustive"
    SIM_ANNEAL = "sa"
    LOCAL_SEARCH = "bls"


@dataclass
class OracleResult:
    best_energy: float
    best_state: SpinState
    method: OracleMethod
    effort: dict = field(default_factory=dict)


def exhaustive(inst: IsingInstance) -> OracleResult:
    """Certified minimum by scanning all states (s_0 fixed to +1 when h = 0,
    using the global flip symmetry). Rejected above N = 24."""
    n = inst.n
    if n > EXHAUSTIVE_MAX_N:
        raise ConfigError(
            f"exhaustive enumeration is limited to N <= {EXHAUSTIVE_MAX_N}; "
            "use the simulated-annealing or local-search oracle instead"
        )
    symmetric = not np.any(inst.h)
    free = n - 1 if symmetric and n > 1 else n
    total = 1 << free
    bit_pos = np.arange(free, dtype=np.uint64)
    best_e = np.inf
    best_state = None
    for start in range(0, total, _ENUM_BLOCK):
        idx = np.arange(start, min(start + _ENUM_BLOCK, total), dtype=np.uint64)
        bits = (idx[:, None] >> bit_pos) & 1
        states = np.empty((len(idx), n))
        if symmetric and n > 1:
            states[:, 0] = 1.0
            states[:, 1:] = bits * 2.0 - 1.0
        else:
            states[:, :] = bits * 2.0 - 1.0
        energies = block_energies(inst.j, inst.h, states)
        k = int(np.argmin(energies))
        if energies[k] < best_e:
            best_e = float(energies[k])
            best_state = states[k].copy()
    return OracleResult(best_e, best_state, OracleMethod.EXHAUSTIVE,
                        {"states": total, "s0_fixed": symmetric})


def default_sa_flips_per_temp(n: int) -> int:
    """Effort ladder for the annealing oracle: 10N proposed flips per
    temperature below N=70, then 10k / 20k / 50k at larger sizes."""
    if n < 70:
        return 10 * n
    if n <= 100:
        return 10_000
    if n <= 150:
        return 20_000
    return 50_000


def sim_anneal_oracle(inst: IsingInstance, restarts: int = 10,
                      flips_per_temp: int | None = None,
                      t_init: float = 5.0, t_final: float = 0.01,
                      alpha: float = 0.995, seed: int = 0) -> OracleResult:
    """Metropolis single-flip annealing with geometric cooling; best over
    all restarts. Restart chains run side by side (vectorized); each chain
    proposes one uniformly random spin flip per move.

    Each pass scores a window of a chain's upcoming proposals against its
    current state and applies the first accepted one. Every chain sees the
    same draws and arithmetic, in the same order, as one proposal per step
    would give, so results are bit-identical to that plain loop.
    """
    if restarts < 1:
        raise ConfigError("restarts must be >= 1")
    if not (0.0 < alpha < 1.0):
        raise ConfigError("cooling factor alpha must lie in (0, 1)")
    if not (np.isfinite(t_init) and np.isfinite(t_final)):
        raise ConfigError("annealing temperatures must be finite")
    if t_final <= 0.0:
        raise ConfigError("final temperature t_final must be > 0")
    if t_init <= t_final:
        raise ConfigError("initial temperature t_init must exceed t_final")
    n = inst.n
    flips = default_sa_flips_per_temp(n) if flips_per_temp is None else int(flips_per_temp)
    if flips < 1:
        raise ConfigError("flips_per_temp must be >= 1")
    rng = np.random.default_rng(seed)
    j = inst.j
    h = inst.h

    states = rng.integers(0, 2, (restarts, n)).astype(float) * 2.0 - 1.0
    fields = states @ j + h  # running raw local fields per chain
    energies = block_energies(inst.j, inst.h, states)
    best_e = energies.copy()
    best_states = states.copy()

    chain = np.arange(restarts)
    # chain-major proposals of one stage, zero-padded so that every window
    # of _SA_WINDOW proposals is in bounds; the padding is never applied
    spins = np.zeros((restarts, flips + _SA_WINDOW), dtype=np.int64)
    draws = np.zeros((restarts, flips + _SA_WINDOW))
    spin_win = sliding_window_view(spins, _SA_WINDOW, axis=1)
    draw_win = sliding_window_view(draws, _SA_WINDOW, axis=1)
    temp = t_init
    stages = 0
    while temp > t_final:
        spins[:, :flips] = rng.integers(0, n, (flips, restarts)).T
        draws[:, :flips] = rng.random((flips, restarts)).T
        pos = np.zeros(restarts, dtype=np.intp)  # next proposal per chain
        live = chain
        while live.size:
            p = pos[live]
            i = spin_win[live, p]
            s_i = states[live[:, None], i]
            delta = 2.0 * s_i * fields[live[:, None], i]
            accept = (delta <= 0.0) | (draw_win[live, p] < np.exp(-np.maximum(delta, 0.0) / temp))
            # a rejected proposal changes nothing, so the first accepted one
            # in the window is the chain's next move; resume right after it
            first = accept.argmax(axis=1)
            hit = np.nonzero(accept[chain[:live.size], first] & (first < flips - p))[0]
            pos[live] = p + _SA_WINDOW
            if hit.size:
                which = live[hit]
                at = first[hit]
                pos[which] = p[hit] + at + 1
                rows = i[hit, at]
                s_acc = s_i[hit, at]
                states[which, rows] = -s_acc
                fields[which] -= 2.0 * s_acc[:, None] * j[rows]
                energies[which] += delta[hit, at]
                improved = which[energies[which] < best_e[which]]
                if improved.size:
                    best_e[improved] = energies[improved]
                    best_states[improved] = states[improved]
            live = live[pos[live] < flips]
        temp *= alpha
        stages += 1

    k = int(np.argmin(best_e))
    return OracleResult(float(best_e[k]), best_states[k].copy(),
                        OracleMethod.SIM_ANNEAL,
                        {"restarts": restarts, "flips_per_temp": flips,
                         "stages": stages, "seed": seed})


def default_bls_effort(n: int) -> tuple[int, int]:
    """(restarts, cycles): 100 x 500 up to N = 150, 200 x 1000 beyond."""
    if n <= 150:
        return 100, 500
    return 200, 1000


def local_search_oracle(inst: IsingInstance, restarts: int | None = None,
                        cycles: int | None = None, seed: int = 0) -> OracleResult:
    """Breakout-style local search: best-improvement single flips; a restart
    that stagnates (no improving flip) takes a random multi-flip kick of
    size drawn from [2, max(2, N//10)], capped at N. One cycle is one
    best-improvement pass plus any triggered kick. Best state over all
    restarts wins.
    """
    n = inst.n
    default_r, default_c = default_bls_effort(n)
    restarts = default_r if restarts is None else int(restarts)
    cycles = default_c if cycles is None else int(cycles)
    if restarts < 1:
        raise ConfigError("restarts must be >= 1")
    rng = np.random.default_rng(seed)
    j = inst.j
    h = inst.h

    states = rng.integers(0, 2, (restarts, n)).astype(float) * 2.0 - 1.0
    fields = states @ j + h
    energies = block_energies(inst.j, inst.h, states)
    best_e = energies.copy()
    best_states = states.copy()
    chain = np.arange(restarts)
    kick_hi = max(2, n // 10)

    for _ in range(cycles):
        deltas = 2.0 * states * fields
        move = np.argmin(deltas, axis=1)
        move_delta = deltas[chain, move]
        improving = move_delta < 0.0

        if improving.any():
            which = np.nonzero(improving)[0]
            rows = move[which]
            s_i = states[which, rows]
            states[which, rows] = -s_i
            fields[which] -= 2.0 * s_i[:, None] * j[rows]
            energies[which] += move_delta[which]
            improved = which[energies[which] < best_e[which]]
            if improved.size:
                best_e[improved] = energies[improved]
                best_states[improved] = states[improved]

        stuck = np.nonzero(~improving)[0]
        if stuck.size:
            for r in stuck:
                # the cap binds only at N = 1 (kick_hi <= N otherwise)
                k = min(int(rng.integers(2, kick_hi + 1)), n)
                flip = rng.choice(n, size=k, replace=False)
                states[r, flip] = -states[r, flip]
                # multi-flip kick: recompute the kicked chain exactly
                fields[r] = states[r] @ j + h
                energies[r] = energy(inst, states[r])
                if energies[r] < best_e[r]:
                    best_e[r] = energies[r]
                    best_states[r] = states[r]

    k = int(np.argmin(best_e))
    return OracleResult(float(best_e[k]), best_states[k].copy(),
                        OracleMethod.LOCAL_SEARCH,
                        {"restarts": restarts, "cycles": cycles, "seed": seed})


def solve_ground_truth(inst: IsingInstance, method: OracleMethod,
                       seed: int = 0, **kwargs) -> OracleResult:
    if method is OracleMethod.EXHAUSTIVE:
        if kwargs:
            raise ConfigError("the exhaustive oracle takes no effort options; "
                              f"got {sorted(kwargs)}")
        return exhaustive(inst)
    if method is OracleMethod.SIM_ANNEAL:
        return sim_anneal_oracle(inst, seed=seed, **kwargs)
    return local_search_oracle(inst, seed=seed, **kwargs)
