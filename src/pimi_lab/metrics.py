"""Cycles-to-solution analytics: success criteria and probabilities,
expected trial counts, fitted per-step clock-cycle cost models, landscape
optimization over the step budget, speedup ratios, wall-clock conversion,
and the neighbor-triggered flip-rate diagnostic for coupled oscillations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import ConfigError, IsingInstance, TrialRecord

#: Design clock frequencies (Hz) of the hardware detection kernels, kept as
#: reference constants for wall-clock conversion.
CLOCK_HZ_MIMO_PIMI_8X8 = 274.0e6
CLOCK_HZ_MIMO_CONV_8X8 = 247.2e6
CLOCK_HZ_MIMO_PIMI_16X16 = 258.1e6
CLOCK_HZ_MIMO_CONV_16X16 = 267.1e6

#: Documentation target from the source benchmark campaign (N=200 Max-Cut):
#: mean optimal-CCTS speedup ~34x, best single instance ~153x. Desk-scale
#: runs reproduce the methodology, not these magnitudes.
REFERENCE_SPEEDUP_MAXCUT_N200 = 34.0


@dataclass(frozen=True)
class SuccessCriterion:
    """A trial succeeds if its best-so-far energy reaches
    threshold_fraction * ground_energy (ground energies here are negative,
    so the threshold sits slightly above the ground state)."""

    ground_energy: float
    threshold_fraction: float = 0.999

    def __post_init__(self):
        if not (0.0 < self.threshold_fraction <= 1.0):
            raise ConfigError("threshold_fraction must lie in (0, 1]")

    @property
    def threshold(self) -> float:
        return self.threshold_fraction * self.ground_energy


def first_success_step(rec: TrialRecord, criterion: SuccessCriterion) -> int | None:
    """Earliest update step at which the trial's best-so-far energy reached
    the threshold, or None if it never did."""
    theta = criterion.threshold
    for step, e in rec.improvements:
        if e <= theta:
            return step
    return None


def success_curve(records: list[TrialRecord], criterion: SuccessCriterion,
                  grid) -> np.ndarray:
    """Instance success probability at every step budget in `grid`."""
    if not records:
        raise ConfigError("success_curve needs at least one record")
    hits = np.array([s if (s := first_success_step(r, criterion)) is not None else -1
                     for r in records])
    grid = np.asarray(grid)
    solved = hits >= 0
    return np.array([(solved & (hits < t)).mean() for t in grid])


def n_trials_required(p_bar: float, epsilon: float = 0.001) -> float:
    """Expected independent trials for >= 1 success with confidence
    1 - epsilon: ceil(log eps / log(1 - p)). p = 0 yields inf; p = 1 yields 1.
    """
    if not (0.0 <= p_bar <= 1.0):
        raise ConfigError("p_bar must lie in [0, 1]")
    if not (0.0 < epsilon < 1.0):
        raise ConfigError("epsilon must lie in (0, 1)")
    if p_bar == 0.0:
        return math.inf
    if p_bar == 1.0:
        return 1.0
    n = math.log(epsilon) / math.log(1.0 - p_bar)
    return float(math.ceil(n - 1e-12))


class CostModelKind(str, Enum):
    SEQ = "seq"
    PAR = "par"
    PIMI = "pimi"


@dataclass(frozen=True)
class CostModel:
    """Fitted clock-cycle cost of one update, by architecture.

    Per-sweep fits: seq  = N log2 N + 8 N + 4.67   (N sequential steps)
                    par  = 1.1 log2 N + 7          (one parallel step)
                    pimi = 1.1 log2 N + 8.6        (one parallel step)
    The sequential model is quoted per sweep; its per-step cost divides by N.
    """

    kind: CostModelKind

    def cycles_per_sweep(self, n: int) -> float:
        if n < 2:
            raise ConfigError("cost models need n >= 2")
        log2n = math.log2(n)
        if self.kind is CostModelKind.SEQ:
            return n * log2n + 8.0 * n + 4.67
        if self.kind is CostModelKind.PAR:
            return 1.1 * log2n + 7.0
        return 1.1 * log2n + 8.6

    def cycles_per_step(self, n: int) -> float:
        per_sweep = self.cycles_per_sweep(n)
        if self.kind is CostModelKind.SEQ:
            return per_sweep / n
        return per_sweep


def ccts(p_bar: float, t_steps: int, model: CostModel, n: int,
         epsilon: float = 0.001) -> float:
    """Clock cycles to solution: n_trials(p_bar) * T_steps * C_step(N)."""
    if t_steps < 1:
        raise ConfigError("t_steps must be >= 1")
    trials = n_trials_required(p_bar, epsilon)
    if math.isinf(trials):
        return math.inf
    return trials * t_steps * model.cycles_per_step(n)


def speedup(ccts_conv: float, ccts_pimi: float) -> float:
    """Ratio of optimal CCTS values, conventional over inertial."""
    if not (math.isfinite(ccts_conv) and math.isfinite(ccts_pimi)):
        raise ConfigError("speedup needs finite CCTS values")
    return ccts_conv / ccts_pimi


def wall_clock(ccts_value: float, f_clk_hz: float) -> float:
    """Seconds of hardware time for a cycle count at clock frequency f."""
    if f_clk_hz <= 0:
        raise ConfigError("clock frequency must be positive")
    return ccts_value / f_clk_hz


@dataclass
class CctsLandscape:
    """CCTS evaluated over a step-budget grid, with its minimizer.

    grid rows are (t_steps, p_mean, n_trials, ccts); `optimum` is
    (t_steps*, ccts*) or None when every budget is unsolved (p_mean = 0
    everywhere). Mean success probabilities must be non-decreasing in the
    budget (they are prefix statistics of best-so-far energies).
    """

    n: int
    model: CostModel
    grid: list[tuple[int, float, float, float]]
    optimum: tuple[int, float] | None
    p_logstd: list[float] = field(default_factory=list)

    @property
    def solved(self) -> bool:
        return self.optimum is not None


def optimize_step_budget(n: int, model: CostModel, grid, p_means,
                         epsilon: float = 0.001, p_logstd=None) -> CctsLandscape:
    """Evaluate CCTS over the budget grid and locate the optimum (first
    minimizer wins ties, so ties break toward smaller budgets)."""
    grid = [int(t) for t in grid]
    p_means = [float(p) for p in p_means]
    if len(grid) < 2:
        raise ConfigError("landscape grid needs at least 2 budgets")
    if len(grid) != len(p_means):
        raise ConfigError("grid and p_means lengths differ")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("budget grid must be strictly increasing")
    if any(b < a for a, b in zip(p_means, p_means[1:])):
        raise ConfigError("mean success probability must be non-decreasing in the budget")

    rows = []
    best_idx = None
    best_val = math.inf
    for idx, (t, p) in enumerate(zip(grid, p_means)):
        trials = n_trials_required(p, epsilon)
        cost = ccts(p, t, model, n, epsilon)
        rows.append((t, p, trials, cost))
        if cost < best_val:
            best_val = cost
            best_idx = idx
    optimum = None if math.isinf(best_val) else (rows[best_idx][0], best_val)
    return CctsLandscape(n=n, model=model, grid=rows, optimum=optimum,
                         p_logstd=list(p_logstd) if p_logstd is not None else [])


def log_space_std(values) -> float:
    """Population standard deviation of log10(values), ignoring non-positive
    entries; NaN when nothing is left to average."""
    arr = np.asarray(values, dtype=np.float64)
    arr = arr[arr > 0.0]
    if arr.size == 0:
        return math.nan
    return float(np.std(np.log10(arr)))


def neighbor_triggered_flip_rate(state_trajectories, inst: IsingInstance) -> np.ndarray:
    """Per-step conditional flip rate P_NT(t): among (spin, trial) events
    where at least one coupled neighbor flips at step t, the fraction where
    the spin itself also flips. Steps with no conditioning events are NaN
    (they are excluded from any averaging, not counted as zero).

    On a complete coupling graph (every pair coupled, as in SK-1), every
    spin is conditioned once at least two spins flip, so P_NT(t) is then
    the fraction of spins that flip at step t.

    `state_trajectories` is one or many (t_steps+1, N) spin arrays recorded
    with full per-step states from a parallel-update solver.
    """
    trajs = state_trajectories
    if isinstance(trajs, np.ndarray) and trajs.ndim == 2:
        trajs = [trajs]
    trajs = list(trajs)
    if not trajs:
        raise ConfigError("need at least one state trajectory")
    adjacency = (inst.j != 0.0)

    numer = None
    denom = None
    for states in trajs:
        states = np.asarray(states)
        if states.ndim != 2 or states.shape[1] != inst.n:
            raise ConfigError("state trajectory shape must be (t_steps+1, n)")
        if states.shape[0] < 2:
            raise ConfigError("state trajectory must cover at least one update step")
        flips = states[1:] != states[:-1]  # (T, N)
        neighbor_any = flips @ adjacency > 0
        if numer is None:
            numer = np.zeros(flips.shape[0])
            denom = np.zeros(flips.shape[0])
        elif flips.shape[0] != numer.shape[0]:
            raise ConfigError("all trajectories must have the same length")
        numer += (flips & neighbor_any).sum(axis=1)
        denom += neighbor_any.sum(axis=1)

    with np.errstate(invalid="ignore"):
        out = numer / denom
    out[denom == 0] = np.nan
    return out
