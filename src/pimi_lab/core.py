"""Shared domain types: problem instances, spin states, schedules, trial records.

Energies are always evaluated in full float64 precision, independently of
any quantization applied inside a solver.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

SpinState = np.ndarray  # length-N float64 vector, entries exactly -1.0 or +1.0


class ConfigError(ValueError):
    """Raised on invalid or incomplete configuration values."""


class DimensionError(ConfigError):
    """Raised when instance / state / schedule dimensions do not match."""


@contextmanager
def reading(path):
    """Raise a ConfigError naming `path` for content that does not parse or check."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {type(exc).__name__}: {exc}") from None


def derive_seed(words, spawn_key=()) -> int:
    """The first uint64 of SeedSequence(words, spawn_key): the one split by
    which every instance, trial, scenario and noise seed is derived."""
    ss = np.random.SeedSequence([int(w) for w in words], spawn_key=spawn_key)
    return int(ss.generate_state(1, np.uint64)[0])


def write_json(path, obj, **dump_options) -> None:
    """Write `obj` as one JSON document and a newline, making the directory."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(obj, f, **dump_options)
        f.write("\n")


def as_spins(values: Sequence[float] | np.ndarray) -> SpinState:
    """Validate and return a spin vector with entries exactly +-1."""
    s = np.asarray(values, dtype=np.float64)
    if s.ndim != 1:
        raise DimensionError(f"spin state must be a vector, got shape {s.shape}")
    if not np.all(np.abs(s) == 1.0):
        raise ValueError("spin entries must be exactly -1 or +1")
    return s


@dataclass(frozen=True)
class IsingInstance:
    """A dense Ising problem: minimize -sum_{i<j} J_ij s_i s_j - sum_i h_i s_i.

    `field_scale` is solver-side metadata: the accumulated interaction term
    is multiplied by it during dynamics (it does not change the energy
    landscape used for evaluation, which always uses the raw couplings).
    """

    n: int
    j: np.ndarray
    h: np.ndarray
    label: str = ""
    field_scale: float = 1.0

    def __post_init__(self):
        j = np.asarray(self.j, dtype=np.float64)
        h = np.asarray(self.h, dtype=np.float64)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "h", h)
        if self.n < 1:
            raise DimensionError("instance size must be >= 1")
        if j.shape != (self.n, self.n):
            raise DimensionError(f"J must be {self.n}x{self.n}, got {j.shape}")
        if h.shape != (self.n,):
            raise DimensionError(f"h must have length {self.n}, got {h.shape}")
        if not (np.all(np.isfinite(j)) and np.all(np.isfinite(h))):
            raise ConfigError("J and h must be finite")
        if np.any(np.diag(j) != 0.0):
            raise ConfigError("J must have a zero diagonal")
        if not np.array_equal(j, j.T):
            raise ConfigError("J must be symmetric")
        j.setflags(write=False)
        h.setflags(write=False)

    def to_json_dict(self) -> dict:
        d = {
            "n": self.n,
            "j": self.j.tolist(),
            "h": self.h.tolist(),
            "label": self.label,
        }
        if self.field_scale != 1.0:
            d["field_scale"] = self.field_scale
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "IsingInstance":
        return cls(
            n=int(d["n"]),
            j=np.asarray(d["j"], dtype=np.float64),
            h=np.asarray(d["h"], dtype=np.float64),
            label=str(d.get("label", "")),
            field_scale=float(d.get("field_scale", 1.0)),
        )

    def save(self, path) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path) -> "IsingInstance":
        with open(path) as f, reading(path):
            return cls.from_json_dict(json.load(f))


class ScheduleKind(str, Enum):
    PIMI_BENCH = "pimi-bench"
    CONV_BENCH = "conv-bench"
    PIMI_MIMO = "pimi-mimo"
    CONV_MIMO = "conv-mimo"
    CUSTOM = "custom"


@dataclass(frozen=True)
class Schedule:
    """Per-step inverse temperature beta(t) and noise amplitude eta(t), plus a
    constant self-alignment strength xi. Tabulated over t = 0..t_steps-1 so a
    schedule is immutable and cheap to share across workers."""

    kind: ScheduleKind
    beta: np.ndarray
    eta: np.ndarray
    xi: float
    t_steps: int

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=np.float64)
        eta = np.asarray(self.eta, dtype=np.float64)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "eta", eta)
        if self.t_steps < 1:
            raise ConfigError("t_steps must be >= 1")
        if beta.shape != (self.t_steps,) or eta.shape != (self.t_steps,):
            raise DimensionError("beta/eta tables must have length t_steps")
        if not (np.all(np.isfinite(beta)) and np.all(np.isfinite(eta))
                and np.isfinite(self.xi)):
            raise ConfigError("beta(t), eta(t) and xi must be finite")
        if np.any(eta < 0.0):
            raise ConfigError("eta(t) must be >= 0")
        if self.xi < 0.0:
            raise ConfigError("xi must be >= 0")
        if self.kind is ScheduleKind.PIMI_BENCH and np.any(np.diff(beta) < 0.0):
            raise ConfigError("pimi-bench beta(t) must be non-decreasing")
        beta.setflags(write=False)
        eta.setflags(write=False)


@dataclass
class TrialRecord:
    """Outcome of one independent trial.

    `improvements` is the sparse best-so-far curve: (step, energy) pairs at
    every strict improvement, in step order. It is always recorded and is
    sufficient to evaluate success under any step budget; the dense energy
    trajectory is optional to bound memory on large sweeps. Step indices are
    0-based and refer to post-update states, so best_step < t_steps.
    """

    best_energy: float
    best_step: int
    final_spins: SpinState
    seed: int
    improvements: list = field(default_factory=list)
    energy_trajectory: np.ndarray | None = None
    state_trajectory: np.ndarray | None = None  # (t_steps+1, n) int8, incl. init

    def to_json_dict(self) -> dict:
        d = {
            "best_energy": self.best_energy,
            "best_step": self.best_step,
            "final_spins": [int(v) for v in self.final_spins],
            "seed": int(self.seed),
            "improvements": [[int(t), float(e)] for t, e in self.improvements],
        }
        if self.energy_trajectory is not None:
            d["energy_trajectory"] = [float(e) for e in self.energy_trajectory]
        if self.state_trajectory is not None:
            d["state_trajectory"] = self.state_trajectory.astype(int).tolist()
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "TrialRecord":
        traj = d.get("energy_trajectory")
        states = d.get("state_trajectory")
        return cls(
            best_energy=float(d["best_energy"]),
            best_step=int(d["best_step"]),
            final_spins=as_spins(d["final_spins"]),
            seed=int(d["seed"]),
            improvements=[(int(t), float(e)) for t, e in d["improvements"]],
            energy_trajectory=None if traj is None else np.asarray(traj, dtype=np.float64),
            state_trajectory=None if states is None else np.asarray(states, dtype=np.int8),
        )


def energy(inst: IsingInstance, s: SpinState) -> float:
    """Ising energy -sum_{i<j} J_ij s_i s_j - h.s, full float64 precision."""
    s = np.asarray(s, dtype=np.float64)
    if s.shape != (inst.n,):
        raise DimensionError(f"state length {s.shape} != instance size {inst.n}")
    return float(-0.5 * (s @ (inst.j @ s)) - inst.h @ s)


def block_energies(j: np.ndarray, h: np.ndarray, states: np.ndarray,
                   acc=None) -> np.ndarray:
    """Energy of every row of `states` (..., B, N) under couplings `j`
    (..., N, N) and bias `h` (..., N), stacked alike; `acc` is
    `states @ j` if known. Each row's sums are those of the unstacked form."""
    acc = np.matmul(states, j) if acc is None else acc
    if h.ndim == 1:  # one instance: the plain form, which is cheaper per call
        return -0.5 * np.einsum("bn,bn->b", states, acc) - states @ h
    return (-0.5 * np.einsum("...n,...n->...", states, acc)
            - np.matmul(states, h[..., None])[..., 0])


def random_spins(n: int, rng: np.random.Generator) -> SpinState:
    """Uniform random +-1 vector drawn from `rng`."""
    return rng.integers(0, 2, size=n).astype(np.float64) * 2.0 - 1.0


def write_records_jsonl(path, records, extra=None) -> None:
    """Write TrialRecords, with their trajectories, as JSON lines, making
    the directory. `extra`, if given, holds a dict per record to merge
    into its line."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        for k, rec in enumerate(records):
            d = rec.to_json_dict()
            if extra is not None:
                d.update(extra[k])
            f.write(json.dumps(d))
            f.write("\n")


def read_records_jsonl(path):
    """Read TrialRecords from JSON lines; returns (records, extras)."""
    records, extras = [], []
    known = {f.name for f in fields(TrialRecord)}
    with open(path) as f, reading(path):
        for line in f:
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            records.append(TrialRecord.from_json_dict(d))
            extras.append({k: v for k, v in d.items() if k not in known})
    return records, extras
