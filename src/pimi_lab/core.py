"""Shared domain types: problem instances, spin states, schedules, trial records.

Energies are always evaluated in full float64 precision, independently of
any quantization applied inside a solver.
"""

from __future__ import annotations

import json
import operator
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import chain
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


# numpy's SeedSequence (numpy/random/bit_generator.pyx, after O'Neill's
# seed_seq_fe, pcg-random.org): a pool of 4 uint32 words, filled and mixed
# by a hash whose multiplier advances on every call
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875   # the entropy hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED   # the hash of generate_state
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constant before each of `count` hash calls and after the
    last, as a column against a (words, rows) array."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


def _hashmix(value, consts):
    """numpy's hashmix of `value` along its first axis: hash call k takes
    the constants before and after it, consts[k] and consts[k + 1]."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> 16)


def _mix(x, y):
    out = _MIX_L * x - _MIX_R * y
    return out ^ (out >> 16)


def _uint32_words(values: list[int]):
    """Each non-negative int's uint32 words, least significant first, as
    numpy splits an int (0 is one word): a (len(values), m) array padded
    with zeros, and each int's word count. Ints below 2**64 split as one
    uint64 array."""
    if values and min(values) < 0:
        raise ValueError("expected non-negative integer")
    try:
        rest = np.array(values, dtype=np.uint64)
    except OverflowError:  # an int of 2**64 or more
        rest = np.array(values, dtype=object)
    limbs, counts = [], np.ones(len(values), dtype=np.intp)
    while True:
        limbs.append((rest & _MASK32).astype(np.uint32))
        rest = rest >> 32
        more = rest != 0
        if not more.any():
            return np.stack(limbs, axis=1), counts
        counts += more


def derive_seeds(entropies, spawn_key=(), words=1) -> np.ndarray:
    """Row r of the (R, words) uint64 result is
    SeedSequence(entropies[r], spawn_key).generate_state(words, np.uint64),
    for a sequence of R rows of non-negative ints of any size and number,
    computed for all rows at once in uint32 array arithmetic.

    Each row's entropy is assembled as numpy assembles it: every int
    becomes its uint32 words, and a non-empty spawn key's words follow the
    row's words zero-padded to the 4-word pool. The pool mix is then one
    sequence of array operations over the rows; a word past the pool
    mixes only into the rows that have it, since the hash constants do not
    depend on the data."""
    n_rows = len(entropies)
    per_row = np.fromiter(map(len, entropies), dtype=np.intp, count=n_rows)
    limbs, counts = _uint32_words(list(map(operator.index,
                                           chain.from_iterable(entropies))))
    key_limbs, key_counts = _uint32_words(list(map(operator.index, spawn_key)))
    spawn = [w for limb, m in zip(key_limbs.tolist(), key_counts) for w in limb[:m]]
    # word offsets: of each int from its row's start, and each row's length
    ends = np.concatenate(([0], np.cumsum(counts)))
    row_first = np.concatenate(([0], np.cumsum(per_row)))
    row_start = ends[row_first[:-1]]
    run_len = ends[row_first[1:]] - row_start
    owner = np.repeat(np.arange(n_rows), per_row)
    offset = ends[:-1] - row_start[owner]
    spawn_at = np.maximum(run_len, _POOL) if spawn else run_len
    length = spawn_at + len(spawn)

    # entropy[i, r] is word i of row r, zero past the row's end
    entropy = np.zeros((max(_POOL, int(length.max(initial=0))), n_rows),
                       dtype=np.uint32)
    for level in range(limbs.shape[1]):
        has = counts > level
        entropy[offset[has] + level, owner[has]] = limbs[has, level]
    for k, w in enumerate(spawn):
        entropy[spawn_at + k, np.arange(n_rows)] = w

    extra = entropy.shape[0] - _POOL
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * extra)
    # the pool takes the first 4 words, zero where a row has fewer
    pool = _hashmix(entropy[:_POOL], consts[:_POOL + 1])
    c = _POOL
    # each pool word, hashed by 3 consecutive constants, mixes into the others
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[c:c + _POOL]))
        c += _POOL - 1
    # each later word mixes into the whole pool, of the rows that have it
    for src in range(_POOL, entropy.shape[0]):
        mixed = _mix(pool, _hashmix(entropy[src], consts[c:c + _POOL + 1]))
        pool = np.where(length > src, mixed, pool)
        c += _POOL

    out_consts = _hash_constants(_INIT_B, _MULT_B, 2 * words)
    state = _hashmix(pool[np.arange(2 * words) % _POOL], out_consts).astype(np.uint64)
    # uint64 word j joins uint32 words 2j (low) and 2j + 1 (high)
    return (state[0::2] | (state[1::2] << np.uint64(32))).T.copy()


def derive_seed(words, spawn_key=()) -> int:
    """The first uint64 of SeedSequence(words, spawn_key): the one-row case
    of derive_seeds, the split by which every seed is derived."""
    return int(derive_seeds([words], spawn_key)[0, 0])


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
