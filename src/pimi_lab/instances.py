"""Benchmark instance generators: Erdos-Renyi Max-Cut and the fully
connected +-1 spin glass (SK-1).

Edge / coupling sampling walks the upper triangle in row-major order from a
seeded stream, so a GeneratorSpec reproduces the identical instance on any
platform. The per-size field normalization (2/sqrt(N) for Max-Cut,
1/sqrt(N) for SK-1) is recorded as instance metadata and applied by the
solver at run time; the stored couplings stay integer-valued.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import sqrt

import numpy as np

from .core import ConfigError, IsingInstance


class Family(str, Enum):
    MAXCUT_ER = "maxcut"
    SK_ONE = "sk1"


@dataclass(frozen=True)
class GeneratorSpec:
    family: Family
    n: int
    seed: int
    edge_prob: float = 0.5

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError(f"instance size n must be >= 2, got {self.n}")
        if self.family is Family.MAXCUT_ER and not (0.0 < self.edge_prob < 1.0):
            raise ConfigError("edge_prob must lie strictly between 0 and 1")


def _upper_triangle_symmetric(n: int, values: np.ndarray) -> np.ndarray:
    m = np.zeros((n, n))
    iu, ju = np.triu_indices(n, k=1)
    m[iu, ju] = values
    m[ju, iu] = values
    return m


def gen_maxcut(spec: GeneratorSpec):
    """Random unweighted ER graph mapped to couplings J = -A, zero biases.

    Returns (instance, edge_count). The instance's field_scale is 2/sqrt(N).
    """
    if spec.family is not Family.MAXCUT_ER:
        raise ConfigError("spec family must be maxcut")
    rng = np.random.default_rng(spec.seed)
    n_pairs = spec.n * (spec.n - 1) // 2
    edges = (rng.random(n_pairs) < spec.edge_prob).astype(float)
    a = _upper_triangle_symmetric(spec.n, edges)
    inst = IsingInstance(
        n=spec.n,
        j=-a,
        h=np.zeros(spec.n),
        label=f"maxcut_er_n{spec.n}_p{spec.edge_prob}_seed{spec.seed}",
        field_scale=2.0 / sqrt(spec.n),
    )
    return inst, int(edges.sum())


def gen_sk1(spec: GeneratorSpec) -> IsingInstance:
    """Fully connected spin glass with i.i.d. +-1 couplings, zero biases.

    The instance's field_scale is 1/sqrt(N).
    """
    if spec.family is not Family.SK_ONE:
        raise ConfigError("spec family must be sk1")
    rng = np.random.default_rng(spec.seed)
    n_pairs = spec.n * (spec.n - 1) // 2
    couplings = rng.integers(0, 2, n_pairs).astype(float) * 2.0 - 1.0
    j = _upper_triangle_symmetric(spec.n, couplings)
    return IsingInstance(
        n=spec.n,
        j=j,
        h=np.zeros(spec.n),
        label=f"sk1_n{spec.n}_seed{spec.seed}",
        field_scale=1.0 / sqrt(spec.n),
    )


def generate(spec: GeneratorSpec):
    """Dispatch on family; returns (instance, edge_count or None)."""
    if spec.family is Family.MAXCUT_ER:
        return gen_maxcut(spec)
    inst = gen_sk1(spec)
    return inst, None
