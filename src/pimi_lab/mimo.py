"""Uplink MIMO detection pipeline: Rayleigh scenario generation, the
real-valued stacked model, linear MMSE detection, the perturbation-Ising
(delta) mapping solved by the spin dynamics, reconstruction, and BER.

Constellations use odd-integer coordinates (..., -3, -1, 1, 3, ...) without
unit-energy scaling; the noise variance derives from the empirical received
power, which absorbs the absolute scale. Complex arithmetic exists only at
scenario generation and final symbol mapping; everything in between runs on
the real stacked model.

The Ising image of a detection problem uses the quadratic-form energy
E(s) = -h.s - s.J s (not the pairwise-sum convention of core.energy); the
DiMimoProblem.energy adapter keeps that convention local to this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, IsingInstance, derive_seeds
from .solvers import (
    Quantization,
    SolverKind,
    instances_per_block,
    run_batch,
    schedule_for_solver,
)

#: Real-time detection-rate requirements (DI-MIMO instances per millisecond)
#: for the reference cellular configurations; documentation constants only.
THROUGHPUT_REQ_LTE_10MHZ_PER_MS = 8_400
THROUGHPUT_REQ_5G_NR_50MHZ_PER_MS = 35_640

SUPPORTED_QAM_ORDERS = (4, 16, 64)

#: Small correction set (two spins per real dimension) and the extended one
#: (three spins per real dimension, weight-2 leading column block).
CORRECTION_SET_SMALL = (-2, 0, 2)
CORRECTION_SET_LARGE = (-4, -2, 0, 2, 4)


def bits_per_symbol(m: int) -> int:
    if m not in SUPPORTED_QAM_ORDERS:
        raise ConfigError(f"QAM order must be one of {SUPPORTED_QAM_ORDERS}")
    return int(math.log2(m))


def qam_axis_levels(m: int) -> np.ndarray:
    """Per-axis amplitude levels, ascending odd integers (e.g. -3,-1,1,3)."""
    side = int(round(math.sqrt(m)))
    if side * side != m:
        raise ConfigError("QAM order must be a perfect square")
    return np.arange(side) * 2.0 - (side - 1.0)


def _gray_encode(k: int) -> int:
    return k ^ (k >> 1)


def _gray_decode(g: int) -> int:
    k = 0
    while g:
        k ^= g
        g >>= 1
    return k


def bits_to_symbols(bits: np.ndarray, m: int) -> np.ndarray:
    """Gray-map a flat bit vector to complex symbols. Each symbol consumes
    log2(M) bits: the first half selects the in-phase level (MSB first),
    the second half the quadrature level."""
    b = bits_per_symbol(m)
    bits = np.asarray(bits, dtype=np.int64).reshape(-1, b)
    nb = b // 2
    levels = qam_axis_levels(m)
    weights = 1 << np.arange(nb - 1, -1, -1)
    gi = bits[:, :nb] @ weights
    gq = bits[:, nb:] @ weights
    ki = np.array([_gray_decode(int(g)) for g in gi])
    kq = np.array([_gray_decode(int(g)) for g in gq])
    return levels[ki] + 1j * levels[kq]


def symbols_to_bits(symbols: np.ndarray, m: int) -> np.ndarray:
    """Inverse Gray mapping; symbols must be exact constellation points."""
    b = bits_per_symbol(m)
    nb = b // 2
    side = int(round(math.sqrt(m)))
    out = np.empty(len(symbols) * b, dtype=np.int64)
    for idx, sym in enumerate(np.asarray(symbols)):
        ki = int(round((sym.real + side - 1) / 2))
        kq = int(round((sym.imag + side - 1) / 2))
        if not (0 <= ki < side and 0 <= kq < side):
            raise ConfigError(f"{sym} is not a constellation point of {m}-QAM")
        gi = _gray_encode(ki)
        gq = _gray_encode(kq)
        for j in range(nb):
            out[idx * b + j] = (gi >> (nb - 1 - j)) & 1
            out[idx * b + nb + j] = (gq >> (nb - 1 - j)) & 1
    return out


def _slice_axis(values: np.ndarray, side: int) -> np.ndarray:
    # nearest odd-integer level; exact midpoints resolve toward the smaller
    # coordinate (ceil(u - 1/2) rounds halves down)
    idx = np.ceil((values + side - 1.0) / 2.0 - 0.5)
    idx = np.clip(idx, 0, side - 1)
    return idx * 2.0 - (side - 1.0)


def slice_to_constellation(z: np.ndarray, m: int) -> np.ndarray:
    """Hard slicing: componentwise nearest constellation point."""
    side = int(round(math.sqrt(m)))
    z = np.asarray(z, dtype=np.complex128)
    return _slice_axis(z.real, side) + 1j * _slice_axis(z.imag, side)


@dataclass
class MimoScenario:
    """One channel realization: y = H x + noise, all stored exactly."""

    nt: int
    nr: int
    qam_order: int
    h_cplx: np.ndarray
    x_true: np.ndarray
    bits_true: np.ndarray
    ebn0_db: float
    noise: np.ndarray
    y: np.ndarray

    @property
    def ebn0_linear(self) -> float:
        return 10.0 ** (self.ebn0_db / 10.0)


def gen_scenario(nt: int, nr: int, m: int, ebn0_db: float, seed: int) -> MimoScenario:
    """Draw an i.i.d. Rayleigh channel, uniform Gray-coded symbols, and
    complex Gaussian noise whose variance matches the requested per-bit SNR
    against the empirical received power per antenna.

    ebn0_db = +inf disables noise entirely (y = H x exactly).
    """
    if nt < 1 or nr < 1:
        raise ConfigError("antenna counts must be >= 1")
    b = bits_per_symbol(m)
    rng = np.random.default_rng(seed)
    h = (rng.standard_normal((nr, nt)) + 1j * rng.standard_normal((nr, nt))) / math.sqrt(2.0)
    bits = rng.integers(0, 2, nt * b)
    x = bits_to_symbols(bits, m)
    y_clean = h @ x
    if math.isinf(ebn0_db):
        noise = np.zeros(nr, dtype=np.complex128)
    else:
        e_y = float(np.mean(np.abs(y_clean) ** 2))
        sigma2 = e_y / (b * 10.0 ** (ebn0_db / 10.0))
        noise = math.sqrt(sigma2 / 2.0) * (rng.standard_normal(nr)
                                           + 1j * rng.standard_normal(nr))
    return MimoScenario(nt=nt, nr=nr, qam_order=m, h_cplx=h, x_true=x,
                        bits_true=bits, ebn0_db=float(ebn0_db), noise=noise,
                        y=y_clean + noise)


@dataclass
class RealModel:
    """Real-valued stacked form: h_real = [[Re,-Im],[Im,Re]], vectors are
    [Re; Im] stacks."""

    h_real: np.ndarray
    y_real: np.ndarray


def real_stack_vector(z: np.ndarray) -> np.ndarray:
    return np.concatenate([np.real(z), np.imag(z)])


def complex_from_stack(v: np.ndarray) -> np.ndarray:
    half = len(v) // 2
    return v[:half] + 1j * v[half:]


def to_real(scenario: MimoScenario) -> RealModel:
    h = scenario.h_cplx
    h_real = np.block([[h.real, -h.imag], [h.imag, h.real]])
    return RealModel(h_real=h_real, y_real=real_stack_vector(scenario.y))


@dataclass
class MmseResult:
    z_unsliced: np.ndarray       # linear estimate, complex
    symbols: np.ndarray          # hard-sliced detected symbols
    x_m_sliced: np.ndarray       # real stacked sliced estimate


def mmse_detect(scenario: MimoScenario) -> MmseResult:
    """Linear MMSE estimate z = (H^H H + I/(b Eb/N0))^-1 H^H y plus its hard
    slicing. Infinite Eb/N0 falls back to the pseudo-inverse."""
    h = scenario.h_cplx
    if math.isinf(scenario.ebn0_db):
        z = np.linalg.lstsq(h, scenario.y, rcond=None)[0]
    else:
        b = bits_per_symbol(scenario.qam_order)
        reg = 1.0 / (b * scenario.ebn0_linear)
        gram = h.conj().T @ h + reg * np.eye(scenario.nt)
        z = np.linalg.solve(gram, h.conj().T @ scenario.y)
    symbols = slice_to_constellation(z, scenario.qam_order)
    return MmseResult(z_unsliced=z, symbols=symbols,
                      x_m_sliced=real_stack_vector(symbols))


def default_correction_set(m: int) -> tuple:
    """Two spins per real dimension cover 4/16-QAM corrections; 64-QAM uses
    the extended five-value set."""
    return CORRECTION_SET_LARGE if m == 64 else CORRECTION_SET_SMALL


def correction_transform(nt: int, correction_set) -> np.ndarray:
    """Spin-to-correction transform: d = T s with T = [I, I] for the small
    set and [2I, I, I] for the extended one (blocks of size 2 nt)."""
    dim = 2 * nt
    eye = np.eye(dim)
    cs = tuple(correction_set)
    if cs == CORRECTION_SET_SMALL:
        return np.hstack([eye, eye])
    if cs == CORRECTION_SET_LARGE:
        return np.hstack([2.0 * eye, eye, eye])
    raise ConfigError(f"unsupported correction set {correction_set}")


@dataclass
class DiMimoProblem:
    """Ising image of the residual search around an anchor estimate x_m."""

    j: np.ndarray
    h: np.ndarray
    t_matrix: np.ndarray
    x_m: np.ndarray
    correction_set: tuple
    h_real: np.ndarray
    y_real: np.ndarray

    @property
    def n_spins(self) -> int:
        return self.t_matrix.shape[1]

    def energy(self, s: np.ndarray) -> float:
        """Quadratic-form convention used for candidate selection:
        E(s) = -h.s - s.J s."""
        s = np.asarray(s, dtype=np.float64)
        return float(-(self.h @ s) - s @ (self.j @ s))

    def reconstruct(self, s: np.ndarray) -> np.ndarray:
        """Refined real-valued estimate x_m + T s."""
        return self.x_m + self.t_matrix @ np.asarray(s, dtype=np.float64)

    def to_instance(self, label: str = "dimimo") -> IsingInstance:
        return IsingInstance(n=self.n_spins, j=self.j, h=self.h, label=label)


def build_dimimo(scenario: MimoScenario, x_m: np.ndarray) -> DiMimoProblem:
    """Map the residual-minimization around x_m onto spins:
    J = -zerodiag(T' H' H T), h = 2 (y - H x_m)' H T, with the QAM order's
    default correction set. No auxiliary spins."""
    correction_set = default_correction_set(scenario.qam_order)
    model = to_real(scenario)
    t = correction_transform(scenario.nt, correction_set)
    x_m = np.asarray(x_m, dtype=np.float64)
    if x_m.shape != (2 * scenario.nt,):
        raise ConfigError("x_m must be a real stacked vector of length 2*nt")
    g = model.h_real @ t
    gram = g.T @ g
    j = -(gram - np.diag(np.diag(gram)))
    residual = model.y_real - model.h_real @ x_m
    h_vec = 2.0 * (g.T @ residual)
    return DiMimoProblem(j=j, h=h_vec, t_matrix=t, x_m=x_m,
                         correction_set=tuple(correction_set),
                         h_real=model.h_real, y_real=model.y_real)


#: Hardware step-budget table: update steps per trial for the inertial
#: parallel detector, by (transmit antennas, QAM order). The conventional
#: sequential detector multiplies by the spin count (equal total updates);
#: the conventional parallel detector uses the same step count.
PIMI_STEP_TABLE = {
    (8, 4): 16, (8, 16): 32, (8, 64): 64,
    (16, 4): 32, (16, 16): 64, (16, 64): 64,
}
DEFAULT_TRIALS = 32
_FALLBACK_PIMI_STEPS = 32


def default_pimi_steps(nt: int, m: int) -> int:
    return PIMI_STEP_TABLE.get((nt, m), _FALLBACK_PIMI_STEPS)


def default_steps(kind: SolverKind, nt: int, m: int, n_spins: int) -> int:
    steps = default_pimi_steps(nt, m)
    if kind is SolverKind.CONV_SEQUENTIAL:
        return steps * n_spins
    return steps


@dataclass
class DetectorConfig:
    """Solver-backed detector settings. kind "mmse" short-circuits to the
    linear baseline. steps=None resolves from the hardware step table."""

    kind: str = "pimi"
    trials: int = DEFAULT_TRIALS
    steps: int | None = None
    quantization: Quantization | None = None

    def solver_kind(self) -> SolverKind | None:
        if self.kind == "mmse":
            return None
        return SolverKind(self.kind)


@dataclass
class DetectionResult:
    bits: np.ndarray
    symbols: np.ndarray
    scenario: MimoScenario
    mmse: MmseResult
    best_energy: float | None = None
    trial_energies: np.ndarray | None = None

    @property
    def bit_errors(self) -> int:
        return int(np.sum(self.bits != self.scenario.bits_true))

    @property
    def ber(self) -> float:
        return self.bit_errors / len(self.scenario.bits_true)


def zero_correction_spins(nt: int, correction_set) -> np.ndarray:
    """A spin configuration with T s = 0: first block +1, the rest -1."""
    blocks = correction_transform(nt, correction_set).shape[1] // (2 * nt)
    return np.concatenate([np.ones(2 * nt)] + [-np.ones(2 * nt)] * (blocks - 1))


def detect(scenario: MimoScenario, config: DetectorConfig,
           base_seed: int = 0) -> DetectionResult:
    """Full detection of one scenario: MMSE anchor, perturbation-Ising
    refinement by the configured solver, minimum-energy selection,
    reconstruction, hard slicing, and Gray decoding.

    The anchor x_m is the sliced MMSE estimate, which keeps corrections
    integer-valued, and every trial starts at the spin encoding of d = 0
    (the anchor itself), so exploration radiates from the linear estimate.
    Trial k's seed derives from (base_seed, 0, k)."""
    return _detect_group([scenario], config, [base_seed])[0]


def _detect_group(scenarios, config: DetectorConfig, seeds) -> list[DetectionResult]:
    """`detect` of each scenario with its base seed, the solver runs of all
    scenarios of one antenna count and QAM order in one `run_batch` call:
    the engine stacks them into blocks of whole instances."""
    mmse = [mmse_detect(sc) for sc in scenarios]
    kind = config.solver_kind()
    if kind is None:
        return [DetectionResult(bits=symbols_to_bits(mm.symbols, sc.qam_order),
                                symbols=mm.symbols, scenario=sc, mmse=mm)
                for sc, mm in zip(scenarios, mmse)]

    problems = [build_dimimo(sc, mm.x_m_sliced) for sc, mm in zip(scenarios, mmse)]
    by_shape: dict[tuple, list[int]] = {}
    for idx, sc in enumerate(scenarios):
        by_shape.setdefault((sc.nt, sc.qam_order), []).append(idx)
    records = [None] * len(scenarios)
    for (nt, m), members in by_shape.items():
        problem = problems[members[0]]
        steps = config.steps if config.steps is not None else default_steps(
            kind, nt, m, problem.n_spins)
        sched = schedule_for_solver(kind, "mimo", problem.n_spins, steps)
        runs = run_batch([problems[idx].to_instance() for idx in members], kind,
                         sched, config.trials, [seeds[idx] for idx in members],
                         workers=1, quantization=config.quantization,
                         init_state=zero_correction_spins(nt, problem.correction_set))
        for idx, recs in zip(members, runs):
            records[idx] = recs

    results = []
    for sc, mm, problem, recs in zip(scenarios, mmse, problems, records):
        energies = np.array([problem.energy(rec.final_spins) for rec in recs])
        best = int(np.argmin(energies))
        x_hat = complex_from_stack(problem.reconstruct(recs[best].final_spins))
        symbols = slice_to_constellation(x_hat, sc.qam_order)
        results.append(DetectionResult(
            bits=symbols_to_bits(symbols, sc.qam_order), symbols=symbols,
            scenario=sc, mmse=mm, best_energy=float(energies[best]),
            trial_energies=energies))
    return results


def ber(scenarios, config: DetectorConfig, base_seed: int = 0) -> float:
    """Mean fraction of incorrectly detected information bits. Scenario
    idx is detected with base seed derive_seed([base_seed, idx]), all
    derived in one call, a block of scenarios at a time: as many as share
    one engine block."""
    scenarios = list(scenarios)
    if not scenarios:
        raise ConfigError("ber needs at least one scenario")
    seeds = derive_seeds([(base_seed, idx)
                          for idx in range(len(scenarios))])[:, 0].tolist()
    # build anchors and problems lazily, one engine block of scenarios at a
    # time, to bound memory; this grouping mirrors run_batch's (workers=1)
    # so that each _detect_group call is one block
    size = instances_per_block(config.trials)
    fractions = []
    for start in range(0, len(scenarios), size):
        group = slice(start, start + size)
        fractions += [res.ber for res in _detect_group(scenarios[group], config,
                                                        seeds[group])]
    return float(np.mean(fractions))
