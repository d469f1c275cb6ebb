"""Experiment plumbing: plain-text manifests, the four experiment families
(Max-Cut benchmark, SK benchmark, detection BER sweeps, flip-rate
diagnostics), file-based stage composition, reproducibility stamps, and
report generation.

A manifest fully determines every archive byte: all randomness flows from
the manifest seed through documented SeedSequence splits, no timestamps or
host details are written, and the worker count is a run-time argument that
never reaches the outputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    ConfigError,
    IsingInstance,
    Schedule,
    ScheduleKind,
    derive_seed,
    derive_seeds,
    read_records_jsonl,
    reading,
    write_json,
    write_records_jsonl,
)
from .instances import Family, GeneratorSpec, generate
from .metrics import (
    CostModel,
    CostModelKind,
    SuccessCriterion,
    log_space_std,
    n_trials_required,
    neighbor_triggered_flip_rate,
    optimize_step_budget,
    speedup,
    success_curve,
)
from .mimo import DetectorConfig, ber, bits_per_symbol, gen_scenario
from .oracle import EXHAUSTIVE_MAX_N, OracleMethod, solve_ground_truth
from .quantize import FixedPointFormat, TanhLut
from .solvers import (
    Quantization,
    SolverKind,
    run_batch,
    schedule_defaults_version,
    schedule_for_solver,
)

WORKERS_ENV_VAR = "PIMI_LAB_WORKERS"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_UNSOLVED = 4

_COST_MODEL_FOR_SOLVER = {
    SolverKind.CONV_SEQUENTIAL: CostModelKind.SEQ,
    SolverKind.CONV_PARALLEL: CostModelKind.PAR,
    SolverKind.PIMI: CostModelKind.PIMI,
}


# ---------------------------------------------------------------------------
# Manifest parsing (plain-text key = value, schema version 1)

@dataclass
class ExperimentManifest:
    """Parsed manifest: family plus family-specific options. The manifest is
    the unit of reproducibility; its canonical text hashes into the stamp."""

    family: str
    seed: int
    out_dir: str
    options: dict = field(default_factory=dict)
    schema_version: int = 1

    def canonical_text(self) -> str:
        lines = [f"schema_version = {self.schema_version}",
                 f"family = {self.family}",
                 f"seed = {self.seed}"]
        for key in sorted(self.options):
            lines.append(f"{key} = {self.options[key]}")
        return "\n".join(lines) + "\n"

    def content_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def parse_manifest_text(text: str, out_dir: str | None = None) -> ExperimentManifest:
    """Parse and check a manifest: every option is read with its family's
    reader here, so a malformed value fails before any stage runs."""
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"manifest line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"manifest line {lineno}: empty key or value")
        if key in pairs:
            raise ConfigError(f"manifest line {lineno}: duplicate key {key!r}")
        pairs[key] = value

    version = pairs.pop("schema_version", None)
    if version is None or read_value("schema_version", int, version) != 1:
        raise ConfigError("manifest must declare schema_version = 1")
    family = pairs.pop("family", None)
    if family not in _SCHEMA:
        raise ConfigError(f"family must be one of {tuple(_SCHEMA)}, got {family!r}")
    seed = pairs.pop("seed", None)
    if seed is None:
        raise ConfigError("manifest must declare a seed")
    out = pairs.pop("out", out_dir)
    if out is None:
        raise ConfigError("manifest must declare out = <directory> (or pass one)")
    _read_options(family, pairs)
    return ExperimentManifest(family=family, seed=read_value("seed", _seed, seed),
                              out_dir=str(out), options=pairs)


def load_manifest(path) -> ExperimentManifest:
    return parse_manifest_text(Path(path).read_text())


def parse_sweep(spec: str) -> list[float]:
    """Parse a sweep: "start:stop:step" with an inclusive stop, or a comma
    list. This is the one grammar of the CLI's --grid and --ebn0 and of the
    manifests' ebn0; anything malformed raises ConfigError."""
    ranged = ":" in spec
    try:
        values = [float(part) for part in spec.split(":" if ranged else ",")]
    except ValueError:
        values = []
    if (not values or not all(math.isfinite(v) for v in values)
            or (ranged and len(values) != 3)):
        raise ConfigError(f"sweep {spec!r} is neither start:stop:step nor a "
                          "comma list of finite numbers")
    if not ranged:
        return values
    start, stop, step = values
    if step <= 0:
        raise ConfigError(f"sweep {spec!r}: step must be positive")
    if start > stop:
        raise ConfigError(f"sweep {spec!r}: start exceeds stop")
    out = []
    v = start
    while v <= stop + 1e-9:
        out.append(round(v, 10))
        v += step
    return out


def _integer(low: int):
    def read(raw: str) -> int:
        value = int(raw)
        if value < low:
            raise ValueError(f"expected an integer >= {low}")
        return value
    return read


_count, _seed = _integer(1), _integer(0)


def _real(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("expected a finite number")
    return value


def _qam(raw: str) -> int:
    bits_per_symbol(int(raw))
    return int(raw)


def _list_of(reader):
    def read(raw: str) -> list:
        parts = [part.strip() for part in raw.split(",")]
        if not all(parts):
            raise ValueError("expected a comma list of non-empty items")
        return [reader(part) for part in parts]
    return read


# Every key a family accepts, as key -> (reader, default). A default is
# read like a given value. A None default stays None unless given: the
# runner resolves it (mimo-ber nr = nt, flip-rate steps = 100 n and
# instance_seed = seed), or it means off (quantized) or the detector's own
# step table (mimo-ber steps).
_BENCH_KEYS = {
    "sizes": (_list_of(_count), "10,20"),
    "instances": (_count, "20"),
    "trials": (_count, "256"),
    "steps_per_spin": (_count, "100"),
    "solvers": (_list_of(SolverKind), "pimi,conv-seq,conv-par"),
    "grid_step": (_count, "10"),
    "threshold_fraction": (_real, "0.999"),
    "epsilon": (_real, "0.001"),
}
_SCHEMA = {
    "maxcut-bench": {**_BENCH_KEYS, "oracle": (OracleMethod, "bls"),
                     "edge_prob": (_real, "0.5")},
    "sk-bench": {**_BENCH_KEYS, "oracle": (OracleMethod, "sa")},
    "mimo-ber": {
        "nt": (_count, "4"),
        "nr": (_count, None),
        "qam": (_qam, "16"),
        "ebn0": (parse_sweep, "0:24:4"),
        "scenarios": (_count, "2000"),
        "detectors": (_list_of(lambda raw: raw if raw == "mmse"
                               else SolverKind(raw).value), "mmse,pimi"),
        "trials": (_count, "32"),
        "steps": (_count, None),
        "quantized": (FixedPointFormat.parse, None),
        "tanh_levels": (lambda raw: TanhLut(int(raw)), "4"),
    },
    "flip-rate": {
        "problem": (Family, "sk1"),
        "n": (_count, "50"),
        "instance_seed": (_seed, None),
        "trials": (_count, "64"),
        "steps": (_count, None),
        "xi": (_list_of(_real), "0.0,0.9"),
        # giving beta or eta swaps the annealed schedule for constant drive
        "beta": (_real, "2.0"),
        "eta": (_real, "0.1"),
    },
}


# cli.main reads each flag like the manifest key of its name, or as given here
FLAG_READERS = {key: reader for keys in _SCHEMA.values()
                for key, (reader, _) in keys.items()}
FLAG_READERS.update(seed=_seed, count=_count, restarts=_count, workers=_count,
                    grid=parse_sweep)


def read_value(key: str, reader, raw: str | None, what: str = "manifest key"):
    """reader(raw), or None for None; a ValueError becomes a ConfigError naming key."""
    try:
        return None if raw is None else reader(raw)
    except ValueError as exc:
        raise ConfigError(f"{what} {key!r}: cannot read {raw!r}: {exc}") from None


def default_workers() -> int:
    raw = os.environ.get(WORKERS_ENV_VAR, "1")
    return read_value(WORKERS_ENV_VAR, _count, raw, "environment variable")


def _read_options(family: str, options: dict) -> dict:
    """Typed value of every key of the family, given or default; raises
    ConfigError naming the first unknown or unreadable key."""
    schema = _SCHEMA[family]
    unknown = set(options) - set(schema)
    if unknown:
        raise ConfigError(f"unknown manifest keys for {family}: {sorted(unknown)}")
    return {key: read_value(key, reader, options.get(key, default))
            for key, (reader, default) in schema.items()}


# ---------------------------------------------------------------------------
# Stages (file -> file; each stage reads only serialized outputs)


def instance_seed(base_seed: int, n: int, index: int) -> int:
    return derive_seed([base_seed, n, index])


def stage_generate(family: Family, sizes, count: int, base_seed: int,
                   out_dir: Path, edge_prob: float = 0.5) -> list[Path]:
    """Write instance JSON files named <family>_n<N>_i<k>.json."""
    paths = []
    for n in sizes:
        for k in range(count):
            spec = GeneratorSpec(family, n, instance_seed(base_seed, n, k),
                                 edge_prob=edge_prob)
            inst, edges = generate(spec)
            payload = inst.to_json_dict()
            if edges is not None:
                payload["edge_count"] = edges
            path = out_dir / f"{family.value}_n{n}_i{k}.json"
            write_json(path, payload)
            paths.append(path)
    return paths


def stage_oracle(instance_paths, method: OracleMethod, out_path: Path,
                 seed: int = 0, **kwargs) -> dict:
    """Ground truths for every instance file; gs.json maps filename ->
    {energy, method, effort}."""
    table = {}
    for path in instance_paths:
        inst = IsingInstance.load(path)
        res = solve_ground_truth(inst, method, seed=seed, **kwargs)
        table[Path(path).name] = {
            "energy": res.best_energy,
            "method": res.method.value,
            "effort": res.effort,
        }
    write_json(out_path, dict(sorted(table.items())), indent=1, sort_keys=True)
    return table


def stage_solve(instance_paths, kind: SolverKind, family: str, t_steps: int,
                trials: int, base_seed: int, out_path: Path, workers: int = 1,
                quantization: Quantization | None = None,
                schedule_overrides: dict | None = None,
                record_trajectory: bool = False,
                record_states: bool = False) -> None:
    """Solve a set of instance files with one solver kind and write records
    (with instance / trial annotations) as JSON lines."""
    instances = [IsingInstance.load(p) for p in instance_paths]
    if not instances:
        write_records_jsonl(out_path, [])
        return
    n = instances[0].n
    if any(inst.n != n for inst in instances):
        raise ConfigError("stage_solve expects instances of equal size")
    sched = schedule_for_solver(kind, family, n, t_steps, schedule_overrides)
    results = run_batch(instances, kind, sched, trials, base_seed,
                        workers=workers, quantization=quantization,
                        record_trajectory=record_trajectory,
                        record_states=record_states)
    records, extras = [], []
    for path, recs in zip(instance_paths, results):
        for t_idx, rec in enumerate(recs):
            records.append(rec)
            extras.append({"instance": Path(path).name, "trial": t_idx,
                           "kind": kind.value, "t_steps": t_steps})
    write_records_jsonl(out_path, records, extra=extras)


def _write_csv(path, header, rows) -> None:
    """An archive CSV: the header, then the rows, in csv's default dialect
    (CRLF line ends), making the directory."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value) -> str:
    """Deterministic CSV cell: shortest round-trip float, empty for non-finite."""
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return ""
        return repr(value)
    return str(value)


def stage_ccts(records_path, ground_path, model_kind: CostModelKind,
               grid, out_path: Path, threshold_fraction: float = 0.999,
               epsilon: float = 0.001):
    """Aggregate solver records into a CCTS landscape CSV with columns
    (T_steps, p_mean, p_logstd, n_trials, ccts). Returns the landscape."""
    records, extras = read_records_jsonl(records_path)
    if not records:
        raise ConfigError(f"no records in {records_path}")
    with open(ground_path) as f, reading(ground_path):
        ground = {name: float(entry["energy"]) for name, entry in json.load(f).items()}

    by_instance: dict[str, list] = {}
    with reading(records_path):  # records need their instance annotation
        for rec, extra in zip(records, extras):
            by_instance.setdefault(extra["instance"], []).append(rec)

    t_max = min((e["t_steps"] for e in extras if "t_steps" in e),
                default=math.inf)
    for t in grid:
        if t != int(t) or t < 1:
            raise ConfigError(f"step budget {t:g} is not an integer >= 1")
        if t > t_max:
            raise ConfigError(f"step budget {t:g} exceeds the records' {t_max} steps")
    grid = [int(t) for t in grid]
    curves = []
    n = len(records[0].final_spins)
    for name, recs in sorted(by_instance.items()):
        if name not in ground:
            raise ConfigError(f"missing ground truth for {name}")
        crit = SuccessCriterion(ground[name], threshold_fraction)
        curves.append(success_curve(recs, crit, grid))
    curves = np.array(curves)  # (instances, budgets)
    p_means = curves.mean(axis=0)
    p_stds = [log_space_std(curves[:, k]) for k in range(len(grid))]

    landscape = optimize_step_budget(n, CostModel(model_kind), grid, p_means,
                                     epsilon=epsilon, p_logstd=p_stds)
    _write_csv(out_path, ["T_steps", "p_mean", "p_logstd", "n_trials", "ccts"],
               ([t, _fmt(float(p)), _fmt(std), _fmt(float(trials)), _fmt(float(cost))]
                for (t, p, trials, cost), std in zip(landscape.grid, landscape.p_logstd)))
    return landscape


def stage_flip_rate(records_path, instance_path, out_path: Path) -> np.ndarray:
    """Neighbor-triggered flip rate from state-recording records; CSV columns
    (step, p_nt), empty cell for steps with no conditioning events."""
    records, _ = read_records_jsonl(records_path)
    trajs = [rec.state_trajectory for rec in records if rec.state_trajectory is not None]
    if not trajs:
        raise ConfigError(f"{records_path} holds no state trajectories")
    inst = IsingInstance.load(instance_path)
    return _write_pnt_csv(neighbor_triggered_flip_rate(trajs, inst), out_path)


def _write_pnt_csv(pnt: np.ndarray, out_path: Path) -> np.ndarray:
    _write_csv(out_path, ["step", "p_nt"], ([t, _fmt(float(v))] for t, v in enumerate(pnt)))
    return pnt


def stage_mimo_ber(opts: dict, base_seed: int, out_path: Path) -> list:
    """BER sweep of the mimo-ber family and subcommand, from the family's
    options as read; CSV columns (ebn0_db, ber, scenario_count, detector)."""
    quant = (Quantization(opts["quantized"], opts["tanh_levels"])
             if opts["quantized"] else None)
    configs = {name: DetectorConfig(kind=name, trials=opts["trials"], steps=opts["steps"],
                                    quantization=None if name == "mmse" else quant)
               for name in opts["detectors"]}
    nt, qam, n_scenarios = opts["nt"], opts["qam"], opts["scenarios"]
    nr = opts["nr"] or nt
    rows = []
    for ebn0 in opts["ebn0"]:
        # the point's root, with m = round(1000 ebn0): [seed, m] for m >= 0,
        # and for m < 0 the spawn key (1,) child of [seed, -m], which is no
        # m >= 0 point's root
        milli = int(round(ebn0 * 1000))
        root, key = ((base_seed, milli), ()) if milli >= 0 else ((base_seed, -milli), (1,))
        seeds = derive_seeds([root], key, words=n_scenarios)[0].tolist()
        scenarios = [gen_scenario(nt, nr, qam, float(ebn0), s) for s in seeds]
        for name, config in configs.items():
            value = ber(scenarios, config, base_seed=base_seed)
            rows.append((float(ebn0), value, n_scenarios, name))
    _write_csv(out_path, ["ebn0_db", "ber", "scenario_count", "detector"],
               ([_fmt(ebn0), _fmt(value), count, name] for ebn0, value, count, name in rows))
    return rows


# ---------------------------------------------------------------------------
# Experiment families


def _write_stamp(manifest: ExperimentManifest, out_dir: Path, status: int):
    stamp = {
        "manifest_hash": manifest.content_hash(),
        "family": manifest.family,
        "package_version": __version__,
        "schedule_defaults_version": schedule_defaults_version(),
        "status": status,
    }
    write_json(out_dir / "stamp.json", stamp, indent=1, sort_keys=True)


def _run_bench(family: Family, manifest: ExperimentManifest, opts: dict,
               workers: int) -> int:
    edge_prob = opts.get("edge_prob", 0.5)  # sk-bench draws no edges
    grid_step = opts["grid_step"]
    grids = {}
    for n in opts["sizes"]:  # domain and cross-key checks, before any write
        GeneratorSpec(family, n, manifest.seed, edge_prob=edge_prob)
        if opts["oracle"] is OracleMethod.EXHAUSTIVE and n > EXHAUSTIVE_MAX_N:
            raise ConfigError(f"sizes: n = {n} is above N = {EXHAUSTIVE_MAX_N}, "
                              "the largest the exhaustive oracle solves")
        grids[n] = list(range(grid_step, opts["steps_per_spin"] * n + 1, grid_step))
        if len(grids[n]) < 2:
            raise ConfigError(f"grid_step = {grid_step} leaves fewer than 2 step "
                              f"budgets up to steps_per_spin * {n}")
    SuccessCriterion(-1.0, opts["threshold_fraction"])
    n_trials_required(1.0, opts["epsilon"])

    out = Path(manifest.out_dir)
    status = EXIT_OK
    for n in opts["sizes"]:
        paths = stage_generate(family, [n], opts["instances"], manifest.seed,
                               out / "instances", edge_prob=edge_prob)
        gs_path = out / f"gs_n{n}.json"
        stage_oracle(paths, opts["oracle"], gs_path, seed=manifest.seed)
        t_steps = opts["steps_per_spin"] * n
        for kind in opts["solvers"]:
            records_path = out / f"records_{kind.value}_n{n}.jsonl"
            stage_solve(paths, kind, family.value, t_steps, opts["trials"],
                        manifest.seed, records_path, workers=workers)
            landscape = stage_ccts(records_path, gs_path,
                                   _COST_MODEL_FOR_SOLVER[kind], grids[n],
                                   out / f"landscape_{kind.value}_n{n}.csv",
                                   threshold_fraction=opts["threshold_fraction"],
                                   epsilon=opts["epsilon"])
            if not landscape.solved:
                status = EXIT_UNSOLVED
    return status


def _run_mimo_ber(manifest: ExperimentManifest, opts: dict, workers: int) -> int:
    stage_mimo_ber(opts, manifest.seed, Path(manifest.out_dir) / "ber.csv")
    return EXIT_OK


def _run_flip_rate(manifest: ExperimentManifest, opts: dict, workers: int) -> int:
    family, n, xis = opts["problem"], opts["n"], opts["xi"]
    steps = opts["steps"] or 100 * n
    GeneratorSpec(family, n, 0)  # rejects n < 2
    if "beta" in manifest.options or "eta" in manifest.options:
        # fixed-drive diagnostic: constant beta and eta
        scheds = [Schedule(ScheduleKind.CUSTOM, np.full(steps, opts["beta"]),
                           np.full(steps, opts["eta"]), xi, steps) for xi in xis]
    else:
        # default: the family's annealed run schedule with xi overridden
        scheds = [schedule_for_solver(SolverKind.PIMI, family.value, n, steps,
                                      {"xi": xi}) for xi in xis]

    out = Path(manifest.out_dir)
    instance_seed = opts["instance_seed"]
    paths = stage_generate(family, [n], 1,
                           manifest.seed if instance_seed is None else instance_seed,
                           out / "instances")
    inst = IsingInstance.load(paths[0])
    summary_rows = []
    for xi, sched in zip(xis, scheds):
        recs = run_batch([inst], SolverKind.PIMI, sched, opts["trials"],
                         manifest.seed, workers=workers, record_states=True)[0]
        write_records_jsonl(out / f"traj_xi{xi}.jsonl", recs)
        pnt = neighbor_triggered_flip_rate([rec.state_trajectory for rec in recs], inst)
        _write_pnt_csv(pnt, out / f"pnt_xi{xi}.csv")
        # steps without a neighbour flip have no rate; with none at all
        # the mean is empty too
        summary_rows.append((xi, math.nan if np.isnan(pnt).all()
                             else float(np.nanmean(pnt))))
    _write_csv(out / "pnt_summary.csv", ["xi", "mean_p_nt"],
               ([_fmt(xi), _fmt(mean)] for xi, mean in summary_rows))
    return EXIT_OK


_RUNNERS = {
    "maxcut-bench": partial(_run_bench, Family.MAXCUT_ER),
    "sk-bench": partial(_run_bench, Family.SK_ONE),
    "mimo-ber": _run_mimo_ber,
    "flip-rate": _run_flip_rate,
}


def run_experiment(manifest: ExperimentManifest, workers: int = 1) -> int:
    """Execute the manifest's pipeline; returns a process exit status.
    Outputs land in manifest.out_dir together with a reproducibility stamp.
    Each runner makes the domain types' checks (instance sizes, edge_prob,
    threshold_fraction, epsilon, schedules) before its first write, so a
    manifest that fails a check writes nothing."""
    opts = _read_options(manifest.family, manifest.options)
    status = _RUNNERS[manifest.family](manifest, opts, workers)
    out = Path(manifest.out_dir)
    (out / "manifest.txt").write_text(manifest.canonical_text())
    _write_stamp(manifest, out, status)
    return status


def archive_hash(out_dir) -> str:
    """Hash of every archive file's bytes (sorted by name); pure function of
    the manifest when the pipeline is deterministic."""
    out = Path(out_dir)
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Reporting


def _read_csv(path, parse) -> list:
    """parse(row) of every row of an archive CSV; a missing column, a row
    with a cell too few or too many, a cell that does not parse and a file
    without rows raise a ConfigError naming the file."""
    with open(path, newline="") as f, reading(path):
        reader = csv.DictReader(f)
        rows = []
        for row in reader:
            if None in row or None in row.values():
                raise ValueError(f"line {reader.line_num} does not have "
                                 "one cell per column")
            rows.append(parse(row))
        if not rows:
            raise ValueError("no data rows")
        return rows


def _landscape_row(row) -> dict:
    return {
        "T_steps": int(row["T_steps"]),
        "p_mean": float(row["p_mean"]) if row["p_mean"] else math.nan,
        "p_logstd": float(row["p_logstd"]) if row["p_logstd"] else math.nan,
        "n_trials": float(row["n_trials"]) if row["n_trials"] else math.inf,
        "ccts": float(row["ccts"]) if row["ccts"] else math.inf,
    }


def _landscape_optimum(rows):
    best = None
    for row in rows:
        if math.isfinite(row["ccts"]) and (best is None or row["ccts"] < best["ccts"]):
            best = row
    return best


def summarize(out_dir, report_path=None) -> str:
    """Digest an experiment archive into summary.csv plus a plain-text
    report. Empty archives produce an empty report and succeed."""
    out = Path(out_dir)
    if not out.is_dir():
        raise ConfigError(f"no archive directory at {out_dir}")
    report_path = Path(report_path) if report_path else out / "report.txt"
    lines = []
    summary_rows = []

    landscapes = sorted(out.glob("landscape_*_n*.csv"))
    by_size: dict[int, dict[str, dict]] = {}
    for path in landscapes:
        with reading(path):
            name, n_part = path.stem[len("landscape_"):].rsplit("_n", 1)
            n = int(n_part)
        rows = _read_csv(path, _landscape_row)
        optimum = _landscape_optimum(rows)
        p_final = rows[-1]["p_mean"]
        by_size.setdefault(n, {})[name] = {"optimum": optimum, "p_final": p_final}

    for n in sorted(by_size):
        for name in sorted(by_size[n]):
            entry = by_size[n][name]
            opt = entry["optimum"]
            summary_rows.append({
                "n": n, "solver": name,
                "p_final": entry["p_final"],
                "t_opt": opt["T_steps"] if opt else None,
                "ccts_opt": opt["ccts"] if opt else None,
            })
            if opt is None:
                lines.append(f"n={n} {name}: unsolved at every budget")
            else:
                lines.append(
                    f"n={n} {name}: p(final)={entry['p_final']:.4f} "
                    f"T*={opt['T_steps']} CCTS*={opt['ccts']:.1f}")
        solvers_here = by_size[n]
        if "conv-seq" in solvers_here and "pimi" in solvers_here:
            a = solvers_here["conv-seq"]["optimum"]
            b = solvers_here["pimi"]["optimum"]
            if a and b:
                ratio = speedup(a["ccts"], b["ccts"])
                summary_rows.append({"n": n, "solver": "speedup-conv-seq/pimi",
                                     "p_final": None, "t_opt": None,
                                     "ccts_opt": ratio})
                lines.append(f"n={n} speedup conv-seq/pimi: {ratio:.2f}x")

    ber_path = out / "ber.csv"
    if ber_path.exists():
        lines += _read_csv(ber_path, lambda row: (
            f"ebn0={row['ebn0_db']} dB {row['detector']}: "
            f"BER={row['ber']} ({row['scenario_count']} scenarios)"))

    pnt_summary = out / "pnt_summary.csv"
    if pnt_summary.exists():
        lines += _read_csv(pnt_summary, lambda row: (
            f"xi={row['xi']}: mean neighbor-triggered flip rate = {row['mean_p_nt']}"))

    if summary_rows:
        _write_csv(out / "summary.csv", ["n", "solver", "p_final", "t_opt", "ccts_opt"],
                   ([row["n"], row["solver"], _fmt(row["p_final"]), _fmt(row["t_opt"]),
                     _fmt(row["ccts_opt"])] for row in summary_rows))

    text = "\n".join(lines) + ("\n" if lines else "")
    report_path.write_text(text)
    return text
