"""pimi-lab benchmark: four generated manifests run end to end through
`pimi_lab.cli.main(["experiment", ...])`, each repetition in a fresh
single-worker process, with output checks and an optional traced run.

    python3 perfbench/run.py --workload maxcut-bench --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Run it from the root of a source checkout: the package is imported from
`./src`. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; with `--trace 0` the metrics
are the end-to-end ones, with `--trace 1` the per-layer ones. The lines
before it print every metric with its unit, then a status line with the
archive hash, the contract verdict and the environment. Scratch files go
to `.perfbench_work/` in the checkout. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import SPAN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
HASHES = HERE / "archive_hashes.json"

# Each workload is one manifest family at a size that keeps the layer shares
# the family has at full desk scale (see README.md for the measured shares).
WORKLOADS = {
    # solver engine bound: N=20 per-step overhead, N=100 noise-capped blocks
    "maxcut-bench": {
        "family": "maxcut-bench", "sizes": "20,100", "instances": 1,
        "trials": 32, "steps_per_spin": 100,
        "solvers": "pimi,conv-seq,conv-par", "oracle": "bls",
    },
    # Python SA oracle bound; the solvers are a small, flat share
    "sk-bench": {
        "family": "sk-bench", "sizes": "32", "instances": 1, "trials": 32,
        "solvers": "pimi,conv-seq,conv-par", "oracle": "sa",
    },
    # hundreds of tiny quantized run_batch calls: per-call setup + fixed point
    "mimo-ber": {
        "family": "mimo-ber", "nt": 8, "nr": 8, "qam": 16, "ebn0": "10,14",
        "scenarios": 50, "detectors": "mmse,pimi,conv-par", "trials": 32,
        "quantized": "q16.4", "tanh_levels": 4,
    },
    # records full state trajectories: JSON record I/O bound
    "flip-rate": {
        "family": "flip-rate", "problem": "maxcut", "n": 50, "trials": 16,
        "xi": "0.0,0.9",
    },
}

MIN_REPS = 3          # untraced repetitions per run, whatever --seconds says
MIN_TRACED_REPS = 2   # traced repetitions per traced run
SETUP_PER_REP = 3     # fresh interpreters timed for setup_s before each repetition
SETUP_SAMPLES = 15    # fewest setup samples per run
CHILD_TIMEOUT_S = 150
REALTIME_DETECTIONS_PER_S = 8_400 * 1000  # mimo.THROUGHPUT_REQ_LTE_10MHZ_PER_MS
# reference vCPU speed in SpeedProbe runs per second, of the order the probe
# reached on the machine the benchmark was defined on
PROBE_REF_PER_S = 4000.0
# reference vCPU speed for setup_s, in child.loop_speed runs per second
SETUP_REF_PER_S = 1000.0

# counts that must repeat exactly across runs of one seed
EXACT_COUNTS = ("solvers.spin_updates", "solvers.noise_bytes",
                "oracle.proposals", "quantize.elements", "core.records_bytes")


class BenchError(Exception):
    """The harness itself failed: the benchmark has no result to report."""


def manifest_text(workload: str, seed: int, out_dir: Path) -> str:
    options = dict(WORKLOADS[workload])
    lines = ["schema_version = 1", f"family = {options.pop('family')}",
             f"seed = {seed}", f"out = {out_dir}"]
    lines += [f"{key} = {value}" for key, value in options.items()]
    return "\n".join(lines) + "\n"


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
        "PYTHONPATH") else src
    # one worker on one core: pin BLAS so its thread pool does not compete
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PIMI_LAB_WORKERS", None)
    env["TMPDIR"] = str(work)
    return env


def run_child(args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(CHILD), *args], env=env,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)


def child_fault(args: list[str], proc: subprocess.CompletedProcess) -> str:
    return (f"child {args[0]} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}")


# ---------------------------------------------------------------------------
# Output checks: a repetition fails when any of these finds a problem


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _parse_archive(out: Path, expected: list[str]) -> list[str]:
    problems = [f"missing {name}" for name in expected if not (out / name).is_file()]
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        try:
            if path.suffix == ".json":
                json.loads(path.read_text())
            elif path.suffix == ".jsonl":
                with open(path) as f:
                    for line in f:
                        json.loads(line)
            elif path.suffix == ".csv":
                _read_csv(path)
        except (ValueError, UnicodeDecodeError) as exc:
            problems.append(f"{path.name} does not parse: {exc}")
    return problems


def check_bench(workload: str, out: Path, rc: int, quality: dict) -> list[str]:
    opts = WORKLOADS[workload]
    sizes = [int(v) for v in str(opts["sizes"]).split(",")]
    solvers = opts["solvers"].split(",")
    prefix = "maxcut" if opts["family"] == "maxcut-bench" else "sk1"
    expected = ["stamp.json", "manifest.txt"]
    for n in sizes:
        expected.append(f"gs_n{n}.json")
        expected += [f"instances/{prefix}_n{n}_i{k}.json"
                     for k in range(opts["instances"])]
        for s in solvers:
            expected += [f"records_{s}_n{n}.jsonl", f"landscape_{s}_n{n}.csv"]
    problems = _parse_archive(out, expected)
    if problems:
        return problems
    all_solved = True
    for n in sizes:
        for s in solvers:
            rows = _read_csv(out / f"landscape_{s}_n{n}.csv")
            p = [float(r["p_mean"]) for r in rows]
            if any(b < a for a, b in zip(p, p[1:])):
                problems.append(f"landscape {s} n{n}: p_mean decreases")
            ccts = [float(r["ccts"]) for r in rows if r["ccts"]]
            solved = bool(ccts)
            all_solved &= solved
            if s == "pimi":
                if not solved:
                    problems.append(f"pimi unsolved at n{n}")
                elif n == max(sizes):
                    quality["sim_ccts_pimi"] = min(ccts)
    expected_rc = 0 if all_solved else 4
    if rc != expected_rc:
        problems.append(f"exit code {rc}, expected {expected_rc}")
    return problems


def check_mimo(workload: str, out: Path, rc: int, quality: dict) -> list[str]:
    problems = _parse_archive(out, ["stamp.json", "manifest.txt", "ber.csv"])
    if problems:
        return problems
    rows = _read_csv(out / "ber.csv")
    detectors = WORKLOADS[workload]["detectors"].split(",")
    points = str(WORKLOADS[workload]["ebn0"]).split(",")
    if len(rows) != len(detectors) * len(points):
        problems.append(f"ber.csv has {len(rows)} rows")
    for row in rows:
        value = float(row["ber"]) if row["ber"] else math.nan
        if not 0.0 <= value <= 1.0:
            problems.append(f"BER {row['ber']!r} outside [0, 1]")
    pimi = [float(r["ber"]) for r in rows if r["detector"] == "pimi"]
    quality["sim_ber_pimi"] = statistics.fmean(pimi) if pimi else math.nan
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    return problems


def check_flip(workload: str, out: Path, rc: int, quality: dict) -> list[str]:
    opts = WORKLOADS[workload]
    xis = [float(v) for v in opts["xi"].split(",")]
    expected = ["stamp.json", "manifest.txt", "pnt_summary.csv",
                f"instances/{opts['problem']}_n{opts['n']}_i0.json"]
    expected += [f"traj_xi{xi}.jsonl" for xi in xis]
    expected += [f"pnt_xi{xi}.csv" for xi in xis]
    problems = _parse_archive(out, expected)
    if problems:
        return problems
    mean = {float(r["xi"]): float(r["mean_p_nt"]) if r["mean_p_nt"] else math.nan
            for r in _read_csv(out / "pnt_summary.csv")}
    if not mean.get(0.9, math.nan) < mean.get(0.0, math.nan):
        problems.append(f"P_NT not damped: xi=0.9 {mean.get(0.9)} vs "
                        f"xi=0 {mean.get(0.0)}")
    quality["sim_pnt_damped"] = mean.get(0.9, math.nan)
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    return problems


CHECKS = {"maxcut-bench": check_bench, "sk-bench": check_bench,
          "mimo-ber": check_mimo, "flip-rate": check_flip}


# ---------------------------------------------------------------------------
# Repetitions


class Run:
    """All repetitions of one workload and seed in one benchmark run."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.archive = work / "archive"
        self.manifest = work / "workload.manifest"
        self.manifest.write_text(manifest_text(workload, seed, self.archive))
        self.env = child_env(work)
        self.reps: list[dict] = []
        self.traced: list[dict] = []
        self.problems: list[str] = []
        self.failed = 0
        self.quality: dict = {}
        self.first: dict | None = None

    def setup_sample(self) -> dict:
        args = ["setup", str(self.manifest)]
        proc = run_child(args, self.env)
        if proc.returncode != 0:
            raise BenchError(child_fault(args, proc))
        return json.loads(proc.stdout)

    def check(self, result: dict) -> list[str]:
        if result["error"]:
            return []  # listed by repetition(); there is no archive to check
        try:
            return CHECKS[self.workload](self.workload, self.archive,
                                         result["rc"], self.quality)
        except (KeyError, ValueError, csv.Error, OSError) as exc:
            return [f"archive check failed: {exc!r}"]

    def repetition(self, traced: bool) -> dict:
        if self.archive.exists():
            shutil.rmtree(self.archive)
        result_path = self.work / "result.json"
        result_path.unlink(missing_ok=True)
        args = ["run", str(self.manifest), str(result_path)]
        if traced:
            args.append(str(self.work / "spans.npz"))
        proc = run_child(args, self.env)
        if not result_path.is_file():
            raise BenchError(child_fault(args, proc))
        result = json.loads(result_path.read_text())
        if self.first is None:
            # the archive is parsed once; later repetitions must match it
            # byte for byte, so they share its verdict
            self.first = {"hash": result["hash"], "rc": result["rc"],
                          "problems": self.check(result)}
        problems = list(self.first["problems"])
        if result["error"]:
            problems.append(f"program failed: {result['error'].strip()[-500:]}")
        if proc.returncode != 0:
            problems.append(child_fault(args, proc))
        if result["hash"] != self.first["hash"]:
            problems.append("archive hash differs between runs of one seed"
                            + (" (traced run)" if traced else ""))
        if result["rc"] != self.first["rc"]:
            problems.append("exit code differs between runs of one seed")
        if problems:
            self.failed += 1
            self.problems += [p for p in problems if p not in self.problems]
        shutil.rmtree(self.archive, ignore_errors=True)
        (self.traced if traced else self.reps).append(result)
        return result


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run, setup: list[dict]) -> dict:
    # each time rescaled to a vCPU running at the reference probe speed
    return {
        "norm_wall_s": (_median([r["wall_s"] * r["probe_speed"] / PROBE_REF_PER_S
                                 for r in run.reps]), "s"),
        "setup_s": (_median([s["setup_s"] * s["probe_speed"] / SETUP_REF_PER_S
                             for s in setup]), "s"),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in run.reps]), "MB"),
    }


UPDATE_RATE_KEYS = [
    *(f"solvers.{kind}.float.n{n}" for n in (20, 32, 100)
      for kind in ("pimi", "conv-seq", "conv-par")),
    "solvers.pimi.float.n50",
    "solvers.pimi.q16_4.n32",
    "solvers.conv-par.q16_4.n32",
]


def per_layer(run: Run) -> dict:
    traced = run.traced
    counts0 = traced[0]["counts"]
    for r in traced[1:]:
        for key in EXACT_COUNTS:
            if r["counts"].get(key, 0) != counts0.get(key, 0):
                run.problems.append(f"{key} differs between runs of one seed")
                run.failed += 1
        for name in SPAN_NAMES:
            if r["spans"][name]["calls"] != traced[0]["spans"][name]["calls"]:
                run.problems.append(f"{name}.calls differs between runs")
                run.failed += 1

    def med(getter):
        return _median([getter(r) for r in traced])

    def count(key):
        return med(lambda r: r["counts"].get(key, 0.0))

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {}
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = (traced[0]["spans"][name]["calls"], "count")
        m[f"{name}.s"] = (med(lambda r: r["spans"][name]["s"]), "s")
        m[f"{name}.self_s"] = (med(lambda r: r["spans"][name]["self_s"]), "s")
    for key in UPDATE_RATE_KEYS:
        m[f"{key}.updates_per_s"] = (
            ratio(count(f"{key}.updates"), count(f"{key}.s")), "1/s")

    def span(name, field):
        return m[f"{name}.{field}"][0]

    m["solvers.spin_updates"] = (counts0.get("solvers.spin_updates", 0), "count")
    m["solvers.noise_bytes"] = (counts0.get("solvers.noise_bytes", 0),
                                "bytes_computed")
    m["solvers.trial_setup.us_per_trial"] = (ratio(
        span("solvers.trial_setup", "s"), span("solvers.trial_setup", "calls"),
        1e6), "us")
    m["oracle.sa.us_per_flip"] = (ratio(count("oracle.sa.s"),
                                        count("oracle.sa.steps"), 1e6), "us")
    m["oracle.bls.us_per_cycle"] = (ratio(count("oracle.bls.s"),
                                          count("oracle.bls.cycles"), 1e6), "us")
    m["oracle.proposals"] = (counts0.get("oracle.proposals", 0), "count")
    m["quantize.elements"] = (counts0.get("quantize.elements", 0), "count")
    m["quantize.ns_per_element"] = (ratio(
        span("quantize.quantize", "s"), m["quantize.elements"][0], 1e9), "ns")
    records_s = span("core.write_records_jsonl", "s") + span(
        "core.read_records_jsonl", "s")
    m["core.records_bytes"] = (counts0.get("core.records_bytes", 0), "bytes")
    m["core.records_mb_per_s"] = (ratio(m["core.records_bytes"][0], records_s,
                                        1e-6), "MB/s")
    detections = count("mimo.detect.solver_calls")
    m["mimo.detect.per_s"] = (ratio(detections, count("mimo.detect.solver_s")),
                              "1/s")
    m["mimo.detect.realtime_share"] = (ratio(
        m["mimo.detect.per_s"][0], REALTIME_DETECTIONS_PER_S), "ratio")
    m["mimo.detect.changed_ratio"] = (ratio(count("mimo.detect.changed"),
                                            detections), "ratio")
    wall = span("cli.main", "s")
    m["share.solvers"] = (ratio(span("solvers.run_batch", "s"), wall), "ratio")
    m["share.oracle"] = (ratio(span("oracle.solve_ground_truth", "s"), wall),
                         "ratio")
    m["share.quantize_setup"] = (ratio(
        span("quantize.quantize", "s") + span("quantize.lut_tanh", "s")
        + span("solvers.trial_setup", "s"), wall), "ratio")
    m["share.core_records"] = (ratio(records_s, wall), "ratio")
    untraced_s = _median([r["wall_s"] for r in run.reps])
    m["cli.main.untraced_s"] = (untraced_s, "s")
    m["trace.overhead_s"] = (med(lambda r: r["wall_s"]) - untraced_s, "s")
    m["sim_ccts_pimi"] = (run.quality.get("sim_ccts_pimi", 0.0), "cycles")
    m["sim_ber_pimi"] = (run.quality.get("sim_ber_pimi", 0.0), "ratio")
    m["sim_pnt_damped"] = (run.quality.get("sim_pnt_damped", 0.0), "ratio")
    return m


def contract_verdict(workload: str, seed: int, digest: str) -> str:
    recorded = json.loads(HASHES.read_text()).get(workload, {}).get(str(seed))
    if digest is None:
        return "no archive"
    if recorded is None:
        return "unrecorded"
    return "unchanged" if recorded == digest else "changed"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + seconds
    work = ROOT / ".perfbench_work" / f"{workload}-s{seed}-t{int(trace)}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    run = Run(workload, seed, work)
    run.setup_sample()  # untimed: compiles bytecode, warms the file cache

    # setup samples are interleaved with the repetitions so that both see
    # the same stretch of machine time
    setup: list[dict] = []
    step = 2 if trace else 1  # a traced run alternates untraced and traced
    while True:
        done = len(run.reps) + len(run.traced)
        enough = (len(run.traced) >= MIN_TRACED_REPS if trace
                  else len(run.reps) >= MIN_REPS)
        now = time.monotonic()
        if enough and now + step * (now - start) / done > deadline:
            break
        if not trace:
            setup += [run.setup_sample() for _ in range(SETUP_PER_REP)]
        run.repetition(traced=False)
        if trace:
            run.repetition(traced=True)
    while not trace and len(setup) < SETUP_SAMPLES:
        setup.append(run.setup_sample())

    metrics = per_layer(run) if trace else end_to_end(run, setup)
    digest = run.first["hash"]
    status = {
        "workload": workload, "seed": seed,
        "archive_hash": digest,
        "contract": contract_verdict(workload, seed, digest),
        "exit_code": run.first["rc"],
        "repetitions": len(run.reps), "traced_repetitions": len(run.traced),
        "wall_s": _median([r["wall_s"] for r in run.reps]),
        "wall_s_each": [round(r["wall_s"], 4) for r in run.reps + run.traced],
        "setup_s_each": [round(s["setup_s"], 4) for s in setup],
        "setup_speed_each": [round(s["probe_speed"], 1) for s in setup],
        "cpu_s_each": [round(r["cpu_s"], 4) for r in run.reps + run.traced],
        "probe_speed_each": [round(r["probe_speed"], 1)
                             for r in run.reps + run.traced],
        "problems": run.problems,
        "untraced_sites": run.traced[0]["untraced_sites"] if trace else [],
        "env": run.reps[0]["env"],
        "measured_s": round(time.monotonic() - start, 3),
    }
    attempted = len(run.reps) + len(run.traced)
    return {"status": status, "metrics": metrics, "attempted": attempted,
            "failed": min(run.failed, attempted), "correct": not run.problems}


def seed_arg(text: str) -> int:
    seed = int(text)
    if seed < 0:  # numpy's SeedSequence takes non-negative integers only
        raise argparse.ArgumentTypeError("the seed must be non-negative")
    return seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=seed_arg, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "pimi_lab" / "cli.py").is_file():
        print(f"error: no pimi-lab source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for name, res in results.items():
        prefix = f"{name}/" if len(names) > 1 else ""
        for key, (value, unit) in res["metrics"].items():
            print(f"{prefix + key:56s} {value:>16.6g} {unit}")
            metrics[prefix + key] = {"value": value, "unit": unit}
        if not args.trace:
            print(f"{prefix + 'wall_s (raw, not rescaled; not gated)':56s} "
                  f"{res['status']['wall_s']:>16.6g} s")
        print(json.dumps({"status": res["status"]}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
