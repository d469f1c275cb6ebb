"""One measured step of the pimi-lab benchmark, run in a fresh interpreter.

    python3 perfbench/child.py setup MANIFEST
        Print, as JSON, the seconds taken to import pimi_lab.cli and load
        MANIFEST, and the vCPU speed measured around it (loop_speed).

    python3 perfbench/child.py run MANIFEST RESULT_JSON [SPANS_NPZ]
        Run `pimi_lab.cli.main(["experiment", ...])` with one worker and
        write its exit code (or its traceback, if it raised), wall and CPU
        time, the vCPU speed sampled during the run (SpeedProbe), peak RSS,
        archive hash and environment to RESULT_JSON. With SPANS_NPZ the run
        is traced: every call into the public functions listed in SITES
        becomes a span, the spans are kept in memory and written to
        SPANS_NPZ at the end, and per-function totals, self times and work
        counts go into RESULT_JSON.

The tracer wraps functions from outside the program, at the module
attribute where the caller looks the name up; nothing in the package
changes. The caller (perfbench/run.py) puts the package's `src` directory
on PYTHONPATH.
"""

from __future__ import annotations

import inspect
import json
import os
import resource
import signal
import sys
import time
import traceback
from array import array
from collections import defaultdict

# (module where the caller looks the name up, attribute, span name)
SITES = [
    ("harness", "stage_generate", "harness.stage_generate"),
    ("harness", "stage_oracle", "harness.stage_oracle"),
    ("harness", "stage_solve", "harness.stage_solve"),
    ("harness", "stage_ccts", "harness.stage_ccts"),
    ("harness", "stage_flip_rate", "harness.stage_flip_rate"),
    ("harness", "stage_mimo_ber", "harness.stage_mimo_ber"),
    ("harness", "generate", "instances.generate"),
    ("harness", "solve_ground_truth", "oracle.solve_ground_truth"),
    ("harness", "run_batch", "solvers.run_batch"),
    ("mimo", "run_batch", "solvers.run_batch"),
    ("solvers", "trial_setup", "solvers.trial_setup"),
    ("solvers", "quantize", "quantize.quantize"),
    ("solvers", "lut_tanh", "quantize.lut_tanh"),
    ("harness", "write_records_jsonl", "core.write_records_jsonl"),
    ("harness", "read_records_jsonl", "core.read_records_jsonl"),
    ("harness", "success_curve", "metrics.success_curve"),
    ("harness", "optimize_step_budget", "metrics.optimize_step_budget"),
    ("harness", "neighbor_triggered_flip_rate",
     "metrics.neighbor_triggered_flip_rate"),
    ("mimo", "detect", "mimo.detect"),
    ("mimo", "mmse_detect", "mimo.mmse_detect"),
    ("mimo", "build_dimimo", "mimo.build_dimimo"),
    ("harness", "gen_scenario", "mimo.gen_scenario"),
    ("mimo", "symbols_to_bits", "mimo.symbols_to_bits"),
]

SPAN_NAMES = ["cli.main"] + sorted({name for _, _, name in SITES})
_NAME_ID = {name: i for i, name in enumerate(SPAN_NAMES)}


class Tracer:
    """In-memory spans (name, start, end, parent, run id) plus work counts
    taken at the same boundaries."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []

    def call(self, name: str, fn, args=(), kwargs=None, hook=None):
        kwargs = kwargs or {}
        idx = len(self.start)
        self.name_id.append(_NAME_ID[name])
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        t0 = time.perf_counter()
        self.start.append(t0)
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.end[idx] = t1
            self.stack.pop()
        if hook is not None:
            hook(self.counts, args, kwargs, out, t1 - t0)
        return out

    def wrap(self, module, attr: str, name: str, hook=None):
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return

        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)

        setattr(module, attr, traced)

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds (the
        span's duration minus the part its child spans cover)."""
        import numpy as np

        names = np.frombuffer(self.name_id, dtype=np.uint16)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_dur = dur - covered
        k = len(SPAN_NAMES)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_dur, minlength=k)
        return {name: {"calls": int(calls[i]), "s": float(total[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(SPAN_NAMES)}

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(path, names=np.array(SPAN_NAMES),
                 name_id=np.frombuffer(self.name_id, dtype=np.uint16),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 run_id=np.int64(self.run_id))


def install_hooks(tracer: Tracer) -> None:
    """Wrap every site in SITES; the hooks count work where it happens."""
    import numpy as np
    from pimi_lab import harness, mimo, solvers

    batch_sig = inspect.signature(solvers.run_batch)

    def on_run_batch(counts, args, kwargs, out, dt):
        a = batch_sig.bind(*args, **kwargs)
        a.apply_defaults()
        p = a.arguments
        instances = list(p["instances"])
        n = instances[0].n if instances else 0
        kind = p["kind"]
        parallel = kind is not solvers.SolverKind.CONV_SEQUENTIAL
        quant = p["quantization"]
        mode = "float" if quant is None else quant.fmt.name.replace(".", "_")
        updates = len(instances) * p["n_trials"] * p["sched"].t_steps * (
            n if parallel else 1)
        key = f"solvers.{kind.value}.{mode}.n{n}"
        counts[key + ".updates"] += updates
        counts[key + ".s"] += dt
        counts["solvers.spin_updates"] += updates
        # computed, not measured: the whole-trial noise table of one trial
        counts["solvers.noise_bytes"] += updates * 8

    def on_oracle(counts, args, kwargs, out, dt):
        effort = out.effort
        method = out.method.value
        if method == "sa":
            steps = effort["flips_per_temp"] * effort["stages"]
            counts["oracle.sa.s"] += dt
            counts["oracle.sa.steps"] += steps
            counts["oracle.proposals"] += steps * effort["restarts"]
        elif method == "bls":
            counts["oracle.bls.s"] += dt
            counts["oracle.bls.cycles"] += effort["cycles"]
            counts["oracle.proposals"] += effort["cycles"] * effort["restarts"]

    def on_quantize(counts, args, kwargs, out, dt):
        counts["quantize.elements"] += np.size(args[0])

    def on_records(counts, args, kwargs, out, dt):
        path = args[0] if args else kwargs["path"]
        counts["core.records_bytes"] += os.path.getsize(path)

    def on_detect(counts, args, kwargs, out, dt):
        config = args[1]
        if config.kind != "mmse":
            counts["mimo.detect.solver_calls"] += 1
            counts["mimo.detect.solver_s"] += dt
            counts["mimo.detect.changed"] += int(
                not np.array_equal(out.symbols, out.mmse.symbols))

    hooks = {
        "solvers.run_batch": on_run_batch,
        "oracle.solve_ground_truth": on_oracle,
        "quantize.quantize": on_quantize,
        "core.write_records_jsonl": on_records,
        "core.read_records_jsonl": on_records,
        "mimo.detect": on_detect,
    }
    modules = {"harness": harness, "mimo": mimo, "solvers": solvers}
    for module, attr, name in SITES:
        tracer.wrap(modules[module], attr, name, hooks.get(name))


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "workers": 1,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class SpeedProbe:
    """How fast this vCPU runs while the program runs. A timer signal every
    PERIOD_S seconds times one fixed small computation (a Python loop and
    small numpy calls, like the program's own mix) in the main thread; the
    mean of 1/duration over the run is the vCPU's mean speed. The benchmark
    divides wall time by it, because on a shared host the same vCPU runs the
    same code up to 40% slower for stretches of seconds to minutes."""

    PERIOD_S = 0.05

    def __init__(self):
        import numpy as np

        self.np = np
        self.x = np.linspace(-1.0, 1.0, 64)
        self.samples: list[float] = []

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        total = 0
        for i in range(1500):
            total += i
        x = self.x
        for _ in range(40):
            x = self.np.tanh(x * 0.5) + 0.1
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> float:
        """Stop sampling; return the mean speed in probe runs per second."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self.speed()

    def speed(self) -> float:
        if not self.samples:
            self._tick()
        return sum(1.0 / d for d in self.samples) / len(self.samples)


def loop_speed(runs: int = 10) -> float:
    """The vCPU's speed, in runs per second, of a fixed pure-Python loop of
    about 1 ms. The import is too short for SpeedProbe's timer and must not
    find numpy already loaded, so setup_s is rescaled by this loop, run just
    before and just after the import."""
    speed = 0.0
    for _ in range(runs):
        t0 = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i
        speed += 1.0 / (time.perf_counter() - t0)
    return speed / runs


def cmd_setup(manifest: str) -> None:
    loop_speed(2)  # warm-up
    before = loop_speed()
    t0 = time.perf_counter()
    import pimi_lab.cli  # noqa: F401
    from pimi_lab.harness import load_manifest

    load_manifest(manifest)
    setup = time.perf_counter() - t0
    after = loop_speed()
    print(json.dumps({"setup_s": setup, "probe_speed": (before + after) / 2}))


def cmd_run(manifest: str, result_path: str, spans_path: str | None) -> None:
    from pimi_lab import cli, harness
    from pimi_lab.harness import load_manifest

    argv = ["experiment", "--manifest", manifest, "--workers", "1"]
    tracer = None
    if spans_path is not None:
        tracer = Tracer(run_id=os.getpid())
        install_hooks(tracer)
    probe = SpeedProbe()
    probe.start()
    error = None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            rc = cli.main(argv)
        else:
            rc = tracer.call("cli.main", cli.main, (argv,))
    except (Exception, SystemExit):
        # a crash of the program is a failed repetition, not a harness fault
        rc, error = None, traceback.format_exc(limit=-3)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    speed = probe.stop()
    # taken before hashing, which reads the archive back
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        digest = harness.archive_hash(load_manifest(manifest).out_dir)
    except OSError as exc:
        digest, error = None, error or f"archive_hash: {exc}"
    result = {
        "rc": rc,
        "error": error,
        "wall_s": wall,
        "cpu_s": cpu,
        "probe_speed": speed,
        "probe_samples": len(probe.samples),
        "peak_rss_mb": peak_rss_mb,
        "hash": digest,
        "env": environment(),
    }
    if tracer is not None:
        tracer.save(spans_path)
        result["spans"] = tracer.totals()
        result["counts"] = dict(tracer.counts)
        result["untraced_sites"] = tracer.missing
    with open(result_path, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        cmd_setup(sys.argv[2])
    elif mode == "run":
        cmd_run(sys.argv[2], sys.argv[3], sys.argv[4] if len(sys.argv) > 4 else None)
    else:
        sys.exit(f"unknown mode {mode!r}")
