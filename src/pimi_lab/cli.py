"""Command-line interface: one batch tool with subcommands composing the
generate / oracle / solve / ccts / mimo-ber / flip-rate / report stages,
plus `experiment` to run a whole manifest.

Exit codes: 0 success, 2 invalid configuration or input file, 3 numeric failure
(a singular linear solve), 4 unsolved landscape.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .core import ConfigError, reading
from .harness import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_UNSOLVED,
    FLAG_READERS,
    default_workers,
    load_manifest,
    read_value,
    run_experiment,
    stage_ccts,
    stage_flip_rate,
    stage_generate,
    stage_mimo_ber,
    stage_oracle,
    stage_solve,
    summarize,
)
from .instances import Family
from .metrics import CostModelKind
from .mimo import SUPPORTED_QAM_ORDERS
from .oracle import OracleMethod
from .solvers import Quantization, SolverKind


def _add_generate(sub):
    p = sub.add_parser("generate", help="generate benchmark instances")
    p.add_argument("--family", choices=[f.value for f in Family], required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--count", default="1")
    p.add_argument("--seed", default="0")
    p.add_argument("--edge-prob", default="0.5")
    p.add_argument("--out", required=True, help="output directory")


def _add_oracle(sub):
    p = sub.add_parser("oracle", help="compute ground-truth energies")
    p.add_argument("--method", choices=[m.value for m in OracleMethod],
                   required=True)
    p.add_argument("--in", dest="in_dir", required=True,
                   help="directory of instance JSON files")
    p.add_argument("--out", required=True, help="gs.json output path")
    p.add_argument("--seed", default="0")
    p.add_argument("--restarts", default=None)


def _add_solve(sub):
    p = sub.add_parser("solve", help="run solver trials over instances")
    p.add_argument("--kind", choices=[k.value for k in SolverKind], required=True)
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--schedule", required=True,
                   help="family name (maxcut|sk1|mimo) or a JSON file "
                        '{"family": ..., "params": {...}}')
    p.add_argument("--steps", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--seed", default="0")
    p.add_argument("--workers", default=None)
    p.add_argument("--quantized", default=None, help="fixed-point format, e.g. q16.4")
    p.add_argument("--tanh-levels", default="4")
    p.add_argument("--record-trajectory", action="store_true",
                   help="keep per-step energies in the records")
    p.add_argument("--record-states", action="store_true",
                   help="keep per-step spin states (needed by flip-rate)")
    p.add_argument("--out", required=True, help="records JSONL output path")


def _add_ccts(sub):
    p = sub.add_parser("ccts", help="cycles-to-solution landscape from records")
    p.add_argument("--records", required=True)
    p.add_argument("--ground", required=True)
    p.add_argument("--model", choices=[k.value for k in CostModelKind],
                   required=True)
    p.add_argument("--grid", required=True,
                   help="step budgets: start:stop:step (inclusive) or comma list")
    p.add_argument("--threshold-fraction", default="0.999")
    p.add_argument("--epsilon", default="0.001")
    p.add_argument("--out", required=True)


def _add_mimo_ber(sub):
    p = sub.add_parser("mimo-ber", help="detection BER sweep")
    p.add_argument("--nt", required=True)
    p.add_argument("--nr", required=True)
    p.add_argument("--qam", required=True, help=f"one of {SUPPORTED_QAM_ORDERS}")
    p.add_argument("--ebn0", required=True,
                   help="Eb/N0 in dB: start:stop:step (inclusive) or comma list")
    p.add_argument("--scenarios", required=True)
    p.add_argument("--detector", action="append", required=True,
                   choices=["mmse"] + [k.value for k in SolverKind],
                   help="repeat for several detectors")
    p.add_argument("--trials", default="32")
    p.add_argument("--steps", default=None)
    p.add_argument("--quantized", default=None)
    p.add_argument("--tanh-levels", default="4")
    p.add_argument("--seed", default="0")
    p.add_argument("--out", required=True)


def _add_flip_rate(sub):
    p = sub.add_parser("flip-rate", help="neighbor-triggered flip rate from records")
    p.add_argument("--records", required=True,
                   help="records JSONL with state trajectories")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", required=True)


def _add_report(sub):
    p = sub.add_parser("report", help="summarize an experiment archive")
    p.add_argument("--archive", required=True)
    p.add_argument("--out", default=None)


def _add_experiment(sub):
    p = sub.add_parser("experiment", help="run a manifest end to end")
    p.add_argument("--manifest", required=True)
    p.add_argument("--workers", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pimi-lab")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate(sub)
    _add_oracle(sub)
    _add_solve(sub)
    _add_ccts(sub)
    _add_mimo_ber(sub)
    _add_flip_rate(sub)
    _add_report(sub)
    _add_experiment(sub)
    return parser


def _instance_files(in_dir: str) -> list[Path]:
    root = Path(in_dir)
    if root.is_file():
        return [root]
    files = sorted(root.glob("*.json"))
    if not files:
        raise ConfigError(f"no instance files found under {in_dir}")
    return files


def _cmd_generate(args) -> int:
    stage_generate(Family(args.family), [args.n], args.count, args.seed,
                   Path(args.out), edge_prob=args.edge_prob)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    kwargs = {}
    if args.restarts is not None:
        kwargs["restarts"] = args.restarts
    stage_oracle(_instance_files(args.in_dir), OracleMethod(args.method),
                 Path(args.out), seed=args.seed, **kwargs)
    return EXIT_OK


def _cmd_solve(args) -> int:
    files = _instance_files(args.in_dir)
    quant = Quantization(args.quantized, args.tanh_levels) if args.quantized else None
    family, overrides = args.schedule, None
    if family.endswith(".json"):
        with open(family) as f, reading(family):
            spec = json.load(f)
            family, overrides = str(spec["family"]), dict(spec.get("params") or {})
    stage_solve(files, SolverKind(args.kind), family, args.steps, args.trials,
                args.seed, Path(args.out), workers=args.workers or default_workers(),
                quantization=quant, schedule_overrides=overrides,
                record_trajectory=args.record_trajectory,
                record_states=args.record_states)
    return EXIT_OK


def _cmd_ccts(args) -> int:
    landscape = stage_ccts(args.records, args.ground, CostModelKind(args.model),
                           args.grid, Path(args.out),
                           threshold_fraction=args.threshold_fraction,
                           epsilon=args.epsilon)
    return EXIT_OK if landscape.solved else EXIT_UNSOLVED


def _cmd_mimo_ber(args) -> int:
    stage_mimo_ber({**vars(args), "detectors": args.detector}, args.seed, Path(args.out))
    return EXIT_OK


def _cmd_flip_rate(args) -> int:
    stage_flip_rate(args.records, args.instance, Path(args.out))
    return EXIT_OK


def _cmd_report(args) -> int:
    text = summarize(args.archive, args.out)
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    return run_experiment(load_manifest(args.manifest),
                          workers=args.workers or default_workers())


_HANDLERS = {
    "generate": _cmd_generate,
    "oracle": _cmd_oracle,
    "solve": _cmd_solve,
    "ccts": _cmd_ccts,
    "mimo-ber": _cmd_mimo_ber,
    "flip-rate": _cmd_flip_rate,
    "report": _cmd_report,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for key, raw in list(vars(args).items()):
            if key in FLAG_READERS:
                flag = "--" + key.replace("_", "-")
                setattr(args, key, read_value(flag, FLAG_READERS[key], raw, "flag"))
        return _HANDLERS[args.command](args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except np.linalg.LinAlgError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
