import csv
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimi_lab import harness
from pimi_lab.cli import build_parser, main
from pimi_lab.core import ConfigError
from pimi_lab.harness import (
    _SCHEMA,
    archive_hash,
    default_workers,
    parse_manifest_text,
    parse_sweep,
    run_experiment,
    stage_ccts,
    stage_flip_rate,
    stage_generate,
    stage_oracle,
    stage_solve,
    summarize,
)
from pimi_lab.instances import Family
from pimi_lab.metrics import CostModelKind, log_space_std
from pimi_lab.mimo import gen_scenario
from pimi_lab.oracle import OracleMethod
from pimi_lab.solvers import SolverKind


MANIFEST = """\
schema_version = 1
family = maxcut-bench
seed = 11
sizes = 8
instances = 4
trials = 16
steps_per_spin = 25
solvers = pimi,conv-seq
oracle = exhaustive
grid_step = 50
"""


# one small manifest per family; each runs to exit 0 or 4 as written
_GOOD_MANIFESTS = {
    "maxcut-bench": MANIFEST + "edge_prob = 0.5\n",
    "sk-bench": MANIFEST.replace("maxcut-bench", "sk-bench"),
    "mimo-ber": "schema_version = 1\nfamily = mimo-ber\nseed = 5\nnt = 2\nqam = 4\n"
                "ebn0 = 4\nscenarios = 2\ndetectors = mmse,pimi\ntrials = 4\n"
                "steps = 8\nquantized = q16.4\ntanh_levels = 4\n",
    "flip-rate": "schema_version = 1\nfamily = flip-rate\nseed = 9\nproblem = maxcut\n"
                 "n = 8\ntrials = 4\nsteps = 20\nxi = 0.0,0.9\neta = 0.1\n",
}


def _bad(family, key, line):
    # maxcut-bench cases keep their bare "key-line" ids, which are older
    # than the other families' cases
    prefix = "" if family == "maxcut-bench" else f"{family}-"
    return pytest.param(family, key, line, id=f"{prefix}{key}-{line}")


class TestManifest:
    def test_parse_round_trip(self):
        m = parse_manifest_text(MANIFEST + "out = /tmp/x\n")
        assert m.family == "maxcut-bench"
        assert m.seed == 11
        assert m.options["sizes"] == "8"
        # canonical text excludes the output path, so identical pipelines
        # hash identically regardless of where the archive lands
        again = parse_manifest_text(m.canonical_text(), out_dir="/elsewhere")
        assert again.content_hash() == m.content_hash()

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            parse_manifest_text(MANIFEST + "out = /tmp/x\nbogus = 1\n")

    def test_rejects_missing_schema(self):
        with pytest.raises(ConfigError):
            parse_manifest_text("family = maxcut-bench\nseed = 1\nout = x\n")

    def test_rejects_bad_family(self):
        with pytest.raises(ConfigError):
            parse_manifest_text("schema_version = 1\nfamily = nope\nseed = 1\nout = x\n")

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigError):
            parse_manifest_text(MANIFEST + "out = a\nout = b\n")

    def test_comments_and_blanks_ignored(self):
        m = parse_manifest_text("# hello\n\n" + MANIFEST + "out = /tmp/y  # trailing\n")
        assert m.out_dir == "/tmp/y"

    def test_workers_env(self, monkeypatch):
        monkeypatch.setenv("PIMI_LAB_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.setenv("PIMI_LAB_WORKERS", "zero")
        with pytest.raises(ConfigError):
            default_workers()

    @pytest.mark.parametrize("family", sorted(_GOOD_MANIFESTS))
    def test_good_manifests_run(self, tmp_path, family):
        text = _GOOD_MANIFESTS[family] + f"out = {tmp_path / 'run'}\n"
        assert run_experiment(parse_manifest_text(text)) in (0, 4)
        assert (tmp_path / "run" / "stamp.json").exists()

    @pytest.mark.parametrize("family, key, line", [
        _bad(family, key, line) for family, key, line in [
            ("maxcut-bench", "seed", "seed = x"),
            ("maxcut-bench", "schema_version", "schema_version = one"),
            ("maxcut-bench", "trials", "trials = abc"),
            ("maxcut-bench", "threshold_fraction", "threshold_fraction = high"),
            ("maxcut-bench", "sizes", "sizes = 8,nine"),
            ("maxcut-bench", "oracle", "oracle = guess"),
            ("maxcut-bench", "grid_step", "grid_step = 0"),
            ("maxcut-bench", "trials", "trials = 0"),
            ("maxcut-bench", "steps_per_spin", "steps_per_spin = 0"),
            ("maxcut-bench", "instances", "instances = 0"),
            ("maxcut-bench", "sizes", "sizes = ,"),
            ("maxcut-bench", "solvers", "solvers = ,"),
            ("maxcut-bench", "seed", "seed = -1"),
            ("maxcut-bench", "edge_prob", "edge_prob = 1.5"),
            ("maxcut-bench", "threshold_fraction", "threshold_fraction = 2"),
            ("maxcut-bench", "epsilon", "epsilon = 1"),
            # sizes = 8 and steps_per_spin = 25: one budget, 150, up to 200
            ("maxcut-bench", "grid_step", "grid_step = 150"),
            # oracle = exhaustive, which stops at N = 24
            ("maxcut-bench", "sizes", "sizes = 6,26"),
            ("sk-bench", "trials", "trials = 0"),
            ("sk-bench", "oracle", "oracle = guess"),
            ("mimo-ber", "detectors", "detectors = ,"),
            ("mimo-ber", "ebn0", "ebn0 = 1:0:1"),
            ("mimo-ber", "qam", "qam = 5"),
            ("mimo-ber", "quantized", "quantized = q16"),
            ("mimo-ber", "tanh_levels", "tanh_levels = 1"),
            ("flip-rate", "trials", "trials = 0"),
            ("flip-rate", "xi", "xi = ,"),
            ("flip-rate", "xi", "xi = 0.0,-1"),
            ("flip-rate", "eta", "eta = -1"),
            ("flip-rate", "problem", "problem = ising"),
        ]
    ])
    def test_malformed_value_exit_code(self, tmp_path, capsys, family, key, line):
        lines = [ln for ln in _GOOD_MANIFESTS[family].splitlines()
                 if not ln.startswith(key + " ")]
        path = tmp_path / "bad.manifest"
        out = tmp_path / "run"
        path.write_text("\n".join(lines + [line, f"out = {out}"]) + "\n")
        assert main(["experiment", "--manifest", str(path)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


# well-formed tokens, and ones float() rejects or that are not finite
_NUMBERS = st.integers(-50, 50).map(str) | st.sampled_from(["0.5", "-1e1", "2."])
_NON_NUMBERS = st.sampled_from(["", "x", "1e", "--1", "0x10", "nan", "inf", "1 2"])


@st.composite
def malformed_sweeps(draw):
    kind = draw(st.sampled_from(["parts", "non-number", "step", "reversed"]))
    if kind == "parts":
        parts = draw(st.lists(_NUMBERS, min_size=2, max_size=5)
                     .filter(lambda p: len(p) != 3))
        return ":".join(parts)
    if kind == "non-number":
        parts = draw(st.lists(_NUMBERS, max_size=3))
        parts.insert(draw(st.integers(0, len(parts))), draw(_NON_NUMBERS))
        return draw(st.sampled_from([":", ","])).join(parts)
    start, stop = sorted(draw(st.lists(st.integers(-50, 50), min_size=2, max_size=2)))
    if kind == "step":
        return f"{start}:{stop}:{draw(st.sampled_from(['0', '-1', '-0.5', '0.0']))}"
    return f"{stop + 1}:{start}:1"


class TestSweepGrammar:
    @pytest.mark.parametrize("spec, expected", [
        ("50:150:50", [50.0, 100.0, 150.0]),
        ("0:24:4", [0.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0]),
        ("0:1:0.1", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]),
        ("10, 14", [10.0, 14.0]),
        ("7", [7.0]),
    ])
    def test_values(self, spec, expected):
        assert parse_sweep(spec) == expected

    @pytest.fixture(scope="class")
    def scratch(self, tmp_path_factory):
        return tmp_path_factory.mktemp("sweeps")

    @given(spec=malformed_sweeps())
    @settings(max_examples=60, deadline=None)
    def test_malformed_sweeps_exit_2(self, scratch, spec):
        with pytest.raises(ConfigError):
            parse_sweep(spec)
        assert main(["ccts", "--records", str(scratch / "rec.jsonl"),
                     "--ground", str(scratch / "gs.json"), "--model", "pimi",
                     f"--grid={spec}", "--out", str(scratch / "l.csv")]) == 2
        assert main(["mimo-ber", "--nt", "2", "--nr", "2", "--qam", "4",
                     f"--ebn0={spec}", "--scenarios", "1", "--detector", "mmse",
                     "--out", str(scratch / "ber.csv")]) == 2
        assert not any(scratch.iterdir())

    def test_cli_and_manifest_parse_one_spec_alike(self, tmp_path):
        spec = "0:1:0.1"
        assert main(["mimo-ber", "--nt", "2", "--nr", "2", "--qam", "4",
                     "--ebn0", spec, "--scenarios", "1", "--detector", "mmse",
                     "--out", str(tmp_path / "cli.csv")]) == 0
        text = ("schema_version = 1\nfamily = mimo-ber\nseed = 0\n"
                f"out = {tmp_path / 'run'}\nnt = 2\nqam = 4\nebn0 = {spec}\n"
                "scenarios = 1\ndetectors = mmse\n")
        assert run_experiment(parse_manifest_text(text)) == 0

        def points(path):
            with open(path, newline="") as f:
                return [row["ebn0_db"] for row in csv.DictReader(f)]

        assert points(tmp_path / "cli.csv") == points(tmp_path / "run" / "ber.csv")
        assert points(tmp_path / "cli.csv") == [repr(v) for v in parse_sweep(spec)]

    def test_negative_ebn0_point(self, tmp_path, monkeypatch):
        # m = round(1000 ebn0): point m >= 0 seeds its scenarios from
        # SeedSequence([seed, m]), point m < 0 from the spawn key (1,)
        # child of SeedSequence([seed, -m])
        seen = {}

        def spy(nt, nr, qam, ebn0, seed):
            seen.setdefault(ebn0, []).append(seed)
            return gen_scenario(nt, nr, qam, ebn0, seed)

        monkeypatch.setattr(harness, "gen_scenario", spy)

        def cli(ebn0, name):
            assert main(["mimo-ber", "--nt", "2", "--nr", "2", "--qam", "4",
                         f"--ebn0={ebn0}", "--scenarios", "2", "--detector", "pimi",
                         "--trials", "2", "--seed", "3",
                         "--out", str(tmp_path / name)]) == 0
            with open(tmp_path / name, newline="") as f:
                return list(csv.DictReader(f))

        both = cli("-2,0", "both.csv")
        assert [row["ebn0_db"] for row in both] == ["-2.0", "0.0"]
        assert both[1:] == cli("0", "zero.csv")
        cli("2", "plus.csv")
        child = np.random.SeedSequence([3, 2000], spawn_key=(1,))
        assert seen[-2.0] == child.generate_state(2, np.uint64).tolist()
        root = np.random.SeedSequence([3, 2000])
        assert seen[2.0] == root.generate_state(2, np.uint64).tolist()
        assert not set(seen[-2.0]) & set(seen[2.0])

        text = ("schema_version = 1\nfamily = mimo-ber\nseed = 3\n"
                f"out = {tmp_path / 'run'}\nnt = 2\nqam = 4\nebn0 = -2,0\n"
                "scenarios = 2\ndetectors = pimi\ntrials = 2\n")
        assert run_experiment(parse_manifest_text(text)) == 0
        with open(tmp_path / "run" / "ber.csv", newline="") as f:
            assert list(csv.DictReader(f)) == both

    def test_default_ebn0_sweep_covers_0_to_24_db(self, tmp_path):
        text = ("schema_version = 1\nfamily = mimo-ber\nseed = 0\n"
                f"out = {tmp_path / 'run'}\nnt = 2\nqam = 4\n"
                "scenarios = 1\ndetectors = mmse\n")
        assert run_experiment(parse_manifest_text(text)) == 0
        with open(tmp_path / "run" / "ber.csv", newline="") as f:
            points = [float(row["ebn0_db"]) for row in csv.DictReader(f)]
        assert points == [0.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0]


class TestStages:
    def test_generate_files_named_by_contract(self, tmp_path):
        paths = stage_generate(Family.MAXCUT_ER, [6], 3, 5, tmp_path / "inst")
        names = [p.name for p in paths]
        assert names == ["maxcut_n6_i0.json", "maxcut_n6_i1.json", "maxcut_n6_i2.json"]
        payload = json.loads(paths[0].read_text())
        assert "edge_count" in payload

    def test_oracle_stage_maps_filenames(self, tmp_path):
        paths = stage_generate(Family.SK_ONE, [6], 2, 1, tmp_path / "inst")
        gs = stage_oracle(paths, OracleMethod.EXHAUSTIVE, tmp_path / "gs.json")
        on_disk = json.loads((tmp_path / "gs.json").read_text())
        assert set(on_disk) == {"sk1_n6_i0.json", "sk1_n6_i1.json"}
        assert on_disk["sk1_n6_i0.json"]["method"] == "exhaustive"
        assert gs["sk1_n6_i0.json"]["energy"] <= 0

    def test_solve_stage_without_instances_makes_its_directory(self, tmp_path):
        out = tmp_path / "new" / "records.jsonl"
        stage_solve([], SolverKind.PIMI, "maxcut", 20, 2, 3, out)
        assert out.read_text() == ""

    def test_solve_and_ccts_stages(self, tmp_path):
        paths = stage_generate(Family.MAXCUT_ER, [8], 3, 2, tmp_path / "inst")
        gs_path = tmp_path / "gs.json"
        stage_oracle(paths, OracleMethod.EXHAUSTIVE, gs_path)
        records_path = tmp_path / "records.jsonl"
        stage_solve(paths, SolverKind.PIMI, "maxcut", 200, 8, 3, records_path)
        landscape = stage_ccts(records_path, gs_path, CostModelKind.PIMI,
                               [50, 100, 150, 200], tmp_path / "landscape.csv")
        with open(tmp_path / "landscape.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [int(r["T_steps"]) for r in rows] == [50, 100, 150, 200]
        p = [float(r["p_mean"]) for r in rows]
        assert all(b >= a for a, b in zip(p, p[1:]))
        assert landscape.solved

    def test_ccts_missing_ground_truth_flagged(self, tmp_path):
        paths = stage_generate(Family.MAXCUT_ER, [6], 1, 2, tmp_path / "inst")
        records_path = tmp_path / "records.jsonl"
        stage_solve(paths, SolverKind.PIMI, "maxcut", 100, 4, 3, records_path)
        (tmp_path / "gs.json").write_text("{}")
        with pytest.raises(ConfigError):
            stage_ccts(records_path, tmp_path / "gs.json", CostModelKind.PIMI,
                       [50, 100], tmp_path / "l.csv")


class TestExperiments:
    def bench_manifest(self, out):
        return parse_manifest_text(MANIFEST + f"out = {out}\n")

    def test_maxcut_bench_end_to_end(self, tmp_path):
        m = self.bench_manifest(tmp_path / "run")
        status = run_experiment(m, workers=1)
        assert status == 0
        out = tmp_path / "run"
        assert (out / "stamp.json").exists()
        assert (out / "landscape_pimi_n8.csv").exists()
        assert (out / "landscape_conv-seq_n8.csv").exists()
        stamp = json.loads((out / "stamp.json").read_text())
        assert stamp["manifest_hash"] == m.content_hash()

    def test_rerun_is_byte_identical(self, tmp_path):
        m1 = self.bench_manifest(tmp_path / "a")
        m2 = self.bench_manifest(tmp_path / "b")
        run_experiment(m1, workers=1)
        run_experiment(m2, workers=1)
        h1 = archive_hash(tmp_path / "a")
        h2 = archive_hash(tmp_path / "b")
        assert h1 == h2

    def test_workers_do_not_change_archive(self, tmp_path):
        m1 = self.bench_manifest(tmp_path / "w1")
        m4 = self.bench_manifest(tmp_path / "w4")
        run_experiment(m1, workers=1)
        run_experiment(m4, workers=4)
        assert archive_hash(tmp_path / "w1") == archive_hash(tmp_path / "w4")

    @pytest.mark.parametrize("text", [
        MANIFEST.replace("solvers = pimi,conv-seq", "solvers = pimi,conv-bogus"),
        "schema_version = 1\nfamily = mimo-ber\nseed = 5\nnt = 2\nqam = 4\n"
        "scenarios = 4\ndetectors = mmse,bogus\n",
    ], ids=["solvers", "detectors"])
    def test_unknown_solver_name_rejected(self, tmp_path, text):
        with pytest.raises(ConfigError, match="bogus"):
            run_experiment(parse_manifest_text(text + f"out = {tmp_path / 'run'}\n"),
                           workers=1)

    def test_mimo_ber_family(self, tmp_path):
        text = (
            "schema_version = 1\nfamily = mimo-ber\nseed = 5\n"
            f"out = {tmp_path/'mimo'}\n"
            "nt = 2\nnr = 2\nqam = 4\nebn0 = 4,12\nscenarios = 60\n"
            "detectors = mmse,pimi\ntrials = 8\nsteps = 16\n"
        )
        status = run_experiment(parse_manifest_text(text), workers=1)
        assert status == 0
        with open(tmp_path / "mimo" / "ber.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 4  # 2 SNRs x 2 detectors
        by = {(r["ebn0_db"], r["detector"]): float(r["ber"]) for r in rows}
        assert by[("12.0", "mmse")] <= by[("4.0", "mmse")]

    def test_flip_rate_family(self, tmp_path):
        text = (
            "schema_version = 1\nfamily = flip-rate\nseed = 9\n"
            f"out = {tmp_path/'fr'}\n"
            "n = 12\ntrials = 8\nsteps = 60\nxi = 0.0,0.9\n"
        )
        status = run_experiment(parse_manifest_text(text), workers=1)
        assert status == 0
        with open(tmp_path / "fr" / "pnt_summary.csv", newline="") as f:
            rows = {r["xi"]: float(r["mean_p_nt"]) for r in csv.DictReader(f)}
        assert rows["0.9"] < rows["0.0"]

    def test_flip_rate_without_neighbour_flips_warns_nothing(self, tmp_path):
        # at xi = 0.9 no step of this short SK-1 run has a neighbour flip:
        # its mean stays an empty cell, and no "Mean of empty slice" shows
        text = ("schema_version = 1\nfamily = flip-rate\nseed = 0\n"
                f"out = {tmp_path / 'fr'}\n"
                "problem = sk1\nn = 8\ntrials = 4\nsteps = 20\nxi = 0.0,0.9\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_experiment(parse_manifest_text(text)) == 0
        with open(tmp_path / "fr" / "pnt_summary.csv", newline="") as f:
            rows = {r["xi"]: r["mean_p_nt"] for r in csv.DictReader(f)}
        assert rows["0.9"] == ""
        assert float(rows["0.0"]) > 0.0

    @pytest.mark.parametrize("drive", ["fixed", "annealed"])
    def test_flip_rate_family_pnt_matches_stage(self, tmp_path, drive):
        # the family computes P_NT from its records in memory; the flip-rate
        # stage, run on the archived trajectories, must write the same bytes
        text = _GOOD_MANIFESTS["flip-rate"]
        if drive == "annealed":
            text = ("schema_version = 1\nfamily = flip-rate\nseed = 9\n"
                    "n = 12\ntrials = 8\nsteps = 60\nxi = 0.0,0.9\n")
        run = tmp_path / "run"
        assert run_experiment(parse_manifest_text(text + f"out = {run}\n")) == 0
        instance = next((run / "instances").glob("*.json"))
        for xi in ("0.0", "0.9"):
            stage_flip_rate(run / f"traj_xi{xi}.jsonl", instance, tmp_path / "pnt.csv")
            assert ((tmp_path / "pnt.csv").read_bytes()
                    == (run / f"pnt_xi{xi}.csv").read_bytes())


class TestSummarize:
    def test_empty_archive(self, tmp_path):
        text = summarize(tmp_path)
        assert text == ""
        assert (tmp_path / "report.txt").read_text() == ""

    def test_bench_summary_has_speedup(self, tmp_path):
        m = parse_manifest_text(MANIFEST + f"out = {tmp_path/'run'}\n")
        run_experiment(m, workers=1)
        text = summarize(tmp_path / "run")
        assert "speedup conv-seq/pimi" in text
        with open(tmp_path / "run" / "summary.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert any(r["solver"] == "speedup-conv-seq/pimi" for r in rows)

    def test_log_space_std_hand_check(self, tmp_path):
        # spreadsheet-style check on three instances
        vals = [0.25, 0.5, 1.0]
        logs = [math.log10(v) for v in vals]
        mean = sum(logs) / 3
        byhand = math.sqrt(sum((l - mean) ** 2 for l in logs) / 3)
        assert log_space_std(vals) == pytest.approx(byhand)


def _solve(*flags, schedule="maxcut"):
    return ["solve", "--kind", "pimi", "--in", "{inst}", "--schedule", schedule,
            "--steps", "20", "--trials", "2", *flags, "--out", "{out}"]


def _ccts(records="{rec}", ground="{gs}"):
    return ["ccts", "--records", records, "--ground", ground, "--model", "pimi",
            "--grid", "10:20:10", "--out", "{out}"]


_MIMO = ["mimo-ber", "--nt", "2", "--nr", "2", "--qam", "4", "--ebn0", "4",
         "--scenarios", "1", "--detector", "mmse"]

# id -> (argv, what stderr must name); "{name}" stands for a path of the
# boundary_inputs fixture
_BAD_INPUTS = {
    "generate-seed": (["generate", "--family", "maxcut", "--n", "6", "--seed", "-1",
                       "--out", "{out}"], "--seed"),
    "oracle-seed": (["oracle", "--method", "sa", "--in", "{inst}", "--seed", "-1",
                     "--out", "{out}"], "--seed"),
    "oracle-exhaustive-restarts": (["oracle", "--method", "exhaustive", "--in", "{inst}",
                                    "--restarts", "5", "--out", "{out}"], "restarts"),
    "solve-seed": (_solve("--seed", "-1"), "--seed"),
    "mimo-ber-seed": (_MIMO + ["--seed", "-1", "--out", "{out}"], "--seed"),
    "schedule-missing": (_solve(schedule="{missing}"), "{missing}"),
    "schedule-not-json": (_solve(schedule="{not_json}"), "{not_json}"),
    "schedule-no-family": (_solve(schedule="{sched_no_family}"), "{sched_no_family}"),
    "schedule-non-numeric": (_solve(schedule="{sched_bad_param}"), "'xi'"),
    "schedule-unknown-param": (_solve(schedule="{sched_unknown_param}"), "'xii'"),
    "experiment-manifest-missing": (["experiment", "--manifest", "{missing}"],
                                    "{missing}"),
    "report-archive-missing": (["report", "--archive", "{out}"], "{out}"),
    "report-landscape-malformed": (["report", "--archive", "{archive}", "--out", "{out}"],
                                   "{landscape}"),
    "report-landscape-name": (["report", "--archive", "{archive_name}", "--out", "{out}"],
                              "{landscape_name}"),
    "report-ber-column": (["report", "--archive", "{archive_ber}", "--out", "{out}"],
                          "{ber}"),
    "report-pnt-column": (["report", "--archive", "{archive_pnt}", "--out", "{out}"],
                          "{pnt}"),
    "report-ber-short-row": (["report", "--archive", "{archive_ber_short}",
                              "--out", "{out}"], "{ber_short}"),
    "report-pnt-long-row": (["report", "--archive", "{archive_pnt_long}",
                             "--out", "{out}"], "{pnt_long}"),
    "report-landscape-header-only": (["report", "--archive", "{archive_header_only}",
                                      "--out", "{out}"], "{landscape_header_only}"),
    "ccts-records-missing": (_ccts(records="{missing}"), "{missing}"),
    "ccts-ground-missing": (_ccts(ground="{missing}"), "{missing}"),
    "flip-rate-records-missing": (["flip-rate", "--records", "{missing}", "--instance",
                                   "{inst}", "--out", "{out}"], "{missing}"),
    "instance-not-json": (["oracle", "--method", "sa", "--in", "{not_json}",
                           "--out", "{out}"], "{not_json}"),
    "instance-no-n": (["oracle", "--method", "sa", "--in", "{inst_no_n}",
                       "--out", "{out}"], "{inst_no_n}"),
    "records-not-json": (_ccts(records="{not_json}"), "{not_json}"),
    "records-no-best-step": (_ccts(records="{rec_no_best_step}"), "{rec_no_best_step}"),
    "records-no-instance": (_ccts(records="{rec_no_instance}"), "{rec_no_instance}"),
    "gs-not-json": (_ccts(ground="{not_json}"), "{not_json}"),
    "gs-no-energy": (_ccts(ground="{gs_no_energy}"), "{gs_no_energy}"),
    "generate-count-0": (["generate", "--family", "maxcut", "--n", "6", "--count", "0",
                          "--out", "{out}"], "--count"),
    "experiment-workers-0": (["experiment", "--manifest", "{flip}", "--workers", "0"],
                             "--workers"),
    "solve-tanh-levels-1": (_solve("--tanh-levels", "1"), "--tanh-levels"),
    "generate-edge-prob": (["generate", "--family", "maxcut", "--n", "6",
                            "--edge-prob", "1.5", "--out", "{out}"], "edge_prob"),
}


@pytest.fixture
def boundary_inputs(tmp_path):
    """A good instance, records file and gs.json, one bad file per fault, and
    the output path `out`, which no bad input may create."""
    d = tmp_path / "in"
    inst = stage_generate(Family.MAXCUT_ER, [6], 1, 2, d)[0]
    stage_oracle([inst], OracleMethod.EXHAUSTIVE, d / "gs.json")
    stage_solve([inst], SolverKind.PIMI, "maxcut", 20, 2, 3, d / "rec.jsonl",
                record_states=True)
    record = json.loads((d / "rec.jsonl").read_text().splitlines()[0])
    files = {
        "not_json.json": "{",
        "inst_no_n.json": json.dumps({"j": [[0.0]], "h": [0.0]}),
        **{f"rec_no_{key}.jsonl": json.dumps({k: v for k, v in record.items() if k != key})
           for key in ("best_step", "instance")},
        "gs_no_energy.json": json.dumps({inst.name: {"method": "exhaustive"}}),
        "sched_no_family.json": json.dumps({"params": {}}),
        "sched_bad_param.json": json.dumps({"family": "maxcut", "params": {"xi": "high"}}),
        "sched_unknown_param.json": json.dumps({"family": "maxcut",
                                                "params": {"xii": 0.0}}),
        "flip.manifest": _GOOD_MANIFESTS["flip-rate"] + f"out = {tmp_path / 'out'}\n",
    }
    for name, text in files.items():
        (d / name).write_text(text)
    # key -> (archive directory key, file name, text): one bad file per archive
    header = "T_steps,p_mean,p_logstd,n_trials,ccts\n"
    archive_files = {
        "landscape": ("archive", "landscape_pimi_n6.csv", header + "x,0.5,0.1,10,100\n"),
        "landscape_name": ("archive_name", "landscape_pimi_nbig.csv",
                           header + "10,0.5,0.1,10,100\n"),
        "ber": ("archive_ber", "ber.csv", "ebn0_db,ber,scenario_count\n4.0,0.1,1\n"),
        "pnt": ("archive_pnt", "pnt_summary.csv", "xi\n0.9\n"),
        "ber_short": ("archive_ber_short", "ber.csv",
                      "ebn0_db,ber,scenario_count,detector\n4.0,0.1\n"),
        "pnt_long": ("archive_pnt_long", "pnt_summary.csv", "xi,mean_p_nt\n0.9,0.1,7\n"),
        "landscape_header_only": ("archive_header_only", "landscape_pimi_n6.csv", header),
    }
    archives = {}
    for key, (archive, name, text) in archive_files.items():
        archives[archive] = d / archive
        archives[archive].mkdir()
        archives[key] = archives[archive] / name
        archives[key].write_text(text)
    return {"inst": inst, "rec": d / "rec.jsonl", "gs": d / "gs.json",
            "missing": d / "missing.json", "out": tmp_path / "out", **archives,
            **{name.split(".")[0]: d / name for name in files}}


class TestCli:
    def run_cli(self, *args):
        return subprocess.run([sys.executable, "-m", "pimi_lab.cli", *args],
                              capture_output=True, text=True)

    @pytest.mark.parametrize("argv, dest, family", [
        (["generate", "--family", "maxcut", "--n", "6", "--out", "{out}"],
         "edge_prob", "maxcut-bench"),
        (_solve(), "tanh_levels", "mimo-ber"),
        (_MIMO + ["--out", "{out}"], "tanh_levels", "mimo-ber"),
        (_ccts(), "threshold_fraction", "maxcut-bench"),
        (_ccts(), "epsilon", "maxcut-bench"),
        (_MIMO + ["--out", "{out}"], "trials", "mimo-ber"),
    ])
    def test_flag_defaults_equal_schema_defaults(self, argv, dest, family):
        # the CLI repeats these defaults as literals; they must not drift
        # from the manifest schema's
        args = build_parser().parse_args(argv)
        assert getattr(args, dest) == _SCHEMA[family][dest][1]

    def test_pipeline_via_cli(self, tmp_path):
        inst = tmp_path / "inst"
        r = self.run_cli("generate", "--family", "maxcut", "--n", "8",
                         "--count", "2", "--seed", "4", "--out", str(inst))
        assert r.returncode == 0, r.stderr
        r = self.run_cli("oracle", "--method", "exhaustive", "--in", str(inst),
                         "--out", str(tmp_path / "gs.json"))
        assert r.returncode == 0, r.stderr
        r = self.run_cli("solve", "--kind", "pimi", "--in", str(inst),
                         "--schedule", "maxcut", "--steps", "150",
                         "--trials", "8", "--seed", "1",
                         "--out", str(tmp_path / "rec.jsonl"))
        assert r.returncode == 0, r.stderr
        r = self.run_cli("ccts", "--records", str(tmp_path / "rec.jsonl"),
                         "--ground", str(tmp_path / "gs.json"),
                         "--model", "pimi", "--grid", "50:150:50",
                         "--out", str(tmp_path / "landscape.csv"))
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "landscape.csv").exists()

    @pytest.mark.parametrize("grid", ["5:40:5", "0:20:5", "2.5,10"])
    def test_ccts_budget_out_of_range_exit_code(self, tmp_path, capsys, grid):
        paths = stage_generate(Family.MAXCUT_ER, [6], 1, 2, tmp_path / "inst")
        stage_oracle(paths, OracleMethod.EXHAUSTIVE, tmp_path / "gs.json")
        stage_solve(paths, SolverKind.PIMI, "maxcut", 20, 4, 3,
                    tmp_path / "rec.jsonl")
        code = main(["ccts", "--records", str(tmp_path / "rec.jsonl"),
                     "--ground", str(tmp_path / "gs.json"), "--model", "pimi",
                     "--grid", grid, "--out", str(tmp_path / "l.csv")])
        assert code == 2
        assert "step budget" in capsys.readouterr().err
        assert not (tmp_path / "l.csv").exists()

    @pytest.mark.parametrize("argv, named", list(_BAD_INPUTS.values()),
                             ids=list(_BAD_INPUTS))
    def test_bad_input_exit_code(self, boundary_inputs, capsys, argv, named):
        # every bad flag value and every missing or malformed input file
        # exits 2 with a message naming it, before anything is written
        assert main([arg.format(**boundary_inputs) for arg in argv]) == 2
        assert named.format(**boundary_inputs) in capsys.readouterr().err
        assert not boundary_inputs["out"].exists()

    def test_invalid_config_exit_code(self, tmp_path):
        r = self.run_cli("oracle", "--method", "exhaustive",
                         "--in", str(tmp_path / "none"),
                         "--out", str(tmp_path / "gs.json"))
        assert r.returncode == 2

    def test_non_finite_instance_exit_code(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"n": 2, "j": [[0.0, math.nan], [math.nan, 0.0]],
                                    "h": [0.0, 0.0]}))
        code = main(["oracle", "--method", "sa", "--in", str(path),
                     "--out", str(tmp_path / "gs.json")])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "gs.json").exists()

    def test_wrongly_shaped_instance_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 3, "j": [[0.0, 1.0], [1.0, 0.0]],
                                    "h": [0.0, 0.0, 0.0]}))
        code = main(["oracle", "--method", "sa", "--in", str(path),
                     "--out", str(tmp_path / "gs.json")])
        assert code == 2
        assert "3x3" in capsys.readouterr().err
        assert not (tmp_path / "gs.json").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--quantized", "q16"], "fixed-point format"),
        (["--quantized", "q16.4", "--tanh-levels", "1"], "LUT"),
    ], ids=["format", "tanh-levels"])
    def test_malformed_quantization_exit_code(self, tmp_path, capsys, flags, message):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"n": 2, "j": [[0.0, 1.0], [1.0, 0.0]],
                                    "h": [0.0, 0.0]}))
        code = main(["solve", "--kind", "pimi", "--in", str(path),
                     "--schedule", "sk1", "--steps", "10", "--trials", "2",
                     *flags, "--out", str(tmp_path / "rec.jsonl")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "rec.jsonl").exists()

    def test_singular_mmse_exit_code(self, tmp_path, capsys):
        # one receive antenna for four streams, at a regularisation far below
        # rounding, leaves the MMSE Gram matrix singular
        code = main(["mimo-ber", "--nt", "4", "--nr", "1", "--qam", "4",
                     "--ebn0", "300", "--scenarios", "20", "--detector", "mmse",
                     "--out", str(tmp_path / "ber.csv")])
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err
        assert not (tmp_path / "ber.csv").exists()

    def test_quantized_solve_cli(self, tmp_path):
        inst = tmp_path / "inst"
        self.run_cli("generate", "--family", "sk1", "--n", "6", "--count", "1",
                     "--seed", "2", "--out", str(inst))
        r = self.run_cli("solve", "--kind", "pimi", "--in", str(inst),
                         "--schedule", "sk1", "--steps", "40", "--trials", "4",
                         "--seed", "3", "--quantized", "q16.4",
                         "--tanh-levels", "4",
                         "--out", str(tmp_path / "recq.jsonl"))
        assert r.returncode == 0, r.stderr

    def test_mimo_ber_cli(self, tmp_path):
        r = self.run_cli("mimo-ber", "--nt", "2", "--nr", "2", "--qam", "4",
                         "--ebn0", "10", "--scenarios", "40",
                         "--detector", "mmse", "--detector", "pimi",
                         "--trials", "8", "--steps", "16", "--seed", "6",
                         "--out", str(tmp_path / "ber.csv"))
        assert r.returncode == 0, r.stderr
        with open(tmp_path / "ber.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert {r["detector"] for r in rows} == {"mmse", "pimi"}
