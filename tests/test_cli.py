"""End-to-end CLI behavior: exit codes, artifacts, sidecars, reruns."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wifiprox import cli, features, ingest, model, pairing
from wifiprox.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_VALIDATION
from wifiprox.core import ProximityClass

from conftest import bss, make_fp

REPO = Path(__file__).resolve().parents[1]


def run(*argv):
    return cli.main([str(a) for a in argv])


def run_subprocess(*argv):
    """Run the CLI in a child process, so a hang fails the test instead of the run."""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "wifiprox.cli", *map(str, argv)],
        capture_output=True, text=True, timeout=120, env=env,
    )


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A tiny synth -> pairs -> featurize -> train -> evaluate pipeline."""
    d = tmp_path_factory.mktemp("pipeline")
    site = d / "site.jsonl"
    pairs = d / "pairs.jsonl"
    feats = d / "features.csv"
    mdl = d / "model.json"
    assert run(
        "synth", "--out", site, "--seed", 2024, "--site-id", "tiny",
        "--ap-count", 10, "--clusters", 3,
    ) == EXIT_OK
    assert run(
        "pairs", "--in", site, "--out", pairs,
        "--n-close", 15, "--n-far", 15, "--seed", 31,
    ) == EXIT_OK
    assert run("featurize", "--pairs", pairs, "--fingerprints", site, "--out", feats) == EXIT_OK
    assert run("train", "--features", feats, "--model-out", mdl, "--seed", 5, "--trees", 8) == EXIT_OK
    return {"dir": d, "site": site, "pairs": pairs, "features": feats, "model": mdl}


class TestExitCodes:
    def test_unknown_flag_is_config_error(self, capsys):
        assert run("synth", "--frobnicate") == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_synth_needs_density_or_ap_count(self, tmp_path):
        assert run(
            "synth", "--out", tmp_path / "s.jsonl", "--seed", 1, "--site-id", "s"
        ) == EXIT_CONFIG

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        assert run(
            "pairs", "--in", tmp_path / "nope.jsonl", "--out", tmp_path / "p.jsonl"
        ) == EXIT_IO
        assert "not found" in capsys.readouterr().err

    def test_corrupt_data_is_validation_error(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad-pairs.jsonl"
        bad.write_text('{"a":"ghost","b":"ghost2","distance_m":1.0,"label":"Close"}\n')
        assert run(
            "featurize", "--pairs", bad, "--fingerprints", pipeline["site"],
            "--out", tmp_path / "f.csv",
        ) == EXIT_VALIDATION
        assert "unresolved" in capsys.readouterr().err

    def test_bad_manifest_is_config_error(self, tmp_path, capsys):
        mf = tmp_path / "manifest.json"
        mf.write_text('{"dataset_id": "x", "format": "zip", "path": "d.csv"}')
        assert run(
            "ingest", "--manifest", mf, "--out", tmp_path / "out.jsonl"
        ) == EXIT_CONFIG
        assert "format" in capsys.readouterr().err

    @pytest.mark.parametrize("columns, text, where", [
        ({}, "WAP001,WAP002,LONGITUDE,LATITUDE\n-60,-70,3.0\n", "2: expected 4 cells, got 3"),
        ({"scan_column": "SCAN"}, "WAP001,LONGITUDE,LATITUDE,SCAN\n-60,3.0,4.0,1.5\n",
         "2: invalid literal for int() with base 10: '1.5'"),
    ], ids=["ragged-row", "non-integer-scan"])
    def test_bad_wide_csv_row_names_file_and_line(self, tmp_path, columns, text, where):
        data = tmp_path / "survey.csv"
        data.write_text(text)
        mf = tmp_path / "manifest.json"
        mf.write_text(json.dumps(
            {"dataset_id": "s", "format": "wide_csv", "path": "survey.csv", **columns}
        ))
        done = run_subprocess("ingest", "--manifest", mf, "--out", tmp_path / "out.jsonl")
        assert done.returncode == EXIT_VALIDATION, done.stderr
        assert f"error: {data}:{where}\n" in done.stderr
        assert "Traceback" not in done.stderr

    def test_null_coordinate_column_is_config_error(self, tmp_path):
        (tmp_path / "survey.csv").write_text("WAP001,LONGITUDE,LATITUDE\n-60,3.0,4.0\n")
        mf = tmp_path / "manifest.json"
        mf.write_text(json.dumps(
            {"dataset_id": "s", "format": "wide_csv", "path": "survey.csv", "x_column": None}
        ))
        done = run_subprocess("ingest", "--manifest", mf, "--out", tmp_path / "out.jsonl")
        assert done.returncode == EXIT_CONFIG, done.stderr
        assert f"error: {mf}: x_column must be str, got None\n" in done.stderr
        assert "Traceback" not in done.stderr

    def test_rejected_pair_record_names_file_and_line(self, pipeline, tmp_path):
        first, second = pipeline["pairs"].read_text().splitlines()[:2]
        bad = tmp_path / "bad-pairs.jsonl"
        bad.write_text(first + "\n" + json.dumps({**json.loads(second), "distance_m": -1.0}) + "\n")
        done = run_subprocess(
            "featurize", "--pairs", bad, "--fingerprints", pipeline["site"],
            "--out", tmp_path / "f.csv",
        )
        assert done.returncode == EXIT_VALIDATION, done.stderr
        assert f"error: {bad}:2: bad pair record (negative pair distance)\n" in done.stderr
        assert "Traceback" not in done.stderr

    def test_nan_pair_distance_is_validation_error(self, pipeline, tmp_path):
        first, second = pipeline["pairs"].read_text().splitlines()[:2]
        bad = tmp_path / "bad-pairs.jsonl"
        bad.write_text(first + "\n" + json.dumps({**json.loads(second), "distance_m": float("nan")})
                       + "\n")
        out = tmp_path / "f.csv"
        done = run_subprocess(
            "featurize", "--pairs", bad, "--fingerprints", pipeline["site"], "--out", out,
        )
        assert done.returncode == EXIT_VALIDATION, done.stderr
        assert f"error: {bad}:2: bad pair record (non-finite pair distance nan)\n" in done.stderr
        assert "Traceback" not in done.stderr
        assert not out.exists()

    def test_pairs_sampling_flag_gates(self, pipeline, tmp_path):
        out = tmp_path / "p.jsonl"
        assert run(
            "pairs", "--in", pipeline["site"], "--out", out, "--n-close", 5
        ) == EXIT_CONFIG
        assert run(
            "pairs", "--in", pipeline["site"], "--out", out,
            "--n-close", 5, "--n-far", 5,
        ) == EXIT_CONFIG  # sampling without --seed
        assert run(
            "pairs", "--in", pipeline["site"], "--out", out,
            "--remainder-out", tmp_path / "r.jsonl",
        ) == EXIT_CONFIG  # remainder without sampling

    @pytest.mark.parametrize("command, flags", [
        ("pairs", ["--sub-bursts", "--pseudo-out", "pseudo.jsonl", "--remainder-out", "rest.jsonl"]),
        ("pairs", ["--remainder-out", "rest.jsonl"]),
        ("pairs", ["--n-far", 5, "--seed", 1]),
        ("train", ["--n-close", 5]),
        ("train", ["--n-far", 5]),
    ], ids=["pairs-sub-bursts-remainder", "pairs-remainder", "pairs-n-far", "train-n-close",
            "train-n-far"])
    def test_flag_combination_rejected_before_any_output(
        self, pipeline, tmp_path_factory, capsys, command, flags
    ):
        site = tmp_path_factory.getbasetemp() / "burst-site.jsonl"
        if not site.exists():
            assert run(
                "synth", "--out", site, "--seed", 3, "--site-id", "b", "--ap-count", 10,
                "--clusters", 1, "--bursts",
            ) == EXIT_OK
        out = tmp_path_factory.mktemp("out")
        flags = [out / f if isinstance(f, str) and f.endswith(".jsonl") else f for f in flags]
        argv = {
            "pairs": ["pairs", "--in", site, "--out", out / "pairs.jsonl"],
            "train": ["train", "--features", pipeline["features"],
                      "--model-out", out / "model.json", "--seed", 1],
        }[command]
        capsys.readouterr()
        assert run(*argv, *flags) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before the header
        assert "error:" in captured.err
        assert list(out.iterdir()) == []

    def test_sub_bursts_requires_pseudo_out(self, pipeline, tmp_path):
        assert run(
            "pairs", "--in", pipeline["site"], "--out", tmp_path / "p.jsonl",
            "--sub-bursts",
        ) == EXIT_CONFIG

    def test_overflowing_rssi_is_validation_error(self, tmp_path, capsys):
        # finite readings whose gap overflows: some features become inf/NaN
        a = make_fp(id="a", readings={bss(1): 1e200, bss(2): -50.0})
        b = make_fp(id="b", readings={bss(1): -1e200, bss(2): -60.0}, position=(1.0, 0.0))
        site, pairs = tmp_path / "site.jsonl", tmp_path / "pairs.jsonl"
        ingest.save_canonical([a, b], site)
        pairing.save_pairs([pairing.make_pair(a, b, 1.0, ProximityClass.CLOSE)], pairs)
        assert run(
            "featurize", "--pairs", pairs, "--fingerprints", site, "--out", tmp_path / "f.csv",
        ) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "non-finite" in err and "dist.euclidean.none" in err

    @pytest.mark.parametrize("command, flag, value", [
        ("synth", "--ap-count", 0),
        ("synth", "--clusters", 0),
        ("select", "--top-k", 0),
        ("train", "--trees", 0),
        ("featurize", "--workers", 0),
        ("featurize", "--workers", -1),
        ("pairs", "--n-close", -1),
        ("pairs", "--n-close", 0),
        ("train", "--n-close", 0),
        ("train", "--n-far", 0),
    ])
    def test_count_below_minimum_is_config_error(
        self, pipeline, tmp_path, capsys, command, flag, value
    ):
        valid = {
            "synth": ["--out", tmp_path / "s.jsonl", "--seed", 1, "--site-id", "s",
                      "--ap-count", 10],
            "pairs": ["--in", pipeline["site"], "--out", tmp_path / "p.jsonl", "--seed", 1],
            "select": ["--features", pipeline["features"], "--top-k", 3,
                       "--out", tmp_path / "r.txt"],
            "train": ["--features", pipeline["features"], "--model-out", tmp_path / "m.json",
                      "--seed", 1],
            "featurize": ["--pairs", pipeline["pairs"], "--fingerprints", pipeline["site"],
                          "--out", tmp_path / "f.csv"],
        }[command]
        if flag in ("--n-close", "--n-far"):  # sampling needs both; e.g. -1 with 2, 0 with 0
            partner = "--n-far" if flag == "--n-close" else "--n-close"
            valid += [partner, 2 if value < 0 else value]
        assert run(command, flag, value, *valid) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"argument {flag}: must be >= 1, got {value}" in captured.err
        assert captured.out == ""  # rejected before the header

    @pytest.mark.parametrize(
        "flaw",
        ["child-out-of-range", "feature-out-of-range", "split-outside-subset", "cycle",
         "no-trees", "nan-threshold", "negative-n_close"],
    )
    def test_malformed_model_is_validation_error(self, pipeline, tmp_path, flaw):
        doc = json.loads(pipeline["model"].read_text())
        # a tree whose root and root's left child both split
        tree = next(t for t in doc["trees"] if t["feature"][t["left"][0]] >= 0)
        if flaw == "child-out-of-range":
            tree["right"][0] = len(tree["feature"])
        elif flaw == "feature-out-of-range":
            tree["feature"][0] = len(doc["feature_names"])
        elif flaw == "split-outside-subset":  # a valid column the tree never drew
            used = set(tree["feature"]) | set(tree["feature_subset"])
            tree["feature_subset"] = [min(set(range(len(doc["feature_names"]))) - used)]
        elif flaw == "cycle":  # the left child sends every row back to the root
            child = tree["left"][0]
            tree["left"][child] = tree["right"][child] = 0
        elif flaw == "nan-threshold":  # every row would go right
            tree["threshold"][0] = float("nan")
        elif flaw == "negative-n_close":  # votes would count -5 Close rows
            leaf = tree["feature"].index(-1)
            tree["n_close"][leaf] = -5
        else:  # scores would be 0/0
            doc["trees"] = []
        bad = tmp_path / "bad-model.json"
        bad.write_text(json.dumps(doc))
        done = run_subprocess(
            "evaluate", "--model", bad, "--features", pipeline["features"],
            "--report-out", tmp_path / "report.json",
        )
        assert done.returncode == EXIT_VALIDATION, done.stderr
        assert f"{bad}: malformed model file (" in done.stderr
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "report.json").exists()

    def test_tree_count_disagreeing_with_config_is_validation_error(
        self, pipeline, tmp_path, capsys
    ):
        mdl = tmp_path / "m.json"
        assert run(
            "train", "--features", pipeline["features"], "--model-out", mdl,
            "--seed", 1, "--trees", 3,
        ) == EXIT_OK
        doc = json.loads(mdl.read_text())
        assert len(doc["trees"]) == 3
        doc["config"]["n_estimators"] = 99
        bad = tmp_path / "bad-model.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(
            "evaluate", "--model", bad, "--features", pipeline["features"],
            "--report-out", tmp_path / "report.json",
        ) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{bad}: malformed model file (config records {doc['config']}, but a 3-tree" in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_cell_is_validation_error(self, pipeline, tmp_path, capsys, cell):
        lines = pipeline["features"].read_text().splitlines()
        cells = lines[3].split(",")
        cells[10] = cell
        lines[3] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert run(
            "train", "--features", bad, "--model-out", tmp_path / "m.json", "--seed", 1,
        ) == EXIT_VALIDATION
        assert run(
            "evaluate", "--model", pipeline["model"], "--features", bad,
            "--report-out", tmp_path / "report.json",
        ) == EXIT_VALIDATION
        assert capsys.readouterr().err.count(f"{bad}:4: non-finite cell") == 2

    def test_train_over_request_is_validation_error(self, pipeline, tmp_path, capsys):
        assert run(
            "train", "--features", pipeline["features"],
            "--model-out", tmp_path / "m.json", "--seed", 1,
            "--n-close", 10_000, "--n-far", 10_000,
        ) == EXIT_VALIDATION
        assert "requested" in capsys.readouterr().err
        header_only = tmp_path / "header-only.csv"
        header_only.write_text(pipeline["features"].read_text().splitlines()[0] + "\n")
        assert run(
            "train", "--features", header_only, "--model-out", tmp_path / "m.json",
            "--seed", 1, "--n-close", 1, "--n-far", 1,
        ) == EXIT_VALIDATION
        assert "requested 1 rows of one class, have 0" in capsys.readouterr().err

    def test_pairs_sampling_failure_writes_no_pseudo_fingerprints(self, tmp_path, capsys):
        site = tmp_path / "bursts.jsonl"
        assert run(
            "synth", "--out", site, "--seed", 3, "--site-id", "b", "--ap-count", 10,
            "--clusters", 1, "--bursts",
        ) == EXIT_OK
        out = tmp_path / "out"
        out.mkdir()
        assert run(
            "pairs", "--in", site, "--out", out / "pairs.jsonl", "--sub-bursts",
            "--pseudo-out", out / "pseudo.jsonl", "--n-close", 1000, "--n-far", 1000,
            "--seed", 1,
        ) == EXIT_VALIDATION
        assert "requested 1000 Close pairs" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("text, where, problem", [
        ("\n  \n", "", "lists no feature names"),
        ("dist.euclidean.none\n\nap.jaccard.none\ndist.euclidean.none\n", ":4",
         "repeats 'dist.euclidean.none'"),
    ], ids=["empty", "repeated"])
    def test_bad_feature_list_is_validation_error(
        self, pipeline, tmp_path, capsys, text, where, problem
    ):
        ranking = tmp_path / "ranking.txt"
        ranking.write_text(text)
        mdl = tmp_path / "m.json"
        assert run(
            "train", "--features", pipeline["features"], "--model-out", mdl,
            "--seed", 1, "--trees", 2, "--feature-list", ranking,
        ) == EXIT_VALIDATION
        assert f"error: {ranking}{where}: {problem}" in capsys.readouterr().err
        assert not mdl.exists()

    def test_feature_list_naming_a_missing_column_names_list_and_line(
        self, pipeline, tmp_path, capsys
    ):
        ranking = tmp_path / "ranking.txt"
        ranking.write_text("dist.euclidean.none\n\nnope.feature\n")
        mdl = tmp_path / "m.json"
        assert run(
            "train", "--features", pipeline["features"], "--model-out", mdl,
            "--seed", 1, "--trees", 2, "--feature-list", ranking,
        ) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"error: {ranking}:3: 'nope.feature' is not a column of {pipeline['features']}" in err
        assert not mdl.exists()

    @pytest.mark.parametrize("kind", ["features", "site", "pairs", "feature-list", "model"])
    def test_input_that_is_not_utf8_names_its_file(self, pipeline, tmp_path, kind):
        ranking = tmp_path / "ranking.txt"
        ranking.write_text("dist.euclidean.none\nap.shared_count.none\n")
        good = {**pipeline, "feature-list": ranking}[kind]
        data = good.read_bytes()
        bad = tmp_path / f"bad-{good.name}"
        bad.write_bytes(data[: len(data) // 2] + b"\xff" + data[len(data) // 2:])
        ins = {**pipeline, "feature-list": ranking, kind: bad}
        argv = {
            "features": ("train", "--features", ins["features"], "--model-out", tmp_path / "m.json",
                         "--seed", 1),
            "site": ("pairs", "--in", ins["site"], "--out", tmp_path / "p.jsonl"),
            "pairs": ("featurize", "--pairs", ins["pairs"], "--fingerprints", ins["site"],
                      "--out", tmp_path / "f.csv"),
            "feature-list": ("train", "--features", ins["features"], "--feature-list",
                             ins["feature-list"], "--model-out", tmp_path / "m.json", "--seed", 1),
            "model": ("evaluate", "--model", ins["model"], "--features", ins["features"],
                      "--report-out", tmp_path / "r.json"),
        }[kind]
        done = run_subprocess(*argv)
        assert done.returncode == EXIT_VALIDATION, done.stderr
        assert f"error: {bad}: not valid UTF-8 (" in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("kind", ["manifest", "wide-csv"])
    def test_ingest_input_that_is_not_utf8_names_its_file(self, tmp_path, kind):
        data = tmp_path / "survey.csv"
        data.write_bytes(b"WAP001,LONGITUDE,LATITUDE\n-60,3.0,4.0\n"
                         + (b"-6\xff,3.0,4.0\n" if kind == "wide-csv" else b""))
        mf = tmp_path / "manifest.json"
        mf.write_bytes(b'{"dataset_id": "x\xff", "format": "wide_csv", "path": "survey.csv"}'
                       if kind == "manifest" else
                       b'{"dataset_id": "x", "format": "wide_csv", "path": "survey.csv"}')
        done = run_subprocess("ingest", "--manifest", mf, "--out", tmp_path / "out.jsonl")
        bad, code, problem = ((mf, EXIT_CONFIG, "not valid JSON") if kind == "manifest"
                              else (data, EXIT_VALIDATION, "not valid UTF-8"))
        assert done.returncode == code, done.stderr
        assert f"error: {bad}: {problem} (" in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("command", ["train", "select", "evaluate"])
    def test_feature_table_repeating_a_column_name_is_rejected(
        self, pipeline, tmp_path, capsys, command
    ):
        # column 5 renamed to column 4's name: a tree grown on one would be scored on the other
        lines = pipeline["features"].read_text().splitlines()
        header = lines[0].split(",")
        assert header[3] == "ap.shared_count.none"
        header[4] = header[3]
        bad = tmp_path / "repeated.csv"
        bad.write_text("\n".join([",".join(header), *lines[1:]]) + "\n")
        out = tmp_path / "out"
        argv = {
            "train": ("--model-out", out, "--seed", 1, "--trees", 2),
            "select": ("--top-k", 3, "--out", out),
            "evaluate": ("--model", pipeline["model"], "--report-out", out),
        }[command]
        capsys.readouterr()
        assert run(command, "--features", bad, *argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"error: {bad}:1: repeats 'ap.shared_count.none' from column 4\n" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest", "pairs"])
    def test_site_repeating_a_fingerprint_id_is_rejected(self, pipeline, tmp_path, command):
        lines = pipeline["site"].read_text().splitlines()
        bad = tmp_path / "repeated.jsonl"
        bad.write_text("\n".join([*lines, lines[0]]) + "\n")
        mf = tmp_path / "manifest.json"
        mf.write_text(json.dumps({"dataset_id": "tiny", "format": "canonical_jsonl",
                                  "path": str(bad)}))
        out = tmp_path / "out.jsonl"
        argv = {
            "ingest": ("ingest", "--manifest", mf, "--out", out),
            "pairs": ("pairs", "--in", bad, "--out", out),
        }[command]
        done = run_subprocess(*argv)
        assert done.returncode == EXIT_VALIDATION, done.stderr
        fp_id = json.loads(lines[0])["id"]
        assert (f"error: {bad}:{len(lines) + 1}: repeats id {fp_id!r} from line 1\n"
                in done.stderr)
        assert "Traceback" not in done.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "pr-curve"])
    def test_table_lacking_a_model_column_is_named(self, pipeline, tmp_path, capsys, command):
        table = features.read_feature_table(pipeline["features"])
        lacking = model.load_model(pipeline["model"]).feature_names[0]
        narrow = tmp_path / "narrow.csv"
        features.write_feature_table(table.project([n for n in table.names if n != lacking]),
                                     narrow)
        out = tmp_path / "out.txt"
        flag = "--report-out" if command == "evaluate" else "--out"
        capsys.readouterr()
        assert run(
            command, "--model", pipeline["model"], "--features", narrow, flag, out,
        ) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"error: {narrow}: lacks the model's feature columns ['{lacking}']" in err
        assert not out.exists()


class TestFlags:
    #: every flag of every subcommand; adding one is a deliberate edit here
    FLAGS = {
        "synth": ["--out", "--seed", "--site-id", "--density", "--ap-count", "--clusters",
                  "--bursts"],
        "ingest": ["--manifest", "--out"],
        "pairs": ["--in", "--out", "--sub-bursts", "--pseudo-out", "--n-close", "--n-far",
                  "--seed", "--remainder-out"],
        "featurize": ["--pairs", "--fingerprints", "--out", "--workers"],
        "select": ["--features", "--top-k", "--out"],
        "train": ["--features", "--model-out", "--seed", "--trees", "--n-close", "--n-far",
                  "--feature-list"],
        "evaluate": ["--model", "--features", "--report-out"],
        "pr-curve": ["--model", "--features", "--out"],
    }

    @staticmethod
    def parser_flags() -> dict[str, list[str]]:
        sub = next(
            a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        return {
            name: [
                a.option_strings[0] for a in parser._actions
                if a.option_strings and not isinstance(a, argparse._HelpAction)
            ]
            for name, parser in sub.choices.items()
        }

    def test_flag_inventory(self):
        found = self.parser_flags()
        assert found == self.FLAGS
        assert sum(len(flags) for flags in found.values()) == 37

    @pytest.mark.parametrize("doc, prompt, commands", [
        ("experiments/run_density_experiments.sh", '"$WIFIPROX" ',
         {"synth", "pairs", "featurize", "train", "evaluate", "pr-curve"}),
        ("README.md", "wifiprox ", set(FLAGS)),
    ], ids=["experiments-script", "readme"])
    def test_documented_commands_pass_existing_flags(self, doc, prompt, commands):
        # removing a flag must not leave the paper's reproduction script behind
        text = (REPO / doc).read_text(encoding="utf-8").replace("\\\n", " ")
        used: dict[str, set[str]] = {}
        for line in text.splitlines():
            if line.strip().startswith(prompt):
                command, *words = line.strip()[len(prompt):].split()
                used.setdefault(command, set()).update(w for w in words if w.startswith("--"))
        assert set(used) == commands
        flags = self.parser_flags()
        for command, passed in used.items():
            assert passed <= set(flags[command]), (doc, command, passed - set(flags[command]))

    @pytest.mark.parametrize("command, flag, value", [
        ("synth", "--positions-per-cluster", "5"),
        ("synth", "--devices-per-position", "2"),
        ("evaluate", "--with-pr-curve", None),
        ("pr-curve", "--n-thresholds", "40"),
    ])
    def test_removed_flag_is_config_error(
        self, pipeline, tmp_path, capsys, command, flag, value
    ):
        valid = {
            "synth": ["--out", tmp_path / "s.jsonl", "--seed", 1, "--site-id", "s",
                      "--ap-count", 10],
            "evaluate": ["--model", pipeline["model"], "--features", pipeline["features"],
                         "--report-out", tmp_path / "r.json"],
            "pr-curve": ["--model", pipeline["model"], "--features", pipeline["features"],
                         "--out", tmp_path / "pr.txt"],
        }[command]
        capsys.readouterr()
        assert run(command, *valid, flag, *([] if value is None else [value])) == EXIT_CONFIG
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestArtifacts:
    def test_printed_counts_match_files(self, pipeline, capsys):
        fps = ingest.load_canonical(pipeline["site"])
        pairs = pairing.load_pairs(pipeline["pairs"], fps)
        assert len(pairs) == 30
        table = features.read_feature_table(pipeline["features"])
        assert len(table) == 30
        assert len(table.names) == 323

    def test_meta_sidecars_written(self, pipeline):
        for key in ("site", "pairs", "features", "model"):
            meta = Path(str(pipeline[key]) + ".meta.json")
            doc = json.loads(meta.read_text())
            assert len(doc["config_sha256"]) == 64
            assert "command" in doc
            if key != "site":
                assert doc["inputs"]  # every later stage records input digests

    def test_featurize_sidecar_counts_the_written_table(self, tmp_path):
        a = make_fp(id="a", readings={bss(1): -50.0, bss(2): -61.0, bss(3): -70.0})
        b = make_fp(id="b", readings={bss(1): -52.0, bss(2): -64.0}, position=(1.0, 0.0))
        c = make_fp(id="c", readings={bss(7): -55.0, bss(8): -66.0}, position=(2.0, 0.0))
        site, pairs, out = tmp_path / "site.jsonl", tmp_path / "pairs.jsonl", tmp_path / "f.csv"
        ingest.save_canonical([a, b, c], site)
        pairing.save_pairs(
            [pairing.make_pair(p, q, 1.0, ProximityClass.CLOSE) for p, q in ((a, b), (a, c), (b, c))],
            pairs,
        )
        assert run("featurize", "--pairs", pairs, "--fingerprints", site, "--out", out) == EXIT_OK
        doc = json.loads(Path(str(out) + ".meta.json").read_text())
        table = features.read_feature_table(out)
        constant = sum(len(set(column)) == 1 for column in table.matrix.T.tolist())
        assert 0 < constant < len(table.names)
        assert doc["table"] == {
            "no_shared_ap_pairs": 2,
            "constant_columns": constant,
            "shared_ap_count": {"min": 0, "median": 0.0, "max": 2},
        }

    def test_featurize_sidecar_of_an_empty_table(self, pipeline, tmp_path):
        pairs, out = tmp_path / "none.jsonl", tmp_path / "f.csv"
        pairs.write_text("")
        assert run(
            "featurize", "--pairs", pairs, "--fingerprints", pipeline["site"], "--out", out
        ) == EXIT_OK
        doc = json.loads(Path(str(out) + ".meta.json").read_text())
        assert doc["table"] == {
            "no_shared_ap_pairs": 0, "constant_columns": 0, "shared_ap_count": None,
        }

    def test_header_printed(self, pipeline, tmp_path, capsys):
        out = tmp_path / "p2.jsonl"
        assert run("pairs", "--in", pipeline["site"], "--out", out) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("# pairs seed=- config=sha256:")
        assert "inputs=" in lines[0]
        assert lines[-1].startswith("close=")

    def test_remainder_is_disjoint_and_complete(self, pipeline, tmp_path):
        sampled = tmp_path / "train.jsonl"
        rest = tmp_path / "rest.jsonl"
        everything = tmp_path / "all.jsonl"
        assert run("pairs", "--in", pipeline["site"], "--out", everything) == EXIT_OK
        assert run(
            "pairs", "--in", pipeline["site"], "--out", sampled,
            "--n-close", 10, "--n-far", 10, "--seed", 7, "--remainder-out", rest,
        ) == EXIT_OK
        fps = ingest.load_canonical(pipeline["site"])
        all_keys = {p.key for p in pairing.load_pairs(everything, fps)}
        s_keys = {p.key for p in pairing.load_pairs(sampled, fps)}
        r_keys = {p.key for p in pairing.load_pairs(rest, fps)}
        assert s_keys | r_keys == all_keys
        assert not s_keys & r_keys

    def test_train_sidecar_records_tree_sizes(self, pipeline):
        doc = json.loads(Path(str(pipeline["model"]) + ".meta.json").read_text())
        trees = model.load_model(pipeline["model"]).trees
        nodes = sorted(t.n_nodes for t in trees)
        depths = sorted(t.depth for t in trees)
        assert doc["trees"] == {
            "nodes": {"min": nodes[0], "median": (nodes[3] + nodes[4]) / 2, "max": nodes[-1]},
            "depth": {"min": depths[0], "median": (depths[3] + depths[4]) / 2,
                      "max": depths[-1]},
        }
        assert depths[-1] >= 1

    def test_train_reports_class_balance(self, pipeline):
        m = model.load_model(pipeline["model"])
        assert m.class_balance == (15, 15)
        assert len(m.trees) == 8

    def test_evaluate_writes_report(self, pipeline, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert run(
            "evaluate", "--model", pipeline["model"],
            "--features", pipeline["features"], "--report-out", report,
        ) == EXIT_OK
        assert "balanced accuracy" in capsys.readouterr().out
        doc = json.loads(report.read_text())
        # the report holds no precision-recall curve; `pr-curve` writes that
        assert set(doc) == {"tp", "tn", "fp", "fn", "tpr", "tnr", "balanced_accuracy",
                            "threshold"}
        assert doc["tp"] + doc["tn"] + doc["fp"] + doc["fn"] == 30

    def test_pr_curve_file(self, pipeline, tmp_path, capsys):
        out = tmp_path / "pr.txt"
        assert run(
            "pr-curve", "--model", pipeline["model"],
            "--features", pipeline["features"], "--out", out,
        ) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "# recall precision"
        printed = capsys.readouterr().out
        assert f"points={len(lines) - 1}" in printed
        # every threshold: each distinct score, 0, 1 and one just above the top
        scores = model.load_model(pipeline["model"]).predict_scores(
            features.read_feature_table(pipeline["features"]).matrix)
        assert len(lines) - 1 == len(set(scores.tolist()) | {0.0, 1.0}) + 1

    def test_select_then_train_on_feature_list(self, pipeline, tmp_path, capsys):
        ranking = tmp_path / "top.txt"
        assert run(
            "select", "--features", pipeline["features"], "--top-k", 6,
            "--out", ranking,
        ) == EXIT_OK
        out = capsys.readouterr().out
        assert " 1. " in out
        names = ranking.read_text().split()
        assert len(names) == 6
        mdl = tmp_path / "m6.json"
        assert run(
            "train", "--features", pipeline["features"], "--model-out", mdl,
            "--seed", 3, "--trees", 4, "--feature-list", ranking,
        ) == EXIT_OK
        assert model.load_model(mdl).feature_names == tuple(names)

    def test_feature_list_applies_to_each_sampled_table(self, pipeline, tmp_path):
        # --feature-list over two tables with per-table sampling trains the
        # same model as the tables projected beforehand
        ranking = tmp_path / "ranking.txt"
        wanted = ["dist.euclidean.none", "ap.jaccard.none", "corr_rank.kendall.double_ls"]
        ranking.write_text("\n".join(wanted) + "\n")
        narrow = tmp_path / "narrow.csv"
        table = features.read_feature_table(pipeline["features"])
        features.write_feature_table(table.project(wanted), narrow)
        common = ["--seed", 9, "--trees", 5, "--n-close", 10, "--n-far", 10]
        listed, projected = tmp_path / "listed.json", tmp_path / "projected.json"
        assert run(
            "train", "--features", pipeline["features"], "--features", pipeline["features"],
            "--feature-list", ranking, "--model-out", listed, *common,
        ) == EXIT_OK
        assert run(
            "train", "--features", narrow, "--features", narrow,
            "--model-out", projected, *common,
        ) == EXIT_OK
        assert listed.read_bytes() == projected.read_bytes()
        assert model.load_model(listed).class_balance == (20, 20)

    def test_train_rejects_mismatched_feature_columns(self, pipeline, tmp_path):
        table = features.read_feature_table(pipeline["features"])
        small = table.project(list(table.names[:10]))
        other = tmp_path / "narrow.csv"
        features.write_feature_table(small, other)
        assert run(
            "train", "--features", pipeline["features"], "--features", other,
            "--model-out", tmp_path / "m.json", "--seed", 1,
        ) == EXIT_CONFIG


class TestIngest:
    def test_canonical_route(self, pipeline, tmp_path, capsys):
        mf = tmp_path / "manifest.json"
        mf.write_text(json.dumps(
            {"dataset_id": "tiny", "format": "canonical_jsonl", "path": str(pipeline["site"])}
        ))
        out = tmp_path / "copy.jsonl"
        assert run("ingest", "--manifest", mf, "--out", out) == EXIT_OK
        assert out.read_bytes() == pipeline["site"].read_bytes()
        assert "loaded=" in capsys.readouterr().out

    def test_wide_csv_manifest_route(self, tmp_path, capsys):
        csv_path = tmp_path / "survey.csv"
        csv_path.write_text(
            "WAP001,WAP002,WAP003,LONGITUDE,LATITUDE,FLOOR,BUILDINGID,PHONEID\n"
            "-50,100,-70,1.0,2.0,1,0,7\n"
            "100,100,100,3.0,4.0,1,0,7\n"
            "-60,-61,100,5.0,6.0,2,0,8\n"
        )
        mf = tmp_path / "manifest.json"
        mf.write_text(json.dumps({
            "dataset_id": "survey",
            "format": "wide_csv",
            "path": "survey.csv",
            "floor_column": "FLOOR",
            "building_column": "BUILDINGID",
            "device_column": "PHONEID",
        }))
        out = tmp_path / "canonical.jsonl"
        assert run("ingest", "--manifest", mf, "--out", out) == EXIT_OK
        printed = capsys.readouterr().out
        assert "loaded=2 skipped_empty=1 rows_read=3" in printed
        fps = ingest.load_canonical(out)
        assert len(fps) == 2
        assert fps[0].floor_key == ("survey", "0", "1")
        assert fps[0].readings == {
            "00:00:00:00:00:01": -50.0, "00:00:00:00:00:03": -70.0,
        }


class TestSubBursts:
    def test_burst_site_to_pseudo_pairs(self, tmp_path, capsys):
        site = tmp_path / "bursts.jsonl"
        assert run(
            "synth", "--out", site, "--seed", 11, "--site-id", "b",
            "--ap-count", 10, "--clusters", 1, "--bursts",
        ) == EXIT_OK
        pseudo = tmp_path / "pseudo.jsonl"
        out = tmp_path / "pairs.jsonl"
        assert run(
            "pairs", "--in", site, "--out", out, "--sub-bursts",
            "--pseudo-out", pseudo,
        ) == EXIT_OK
        printed = capsys.readouterr().out
        assert "bursts=10 " in printed  # 5 positions x 2 devices
        pseudos = ingest.load_canonical(pseudo)
        assert len(pseudos) == 20  # two 4-scan halves per 9-scan burst
        assert all(":sub" in fp.id for fp in pseudos)
        pairs = pairing.load_pairs(out, pseudos)
        assert pairs  # the two halves of each burst pair up as Close at least


class TestRerunStability:
    def test_synth_rerun_byte_identical(self, tmp_path):
        outs = []
        for name in ("one.jsonl", "two.jsonl"):
            out = tmp_path / name
            assert run(
                "synth", "--out", out, "--seed", 99, "--site-id", "re",
                "--ap-count", 8, "--clusters", 2,
            ) == EXIT_OK
            outs.append(out)
        a, b = outs
        assert a.read_bytes() == b.read_bytes()
        assert (
            Path(str(a) + ".meta.json").read_bytes()
            == Path(str(b) + ".meta.json").read_bytes()
        )

    def test_pairs_rerun_byte_identical(self, pipeline, tmp_path):
        outs = []
        for name in ("p1.jsonl", "p2.jsonl"):
            out = tmp_path / name
            assert run(
                "pairs", "--in", pipeline["site"], "--out", out,
                "--n-close", 5, "--n-far", 5, "--seed", 12,
            ) == EXIT_OK
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
