"""End-to-end CLI behavior: exit codes, artifacts, sidecars, reruns."""

import json
from pathlib import Path

import pytest

from wifiprox import cli, features, ingest, model, pairing
from wifiprox.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_VALIDATION
from wifiprox.core import ProximityClass

from conftest import bss, make_fp


def run(*argv):
    return cli.main([str(a) for a in argv])


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
        "--ap-count", 10, "--clusters", 5, "--positions-per-cluster", 3,
        "--devices-per-position", 2,
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

    def test_sub_bursts_requires_pseudo_out(self, pipeline, tmp_path):
        assert run(
            "pairs", "--in", pipeline["site"], "--out", tmp_path / "p.jsonl",
            "--sub-bursts",
        ) == EXIT_CONFIG

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
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

    def test_train_over_request_is_validation_error(self, pipeline, tmp_path, capsys):
        assert run(
            "train", "--features", pipeline["features"],
            "--model-out", tmp_path / "m.json", "--seed", 1,
            "--n-close", 10_000, "--n-far", 10_000,
        ) == EXIT_VALIDATION
        assert "requested" in capsys.readouterr().err


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
        assert set(doc) >= {"tp", "tn", "fp", "fn", "tpr", "tnr", "balanced_accuracy"}
        assert doc["tp"] + doc["tn"] + doc["fp"] + doc["fn"] == 30

    def test_evaluate_with_pr_curve_embeds_points(self, pipeline, tmp_path):
        report = tmp_path / "report.json"
        assert run(
            "evaluate", "--model", pipeline["model"],
            "--features", pipeline["features"], "--report-out", report,
            "--with-pr-curve",
        ) == EXIT_OK
        doc = json.loads(report.read_text())
        assert len(doc["pr_curve"]) >= 3

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
        out = tmp_path / "copy.jsonl"
        assert run("ingest", "--canonical", pipeline["site"], "--out", out) == EXIT_OK
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
            "--ap-count", 10, "--clusters", 3, "--positions-per-cluster", 2,
            "--devices-per-position", 1, "--bursts",
        ) == EXIT_OK
        pseudo = tmp_path / "pseudo.jsonl"
        out = tmp_path / "pairs.jsonl"
        assert run(
            "pairs", "--in", site, "--out", out, "--sub-bursts",
            "--pseudo-out", pseudo,
        ) == EXIT_OK
        printed = capsys.readouterr().out
        assert "bursts=6 " in printed
        pseudos = ingest.load_canonical(pseudo)
        assert len(pseudos) == 12  # two 4-scan halves per 9-scan burst
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
                "--ap-count", 8, "--clusters", 3, "--positions-per-cluster", 2,
                "--devices-per-position", 1,
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
