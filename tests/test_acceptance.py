"""Acceptance gate: twelve end-to-end checks, one test per criterion.

Each test prints through the summary hook in conftest.py, which emits one
PASS/FAIL line per criterion after the run.  Oracles here are deliberately
independent implementations (textbook formulas, brute-force searches, hand
arithmetic) rather than calls back into the library code under test.
"""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from wifiprox import cli, features, ingest, pairing
from wifiprox.core import Burst, Fingerprint, ProximityClass
from wifiprox.features import FEATURE_NAMES, extract, fit_least_squares
from wifiprox.ingest import split_sub_bursts
from wifiprox.pairing import enumerate_pairs, make_pair
from wifiprox.selection_metrics import (
    balanced_accuracy,
    discretize,
    mrmr_select,
    mutual_information,
    pr_points_from_scores,
)

from conftest import bss, make_fp, random_readings
from feature_oracles import one_row


def _run(*argv) -> None:
    rc = cli.main([str(a) for a in argv])
    assert rc == 0, f"command failed with exit {rc}: {argv}"


# ---------------------------------------------------------------------------
# 1. metric arithmetic against published confusion rates
# ---------------------------------------------------------------------------

def test_criterion_01_metric_arithmetic():
    # low-density evaluation: TPR 75.76%, TNR 42.47% -> 59.11% balanced
    assert balanced_accuracy(0.7576, 0.4247) * 100 == pytest.approx(59.11, abs=0.01)
    # retrained low-density classifier: TNR 71.66%, TPR 84.12% -> 77.89%
    assert balanced_accuracy(0.8412, 0.7166) * 100 == pytest.approx(77.89, abs=0.01)


# ---------------------------------------------------------------------------
# 2. feature registry pinned on a fuzz corpus with adversarial pairs
# ---------------------------------------------------------------------------

def _fuzz_pair(rng, kind):
    if kind == "disjoint":
        a_read = {bss(i): float(rng.integers(-95, -30)) for i in range(1, 6)}
        b_read = {bss(i): float(rng.integers(-95, -30)) for i in range(10, 17)}
    elif kind == "single_ap":
        a_read = {bss(1): float(rng.integers(-95, -30))}
        b_read = {bss(1): float(rng.integers(-95, -30))}
    elif kind == "constant_rssi":
        level = float(rng.integers(-80, -40))
        a_read = {bss(i): level for i in range(1, 7)}
        b_read = {bss(i): level + 3.0 for i in range(3, 9)}
    elif kind == "one_empty":
        a_read = {}
        b_read = {bss(i): float(rng.integers(-95, -30)) for i in range(1, 5)}
    else:
        a_read = random_readings(rng, int(rng.integers(1, 12)))
        b_read = random_readings(rng, int(rng.integers(1, 12)))
    a = make_fp(id="fa", readings=a_read)
    b = make_fp(id="fb", readings=b_read, position=(1.5, 0.0))
    return make_pair(a, b, 1.5, ProximityClass.CLOSE)


def test_criterion_02_registry_pin_on_fuzz_corpus():
    rng = np.random.default_rng(20240811)
    kinds = ("disjoint", "single_ap", "constant_rssi", "one_empty")
    assert len(FEATURE_NAMES) == 323
    assert len(FEATURE_NAMES) == 5 + 79 * 4 + 2
    for i in range(1000):
        kind = kinds[i % len(kinds)] if i % 10 == 0 else "random"
        vec = extract(_fuzz_pair(rng, kind))
        assert list(vec.as_dict()) == list(FEATURE_NAMES)
        assert vec.values.shape == (323,)
        assert np.all(np.isfinite(vec.values)), f"non-finite values on {kind} pair"


# ---------------------------------------------------------------------------
# 3. swap invariance, exact, with shuffled dict insertion orders
# ---------------------------------------------------------------------------

def _shuffled_clone(fp: Fingerprint, rng) -> Fingerprint:
    items = list(fp.readings.items())
    rng.shuffle(items)
    return Fingerprint(
        id=fp.id,
        readings=dict(items),
        position=fp.position,
        floor_key=fp.floor_key,
        device_model=fp.device_model,
    )


def test_criterion_03_swap_invariance_exact():
    rng = np.random.default_rng(20240812)
    py_rng = np.random.default_rng(20240813)
    for i in range(10_000):
        a = make_fp(id="pa", readings=random_readings(rng, int(rng.integers(1, 9))))
        b = make_fp(
            id="pb",
            readings=random_readings(rng, int(rng.integers(1, 9))),
            position=(1.0, 0.0),
            device="nokia-7" if i % 3 else "pixel-4",
        )
        forward = extract(make_pair(a, b, 1.0, ProximityClass.CLOSE))
        backward = extract(
            make_pair(
                _shuffled_clone(b, py_rng),
                _shuffled_clone(a, py_rng),
                1.0,
                ProximityClass.CLOSE,
            )
        )
        if not np.array_equal(forward.values, backward.values):
            bad = [
                FEATURE_NAMES[j]
                for j in np.nonzero(forward.values != backward.values)[0]
            ]
            pytest.fail(f"pair {i}: swap changed {bad[:5]}")


# ---------------------------------------------------------------------------
# 4. calibration transform oracle on exactly affine pairs
# ---------------------------------------------------------------------------

RANK_BASED_PREFIXES = (
    "corr_rssi.spearman",
    "corr_rssi.kendall",
    "corr_pairdiff.spearman",
    "corr_pairdiff.kendall",
    "corr_rank.cosine",
    "corr_rank.pearson",
    "corr_rank.spearman",
    "corr_rank.kendall",
)


def test_criterion_04_transform_oracle():
    rng = np.random.default_rng(20240814)
    for alpha in (0.5, 1.0, 2.0):
        for beta in (-10.0, 0.0, 10.0):
            for _ in range(5):
                n = int(rng.integers(3, 10))
                # continuous draws keep the pairwise differences free of
                # exact ties; a tie sits on a knife edge where the ulp-level
                # rounding of A*x+B decides its rank, which is a float
                # artifact, not an order violation
                vals = rng.uniform(-90.0, -35.0, size=n)
                shared = {bss(i + 1): float(v) for i, v in enumerate(vals)}
                a_read = dict(shared)
                a_read[bss(40)] = -50.0  # an AP the other side cannot see
                b_read = {k: alpha * v + beta for k, v in shared.items()}
                a = make_fp(id="a", readings=a_read)
                b = make_fp(id="b", readings=b_read, position=(1.0, 0.0))
                pair = make_pair(a, b, 1.0, ProximityClass.CLOSE)
                A, B, C, D = fit_least_squares(pair.a, pair.b)
                assert A > 0 and C > 0
                vec = extract(pair)
                assert vec["dist.manhattan.single_ls"] < 1e-9, (alpha, beta)
                for prefix in RANK_BASED_PREFIXES:
                    values = {
                        v: vec[f"{prefix}.{v}"] for v in features.VARIANTS
                    }
                    assert len(set(values.values())) == 1, (prefix, values)


# ---------------------------------------------------------------------------
# 5. least squares versus brute-force grid search
# ---------------------------------------------------------------------------

def test_criterion_05_least_squares_vs_grid():
    rng = np.random.default_rng(20240815)
    grid_a = np.arange(-6.0, 6.0 + 1e-9, 1e-3)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        x = rng.uniform(-3.0, 3.0, size=n)
        y = rng.uniform(-2.0, 2.0) * x + rng.uniform(-2.0, 2.0)
        y = y + rng.normal(0.0, 0.3, size=n)
        if np.ptp(x) < 1e-6:
            continue  # grid oracle is meaningless on a degenerate instance
        # profile out the intercept: for fixed A the SSE-optimal B is the
        # mean residual, so a 1-D sweep over A is an exhaustive 2-D search
        bs = y.mean() - grid_a * x.mean()
        sse = ((y[None, :] - grid_a[:, None] * x[None, :] - bs[:, None]) ** 2).sum(axis=1)
        i = int(np.argmin(sse))
        a_fit, b_fit = features._fit_line(x, y)
        assert abs(a_fit - grid_a[i]) <= 2e-3
        assert abs(b_fit - bs[i]) <= 2e-3


# ---------------------------------------------------------------------------
# 6. correlation coefficients versus textbook implementations
# ---------------------------------------------------------------------------

def _cosine_textbook(u, v):
    num = math.fsum(ui * vi for ui, vi in zip(u, v))
    nu = math.sqrt(math.fsum(ui * ui for ui in u))
    nv = math.sqrt(math.fsum(vi * vi for vi in v))
    return num / (nu * nv) if nu > 0 and nv > 0 else 0.0


def _pearson_textbook(u, v):
    n = len(u)
    mu = math.fsum(u) / n
    mv = math.fsum(v) / n
    cov = math.fsum((ui - mu) * (vi - mv) for ui, vi in zip(u, v))
    su = math.fsum((ui - mu) ** 2 for ui in u)
    sv = math.fsum((vi - mv) ** 2 for vi in v)
    return cov / math.sqrt(su * sv) if su > 0 and sv > 0 else 0.0


def _midranks_textbook(v):
    order = sorted(range(len(v)), key=lambda i: v[i])
    ranks = [0.0] * len(v)
    i = 0
    while i < len(v):
        j = i
        while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
            j += 1
        mid = (i + j) / 2 + 1  # ranks are 1-based
        for k in range(i, j + 1):
            ranks[order[k]] = mid
        i = j + 1
    return ranks


def _spearman_textbook(u, v):
    return _pearson_textbook(_midranks_textbook(u), _midranks_textbook(v))


def _kendall_textbook(u, v):
    n = len(u)
    n0 = n * (n - 1) // 2
    concordant = discordant = ties_u = ties_v = 0
    for i in range(n):
        for j in range(i + 1, n):
            du = u[i] - u[j]
            dv = v[i] - v[j]
            if du == 0:
                ties_u += 1
            if dv == 0:
                ties_v += 1
            if du == 0 or dv == 0:
                continue
            if (du > 0) == (dv > 0):
                concordant += 1
            else:
                discordant += 1
    denom = math.sqrt((n0 - ties_u) * (n0 - ties_v))
    return (concordant - discordant) / denom if denom > 0 else 0.0


def test_criterion_06_correlation_textbook_oracles():
    rng = np.random.default_rng(20240816)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        u = rng.integers(-20, 0, size=n).astype(float)  # narrow range forces ties
        v = rng.integers(-20, 0, size=n).astype(float)
        ul, vl = u.tolist(), v.tolist()
        for kernel, textbook in (
            (features._cosine, _cosine_textbook),
            (features._pearson, _pearson_textbook),
            (features._spearman, _spearman_textbook),
            (features._kendall, _kendall_textbook),
        ):
            assert one_row(kernel, u, v) == pytest.approx(textbook(ul, vl), abs=1e-9)
        checked += 1
    assert checked == 1000


# ---------------------------------------------------------------------------
# 7. mRMR selection versus hand-computed mutual information
# ---------------------------------------------------------------------------

def _mi_from_joint(counts):
    """Plug-in MI in bits from a 2x2 table of joint counts (hand formula)."""
    counts = [[float(c) for c in row] for row in counts]
    n = sum(sum(row) for row in counts)
    row_sums = [sum(row) for row in counts]
    col_sums = [sum(row[j] for row in counts) for j in range(2)]
    total = 0.0
    for i in range(2):
        for j in range(2):
            p = counts[i][j] / n
            if p > 0:
                total += p * math.log2(p / ((row_sums[i] / n) * (col_sums[j] / n)))
    return total


def test_criterion_07_mrmr_oracle():
    label = np.array([0] * 6 + [1] * 6)
    complement = np.array([0, 0, 0, 1, 1, 0, 1, 1, 1, 0, 1, 1])
    cols = {
        "informative": label.copy(),           # equals the label exactly
        "informative_copy": label.copy(),      # its duplicate
        "complement": complement,              # fresh but weaker signal
        "noise_a": np.array([0, 1, 0, 1, 0, 1] * 2),  # balanced per class
        "noise_b": np.array([1, 0, 1, 0, 1, 0] * 2),
        "noise_c": np.array([0, 0, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1]),
        "noise_d": np.array([1, 1, 0, 0, 1, 0, 1, 0, 0, 1, 1, 0]),
        "zz_const": np.zeros(12, dtype=int),
    }
    names = list(cols)
    matrix = np.column_stack([c.astype(float) for c in cols.values()])

    # hand-computed MI values (explicit joint tables over the 12 rows)
    mi = dict(zip(names, mutual_information(discretize(matrix), label).tolist()))
    assert mi["informative"] == pytest.approx(1.0, abs=1e-9)  # identical balanced bits
    assert mi["complement"] == pytest.approx(
        _mi_from_joint([[4, 1], [2, 5]]), abs=1e-9
    )
    assert mi["noise_a"] == pytest.approx(_mi_from_joint([[3, 3], [3, 3]]), abs=1e-9)
    assert mi["noise_a"] == 0.0
    assert mi["zz_const"] == 0.0

    # first pick equals brute-force max MI (the duplicate ties; the
    # documented name order makes 'informative' the deterministic winner)
    order = mrmr_select(matrix, names, label.astype(bool), 3)
    assert mi[order[0]] == max(mi.values())
    # the first pick carries all label information, so every second-step
    # score ties at exactly zero and the name rule elects 'complement' over
    # 'informative_copy' and the noise; the duplicate never precedes it
    assert order[:2] == ["informative", "complement"]


# ---------------------------------------------------------------------------
# 8 + 9. density benchmark: specialized vs generic, and byte-level rerun
# ---------------------------------------------------------------------------

DENSITY_SEEDS = {"low": (1101, 1201), "medium": (2101, 2201), "high": (3101, 3201)}


def _pipeline_to_features(d: Path, density: str, site: str, seed: int,
                          n_close: int, n_far: int) -> Path:
    fps = d / f"{site}.jsonl"
    prs = d / f"{site}.pairs.jsonl"
    out = d / f"{site}.features.csv"
    _run("synth", "--density", density, "--site-id", site, "--seed", seed,
         "--out", fps)
    _run("pairs", "--in", fps, "--out", prs,
         "--n-close", n_close, "--n-far", n_far, "--seed", seed + 7)
    _run("featurize", "--pairs", prs, "--fingerprints", fps, "--out", out)
    return out


def _balanced_accuracy_of(model: Path, feats: Path, report: Path) -> float:
    _run("evaluate", "--model", model, "--features", feats, "--report-out", report)
    return json.loads(report.read_text())["balanced_accuracy"]


@pytest.fixture(scope="session")
def density_benchmark(tmp_path_factory):
    d = tmp_path_factory.mktemp("density-benchmark")
    train_tables = {}
    eval_tables = {}
    for density, (train_seed, eval_seed) in DENSITY_SEEDS.items():
        train_tables[density] = _pipeline_to_features(
            d, density, f"{density}-train", train_seed, 2500, 2500
        )
        eval_tables[density] = _pipeline_to_features(
            d, density, f"{density}-eval", eval_seed, 1000, 1000
        )
    specialized = {}
    for density in DENSITY_SEEDS:
        model = d / f"{density}-specialized.model.json"
        _run("train", "--features", train_tables[density],
             "--model-out", model, "--seed", 42)
        specialized[density] = _balanced_accuracy_of(
            model, eval_tables[density], d / f"{density}-specialized.report.json"
        )
    generic_model = d / "generic.model.json"
    _run("train",
         "--features", train_tables["low"],
         "--features", train_tables["medium"],
         "--features", train_tables["high"],
         "--n-close", 800, "--n-far", 800,
         "--model-out", generic_model, "--seed", 43)
    generic = {
        density: _balanced_accuracy_of(
            generic_model, eval_tables[density], d / f"generic-{density}.report.json"
        )
        for density in DENSITY_SEEDS
    }
    return {"specialized": specialized, "generic": generic}


def test_criterion_08_specialized_beats_generic(density_benchmark):
    specialized = density_benchmark["specialized"]
    generic = density_benchmark["generic"]
    for density, ba in specialized.items():
        assert ba >= 0.65, f"{density} specialized balanced accuracy {ba:.4f}"
    worse = [d for d in specialized if generic[d] < specialized[d]]
    assert len(worse) >= 2, (
        f"generic should underperform on >= 2 regimes; specialized={specialized} "
        f"generic={generic}"
    )


def _run_reduced_pipeline(d: Path) -> list[Path]:
    fps = d / "site.jsonl"
    prs = d / "pairs.jsonl"
    feats = d / "features.csv"
    ranking = d / "ranking.txt"
    model = d / "model.json"
    report = d / "report.json"
    pr = d / "pr.txt"
    _run("synth", "--density", "low", "--site-id", "det", "--seed", 501, "--out", fps)
    _run("pairs", "--in", fps, "--out", prs,
         "--n-close", 300, "--n-far", 300, "--seed", 508)
    _run("featurize", "--pairs", prs, "--fingerprints", fps, "--out", feats)
    _run("select", "--features", feats, "--top-k", 10, "--out", ranking)
    _run("train", "--features", feats, "--feature-list", ranking,
         "--model-out", model, "--seed", 42, "--trees", 60)
    _run("evaluate", "--model", model, "--features", feats, "--report-out", report)
    _run("pr-curve", "--model", model, "--features", feats, "--out", pr)
    artifacts = [fps, prs, feats, ranking, model, report, pr]
    return artifacts + [Path(str(p) + ".meta.json") for p in artifacts]


def test_criterion_09_rerun_is_byte_identical(tmp_path):
    # rerun over the same directory so even the provenance sidecars (which
    # record resolved input paths) must reproduce byte-for-byte
    artifacts = _run_reduced_pipeline(tmp_path)
    snapshot = {p: p.read_bytes() for p in artifacts}
    _run_reduced_pipeline(tmp_path)
    for p, before in snapshot.items():
        assert p.read_bytes() == before, f"{p.name} differs between reruns"


# ---------------------------------------------------------------------------
# 10. sub-burst aggregation against a hand-written oracle
# ---------------------------------------------------------------------------

def test_criterion_10_sub_burst_oracle():
    ap_every, ap_sparse, ap_ninth = bss(1), bss(2), bss(3)
    per_scan = [
        {ap_every: -50.0, ap_sparse: -70.0},              # scan 0
        {ap_every: -52.0},                                 # scan 1
        {ap_every: -54.0, ap_sparse: -74.0},              # scan 2
        {ap_every: -56.0},                                 # scan 3
        {ap_every: -60.0},                                 # scan 4
        {ap_every: -62.0},                                 # scan 5
        {ap_every: -64.0},                                 # scan 6
        {ap_every: -66.0},                                 # scan 7
        {ap_every: -10.0, ap_ninth: -33.0},               # scan 8: must not matter
    ]
    scans = tuple(
        make_fp(
            id=f"s{i}",
            readings=r,
            position=(3.0, 4.0),
            burst_id="b0",
            scan_index=i,
        )
        for i, r in enumerate(per_scan)
    )
    burst = Burst(burst_id="b0", scans=scans, position=(3.0, 4.0), device_model="pixel-4")
    first, second = split_sub_bursts(burst)

    # first half: scans 0-3; medians by hand
    assert first.readings[ap_every] == -53.0          # median(-50,-52,-54,-56)
    assert first.readings[ap_sparse] == -72.0         # median over detecting scans only
    # second half: scans 4-7
    assert second.readings[ap_every] == -63.0         # median(-60,-62,-64,-66)
    assert ap_sparse not in second.readings
    # the ninth scan contributes nothing anywhere
    assert ap_ninth not in first.readings
    assert ap_ninth not in second.readings
    assert all(v != -10.0 for v in second.readings.values())
    # pseudo-fingerprints stay at the burst position on the same floor
    assert first.position == (3.0, 4.0)
    assert first.floor_key == scans[0].floor_key
    assert first.id != second.id


# ---------------------------------------------------------------------------
# 11. precision-recall curve properties under a random-score model
# ---------------------------------------------------------------------------

def test_criterion_11_pr_curve_properties():
    rng = np.random.default_rng(20240818)
    n = 10_000
    scores = rng.random(n)
    is_close = np.zeros(n, dtype=bool)
    is_close[: n // 2] = True  # balanced classes

    points = pr_points_from_scores(scores, is_close)
    thresholds = [p[0] for p in points]
    recalls = [p[2] for p in points]
    assert thresholds == sorted(thresholds)
    assert all(r1 >= r2 for r1, r2 in zip(recalls, recalls[1:]))
    assert points[0][0] == 0.0 and points[0][2] == 1.0   # everything predicted
    assert points[-1][2] == 0.0 and points[-1][1] == 1.0  # nothing predicted

    # a score with no information about a balanced label should sit at
    # precision 1/2 wherever enough pairs are predicted
    tp = np.sum((scores >= 0.5) & is_close)
    fp = np.sum((scores >= 0.5) & ~is_close)
    assert tp / (tp + fp) == pytest.approx(0.5, abs=0.05)
    for thr, precision, recall in points:
        if recall >= 0.05:
            assert precision == pytest.approx(0.5, abs=0.05), (thr, precision)


# ---------------------------------------------------------------------------
# 12. wide-CSV adapter on a public-dataset-shaped survey
# ---------------------------------------------------------------------------

def test_criterion_12_wide_csv_adapter(tmp_path):
    # a miniature survey in the layout of the public localization datasets:
    # one row per scan, WAPnnn columns, sentinel 100 for "not detected",
    # meters-scaled coordinates, building/floor/device id columns
    rng = np.random.default_rng(20240819)
    n_waps = 20
    header = [f"WAP{i:03d}" for i in range(1, n_waps + 1)]
    header += ["LONGITUDE", "LATITUDE", "FLOOR", "BUILDINGID", "PHONEID"]
    rows = []
    for building in (0, 1):
        for floor in (0, 1):
            base = rng.uniform(0, 30, size=2)
            for k in range(12):
                pos = base + (rng.uniform(0, 2, size=2) if k % 2 else rng.uniform(8, 20, size=2))
                vals = np.full(n_waps, 100, dtype=int)
                seen = rng.choice(n_waps, size=rng.integers(4, 9), replace=False)
                vals[seen] = rng.integers(-90, -30, size=len(seen))
                rows.append(
                    [*map(str, vals), f"{pos[0]:.4f}", f"{pos[1]:.4f}",
                     str(floor), str(building), str(rng.integers(0, 5))]
                )
    csv_path = tmp_path / "survey.csv"
    csv_path.write_text(
        ",".join(header) + "\n" + "\n".join(",".join(r) for r in rows) + "\n"
    )
    manifest_path = tmp_path / "survey.manifest.json"
    manifest_path.write_text(json.dumps({
        "dataset_id": "survey",
        "format": "wide_csv",
        "path": "survey.csv",
        "floor_column": "FLOOR",
        "building_column": "BUILDINGID",
        "device_column": "PHONEID",
    }))

    out = tmp_path / "canonical.jsonl"
    _run("ingest", "--manifest", manifest_path, "--out", out)
    fps = ingest.load_canonical(out)
    assert len(fps) == len(rows)
    floors = {fp.floor_key for fp in fps}
    assert floors == {("survey", b, f) for b in ("0", "1") for f in ("0", "1")}
    assert all(
        -95 <= rssi <= -20 for fp in fps for rssi in fp.readings.values()
    )  # the sentinel never leaks through as a reading

    pairs = enumerate_pairs(fps)
    assert pairs, "adapter output must feed straight into pair enumeration"
    labels = {p.label for p in pairs}
    assert labels == {ProximityClass.CLOSE, ProximityClass.FAR}
    seen_floors = {p.a.floor_key for p in pairs}
    assert all(p.a.floor_key == p.b.floor_key for p in pairs)
    assert len(seen_floors) > 1


REAL_DATASET_ENV = "PROXIMITY_UJINDOORLOC_CSV"


@pytest.mark.skipif(
    REAL_DATASET_ENV not in os.environ,
    reason=f"set {REAL_DATASET_ENV} to a UJIndoorLoc trainingData.csv to enable",
)
def test_real_dataset_pair_count_magnitudes(tmp_path):
    """Pair counts from the real public dataset land within +/- 5%.

    Reference magnitudes for the UJIndoorLoc training split: 387,186 Close
    and 2,644,089 Far pairs.  Exact reproduction is not expected because the
    published preprocessing is underspecified; coordinate rounding alone
    moves boundary pairs across the distance gates.
    """
    csv_path = Path(os.environ[REAL_DATASET_ENV])
    manifest_path = tmp_path / "uji.manifest.json"
    manifest_path.write_text(json.dumps({
        "dataset_id": "ujiindoorloc",
        "format": "wide_csv",
        "path": str(csv_path.resolve()),
        "floor_column": "FLOOR",
        "building_column": "BUILDINGID",
        "device_column": "PHONEID",
    }))
    manifest = ingest.load_manifest(manifest_path)
    fps, _report = ingest.load_dataset(manifest)
    pairs = enumerate_pairs(fps)
    n_close = sum(p.label is ProximityClass.CLOSE for p in pairs)
    n_far = len(pairs) - n_close
    assert n_close == pytest.approx(387_186, rel=0.05)
    assert n_far == pytest.approx(2_644_089, rel=0.05)
