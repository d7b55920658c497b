"""Golden hashes: feature values, model JSON, the mRMR ranking and pseudo-fingerprints
pinned bit for bit.

The hashes were recorded from the implementation these tests guard and
must not be edited to make a refactor pass.  A change that is meant to move
a value (for example one ULP in a rewritten kernel) says so and records
new hashes together with the largest difference.  Recorded with numpy 2.4
and scipy 1.17 on x86-64.
"""

import hashlib

import numpy as np

from wifiprox.core import ProximityClass
from wifiprox.features import FEATURE_NAMES, extract, extract_many
from wifiprox.ingest import save_canonical, split_all_sub_bursts
from wifiprox.model import EnsembleConfig, save_model, train_ensemble
from wifiprox.pairing import enumerate_pairs, make_pair, sample_training_set
from wifiprox.selection_metrics import mrmr_select
from wifiprox.synth import SiteConfig, generate_site, site_config_for_density

from conftest import bss, make_fp, random_readings

FUZZ_SHA256 = "13d176eb6af9012b90043e18fbb7a02ffc7911034c4d2f2897c193ddb5540937"
DENSE_SHA256 = "0c9397c9804d115bc0701d462b75b980bbef30cb83868bf52050d13128228e3c"
MODEL_SHA256 = "0bd1147a37464ab39774d92d5a05d479e2040ec56f3eb3c8ea3aeb0943245bca"
DEEP_MODEL_SHA256 = "43452af8ffda657f9a66df799bb0344961194b2009003d21a8d60e651bfc29ca"
SCORES_SHA256 = "1645ef227b1550461ba7e4b0ba0fcefdca78c748628c8fe55226481f5debc2b1"
SCORE_VALUES = [0.2, 0.2, 0.0, 0.6, 0.6, 0.2]
MRMR_RANKING_SHA256 = "46b08b3283c691429c00abb2160e60688afec31ab8ef9f53e1680e8f40647b35"
PSEUDO_SHA256 = "4f8333e5b3093d330f3d6fc3f0433a7566208639ce560cffd1bf84015da1263d"
LOW_DENSITY_BATCH_SHA256 = "b8cc71e7a53d6fe3015d1e5945d9a77ba35d4eb29ec8c09b7d2b4095ce3b59fb"


def _fuzz_pairs():
    """Criterion-2-style corpus: random pairs plus the adversarial kinds."""
    rng = np.random.default_rng(20261018)
    kinds = ("random", "disjoint", "single_ap", "constant_rssi", "one_empty")
    pairs = []
    for i in range(200):
        kind = kinds[i % len(kinds)]
        if kind == "disjoint":
            a_read = {bss(j): float(rng.integers(-95, -30)) for j in range(1, 6)}
            b_read = {bss(j): float(rng.integers(-95, -30)) for j in range(10, 17)}
        elif kind == "single_ap":
            a_read = {bss(1): float(rng.integers(-95, -30))}
            b_read = {bss(1): float(rng.integers(-95, -30))}
        elif kind == "constant_rssi":
            level = float(rng.integers(-80, -40))
            a_read = {bss(j): level for j in range(1, 7)}
            b_read = {bss(j): level + 3.0 for j in range(3, 9)}
        elif kind == "one_empty":
            a_read = {}
            b_read = {bss(j): float(rng.integers(-95, -30)) for j in range(1, 5)}
        else:
            a_read = random_readings(rng, int(rng.integers(1, 12)))
            b_read = random_readings(rng, int(rng.integers(1, 12)))
        a = make_fp(id=f"fa{i}", readings=a_read)
        b = make_fp(id=f"fb{i}", readings=b_read, position=(1.5, 0.0), device="nokia-7")
        pairs.append(make_pair(a, b, 1.5, ProximityClass.CLOSE))
    return pairs


def _dense_pairs():
    """High-density pairs: 65-90 shared APs, past the small-n Kendall path."""
    rng = np.random.default_rng(20261019)
    pairs = []
    for i in range(20):
        n_shared = int(rng.integers(65, 91))
        shared = rng.choice(400, size=n_shared, replace=False)
        a_read = {bss(int(j) + 1): float(rng.integers(-95, -30)) for j in shared}
        b_read = {k: float(np.clip(v + rng.normal(0, 6), -99, -20)) for k, v in a_read.items()}
        for j in rng.choice(np.arange(400, 500), size=int(rng.integers(0, 8)), replace=False):
            b_read[bss(int(j) + 1)] = float(rng.integers(-95, -60))
        a = make_fp(id=f"da{i}", readings=a_read)
        b = make_fp(id=f"db{i}", readings=b_read, position=(2.0, 0.0))
        pairs.append(make_pair(a, b, 2.0, ProximityClass.CLOSE))
    return pairs


def _values_sha256(pairs):
    h = hashlib.sha256()
    for pair in pairs:
        h.update(extract(pair).values.tobytes())
    return h.hexdigest()


def test_fuzz_corpus_feature_hash():
    assert _values_sha256(_fuzz_pairs()) == FUZZ_SHA256


def test_dense_pairs_feature_hash():
    pairs = _dense_pairs()
    assert min(len(p.a.ap_set & p.b.ap_set) for p in pairs) > 64
    assert _values_sha256(pairs) == DENSE_SHA256


def _site_pairs(density, site_id, seed, n_clusters, count):
    """About ``count`` pairs taken at an even stride from a synthetic site's pairs."""
    pairs = enumerate_pairs(generate_site(SiteConfig(density, site_id, seed, n_clusters=n_clusters)))
    return [pairs[i] for i in range(0, len(pairs), len(pairs) // count)]


def test_low_density_batch_feature_hash():
    """``extract_many``'s rows for 300 low-density and 40 medium-density pairs.

    The low pairs share 8-14 APs, so their pair-difference and pair-ratio
    vectors hold 28-182 entries, and pairs of one shared-AP count run
    together, up to dozens to a batch with four Kendall inputs each per
    vector family.  The medium pairs share 14-47 APs: their pair-difference
    vectors fall on both sides of 256 entries.
    """
    low = _site_pairs("low", "golden-batch-low", 1101, 20, 300)
    medium = _site_pairs("medium", "golden-batch-medium", 2101, 10, 40)
    shared = [len(p.a.ap_set & p.b.ap_set) for p in low + medium]
    assert min(shared[:len(low)]) >= 8 and max(shared[:len(low)]) == 14
    assert min(shared[len(low):]) < 23 < max(shared[len(low):])  # 23 * 22 / 2 = 253
    digest = hashlib.sha256(b"".join(v.values.tobytes() for v in extract_many(low + medium)))
    assert digest.hexdigest() == LOW_DENSITY_BATCH_SHA256


def test_model_json_hash(tmp_path):
    X = np.stack([extract(p).values for p in _fuzz_pairs()])
    y = np.random.default_rng(20261020).integers(0, 2, size=len(X)).astype(bool)
    trained = train_ensemble(X, y, FEATURE_NAMES, EnsembleConfig(n_estimators=20), seed=42)
    path = tmp_path / "model.json"
    save_model(trained, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MODEL_SHA256


def _deep_model():
    """Five trees of 2k-2.6k nodes on 5000 rows with many repeated values."""
    rng = np.random.default_rng(20261021)
    X = rng.integers(-40, 41, size=(5000, 12)).astype(np.float64) / 4.0
    X[:, 3] = np.round(X[:, 3])  # coarse column: long runs of equal values
    X[:, 7] = np.where(X[:, 7] == 0.0, -0.0, X[:, 7])
    y = X[:, 0] + X[:, 1] + rng.normal(0, 6, size=len(X)) > 0
    names = tuple(f"f{i}" for i in range(X.shape[1]))
    return train_ensemble(X, y, names, EnsembleConfig(n_estimators=5), seed=7)


def _scored_matrix(model):
    """Rows on the deep model's value grid and past it, with NaN and +-inf
    cells, then three cells per row set to some split's own threshold."""
    rng = np.random.default_rng(20261023)
    X = rng.integers(-48, 49, size=(600, 12)).astype(np.float64) / 4.0
    for value, share in ((np.nan, 0.03), (np.inf, 0.02), (-np.inf, 0.02)):
        X[rng.random(X.shape) < share] = value
    X[-3:] = [[np.nan], [np.inf], [-np.inf]]
    splits = [(int(t.feature[node]), float(t.threshold[node]))
              for t in model.trees for node in np.flatnonzero(t.feature >= 0)]
    for row in range(len(X) - 3):
        for k in rng.choice(len(splits), size=3, replace=False):
            X[row, splits[k][0]] = splits[k][1]
    return X


def test_deep_tree_model_json_hash(tmp_path):
    trained = _deep_model()
    assert min(t.n_nodes for t in trained.trees) >= 1000
    path = tmp_path / "model.json"
    save_model(trained, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DEEP_MODEL_SHA256


def test_scores_hash():
    """The deep model's scores on NaN, +-inf and threshold-equal cells, by their bytes."""
    model = _deep_model()
    X = _scored_matrix(model)
    scores = model.predict_scores(X)
    assert hashlib.sha256(scores.tobytes()).hexdigest() == SCORES_SHA256
    assert [model.predict_score(X[i]) for i in (0, 1, 2, 597, 598, 599)] == SCORE_VALUES
    assert model.predict_scores(X[:0]).tobytes() == b""


def test_mrmr_ranking_hash():
    """All 323 features ranked on 60+60 pairs of a 30-cluster medium-density site."""
    fps = generate_site(
        site_config_for_density("medium", site_id="golden-mrmr", seed=2101, n_clusters=30)
    )
    pairs = sample_training_set(enumerate_pairs(fps), 60, 60, seed=2108)
    matrix = np.stack([extract(p).values for p in pairs])
    is_close = np.array([p.label is ProximityClass.CLOSE for p in pairs])
    ranked = mrmr_select(matrix, FEATURE_NAMES, is_close, len(FEATURE_NAMES))
    assert sorted(ranked) == sorted(FEATURE_NAMES)
    assert hashlib.sha256("\n".join(ranked).encode()).hexdigest() == MRMR_RANKING_SHA256


def _burst_sites():
    """A 3-cluster burst site per density, plus a medium one whose bursts are
    cut to 5-9 scans and whose scans come in shuffled order."""
    sites = [
        generate_site(SiteConfig(density, f"golden-burst-{density}", seed, n_clusters=3, bursts=True))
        for density, seed in (("low", 1101), ("medium", 2201), ("high", 3101))
    ]
    rng = np.random.default_rng(20261022)
    full = generate_site(SiteConfig("medium", "golden-burst-cut", 7, n_clusters=4, bursts=True))
    bursts = sorted({fp.burst_id for fp in full})
    keep = dict(zip(bursts, rng.integers(5, 10, size=len(bursts)).tolist()))
    cut = [fp for fp in full if fp.scan_index < keep[fp.burst_id]]
    sites.append([cut[i] for i in rng.permutation(len(cut))])
    return sites


def test_pseudo_fingerprint_hash(tmp_path):
    """``pairs --pseudo-out``'s aggregation: pseudo-fingerprint bytes and burst counts."""
    h = hashlib.sha256()
    for i, fps in enumerate(_burst_sites()):
        pseudos, report = split_all_sub_bursts(fps)
        path = tmp_path / f"pseudo{i}.jsonl"
        save_canonical(pseudos, path)
        h.update(path.read_bytes())
        h.update(f"{report.bursts_seen},{report.bursts_too_short}\n".encode())
    assert h.hexdigest() == PSEUDO_SHA256
