"""Golden hashes: feature values and model JSON pinned bit for bit.

The hashes were recorded from the implementation these tests guard and
must not be edited to make a refactor pass.  A change that is meant to move
a value (for example one ULP in a rewritten kernel) says so and records
new hashes together with the largest difference.  Recorded with numpy 2.4
and scipy 1.17 on x86-64.
"""

import hashlib

import numpy as np

from wifiprox.core import ProximityClass
from wifiprox.features import FEATURE_NAMES, extract
from wifiprox.model import EnsembleConfig, save_model, train_ensemble
from wifiprox.pairing import make_pair

from conftest import bss, make_fp, random_readings

FUZZ_SHA256 = "13d176eb6af9012b90043e18fbb7a02ffc7911034c4d2f2897c193ddb5540937"
DENSE_SHA256 = "0c9397c9804d115bc0701d462b75b980bbef30cb83868bf52050d13128228e3c"
MODEL_SHA256 = "0bd1147a37464ab39774d92d5a05d479e2040ec56f3eb3c8ea3aeb0943245bca"


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


def test_model_json_hash(tmp_path):
    X = np.stack([extract(p).values for p in _fuzz_pairs()])
    y = np.random.default_rng(20261020).integers(0, 2, size=len(X)).astype(bool)
    trained = train_ensemble(X, y, FEATURE_NAMES, EnsembleConfig(n_estimators=20), seed=42)
    path = tmp_path / "model.json"
    save_model(trained, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MODEL_SHA256
