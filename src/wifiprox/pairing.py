"""Pair enumeration with distance gates, class sampling, pair persistence.

Within each floor subset every unordered pair of distinct fingerprints is
considered; pairs land in CLOSE (d <= CLOSE_MAX_M) or FAR
(FAR_MIN_M <= d <= FAR_MAX_M) and everything else is dropped: the band
between the gates to keep borderline cases out of training, and anything
beyond FAR_MAX_M to focus on the near/far distinction that matters.
"""

from __future__ import annotations

import json
import math
import random
from itertools import combinations
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .core import Fingerprint, FingerprintPair, FloorKey, ProximityClass, open_utf8


#: the fixed distance gates in meters: Close up to the first, Far between the others
CLOSE_MAX_M = 2.25
FAR_MIN_M = 3.25
FAR_MAX_M = 20.0


class PairingConfig:
    """Labels a distance by the fixed gates.

    The gates are module constants rather than class attributes because
    ``classify`` runs once per combination, and CPython 3.11 does not
    specialize a class attribute read through ``self``: it cost about a
    fifth more per call.
    """

    def classify(self, distance_m: float) -> Optional[ProximityClass]:
        if 0 <= distance_m <= CLOSE_MAX_M:
            return ProximityClass.CLOSE
        if FAR_MIN_M <= distance_m <= FAR_MAX_M:
            return ProximityClass.FAR
        return None


def pair_distance(a: Fingerprint, b: Fingerprint) -> float:
    """2-D Euclidean distance in meters; fingerprints must share a floor."""
    if a.floor_key != b.floor_key:
        raise ValueError(f"cannot measure distance across floors: {a.id} vs {b.id}")
    return math.dist(a.position, b.position)


#: the pair constructor, which orders the two fingerprints itself
make_pair = FingerprintPair


def enumerate_pairs(fps: Sequence[Fingerprint]) -> list[FingerprintPair]:
    """Enumerate pairs across all floor subsets, labeled by the default gates.

    Fingerprints with no readings are not admitted to pairing.  Output order
    is deterministic: floors sorted, fingerprints sorted by id within each
    floor, pairs in combination order.
    """
    by_floor: dict[FloorKey, list[Fingerprint]] = {}
    for fp in fps:
        if not fp.readings:
            continue
        by_floor.setdefault(fp.floor_key, []).append(fp)
    gates = PairingConfig()
    pairs: list[FingerprintPair] = []
    for floor_key in sorted(by_floor):
        group = sorted(by_floor[floor_key], key=lambda fp: fp.id)
        for a, b in combinations(group, 2):
            d = math.dist(a.position, b.position)
            label = gates.classify(d)
            if label is None:
                continue
            pairs.append(FingerprintPair(a, b, d, label))
    return pairs


def sample_training_set(
    pairs: Sequence[FingerprintPair], n_close: int, n_far: int, seed: int
) -> list[FingerprintPair]:
    """Uniform per-class sample without replacement, deterministic given seed.

    The selection keeps the input's relative order; the pairs not selected
    form the evaluation pool (see :func:`holdout`).
    """
    close_idx = [i for i, p in enumerate(pairs) if p.label is ProximityClass.CLOSE]
    far_idx = [i for i, p in enumerate(pairs) if p.label is ProximityClass.FAR]
    if n_close > len(close_idx):
        raise ValueError(f"requested {n_close} Close pairs, only {len(close_idx)} available")
    if n_far > len(far_idx):
        raise ValueError(f"requested {n_far} Far pairs, only {len(far_idx)} available")
    rng = random.Random(seed)
    chosen = sorted(rng.sample(close_idx, n_close) + rng.sample(far_idx, n_far))
    return [pairs[i] for i in chosen]


def holdout(
    pairs: Sequence[FingerprintPair], selected: Sequence[FingerprintPair]
) -> list[FingerprintPair]:
    """Pairs not in ``selected``, in original order: the evaluation pool."""
    taken = {p.key for p in selected}
    return [p for p in pairs if p.key not in taken]


# ---------------------------------------------------------------------------
# Persistence: line-delimited records referencing fingerprint ids
# ---------------------------------------------------------------------------

def save_pairs(pairs: Iterable[FingerprintPair], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            rec = {
                "a": p.a.id,
                "b": p.b.id,
                "distance_m": p.distance_m,
                "label": p.label.value,
            }
            fh.write(json.dumps(rec, separators=(",", ":")))
            fh.write("\n")


def load_pairs(path: str | Path, fps: Sequence[Fingerprint]) -> list[FingerprintPair]:
    """Resolve a persisted pair file against a fingerprint collection.

    Each record's distance must be the one between its fingerprints' positions,
    exactly as :func:`enumerate_pairs` measures it, and its label the one the
    fixed gates give that distance.
    """
    by_id = {fp.id: fp for fp in fps}
    if len(by_id) != len(fps):
        raise ValueError("fingerprint ids are not unique; cannot resolve pairs")
    gates = PairingConfig()
    out: list[FingerprintPair] = []
    p = Path(path)
    with open_utf8(p) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                a = by_id[rec["a"]]
                b = by_id[rec["b"]]
                label = ProximityClass(rec["label"])
                distance = rec["distance_m"]
                if type(distance) not in (int, float):  # as saved: not "1.0", not true
                    raise ValueError(f"distance_m {distance!r} is not a number")
                pair = FingerprintPair(a, b, float(distance), label)
                apart = math.dist(a.position, b.position)
                if pair.distance_m != apart:
                    raise ValueError(
                        f"distance_m {pair.distance_m}, but the fingerprints are {apart} m apart"
                    )
                gated = gates.classify(pair.distance_m)
                if gated is not label:
                    raise ValueError(
                        f"{label.value} at {pair.distance_m} m, where the gates give "
                        f"{gated.value if gated else 'no label'}"
                    )
                out.append(pair)
            except KeyError as e:
                raise ValueError(f"{p}:{lineno}: unresolved reference or field {e}") from e
            except (TypeError, ValueError, OverflowError) as e:
                raise ValueError(f"{p}:{lineno}: bad pair record ({e})") from e
    return out
