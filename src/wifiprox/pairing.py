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
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import Fingerprint, FingerprintPair, FloorKey, ProximityClass, open_utf8


#: the fixed distance gates in meters: Close up to the first, Far between the others
CLOSE_MAX_M = 2.25
FAR_MIN_M = 3.25
FAR_MAX_M = 20.0


class PairingConfig:
    """Labels a distance by the fixed gates, which are module constants.

    ``enumerate_pairs`` gates combinations on vectorized distances and calls
    ``classify`` only to recheck a distance near a gate (``_gate_floor``);
    ``load_pairs`` calls it once per record, to check the record's label.
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


#: cells of one floor's upper triangle gated at a time (rows x columns),
#: and pairs turned into Python values at a time when iterating
_GATE_CELLS = 1 << 18
#: a vectorized distance this close to a gate, relative to it, is measured
#: again with ``math.dist``; numpy's ``hypot`` is within an ulp or two of it
_RECHECK = 1e-9


@dataclass(frozen=True, eq=False)
class Pairs(Sequence[FingerprintPair]):
    """Labeled pairs held as index arrays into a tuple of fingerprints.

    A pair object is built only when the sequence is indexed or iterated,
    with ``math.dist`` as its distance; a slice is a list of pair objects.
    ``combinations`` counts the same-floor combinations the enumeration
    considered.
    """

    fps: tuple[Fingerprint, ...]
    i: np.ndarray
    j: np.ndarray
    is_close: np.ndarray
    combinations: int

    def __len__(self) -> int:
        return len(self.i)

    def _pair(self, i: int, j: int, close: bool) -> FingerprintPair:
        a, b = self.fps[i], self.fps[j]
        label = ProximityClass.CLOSE if close else ProximityClass.FAR
        return FingerprintPair(a, b, math.dist(a.position, b.position), label)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[m] for m in range(*k.indices(len(self)))]
        return self._pair(int(self.i[k]), int(self.j[k]), bool(self.is_close[k]))

    def __iter__(self) -> Iterator[FingerprintPair]:
        for start in range(0, len(self), _GATE_CELLS):
            rows = slice(start, start + _GATE_CELLS)
            for i, j, close in zip(self.i[rows].tolist(), self.j[rows].tolist(),
                                   self.is_close[rows].tolist()):
                yield self._pair(i, j, close)

    def take(self, rows: np.ndarray) -> "Pairs":
        """The pairs at ``rows`` (indices or a mask), in that order."""
        return Pairs(self.fps, self.i[rows], self.j[rows], self.is_close[rows],
                     self.combinations)


def _gate_floor(group: Sequence[Fingerprint]) -> Iterator[tuple[np.ndarray, ...]]:
    """(i, j, is_close) of each kept combination of ``group``, in combination order.

    Blocks of rows of the upper triangle are gated at once on ``hypot``;
    a distance near a gate is measured again with ``math.dist``, so every
    label is the one ``PairingConfig().classify(math.dist(...))`` gives.  No
    distance is negative, so the lower end of the Close gate needs no recheck.
    """
    gates = PairingConfig()
    pos = np.array([fp.position for fp in group], dtype=np.float64)
    n = len(group)
    step = max(1, _GATE_CELLS // max(n, 1))
    for r0 in range(0, n - 1, step):
        r1 = min(r0 + step, n - 1)
        rows = np.arange(r0, r1)[:, None]
        d = np.hypot(pos[r0:r1, None, 0] - pos[None, r0 + 1:, 0],
                     pos[r0:r1, None, 1] - pos[None, r0 + 1:, 1])
        upper = np.arange(r0 + 1, n) > rows
        close = d <= CLOSE_MAX_M
        keep = upper & (close | ((d >= FAR_MIN_M) & (d <= FAR_MAX_M)))
        near = np.abs(d - CLOSE_MAX_M) <= _RECHECK * CLOSE_MAX_M
        near |= np.abs(d - FAR_MIN_M) <= _RECHECK * FAR_MIN_M
        near |= np.abs(d - FAR_MAX_M) <= _RECHECK * FAR_MAX_M
        for r, c in zip(*np.nonzero(near & upper)):
            label = gates.classify(math.dist(group[r0 + r].position, group[r0 + 1 + c].position))
            keep[r, c] = label is not None
            close[r, c] = label is ProximityClass.CLOSE
        r, c = np.nonzero(keep)
        yield (r + r0).astype(np.int32), (c + r0 + 1).astype(np.int32), close[r, c]


def enumerate_pairs(fps: Sequence[Fingerprint]) -> Pairs:
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
    admitted: list[Fingerprint] = []
    parts = [(np.empty(0, np.int32), np.empty(0, np.int32), np.empty(0, bool))]
    combinations = 0
    for floor_key in sorted(by_floor):
        group = sorted(by_floor[floor_key], key=lambda fp: fp.id)
        combinations += len(group) * (len(group) - 1) // 2
        ids = np.array([fp.id for fp in group], dtype=object)
        repeats = len(set(ids)) < len(ids)
        for i, j, close in _gate_floor(group):
            if repeats and (ids[i] == ids[j]).any():
                raise ValueError("cannot pair a fingerprint with itself")
            parts.append((i + len(admitted), j + len(admitted), close))
        admitted += group
    i, j, close = (np.concatenate(column) for column in zip(*parts))
    return Pairs(tuple(admitted), i, j, close, combinations)


def sample_training_set(pairs: Pairs, n_close: int, n_far: int, seed: int) -> Pairs:
    """Uniform per-class sample without replacement, deterministic given seed.

    The selection keeps the input's relative order; the pairs not selected
    form the evaluation pool (see :func:`holdout`).
    """
    close_idx = np.flatnonzero(pairs.is_close).tolist()
    far_idx = np.flatnonzero(~pairs.is_close).tolist()
    if n_close > len(close_idx):
        raise ValueError(f"requested {n_close} Close pairs, only {len(close_idx)} available")
    if n_far > len(far_idx):
        raise ValueError(f"requested {n_far} Far pairs, only {len(far_idx)} available")
    rng = random.Random(seed)
    chosen = sorted(rng.sample(close_idx, n_close) + rng.sample(far_idx, n_far))
    return pairs.take(np.array(chosen, dtype=np.intp))


def holdout(pairs: Pairs, selected: Pairs) -> Pairs:
    """Pairs not in ``selected``, in original order: the evaluation pool.

    ``selected`` is a sample of ``pairs``: a pair is the same fingerprints.
    """
    n = len(pairs.fps)
    taken = np.isin(pairs.i.astype(np.int64) * n + pairs.j,
                    selected.i.astype(np.int64) * n + selected.j)
    return pairs.take(~taken)


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
