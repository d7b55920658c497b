"""Domain model shared by every other module.

A fingerprint is one Wi-Fi scan: a mapping from access-point BSSIDs to RSSI
values (dBm) plus position and device metadata.  All types are immutable
after construction and safe to share across parallel workers.

It also owns what a BSSID looks like (``is_canonical_bssid``, written by
``bssid_from_int``) and the order in which a fingerprint lists its APs
(``Fingerprint.encoding``: by BSSID).
"""

from __future__ import annotations

import csv
import enum
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Optional, TextIO

import numpy as np

# Canonical BSSID: six lowercase 2-digit hex octets joined by ':'
_CANONICAL_RE = re.compile("[0-9a-f]{2}(:[0-9a-f]{2}){5}")

# (dataset_id, building_id, floor_id) — fingerprints are only ever compared
# within one floor subset.
FloorKey = tuple[str, str, str]


@contextmanager
def open_utf8(path, newline: Optional[str] = None) -> Iterator[TextIO]:
    """Open a UTF-8 text input; a byte that does not decode, a CSV field past
    ``csv``'s size limit or JSON nested past the recursion limit is a
    ValueError naming the file."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: not valid UTF-8 ({e.reason})") from e
        except (csv.Error, RecursionError) as e:
            raise ValueError(f"{path}: cannot be parsed ({e})") from e


def is_canonical_bssid(bssid: str) -> bool:
    return _CANONICAL_RE.fullmatch(bssid) is not None


def bssid_from_int(ap_id: int) -> str:
    """Map an anonymized integer AP id into the canonical BSSID space.

    Public localization datasets identify APs by column index rather than MAC
    address; encoding the integer into the low octets ("00:00:00:00:02:08"
    for 520) keeps AP identity a plain string equality across the codebase.
    """
    if ap_id < 0 or ap_id > 0xFFFFFFFFFFFF:
        raise ValueError(f"integer AP id out of 48-bit range: {ap_id}")
    h = f"{ap_id:012x}"
    return ":".join(h[i : i + 2] for i in range(0, 12, 2))


class ProximityClass(enum.Enum):
    """Binary proximity label; CLOSE is the positive class everywhere."""

    CLOSE = "Close"
    FAR = "Far"


@dataclass(frozen=True)
class Fingerprint:
    """One Wi-Fi scan: AP readings plus position/device/burst metadata.

    ``readings`` maps canonical BSSIDs to RSSI in dBm.  RSSI is kept as a
    float so burst aggregation can store even-count medians.
    """

    id: str
    readings: Mapping[str, float]
    position: tuple[float, float]
    floor_key: FloorKey
    device_model: str
    burst_id: Optional[str] = None
    scan_index: Optional[int] = None

    def __post_init__(self) -> None:
        for bssid, rssi in self.readings.items():
            if not is_canonical_bssid(bssid):
                raise ValueError(f"fingerprint {self.id!r}: non-canonical BSSID {bssid!r}")
            if not math.isfinite(rssi):
                raise ValueError(f"fingerprint {self.id!r}: non-finite RSSI for {bssid}")
        if not all(math.isfinite(c) for c in self.position):
            raise ValueError(f"fingerprint {self.id!r}: non-finite position")
        if self.scan_index is not None and self.scan_index < 0:
            raise ValueError(f"fingerprint {self.id!r}: negative scan_index")

    @property
    def ap_count(self) -> int:
        return len(self.readings)

    @cached_property
    def ap_set(self) -> frozenset[str]:
        return frozenset(self.readings)

    @cached_property
    def encoding(self) -> tuple[np.ndarray, np.ndarray]:
        """(BSSIDs ascending, their RSSIs in that order), both read-only
        because every pair that uses the fingerprint shares them."""
        bssids = sorted(self.readings)
        ids = np.array(bssids, dtype="<U17")
        rssi = np.array([self.readings[b] for b in bssids], dtype=np.float64)
        ids.setflags(write=False)
        rssi.setflags(write=False)
        return ids, rssi


@dataclass(frozen=True)
class FingerprintPair:
    """Two same-floor fingerprints with ground-truth distance and label.

    A pair puts itself in canonical order, however it is built: the
    fingerprint with fewer detected APs comes first, ties broken by id
    ascending.  This makes every downstream feature invariant under
    argument swap.
    """

    a: Fingerprint
    b: Fingerprint
    distance_m: float
    label: ProximityClass

    def __post_init__(self) -> None:
        if self.a.floor_key != self.b.floor_key:
            raise ValueError("paired fingerprints must share a floor subset")
        if self.a.id == self.b.id:
            raise ValueError("cannot pair a fingerprint with itself")
        if not 0 <= self.distance_m < math.inf:
            raise ValueError("negative pair distance" if self.distance_m < 0 else
                             f"non-finite pair distance {self.distance_m}")
        if (self.b.ap_count, self.b.id) < (self.a.ap_count, self.a.id):
            a = self.b
            object.__setattr__(self, "b", self.a)
            object.__setattr__(self, "a", a)

    @property
    def key(self) -> tuple[str, str]:
        return (self.a.id, self.b.id)

