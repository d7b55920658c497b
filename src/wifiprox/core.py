"""Domain model shared by every other module.

A fingerprint is one Wi-Fi scan: a mapping from access-point BSSIDs to RSSI
values (dBm) plus position and device metadata.  All types are immutable
after construction and safe to share across parallel workers.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional

# Canonical AP identifier: lowercase colon-separated 6-octet hex, 17 chars.
BSSID_RE = re.compile(r"^[0-9a-f]{2}(?::[0-9a-f]{2}){5}$")

# (dataset_id, building_id, floor_id) — fingerprints are only ever compared
# within one floor subset.
FloorKey = tuple[str, str, str]


def is_canonical_bssid(bssid: str) -> bool:
    return len(bssid) == 17 and BSSID_RE.match(bssid) is not None


def normalize_bssid(raw: str) -> str:
    """Normalize a BSSID string to the canonical form.

    Accepts colon or dash separators and separator-free 12-digit hex; octets
    are zero-padded and lowercased.  Raises ValueError for anything that is
    not a 6-octet MAC address.
    """
    s = raw.strip().lower().replace("-", ":")
    if ":" in s:
        parts = s.split(":")
    elif len(s) == 12:
        parts = [s[i : i + 2] for i in range(0, 12, 2)]
    else:
        parts = []
    if len(parts) != 6:
        raise ValueError(f"not a 6-octet BSSID: {raw!r}")
    out = []
    for p in parts:
        if not p or len(p) > 2 or any(c not in "0123456789abcdef" for c in p):
            raise ValueError(f"bad octet {p!r} in BSSID {raw!r}")
        out.append(p.zfill(2))
    return ":".join(out)


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


@dataclass(frozen=True)
class Burst:
    """A rapid sequence of scans recorded at one position by one device."""

    burst_id: str
    scans: tuple[Fingerprint, ...]
    position: tuple[float, float]
    device_model: str

    def __post_init__(self) -> None:
        if not self.scans:
            raise ValueError(f"burst {self.burst_id!r} has no scans")
        first = self.scans[0]
        for fp in self.scans:
            if fp.position != self.position or fp.floor_key != first.floor_key:
                raise ValueError(f"burst {self.burst_id!r}: scans disagree on position/floor")
            if fp.device_model != self.device_model:
                raise ValueError(f"burst {self.burst_id!r}: scans disagree on device")
        indices = [fp.scan_index for fp in self.scans]
        if indices != list(range(len(self.scans))):
            raise ValueError(
                f"burst {self.burst_id!r}: scan indices {indices} not contiguous from 0"
            )

    @property
    def floor_key(self) -> FloorKey:
        return self.scans[0].floor_key


@dataclass(frozen=True)
class FingerprintPair:
    """Two same-floor fingerprints with ground-truth distance and label.

    Pairs are canonically ordered: the fingerprint with fewer detected APs
    comes first, ties broken by id ascending.  This makes every downstream
    feature invariant under argument swap.
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
        if self.distance_m < 0:
            raise ValueError("negative pair distance")
        key_a = (self.a.ap_count, self.a.id)
        key_b = (self.b.ap_count, self.b.id)
        if key_a > key_b:
            raise ValueError(
                "pair not canonically ordered (fewer-AP fingerprint must come first)"
            )

    @property
    def key(self) -> tuple[str, str]:
        return (self.a.id, self.b.id)


def shared_aps(a: Fingerprint, b: Fingerprint) -> list[str]:
    """APs detected in both fingerprints, sorted ascending by BSSID.

    This fixed order is what every shared-AP vector downstream is built in.
    """
    return sorted(a.ap_set & b.ap_set)
