"""Fingerprint loading: canonical JSONL, a wide-CSV adapter, burst handling.

The canonical on-disk format is line-delimited JSON, one scan per line:

    {"id": str, "dataset": str, "building": str, "floor": str,
     "x_m": num, "y_m": num, "device": str, "burst": str|null,
     "scan": int|null, "aps": [{"bssid": str, "rssi": num}, ...]}

The wide-CSV adapter turns one-row-per-scan matrix datasets (AP columns
sharing a prefix, a "not detected" sentinel value) into the same in-memory
model.  Rows whose AP cells are all sentinel carry no information and are
skipped; skips are always counted, never silent.
"""

from __future__ import annotations

import csv
import json
import statistics
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .core import Burst, Fingerprint, FloorKey, bssid_from_int, normalize_bssid, open_utf8


class ParseError(ValueError):
    """Malformed input file; message carries file/line context."""


class ManifestError(ValueError):
    """Bad or incomplete dataset manifest."""


@dataclass
class SkipReport:
    """Counts of rows read, loaded and dropped during ingestion. Never silent."""

    rows_read: int = 0
    loaded: int = 0
    skipped_empty: int = 0


@dataclass
class BurstReport:
    """Counts of bursts seen and dropped as too short for sub-bursts. Never silent."""

    bursts_seen: int = 0
    bursts_too_short: int = 0


#: the values each annotated manifest field accepts (annotations are strings here)
_MANIFEST_KINDS = {"str": str, "Optional[str]": (str, type(None)), "float": (int, float)}


@dataclass(frozen=True)
class DatasetManifest:
    """Where a dataset lives and how to decode it.

    ``path`` is resolved relative to the manifest file when loaded with
    :func:`load_manifest`.  Column names only apply to ``wide_csv``; the
    coordinate unit scale converts dataset units into meters.
    """

    dataset_id: str
    format: str  # "canonical_jsonl" | "wide_csv"
    path: Path
    not_detected_sentinel: float = 100.0
    ap_column_prefix: str = "WAP"
    x_column: str = "LONGITUDE"
    y_column: str = "LATITUDE"
    unit_scale_to_m: float = 1.0
    device_column: Optional[str] = None
    building_column: Optional[str] = None
    floor_column: Optional[str] = None
    burst_column: Optional[str] = None
    scan_column: Optional[str] = None
    device_default: str = "unknown"
    building_default: str = "0"
    floor_default: str = "0"

    def __post_init__(self) -> None:
        for f in fields(self):
            value, kinds = getattr(self, f.name), _MANIFEST_KINDS.get(f.type)
            if kinds and (not isinstance(value, kinds) or isinstance(value, bool)):
                raise ManifestError(f"{f.name} must be {f.type}, got {value!r}")
        if self.format not in ("canonical_jsonl", "wide_csv"):
            raise ManifestError(f"unknown dataset format {self.format!r}")
        if self.unit_scale_to_m <= 0:
            raise ManifestError("unit_scale_to_m must be > 0")


def load_manifest(path: str | Path) -> DatasetManifest:
    """Read a JSON manifest; the data path is resolved against its directory."""
    p = Path(path)
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ManifestError(f"{p}: not valid JSON ({e})") from e
    if not isinstance(doc, dict):
        raise ManifestError(f"{p}: manifest must be a JSON object")
    known = set(DatasetManifest.__dataclass_fields__)
    unknown = set(doc) - known
    if unknown:
        raise ManifestError(f"{p}: unknown manifest keys {sorted(unknown)}")
    for key in ("dataset_id", "format", "path"):
        if key not in doc:
            raise ManifestError(f"{p}: missing required key {key!r}")
    doc = dict(doc)
    try:
        doc["path"] = (p.parent / doc["path"]).resolve()
        manifest = DatasetManifest(**doc)
    except (ManifestError, TypeError) as e:
        raise ManifestError(f"{p}: {e}") from None
    if not manifest.path.exists():
        raise ManifestError(f"{p}: data file {manifest.path} does not exist")
    return manifest


# ---------------------------------------------------------------------------
# Canonical JSONL
# ---------------------------------------------------------------------------

def _fingerprint_from_record(rec: dict, where: str) -> Fingerprint:
    try:
        aps = rec["aps"]
        readings: dict[str, float] = {}
        for ap in aps:
            bssid = normalize_bssid(str(ap["bssid"]))
            if bssid in readings:
                raise ParseError(f"{where}: duplicate BSSID {bssid} in one scan")
            readings[bssid] = float(ap["rssi"])
        scan = rec.get("scan")
        # as saved: neither 1.7, "1" nor true passes for scan 1
        if scan is not None and type(scan) is not int:
            raise ValueError(f"scan {scan!r} is not an integer")
        return Fingerprint(
            id=str(rec["id"]),
            readings=readings,
            position=(float(rec["x_m"]), float(rec["y_m"])),
            floor_key=(str(rec["dataset"]), str(rec["building"]), str(rec["floor"])),
            device_model=str(rec["device"]),
            burst_id=None if rec.get("burst") is None else str(rec["burst"]),
            scan_index=scan,
        )
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"{where}: bad record ({e})") from e


def load_canonical(path: str | Path) -> list[Fingerprint]:
    """Load a canonical JSONL fingerprint file.

    Any malformed line, invariant violation or repeated fingerprint id raises
    :class:`ParseError` naming the offending line; an empty file yields an
    empty list.
    """
    out: list[Fingerprint] = []
    line_of: dict[str, int] = {}
    p = Path(path)
    with open_utf8(p) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(f"{p}:{lineno}: malformed JSON ({e})") from e
            fp = _fingerprint_from_record(rec, f"{p}:{lineno}")
            if line_of.setdefault(fp.id, lineno) != lineno:
                raise ParseError(f"{p}:{lineno}: repeats id {fp.id!r} from line {line_of[fp.id]}")
            out.append(fp)
    return out


def _record_from_fingerprint(fp: Fingerprint) -> dict:
    return {
        "id": fp.id,
        "dataset": fp.floor_key[0],
        "building": fp.floor_key[1],
        "floor": fp.floor_key[2],
        "x_m": fp.position[0],
        "y_m": fp.position[1],
        "device": fp.device_model,
        "burst": fp.burst_id,
        "scan": fp.scan_index,
        "aps": [{"bssid": b, "rssi": fp.readings[b]} for b in sorted(fp.readings)],
    }


def save_canonical(fps: Iterable[Fingerprint], path: str | Path) -> None:
    """Write fingerprints in canonical JSONL; deterministic field and AP order."""
    with open(path, "w", encoding="utf-8") as fh:
        for fp in fps:
            fh.write(json.dumps(_record_from_fingerprint(fp), separators=(",", ":")))
            fh.write("\n")


# ---------------------------------------------------------------------------
# Wide-CSV adapter
# ---------------------------------------------------------------------------

def _ap_column_bssid(name: str, prefix: str, ordinal: int) -> str:
    suffix = name[len(prefix):]
    if suffix.isdigit():
        return bssid_from_int(int(suffix))
    return bssid_from_int(ordinal)


def load_wide_csv(manifest: DatasetManifest) -> tuple[list[Fingerprint], SkipReport]:
    """Load a wide-matrix CSV dataset per its manifest.

    Each row becomes one fingerprint; AP cells equal to the sentinel mean
    "not detected".  Rows with no detected AP are skipped and counted.
    """
    if manifest.format != "wide_csv":
        raise ManifestError(f"manifest {manifest.dataset_id!r} is not wide_csv")
    report = SkipReport()
    fps: list[Fingerprint] = []
    with open_utf8(manifest.path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{manifest.path}: empty CSV (no header)") from None
        header = [h.strip() for h in header]
        col_index = {name: i for i, name in enumerate(header)}

        ap_cols: list[tuple[int, str]] = []
        ordinal = 0
        for i, name in enumerate(header):
            if name.startswith(manifest.ap_column_prefix):
                ordinal += 1
                ap_cols.append((i, _ap_column_bssid(name, manifest.ap_column_prefix, ordinal)))
        if not ap_cols:
            raise ManifestError(
                f"{manifest.path}: no columns with AP prefix {manifest.ap_column_prefix!r}"
            )

        def require(col: Optional[str], what: str) -> Optional[int]:
            if col is None:
                return None
            if col not in col_index:
                raise ManifestError(f"{manifest.path}: missing configured {what} column {col!r}")
            return col_index[col]

        ix = require(manifest.x_column, "x")
        iy = require(manifest.y_column, "y")
        idev = require(manifest.device_column, "device")
        ibld = require(manifest.building_column, "building")
        iflr = require(manifest.floor_column, "floor")
        ibst = require(manifest.burst_column, "burst")
        iscn = require(manifest.scan_column, "scan")

        sentinel = float(manifest.not_detected_sentinel)
        for rowno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"{manifest.path}:{rowno}: expected {len(header)} cells, got {len(row)}"
                )
            report.rows_read += 1
            readings: dict[str, float] = {}
            for i, bssid in ap_cols:
                cell = row[i].strip()
                if not cell:
                    continue
                try:
                    rssi = float(cell)
                except ValueError:
                    raise ParseError(
                        f"{manifest.path}:{rowno}: non-numeric RSSI cell {cell!r}"
                    ) from None
                if rssi != sentinel:
                    readings[bssid] = rssi
            if not readings:
                report.skipped_empty += 1
                continue
            floor_key: FloorKey = (
                manifest.dataset_id,
                row[ibld].strip() if ibld is not None else manifest.building_default,
                row[iflr].strip() if iflr is not None else manifest.floor_default,
            )
            try:
                fp = Fingerprint(
                    id=f"{manifest.dataset_id}:{rowno}",
                    readings=readings,
                    position=(
                        float(row[ix]) * manifest.unit_scale_to_m,
                        float(row[iy]) * manifest.unit_scale_to_m,
                    ),
                    floor_key=floor_key,
                    device_model=(
                        row[idev].strip() if idev is not None else manifest.device_default
                    ),
                    burst_id=row[ibst].strip() if ibst is not None else None,
                    scan_index=int(row[iscn]) if iscn is not None else None,
                )
            except ValueError as e:  # a coordinate or scan cell that does not parse
                raise ParseError(f"{manifest.path}:{rowno}: {e}") from None
            fps.append(fp)
            report.loaded += 1
    return fps, report


def load_dataset(manifest: DatasetManifest) -> tuple[list[Fingerprint], SkipReport]:
    """Dispatch on manifest format; canonical loads never skip rows."""
    if manifest.format == "canonical_jsonl":
        fps = load_canonical(manifest.path)
        report = SkipReport(rows_read=len(fps), loaded=len(fps))
        return fps, report
    return load_wide_csv(manifest)


# ---------------------------------------------------------------------------
# Bursts and pseudo-fingerprints
# ---------------------------------------------------------------------------

def group_bursts(fps: Sequence[Fingerprint]) -> list[Burst]:
    """Group fingerprints into bursts, one per distinct (floor_key, burst_id).

    Every fingerprint must carry burst metadata; scans are ordered by
    scan_index and burst invariants (shared position/device, contiguous
    indices) are enforced.
    """
    groups: dict[tuple[FloorKey, str], list[Fingerprint]] = {}
    for fp in fps:
        if fp.burst_id is None or fp.scan_index is None:
            raise ValueError(f"fingerprint {fp.id!r} lacks burst_id/scan_index")
        groups.setdefault((fp.floor_key, fp.burst_id), []).append(fp)
    bursts = []
    for (floor_key, burst_id), scans in sorted(groups.items()):
        scans.sort(key=lambda fp: fp.scan_index)
        bursts.append(
            Burst(
                burst_id=burst_id,
                scans=tuple(scans),
                position=scans[0].position,
                device_model=scans[0].device_model,
            )
        )
    return bursts


SUB_BURST_SIZE = 4


def _aggregate_scans(
    burst: Burst, scans: Sequence[Fingerprint], sub_index: int
) -> Fingerprint:
    """Pseudo-fingerprint: per-AP median aggregation of a sub-burst of scans.

    Contains every AP detected in at least one source scan; the RSSI for an
    AP is the median of its observations across the scans that detected it
    (even counts average the two middle values, hence float RSSI).  The id
    names the burst and the half (``...:<burst>:sub<sub_index>``).
    """
    by_ap: dict[str, list[float]] = {}
    for fp in scans:
        for bssid, rssi in fp.readings.items():
            by_ap.setdefault(bssid, []).append(rssi)
    readings = {bssid: float(statistics.median(vals)) for bssid, vals in by_ap.items()}
    fk = burst.floor_key
    return Fingerprint(
        id=f"{fk[0]}:{fk[1]}:{fk[2]}:{burst.burst_id}:sub{sub_index}",
        readings=readings,
        position=burst.position,
        floor_key=fk,
        device_model=burst.device_model,
        burst_id=burst.burst_id,
        scan_index=sub_index,
    )


def split_sub_bursts(burst: Burst) -> tuple[Fingerprint, Fingerprint]:
    """Split one burst into two 4-scan pseudo-fingerprints.

    The first aggregates scans 0-3, the second scans 4-7; the ninth scan
    (and anything beyond) is discarded.  Bursts shorter than 8 scans are an
    error here; batch callers skip and count them instead.
    """
    if len(burst.scans) < 2 * SUB_BURST_SIZE:
        raise ValueError(
            f"burst {burst.burst_id!r} has {len(burst.scans)} scans; need at least 8"
        )
    first = _aggregate_scans(burst, burst.scans[:SUB_BURST_SIZE], 0)
    second = _aggregate_scans(burst, burst.scans[SUB_BURST_SIZE : 2 * SUB_BURST_SIZE], 1)
    return first, second


def split_all_sub_bursts(bursts: Sequence[Burst]) -> tuple[list[Fingerprint], BurstReport]:
    """Split every burst long enough; short bursts are counted, not fatal."""
    report = BurstReport()
    pseudos: list[Fingerprint] = []
    for burst in bursts:
        report.bursts_seen += 1
        if len(burst.scans) < 2 * SUB_BURST_SIZE:
            report.bursts_too_short += 1
            continue
        pseudos.extend(split_sub_bursts(burst))
    return pseudos, report
