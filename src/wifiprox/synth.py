"""Synthetic Wi-Fi survey generator for pipeline exercises and experiments.

A site is a rectangle with APs scattered uniformly and survey positions
grouped into small clusters (so the pair enumeration finds plenty of Close
pairs inside clusters and Far pairs across them).  Received power follows
the log-distance path-loss model

    rssi(d) = tx - 10 * n * log10(max(d, d0) / d0) + noise

with Gaussian shadowing noise, per-device gain/offset heterogeneity, and
integer-quantized readings; an AP is detected only at or above
``DETECT_THRESHOLD_DBM``, minus occasional dropouts.  AP density presets
roughly track real deployments: low ~ 5-15 APs per fingerprint, medium ~
30-70, high ~ 70-90.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Fingerprint, bssid_from_int

#: survey positions are uniform over a disk of this radius around each cluster center
CLUSTER_RADIUS_M = 1.0
#: survey positions in each cluster
POSITIONS_PER_CLUSTER = 5
#: devices scanning at each survey position
DEVICES_PER_POSITION = 2
#: scans in one burst (with ``bursts``)
SCANS_PER_BURST = 9
#: standard deviation of each AP's transmit power around ``tx_power_dbm``
TX_JITTER_DB = 2.0
#: path-loss reference distance d0; closer positions receive the power at d0
REFERENCE_DISTANCE_M = 1.0
#: weakest reading a scan reports
DETECT_THRESHOLD_DBM = -88.0

#: (model name, rssi gain, rssi offset in dB) -- mild receiver heterogeneity
DEVICE_POOL: tuple[tuple[str, float, float], ...] = (
    ("pixel-4", 1.0, 0.0),
    ("sm-g960", 0.93, -3.0),
    ("moto-g7", 1.05, 2.0),
    ("redmi-7", 0.97, -5.0),
)

#: Bundled environment presets by AP density.  These deliberately differ in
#: more than AP count -- propagation exponent, shadowing noise, dropout,
#: geometry, and device mix all shift between regimes, the way a rural home,
#: an office block, and a dense campus would differ in reality.
DENSITY_PRESETS: dict[str, dict] = {
    "low": dict(
        ap_count=14,
        path_loss_exponent=2.6,
        noise_sigma_db=4.5,
        dropout_prob=0.06,
        area_w_m=46.0,
        area_h_m=30.0,
        device_pool=(
            ("pixel-4", 1.0, 0.0),
            ("nokia-7", 0.82, -7.0),
            ("mi-8", 1.12, 4.0),
        ),
    ),
    "medium": dict(
        ap_count=48,
        path_loss_exponent=3.2,
        noise_sigma_db=5.5,
        dropout_prob=0.04,
        area_w_m=40.0,
        area_h_m=25.0,
        device_pool=(
            ("sm-g960", 0.9, -5.0),
            ("pixel-xl", 1.18, 6.0),
            ("lg-v30", 0.78, -9.0),
        ),
    ),
    "high": dict(
        ap_count=90,
        path_loss_exponent=3.8,
        noise_sigma_db=6.5,
        dropout_prob=0.02,
        # enterprise-grade ceiling APs radiate harder, so even with the steep
        # exponent most of the deployment stays above the detection floor
        tx_power_dbm=-30.0,
        area_w_m=34.0,
        area_h_m=22.0,
        device_pool=(
            ("iphone-se", 1.08, 5.0),
            ("moto-g7", 0.85, -8.0),
            ("oneplus-6", 1.2, 3.0),
        ),
    ),
}


def site_config_for_density(density: str, site_id: str, seed: int, **overrides) -> "SiteConfig":
    """SiteConfig from a density preset, with explicit overrides on top."""
    if density not in DENSITY_PRESETS:
        raise ValueError(f"unknown density {density!r}; choose from {sorted(DENSITY_PRESETS)}")
    kwargs = dict(DENSITY_PRESETS[density])
    kwargs.update(overrides)
    return SiteConfig(site_id=site_id, seed=seed, **kwargs)


@dataclass(frozen=True)
class SiteConfig:
    site_id: str
    seed: int
    ap_count: int = 48
    area_w_m: float = 40.0
    area_h_m: float = 25.0
    n_clusters: int = 70
    bursts: bool = False
    tx_power_dbm: float = -40.0
    path_loss_exponent: float = 3.0
    noise_sigma_db: float = 3.5
    dropout_prob: float = 0.02
    device_pool: tuple[tuple[str, float, float], ...] = DEVICE_POOL

    def __post_init__(self) -> None:
        if not self.site_id:
            raise ValueError("site_id must be nonempty")
        if min(self.ap_count, self.n_clusters) < 1:
            raise ValueError("counts must all be >= 1")
        if min(self.area_w_m, self.area_h_m) <= 2 * CLUSTER_RADIUS_M:
            raise ValueError("area too small for the cluster radius")
        if self.path_loss_exponent <= 0:
            raise ValueError("path_loss_exponent must be positive")
        if not 0 <= self.dropout_prob < 1:
            raise ValueError("dropout_prob must be in [0, 1)")
        if self.noise_sigma_db < 0:
            raise ValueError("noise_sigma_db must be >= 0")
        if not self.device_pool:
            raise ValueError("device_pool must be nonempty")


def path_loss_rssi(
    distance_m: float | np.ndarray, tx_power_dbm: float | np.ndarray, exponent: float
) -> np.ndarray:
    """Mean received power at a distance under log-distance path loss."""
    d = np.maximum(np.asarray(distance_m, dtype=np.float64), REFERENCE_DISTANCE_M)
    return np.asarray(tx_power_dbm) - 10.0 * exponent * np.log10(d / REFERENCE_DISTANCE_M)


def generate_site(cfg: SiteConfig) -> list[Fingerprint]:
    """Deterministically generate all fingerprints for one site."""
    rng = np.random.default_rng(cfg.seed)
    floor_key = (cfg.site_id, "0", "0")

    ap_xy = rng.uniform(
        [0.0, 0.0], [cfg.area_w_m, cfg.area_h_m], size=(cfg.ap_count, 2)
    )
    ap_tx = cfg.tx_power_dbm + rng.normal(0.0, TX_JITTER_DB, cfg.ap_count)
    bssids = [bssid_from_int(i + 1) for i in range(cfg.ap_count)]

    r = CLUSTER_RADIUS_M
    centers = rng.uniform(
        [r, r], [cfg.area_w_m - r, cfg.area_h_m - r], size=(cfg.n_clusters, 2)
    )

    pool = cfg.device_pool
    out: list[Fingerprint] = []
    for ci in range(cfg.n_clusters):
        for pi in range(POSITIONS_PER_CLUSTER):
            # uniform over the cluster disk
            rad = r * math.sqrt(rng.uniform())
            ang = rng.uniform(0.0, 2.0 * math.pi)
            pos = (
                float(centers[ci, 0] + rad * math.cos(ang)),
                float(centers[ci, 1] + rad * math.sin(ang)),
            )
            dist = np.hypot(ap_xy[:, 0] - pos[0], ap_xy[:, 1] - pos[1])
            true_rssi = path_loss_rssi(dist, ap_tx, cfg.path_loss_exponent)
            for di in range(DEVICES_PER_POSITION):
                model, gain, offset = pool[int(rng.integers(len(pool)))]
                stem = f"{cfg.site_id}:c{ci:03d}p{pi}d{di}"
                n_scans = SCANS_PER_BURST if cfg.bursts else 1
                for si in range(n_scans):
                    measured = (
                        gain * true_rssi
                        + offset
                        + rng.normal(0.0, cfg.noise_sigma_db, cfg.ap_count)
                    )
                    measured = np.rint(measured)
                    detected = (measured >= DETECT_THRESHOLD_DBM) & (
                        rng.uniform(size=cfg.ap_count) >= cfg.dropout_prob
                    )
                    readings = {
                        bssids[ai]: float(measured[ai])
                        for ai in np.nonzero(detected)[0]
                    }
                    # empty scans are kept inside bursts so scan indices stay
                    # contiguous; standalone empty scans are just dropped
                    if not readings and not cfg.bursts:
                        continue
                    out.append(
                        Fingerprint(
                            id=f"{stem}s{si}" if cfg.bursts else stem,
                            readings=readings,
                            position=pos,
                            floor_key=floor_key,
                            device_model=model,
                            burst_id=stem if cfg.bursts else None,
                            scan_index=si if cfg.bursts else None,
                        )
                    )
    return out
