"""Synthetic site generator: physics, determinism, presets, burst mode."""

import numpy as np
import pytest

from wifiprox.core import Burst
from wifiprox.ingest import group_bursts
from wifiprox.synth import (
    DENSITY_PRESETS,
    DETECT_THRESHOLD_DBM,
    DEVICES_PER_POSITION,
    POSITIONS_PER_CLUSTER,
    SCANS_PER_BURST,
    SiteConfig,
    generate_site,
    path_loss_rssi,
    site_config_for_density,
)


class TestPathLoss:
    def test_hand_values(self):
        # at the reference distance the mean power is tx; each decade of
        # distance costs 10*n dB
        assert path_loss_rssi(1.0, -40.0, exponent=3.0) == -40.0
        assert path_loss_rssi(10.0, -40.0, exponent=3.0) == pytest.approx(-70.0)
        assert path_loss_rssi(100.0, -40.0, exponent=2.0) == pytest.approx(-80.0)

    def test_clamped_below_reference(self):
        assert path_loss_rssi(0.01, -40.0, exponent=3.0) == -40.0

    def test_vectorized(self):
        out = path_loss_rssi(np.array([1.0, 10.0]), -40.0, exponent=2.0)
        np.testing.assert_allclose(out, [-40.0, -60.0])

    def test_monotone_in_distance(self):
        d = np.linspace(1, 50, 200)
        rssi = path_loss_rssi(d, -40.0, exponent=3.0)
        assert np.all(np.diff(rssi) < 0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="site_id"):
            SiteConfig(site_id="", seed=0)
        with pytest.raises(ValueError, match="counts"):
            SiteConfig(site_id="s", seed=0, ap_count=0)
        with pytest.raises(ValueError, match="area too small"):
            SiteConfig(site_id="s", seed=0, area_w_m=2.0)  # the cluster disk is 2 m across
        with pytest.raises(ValueError, match="dropout"):
            SiteConfig(site_id="s", seed=0, dropout_prob=1.0)
        with pytest.raises(ValueError, match="device_pool"):
            SiteConfig(site_id="s", seed=0, device_pool=())

    def test_density_presets_cover_regimes(self):
        assert set(DENSITY_PRESETS) == {"low", "medium", "high"}
        counts = {d: DENSITY_PRESETS[d]["ap_count"] for d in DENSITY_PRESETS}
        assert counts["low"] < counts["medium"] < counts["high"]
        # regimes differ in propagation too, not only in AP count
        exps = {DENSITY_PRESETS[d]["path_loss_exponent"] for d in DENSITY_PRESETS}
        assert len(exps) == 3

    def test_site_config_for_density_applies_overrides(self):
        cfg = site_config_for_density("low", site_id="s", seed=1, noise_sigma_db=9.0)
        assert cfg.ap_count == DENSITY_PRESETS["low"]["ap_count"]
        assert cfg.noise_sigma_db == 9.0

    def test_unknown_density_rejected(self):
        with pytest.raises(ValueError, match="unknown density"):
            site_config_for_density("ultra", site_id="s", seed=1)


def _small_cfg(**kw):
    base = dict(
        site_id="t",
        seed=7,
        ap_count=12,
        n_clusters=4,
    )
    base.update(kw)
    return SiteConfig(**base)


class TestGenerateSite:
    def test_deterministic(self):
        a = generate_site(_small_cfg())
        b = generate_site(_small_cfg())
        assert [fp.id for fp in a] == [fp.id for fp in b]
        assert all(x.readings == y.readings for x, y in zip(a, b))
        c = generate_site(_small_cfg(seed=8))
        assert any(x.readings != y.readings for x, y in zip(a, c))

    def test_population_and_metadata(self):
        cfg = _small_cfg()
        fps = generate_site(cfg)
        assert len(fps) <= cfg.n_clusters * POSITIONS_PER_CLUSTER * DEVICES_PER_POSITION
        assert len(fps) > 0
        for fp in fps:
            assert fp.floor_key == ("t", "0", "0")
            assert 0 <= fp.position[0] <= cfg.area_w_m
            assert 0 <= fp.position[1] <= cfg.area_h_m
            assert fp.device_model in {m for m, _, _ in cfg.device_pool}
            assert fp.burst_id is None
            for rssi in fp.readings.values():
                assert rssi == int(rssi)  # integer-quantized like real scans
                assert rssi >= DETECT_THRESHOLD_DBM

    def test_nearby_positions_see_stronger_signals(self):
        # RSSI should decay with distance on average: correlate the mean
        # reading with distance to the area center as a crude physics check
        fps = generate_site(_small_cfg(ap_count=40))
        strengths = [np.mean(list(fp.readings.values())) for fp in fps if fp.readings]
        assert np.std(strengths) > 0.5  # spatial structure, not constant output

    def test_density_presets_produce_expected_ap_counts(self):
        low = generate_site(site_config_for_density("low", site_id="l", seed=3))
        high = generate_site(site_config_for_density("high", site_id="h", seed=3))
        mean_low = np.mean([fp.ap_count for fp in low])
        mean_high = np.mean([fp.ap_count for fp in high])
        assert 5 <= mean_low <= 15
        assert 60 <= mean_high <= 90
        assert mean_low < mean_high / 3

    def test_burst_mode_produces_contiguous_bursts(self):
        cfg = _small_cfg(bursts=True, n_clusters=2)
        fps = generate_site(cfg)
        bursts = group_bursts(fps)
        assert all(isinstance(b, Burst) for b in bursts)
        assert all(len(b.scans) == SCANS_PER_BURST for b in bursts)
        assert len(bursts) == 2 * POSITIONS_PER_CLUSTER * DEVICES_PER_POSITION
        # scan ids are derived from the burst stem
        for b in bursts:
            assert all(fp.id.startswith(b.burst_id) for fp in b.scans)

    def test_non_burst_mode_drops_empty_scans(self):
        # brutal dropout: most scans empty, none of the emitted ones empty
        cfg = _small_cfg(dropout_prob=0.99)
        fps = generate_site(cfg)
        assert all(fp.readings for fp in fps)
