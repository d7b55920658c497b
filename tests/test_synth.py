"""Synthetic site generator: physics, determinism, presets, burst mode."""

from collections import Counter

import numpy as np
import pytest

from wifiprox.ingest import split_all_sub_bursts
from wifiprox.synth import (
    CLUSTER_RADIUS_M,
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
            SiteConfig("low", site_id="", seed=0)
        with pytest.raises(ValueError, match="n_clusters"):
            SiteConfig("low", site_id="s", seed=0, n_clusters=0)

    def test_density_presets_cover_regimes(self):
        assert set(DENSITY_PRESETS) == {"low", "medium", "high"}
        counts = {d: DENSITY_PRESETS[d]["ap_count"] for d in DENSITY_PRESETS}
        assert counts["low"] < counts["medium"] < counts["high"]
        # regimes differ in propagation too, not only in AP count
        exps = {DENSITY_PRESETS[d]["path_loss_exponent"] for d in DENSITY_PRESETS}
        assert len(exps) == 3

    @pytest.mark.parametrize("density", sorted(DENSITY_PRESETS))
    def test_preset_physics_is_usable(self, density):
        physics = DENSITY_PRESETS[density]
        assert set(physics) == {"ap_count", "path_loss_exponent", "noise_sigma_db",
                                "dropout_prob", "tx_power_dbm", "area_w_m", "area_h_m",
                                "device_pool"}
        assert physics["ap_count"] >= 1
        # the cluster disks must fit inside the area
        assert min(physics["area_w_m"], physics["area_h_m"]) > 2 * CLUSTER_RADIUS_M
        assert physics["path_loss_exponent"] > 0
        assert 0 <= physics["dropout_prob"] < 1
        assert physics["noise_sigma_db"] >= 0
        assert physics["device_pool"]

    def test_site_config_for_density_applies_overrides(self):
        cfg = site_config_for_density("low", site_id="s", seed=1, n_clusters=5, bursts=True)
        assert cfg == SiteConfig("low", "s", 1, n_clusters=5, bursts=True)
        # the preset is the site's only physics
        with pytest.raises(TypeError):
            site_config_for_density("low", site_id="s", seed=1, noise_sigma_db=9.0)

    def test_unknown_density_rejected(self):
        with pytest.raises(ValueError, match="unknown density"):
            site_config_for_density("ultra", site_id="s", seed=1)


def _small_cfg(**kw):
    base = dict(
        density="low",
        site_id="t",
        seed=7,
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
        physics = DENSITY_PRESETS[cfg.density]
        fps = generate_site(cfg)
        assert len(fps) <= cfg.n_clusters * POSITIONS_PER_CLUSTER * DEVICES_PER_POSITION
        assert len(fps) > 0
        for fp in fps:
            assert fp.floor_key == ("t", "0", "0")
            assert 0 <= fp.position[0] <= physics["area_w_m"]
            assert 0 <= fp.position[1] <= physics["area_h_m"]
            assert fp.device_model in {m for m, _, _ in physics["device_pool"]}
            assert fp.burst_id is None
            for rssi in fp.readings.values():
                assert rssi == int(rssi)  # integer-quantized like real scans
                assert rssi >= DETECT_THRESHOLD_DBM

    def test_nearby_positions_see_stronger_signals(self):
        # RSSI should decay with distance on average: correlate the mean
        # reading with distance to the area center as a crude physics check
        fps = generate_site(_small_cfg(density="medium"))
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
        # every burst passes the sub-burst checks: one position and device,
        # scans numbered 0..n-1
        _, report = split_all_sub_bursts(fps)
        sizes = Counter(fp.burst_id for fp in fps)
        assert set(sizes.values()) == {SCANS_PER_BURST}
        assert len(sizes) == report.bursts_seen
        assert report.bursts_seen == 2 * POSITIONS_PER_CLUSTER * DEVICES_PER_POSITION
        # scan ids are derived from the burst stem
        assert all(fp.id.startswith(fp.burst_id) for fp in fps)

    def test_non_burst_mode_drops_empty_scans(self, monkeypatch):
        # brutal dropout: most scans empty, none of the emitted ones empty
        monkeypatch.setitem(DENSITY_PRESETS["low"], "dropout_prob", 0.99)
        fps = generate_site(_small_cfg())
        assert all(fp.readings for fp in fps)
