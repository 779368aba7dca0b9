import numpy as np
import pytest

from rislink.channel import (
    ClusterRaySet,
    FreqChannelSet,
    UraSpec,
    draw_cluster_rays,
    geometric_tap,
    rician_tap,
    synthesize_link,
    tap_power_weights,
    taps_to_subcarriers,
    ura_response,
)
from rislink.rng import substream


class DummyConfig:
    """Minimal attribute bag accepted by synthesize_link."""

    def __init__(self, rx=(1, 1), tx=(1, 1), ris=(2, 2), n_taps=(3, 4, 5), rician_k=10.0,
                 spread_rad=np.deg2rad(10.0), ris_cr=(8, 10), los_cr=(1, 1), nlos_cr=(5, 10)):
        self.rx_spec = UraSpec(*rx)
        self.tx_spec = UraSpec(*tx)
        self.ris_spec = UraSpec(*ris)
        self.n_taps = n_taps
        self.rician_k = rician_k
        self.angular_spread_rad = spread_rad
        self.ris_clusters, self.ris_rays = ris_cr
        self.direct_los_clusters, self.direct_los_rays = los_cr
        self.direct_nlos_clusters, self.direct_nlos_rays = nlos_cr


def test_ura_single_element_broadside():
    np.testing.assert_allclose(ura_response(0.0, 0.0, UraSpec(1, 1)), [1.0 + 0j])


def test_ura_broadside_2x2_equal_modulus():
    v = ura_response(0.0, 0.0, UraSpec(2, 2, 0.5))
    np.testing.assert_allclose(np.abs(v), 0.5, atol=1e-14)


def test_ura_matches_elementwise_evaluation():
    # Independent scalar evaluation of the documented phase-ramp convention.
    az, el = np.pi / 4, 0.0
    spec = UraSpec(4, 1, 0.5)
    got = ura_response(az, el, spec)
    expected = np.empty(4, dtype=complex)
    idx = 0
    for m in range(spec.rows):
        for n in range(spec.cols):
            phase = 2 * np.pi * 0.5 * (m * np.sin(az) * np.cos(el) + n * np.sin(el))
            expected[idx] = np.exp(1j * phase) / np.sqrt(4)
            idx += 1
    np.testing.assert_allclose(got, expected, atol=1e-14)

    spec2 = UraSpec(3, 2, 0.7)
    az2, el2 = -1.1, 0.6
    got2 = ura_response(az2, el2, spec2)
    expected2 = np.empty(6, dtype=complex)
    for m in range(3):
        for n in range(2):
            phase = 2 * np.pi * 0.7 * (m * np.sin(az2) * np.cos(el2) + n * np.sin(el2))
            expected2[m * 2 + n] = np.exp(1j * phase) / np.sqrt(6)
    np.testing.assert_allclose(got2, expected2, atol=1e-14)


def test_ura_unit_norm_many_draws():
    rng = substream(11)
    az = rng.uniform(-np.pi, np.pi, size=100_000)
    el = rng.uniform(-np.pi / 2, np.pi / 2, size=100_000)
    v = ura_response(az, el, UraSpec(4, 2, 0.5))
    norms = np.linalg.norm(v, axis=0)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12


def test_draw_rays_zero_spread_single_ray():
    rays = draw_cluster_rays(1, 1, 0.0, substream(21))
    assert rays.gains.shape == (1,)
    # with one ray and zero spread the ray sits exactly on its cluster center,
    # which is itself inside the principal ranges
    assert -np.pi <= rays.arrival_az[0] < np.pi
    assert -np.pi / 2 <= rays.arrival_el[0] <= np.pi / 2


def test_draw_rays_counts_and_spread():
    spread = np.deg2rad(10.0)
    rng = substream(22)
    within = 0
    total = 0
    for _ in range(2_000):
        rays = draw_cluster_rays(2, 3, spread, rng)
        assert rays.gains.shape == (6,)
        # reconstruct per-cluster offsets from elevations (clamping is rare at
        # 10 degrees); azimuth wrapping makes center recovery unreliable there
        el = rays.arrival_el.reshape(2, 3)
        centers = np.median(el, axis=1, keepdims=True)
        within += np.sum(np.abs(el - centers) <= 5 * spread)
        total += el.size
    assert within / total >= 0.995


def test_draw_rays_gain_second_moment():
    rng = substream(23)
    rays = draw_cluster_rays(100, 100, 0.0, rng)
    m2 = np.mean(np.abs(rays.gains) ** 2)
    assert abs(m2 - 1.0) <= 0.05


def test_geometric_tap_trivial_1x1():
    rays = ClusterRaySet(gains=np.array([1.0 + 0j]), arrival_az=np.zeros(1), arrival_el=np.zeros(1),
                         departure_az=np.zeros(1), departure_el=np.zeros(1),
                         n_clusters=1, n_rays=1)
    h = geometric_tap(rays, UraSpec(1, 1), UraSpec(1, 1))
    np.testing.assert_allclose(h, [[1.0 + 0j]])


def test_geometric_tap_rank_one_singular_value():
    beta = 0.7 - 1.2j
    rays = ClusterRaySet(gains=np.array([beta]), arrival_az=np.array([0.3]), arrival_el=np.array([-0.2]),
                         departure_az=np.array([1.0]), departure_el=np.array([0.4]),
                         n_clusters=1, n_rays=1)
    rx, tx = UraSpec(2, 2), UraSpec(4, 2)
    h = geometric_tap(rays, rx, tx)
    s = np.linalg.svd(h, compute_uv=False)
    np.testing.assert_allclose(s[0], np.sqrt(rx.n_elements * tx.n_elements) * abs(beta), rtol=1e-12)
    assert s[1] <= 1e-12 * s[0]


def test_geometric_tap_linearity():
    rng = substream(24)
    rays = draw_cluster_rays(2, 2, 0.1, rng)
    rx, tx = UraSpec(2, 1), UraSpec(2, 2)
    h = geometric_tap(rays, rx, tx)

    scaled = ClusterRaySet(gains=3.5 * rays.gains, arrival_az=rays.arrival_az,
                           arrival_el=rays.arrival_el, departure_az=rays.departure_az,
                           departure_el=rays.departure_el, n_clusters=2, n_rays=2)
    np.testing.assert_allclose(geometric_tap(scaled, rx, tx), 3.5 * h, rtol=1e-12)

    # two single-ray taps sum to the two-ray tap up to the 1/sqrt(RC) normalization
    singles = []
    for i in range(4):
        one = ClusterRaySet(gains=rays.gains[i:i + 1], arrival_az=rays.arrival_az[i:i + 1],
                            arrival_el=rays.arrival_el[i:i + 1], departure_az=rays.departure_az[i:i + 1],
                            departure_el=rays.departure_el[i:i + 1], n_clusters=1, n_rays=1)
        singles.append(geometric_tap(one, rx, tx))
    np.testing.assert_allclose(sum(singles) / np.sqrt(4), h, rtol=1e-12)


def test_rician_limits_and_scalar_value():
    rng = substream(25)
    los = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    scatter = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    np.testing.assert_array_equal(rician_tap(los, scatter, 0.0), scatter)
    np.testing.assert_allclose(rician_tap(los, scatter, 1e12), los, rtol=1e-5)
    np.testing.assert_allclose(rician_tap(np.array([[1.0]]), np.array([[1.0]]), 1.0),
                               [[np.sqrt(0.5) + np.sqrt(0.5)]])
    with pytest.raises(ValueError):
        rician_tap(np.ones((2, 2)), np.ones((2, 3)), 1.0)


def test_rician_energy_split_identity():
    # brute-force expansion of ||sqrt(a) L + sqrt(b) S||_F^2 on 2x2 inputs
    rng = substream(26)
    los = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    scatter = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    k = 3.7
    out = rician_tap(los, scatter, k)
    cross = 2.0 * np.sum(np.real(np.sqrt(k) * los * np.conj(scatter)))
    expected = (k * np.linalg.norm(los) ** 2 + np.linalg.norm(scatter) ** 2 + cross) / (k + 1.0)
    np.testing.assert_allclose(np.linalg.norm(out) ** 2, expected, rtol=1e-12)


def test_dft_flat_and_dc_and_hand_case():
    flat = taps_to_subcarriers(np.array([[[2.0 - 1j]]]), 5)
    np.testing.assert_allclose(flat, np.full((5, 1, 1), 2.0 - 1j))

    rng = substream(27)
    taps = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    h = taps_to_subcarriers(taps, 8)
    np.testing.assert_allclose(h[0], taps.sum(axis=0), rtol=1e-12)

    hand = taps_to_subcarriers(np.array([1.0, 1.0j]).reshape(2, 1, 1), 4).ravel()
    np.testing.assert_allclose(hand, [1 + 1j, 2, 1 - 1j, 0], atol=1e-12)

    with pytest.raises(ValueError):
        taps_to_subcarriers(taps, 2)


def test_dft_round_trip():
    rng = substream(28)
    taps = rng.standard_normal((5, 3, 2)) + 1j * rng.standard_normal((5, 3, 2))
    h = taps_to_subcarriers(taps, 16)
    back = np.fft.ifft(h, axis=0)[:5]
    err = np.linalg.norm(back - taps) / np.linalg.norm(taps)
    assert err <= 1e-10


def test_tap_weights_closed_form():
    w = tap_power_weights(3)
    raw = np.exp(-np.arange(3.0))
    np.testing.assert_allclose(w, raw / raw.sum(), rtol=1e-15)
    np.testing.assert_allclose(w.sum(), 1.0, rtol=1e-15)


def test_synthesize_link_tap_variances_rayleigh():
    # with rician_k = 0 the per-entry variance of tap l equals its power weight
    cfg = DummyConfig(rician_k=0.0, n_taps=(3, 3, 3))
    draws = np.array([synthesize_link(3, cfg, substream(29, t), los=True)[:, 0, 0]
                      for t in range(10_000)])
    var = np.mean(np.abs(draws) ** 2, axis=0)
    np.testing.assert_allclose(var, tap_power_weights(3), rtol=0.1)


def test_synthesize_link_deterministic_ray_is_rank_one():
    cfg = DummyConfig(rx=(2, 2), tx=(2, 2), rician_k=1e12, spread_rad=0.0, los_cr=(1, 1))
    taps = synthesize_link(3, cfg, substream(30), los=True)
    assert taps.shape[0] == 5
    for tap in taps:
        s = np.linalg.svd(tap, compute_uv=False)
        assert s[1] <= 1e-5 * s[0]


def test_synthesize_link_uses_nlos_richness():
    cfg = DummyConfig()
    von = synthesize_link(3, cfg, substream(31), los=True)
    assert von.shape == (5, 1, 1)
    assert synthesize_link(1, cfg, substream(31)).shape == (3, 4, 1)
    assert synthesize_link(2, cfg, substream(31)).shape == (4, 1, 4)
    with pytest.raises(ValueError):
        synthesize_link(4, cfg, substream(31))


def test_scatter_second_moment():
    rng = substream(32)
    n = 100_000
    scatter = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    assert abs(np.mean(np.abs(scatter) ** 2) - 1.0) <= 0.05


def test_freq_channel_set_validation():
    with pytest.raises(ValueError):
        FreqChannelSet(h1=np.zeros((2, 4, 3)), h2=np.zeros((2, 2, 5)), h3=np.zeros((2, 2, 3)))
    with pytest.raises(ValueError):
        FreqChannelSet(h1=np.zeros((2, 4, 3)), h2=np.zeros((3, 2, 4)), h3=np.zeros((2, 2, 3)))
    ok = FreqChannelSet(h1=np.zeros((2, 4, 3)), h2=np.zeros((2, 2, 4)), h3=np.zeros((2, 2, 3)))
    assert ok.n_subcarriers == 2

