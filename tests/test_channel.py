from dataclasses import astuple

import numpy as np
import pytest

from rislink.channel import (
    ClusterRaySet,
    FreqChannelSet,
    UraSpec,
    geometric_tap,
    rician_tap,
    synthesize_link,
    tap_power_weights,
    taps_to_subcarriers,
    ura_response,
)
from rislink.config import SystemConfig, preset_config
from rislink.rng import substream


def link_config(**kw):
    """A SystemConfig with 1x1 BS and UE arrays and a 2x2 RIS, so that each link stays small."""
    return SystemConfig(**{"rx_rows": 1, "rx_cols": 1, "tx_rows": 1, "tx_cols": 1, "ris_rows": 2, "ris_cols": 2,
                           **kw})


def reference_ura_response(azimuth, elevation, spec):
    """The direct rows x cols phase grid: one complex exponential per element and direction.

    The azimuth is wrapped into [-pi, pi) and the elevation clamped into [-pi/2, pi/2].
    """
    az = np.mod(np.asarray(azimuth, dtype=float) + np.pi, 2 * np.pi) - np.pi
    el = np.clip(np.asarray(elevation, dtype=float), -np.pi / 2, np.pi / 2)
    u = np.multiply.outer(np.arange(spec.rows), np.sin(az) * np.cos(el))
    v = np.multiply.outer(np.arange(spec.cols), np.sin(el))
    phase = 2 * np.pi * spec.spacing_wavelengths * (u[:, None, ...] + v[None, :, ...])
    resp = np.exp(1j * phase) / np.sqrt(spec.n_elements)
    return resp.reshape((spec.n_elements,) + np.shape(az))


def reference_link(link_index, config, los=True):
    """(rx spec, tx spec, (clusters, rays per cluster)) of a link, read field by field from the config."""
    return {
        1: (config.ris_spec, config.tx_spec, (config.ris_clusters, config.ris_rays)),
        2: (config.rx_spec, config.ris_spec, (config.ris_clusters, config.ris_rays)),
        3: (config.rx_spec, config.tx_spec,
            (config.direct_los_clusters, config.direct_los_rays) if los
            else (config.direct_nlos_clusters, config.direct_nlos_rays)),
    }[link_index]


def reference_synthesize_link(link_index, config, rng, los=True):
    """Tap-by-tap synthesis: draw one tap's rays, build its geometric tap, then draw its scatter."""
    rx_spec, tx_spec, (n_clusters, n_rays) = reference_link(link_index, config, los)
    n = n_clusters * n_rays
    shape = (rx_spec.n_elements, tx_spec.n_elements)
    taps = []
    for w in tap_power_weights(config.n_taps[link_index - 1]):
        angles = []
        for lo, hi in ((-np.pi, np.pi), (-np.pi / 2, np.pi / 2)) * 2:
            centers = rng.uniform(lo, hi, size=n_clusters)
            offsets = rng.laplace(0.0, config.angular_spread_rad / np.sqrt(2.0), size=(n_clusters, n_rays))
            angles.append((centers[:, None] + offsets).reshape(-1))
        gains = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
        a_rx = reference_ura_response(angles[0], angles[1], rx_spec)
        a_tx = reference_ura_response(angles[2], angles[3], tx_spec)
        geo = np.sqrt(shape[0] * shape[1] / n) * ((a_rx * gains) @ a_tx.conj().T)
        scatter = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        k = config.rician_k
        taps.append(np.sqrt(w) * (np.sqrt(k / (k + 1.0)) * geo + np.sqrt(1.0 / (k + 1.0)) * scatter))
    return np.stack(taps)


def random_rays(rng, shape):
    """A ClusterRaySet of `shape` with CN(0, 1) gains and uniform angles over the principal ranges."""
    gains = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return ClusterRaySet(gains, *(rng.uniform(-half, half, size=shape) for half in (np.pi, np.pi / 2) * 2))


def generator_state(rng):
    """The bit generator's state with its arrays as lists, so two states compare with ==."""
    def plain(x):
        return {k: plain(v) for k, v in x.items()} if isinstance(x, dict) else np.asarray(x).tolist()
    return plain(rng.bit_generator.state)


@pytest.mark.parametrize("link", [1, 2, 3])
@pytest.mark.parametrize("los", [True, False], ids=["los", "nlos"])
def test_link_table_matches_the_reference_table(link, los):
    # every array, count and tap profile differs, so a swapped entry shows
    cfg = SystemConfig(tx_rows=3, tx_cols=2, rx_rows=1, rx_cols=2, ris_rows=2, ris_cols=4, n_taps=(2, 3, 4),
                       ris_clusters=2, ris_rays=3, direct_los_clusters=1, direct_los_rays=4,
                       direct_nlos_clusters=5, direct_nlos_rays=6)
    rx_spec, tx_spec, (n_clusters, n_rays) = reference_link(link, cfg, los)
    assert cfg.link(link, los) == (rx_spec, tx_spec, n_clusters, n_rays, cfg.n_taps[link - 1])


@pytest.mark.parametrize("preset, n_ris", [("desk", 16), ("desk", 64), ("paper", 64), ("paper", 256)])
@pytest.mark.parametrize("link, los", [(1, True), (2, True), (3, True), (3, False)],
                         ids=["link1", "link2", "link3-los", "link3-nlos"])
def test_synthesize_link_matches_tap_by_tap_reference(preset, n_ris, link, los):
    cfg = preset_config(preset)[0].with_n_ris(n_ris)
    rng, ref_rng = substream(33, n_ris, link), substream(33, n_ris, link)
    taps = synthesize_link(link, cfg, [rng], los=los)[0]
    expected = reference_synthesize_link(link, cfg, ref_rng, los=los)
    assert taps.shape == expected.shape
    # the separable steering vector rounds differently from the phase grid
    assert np.max(np.abs(taps - expected)) <= 1e-13 * np.max(np.abs(expected))
    # the same draws in the same order leave the generator in the same state
    assert generator_state(rng) == generator_state(ref_rng)


@pytest.mark.parametrize("preset, n_ris", [("desk", 64), ("paper", 256)])
@pytest.mark.parametrize("link, los", [(1, True), (2, True), (3, True), (3, False)],
                         ids=["link1", "link2", "link3-los", "link3-nlos"])
def test_synthesize_link_trial_stack_equals_lone_calls(preset, n_ris, link, los):
    # entry t of a call on three generators is the lone call on a fresh copy of generator t
    cfg = preset_config(preset)[0].with_n_ris(n_ris)
    keys = [(36, n_ris, link, t) for t in range(3)]
    rngs = [substream(*key) for key in keys]
    stack = synthesize_link(link, cfg, rngs, los=los)
    assert stack.shape[:2] == (3, cfg.n_taps[link - 1])
    freq = taps_to_subcarriers(stack, cfg.n_subcarriers)
    for key, rng, taps, h in zip(keys, rngs, stack, freq):
        lone_rng = substream(*key)
        lone = synthesize_link(link, cfg, [lone_rng], los=los)[0]
        assert np.array_equal(taps, lone)
        assert generator_state(rng) == generator_state(lone_rng)
        assert np.array_equal(h, taps_to_subcarriers(lone, cfg.n_subcarriers))


@pytest.mark.parametrize("spec", [UraSpec(1, 1), UraSpec(4, 1), UraSpec(2, 2), UraSpec(3, 2, 0.7),
                                  UraSpec(8, 8), UraSpec(16, 16)], ids=str)
def test_ura_separable_matches_phase_grid(spec):
    rng = substream(34, spec.rows, spec.cols)
    for shape in ((), (7,), (5, 80)):
        az = rng.uniform(-4.0, 4.0, size=shape)  # beyond [-pi, pi): the reference wraps, sin(az) needs no wrap
        el = rng.uniform(-2.0, 2.0, size=shape)  # beyond [-pi/2, pi/2] to exercise the clamp
        got = ura_response(az, el, spec)
        assert got.shape == (spec.n_elements,) + shape
        np.testing.assert_allclose(got, reference_ura_response(az, el, spec), rtol=0, atol=1e-14)
        np.testing.assert_allclose(np.linalg.norm(got, axis=0), 1.0, rtol=0, atol=1e-14)


def test_geometric_tap_batched_equals_per_tap_calls():
    stacked = random_rays(substream(35), (4, 12))
    rx, tx = UraSpec(4, 2), UraSpec(2, 3)
    batched = geometric_tap(stacked, rx, tx)
    per_tap = np.stack([geometric_tap(ClusterRaySet(*(a[l] for a in astuple(stacked))), rx, tx) for l in range(4)])
    assert batched.shape == (4, 8, 6)
    np.testing.assert_allclose(batched, per_tap, rtol=0, atol=1e-13 * np.max(np.abs(per_tap)))


def test_cluster_ray_set_rejects_mismatched_shapes():
    rays = random_rays(substream(36), (6,))
    with pytest.raises(ValueError, match="must have shape"):
        ClusterRaySet(gains=rays.gains, arrival_az=rays.arrival_az[:5], arrival_el=rays.arrival_el,
                      departure_az=rays.departure_az, departure_el=rays.departure_el)
    with pytest.raises(ValueError, match="must have shape"):
        ClusterRaySet(gains=np.stack([rays.gains] * 2), arrival_az=rays.arrival_az, arrival_el=rays.arrival_el,
                      departure_az=rays.departure_az, departure_el=rays.departure_el)


def test_cluster_ray_set_stores_list_inputs_as_arrays():
    rays = ClusterRaySet([1 + 0j, 0.5j], [0.1, 0.2], [0.0, 0.1], [0.3, -0.2], [0.0, 0.05])
    assert all(isinstance(a, np.ndarray) and a.shape == (2,) for a in astuple(rays))
    tap = geometric_tap(rays, UraSpec(2, 2), UraSpec(2, 2))
    arrays = ClusterRaySet(*(np.array(a) for a in astuple(rays)))
    np.testing.assert_array_equal(tap, geometric_tap(arrays, UraSpec(2, 2), UraSpec(2, 2)))


@pytest.mark.parametrize("rows, cols, spacing", [(2.5, 2, 0.5), (2, 2.0, 0.5), (0, 2, 0.5),
                                                 (2, 2, np.nan), (2, 2, np.inf), (2, 2, 0.0)],
                         ids=["fractional-rows", "float-cols", "zero-rows", "nan-spacing", "inf-spacing",
                              "zero-spacing"])
def test_ura_spec_rejects_bad_geometry(rows, cols, spacing):
    with pytest.raises(ValueError):
        UraSpec(rows, cols, spacing)


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


@pytest.mark.parametrize("spread", [np.inf, np.nan, -0.1])
def test_config_rejects_non_finite_or_negative_spread(spread):
    # the config refuses the spread, so synthesize_link never draws with it
    with pytest.raises(ValueError, match="^angular_spread_deg must"):
        link_config(angular_spread_deg=spread)


def test_geometric_tap_trivial_1x1():
    rays = ClusterRaySet(gains=np.array([1.0 + 0j]), arrival_az=np.zeros(1), arrival_el=np.zeros(1),
                         departure_az=np.zeros(1), departure_el=np.zeros(1))
    h = geometric_tap(rays, UraSpec(1, 1), UraSpec(1, 1))
    np.testing.assert_allclose(h, [[1.0 + 0j]])


def test_geometric_tap_rank_one_singular_value():
    beta = 0.7 - 1.2j
    rays = ClusterRaySet(gains=np.array([beta]), arrival_az=np.array([0.3]), arrival_el=np.array([-0.2]),
                         departure_az=np.array([1.0]), departure_el=np.array([0.4]))
    rx, tx = UraSpec(2, 2), UraSpec(4, 2)
    h = geometric_tap(rays, rx, tx)
    s = np.linalg.svd(h, compute_uv=False)
    np.testing.assert_allclose(s[0], np.sqrt(rx.n_elements * tx.n_elements) * abs(beta), rtol=1e-12)
    assert s[1] <= 1e-12 * s[0]


def test_geometric_tap_linearity():
    rays = random_rays(substream(24), (4,))
    rx, tx = UraSpec(2, 1), UraSpec(2, 2)
    h = geometric_tap(rays, rx, tx)

    scaled = ClusterRaySet(gains=3.5 * rays.gains, arrival_az=rays.arrival_az,
                           arrival_el=rays.arrival_el, departure_az=rays.departure_az,
                           departure_el=rays.departure_el)
    np.testing.assert_allclose(geometric_tap(scaled, rx, tx), 3.5 * h, rtol=1e-12)

    # two single-ray taps sum to the two-ray tap up to the 1/sqrt(RC) normalization
    singles = []
    for i in range(4):
        one = ClusterRaySet(gains=rays.gains[i:i + 1], arrival_az=rays.arrival_az[i:i + 1],
                            arrival_el=rays.arrival_el[i:i + 1], departure_az=rays.departure_az[i:i + 1],
                            departure_el=rays.departure_el[i:i + 1])
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


@pytest.mark.parametrize("rician_k", [np.nan, np.inf, -1.0])
def test_rician_rejects_non_finite_or_negative_factor(rician_k):
    with pytest.raises(ValueError, match=r"^rician_k must hold finite numbers >= 0, got "):
        rician_tap(np.ones((2, 2)), np.ones((2, 2)), rician_k)


def test_rician_rejects_a_bool_factor_naming_it():
    with pytest.raises(ValueError, match="^rician_k must hold finite numbers >= 0, got True"):
        rician_tap(np.ones((2, 2)), np.ones((2, 2)), True)


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


@pytest.mark.parametrize("n_subcarriers", [None, 8, 24, 4096], ids=["K=L", "K=8", "K=24", "K=4096"])
def test_dft_matches_numpy_fft(n_subcarriers):
    rng = substream(29)
    stack = rng.standard_normal((3, 5, 2, 3)) + 1j * rng.standard_normal((3, 5, 2, 3))
    k = n_subcarriers or stack.shape[1]
    for taps in (stack, stack[0]):  # a stack of trials and one trial alone
        got = taps_to_subcarriers(taps, k)
        assert got.shape == taps.shape[:-3] + (k, 2, 3)
        np.testing.assert_allclose(got, np.fft.fft(taps, n=k, axis=-3), rtol=1e-13)


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
    cfg = link_config(rician_k=0.0, n_taps=(3, 3, 3))
    draws = synthesize_link(3, cfg, [substream(29, t) for t in range(10_000)], los=True)[:, :, 0, 0]
    var = np.mean(np.abs(draws) ** 2, axis=0)
    np.testing.assert_allclose(var, tap_power_weights(3), rtol=0.1)


def test_synthesize_link_deterministic_ray_is_rank_one():
    cfg = link_config(rx_rows=2, rx_cols=2, tx_rows=2, tx_cols=2, rician_k=1e12, angular_spread_deg=0.0,
                      direct_los_clusters=1, direct_los_rays=1)
    taps = synthesize_link(3, cfg, [substream(30)], los=True)[0]
    assert taps.shape[0] == 5
    for tap in taps:
        s = np.linalg.svd(tap, compute_uv=False)
        assert s[1] <= 1e-5 * s[0]


def test_synthesize_link_uses_nlos_richness():
    cfg = link_config()
    von = synthesize_link(3, cfg, [substream(31)], los=True)
    assert von.shape == (1, 5, 1, 1)
    assert synthesize_link(1, cfg, [substream(31)]).shape == (1, 3, 4, 1)
    assert synthesize_link(2, cfg, [substream(31)]).shape == (1, 4, 1, 4)
    with pytest.raises(ValueError):
        synthesize_link(4, cfg, [substream(31)])


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
    with pytest.raises(ValueError, match="h1 must be a 3-D"):
        FreqChannelSet(h1=np.zeros((2, 3)), h2=np.zeros((2, 2, 3)), h3=np.zeros((2, 2, 3)))
    ok = FreqChannelSet(h1=np.zeros((2, 4, 3)), h2=np.zeros((2, 2, 4)), h3=np.zeros((2, 2, 3)))
    assert ok.h1.shape[0] == ok.h2.shape[0] == ok.h3.shape[0] == 2

