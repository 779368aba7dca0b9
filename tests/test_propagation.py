from dataclasses import replace

import numpy as np
import pytest

from rislink.config import GeometryConfig
from rislink.propagation import (
    LinkGains,
    blockage_state,
    direct_gain,
    indirect_gain,
    link_distances,
    p_los,
    sample_blockage,
)
from rislink.rng import substream


def test_link_distances_vertical_drop():
    g = GeometryConfig(d_ris=1e-9, bs_height=10.0)
    d1, _, _ = link_distances(g)
    np.testing.assert_allclose(d1, 10.0)


def test_link_distances_worked_example():
    g = GeometryConfig(d_bs_ue=200.0, bs_height=10.0, d_ris=2.2, ue_height=1.8)
    d1, d2, d_dir = link_distances(g)
    np.testing.assert_allclose(d1, np.sqrt(4.84 + 100.0), rtol=1e-12)
    np.testing.assert_allclose(d1, 10.2392, rtol=1e-5)
    np.testing.assert_allclose(d2, np.sqrt(197.8**2 + 3.24), rtol=1e-12)
    np.testing.assert_allclose(d2, 197.8082, rtol=1e-6)
    np.testing.assert_allclose(d_dir, np.sqrt(200.0**2 + 8.2**2), rtol=1e-12)


def test_link_distances_equal_heights():
    g = GeometryConfig(d_bs_ue=150.0, bs_height=3.0, ue_height=3.0)
    assert link_distances(g)[2] == pytest.approx(150.0)


def test_p_los_boundary_and_clamp():
    # d_dir = 10 exactly: D = 8, height gap 6
    g = GeometryConfig(d_bs_ue=8.0, bs_height=7.8, ue_height=1.8)
    assert p_los(g) == pytest.approx(1.0)
    # d_dir = 5: raw value exp(0.1) > 1 must clamp
    g = GeometryConfig(d_bs_ue=3.0, bs_height=5.8, ue_height=1.8)
    assert p_los(g) == 1.0


def test_p_los_long_range_value():
    g = GeometryConfig(d_bs_ue=200.0, bs_height=5.0, ue_height=1.8)
    assert p_los(g) == pytest.approx(0.02236, rel=1e-3)
    # a set override is the probability, zero included
    for override in (0.0, 0.5, 1.0):
        assert p_los(replace(g, p_los_override=override)) == override


def test_p_los_monotone_in_distance():
    values = [p_los(GeometryConfig(d_bs_ue=d, bs_height=10.0)) for d in np.linspace(5, 500, 60)]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_indirect_gain_closed_form_oracle():
    # single-expression evaluation, independent of the implementation
    g = GeometryConfig(d_bs_ue=200.0, bs_height=10.0, d_ris=2.2, ue_height=1.8,
                       carrier_freq_hz=28e9, ant_gain_db=62.0)
    lam = 299792458.0 / 28e9
    d1 = np.sqrt(2.2**2 + 10.0**2)
    d2 = np.sqrt(197.8**2 + 1.8**2)
    expected = (10**6.2) * lam**4 * (10.0 / d1 + 1.8 / d2) ** 2 / (256 * np.pi**2 * d1**2 * d2**2)
    np.testing.assert_allclose(indirect_gain(g), expected, rtol=1e-12)


def test_indirect_gain_linear_in_antenna_gain():
    g1 = GeometryConfig(ant_gain_db=62.0)
    g2 = GeometryConfig(ant_gain_db=62.0 + 10 * np.log10(4.0))
    np.testing.assert_allclose(indirect_gain(g2), 4.0 * indirect_gain(g1), rtol=1e-12)


def test_indirect_gain_decreasing_in_hop_distances():
    # doubling both hop lengths with fixed elevation ratios divides the gain by 16
    lam = GeometryConfig().wavelength

    def gain_for(d1, d2, lt, lr):
        g = GeometryConfig(d_ris=np.sqrt(d1**2 - lt**2), bs_height=lt, ue_height=lr,
                           d_bs_ue=np.sqrt(d1**2 - lt**2) + np.sqrt(d2**2 - lr**2))
        got1, got2, _ = link_distances(g)
        np.testing.assert_allclose((got1, got2), (d1, d2), rtol=1e-12)
        return indirect_gain(g)

    base = gain_for(10.0, 100.0, 6.0, 1.5)
    doubled = gain_for(20.0, 200.0, 12.0, 3.0)
    np.testing.assert_allclose(doubled, base / 16.0, rtol=1e-12)
    assert gain_for(15.0, 150.0, 6.0, 1.5) < base


def test_indirect_gain_hop_symmetry():
    def gain_for(d1, d2, lt, lr):
        g = GeometryConfig(d_ris=np.sqrt(d1**2 - lt**2), bs_height=lt, ue_height=lr,
                           d_bs_ue=np.sqrt(d1**2 - lt**2) + np.sqrt(d2**2 - lr**2))
        return indirect_gain(g)

    np.testing.assert_allclose(gain_for(12.0, 80.0, 5.0, 2.0),
                               gain_for(80.0, 12.0, 2.0, 5.0), rtol=1e-12)


def test_direct_gain_reference_distance():
    # d_dir = 1 m: D = 0.8, height gap 0.6 (the RIS moves inside D; the direct gain ignores it)
    g = GeometryConfig(d_bs_ue=0.8, bs_height=2.4, ue_height=1.8, d_ris=0.5)
    k0 = (g.wavelength / (4 * np.pi)) ** 2 * 10**6.2
    np.testing.assert_allclose(direct_gain(g, True), k0, rtol=1e-12)
    np.testing.assert_allclose(direct_gain(g, False), k0, rtol=1e-12)


def test_direct_gain_worked_example():
    g = GeometryConfig(d_bs_ue=200.0, bs_height=5.0, ue_height=1.8)
    _, _, d_dir = link_distances(g)
    assert d_dir == pytest.approx(200.0256, rel=1e-6)
    assert direct_gain(g, True) == pytest.approx(2.876e-5, rel=1e-3)
    # NLOS/LOS ratio is d_dir^(alpha_los - alpha_nlos) = d_dir^-2
    ratio = direct_gain(g, False) / direct_gain(g, True)
    np.testing.assert_allclose(ratio, d_dir**-2.0, rtol=1e-12)


def test_direct_gain_los_dominates_nlos():
    rng = substream(41)
    for _ in range(50):
        d_bs_ue, bs_height = rng.uniform(2, 400), rng.uniform(2, 40)
        # the UE stands beyond the RIS
        g = GeometryConfig(d_bs_ue=d_bs_ue, bs_height=bs_height, ue_height=1.8,
                           d_ris=rng.uniform(0.5, min(30.0, d_bs_ue)))
        assert direct_gain(g, True) >= direct_gain(g, False)
        assert 0 < indirect_gain(g) < np.inf
        assert 0 < direct_gain(g, True) < np.inf


def test_sample_blockage():
    rng = substream(42)
    assert sample_blockage(1.0, rng) is True
    assert sample_blockage(0.0, rng) is False
    draws = [sample_blockage(0.3, rng) for _ in range(100_000)]
    assert abs(np.mean(draws) - 0.3) <= 0.01
    with pytest.raises(ValueError):
        sample_blockage(1.5, rng)


@pytest.mark.parametrize("p", [True, False, np.True_])
def test_blockage_refuses_a_bool_los_probability(p):
    with pytest.raises(ValueError, match=f"^LOS probability must lie in \\[0, 1\\], got {p!r}$"):
        sample_blockage(p, substream(42))
    with pytest.raises(ValueError, match="^LOS probability must lie in"):
        blockage_state(p, 0.3)


def test_geometry_validation():
    with pytest.raises(ValueError):
        GeometryConfig(d_bs_ue=-1.0)
    with pytest.raises(ValueError):
        GeometryConfig(alpha_los=-0.1)
    with pytest.raises(ValueError):
        GeometryConfig(p_los_override=1.5)
    assert GeometryConfig(p_los_override=0.5).p_los_override == 0.5
    with pytest.raises(ValueError, match="d_bs_ue must exceed d_ris"):
        GeometryConfig(d_bs_ue=30.0, d_ris=30.0)
    for name in ("ue_height", "ant_gain_db", "alpha_nlos"):
        with pytest.raises(ValueError, match=name):
            GeometryConfig(**{name: float("nan")})


def test_link_gains_validation():
    with pytest.raises(ValueError):
        LinkGains(rho_direct=-1.0, rho_indirect=0.0, los=True)
    with pytest.raises(ValueError):
        LinkGains(rho_direct=1.0, rho_indirect=np.inf, los=True)
    with pytest.raises(ValueError):
        LinkGains(rho_direct=0.0, rho_indirect=0.0, los=False)


def test_link_gains_reject_a_bool_gain_naming_it():
    with pytest.raises(ValueError, match="^rho_direct must hold finite numbers > 0, got True"):
        LinkGains(True, 0.0, True)
