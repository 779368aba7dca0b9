import numpy as np
import pytest

from rislink.channel import FreqChannelSet
from rislink.propagation import LinkGains
from rislink.rate import (
    RisPhases,
    equivalent_channel,
    fold_gains,
    rate_from_heq,
)
from rislink.rng import substream


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_setup(rng, k=2, n_r=2, n_t=3, n_ris=4):
    ch = FreqChannelSet(h1=crandn(rng, k, n_ris, n_t), h2=crandn(rng, k, n_r, n_ris),
                        h3=crandn(rng, k, n_r, n_t))
    phi = RisPhases.random(n_ris, rng)
    return ch, phi


def test_ris_phases_validation():
    with pytest.raises(ValueError):
        RisPhases(np.array([1.0 + 0j, 0.5 + 0j]))
    p = RisPhases.from_angles([0.0, np.pi / 2])
    np.testing.assert_allclose(p.diag, [1.0, 1.0j], atol=1e-15)
    assert RisPhases.random(5, substream(50)).n_elements == 5


def test_equivalent_channel_no_ris_path():
    rng = substream(51)
    ch, phi = random_setup(rng)
    gains = LinkGains(rho_direct=0.25, rho_indirect=0.0, los=True)
    heq = equivalent_channel(fold_gains(ch, gains), phi)
    np.testing.assert_allclose(heq, 0.5 * ch.h3, rtol=1e-12)


def test_equivalent_channel_single_element_cascade():
    theta = 0.8
    ch = FreqChannelSet(h1=np.ones((1, 1, 1)), h2=np.ones((1, 1, 1)), h3=np.zeros((1, 1, 1)))
    heq = equivalent_channel(fold_gains(ch, LinkGains(1.0, 1.0, True)), RisPhases.from_angles([theta]))
    np.testing.assert_allclose(heq.ravel(), [np.exp(1j * theta)], rtol=1e-12)


def test_equivalent_channel_matches_bruteforce():
    rng = substream(52)
    ch, phi = random_setup(rng, k=3, n_r=2, n_t=2, n_ris=3)
    gains = LinkGains(rho_direct=0.3, rho_indirect=0.05, los=False)
    heq = equivalent_channel(fold_gains(ch, gains), phi)
    # explicit per-subcarrier recomputation with a dense diagonal matrix
    big_phi = np.diag(phi.diag)
    for k in range(3):
        expected = (np.sqrt(0.3) * ch.h3[k]
                    + np.sqrt(0.05) * ch.h2[k] @ big_phi @ ch.h1[k])
        np.testing.assert_allclose(heq[k], expected, atol=1e-12)


def test_equivalent_channel_shape_mismatch():
    rng = substream(53)
    ch, _ = random_setup(rng)
    with pytest.raises(ValueError):
        equivalent_channel(fold_gains(ch, LinkGains(1.0, 1.0, True)), RisPhases.random(3, rng))


def test_equivalent_channel_linearity():
    rng = substream(54)
    ch, phi = random_setup(rng)
    gains = LinkGains(1.0, 1.0, True)
    base = equivalent_channel(fold_gains(ch, gains), phi)
    ch3 = FreqChannelSet(h1=ch.h1, h2=ch.h2, h3=2.0 * ch.h3)
    np.testing.assert_allclose(equivalent_channel(fold_gains(ch3, gains), phi) - base, ch.h3, atol=1e-12)
    ch1 = FreqChannelSet(h1=2.0 * ch.h1, h2=ch.h2, h3=ch.h3)
    np.testing.assert_allclose(equivalent_channel(fold_gains(ch1, gains), phi) - base,
                               base - equivalent_channel(fold_gains(
                                   FreqChannelSet(h1=0.0 * ch.h1, h2=ch.h2, h3=ch.h3), gains), phi),
                               atol=1e-12)


def test_spectral_efficiency_zero_power():
    rng = substream(55)
    ch, phi = random_setup(rng)
    heq = equivalent_channel(fold_gains(ch, LinkGains(1.0, 1.0, True)), phi)
    q = np.zeros((2, 3, 3), dtype=complex)
    assert rate_from_heq(heq, q, 1.0) == 0.0


def test_spectral_efficiency_siso_shannon():
    ch = FreqChannelSet(h1=np.zeros((1, 1, 1)), h2=np.zeros((1, 1, 1)), h3=np.ones((1, 1, 1)))
    heq = equivalent_channel(fold_gains(ch, LinkGains(1.0, 0.0, True)), RisPhases.from_angles([0.0]))
    p = 5.0
    assert rate_from_heq(heq, np.full((1, 1, 1), p + 0j), 1.0) == pytest.approx(np.log2(1 + p))


def test_spectral_efficiency_eigenvalue_oracle():
    rng = substream(56)
    ch, phi = random_setup(rng, k=2, n_r=2, n_t=2, n_ris=3)
    heq = equivalent_channel(fold_gains(ch, LinkGains(1.0, 1.0, True)), phi)
    a = crandn(rng, 2, 2, 2)
    q = a @ a.conj().transpose(0, 2, 1)
    sigma2 = 0.7
    got = rate_from_heq(heq, q, sigma2)
    # independent evaluation through eigenvalues of H Q H^H / sigma^2
    total = 0.0
    for k in range(2):
        lams = np.linalg.eigvalsh(heq[k] @ q[k] @ heq[k].conj().T / sigma2)
        total += np.sum(np.log2(1.0 + np.maximum(lams, 0.0)))
    np.testing.assert_allclose(got, total / 2.0, rtol=1e-10)


def test_spectral_efficiency_rejects_non_psd():
    rng = substream(57)
    ch, phi = random_setup(rng)
    heq = equivalent_channel(fold_gains(ch, LinkGains(1.0, 1.0, True)), phi)
    q = np.stack([np.eye(3, dtype=complex), -0.01 * np.eye(3, dtype=complex)])
    with pytest.raises(ValueError, match="not PSD"):
        rate_from_heq(heq, q, 1.0)
    with pytest.raises(ValueError, match="one matrix per subcarrier"):
        rate_from_heq(heq, q[:1], 1.0)


def test_spectral_efficiency_unitary_invariance():
    rng = substream(58)
    for _ in range(5):
        h = crandn(rng, 1, 3, 3)
        a = crandn(rng, 1, 3, 3)
        q = a @ a.conj().transpose(0, 2, 1)
        u, _ = np.linalg.qr(crandn(rng, 3, 3))
        r1 = rate_from_heq(h @ u[None], q, 1.0)
        r2 = rate_from_heq(h, u[None] @ q @ u.conj().T[None], 1.0)
        np.testing.assert_allclose(r1, r2, rtol=1e-10)


def test_spectral_efficiency_monotone_in_power_scaling():
    rng = substream(59)
    ch, phi = random_setup(rng)
    heq = equivalent_channel(fold_gains(ch, LinkGains(1.0, 1.0, True)), phi)
    a = crandn(rng, 2, 3, 3)
    q = a @ a.conj().transpose(0, 2, 1)
    rates = [rate_from_heq(heq, c * q, 1.0) for c in (1.0, 1.5, 4.0)]
    assert rates[0] <= rates[1] <= rates[2]
