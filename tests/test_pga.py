import numpy as np
import pytest

from rislink.channel import FreqChannelSet
from rislink.pga import gradient_phi, pga_optimize, project_unit_modulus
from rislink.rate import RisPhases, combine_links, equivalent_channel, rate_from_heq
from rislink.rng import substream


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_instance(rng, k=2, n_r=2, n_t=4, n_ris=4):
    ch = FreqChannelSet(h1=crandn(rng, k, n_ris, n_t), h2=crandn(rng, k, n_r, n_ris),
                        h3=crandn(rng, k, n_r, n_t))
    a = crandn(rng, k, n_t, n_t)
    q = a @ a.conj().transpose(0, 2, 1)
    phi = RisPhases.random(n_ris, rng)
    return ch, q, phi


def sum_rate(ch, q, theta, noise_var=1.0):
    heq = combine_links(ch.h1, ch.h2, ch.h3, np.exp(1j * theta))
    return rate_from_heq(heq, q, noise_var) * ch.h1.shape[0]


def test_gradient_zero_when_h2_zero():
    rng = substream(80)
    ch, q, phi = random_instance(rng)
    ch0 = FreqChannelSet(h1=ch.h1, h2=0.0 * ch.h2, h3=ch.h3)
    np.testing.assert_array_equal(gradient_phi(ch0, q, phi), np.zeros(4, dtype=complex))


def test_gradient_zero_when_q_zero():
    rng = substream(81)
    ch, q, phi = random_instance(rng)
    np.testing.assert_array_equal(gradient_phi(ch, 0.0 * q, phi), np.zeros(4, dtype=complex))


def test_gradient_matches_finite_differences():
    rng = substream(82)
    delta = 1e-5
    for _ in range(5):
        ch, q, phi = random_instance(rng)
        theta = np.angle(phi.diag)
        g = gradient_phi(ch, q, phi, 1.0)
        for i in range(4):
            tp = theta.copy()
            tp[i] += delta
            tm = theta.copy()
            tm[i] -= delta
            fd = (sum_rate(ch, q, tp) - sum_rate(ch, q, tm)) / (2 * delta)
            analytic = -2.0 * np.imag(phi.diag[i] * g[i])
            assert abs(fd - analytic) <= 1e-5 * max(abs(fd), abs(analytic), 1e-9)


def yz_gradient(ch, q, phi, noise_var):
    """Reference gradient with the paper's separate Y and Z terms."""
    heq = equivalent_channel(ch, phi)
    h1q = ch.h1 @ q
    y = h1q @ ch.h3.conj().transpose(0, 2, 1)
    z = (h1q @ ch.h1.conj().transpose(0, 2, 1) * phi.diag.conj()[None, None, :]) \
        @ ch.h2.conj().transpose(0, 2, 1)
    a = np.eye(heq.shape[1]) + heq @ q @ heq.conj().transpose(0, 2, 1) / noise_var
    ainv_x = np.linalg.solve(a, ch.h2) / noise_var
    return np.einsum("kir,kri->ki", y + z, ainv_x).sum(axis=0) / np.log(2.0)


def test_collapsed_gradient_matches_yz_reference():
    rng = substream(91)
    for k, n_r, n_t, n_ris, noise_var in ((2, 2, 4, 4, 1.0), (3, 4, 16, 16, 0.3),
                                          (1, 3, 2, 9, 2.5), (2, 1, 1, 5, 1.0)):
        ch, q, phi = random_instance(rng, k=k, n_r=n_r, n_t=n_t, n_ris=n_ris)
        g = gradient_phi(ch, q, phi, noise_var)
        ref = yz_gradient(ch, q, phi, noise_var)
        np.testing.assert_allclose(g, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())


def test_gradient_additive_over_subcarriers():
    rng = substream(83)
    ch, q, phi = random_instance(rng, k=3)
    total = gradient_phi(ch, q, phi)
    parts = sum(
        gradient_phi(FreqChannelSet(h1=ch.h1[k:k + 1], h2=ch.h2[k:k + 1], h3=ch.h3[k:k + 1]),
                     q[k:k + 1], phi)
        for k in range(3)
    )
    np.testing.assert_allclose(total, parts, rtol=1e-10)


def test_gradient_with_noise_variance():
    # scaling both noise and power leaves A_k, hence the X_k-normalized trace, consistent
    rng = substream(84)
    ch, q, phi = random_instance(rng)
    g1 = gradient_phi(ch, q, phi, noise_var=1.0)
    g2 = gradient_phi(ch, 2.0 * q, phi, noise_var=2.0)
    np.testing.assert_allclose(g2, g1, rtol=1e-10)


def test_projection_cases():
    unit = np.exp(1j * np.array([0.3, -1.2]))
    np.testing.assert_allclose(project_unit_modulus(unit).diag, unit, atol=1e-15)
    np.testing.assert_allclose(project_unit_modulus(np.array([3.0 + 4.0j])).diag, [0.6 + 0.8j],
                               atol=1e-15)
    prev = np.array([1.0j, 1.0])
    out = project_unit_modulus(np.array([0.0, 2.0]), fallback=prev)
    np.testing.assert_allclose(out.diag, [1.0j, 1.0], atol=1e-15)
    out_default = project_unit_modulus(np.array([0.0]))
    np.testing.assert_allclose(out_default.diag, [1.0], atol=1e-15)


def test_pga_cascade_only_scalar_optimum():
    # with no direct term any phase is optimal: rate = log2(1 + |h1 h2|^2 P)
    rng = substream(85)
    h1, h2 = crandn(rng, 1)[0], crandn(rng, 1)[0]
    ch = FreqChannelSet(h1=np.array([[[h1]]]), h2=np.array([[[h2]]]), h3=np.zeros((1, 1, 1)))
    p = 3.0
    res = pga_optimize(ch, p, rng=rng, epsilon=1e-6, max_iter=500)
    assert res.rate == pytest.approx(np.log2(1 + abs(h1 * h2) ** 2 * p), abs=1e-5)


def test_pga_phase_alignment_scalar_optimum():
    rng = substream(86)
    a, b, c = crandn(rng, 3)
    ch = FreqChannelSet(h1=np.array([[[b]]]), h2=np.array([[[c]]]), h3=np.array([[[a]]]))
    p = 4.0
    res = pga_optimize(ch, p, rng=rng, epsilon=1e-6, max_iter=2000)
    expected = np.log2(1 + (abs(a) + abs(b * c)) ** 2 * p)
    assert res.rate == pytest.approx(expected, abs=1e-4)


def test_pga_monotone_trace_and_feasibility():
    rng = substream(87)
    ch, _, _ = random_instance(rng, k=3, n_r=2, n_t=4, n_ris=8)
    res = pga_optimize(ch, 20.0, rng=rng)
    diffs = np.diff(res.trace)
    assert np.all(diffs >= 0)
    assert res.rate == res.trace[-1]
    assert res.rate >= res.trace[0]
    assert np.max(np.abs(np.abs(res.phi.diag) - 1.0)) <= 1e-12
    assert res.converged or res.iterations == 200


def test_pga_non_converged_flag_at_cap():
    rng = substream(88)
    ch, _, _ = random_instance(rng, k=2, n_r=2, n_t=4, n_ris=8)
    res = pga_optimize(ch, 50.0, rng=rng, epsilon=1e-12, max_iter=3)
    assert res.iterations == 3
    assert not res.converged


def test_pga_global_phase_invariance_without_direct():
    rng = substream(89)
    for n_ris in (1, 4):
        ch = FreqChannelSet(h1=crandn(rng, 2, n_ris, 3), h2=crandn(rng, 2, 2, n_ris),
                            h3=np.zeros((2, 2, 3)))
        a = crandn(rng, 2, 3, 3)
        q = a @ a.conj().transpose(0, 2, 1)
        theta = rng.uniform(0, 2 * np.pi, n_ris)
        base = sum_rate(ch, q, theta)
        for shift in (0.5, 1.7, np.pi):
            np.testing.assert_allclose(sum_rate(ch, q, theta + shift), base, rtol=1e-10)


def test_pga_requires_rng_or_phi0():
    rng = substream(90)
    ch, _, _ = random_instance(rng)
    with pytest.raises(ValueError):
        pga_optimize(ch, 1.0)
    res = pga_optimize(ch, 1.0, phi0=RisPhases.from_angles(np.zeros(4)))
    assert res.trace[0] > 0
