from dataclasses import replace

import numpy as np
import pytest

from rislink import pga
from rislink.channel import FreqChannelSet
from rislink.harness import draw_trial, preset_config, total_power_for_snr
from rislink.pga import MU_FLOOR, gradient_phi, pga_optimize, project_unit_modulus
from rislink.power import waterfill_covariances
from rislink.rate import RisPhases, combine_links, equivalent_channel, fold_gains, rate_from_heq
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


@pytest.mark.parametrize("mu0, epsilon", [(0.0, 1e-3), (-0.1, 1e-3), (np.nan, 1e-3),
                                          (0.1, 0.0), (0.1, np.nan)])
def test_pga_rejects_non_positive_or_nan_step_and_tolerance(mu0, epsilon):
    rng = substream(92)
    ch, _, phi = random_instance(rng)
    with pytest.raises(ValueError, match="need mu0 > 0, epsilon > 0"):
        pga_optimize(ch, 1.0, mu0=mu0, epsilon=epsilon, phi0=phi)


def reference_pga(channels, total_power, phi0, mu0=0.1, epsilon=1e-3, max_iter=200, gradient=gradient_phi):
    """The ascent loop on the public kernels, with a validated RisPhases at every iterate."""
    phi = phi0
    alloc = waterfill_covariances(equivalent_channel(channels, phi), total_power)
    trace = [alloc.rate]
    mu, iterations, converged = mu0, 0, False
    while iterations < max_iter:
        grad = gradient(channels, alloc, phi)
        scale = np.max(np.abs(grad))
        if scale == 0.0:
            converged = True
            break
        new_phi = project_unit_modulus(phi.diag + (mu / scale) * grad.conj(), fallback=phi.diag)
        new_alloc = waterfill_covariances(equivalent_channel(channels, new_phi), total_power)
        iterations += 1
        delta = new_alloc.rate - alloc.rate
        if delta > 0:
            phi, alloc = new_phi, new_alloc
        else:
            mu /= 10.0
        trace.append(alloc.rate)
        if abs(delta) < epsilon:
            converged = True
            break
        if mu < MU_FLOOR:
            break
    return phi, np.asarray(trace), iterations, converged


def assert_matches_reference(channels, total_power, phi0, gradient=gradient_phi, **kw):
    result = pga_optimize(channels, total_power, phi0=phi0, **kw)
    phi, trace, iterations, converged = reference_pga(channels, total_power, phi0, gradient=gradient, **kw)
    assert np.array_equal(result.trace, trace)
    assert np.array_equal(result.phi.diag, phi.diag)
    assert (result.iterations, result.converged) == (iterations, converged)
    assert result.rate == trace[-1] and result.start_rate == trace[0]
    return result


@pytest.mark.parametrize("snr_db", [-5.0, 10.0])
@pytest.mark.parametrize("los", [True, False], ids=["los", "nlos"])
@pytest.mark.parametrize("n_ris", [16, 64])
def test_pga_matches_reference_loop_on_desk_draws(n_ris, los, snr_db):
    cfg, geom = preset_config("desk")
    cfg = cfg.with_n_ris(n_ris)
    geom = replace(geom, bs_height=10.0, d_ris=2.2, p_los_override=float(los))
    channels, gains = draw_trial(cfg, geom, (0, 93, n_ris))
    assert gains.los == los
    phi0 = RisPhases.random(n_ris, substream(0, 93, n_ris, 1))
    power = total_power_for_snr(cfg, geom, snr_db)
    result = assert_matches_reference(fold_gains(channels, gains), power, phi0)
    assert result.iterations >= 1


def test_pga_matches_reference_loop_at_zero_gradient():
    rng = substream(94)
    ch, _, phi = random_instance(rng, k=3, n_r=2, n_t=4, n_ris=6)
    ch0 = FreqChannelSet(h1=ch.h1, h2=0.0 * ch.h2, h3=ch.h3)
    result = assert_matches_reference(ch0, 5.0, phi)
    assert result.converged and result.iterations == 0


def test_pga_matches_reference_loop_below_mu_floor():
    # with mu0 under the floor, the run ends after its first step, which moves the rate by more than epsilon
    rng = substream(95)
    ch, _, phi = random_instance(rng, k=3, n_r=2, n_t=4, n_ris=6)
    result = assert_matches_reference(ch, 5.0, phi, mu0=0.5 * MU_FLOOR, epsilon=1e-300)
    assert not result.converged and result.iterations == 1


def test_pga_matches_reference_loop_on_a_step_onto_zero(monkeypatch):
    # the first step lands the first two entries exactly on 0, which keep their previous phase
    rng = substream(96)
    ch, _, _ = random_instance(rng, k=3, n_r=2, n_t=4, n_ris=4)
    phi0 = RisPhases(np.array([1.0, -1.0, 1.0j, -1.0j]))
    grad = np.array([-1.0, 1.0, 0.5, 0.25j])  # phi0 + conj(grad) = [0, 0, 0.5+1j, -1.25j]

    def fixed_gradient(channels, alloc, phi=None):
        return grad

    monkeypatch.setattr(pga, "gradient_phi", fixed_gradient)
    assert_matches_reference(ch, 5.0, phi0, gradient=fixed_gradient, mu0=1.0, epsilon=1e-300, max_iter=4)
