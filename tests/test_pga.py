import inspect
from dataclasses import replace

import numpy as np
import pytest

from rislink import pga
from rislink.channel import FreqChannelSet
from rislink.config import SystemConfig, preset_config
from rislink.harness import draw_trial, total_power_for_snr
from rislink.pga import MU_FLOOR, FirstStep, ascent_step, gradient_phi, pga_optimize, project_unit_modulus
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
    np.testing.assert_allclose(project_unit_modulus(unit), unit, atol=1e-15)
    np.testing.assert_allclose(project_unit_modulus(np.array([3.0 + 4.0j])), [0.6 + 0.8j],
                               atol=1e-15)
    prev = np.array([1.0j, 1.0])
    out = project_unit_modulus(np.array([0.0, 2.0]), fallback=prev)
    np.testing.assert_allclose(out, [1.0j, 1.0], atol=1e-15)
    out_default = project_unit_modulus(np.array([0.0]))
    np.testing.assert_allclose(out_default, [1.0], atol=1e-15)


def test_projection_is_the_same_on_the_fast_and_the_guarded_path():
    # an appended 0j sends the whole array down the guarded path; its finite entries must not move a bit
    rng = substream(97)
    for values in (crandn(rng, 64), 1e-150 * crandn(rng, 8), np.array([3.0 + 4.0j, -1e100, 1e-300j])):
        fast = project_unit_modulus(values)
        guarded = project_unit_modulus(np.append(values, 0j))
        np.testing.assert_array_equal(guarded[:-1], fast)
        assert guarded[-1] == 1.0


def test_guarded_projection_does_not_overflow_a_large_entry():
    # the guarded path rescales the subnormal entries alone, so a huge entry beside a zero projects cleanly
    values = np.array([-1e300, 0j, 3e-320j, 1e200 + 1e200j])
    before = values.copy()
    got = project_unit_modulus(values, fallback=np.full(4, 1j))
    np.testing.assert_array_equal(got[:3], [-1.0, 1j, 1j])
    np.testing.assert_allclose(got[3], np.exp(0.25j * np.pi), rtol=1e-15)
    np.testing.assert_array_equal(values, before)  # the caller's array is left as it was


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
    assert (res.stop_reason, res.gradient_passes) == ("max_iter", 3)


def test_pga_stops_at_tolerance():
    # any first step moves the rate by less than a tolerance of 1e3
    rng = substream(91)
    ch, _, phi = random_instance(rng, k=2, n_r=2, n_t=4, n_ris=8)
    res = pga_optimize(ch, 5.0, phi0=phi, epsilon=1e3)
    assert res.converged
    assert (res.stop_reason, res.iterations, res.gradient_passes) == ("tolerance", 1, 1)


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


def first_step(channels, total_power, phi0, mu0=SystemConfig.mu0):
    """The `FirstStep` a run at these arguments builds, taken by the public kernels."""
    start = waterfill_covariances(equivalent_channel(channels, phi0), total_power)
    grad, scale, diag, heq = ascent_step(channels, start, phi0.diag, mu0)
    return FirstStep(start, grad, scale, diag, None if scale == 0.0 else waterfill_covariances(heq, total_power))


def test_pga_from_a_given_start_allocation_is_the_same_run():
    rng = substream(93)
    ch, _, phi = random_instance(rng, k=3, n_r=2, n_t=4, n_ris=6)
    first = first_step(ch, 8.0, phi, 0.1)
    given, built = pga_optimize(ch, 8.0, phi0=phi, first=first), pga_optimize(ch, 8.0, phi0=phi)
    np.testing.assert_array_equal(given.trace, built.trace)
    np.testing.assert_array_equal(given.phi.diag, built.phi.diag)
    with pytest.raises(ValueError, match="needs the phases phi0"):
        pga_optimize(ch, 8.0, rng=rng, first=first)


@pytest.mark.parametrize("stop_reason, kw", [("tolerance", {}),
                                              ("mu_floor", {"mu0": 0.5 * MU_FLOOR, "epsilon": 1e-300}),
                                              ("max_iter", {"epsilon": 1e-300, "max_iter": 1}),
                                              ("zero_gradient", {})])
def test_pga_given_its_first_step_is_the_run_that_builds_it(stop_reason, kw):
    # the loop consumes a given first step as it does the one it builds, whichever rule ends the run
    ch, _, phi = random_instance(substream(99), k=3, n_r=2, n_t=4, n_ris=6)
    if stop_reason == "zero_gradient":
        ch = FreqChannelSet(h1=ch.h1, h2=0.0 * ch.h2, h3=ch.h3)
    first = first_step(ch, 8.0, phi, kw.get("mu0", SystemConfig.mu0))
    given, built = pga_optimize(ch, 8.0, phi0=phi, first=first, **kw), pga_optimize(ch, 8.0, phi0=phi, **kw)
    assert built.stop_reason == stop_reason
    if stop_reason == "tolerance":
        assert built.iterations > 1
    np.testing.assert_array_equal(given.trace, built.trace)
    np.testing.assert_array_equal(given.phi.diag, built.phi.diag)
    assert (given.rate, given.start_rate, given.stop_reason, given.iterations, given.gradient_passes,
            given.stationarity) == (built.rate, built.start_rate, built.stop_reason, built.iterations,
                                    built.gradient_passes, built.stationarity)


@pytest.mark.parametrize("given", [False, True], ids=["built", "given"])
@pytest.mark.parametrize("count", [1, 3])
def test_pga_refuses_start_phases_of_the_wrong_count_on_either_path(count, given):
    # unchecked, a given first step broadcasts one phase over the RIS or fails inside numpy
    ch, _, phi = random_instance(substream(97), n_ris=4)
    first = first_step(ch, 8.0, phi) if given else None
    with pytest.raises(ValueError, match=f"^phase count {count} does not match RIS element count 4$"):
        pga_optimize(ch, 8.0, phi0=RisPhases.random(count, substream(98)), first=first)


def test_pga_calls_each_kernel_once_per_pass(monkeypatch):
    # a built run takes one gradient a pass and one waterfill a step, plus its start's waterfill; a given first
    # step carries the start and the first step, so its run takes one gradient and two waterfills fewer
    cfg, geom = preset_config("desk")
    geom = replace(geom, bs_height=10.0, d_ris=2.2)
    channels, gains = draw_trial(cfg, geom, (0, 99, 0))
    folded, power = fold_gains(channels, gains), total_power_for_snr(cfg, geom, 10.0)
    phi0 = RisPhases.random(cfg.n_ris, substream(0, 99, 0, 1))
    first = first_step(folded, power, phi0)
    calls = {}

    def counted(name, kernel):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return kernel(*args, **kwargs)
        return wrapper

    for name in ("gradient_phi", "waterfill_covariances"):
        monkeypatch.setattr(pga, name, counted(name, getattr(pga, name)))
    for kw, stop_reason in (({}, "tolerance"), ({"max_iter": 2}, "max_iter")):  # a run at its cap takes no step past it
        calls.clear()
        result = pga_optimize(folded, power, phi0=phi0, **kw)
        assert result.iterations > 1 and result.stop_reason == stop_reason
        assert calls == {"gradient_phi": result.gradient_passes, "waterfill_covariances": result.iterations + 1}
        calls.clear()
        result = pga_optimize(folded, power, phi0=phi0, first=first, **kw)
        assert result.iterations > 1 and result.stop_reason == stop_reason
        assert calls == {"gradient_phi": result.gradient_passes - 1, "waterfill_covariances": result.iterations - 1}


@pytest.mark.parametrize("mu0, epsilon", [(0.0, 1e-3), (-0.1, 1e-3), (np.nan, 1e-3), (np.inf, 1e-3),
                                          (0.1, 0.0), (0.1, np.nan), (0.1, np.inf)])
def test_pga_rejects_non_positive_or_nan_step_and_tolerance(mu0, epsilon):
    rng = substream(92)
    ch, _, phi = random_instance(rng)
    bad = "epsilon" if mu0 == 0.1 else "mu0"  # each case breaks one of the two
    with pytest.raises(ValueError, match=f"^{bad} must hold finite numbers > 0, got "):
        pga_optimize(ch, 1.0, mu0=mu0, epsilon=epsilon, phi0=phi)


# unchecked, a fractional cap runs its ceiling in iterations and a bool counts as 0 or 1
@pytest.mark.parametrize("max_iter", [0, -1, 2.5, np.float64(3.0), True])
def test_pga_rejects_an_iteration_cap_that_is_not_an_integer_at_least_one(max_iter):
    ch, _, phi = random_instance(substream(93))
    with pytest.raises(ValueError, match="^max_iter must hold integers >= 1, got "):
        pga_optimize(ch, 1.0, max_iter=max_iter, phi0=phi)
    assert pga_optimize(ch, 1.0, max_iter=np.int64(1), phi0=phi).iterations <= 1


@pytest.mark.parametrize("name", ["mu0", "epsilon"])
def test_pga_rejects_a_bool_step_or_tolerance_naming_it(name):
    # True == 1 passes a bare comparison; the config's rule refuses a bool in a float field
    ch, _, phi = random_instance(substream(94))
    with pytest.raises(ValueError, match=f"^{name} must hold finite numbers > 0, got True"):
        pga_optimize(ch, 1.0, phi0=phi, **{name: True})


def test_pga_step_rule_defaults_are_the_config_defaults():
    params = inspect.signature(pga_optimize).parameters
    cfg = SystemConfig()
    assert {name: params[name].default for name in ("mu0", "epsilon", "max_iter")} == {
        "mu0": cfg.mu0, "epsilon": cfg.epsilon, "max_iter": cfg.max_iter}
    # bench/tracer.py reads the integer cap default and passes `meter=`
    assert type(params["max_iter"].default) is int and "meter" in params


def test_pga_takes_prior_work_only_as_a_first_step():
    # one hand-off, `first=`, so a second way into the loop cannot return unnoticed
    params = inspect.signature(pga_optimize).parameters
    assert [name for name, p in params.items() if p.kind is p.KEYWORD_ONLY] == [
        "mu0", "epsilon", "max_iter", "rng", "phi0", "first", "meter"]


def reference_pga(channels, total_power, phi0, mu0=0.1, epsilon=1e-3, max_iter=200, gradient=gradient_phi):
    """The ascent loop on the public kernels, with a validated RisPhases at every iterate."""
    phi = phi0
    alloc = waterfill_covariances(equivalent_channel(channels, phi), total_power)
    trace = [alloc.rate]
    mu, iterations, stop_reason = mu0, 0, "max_iter"
    while iterations < max_iter:
        grad = gradient(channels, alloc, phi)
        scale = np.max(np.abs(grad))
        # the phase derivative d rate / d theta_i is -2 Im(phi_i g_i), relative to the gradient's scale
        stationarity = np.max(np.abs(np.imag(phi.diag * grad))) / scale if scale > 0.0 else 0.0
        if scale == 0.0:
            stop_reason = "zero_gradient"
            break
        new_phi = RisPhases(project_unit_modulus(phi.diag + (mu / scale) * grad.conj(), fallback=phi.diag))
        new_alloc = waterfill_covariances(equivalent_channel(channels, new_phi), total_power)
        iterations += 1
        delta = new_alloc.rate - alloc.rate
        if delta > 0:
            phi, alloc = new_phi, new_alloc
        else:
            mu /= 10.0
        trace.append(alloc.rate)
        if abs(delta) < epsilon:
            stop_reason = "tolerance"
            break
        if mu < MU_FLOOR:
            stop_reason = "mu_floor"
            break
    return phi, np.asarray(trace), iterations, stop_reason, stationarity


def assert_matches_reference(channels, total_power, phi0, gradient=gradient_phi, **kw):
    result = pga_optimize(channels, total_power, phi0=phi0, **kw)
    phi, trace, iterations, stop_reason, stationarity = reference_pga(channels, total_power, phi0,
                                                                      gradient=gradient, **kw)
    assert np.array_equal(result.trace, trace)
    assert np.array_equal(result.phi.diag, phi.diag)
    assert (result.iterations, result.stop_reason) == (iterations, stop_reason)
    assert result.converged == (stop_reason in ("tolerance", "zero_gradient"))
    assert result.gradient_passes == iterations + (stop_reason == "zero_gradient")
    assert result.rate == trace[-1] and result.start_rate == trace[0]
    np.testing.assert_allclose(result.stationarity, stationarity, rtol=1e-12, atol=0.0)
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


def test_stationarity_falls_over_a_long_run():
    # the last gradient of a long, tight run sits closer to a stationary point than the start phases
    cfg, geom = preset_config("desk")
    geom = replace(geom, bs_height=10.0, d_ris=2.2)
    channels, gains = draw_trial(cfg, geom, (0, 96, 0))
    folded, power = fold_gains(channels, gains), total_power_for_snr(cfg, geom, 10.0)
    phi0 = RisPhases.random(cfg.n_ris, substream(0, 96, 0, 1))
    one_step = pga_optimize(folded, power, max_iter=1, phi0=phi0)
    long_run = pga_optimize(folded, power, epsilon=1e-7, max_iter=3000, phi0=phi0)
    assert long_run.iterations > 1
    assert 0.0 <= long_run.stationarity < one_step.stationarity <= 1.0


def test_pga_matches_reference_loop_at_zero_gradient():
    rng = substream(94)
    ch, _, phi = random_instance(rng, k=3, n_r=2, n_t=4, n_ris=6)
    ch0 = FreqChannelSet(h1=ch.h1, h2=0.0 * ch.h2, h3=ch.h3)
    result = assert_matches_reference(ch0, 5.0, phi)
    assert result.converged and result.iterations == 0
    assert (result.stop_reason, result.gradient_passes) == ("zero_gradient", 1)
    assert result.stationarity == 0.0


def test_pga_matches_reference_loop_below_mu_floor():
    # with mu0 under the floor, the run ends after its first step, which moves the rate by more than epsilon
    rng = substream(95)
    ch, _, phi = random_instance(rng, k=3, n_r=2, n_t=4, n_ris=6)
    result = assert_matches_reference(ch, 5.0, phi, mu0=0.5 * MU_FLOOR, epsilon=1e-300)
    assert not result.converged and result.iterations == 1
    assert (result.stop_reason, result.gradient_passes) == ("mu_floor", 1)


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
