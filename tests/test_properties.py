"""Property-based checks of the waterfilling, waterfilled-rate, phase-gradient, projection and ascent-step
kernels, and of the harness's trial chunks.

Examples are derandomized so the suite draws the same cases on every run.
"""

import functools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from rislink import harness  # noqa: E402
from rislink.channel import FreqChannelSet  # noqa: E402
from rislink.config import GeometryConfig, SystemConfig  # noqa: E402
from rislink.pga import ascent_step, gradient_phi, project_unit_modulus  # noqa: E402
from rislink.power import (  # noqa: E402
    ABS_EIG_FLOOR,
    REL_EIG_FLOOR,
    PowerAllocation,
    channel_eigvals,
    stream_rate,
    waterfill,
    waterfill_covariances,
)
from rislink.rate import RisPhases, combine_links, equivalent_channel, rate_from_heq  # noqa: E402
from rislink.rng import substream  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

eigenvalue_grids = arrays(
    float,
    st.tuples(st.integers(1, 6), st.integers(1, 4)),
    elements=st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
)


@PROPERTY_SETTINGS
@given(lam=eigenvalue_grids, total_power=st.floats(1e-3, 1e4))
def test_waterfill_kkt_and_budget(lam, total_power):
    floor = max(ABS_EIG_FLOOR / total_power, REL_EIG_FLOOR * lam.max())
    hypothesis.assume(np.any(lam > floor))
    p, cutoff = waterfill(lam, total_power)
    level = 1.0 / cutoff
    # p_i = level - 1/lam_i cancels digits when both terms dwarf p_i, so the
    # tolerances scale with the water level
    tol = 1e-12 * level
    assert p.shape == lam.shape and np.all(p >= 0.0)
    assert abs(p.sum() - total_power) <= 1e-12 * total_power + lam.size * tol
    assert np.all(p[lam <= floor] == 0.0)
    on = p > 0
    np.testing.assert_allclose(p[on] + 1.0 / lam[on], level, rtol=0, atol=tol)
    off = ~on & (lam > floor)
    assert np.all(1.0 / lam[off] >= level - tol)


# a few values, so rows hold ties, and exact zeros
tied_or_zero = st.one_of(st.just(0.0), st.sampled_from([0.25, 1.0, 3.0]), st.floats(1e-6, 1e6))


@PROPERTY_SETTINGS
@given(data=st.data(), rows=st.integers(1, 5), k=st.integers(1, 4), n_s=st.integers(1, 4))
def test_row_budgets_waterfill_each_row_as_a_lone_call(data, rows, k, n_s):
    lam = data.draw(arrays(float, (rows, k, n_s), elements=tied_or_zero))
    budgets = data.draw(arrays(float, rows, elements=st.floats(1e-3, 1e4)))
    for r in range(rows):  # streams exactly at either floor, which get no power
        top = lam[r].max()
        at_floor = data.draw(st.sampled_from([None, ABS_EIG_FLOOR / budgets[r], REL_EIG_FLOOR * top]))
        if at_floor is not None:
            lam[r].flat[data.draw(st.integers(0, k * n_s - 1))] = at_floor
        hypothesis.assume(lam[r].max() > max(ABS_EIG_FLOOR / budgets[r], REL_EIG_FLOOR * lam[r].max()))
    p, cutoff = waterfill(lam, budgets)
    rates = stream_rate(lam, p)
    for r in range(rows):
        alone_p, alone_cutoff = waterfill(lam[r], budgets[r])
        assert np.array_equal(p[r], alone_p) and cutoff[r] == alone_cutoff
        assert rates[r] == float(stream_rate(lam[r], alone_p))


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), n_r=st.integers(1, 4),
       n_t=st.integers(1, 6), log_scale=st.floats(-2.0, 1.0), zero_last=st.booleans(),
       noise_var=st.floats(0.1, 10.0), power=st.floats(0.01, 100.0))
def test_waterfilled_rate_matches_log_det(seed, k, n_r, n_t, log_scale, zero_last, noise_var, power):
    heq = 10.0**log_scale * crandn(substream(seed), k, n_r, n_t)
    if zero_last and k > 1:  # a subcarrier with no channel at all
        heq[-1] = 0.0
    alloc = waterfill_covariances(heq, power, noise_var)
    expected = rate_from_heq(heq, alloc.q, noise_var)
    assert abs(alloc.rate - expected) <= 1e-10 * max(1.0, expected)


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), n_r=st.integers(1, 4),
       n_t=st.integers(1, 5), n_ris=st.integers(1, 6), noise_var=st.floats(0.1, 10.0),
       power=st.floats(0.01, 100.0))
def test_gradient_matches_central_differences(seed, k, n_r, n_t, n_ris, noise_var, power):
    rng = substream(seed)
    ch = FreqChannelSet(h1=crandn(rng, k, n_ris, n_t), h2=crandn(rng, k, n_r, n_ris),
                        h3=crandn(rng, k, n_r, n_t))
    a = crandn(rng, k, n_t, n_t)
    q = power * a @ a.conj().transpose(0, 2, 1) / n_t
    theta = rng.uniform(0.0, 2.0 * np.pi, n_ris)
    phi = RisPhases.from_angles(theta)
    g = gradient_phi(ch, q, phi, noise_var)

    def sum_rate(th):
        return rate_from_heq(combine_links(ch.h1, ch.h2, ch.h3, np.exp(1j * th)), q, noise_var) * k

    # C01's check: the phase derivative is -2 Im(phi_i g_i); the absolute term
    # covers the central difference's rounding, about eps * rate / delta
    delta = 1e-5
    slack = 1e-8 * max(1.0, sum_rate(theta))
    for i in range(n_ris):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += delta
        tm[i] -= delta
        fd = (sum_rate(tp) - sum_rate(tm)) / (2 * delta)
        analytic = -2.0 * np.imag(phi.diag[i] * g[i])
        assert abs(fd - analytic) <= 1e-5 * max(abs(fd), abs(analytic)) + slack


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), n_r=st.integers(1, 5),
       n_t=st.integers(1, 5), n_ris=st.integers(1, 6), rank_one=st.booleans(), zero_last=st.booleans(),
       noise_var=st.floats(0.1, 10.0), power=st.floats(0.01, 100.0))
def test_allocation_gradient_matches_dense_form(seed, k, n_r, n_t, n_ris, rank_one, zero_last, noise_var, power):
    rng = substream(seed)
    h2, h3 = crandn(rng, k, n_r, n_ris), crandn(rng, k, n_r, n_t)
    if rank_one:  # both paths leave along one receive direction, so every H_eq[k] has rank one
        col = crandn(rng, k, n_r, 1)
        h2 = col @ crandn(rng, k, 1, n_ris)
        h3 = col @ crandn(rng, k, 1, n_t)
    if zero_last and k > 1:  # a subcarrier with no channel at all
        h2[-1], h3[-1] = 0.0, 0.0
    ch = FreqChannelSet(h1=crandn(rng, k, n_ris, n_t), h2=h2, h3=h3)
    phi = RisPhases.random(n_ris, rng)
    alloc = waterfill_covariances(equivalent_channel(ch, phi), power, noise_var)
    g = gradient_phi(ch, alloc, phi, noise_var)
    ref = gradient_phi(ch, alloc.q, phi, noise_var)
    np.testing.assert_allclose(g, ref, rtol=0, atol=1e-10 * np.abs(ref).max())


# exact zeros, entries on either axis and subnormal moduli all occur
finite_parts = st.one_of(st.just(0.0), st.floats(-1e6, 1e6))
complex_entries = st.one_of(st.just(0j), st.builds(complex, finite_parts, finite_parts))


@PROPERTY_SETTINGS
@given(values=arrays(complex, st.integers(1, 8), elements=complex_entries),
       angles=arrays(float, 8, elements=st.floats(-np.pi, np.pi)))
def test_projection_unit_modulus_fallback_and_angle(values, angles):
    fallback = np.exp(1j * angles[:values.size])
    out = project_unit_modulus(values, fallback=fallback)
    assert np.all(np.abs(np.abs(out) - 1.0) <= 1e-12)
    zero = values == 0
    np.testing.assert_array_equal(out[zero], fallback[zero])
    np.testing.assert_allclose(out[~zero], np.exp(1j * np.angle(values[~zero])), rtol=0, atol=1e-12)


# channel entries from a few values, so that eigenvalues tie and channels lose rank, or drawn freely
tied_entries = st.one_of(st.sampled_from([0j, 1 + 0j, -1j, 0.5 + 0.5j]),
                         st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))


def member_stack(data, reflected):
    """A folded channel, start phases, and the start allocations of 1-4 members on it, one budget each.

    `reflected` is "on", "off" (the reflected gain underflowed to 0, so every gradient is zero) or "last" (only the
    last subcarrier reflects, and weakly, so a small budget leaves it dark and that member's gradient zero).
    Budgets span ten decades, so weak streams get zero power.
    """
    k, n_r, n_t, n_ris = (data.draw(st.integers(1, 4)) for _ in range(4))
    h1, h2, h3 = (data.draw(arrays(complex, shape, elements=tied_entries))
                  for shape in ((k, n_ris, n_t), (k, n_r, n_ris), (k, n_r, n_t)))
    if reflected == "off":
        h1[:] = 0.0
    elif reflected == "last":
        h2[:-1] = 0.0
        h1[-1] *= 1e-2
        h3[-1] *= 1e-2
    channels = FreqChannelSet(h1=h1, h2=h2, h3=h3)
    diag = np.exp(1j * data.draw(arrays(float, n_ris, elements=st.sampled_from([0.0, 0.5 * np.pi, 1.0, 2.0]))))
    budgets = data.draw(arrays(float, data.draw(st.integers(1, 4)), elements=st.floats(1e-3, 1e7)))
    heq = combine_links(h1, h2, h3, diag)
    lam, w = channel_eigvals(heq)
    top = lam.max(initial=0.0)
    hypothesis.assume(all(top > max(ABS_EIG_FLOOR / b, REL_EIG_FLOOR * top) for b in budgets))
    p, _ = waterfill(np.repeat(lam[None], budgets.size, axis=0), budgets)
    stack = PowerAllocation(heq=heq, lam=lam, w=w, p=p, rate=stream_rate(lam, p))
    return channels, diag, budgets, stack


@PROPERTY_SETTINGS
@given(data=st.data(), reflected=st.sampled_from(["on", "off", "last"]))
def test_stacked_gradient_equals_lone_calls(data, reflected):
    # the members of a group share its channel and start eigenpairs and differ only in their powers
    channels, diag, budgets, stack = member_stack(data, reflected)
    grads = gradient_phi(channels, stack)
    assert grads.shape == (budgets.size, channels.h1.shape[1])
    for j, budget in enumerate(budgets):
        alone = waterfill_covariances(stack.heq, budget)
        assert np.array_equal(stack.p[j], alone.p)
        assert np.array_equal(grads[j], gradient_phi(channels, alone))
    if reflected == "off":
        assert not grads.any()


@PROPERTY_SETTINGS
@given(data=st.data(), reflected=st.sampled_from(["on", "off", "last"]))
def test_stacked_candidate_allocations_equal_lone_steps(data, reflected):
    # one stacked step and one row-wise waterfill of the live members' candidates give each member the step the
    # loop takes alone: the scale-free step, the projection and the waterfilled candidate; a zero gradient gets none
    channels, diag, budgets, stack = member_stack(data, reflected)
    mus = data.draw(arrays(float, budgets.size, elements=st.sampled_from([1e-3, 0.1, 1.0])))
    grads, scales, diags, candidates = ascent_step(channels, stack, diag, mus)
    live = scales != 0.0
    if live.any():
        lam, w = channel_eigvals(candidates[live])
        hypothesis.assume(all(top > ABS_EIG_FLOOR / b for top, b in zip(lam.max(axis=(1, 2)), budgets[live])))
        p, _ = waterfill(lam, budgets[live])
        rates = stream_rate(lam, p)
    c = 0
    for j, (budget, mu) in enumerate(zip(budgets, mus)):
        grad = gradient_phi(channels, waterfill_covariances(stack.heq, budget))
        scale = np.abs(grad).max()
        assert np.array_equal(grads[j], grad) and scales[j] == scale
        if scale == 0.0:
            assert not live[j]
            continue
        new_diag = project_unit_modulus(diag + (mu / scale) * grad.conj(), fallback=diag)
        alone = waterfill_covariances(combine_links(channels.h1, channels.h2, channels.h3, new_diag), budget)
        assert np.array_equal(diags[j], new_diag) and np.array_equal(candidates[j], alone.heq)
        assert np.array_equal(lam[c], alone.lam) and np.array_equal(w[c], alone.w)
        assert np.array_equal(p[c], alone.p) and rates[c] == alone.rate
        c += 1
    assert c == live.sum()
    if reflected == "off":
        assert not live.any()


def test_a_stack_mixes_zero_and_live_gradients():
    # a budget too small to light the one reflecting subcarrier has a zero gradient beside live members
    rng = substream(31)
    channels = FreqChannelSet(h1=crandn(rng, 2, 3, 2), h2=crandn(rng, 2, 2, 3), h3=crandn(rng, 2, 2, 2))
    channels.h2[0] = 0.0
    channels.h1[1] *= 1e-3
    channels.h3[1] *= 1e-3
    diag = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 3))
    heq = combine_links(channels.h1, channels.h2, channels.h3, diag)
    lam, w = channel_eigvals(heq)
    budgets = np.array([1e-3, 1e9, 1e-2])
    p, _ = waterfill(np.repeat(lam[None], 3, axis=0), budgets)
    stack = PowerAllocation(heq=heq, lam=lam, w=w, p=p, rate=stream_rate(lam, p))
    _, scales, _, _ = ascent_step(channels, stack, diag, np.full(3, 0.1))
    assert (scales != 0.0).tolist() == [False, True, False]


N_CHUNK_TRIALS = 6


@functools.cache
def chunk_case():
    """Small plos_vs_se points, whose trials mix LOS and NLOS, and their rates and run records in one chunk."""
    cfg = SystemConfig(tx_rows=2, tx_cols=2, rx_rows=2, rx_cols=1, ris_rows=2, ris_cols=2, n_subcarriers=6,
                       n_taps=(2, 2, 3), snr_db=(0.0,), plos_grid=(0.1, 0.5, 0.9), seed=11)
    points = harness.sweep_points(cfg, GeometryConfig(), "plos_vs_se")
    keys = [(cfg.seed, harness.SCENARIOS["plos_vs_se"], t) for t in range(N_CHUNK_TRIALS)]
    return points, keys, harness._trial_rates(points, keys)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(order=st.permutations(range(N_CHUNK_TRIALS)),
       cuts=st.sets(st.integers(1, N_CHUNK_TRIALS - 1)))
def test_trial_values_do_not_depend_on_the_chunk_partition(order, cuts):
    points, keys, whole = chunk_case()
    bounds = [0, *sorted(cuts), N_CHUNK_TRIALS]
    for a, b in zip(bounds, bounds[1:]):
        trials = order[a:b]
        part = harness._trial_rates(points, [keys[t] for t in trials])
        assert np.array_equal(part.se, whole.se[:, :, trials])
        # the counters; seconds are wall time
        assert np.array_equal(part.iterations, whole.iterations[:, trials])
        assert np.array_equal(part.gradient_passes, whole.gradient_passes[:, trials])
