"""Property-based checks of the waterfilling, waterfilled-rate, phase-gradient and projection kernels,
and of the harness's trial chunks.

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
from rislink.pga import gradient_phi, project_unit_modulus  # noqa: E402
from rislink.power import ABS_EIG_FLOOR, REL_EIG_FLOOR, waterfill, waterfill_covariances  # noqa: E402
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
    out = project_unit_modulus(values, fallback=fallback).diag
    assert np.all(np.abs(np.abs(out) - 1.0) <= 1e-12)
    zero = values == 0
    np.testing.assert_array_equal(out[zero], fallback[zero])
    np.testing.assert_allclose(out[~zero], np.exp(1j * np.angle(values[~zero])), rtol=0, atol=1e-12)


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
    points, keys, (whole, whole_runs) = chunk_case()
    bounds = [0, *sorted(cuts), N_CHUNK_TRIALS]
    for a, b in zip(bounds, bounds[1:]):
        trials = order[a:b]
        part, runs = harness._trial_rates(points, [keys[t] for t in trials])
        assert np.array_equal(part, whole[:, :, trials])
        # iterations and gradient passes; the third row is wall time
        assert np.array_equal(runs[:, :2], whole_runs[:, :2, trials])
