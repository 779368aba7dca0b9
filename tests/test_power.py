import numpy as np
import pytest

from rislink.power import (
    ABS_EIG_FLOOR,
    REL_EIG_FLOOR,
    build_covariances,
    channel_eigvals,
    stream_rate,
    waterfill,
    waterfill_covariances,
)
from rislink.rng import substream


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def eigh_eigvals(heq, noise_var):
    """Reference eigenbasis: eigh of the full N_t x N_t noise-normalized Gram."""
    gram = heq.conj().transpose(0, 2, 1) @ heq / noise_var
    vals, vecs = np.linalg.eigh(0.5 * (gram + gram.conj().transpose(0, 2, 1)))
    n_s = min(heq.shape[1], heq.shape[2])
    return vals[:, ::-1][:, :n_s], vecs[:, :, ::-1][:, :, :n_s]


def bisection_waterfill(lam, total_power):
    """Reference waterfill: bisection on the water level to machine precision.

    Applies the same eigenvalue floors as `waterfill`; the level lies between
    the smallest inverse gain and total_power plus it. Returns (powers, level).
    """
    lam = np.asarray(lam, dtype=float)
    keep = lam > max(ABS_EIG_FLOOR / total_power, REL_EIG_FLOOR * lam.max())
    inv = 1.0 / np.where(keep, lam, 1.0)
    lo, hi = inv[keep].min(), total_power + inv[keep].min()
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if np.maximum(0.0, mid - inv[keep]).sum() > total_power:
            hi = mid
        else:
            lo = mid
    level = 0.5 * (lo + hi)
    return np.where(keep, np.maximum(0.0, level - inv), 0.0), level


def test_eigvals_identity_channel():
    heq = np.eye(3, dtype=complex)[None]
    lams, w = channel_eigvals(heq, 1.0)
    np.testing.assert_allclose(lams, np.ones((1, 3)), atol=1e-12)
    np.testing.assert_allclose(np.abs(w[0].conj().T @ w[0]), np.eye(3), atol=1e-12)


def test_eigvals_scalar_channel():
    h = 0.8 - 0.3j
    lams, _ = channel_eigvals(np.full((1, 1, 1), h), 0.5)
    np.testing.assert_allclose(lams, [[abs(h) ** 2 / 0.5]], rtol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eigvals_refuse_a_non_finite_gram(bad):
    # numpy's eigh raises on a Gram that holds a NaN; any faster path to the eigenpairs must keep this refusal
    heq = crandn(substream(69), 8, 4, 4)
    heq[3, 1, 2] = bad
    with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        channel_eigvals(heq)


def test_eigvals_of_a_stack_equal_those_of_each_slice():
    # leading axes broadcast: an (R, K, N_r, N_t) stack gets each slice's lone bits
    heq = crandn(substream(70), 6, 8, 4, 16)
    lam, w = channel_eigvals(heq, 0.7)
    assert lam.shape == (6, 8, 4) and w.shape == (6, 8, 4, 4)
    for r in range(len(heq)):
        alone_lam, alone_w = channel_eigvals(heq[r], 0.7)
        assert np.array_equal(lam[r], alone_lam) and np.array_equal(w[r], alone_w)


def test_eigvals_match_svd_oracle():
    rng = substream(70)
    sigma2 = 0.9
    rank_one = crandn(rng, 2, 3, 1) @ crandn(rng, 2, 1, 4)
    # one stream per eigenmode, N_s = min(N_r, N_t), for square, wide, tall and rank-one channels
    for heq in (crandn(rng, 2, 3, 3), crandn(rng, 2, 3, 5), crandn(rng, 2, 5, 3), rank_one):
        n_r, n_s = heq.shape[1], min(heq.shape[1:])
        lams, w = channel_eigvals(heq, sigma2)
        assert lams.shape == (2, n_s) and w.shape == (2, n_r, n_s)
        assert np.all(lams >= 0.0) and np.all(np.diff(lams, axis=1) <= 0.0)
        for k in range(2):
            s = np.linalg.svd(heq[k] / np.sqrt(sigma2), compute_uv=False)
            np.testing.assert_allclose(lams[k], s**2, rtol=1e-10, atol=1e-12 * lams.max())
            # the receive-side eigenvectors are orthonormal and diagonalize H H^H
            np.testing.assert_allclose(w[k].conj().T @ w[k], np.eye(n_s), atol=1e-12)
            gram = heq[k] @ heq[k].conj().T / sigma2
            np.testing.assert_allclose(w[k].conj().T @ gram @ w[k], np.diag(lams[k]), atol=1e-9)


def test_svd_basis_rebuilds_eigh_covariances():
    rng = substream(77)
    rank_one = crandn(rng, 2, 2, 1) @ crandn(rng, 2, 1, 4)
    for heq, sigma2, pt in ((crandn(rng, 3, 4, 16), 1.0, 30.0), (crandn(rng, 2, 3, 2), 0.7, 2.0),
                            (rank_one, 1.3, 5.0), (crandn(rng, 4, 2, 5), 2.0, 0.05)):
        alloc = waterfill_covariances(heq, pt, sigma2)
        ref_lams, ref_u = eigh_eigvals(heq, sigma2)
        np.testing.assert_allclose(alloc.lam, ref_lams, rtol=1e-10, atol=1e-12 * ref_lams.max())
        ref_p, _ = waterfill(ref_lams, pt)
        np.testing.assert_allclose(alloc.p, ref_p, rtol=1e-10, atol=1e-12 * pt)
        # the lazily built transmit basis is orthonormal and diagonalizes H^H H
        k, n_s = alloc.p.shape
        assert alloc.u.shape == (k, heq.shape[2], n_s)
        uh = alloc.u.conj().transpose(0, 2, 1)
        np.testing.assert_allclose(uh @ alloc.u, np.broadcast_to(np.eye(n_s), (k, n_s, n_s)), atol=1e-12)
        gram = heq.conj().transpose(0, 2, 1) @ heq / sigma2
        np.testing.assert_allclose(uh @ gram @ alloc.u, alloc.lam[:, :, None] * np.eye(n_s),
                                   atol=1e-9 * ref_lams.max())
        np.testing.assert_allclose(alloc.q, build_covariances(ref_u, ref_p), rtol=0, atol=1e-10 * pt)


@pytest.mark.parametrize("lam, pt", [
    ([4.0, 1.0], 1.0),  # the hand example
    ([2.0, 2.0, 2.0], 3.0),  # tie, all active
    ([5.0, 1.0, 1.0], 0.5),  # tie below the level, one active
    ([5.0, 1.0, 1.0], 2.0),  # tie above the level, all active
    ([1.0, 0.5], 1.0),  # the weaker stream sits exactly at the level
    ([100.0, 1e-3], 1.0),  # a single active stream
    ([1.0, REL_EIG_FLOOR, 0.0], 1e14),  # at the relative floor: no power at any budget
    ([1.0, 1.5 * REL_EIG_FLOOR], 1e14),  # just above it: active
    ([ABS_EIG_FLOOR, 2 * ABS_EIG_FLOOR], 1.0),  # at the absolute floor on lam * total_power
    ([[3.0, 1e-2], [0.5, 3.0]], 4.0),  # subcarrier-by-stream grid with a tie
])
def test_waterfill_matches_bisection_reference(lam, pt):
    p, cutoff = waterfill(np.asarray(lam), pt)
    ref_p, level = bisection_waterfill(lam, pt)
    assert abs(1.0 / cutoff - level) <= 1e-12 * level
    np.testing.assert_allclose(p, ref_p, rtol=1e-12, atol=1e-12 * level)
    assert abs(p.sum() - pt) <= 1e-12 * pt


@pytest.mark.parametrize("c", [1e-20, 1e20])
def test_waterfill_is_invariant_to_the_channel_scale(c):
    # rates read lam * p only: (c * lam, pt / c) gives powers p / c and the cutoff c * cutoff
    lam = np.array([[3.0, 1e-2], [0.5, 3.0]])
    p, cutoff = waterfill(lam, 4.0)
    p_c, cutoff_c = waterfill(c * lam, 4.0 / c)
    np.testing.assert_allclose(c * p_c, p, rtol=1e-12, atol=1e-12 * p.max())
    assert cutoff_c == pytest.approx(c * cutoff, rel=1e-12)


def test_waterfill_matches_bisection_reference_random():
    rng = substream(78)
    for _ in range(200):
        lam = 10.0 ** rng.uniform(-6.0, 4.0, size=(int(rng.integers(1, 9)), int(rng.integers(1, 5))))
        pt = 10.0 ** rng.uniform(-3.0, 3.0)
        p, cutoff = waterfill(lam, pt)
        ref_p, level = bisection_waterfill(lam, pt)
        assert abs(1.0 / cutoff - level) <= 1e-12 * level
        np.testing.assert_allclose(p, ref_p, rtol=1e-12, atol=1e-12 * level)


def test_waterfill_equal_gains():
    p, cutoff = waterfill(np.array([1.0, 1.0]), 2.0)
    np.testing.assert_allclose(p, [1.0, 1.0], atol=1e-9)
    assert cutoff == pytest.approx(0.5, abs=1e-9)


def test_waterfill_hand_derived():
    p, cutoff = waterfill(np.array([4.0, 1.0]), 1.0)
    np.testing.assert_allclose(p, [0.875, 0.125], atol=1e-9)
    assert cutoff == pytest.approx(8.0 / 9.0, abs=1e-9)


def test_waterfill_single_stream():
    for lam in (1e-3, 1.0, 1e4):
        p, _ = waterfill(np.array([lam]), 3.0)
        np.testing.assert_allclose(p, [3.0], rtol=1e-12)


def test_waterfill_rejects_degenerate():
    with pytest.raises(ValueError):
        waterfill(np.array([0.0, 1e-16]), 1.0)
    with pytest.raises(ValueError):
        waterfill(np.array([1.0]), 0.0)


def test_waterfill_names_the_budget_and_the_floor_when_no_stream_passes():
    # positive gains whose product with a finite, tiny budget is under ABS_EIG_FLOOR
    with pytest.raises(ValueError, match=r"power budget 1e-06 is 1e-16, at or below the floor ABS_EIG_FLOOR=1e-15"):
        waterfill(np.array([1e-10, 5e-11]), 1e-6)


@pytest.mark.parametrize("budget", [np.nan, np.inf])
def test_waterfill_rejects_non_finite_budget(budget):
    with pytest.raises(ValueError, match="positive and finite"):
        waterfill(np.array([1.0, 0.5]), budget)


@pytest.mark.parametrize("budget", [True, np.True_])
def test_waterfill_rejects_a_bool_budget(budget):
    # a bool compares as 1, so without the refusal it would be waterfilled as a unit budget
    with pytest.raises(ValueError, match=f"^total power budget must be positive and finite, got {budget!r}$"):
        waterfill(np.array([4.0, 1.0]), budget)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("rows", [False, True], ids=["one-budget", "row-budgets"])
def test_waterfill_refuses_a_non_finite_eigenvalue_by_name(bad, rows):
    # a NaN would count as an inactive stream and an inf would be blamed on the budget
    lam = np.array([[4.0, 1.0], [bad, 1.0]])
    with pytest.raises(ValueError, match=f"^eigenvalues must be finite, got {bad!r}$"):
        waterfill(lam, [1.0, 1.0] if rows else 1.0)


def test_waterfill_gives_a_negative_eigenvalue_no_power():
    p, cutoff = waterfill(np.array([-1.0, 1.0]), 1.0)
    assert p.tolist() == [0.0, 1.0] and cutoff == 0.5


def test_waterfill_scores_one_budget_per_row_as_lone_calls():
    lam = np.array([[[4.0, 1.0]], [[4.0, 1.0]], [[1e-10, 5e-11]]])
    budgets = np.array([1.0, 30.0, 1e6])
    p, cutoff = waterfill(lam, budgets)
    assert p.shape == lam.shape and cutoff.shape == budgets.shape
    for r, budget in enumerate(budgets.tolist()):
        alone, alone_cutoff = waterfill(lam[r], budget)
        assert np.array_equal(p[r], alone) and cutoff[r] == alone_cutoff
    assert np.array_equal(waterfill(lam, budgets.tolist())[0], p)  # a list of budgets is read the same way
    # a 0-d budget is one budget
    assert np.array_equal(waterfill(lam[0], np.array(1.0))[0], waterfill(lam[0], 1.0)[0])


@pytest.mark.parametrize("budgets, message", [
    ([1.0, 0.0], "total power budget of row 1 must be positive and finite, got 0.0"),
    (np.array([np.inf, 1.0]), "total power budget of row 0 must be positive and finite, got inf"),
    ([1.0, float("nan")], "total power budget of row 1 must be positive and finite, got nan"),
    ([2.0, True], "total power budget of row 1 must be positive and finite, got True"),
    (np.array([True, True]), "total power budget of row 0 must be positive and finite, got True"),
    (np.array(True), "total power budget must be positive and finite, got True"),
    ([1.0, 2.0, 3.0], r"3 budgets for 2 rows of eigenvalues of shape \(2, 2\): give one budget per row"),
    ([[1.0, 2.0]], r"row budgets must form a 1-D sequence, got shape \(1, 2\)"),
], ids=["zero", "inf", "nan", "bool-in-list", "bool-array", "bool-0d", "count", "2-d"])
def test_waterfill_refuses_a_bad_row_budget_by_name(budgets, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        waterfill(np.array([[4.0, 1.0], [2.0, 1.0]]), budgets)


def test_waterfill_names_the_budget_and_the_floor_when_no_stream_of_a_row_passes():
    with pytest.raises(ValueError, match=r"^no stream can be waterfilled: the largest eigenvalue times the "
                                         r"power budget 1e-06 is 1e-16, at or below the floor ABS_EIG_FLOOR=1e-15"):
        waterfill(np.array([[4.0, 1.0], [1e-10, 5e-11]]), [1.0, 1e-6])


def test_stream_rate_rates_each_row_as_a_lone_allocation():
    rng = substream(121)
    heq = crandn(rng, 5, 3, 2, 4)
    lam, _ = channel_eigvals(heq)
    budgets = [0.1, 2.0, 2.0, 300.0, 5.0]
    p, _ = waterfill(lam, budgets)
    rates = stream_rate(lam, p)
    assert rates.shape == (5,)
    for r, budget in enumerate(budgets):
        alone = waterfill_covariances(heq[r], budget)
        assert np.array_equal(p[r], alone.p) and rates[r] == alone.rate


def test_waterfill_kkt_and_budget_random():
    rng = substream(71)
    for _ in range(100):
        n = rng.integers(2, 12)
        lam = rng.uniform(1e-3, 50.0, size=n)
        pt = rng.uniform(0.1, 100.0)
        p, cutoff = waterfill(lam, pt)
        assert abs(p.sum() - pt) <= 1e-9 * pt
        active = p > 0
        # active pairs fill to the water level, inactive sit above it
        np.testing.assert_allclose(p[active] + 1.0 / lam[active], 1.0 / cutoff, atol=1e-9)
        assert np.all(1.0 / lam[~active] >= 1.0 / cutoff - 1e-9)


def test_waterfill_monotone_in_gain():
    rng = substream(72)
    for _ in range(50):
        lam = rng.uniform(0.1, 5.0, size=2)
        pt = rng.uniform(0.5, 5.0)
        p_before, _ = waterfill(lam, pt)
        bumped = lam.copy()
        bumped[0] *= 1.3
        p_after, _ = waterfill(bumped, pt)
        assert p_after[0] >= p_before[0] - 1e-9


def test_build_covariances():
    u = np.eye(3, dtype=complex)[None]
    p = np.array([[2.0, 1.0, 0.0]])
    np.testing.assert_allclose(build_covariances(u, p)[0], np.diag([2.0, 1.0, 0.0]), atol=1e-12)

    assert np.all(build_covariances(u, np.zeros((1, 3))) == 0)

    rng = substream(73)
    q_full, _ = np.linalg.qr(crandn(rng, 3, 3))
    q = build_covariances(q_full[None], np.array([[1.0, 1.0, 0.0]]))[0]
    eig = np.sort(np.linalg.eigvalsh(q))
    np.testing.assert_allclose(eig, [0.0, 1.0, 1.0], atol=1e-10)


def test_waterfill_covariances_invariants():
    rng = substream(74)
    heq = crandn(rng, 4, 2, 5)
    alloc = waterfill_covariances(heq, total_power=7.0, noise_var=0.8)
    assert alloc.p.shape == (4, 2)
    assert alloc.p.sum() <= 7.0 * (1 + 1e-9)
    assert abs(alloc.p.sum() - 7.0) <= 1e-9 * 7.0
    herm_err = np.max(np.abs(alloc.q - alloc.q.conj().transpose(0, 2, 1)))
    assert herm_err <= 1e-10
    eigs = np.linalg.eigvalsh(alloc.q)
    assert eigs.min() >= -1e-10
    rebuilt = np.einsum("ktg,kg,ksg->kts", alloc.u, alloc.p, alloc.u.conj())
    assert np.max(np.abs(rebuilt - alloc.q)) <= 1e-10
    np.testing.assert_allclose(np.einsum("kii->k", alloc.q).real, alloc.p.sum(axis=1), atol=1e-10)


def test_waterfilled_rate_beats_uniform():
    from rislink.rate import rate_from_heq

    rng = substream(75)
    for _ in range(20):
        k, n_r, n_t = 3, 2, 4
        heq = crandn(rng, k, n_r, n_t)
        pt = rng.uniform(0.5, 40.0)
        alloc = waterfill_covariances(heq, pt, 1.0)
        n_s = alloc.p.shape[1]
        uniform = build_covariances(alloc.u, np.full((k, n_s), pt / (k * n_s)))
        assert rate_from_heq(heq, alloc.q, 1.0) >= rate_from_heq(heq, uniform, 1.0) - 1e-12
