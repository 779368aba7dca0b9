"""Spatial-frequency waterfilling over all (subcarrier, eigen-stream) pairs.

Per subcarrier, the stream gains are the eigenvalues of the equivalent
channel's N_r x N_r receive-side Gram matrix H_eq H_eq^H, from one batched
Hermitian eigensolve; the waterfilled problem has rank at most N_r, so nothing
on the optimizer's path works in the N_t-dimensional transmit space. A single
cutoff shared by every (k, g) pair is found exactly by sorting the inverse
gains and scanning their prefix sums for the water level (Palomar and
Fonollosa, IEEE TSP 2005), so the allocated powers meet the total budget. The
allocation carries its rate, (1/K) sum log2(1 + lam p) (Telatar, ETT 1999),
and builds the transmit covariances only when they are read.

The eigenpairs do not depend on the budget, so an allocation is always built
from given eigenpairs (`waterfill_eigenpairs`): `waterfill_covariances`
decomposes its channel and passes the result on, and a caller that scores one
channel at several budgets (the harness, for sweep points that differ only in
their budget) decomposes it once and waterfills each budget on the same pairs.

Rows: `channel_eigvals` decomposes a stack with any leading axes in one call,
and `waterfill` takes either one budget, one pool over all the eigenvalues
given, or one budget per leading row, each row its own pool; `stream_rate`
rates each row. A row's powers, cutoff and rate equal those of a lone call on
that row bit for bit, so the harness scores a whole chunk of trials' baseline
arms in one decomposition and one waterfill, and the candidates of every
member's first optimizer step in one more. The one-budget case, which the
optimizer's loop calls on every later step, keeps its own code: the row-wise
code costs about twice as much on one row.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rate import LN2

# A stream gets zero power when its eigenvalue times the budget is at or below
# ABS_EIG_FLOOR, or its eigenvalue at or below REL_EIG_FLOOR times the largest.
# Rates depend only on lam * p, so both floors are free of the channel's scale.
ABS_EIG_FLOOR = 1e-15
REL_EIG_FLOOR = 1e-12


@dataclass
class PowerAllocation:
    """Waterfilled stream powers of one equivalent channel, in its receive-side eigenbasis.

    q[k] = u[k] diag(p[k]) u[k]^H, and the sum of all powers equals the budget.
    `rate` is the spectral efficiency of q on `heq`. The optimizer reads only
    `lam`, `w` and `p`; `u` and `q` are built from a thin SVD of `heq` on
    first access. The harness also stacks the members of a group, who share
    `heq`, `lam` and `w`, into one allocation whose `p` (M, K, N_s) and
    `rate` (M,) carry a leading member axis; only `pga.ascent_step` and the
    `gradient_phi` call it makes read such a stack.
    """

    heq: np.ndarray  # (K, N_r, N_t) channel the powers were waterfilled for
    lam: np.ndarray  # (K, N_s) noise-normalized stream gains, descending, >= 0
    w: np.ndarray  # (K, N_r, N_s) orthonormal receive-side eigenvectors
    p: np.ndarray  # (K, N_s) nonnegative
    rate: float  # bits/s/Hz, (1/K) sum_k sum_g log2(1 + lam[k, g] p[k, g])

    @cached_property
    def u(self) -> np.ndarray:
        """(K, N_t, N_s) orthonormal transmit basis, the right singular vectors of `heq`."""
        _, _, vh = np.linalg.svd(self.heq, full_matrices=False)
        return vh.conj().transpose(0, 2, 1)

    @cached_property
    def q(self) -> np.ndarray:
        """(K, N_t, N_t) Hermitian PSD transmit covariances."""
        return build_covariances(self.u, self.p)


def channel_eigvals(heq: np.ndarray, noise_var: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Stream gains and receive-side eigenvectors of a (..., K, N_r, N_t) channel stack.

    One batched `eigh` of the Gram matrices G[k] = H_eq[k] H_eq[k]^H (N_r x N_r)
    gives the N_s = min(N_r, N_t) strongest eigenpairs. Returns (eigenvalues
    of G / noise_var (..., K, N_s) in descending order, clamped at 0 against
    rounding, and eigenvectors W (..., K, N_r, N_s)). The nonzero eigenvalues
    are those of (1/noise_var) H_eq^H H_eq. Leading axes broadcast: each
    (K, N_r, N_t) slice gets the bits of a lone call on it.
    """
    n_s = min(heq.shape[-2:])
    vals, vecs = np.linalg.eigh(heq @ heq.conj().swapaxes(-1, -2))  # ascending
    lam = np.maximum(vals[..., ::-1][..., :n_s], 0.0) / noise_var
    return lam, vecs[..., ::-1][..., :n_s]


def _require_budget(budget, where: str = "") -> None:
    """Refuse a power budget that is a bool, not positive or not finite."""
    if isinstance(budget, (bool, np.bool_)) or not (budget > 0 and math.isfinite(budget)):
        raise ValueError(f"total power budget{where} must be positive and finite, got {budget!r}")


def _no_stream(top: float, budget: float) -> ValueError:
    """The refusal of a pool whose largest eigenvalue `top` falls under the floor at `budget`."""
    return ValueError(f"no stream can be waterfilled: the largest eigenvalue times the power budget "
                      f"{budget!r} is {top * budget:.3g}, at or below the floor ABS_EIG_FLOOR={ABS_EIG_FLOOR!r}; "
                      f"raise the budget")


def _require_finite(flat: np.ndarray) -> None:
    """Refuse eigenvalues that are NaN or infinite, naming them."""
    bad = flat[~np.isfinite(flat)]
    if bad.size:
        raise ValueError(f"eigenvalues must be finite, got {', '.join(map(repr, bad.tolist()))}")


def waterfill(eigenvalues, total_power) -> tuple[np.ndarray, float | np.ndarray]:
    """Waterfill a power budget over channel eigenvalues.

    Solves P_i = max(0, 1/cutoff - 1/lam_i) with the single cutoff chosen so
    that sum(P) equals `total_power`. The water level 1/cutoff is exact: with
    the inverse gains sorted ascending, the level with the m strongest
    streams active is (total_power + their inverse-gain sum) / m, and the
    optimum keeps the largest m whose weakest stream does not lie above its
    level. Eigenvalues at or below the numerical floor (lam * total_power
    <= ABS_EIG_FLOOR, or lam <= REL_EIG_FLOOR * max lam), negative ones
    included, are excluded and receive zero power, so (c * lam, total_power
    / c) gives powers p / c and the same lam * p for any c > 0. A NaN or
    infinite eigenvalue is refused.

    `total_power` is one budget, for one pool over every eigenvalue given, or
    a 1-D sequence of one budget per row along the first axis, each row its
    own pool, with the powers and cutoff of a lone call on it bit for bit.
    Every budget must be positive and finite, and not a bool.

    Returns (powers in the input's shape, cutoff: a float, or one per row).
    """
    lams = np.asarray(eigenvalues, dtype=float)
    if isinstance(total_power, (np.ndarray, list, tuple)):
        if np.ndim(total_power):
            return _waterfill_rows(lams, total_power)
        total_power = np.asarray(total_power).item()
    _require_budget(total_power)
    flat = lams.reshape(-1)
    top = flat.max(initial=0.0)  # NaN when any eigenvalue is NaN
    active = flat > max(ABS_EIG_FLOOR / total_power, REL_EIG_FLOOR * top)
    inv_lam = 1.0 / flat[active]
    # a -inf is never active, so it is looked for only when some stream is not
    if not math.isfinite(top) or inv_lam.size < flat.size and flat.min() == -math.inf:
        _require_finite(flat)
    if not inv_lam.size:
        raise _no_stream(float(top), total_power)

    inv_sorted = np.sort(inv_lam)
    levels = (total_power + inv_sorted.cumsum()) / np.arange(1, inv_sorted.size + 1)
    # the strongest stream always passes (total_power > 0); a tie at the
    # boundary gives the same level with or without that stream
    level = levels[(inv_sorted <= levels).nonzero()[0][-1]]

    out = np.zeros(lams.shape)
    out.reshape(-1)[active] = np.maximum(0.0, level - inv_lam)
    return out, float(1.0 / level)


def _waterfill_rows(lams: np.ndarray, total_power) -> tuple[np.ndarray, np.ndarray]:
    """`waterfill` with one budget per row along the first axis of `lams`.

    Each row runs the one-budget arithmetic on its own: its inactive streams
    take a NaN inverse gain, which sorts after its active ones and never
    passes, and the level is read at the last stream that passes, so every
    value equals the lone call's.
    """
    if np.ndim(total_power) != 1:
        raise ValueError(f"row budgets must form a 1-D sequence, got shape {np.shape(total_power)}")
    if lams.ndim == 0 or len(total_power) != lams.shape[0]:
        raise ValueError(f"{len(total_power)} budgets for {lams.shape[0] if lams.ndim else 0} rows of eigenvalues "
                         f"of shape {lams.shape}: give one budget per row")
    for r, budget in enumerate(total_power.tolist() if isinstance(total_power, np.ndarray) else total_power):
        _require_budget(budget, f" of row {r}")
    budgets = np.asarray(total_power, dtype=float)
    flat = lams.reshape(budgets.size, -1)
    _require_finite(flat)
    top = flat.max(axis=1, initial=0.0)
    active = flat > np.maximum(ABS_EIG_FLOOR / budgets, REL_EIG_FLOOR * top)[:, None]
    has_stream = active.any(axis=1)
    if not has_stream.all():
        r = int(np.argmin(has_stream))
        raise _no_stream(float(top[r]), float(budgets[r]))

    inv = np.divide(1.0, flat, out=np.full(flat.shape, np.nan), where=active)
    inv_sorted = np.sort(inv, axis=1)
    levels = (budgets[:, None] + inv_sorted.cumsum(axis=1)) / np.arange(1, flat.shape[1] + 1)
    passes = inv_sorted <= levels
    last = flat.shape[1] - 1 - np.argmax(passes[:, ::-1], axis=1)
    level = levels[np.arange(budgets.size), last]
    return np.fmax(0.0, level[:, None] - inv).reshape(lams.shape), 1.0 / level


def build_covariances(u: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Q[k] = U[k] diag(p[k]) U[k]^H from eigenbases (K, N_t, N_s) and powers (K, N_s)."""
    return (u * p[:, None, :]) @ u.conj().transpose(0, 2, 1)


def stream_rate(lams: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(1/K) sum_k sum_g log2(1 + lam[k, g] p[k, g]) in bits/s/Hz of stream gains and powers (..., K, N_s).

    One rate per leading row; a lone (K, N_s) pair gives a 0-d array.
    """
    return np.log1p(lams * p).sum(axis=(-2, -1)) / (LN2 * p.shape[-2])


def waterfill_eigenpairs(heq: np.ndarray, lams: np.ndarray, w: np.ndarray, total_power: float) -> PowerAllocation:
    """Waterfill a budget across all (subcarrier, stream) pairs of given eigenpairs and rate the result.

    `lams` and `w` are `channel_eigvals(heq, noise_var)`. They do not depend
    on the budget, so one decomposition serves every budget `heq` is scored
    at. The rate needs no Q: det(I + heq Q heq^H / noise_var) is the product
    of 1 + lam p.
    """
    p, _ = waterfill(lams, total_power)
    return PowerAllocation(heq=heq, lam=lams, w=w, p=p, rate=float(stream_rate(lams, p)))


def waterfill_covariances(heq: np.ndarray, total_power: float, noise_var: float = 1.0) -> PowerAllocation:
    """Eigen-decompose, waterfill across all (subcarrier, stream) pairs and rate the result.

    One stream per eigenmode, N_s = min(N_r, N_t), the capacity optimum
    (Telatar, ETT 1999); waterfilling may still give a stream zero power.
    Equals `waterfill_eigenpairs` on `channel_eigvals(heq, noise_var)`.
    """
    return waterfill_eigenpairs(heq, *channel_eigvals(heq, noise_var), total_power)
