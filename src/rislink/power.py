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
    first access.
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


def channel_eigvals(heq: np.ndarray, noise_var: float) -> tuple[np.ndarray, np.ndarray]:
    """Stream gains and receive-side eigenvectors of a (K, N_r, N_t) channel stack.

    One batched `eigh` of the Gram matrices G[k] = H_eq[k] H_eq[k]^H (N_r x N_r)
    gives the N_s = min(N_r, N_t) strongest eigenpairs. Returns (eigenvalues
    of G / noise_var (K, N_s) in descending order, clamped at 0 against
    rounding, and eigenvectors W (K, N_r, N_s)). The nonzero eigenvalues are
    those of (1/noise_var) H_eq^H H_eq.
    """
    n_s = min(heq.shape[1], heq.shape[2])
    vals, vecs = np.linalg.eigh(heq @ heq.conj().transpose(0, 2, 1))  # ascending
    lam = np.maximum(vals[:, ::-1][:, :n_s], 0.0)
    if noise_var != 1.0:
        lam /= noise_var
    return lam, vecs[:, :, ::-1][:, :, :n_s]


def waterfill(eigenvalues, total_power: float) -> tuple[np.ndarray, float]:
    """Waterfill a power budget over channel eigenvalues.

    Solves P_i = max(0, 1/cutoff - 1/lam_i) with the single cutoff chosen so
    that sum(P) equals `total_power`. The water level 1/cutoff is exact: with
    the inverse gains sorted ascending, the level with the m strongest
    streams active is (total_power + their inverse-gain sum) / m, and the
    optimum keeps the largest m whose weakest stream does not lie above its
    level. Eigenvalues at or below the numerical floor (lam * total_power
    <= ABS_EIG_FLOOR, or lam <= REL_EIG_FLOOR * max lam) are excluded and
    receive zero power, so (c * lam, total_power / c) gives powers p / c and
    the same lam * p for any c > 0.

    Returns (powers in the input's shape, cutoff).
    """
    lams = np.asarray(eigenvalues, dtype=float)
    if not (total_power > 0 and math.isfinite(total_power)):
        raise ValueError(f"total power budget must be positive and finite, got {total_power!r}")
    flat = lams.reshape(-1)
    active = flat > max(ABS_EIG_FLOOR / total_power, REL_EIG_FLOOR * flat.max(initial=0.0))
    if not active.any():
        raise ValueError("waterfilling needs at least one positive eigenvalue")

    inv_lam = 1.0 / flat[active]
    inv_sorted = np.sort(inv_lam)
    levels = (total_power + inv_sorted.cumsum()) / np.arange(1, inv_sorted.size + 1)
    # the strongest stream always passes (total_power > 0); a tie at the
    # boundary gives the same level with or without that stream
    level = levels[(inv_sorted <= levels).nonzero()[0][-1]]

    out = np.zeros(flat.shape)
    out[active] = np.maximum(0.0, level - inv_lam)
    return out.reshape(lams.shape), float(1.0 / level)


def build_covariances(u: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Q[k] = U[k] diag(p[k]) U[k]^H from eigenbases (K, N_t, N_s) and powers (K, N_s)."""
    return (u * p[:, None, :]) @ u.conj().transpose(0, 2, 1)


def waterfill_covariances(heq: np.ndarray, total_power: float, noise_var: float = 1.0) -> PowerAllocation:
    """Eigen-decompose, waterfill across all (subcarrier, stream) pairs and rate the result.

    One stream per eigenmode, N_s = min(N_r, N_t), the capacity optimum
    (Telatar, ETT 1999); waterfilling may still give a stream zero power.
    The rate needs no Q: det(I + heq Q heq^H / noise_var) is the product of 1 + lam p.
    """
    lams, w = channel_eigvals(heq, noise_var)
    p, _ = waterfill(lams, total_power)
    rate = float(np.log1p(lams * p).sum() / (LN2 * heq.shape[0]))
    return PowerAllocation(heq=heq, lam=lams, w=w, p=p, rate=rate)
