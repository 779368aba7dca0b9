"""Spatial-frequency waterfilling over all (subcarrier, eigen-stream) pairs.

Per subcarrier, the eigenbasis of the equivalent channel's noise-normalized
Gram matrix comes from a thin SVD of the N_r x N_t channel; a single cutoff
shared by every (k, g) pair is found exactly by sorting the inverse gains and
scanning their prefix sums for the water level (Palomar and Fonollosa, IEEE
TSP 2005), so the allocated powers meet the total budget, and the transmit
covariances are rebuilt in the per-subcarrier eigenbases. The allocation also
carries its rate, (1/K) sum log2(1 + lam p) (Telatar, ETT 1999).
"""

from dataclasses import dataclass

import numpy as np

from .rate import LN2

# Streams with eigenvalues at or below these thresholds get zero power.
ABS_EIG_FLOOR = 1e-15
REL_EIG_FLOOR = 1e-12


@dataclass
class PowerAllocation:
    """Waterfilled per-subcarrier covariances and their eigen factorization.

    q[k] = u[k] diag(p[k]) u[k]^H, and the sum of all powers equals the budget.
    `rate` is the spectral efficiency of q on the channel it was waterfilled for.
    """

    q: np.ndarray  # (K, N_t, N_t) Hermitian PSD
    u: np.ndarray  # (K, N_t, N_s) orthonormal columns
    p: np.ndarray  # (K, N_s) nonnegative
    rate: float  # bits/s/Hz, (1/K) sum_k sum_g log2(1 + lam[k, g] p[k, g])


def channel_eigvals(heq: np.ndarray, noise_var: float, n_streams: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenpairs of (1/noise_var) * H_eq[k]^H H_eq[k] per subcarrier.

    `heq` is a (K, N_r, N_t) stack. The pairs come from the thin SVD
    H_eq[k] = U S V^H: eigenvalues s^2 / noise_var and eigenvectors the
    columns of V. `n_streams` must lie in 1..min(N_r, N_t) (default: all of
    them). Returns (eigenvalues (K, N_s) in descending order, eigenvectors
    (K, N_t, N_s)).
    """
    n_max = min(heq.shape[1], heq.shape[2])
    n_s = n_max if n_streams is None else n_streams
    if not 1 <= n_s <= n_max:
        raise ValueError(f"n_streams must lie in 1..{n_max}, got {n_streams}")
    _, s, vh = np.linalg.svd(heq, full_matrices=False)  # s is descending
    return s[:, :n_s] ** 2 / noise_var, vh[:, :n_s, :].conj().transpose(0, 2, 1)


def waterfill(eigenvalues, total_power: float) -> tuple[np.ndarray, float]:
    """Waterfill a power budget over channel eigenvalues.

    Solves P_i = max(0, 1/cutoff - 1/lam_i) with the single cutoff chosen so
    that sum(P) equals `total_power`. The water level 1/cutoff is exact: with
    the inverse gains sorted ascending, the level with the m strongest
    streams active is (total_power + their inverse-gain sum) / m, and the
    optimum keeps the largest m whose weakest stream does not lie above its
    level. Eigenvalues at or below the numerical floor are excluded and
    receive zero power.

    Returns (powers in the input's shape, cutoff).
    """
    lams = np.asarray(eigenvalues, dtype=float)
    if total_power <= 0:
        raise ValueError("total power budget must be positive")
    flat = lams.reshape(-1)
    active = flat > max(ABS_EIG_FLOOR, REL_EIG_FLOOR * np.max(flat, initial=0.0))
    if not np.any(active):
        raise ValueError("waterfilling needs at least one positive eigenvalue")

    inv_lam = 1.0 / flat[active]
    inv_sorted = np.sort(inv_lam)
    levels = (total_power + np.cumsum(inv_sorted)) / np.arange(1, inv_sorted.size + 1)
    # the strongest stream always passes (total_power > 0); a tie at the
    # boundary gives the same level with or without that stream
    level = levels[np.flatnonzero(inv_sorted <= levels)[-1]]

    out = np.zeros(flat.shape)
    out[active] = np.maximum(0.0, level - inv_lam)
    return out.reshape(lams.shape), float(1.0 / level)


def build_covariances(u: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Q[k] = U[k] diag(p[k]) U[k]^H from eigenbases (K, N_t, N_s) and powers (K, N_s)."""
    return (u * p[:, None, :]) @ u.conj().transpose(0, 2, 1)


def waterfill_covariances(heq: np.ndarray, total_power: float, noise_var: float = 1.0,
                          n_streams: int | None = None) -> PowerAllocation:
    """Eigen-decompose, waterfill across all (subcarrier, stream) pairs, rebuild Q[k] and rate it.

    The rate needs no Q: det(I + heq Q heq^H / noise_var) is the product of 1 + lam p.
    """
    lams, u = channel_eigvals(heq, noise_var, n_streams)
    p, _ = waterfill(lams, total_power)
    rate = float(np.sum(np.log1p(lams * p)) / (LN2 * heq.shape[0]))
    return PowerAllocation(q=build_covariances(u, p), u=u, p=p, rate=rate)
