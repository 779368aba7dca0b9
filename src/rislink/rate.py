"""Equivalent channel assembly and the general-covariance rate.

The equivalent per-subcarrier channel is the direct path plus the RIS cascade,
H_eq[k] = sqrt(rho_d) H3[k] + sqrt(rho_i) H2[k] diag(phi) H1[k], with a single
phase diagonal shared by all subcarriers. Spectral efficiency is the
subcarrier-averaged log-det rate of that channel under per-subcarrier
transmit covariances; `rate_from_heq` evaluates it for any PSD covariances.
A waterfilled allocation carries its own rate (`PowerAllocation.rate`), which
is what the optimizer and the harness read. The simulator works at unit noise
variance; rates depend only on P/sigma^2, so model any other sigma^2 by
scaling the power budget by 1/sigma^2.
"""

from dataclasses import dataclass

import numpy as np

from .channel import FreqChannelSet
from .propagation import LinkGains

LN2 = float(np.log(2.0))
UNIT_MODULUS_TOL = 1e-12


@dataclass
class RisPhases:
    """Unit-modulus diagonal of the RIS reflection matrix."""

    diag: np.ndarray  # (N_RIS,) complex, |diag[i]| = 1

    def __post_init__(self):
        self.diag = np.asarray(self.diag, dtype=complex)
        if self.diag.ndim != 1:
            raise ValueError("phase diagonal must be one-dimensional")
        # one pass over the moduli: a NaN or infinite entry also fails the bound, and only then is it named
        if not np.abs(np.abs(self.diag) - 1.0).max(initial=0.0) <= UNIT_MODULUS_TOL:
            if not np.isfinite(self.diag).all():
                raise ValueError("phase diagonal entries must be finite")
            raise ValueError("phase diagonal entries must have unit modulus")

    @property
    def n_elements(self) -> int:
        return self.diag.shape[0]

    @classmethod
    def from_angles(cls, angles) -> "RisPhases":
        return cls(np.exp(1j * np.asarray(angles, dtype=float)))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "RisPhases":
        """Phases drawn uniformly from [0, 2*pi)."""
        return cls.from_angles(rng.uniform(0.0, 2.0 * np.pi, size=n))


def combine_links(h1: np.ndarray, h2: np.ndarray, h3: np.ndarray, phi_diag: np.ndarray) -> np.ndarray:
    """h3 + h2 diag(phi) h1 per subcarrier, on already gain-folded stacks.

    A (..., N_RIS) stack of phase diagonals gives a (..., K, N_r, N_t) stack
    of channels, each slice with the bits of a lone call.
    """
    diag = phi_diag[..., None, None, :]
    # h2 takes the diagonals' leading axes explicitly: numpy runs a one-element product of operands of unequal
    # rank on another loop, whose bits differ, so a stack of one channel of one entry would not be a lone call
    return h3 + (h2.reshape((1,) * (diag.ndim - h2.ndim) + h2.shape) * diag) @ h1


def fold_gains(channels: FreqChannelSet, gains: LinkGains) -> FreqChannelSet:
    """Link stacks with sqrt(rho_indirect) folded into h1 and sqrt(rho_direct) into h3."""
    return FreqChannelSet(h1=np.sqrt(gains.rho_indirect) * channels.h1, h2=channels.h2,
                          h3=np.sqrt(gains.rho_direct) * channels.h3)


def require_phase_count(channels: FreqChannelSet, phi: RisPhases) -> None:
    """Raise ValueError unless `phi` holds one phase per RIS element of `channels`."""
    if phi.n_elements != channels.h1.shape[1]:
        raise ValueError(
            f"phase count {phi.n_elements} does not match RIS element count {channels.h1.shape[1]}"
        )


def equivalent_channel(channels: FreqChannelSet, phi: RisPhases) -> np.ndarray:
    """The (K, N_r, N_t) equivalent channel of gain-folded link stacks at phases `phi`.

    The stacks are used as-is: fold pathloss in with `fold_gains` first.
    """
    require_phase_count(channels, phi)
    return combine_links(channels.h1, channels.h2, channels.h3, phi.diag)


def rate_from_heq(heq: np.ndarray, q: np.ndarray, noise_var: float) -> float:
    """(1/K) sum_k log2 det(I + heq Q heq^H / noise_var) in bits/s/Hz.

    `q` is the (K, N_t, N_t) covariance stack, one per subcarrier of `heq`.
    Raises if any Q[k] has an eigenvalue below -1e-9 (non-PSD), relative to
    the covariance scale. The log-det argument is Hermitian-symmetrized and
    factorized by Cholesky; it is positive definite for PSD Q.
    """
    if q.shape[0] != heq.shape[0]:
        raise ValueError("covariance stack must have one matrix per subcarrier")
    eigs = np.linalg.eigvalsh(0.5 * (q + q.conj().transpose(0, 2, 1)))
    # tolerance is relative to the covariance scale so legitimate
    # allocations at large power budgets do not trip on rounding
    scale = max(1.0, float(np.max(np.abs(eigs), initial=0.0)))
    if np.min(eigs) < -1e-9 * scale:
        raise ValueError(f"covariance is not PSD (min eigenvalue {np.min(eigs):.3e})")
    n_r = heq.shape[1]
    m = np.eye(n_r) + (heq @ q @ heq.conj().transpose(0, 2, 1)) / noise_var
    m = 0.5 * (m + m.conj().transpose(0, 2, 1))
    chol = np.linalg.cholesky(m)
    diags = np.real(np.einsum("kii->ki", chol))
    return float(2.0 * np.sum(np.log(diags)) / (LN2 * heq.shape[0]))
