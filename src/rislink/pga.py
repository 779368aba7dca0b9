"""Projected gradient ascent on the RIS phase diagonal with joint power updates.

The ascent direction comes from the closed-form Wirtinger derivative of the
sum-log-det objective with respect to the phase diagonal. Each iteration takes
a gradient step, projects every entry back onto the unit circle, re-optimizes
the per-subcarrier covariances by waterfilling, and re-evaluates the rate;
steps that do not improve the rate are reverted and the learning rate is cut
by 10.
"""

from dataclasses import dataclass

import numpy as np

from . import flops
from .channel import FreqChannelSet
from .power import PowerAllocation, waterfill_covariances
from .rate import LN2, EquivalentChannel, RisPhases, combine_links, equivalent_channel, rate_from_heq

MU_FLOOR = 1e-12


@dataclass
class PgaResult:
    """Best iterate of one optimization run."""

    phi: RisPhases
    power: PowerAllocation
    rate: float
    trace: np.ndarray  # accepted rate after each iteration, index 0 = initialization
    iterations: int
    converged: bool


def gradient_phi(channels, q: np.ndarray, phi: RisPhases | None = None, noise_var: float = 1.0) -> np.ndarray:
    """Wirtinger gradient of sum_k log2 det A_k w.r.t. the phase diagonal.

    With A_k = I + H_eq[k] Q[k] H_eq[k]^H / noise_var, the i-th component is
    sum_k [H1[k] (Q[k] H_eq[k]^H) A_k^{-1} H2[k]]_{ii} / (noise_var ln 2).
    H1 Q H_eq^H is the sum of the paper's two terms Y = H1 Q H3^H and
    Z = H1 Q H1^H Phi^H H2^H, and the product Q H_eq^H is shared with A_k
    (the derivative holds Phi^H fixed; the ascent direction in the complex
    plane is the conjugate of the returned vector).

    `channels` is a FreqChannelSet with pathloss already folded into h1/h3
    (then `phi` is required) or an EquivalentChannel (its phases are used);
    `q` is the (K, N_t, N_t) covariance stack.
    """
    if isinstance(channels, EquivalentChannel):
        eq = channels
    elif isinstance(channels, FreqChannelSet):
        if phi is None:
            raise ValueError("phi is required when passing a FreqChannelSet")
        eq = equivalent_channel(channels, phi)
    else:
        raise TypeError(f"unsupported channel container {type(channels)!r}")

    q_heqh = q @ eq.heq.conj().transpose(0, 2, 1)
    a = np.eye(eq.heq.shape[1]) + (eq.heq @ q_heqh) / noise_var
    # A_k = I + PSD is well conditioned; inverting the N_r x N_r matrix beats
    # a batched solve against N_RIS right-hand sides
    ainv_x = np.linalg.inv(a) @ eq.h2
    return np.einsum("kir,kri->i", eq.h1 @ q_heqh, ainv_x) / (noise_var * LN2)


def project_unit_modulus(values, fallback: np.ndarray | None = None) -> RisPhases:
    """Normalize each entry onto the unit circle.

    Zero-modulus entries keep the corresponding entry of the unit-modulus
    `fallback` array, or 1+0j when no fallback is given.
    """
    v = np.asarray(values, dtype=complex)
    # complex / real division multiplies by 1/|v|, which overflows for
    # subnormal |v|; an exact power-of-two rescale keeps the angle
    v = np.where(np.abs(v) < np.finfo(float).tiny, v * 2.0**600, v)
    mag = np.abs(v)
    zero = mag == 0.0
    fb = np.ones_like(v) if fallback is None else fallback
    out = np.where(zero, fb, v / np.where(zero, 1.0, mag))
    return RisPhases(out)


def pga_optimize(channels: FreqChannelSet, total_power: float, *, noise_var: float = 1.0,
                 mu0: float = 0.1, epsilon: float = 1e-3, max_iter: int = 200,
                 n_streams: int | None = None, rng: np.random.Generator | None = None,
                 phi0: RisPhases | None = None, meter=None) -> PgaResult:
    """Jointly optimize RIS phases and per-subcarrier covariances.

    `channels` must carry the pathloss-folded link stacks. Phases initialize
    uniformly at random on the unit circle (or from `phi0`); each iteration
    ascends along the conjugate gradient with rate mu, projects onto the unit
    circle, waterfills the covariances and evaluates the rate. A non-improving
    step is reverted and mu shrinks by 10. The loop stops when the candidate
    rate changes by less than `epsilon`, when mu underflows its floor, or at
    the iteration cap; the best (last accepted) iterate is returned either way.
    A given `meter` books the run's analytical cost (`flops.record_pga_run`).
    """
    if mu0 <= 0 or epsilon <= 0 or max_iter < 1:
        raise ValueError("need mu0 > 0, epsilon > 0 and a positive iteration cap")
    n_ris = channels.h1.shape[1]
    if phi0 is not None:
        phi = phi0
    else:
        if rng is None:
            raise ValueError("rng is required when phi0 is not given")
        phi = RisPhases.random(n_ris, rng)

    eq = equivalent_channel(channels, phi)
    alloc = waterfill_covariances(eq.heq, total_power, noise_var, n_streams)
    rate = rate_from_heq(eq.heq, alloc.q, noise_var)

    trace = [rate]
    mu = mu0
    iterations = 0
    converged = False
    while iterations < max_iter:
        grad = gradient_phi(eq, alloc.q, noise_var=noise_var)
        # Scale-free step: mu bounds the largest per-element phase rotation,
        # so progress per iteration does not collapse at low-rate operating
        # points where the raw gradient is far below the stopping threshold.
        scale = np.max(np.abs(grad))
        if scale == 0.0:
            converged = True
            break
        new_phi = project_unit_modulus(phi.diag + (mu / scale) * grad.conj(), fallback=phi.diag)
        new_heq = combine_links(eq.h1, eq.h2, eq.h3, new_phi.diag)
        new_alloc = waterfill_covariances(new_heq, total_power, noise_var, n_streams)
        new_rate = rate_from_heq(new_heq, new_alloc.q, noise_var)
        iterations += 1

        delta = new_rate - rate
        if new_rate > rate:
            phi = new_phi
            eq = EquivalentChannel(heq=new_heq, h1=eq.h1, h2=eq.h2, h3=eq.h3, phi=new_phi)
            alloc = new_alloc
            rate = new_rate
        else:
            mu /= 10.0
        trace.append(rate)
        if abs(delta) < epsilon:
            converged = True
            break
        if mu < MU_FLOOR:
            break

    if meter is not None:
        # a pass that found a zero gradient stopped before its step and waterfill
        k, n_r, n_t = channels.h3.shape
        flops.record_pga_run(meter, k, n_r, n_t, n_ris, alloc.p.shape[1],
                             gradient_passes=iterations + int(scale == 0.0), iterations=iterations)
    return PgaResult(phi=phi, power=alloc, rate=rate, trace=np.asarray(trace),
                     iterations=iterations, converged=converged)
