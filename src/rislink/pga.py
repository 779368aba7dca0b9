"""Projected gradient ascent on the RIS phase diagonal with joint power updates.

The ascent direction comes from the closed-form Wirtinger derivative of the
sum-log-det objective with respect to the phase diagonal. Each iteration takes
a gradient step, projects every entry back onto the unit circle, re-waterfills
the stream powers in the equivalent channel's rank-N_r eigenbasis, and takes
the rate the waterfill reports; steps that do not improve the rate are
reverted and the learning rate is cut by 10. The loop carries the raw phase
diagonal: `RisPhases` is validated only at its boundary, for the start phases
on entry and the returned best iterate on exit. The loop runs at unit noise
variance: rates depend only on P/sigma^2, so scale the power budget for any
other sigma^2.

`ascent_step` is the one way to take a step (gradient, scale-free step,
projection, candidate channel). It takes one member or a stack of members
that share a channel, start phases and start eigenpairs and differ only in
their budget, each member's slice with the bits of a lone call. The loop
calls it on its one member; the harness calls it once per group on the
members' start allocations, waterfills every candidate of a trial chunk in
one pass, and hands each member its first step through `pga_optimize(first=)`.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import flops
from .channel import FreqChannelSet
from .power import PowerAllocation, waterfill_covariances
from .config import SystemConfig, require_numbers
from .rate import LN2, RisPhases, combine_links, equivalent_channel, require_phase_count

MU_FLOOR = 1e-12
_TINY = np.finfo(float).tiny


@dataclass
class PgaResult:
    """Best iterate of one optimization run.

    `start_rate` is the waterfilled rate at the start phases, trace[0]. The
    harness scores the `random_phases` arm from the `alloc.rate` of the
    allocation it hands to `pga_optimize(start=)`, so that arm's cell equals
    `start_rate` at the same point bit for bit without reading it.
    `stop_reason` says why the loop ended: "tolerance" (a step moved the rate
    by less than epsilon), "zero_gradient" (no ascent direction), "mu_floor"
    (the learning rate fell below MU_FLOOR) or "max_iter" (the iteration
    cap). `gradient_passes` counts gradient evaluations: `iterations`, plus
    one for a zero gradient, which ends its pass before the step.
    `stationarity` is max_i |Im(phi_i g_i)| / max_i |g_i| at the last
    gradient g the loop took, with phi the phases it was taken at: the
    largest phase derivative relative to the gradient's scale, 0 at a
    stationary point of the unit-modulus problem and 0.0 for a zero gradient.
    """

    phi: RisPhases
    rate: float
    start_rate: float
    trace: np.ndarray  # accepted rate after each iteration, index 0 = initialization
    iterations: int
    stop_reason: str
    gradient_passes: int
    stationarity: float

    @property
    def converged(self) -> bool:
        """True when the run stopped at a stationary point rather than at a limit."""
        return self.stop_reason in ("tolerance", "zero_gradient")


class FirstStep(NamedTuple):
    """One member's first ascent step from its start allocation, as `pga_optimize(first=)` takes it.

    `grad`, `scale` and `diag` are the member's slice of `ascent_step` at
    the start; `alloc` is the waterfilled candidate at `diag`, or None when
    the gradient is zero (`scale` 0.0), which ends the run before any step.
    """

    grad: np.ndarray  # (N_RIS,) gradient at the start allocation
    scale: float  # max |grad|
    diag: np.ndarray  # (N_RIS,) candidate phase diagonal
    alloc: PowerAllocation | None


def gradient_phi(channels: FreqChannelSet, q: np.ndarray | PowerAllocation, phi: RisPhases | None = None,
                 noise_var: float = 1.0) -> np.ndarray:
    """Wirtinger gradient of sum_k log2 det A_k w.r.t. the phase diagonal.

    With A_k = I + H_eq[k] Q[k] H_eq[k]^H / noise_var, the i-th component is
    sum_k [H1[k] (Q[k] H_eq[k]^H A_k^{-1}) H2[k]]_{ii} / (noise_var ln 2).
    H1 Q H_eq^H is the sum of the paper's two terms Y = H1 Q H3^H and
    Z = H1 Q H1^H Phi^H H2^H (the derivative holds Phi^H fixed; the ascent
    direction in the complex plane is the conjugate of the returned vector).

    `channels` carries the pathloss-folded link stacks. `q` is either the
    (K, N_t, N_t) covariance stack, the general reference form, or the
    `PowerAllocation` waterfilled at `noise_var` for the equivalent channel
    at the phases it was computed for, which the optimizer passes; only the
    covariance form needs `phi`. For the allocation, with
    c = p / (1 + lam p), Q H_eq^H A^{-1} = H_eq^H W diag(c) W^H in its
    receive-side eigenbasis W (Telatar, ETT 1999), so neither Q nor an
    inverse is formed. An allocation whose `p` carries leading member axes
    (..., K, N_s) on its one channel and eigenpairs gives one (..., N_RIS)
    gradient per member, each with the bits of a lone call. The simulator
    runs at unit noise; `noise_var` serves the reference checks.
    """
    if isinstance(q, PowerAllocation):
        heqh = q.heq.conj().transpose(0, 2, 1)
        c = q.p / (1.0 + q.lam * q.p)
        m = heqh @ ((q.w * c[..., None, :]) @ q.w.conj().transpose(0, 2, 1))
    else:
        if phi is None:
            raise ValueError("the covariance form of the gradient needs the phases phi")
        heq = equivalent_channel(channels, phi)
        q_heqh = q @ heq.conj().transpose(0, 2, 1)
        # A_k = I + PSD is well conditioned and only N_r x N_r
        m = q_heqh @ np.linalg.inv(np.eye(heq.shape[1]) + (heq @ q_heqh) / noise_var)
    return np.einsum("...kir,kri->...i", channels.h1 @ m, channels.h2) / (noise_var * LN2)


def project_unit_modulus(values, fallback: np.ndarray | None = None) -> np.ndarray:
    """Normalize each entry onto the unit circle and return the projected array.

    Zero-modulus entries keep the corresponding entry of the unit-modulus
    `fallback` array, or 1+0j when no fallback is given.
    """
    v = np.asarray(values, dtype=complex)
    mag = np.abs(v)
    if mag.min(initial=np.inf) >= _TINY:
        return v / mag
    # complex / real division multiplies by 1/|v|, which overflows for
    # subnormal |v|; an exact power-of-two rescale of those entries alone
    # keeps their angle and cannot overflow a large entry
    v = v.copy()  # `values` may be this very array
    v[mag < _TINY] *= 2.0**600
    mag = np.abs(v)
    zero = mag == 0.0
    fb = np.ones_like(v) if fallback is None else fallback
    return np.where(zero, fb, v / np.where(zero, 1.0, mag))


def ascent_step(channels: FreqChannelSet, alloc: PowerAllocation, diag: np.ndarray, mu) -> tuple:
    """One ascent step of one member, or of a stack of members on one channel: gradient, step, projection, channel.

    `alloc` is the waterfilled allocation at the phase diagonal `diag` on the
    folded `channels`; for a stack, its `p` carries a leading member axis
    (M, K, N_s) over the shared channel and eigenpairs, and `mu` holds one
    learning rate per member. Returns the gradient (..., N_RIS), its scale
    max |g| (...), the projected phases (..., N_RIS) and their equivalent
    channels, the candidates (..., K, N_r, N_t). A member whose scale is 0
    has no ascent direction: its step is zero, and its phases and candidate
    are not a step to take. Each member's values equal a lone call's bit for
    bit.
    """
    grad = gradient_phi(channels, alloc)
    # Scale-free step: mu bounds the largest per-element phase rotation, so
    # progress per step does not collapse at low-rate operating points where
    # the raw gradient is far below the stopping threshold. A zero gradient
    # divides by 1 instead of 0; its step is zero either way.
    scale = np.abs(grad).max(axis=-1)
    rotation = mu / (scale + (scale == 0.0))
    new_diag = project_unit_modulus(diag + rotation[..., None] * grad.conj(), fallback=diag)
    return grad, scale, new_diag, combine_links(channels.h1, channels.h2, channels.h3, new_diag)


def pga_optimize(channels: FreqChannelSet, total_power: float, *, mu0: float = SystemConfig.mu0,
                 epsilon: float = SystemConfig.epsilon, max_iter: int = SystemConfig.max_iter,
                 rng: np.random.Generator | None = None,
                 phi0: RisPhases | None = None, start: PowerAllocation | None = None,
                 first: FirstStep | None = None, meter=None) -> PgaResult:
    """Jointly optimize RIS phases and per-subcarrier covariances.

    `channels` must carry the pathloss-folded link stacks. Phases initialize
    uniformly at random on the unit circle (or from `phi0`); each iteration
    ascends along the conjugate gradient with rate mu, projects onto the unit
    circle, waterfills the covariances with one stream per eigenmode,
    N_s = min(N_r, N_t), and reads their rate. A non-improving step is
    reverted and mu shrinks by 10. The loop stops when the candidate rate
    changes by less than `epsilon`, at a zero gradient, when mu underflows
    its floor, or at the iteration cap (`stop_reason` says which); the best
    (last accepted) iterate is returned either way, with the rate at the
    start phases as `start_rate`.
    `start`, when given, must be the waterfilled allocation at `phi0` on
    these channels and budget, `waterfill_covariances(equivalent_channel(
    channels, phi0), total_power)`; the loop starts from it instead of
    building it. The harness passes the allocation it waterfilled on the
    start eigenpairs that the sweep points seeing one channel share.
    `first`, when given with `start`, must be this member's `ascent_step`
    from `start` at mu0, its candidate waterfilled at `total_power`; the loop
    takes it as its first step instead of computing it. The harness takes
    every member's first step of a trial chunk in one stacked pass.
    A given `meter` gets the run's analytical cost (`flops.pga_run_cost`)
    added to it; only `bench/tracer.py` and tests pass one.
    The noise variance is 1: for another sigma^2, pass total_power / sigma^2.
    """
    require_numbers(SystemConfig, mu0=mu0, epsilon=epsilon, max_iter=max_iter)
    n_ris = channels.h1.shape[1]
    if phi0 is None:
        if start is not None:
            raise ValueError("a start allocation needs the phases phi0 it was built at")
        if rng is None:
            raise ValueError("rng is required when phi0 is not given")
        phi0 = RisPhases.random(n_ris, rng)
    if first is not None and start is None:
        raise ValueError("a first step needs the start allocation it was taken from")
    require_phase_count(channels, phi0)

    diag = phi0.diag
    alloc = waterfill_covariances(combine_links(channels.h1, channels.h2, channels.h3, diag),
                                  total_power) if start is None else start

    trace = [alloc.rate]
    mu = mu0
    iterations = 0
    stop_reason = "max_iter"
    while iterations < max_iter:
        grad_diag = diag  # the phases the gradient was taken at
        if first is None:
            grad, scale, new_diag, heq = ascent_step(channels, alloc, diag, mu)
            new_alloc = None if scale == 0.0 else waterfill_covariances(heq, total_power)
        else:
            (grad, scale, new_diag, new_alloc), first = first, None
        if new_alloc is None:
            stop_reason = "zero_gradient"
            break
        iterations += 1

        delta = new_alloc.rate - alloc.rate
        if delta > 0:
            diag, alloc = new_diag, new_alloc
        else:
            mu /= 10.0
        trace.append(alloc.rate)
        if abs(delta) < epsilon:
            stop_reason = "tolerance"
            break
        if mu < MU_FLOOR:
            stop_reason = "mu_floor"
            break

    gradient_passes = iterations + (stop_reason == "zero_gradient")
    stationarity = float(np.abs((grad_diag * grad).imag).max() / scale) if scale > 0.0 else 0.0
    if meter is not None:
        k, n_r, n_t = channels.h3.shape
        cost = flops.pga_run_cost(k, n_r, n_t, n_ris, gradient_passes, iterations)
        meter.complex_mults += cost.complex_mults
        meter.real_ops += cost.real_ops
    return PgaResult(phi=RisPhases(diag), rate=alloc.rate, start_rate=trace[0], trace=np.asarray(trace),
                     iterations=iterations, stop_reason=stop_reason, gradient_passes=gradient_passes,
                     stationarity=stationarity)
