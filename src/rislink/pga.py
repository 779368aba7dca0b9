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
"""

from dataclasses import dataclass

import numpy as np

from . import flops
from .channel import FreqChannelSet
from .power import PowerAllocation, waterfill_covariances
from .config import is_integer
from .rate import LN2, RisPhases, combine_links, equivalent_channel

MU_FLOOR = 1e-12
_TINY = np.finfo(float).tiny


@dataclass
class PgaResult:
    """Best iterate of one optimization run.

    `start_rate` is the waterfilled rate at the start phases, trace[0]. It is
    the same call on the same phases as the `random_phases` arm, so it equals
    that arm's rate at the same point bit for bit; the harness reads it there.
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
    inverse is formed. The simulator runs at unit noise; `noise_var` serves
    the reference checks.
    """
    if isinstance(q, PowerAllocation):
        heqh = q.heq.conj().transpose(0, 2, 1)
        c = q.p / (1.0 + q.lam * q.p)
        m = heqh @ ((q.w * c[:, None, :]) @ q.w.conj().transpose(0, 2, 1))
    else:
        if phi is None:
            raise ValueError("the covariance form of the gradient needs the phases phi")
        heq = equivalent_channel(channels, phi)
        q_heqh = q @ heq.conj().transpose(0, 2, 1)
        # A_k = I + PSD is well conditioned and only N_r x N_r
        m = q_heqh @ np.linalg.inv(np.eye(heq.shape[1]) + (heq @ q_heqh) / noise_var)
    return np.einsum("kir,kri->i", channels.h1 @ m, channels.h2) / (noise_var * LN2)


def project_unit_modulus(values, fallback: np.ndarray | None = None) -> RisPhases:
    """Normalize each entry onto the unit circle.

    Zero-modulus entries keep the corresponding entry of the unit-modulus
    `fallback` array, or 1+0j when no fallback is given.
    """
    v = np.asarray(values, dtype=complex)
    # complex / real division multiplies by 1/|v|, which overflows for
    # subnormal |v|; an exact power-of-two rescale keeps the angle
    v = np.where(np.abs(v) < _TINY, v * 2.0**600, v)
    mag = np.abs(v)
    zero = mag == 0.0
    fb = np.ones_like(v) if fallback is None else fallback
    out = np.where(zero, fb, v / np.where(zero, 1.0, mag))
    return RisPhases(out)


def pga_optimize(channels: FreqChannelSet, total_power: float, *,
                 mu0: float = 0.1, epsilon: float = 1e-3, max_iter: int = 200,
                 rng: np.random.Generator | None = None,
                 phi0: RisPhases | None = None, start: PowerAllocation | None = None,
                 meter=None) -> PgaResult:
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
    A given `meter` gets the run's analytical cost (`flops.pga_run_cost`)
    added to it; only `bench/tracer.py` and tests pass one.
    The noise variance is 1: for another sigma^2, pass total_power / sigma^2.
    """
    if not mu0 > 0 or not epsilon > 0 or not is_integer(max_iter) or max_iter < 1:
        raise ValueError(f"need mu0 > 0, epsilon > 0 and an integer max_iter >= 1, got "
                         f"{mu0!r}, {epsilon!r} and {max_iter!r}")
    n_ris = channels.h1.shape[1]
    if phi0 is None:
        if start is not None:
            raise ValueError("a start allocation needs the phases phi0 it was built at")
        if rng is None:
            raise ValueError("rng is required when phi0 is not given")
        phi0 = RisPhases.random(n_ris, rng)

    alloc = waterfill_covariances(equivalent_channel(channels, phi0), total_power) if start is None else start
    diag = phi0.diag

    trace = [alloc.rate]
    mu = mu0
    iterations = 0
    stop_reason = "max_iter"
    while iterations < max_iter:
        grad = gradient_phi(channels, alloc)
        grad_diag = diag  # the phases the gradient was taken at
        # Scale-free step: mu bounds the largest per-element phase rotation,
        # so progress per iteration does not collapse at low-rate operating
        # points where the raw gradient is far below the stopping threshold.
        scale = np.abs(grad).max()
        if scale == 0.0:
            stop_reason = "zero_gradient"
            break
        candidate = diag + (mu / scale) * grad.conj()
        mag = np.abs(candidate)
        if mag.min() < _TINY:  # subnormal or zero entries need the guarded projection
            new_diag = project_unit_modulus(candidate, fallback=diag).diag
        else:
            new_diag = candidate / mag
        new_alloc = waterfill_covariances(combine_links(channels.h1, channels.h2, channels.h3, new_diag),
                                          total_power)
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
