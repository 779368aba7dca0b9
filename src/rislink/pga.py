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
projection, candidate channel). It takes one member or a stack of members,
either on one shared channel, start phases and start eigenpairs, differing
only in their budget, or each on its own channel, phases and eigenpairs;
each member's slice has the bits of a lone call.

There is one ascent loop, `ascend`: it runs a stack of members of one RIS
size in lockstep, each with its own folded channels, budget, learning rate,
held allocation and phases. Each iteration takes the next step of every
running member in one `_step` (one `ascent_step`, then one candidate
decomposition and one waterfill), judges each member's step, and drops the
members whose runs ended. `pga_optimize` is `ascend` on a stack of one. The
harness takes the first step of every member of a trial chunk in one pass
per group, runs the chunk's members in stacks of one RIS size through one
`ascend` each (`rislink.harness` states which members share a stack), and
hands each member the `RunEnd` it reached to `pga_optimize(first=)`, which
returns the run's result from it.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import flops
from .channel import FreqChannelSet
from .power import PowerAllocation, channel_eigvals, stream_rate, waterfill, waterfill_covariances
from .config import SystemConfig, require_numbers
from .rate import LN2, RisPhases, combine_links, equivalent_channel, require_phase_count

MU_FLOOR = 1e-12
_TINY = np.finfo(float).tiny


@dataclass
class PgaResult:
    """Best iterate of one optimization run.

    `start_rate` is the waterfilled rate at the start phases, trace[0]. The
    harness scores the `random_phases` arm from the rate of the start
    allocation of the `FirstStep` it hands to `ascend`, so that arm's cell equals
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
    """A run's start allocation and its first ascent step from it, as `pga_optimize(first=)` and `ascend` take it.

    `start` is the waterfilled allocation at phi0; `grad`, `scale` and `diag`
    are `ascent_step` from it at mu0, or one member's slice of a stacked call;
    `alloc` is the waterfilled candidate at `diag`, or None when the gradient
    is zero (`scale` 0.0), which ends the run before any step.
    """

    start: PowerAllocation
    grad: np.ndarray  # (N_RIS,) gradient at the start allocation
    scale: float  # max |grad|
    diag: np.ndarray  # (N_RIS,) candidate phase diagonal
    alloc: PowerAllocation | None


class RunEnd(NamedTuple):
    """The state a run ended in, as `ascend` hands it on and `pga_optimize(first=)` takes it: its result's fields.

    `phases` and `rate` are the best (last accepted) iterate's, `trace` the
    accepted rates from the start, index 0 = initialization, and
    `stop_reason` and `stationarity` are as in `PgaResult`.
    """

    phases: np.ndarray  # (N_RIS,) phase diagonal
    rate: float
    trace: tuple
    stop_reason: str
    stationarity: float


class _Stack(NamedTuple):
    """The members' folded link stacks as `ascent_step` reads them: (M, K, ...) on a leading member axis, or one
    channel's (K, ...) that every member shares."""

    h1: np.ndarray
    h2: np.ndarray
    h3: np.ndarray


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
    inverse is formed. An allocation whose `p` carries a leading member axis
    (M, K, N_s), on one shared channel and its eigenpairs or on a stack of
    members' own channels and eigenpairs with the same leading axis (see
    `ascent_step`), gives one (M, N_RIS) gradient row per member, each with
    the bits of a lone call. The simulator runs at unit noise; `noise_var`
    serves the reference checks.
    """
    if isinstance(q, PowerAllocation):
        heqh = q.heq.conj().swapaxes(-1, -2)
        c = q.p / (1.0 + q.lam * q.p)
        m = heqh @ ((q.w * c[..., None, :]) @ q.w.conj().swapaxes(-1, -2))
    else:
        if phi is None:
            raise ValueError("the covariance form of the gradient needs the phases phi")
        heq = equivalent_channel(channels, phi)
        q_heqh = q @ heq.conj().transpose(0, 2, 1)
        # A_k = I + PSD is well conditioned and only N_r x N_r
        m = q_heqh @ np.linalg.inv(np.eye(heq.shape[1]) + (heq @ q_heqh) / noise_var)
    return np.einsum("...kir,...kri->...i", channels.h1 @ m, channels.h2) / (noise_var * LN2)


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
    """One ascent step of one member, or of a stack of members: gradient, step, projection, channel.

    `alloc` is the waterfilled allocation at the phase diagonal `diag` on the
    folded `channels`. For a stack, its `p` carries a leading member axis
    (M, K, N_s), either over one shared channel and its eigenpairs, with one
    `diag`, or over a `_Stack` of the members' own channels, with their
    eigenpairs and `diag` (M, N_RIS) on the same axis; `mu` may hold one
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


def _gather(channels: list[FreqChannelSet]) -> _Stack:
    """The members' folded link stacks as one `_Stack`.

    Members that all sit on one channel (a group's members, as in the
    paper's `se_vs_snr`, whose points differ only in SNR) share its stacks,
    which broadcast over the member axis, uncopied. Other members' stacks
    are copied onto a member axis, which `ascend` owns and compacts in place
    as members drop out.
    """
    if all(c is channels[0] for c in channels):
        return _Stack(channels[0].h1, channels[0].h2, channels[0].h3)
    return _Stack(*(np.array([getattr(c, name) for c in channels]) for name in ("h1", "h2", "h3")))


def _step(links, held: PowerAllocation, phases: np.ndarray, mu: list, budgets: list) -> tuple:
    """Every running member's step from the allocation it holds.

    `held` stacks the members' allocations on a leading member axis, or is a
    lone member's own; `phases` (M, N_RIS) are theirs, with one learning
    rate and budget each. Returns the gradients and candidate phases
    (M, N_RIS), the candidate allocations, stacked as `held` is, and the
    scales and candidate rates as lists, row j member j's, each with the
    bits of a lone step. A stack takes one `ascent_step` on the `_Stack`
    `links`, then one candidate decomposition and one row-wise waterfill; a
    zero gradient's row is waterfilled at its unmoved phases too, and the
    loop does not read that candidate. A lone member steps on its own
    channels `links` and unstacked arrays with the one-budget
    `waterfill_covariances`: a lone desk run of 40 iterations (N_RIS 16 and
    64, 2-core x86) took 8-10% longer than a plain one-member loop as a
    stack of one, and takes about 4% longer this way.
    """
    if len(phases) == 1:
        grad, scale, diag, heq = ascent_step(links, held, phases[0], mu[0])
        cand = waterfill_covariances(heq, budgets[0])
        return grad[None], diag[None], cand, [scale], [cand.rate]
    grad, scale, diag, heq = ascent_step(links, held, phases, np.array(mu))
    lam, w = channel_eigvals(heq)
    p, _ = waterfill(lam, np.array(budgets))
    rate = stream_rate(lam, p)
    return grad, diag, PowerAllocation(heq=heq, lam=lam, w=w, p=p, rate=rate), scale.tolist(), rate.tolist()


def _judge(new: float, old: float, scale: float, mu: float, trace: list, epsilon: float, max_iter: int) -> tuple:
    """One member's judgment of its pending step: (accepted, mu, stop reason or None).

    A zero gradient (`scale` 0) ends the run. Otherwise a candidate rate
    `new` above the held rate `old` is accepted, else mu is cut by 10; the
    held rate joins `trace`, and the tolerance, the mu floor and the cap are
    checked, in that order.
    """
    if scale == 0.0:
        return False, mu, "zero_gradient"
    delta = new - old
    accepted = delta > 0
    if not accepted:
        mu /= 10.0
    trace.append(new if accepted else old)
    if abs(delta) < epsilon:
        return accepted, mu, "tolerance"
    if mu < MU_FLOOR:
        return accepted, mu, "mu_floor"
    return accepted, mu, "max_iter" if len(trace) > max_iter else None


def _end(phases: np.ndarray, rate: float, trace: list, stop_reason: str, grad_phases: np.ndarray, grad: np.ndarray,
         scale: float) -> RunEnd:
    """A run's end state; its stationarity from the last gradient `grad`, taken at `grad_phases`."""
    stationarity = float(np.abs((grad_phases * grad).imag).max() / scale) if scale > 0.0 else 0.0
    return RunEnd(phases, float(rate), tuple(trace), stop_reason, stationarity)


def ascend(channels: list[FreqChannelSet], budgets: list, starts, *, mu0: float, epsilon: float, max_iter: int):
    """The ascent loop, on a stack of members of one RIS size in lockstep: a generator.

    Member m has its own folded `channels[m]` and budget `budgets[m]`, and
    starts from the m-th item of the iterable `starts`, a pair (phi0 phase
    diagonal, `FirstStep` at phi0 and `mu0`). The first steps are judged
    (`_judge`) as they come, and a member that ends there is handed back at
    once; then each iteration takes the next step of every running member
    in one `_step`, judges each, and drops the members that ended. It yields
    (ended, stepped): the (m, `RunEnd`) of the members that ended, and the
    number of members the iteration stepped, 0 for the first steps. A
    member is stepped in every iteration from the first to the one it ends
    in. Link stacks are gathered once; when members drop out, the running
    members past the new end of the stack move into the places they left,
    so a drop-out copies at most one member's link stacks per member gone.
    Every end state has the bits of a lone run's.
    """
    going = []
    for m, (phases, s) in enumerate(starts):
        trace = [s.start.rate]
        accepted, mu, stop_reason = _judge(s.alloc.rate if s.scale else None, s.start.rate, s.scale, mu0, trace,
                                           epsilon, max_iter)
        held, new_phases = (s.alloc, s.diag) if accepted else (s.start, phases)
        if stop_reason is None:
            going.append((m, held, new_phases, mu, trace))
        else:
            yield [(m, _end(new_phases, held.rate, trace, stop_reason, phases, s.grad, s.scale))], 0
    if not going:
        return
    members, held, phases, mu, trace = (list(column) for column in zip(*going))
    rates, budgets = [a.rate for a in held], [budgets[m] for m in members]
    if len(members) == 1:
        held, links = held[0], channels[members[0]]
    else:
        held = PowerAllocation(*(np.array([getattr(a, name) for a in held])
                                 for name in ("heq", "lam", "w", "p", "rate")))
        links = _gather([channels[m] for m in members])
    phases = np.array(phases)
    while True:
        grad, diag, cand, scale, new_rates = _step(links, held, phases, mu, budgets)
        accepted, ended = [], []
        for j, (new, g) in enumerate(zip(new_rates, scale)):
            verdict, mu[j], stop_reason = _judge(new, rates[j], g, mu[j], trace[j], epsilon, max_iter)
            accepted.append(verdict)
            if verdict:
                rates[j] = new
            if stop_reason is not None:
                ended.append((j, stop_reason))
        grad_phases = phases  # the phases each gradient was taken at
        if all(accepted):
            held, phases = cand, diag
        elif any(accepted):
            mask = np.array(accepted)
            held = PowerAllocation(*(np.where(mask.reshape(-1, *[1] * (x.ndim - 1)), x, y) for x, y in
                                     zip((cand.heq, cand.lam, cand.w, cand.p, cand.rate),
                                         (held.heq, held.lam, held.w, held.p, held.rate))))
            phases = np.where(mask[:, None], diag, phases)
        if not ended:
            yield (), len(mu)
            continue
        ends = [(members[j], _end(phases[j], rates[j], trace[j], stop_reason, grad_phases[j], grad[j], scale[j]))
                for j, stop_reason in ended]
        # the running members past the new end n move into the places of those that ended before it
        stepped, gone = len(mu), {j for j, _ in ended}
        n = stepped - len(gone)
        holes, movers = [j for j in range(n) if j in gone], [j for j in range(n, stepped) if j not in gone]
        order = list(range(n))
        for hole, mover in zip(holes, movers):
            order[hole] = mover
        members, mu, trace, rates, budgets = ([column[j] for j in order]
                                              for column in (members, mu, trace, rates, budgets))
        if n > 1:
            held = PowerAllocation(*(x[order] for x in (held.heq, held.lam, held.w, held.p, held.rate)))
            if links.h1.ndim == 4:  # a member axis of its own, not one shared channel
                for stack in links:
                    stack[holes] = stack[movers]
                links = _Stack(*(stack[:n] for stack in links))
        elif n == 1:
            j, = order
            held = PowerAllocation(heq=held.heq[j], lam=held.lam[j], w=held.w[j], p=held.p[j], rate=held.rate[j])
            links = channels[members[0]]
        phases = phases[order]
        yield ends, stepped
        if not n:
            return


def pga_optimize(channels: FreqChannelSet, total_power: float, *, mu0: float = SystemConfig.mu0,
                 epsilon: float = SystemConfig.epsilon, max_iter: int = SystemConfig.max_iter,
                 rng: np.random.Generator | None = None, phi0: RisPhases | None = None,
                 first: FirstStep | RunEnd | None = None, meter=None) -> PgaResult:
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
    The loop is `ascend` on a stack of this one member, from a `FirstStep`:
    its start allocation at `phi0` and the first step from it. `first`, when
    given, must be that record for these channels and budget at `phi0` and
    `mu0`, and the run equals one that builds it, bit for bit; or the
    `RunEnd` that `ascend` reached from it with this `epsilon` and
    `max_iter`, whose result this call returns. The harness takes every
    member's first step of a trial chunk in one stacked pass and the later
    ones in one lockstep `ascend` per stack. Each iteration takes its
    step, checks the stop rules, and only then computes the next step.
    A given `meter` gets the run's analytical cost (`flops.pga_run_cost`)
    added to it; only `bench/tracer.py` and tests pass one.
    The noise variance is 1: for another sigma^2, pass total_power / sigma^2.
    """
    require_numbers(SystemConfig, mu0=mu0, epsilon=epsilon, max_iter=max_iter)
    n_ris = channels.h1.shape[1]
    if phi0 is None:
        if first is not None:
            raise ValueError("a first step needs the phases phi0 its start allocation was built at")
        if rng is None:
            raise ValueError("rng is required when phi0 is not given")
        phi0 = RisPhases.random(n_ris, rng)
    require_phase_count(channels, phi0)

    if isinstance(first, RunEnd):
        end = first
    else:
        if first is None:
            start = waterfill_covariances(combine_links(channels.h1, channels.h2, channels.h3, phi0.diag),
                                          total_power)
            grad, diag, cand, (scale,), _ = _step(channels, start, phi0.diag[None], [mu0], [total_power])
            first = FirstStep(start, grad[0], scale, diag[0], cand if scale else None)
        for ended, _ in ascend([channels], [total_power], [(phi0.diag, first)], mu0=mu0, epsilon=epsilon,
                               max_iter=max_iter):
            if ended:
                (_, end), = ended
                break

    iterations = len(end.trace) - 1
    gradient_passes = iterations + (end.stop_reason == "zero_gradient")
    if meter is not None:
        k, n_r, n_t = channels.h3.shape
        cost = flops.pga_run_cost(k, n_r, n_t, n_ris, gradient_passes, iterations)
        meter.complex_mults += cost.complex_mults
        meter.real_ops += cost.real_ops
    return PgaResult(phi=RisPhases(end.phases), rate=end.rate, start_rate=end.trace[0], trace=np.asarray(end.trace),
                     iterations=iterations, stop_reason=end.stop_reason, gradient_passes=gradient_passes,
                     stationarity=end.stationarity)
