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
size in lockstep, given as groups whose members share one folded channel,
start phases and start eigenpairs and differ in their budget, and holds
their state on one member axis. It takes every step of every member: the
first in one `ascent_step` per group, each later one in one `_step` over the
members still running, each followed by one candidate decomposition and one
row-wise waterfill. Every iteration ends in one block: it judges each
member's step, keeps the accepted candidates and drops the members whose
runs ended, handing each back as a `RunEnd`. A lone member is a stack of one
and takes the same steps.
`pga_optimize` is `ascend` on one group of one member; given the `RunEnd` a
stack reached (`end=`), it returns that run's result. `rislink.harness`
states which members share a stack.
"""

from dataclasses import dataclass, replace
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
    harness scores the `random_phases` arm from the start allocation it hands
    to `ascend`, so that arm's cell equals `start_rate` at the same point bit
    for bit without reading it.
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


class RunEnd(NamedTuple):
    """The state a run ended in, as `ascend` hands it on and `pga_optimize(end=)` takes it: its result's fields.

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
    are copied onto a member axis; `ascend` gathers its running members anew
    whenever members drop out.
    """
    if all(c is channels[0] for c in channels):
        return _Stack(channels[0].h1, channels[0].h2, channels[0].h3)
    return _Stack(*(np.array([getattr(c, name) for c in channels]) for name in ("h1", "h2", "h3")))


def _waterfilled(heq: np.ndarray, budgets: list) -> PowerAllocation:
    """Candidate channels (M, K, N_r, N_t) decomposed in one call and waterfilled row-wise, one budget a member."""
    lam, w = channel_eigvals(heq)
    p, _ = waterfill(lam, np.array(budgets))
    return PowerAllocation(heq=heq, lam=lam, w=w, p=p, rate=stream_rate(lam, p))


def _step(links: _Stack, held: PowerAllocation, phases: np.ndarray, mu: list, budgets: list) -> tuple:
    """Every running member's later step from the allocation it holds: one `ascent_step`, then `_waterfilled`.

    `held` stacks the members' allocations on a leading member axis, a lone
    member's as a stack of one, and `links` their `_Stack`; `phases`
    (M, N_RIS) are theirs, with one learning rate and budget each. Returns
    the gradients and candidate phases (M, N_RIS), the candidate
    allocations, stacked as `held` is, and the scales and candidate rates as
    lists, row j member j's, each with the bits of a lone step. A zero
    gradient's row is waterfilled at its unmoved phases too, and the loop
    does not read that candidate.
    """
    grad, scale, diag, heq = ascent_step(links, held, phases, np.array(mu))
    cand = _waterfilled(heq, budgets)
    return grad, diag, cand, scale.tolist(), cand.rate.tolist()


def _judge(new_rates: list, scale: list, rates: list, mu: list, trace: list, epsilon: float, max_iter: int) -> tuple:
    """Judge every member's pending step, updating `rates`, `mu` and `trace` in place: (accepted, ended).

    Member j steps from its held rate `rates[j]` to the candidate rate
    `new_rates[j]`. A zero gradient (`scale[j]` 0) ends the run. Otherwise a
    better candidate is accepted and its rate held, else mu[j] is cut by 10;
    the held rate joins `trace[j]`, and the tolerance, the mu floor and the
    cap are checked, in that order. `accepted` holds each member's verdict,
    `ended` the (j, stop reason) of each member whose run ended.
    """
    accepted, ended = [], []
    for j, (new, g) in enumerate(zip(new_rates, scale)):
        if g == 0.0:
            accepted.append(False)
            ended.append((j, "zero_gradient"))
            continue
        delta = new - rates[j]
        accepted.append(delta > 0)
        if delta > 0:
            rates[j] = new
        else:
            mu[j] /= 10.0
        trace[j].append(rates[j])
        if abs(delta) < epsilon:
            ended.append((j, "tolerance"))
        elif mu[j] < MU_FLOOR:
            ended.append((j, "mu_floor"))
        elif len(trace[j]) > max_iter:
            ended.append((j, "max_iter"))
    return accepted, ended


def _end(phases: np.ndarray, rate: float, trace: list, stop_reason: str, grad_phases: np.ndarray, grad: np.ndarray,
         scale: float) -> RunEnd:
    """A run's end state; its stationarity from the last gradient `grad`, taken at `grad_phases`."""
    stationarity = float(np.abs((grad_phases * grad).imag).max() / scale) if scale > 0.0 else 0.0
    return RunEnd(phases, float(rate), tuple(trace), stop_reason, stationarity)


def ascend(groups: list, *, mu0: float, epsilon: float, max_iter: int):
    """The ascent loop, on a stack of members of one RIS size in lockstep: a generator.

    `groups` holds (folded channels, start phase diagonal, start allocation,
    budgets) tuples. A group's members share its channels, start phases and
    start eigenpairs; its start allocation holds one power row and one rate
    per member, waterfilled at the member's entry of `budgets`. The stack's
    members are the groups' rows, in order, and their state sits on one
    member axis: each group's start eigenpairs and phases are repeated over
    its members. Each iteration steps every running member, judges each step
    (`_judge`), selects the accepted candidates, yields (ended, stepped): the
    (m, `RunEnd`) of the members that ended and the number of members it
    stepped, and drops the members that ended. The first iteration takes
    one `ascent_step` per group, then one `_waterfilled` over the stack; each
    later one is one `_step` over the members still running, a lone member
    as a stack of one. After the first iteration and whenever members drop
    out, the running members' link stacks are gathered anew (`_gather`).
    Nothing `groups` holds is written to. Every end state has the bits of a
    lone run's.
    """
    folded, phases, starts, budgets = zip(*groups)
    steps = [ascent_step(channels, start, diag0, mu0) for channels, diag0, start in zip(folded, phases, starts)]
    grad, scale, diag, heq = (np.concatenate(column) for column in zip(*steps))
    sizes = [len(group_budgets) for group_budgets in budgets]
    held = PowerAllocation(*(np.array([getattr(start, name) for start in starts]).repeat(sizes, axis=0)
                             for name in ("heq", "lam", "w")),
                           *(np.concatenate([getattr(start, name) for start in starts]) for name in ("p", "rate")))
    phases = np.array(phases).repeat(sizes, axis=0)
    channels = [channel for channel, n in zip(folded, sizes) for _ in range(n)]
    budgets = [b for group_budgets in budgets for b in group_budgets]
    cand = _waterfilled(heq, budgets)
    scale, new_rates = scale.tolist(), cand.rate.tolist()
    members, rates, mu = list(range(len(budgets))), held.rate.tolist(), [mu0] * len(budgets)
    trace, links = [[rate] for rate in rates], None
    while True:
        accepted, ended = _judge(new_rates, scale, rates, mu, trace, epsilon, max_iter)
        grad_phases = phases  # the phases each gradient was taken at
        if all(accepted):
            held, phases = cand, diag
        elif any(accepted):
            mask = np.array(accepted)
            held = PowerAllocation(*(np.where(mask.reshape(-1, *[1] * (x.ndim - 1)), x, y) for x, y in
                                     zip((cand.heq, cand.lam, cand.w, cand.p, cand.rate),
                                         (held.heq, held.lam, held.w, held.p, held.rate))))
            phases = np.where(mask[:, None], diag, phases)
        yield [(members[j], _end(phases[j], rates[j], trace[j], stop_reason, grad_phases[j], grad[j], scale[j]))
               for j, stop_reason in ended], len(members)
        if len(ended) == len(members):
            return
        if links is None or ended:
            gone = {j for j, _ in ended}
            keep = [j for j in range(len(members)) if j not in gone]
            members, mu, trace, rates, budgets, channels = ([column[j] for j in keep] for column in
                                                            (members, mu, trace, rates, budgets, channels))
            held = PowerAllocation(*(x[keep] for x in (held.heq, held.lam, held.w, held.p, held.rate)))
            phases, links = phases[keep], _gather(channels)
        grad, diag, cand, scale, new_rates = _step(links, held, phases, mu, budgets)


def pga_optimize(channels: FreqChannelSet, total_power: float, *, mu0: float = SystemConfig.mu0,
                 epsilon: float = SystemConfig.epsilon, max_iter: int = SystemConfig.max_iter,
                 rng: np.random.Generator | None = None, phi0: RisPhases | None = None,
                 end: RunEnd | None = None, meter=None) -> PgaResult:
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
    The loop is `ascend` on one group of this one member. `end`, when given,
    must be the `RunEnd` that `ascend` reached for these channels and budget
    from `phi0` with this `mu0`, `epsilon` and `max_iter`; the call returns
    that run's result and takes no step. The harness runs a trial chunk's
    members through one `ascend` per stack and hands each its end state.
    A given `meter` gets the run's analytical cost (`flops.pga_run_cost`)
    added to it; only `bench/tracer.py` and tests pass one.
    The noise variance is 1: for another sigma^2, pass total_power / sigma^2.
    """
    require_numbers(SystemConfig, mu0=mu0, epsilon=epsilon, max_iter=max_iter)
    n_ris = channels.h1.shape[1]
    if phi0 is None:
        if end is not None:
            raise ValueError("an end state needs the phases phi0 its run started from")
        if rng is None:
            raise ValueError("rng is required when phi0 is not given")
        phi0 = RisPhases.random(n_ris, rng)
    require_phase_count(channels, phi0)

    if end is None:
        start = waterfill_covariances(combine_links(channels.h1, channels.h2, channels.h3, phi0.diag), total_power)
        group = channels, phi0.diag, replace(start, p=start.p[None], rate=np.array([start.rate])), [total_power]
        end = next(state for ended, _ in ascend([group], mu0=mu0, epsilon=epsilon, max_iter=max_iter)
                   for _, state in ended)

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
