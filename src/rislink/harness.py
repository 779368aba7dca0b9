"""Seeded Monte Carlo experiments over three method arms with CSV output.

A scenario's sweep is built once, as `SweepPoint`s from `_sweep_point`: (cfg,
geometry, power budget, sweep name, sweep value, SNR, link budget). Blockage,
link channels and random start phases come from counter-based substreams keyed
by (seed, scenario, trial, site), so results are independent of execution order.

Chunks: `_trial_rates` walks the trials in contiguous chunks, sized by a byte
budget over each trial's BS->RIS stack and steering vectors (`CHUNK_BYTES`).
`_trial_draws` synthesizes each link in one batched pass over a chunk's
trials, each trial from its own substream exactly as it would be drawn alone,
so no value depends on the chunk a trial lands in. `_trial_rates` then scores
the chunk in batched passes. The scoring pass folds each group, decomposes
the (K, N_r, N_t) start and direct channels of the chunk that its arms read
in one `channel_eigvals` call, and waterfills every (member, arm) row in one
`waterfill` call, one budget per row, each row with the bits of a lone call.
With the `pga` arm, the first-step pass takes every member's first ascent
step: one `pga.ascent_step` per group on its members' stacked start
allocations, then one `channel_eigvals` and one row-wise `waterfill` call for
every candidate of the chunk. The optimizer then runs once per member, from
its start row and its first step. One chunk's draws are held at a time; each
pass folds a group again, with the same bits, so that only one group's
folded stacks are held at a time.

Sharing (common random numbers): every sweep point and method arm of a trial is
scored from one draw. One blockage uniform serves every point, the two RIS
links and the start phases are drawn once per RIS size, the direct link once
per blockage state, and each point's link budget (`propagation.link_budget`,
which also sets its power budget) once, when the point is built. The points
that see one channel in a trial form one group: one RIS size and one
`LinkGains` value (blockage state and pathloss gains, compared by value), in
order of first appearance. A group's start eigenpairs are computed once, its
direct eigenpairs once per (trial, blockage state, direct gain), which groups
of different RIS sizes share, and each member waterfills only its own budget
on them, since the eigenpairs do not depend on it. Its members' first
gradients come from one `gradient_phi` call on those start eigenpairs, one
power row per member. The arms are the full
phase/power optimization, the random start phases with waterfilling, and a
system with the reflected path removed. The configs, their presets and their
parser are defined in `rislink.config`.
"""

import csv
import io
import math
import time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import flops
from .channel import FreqChannelSet, synthesize_link, taps_to_subcarriers
from .config import DISTANCE_D_RIS, GeometryConfig, SystemConfig, require_numbers
from .config import parse_config, preset_config  # noqa: F401  (the configs' entry points, re-exported here)
from .pga import FirstStep, ascent_step, pga_optimize
from .power import PowerAllocation, channel_eigvals, stream_rate, waterfill
from .propagation import LinkGains, blockage_state, link_budget, link_distances
from .rate import RisPhases, equivalent_channel, fold_gains
from .rng import SITE_BLOCKAGE, SITE_LINK, SITE_PHASES, substream

ARMS = ("pga", "random_phases", "no_ris")
SCENARIOS = {"se_vs_snr": 1, "plos_vs_se": 2, "distance_vs_se": 3}
_COMPLEXITY_SCENARIO_ID = 4  # substream id of the complexity table's trials
# Geometry each scenario sets itself: the keys it fixes, then the key it sweeps
# at its GeometryConfig default. sweep_points refuses a geometry that moves any
# of these keys off its default rather than silently overwrite it.
_SCENARIO_GEOMETRY = {
    "se_vs_snr": {"bs_height": 10.0, "d_ris": 2.2},
    "plos_vs_se": {"d_bs_ue": 200.0, "bs_height": 5.0, "d_ris": 2.2, "p_los_override": None},
    "distance_vs_se": {"bs_height": 20.0, "d_ris": DISTANCE_D_RIS, "d_bs_ue": GeometryConfig.d_bs_ue},
}
# Config keys each scenario and the complexity table do not read: se_vs_snr and
# complexity shape each RIS from its n_ris_list entry, distance_vs_se runs at
# 5 dB. The CLI refuses these keys when its command line sets them.
UNREAD_KEYS = {
    "se_vs_snr": ("ris_rows", "ris_cols", "plos_grid", "distance_grid"),
    "plos_vs_se": ("n_ris_list", "distance_grid"),
    "distance_vs_se": ("snr_db", "n_ris_list", "plos_grid"),
    "complexity": ("ris_rows", "ris_cols", "plos_grid", "distance_grid"),
}

# Byte budget of one trial chunk, counted per trial by `_trial_bytes` at the
# largest RIS size; a chunk holds at least one trial. At desk scale the
# steering arrays outweigh the BS->RIS stack (340 KiB against 128 KiB a trial
# at N_RIS=64). 1 MiB gives 2 trials at desk N_RIS=64, 6 at desk N_RIS=16 and
# 1 at paper scale.
CHUNK_BYTES = 2**20


class SweepPoint(NamedTuple):
    """One point of a sweep: its config, geometry, power and link budgets, and the (name, value, SNR) of its rows."""

    cfg: SystemConfig
    geometry: GeometryConfig
    budget: float
    sweep_name: str
    sweep_value: float
    snr_db: float
    link: tuple[float, float, dict[bool, LinkGains]]  # its `propagation.link_budget`


@dataclass(frozen=True)
class TrialSlab:
    """What `_trial_rates` returns for its points and trials.

    `se` is points x arms x trials. The run records of each `pga` run are
    points x trials, zeros without `pga`: `iterations` and `gradient_passes`
    are integer counters that depend only on the seeded draws, and `seconds`,
    the wall time of the `pga_optimize` call plus an equal share of its
    chunk's first-step pass, is the one field that does not reproduce.
    """

    se: np.ndarray
    iterations: np.ndarray
    gradient_passes: np.ndarray
    seconds: np.ndarray


class ScenarioResult(NamedTuple):
    """Aggregated spectral efficiency for one (scenario, sweep point, arm) cell; its fields are the CSV columns."""

    scenario: str
    sweep_name: str
    sweep_value: float
    arm: str
    n_ris: int
    snr_db: float
    mean_se: float
    stderr_se: float
    trials: int
    seed: int
    d2: float


CSV_COLUMNS = ScenarioResult._fields

def _sweep_point(cfg: SystemConfig, geom: GeometryConfig, sweep_name: str, sweep_value: float,
                 snr_db: float) -> SweepPoint:
    """The one builder of a `SweepPoint`: its link budget, evaluated once, and the power budget of `snr_db`.

    P_t = K * 10^(snr/10) / reference gain with unit noise variance. Raises ValueError when `snr_db` breaks
    the rule of cfg.snr_db's items, `link_budget` refuses the geometry or the budget is not finite and positive.
    """
    require_numbers(SystemConfig, snr_db=snr_db)
    link = link_budget(geom)
    try:
        power = cfg.n_subcarriers * 10.0 ** (snr_db / 10.0) / link[1]
    except OverflowError:
        power = math.inf
    if not (power > 0 and math.isfinite(power)):
        raise ValueError(f"snr_db={snr_db!r} gives a power budget of {power!r}; it must be finite and positive")
    return SweepPoint(cfg, geom, power, sweep_name, sweep_value, snr_db, link)


def total_power_for_snr(cfg: SystemConfig, geom: GeometryConfig, snr_db: float) -> float:
    """Budget P_t so the dB axis reads as average per-subcarrier received direct SNR; see `_sweep_point`."""
    return _sweep_point(cfg, geom, "snr_db", snr_db, snr_db).budget


def _trial_bytes(c: SystemConfig) -> int:
    """One trial's share of a chunk: its BS->RIS subcarrier stack plus the largest link's steering-vector pair.

    `synthesize_link` holds the rx and tx responses of every (tap, ray) pair
    of a link at once, complex: 16 * L * rays * (n_rx + n_tx) bytes a trial.
    """
    steering = max(taps * clusters * rays * (rx.n_elements + tx.n_elements)
                   for rx, tx, clusters, rays, taps in (c.link(1), c.link(2), c.link(3, True), c.link(3, False)))
    return 16 * (c.n_subcarriers * c.n_ris * c.n_t + steering)


def _chunk_trials(configs: list[SystemConfig]) -> int:
    """Trials per chunk for these configs: CHUNK_BYTES over the largest `_trial_bytes`, at least 1."""
    return max(1, CHUNK_BYTES // max(_trial_bytes(c) for c in configs))


def _link_response(cfg: SystemConfig, keys: list[tuple], link: int, los: bool = True) -> np.ndarray:
    """(T, K, n_rx, n_tx) subcarrier responses of one link of the trials at `keys`; `los` matters for link 3 only."""
    taps = synthesize_link(link, cfg, [substream(*key, SITE_LINK, link) for key in keys], los=los)
    return taps_to_subcarriers(taps, cfg.n_subcarriers)


def _trial_draws(pairs: list[tuple[SystemConfig, tuple]], keys: list[tuple]) -> list[list[tuple]]:
    """The channel groups of each trial at `keys`, in trial order, each link drawn in one batched pass.

    `pairs` holds the (cfg, `link_budget`) of each point. A trial's groups are
    (unfolded channels, pathloss gains, start phases, indices of the points
    that see them); the module docstring gives the chunk and the sharing rule.
    """
    configs = [c for c, _ in pairs]
    ris = {c.n_ris: c for c in configs}  # one config per RIS size, in order of first appearance
    plos, _, gains = zip(*(link for _, link in pairs))
    states = [[blockage_state(p, u) for p in plos]
              for u in (substream(*key, SITE_BLOCKAGE).uniform() for key in keys)]
    # RIS size -> the trials' BS->RIS and RIS->UE stacks and start phases
    h1, h2 = ({n: _link_response(c, keys, link) for n, c in ris.items()} for link in (1, 2))
    phases = {n: [RisPhases.random(n, substream(*key, SITE_PHASES)) for key in keys] for n in ris}
    # Link 3 may come from configs[0]: every caller builds its points from
    # one config, varied at most in RIS size, so they share the link-3 arrays.
    direct = {}  # (trial, blockage state) -> that trial's link-3 stack
    for los in (True, False):
        trials = [t for t, row in enumerate(states) if los in row]
        if trials:
            h3 = _link_response(configs[0], [keys[t] for t in trials], 3, los)
            direct.update(zip([(t, los) for t in trials], h3))
    draws = []
    for t, row in enumerate(states):
        groups = {}  # (RIS size, pathloss gains) -> member indices
        for i, (c, point_gains, los) in enumerate(zip(configs, gains, row)):
            groups.setdefault((c.n_ris, point_gains[los]), []).append(i)
        draws.append([(FreqChannelSet(h1[n][t], h2[n][t], direct[t, g.los]), g, phases[n][t], members)
                      for (n, g), members in groups.items()])
    return draws


def draw_trial(cfg: SystemConfig, geom: GeometryConfig, key: tuple) -> tuple[FreqChannelSet, LinkGains]:
    """Link channels and pathloss gains of one Monte Carlo trial at one (cfg, geometry) point.

    `key` is the (seed, scenario index, trial) substream key. Each link comes
    from its own substream, so the RIS links are the same in every blockage
    state and the direct link is the same for every RIS size.
    """
    [[(channels, gains, _, _)]] = _trial_draws([(cfg, link_budget(geom))], [key])
    return channels, gains


def _trial_rates(points: list[SweepPoint], keys: list[tuple], arms=ARMS) -> TrialSlab:
    """Spectral efficiency and `pga` run records of the trials at `keys` at each sweep point.

    Per chunk of `_trial_draws`, sharing the algebra as the module docstring
    states: a scoring pass decomposes and waterfills, in one batched call
    each, only the rows `arms` read: each member's start row (`random_phases`,
    and the optimizer's start) and direct row (`no_ris`). With `pga`, a
    first-step pass takes every member's first ascent step, one stacked
    `ascent_step` per group and one batched decomposition and waterfill of
    every candidate, and an optimizer pass runs `pga_optimize` once per
    member from that step. A member's `seconds` is its `pga_optimize` call
    plus an equal share of its chunk's first-step pass. A lone point
    (`run_trial`) computes the same bits.
    """
    shape = len(points), len(keys)
    se = np.empty((len(points), len(arms), len(keys)))
    iterations, gradient_passes, seconds = np.zeros(shape, dtype=int), np.zeros(shape, dtype=int), np.zeros(shape)
    pairs = [(p.cfg, p.link) for p in points]
    chunk = _chunk_trials([p.cfg for p in points])
    read_start, read_direct = "pga" in arms or "random_phases" in arms, "no_ris" in arms
    for first in range(0, len(keys), chunk):
        groups = [(t, draw, gains, phi0, members)
                  for t, trial in enumerate(_trial_draws(pairs, keys[first:first + chunk]), first)
                  for draw, gains, phi0, members in trial]
        # each pass folds the groups as it reads them, with the same bits, so that none holds more than one
        # group's folded stacks
        folded_groups = lambda: ((t, fold_gains(draw, gains), gains, phi0, members)  # noqa: E731
                                 for t, draw, gains, phi0, members in groups)
        channels, direct_slots = [], {}  # the chunk's (K, N_r, N_t) channels to decompose; direct key -> slot
        start_rows, direct_rows = [], []  # each member's channel slot, for the rows `arms` read
        member_points, member_trials, budgets = [], [], []  # one entry per member
        for t, folded, gains, phi0, members in folded_groups():
            if read_start:
                start_rows += [len(channels)] * len(members)
                channels.append(equivalent_channel(folded, phi0))
            if read_direct:
                direct = direct_slots.setdefault((t, gains.los, gains.rho_direct), len(channels))
                if direct == len(channels):
                    channels.append(folded.h3)
                direct_rows += [direct] * len(members)
            member_points += members
            member_trials += [t] * len(members)
            budgets += [points[i].budget for i in members]
        del folded  # the last group's, which a later pass folds again
        lam, w = channel_eigvals(np.stack(channels))
        rows = start_rows + direct_rows  # each member's start row, then each member's direct row
        powers, _ = waterfill(lam[rows], budgets * (len(rows) // len(budgets)))
        rate = stream_rate(lam[rows], powers)
        baseline = {"random_phases": rate[:len(start_rows)], "no_ris": rate[len(start_rows):]}
        for a, arm in enumerate(arms):
            if arm in baseline:
                se[member_points, a, member_trials] = baseline[arm]
        if "pga" not in arms:
            continue
        pga_column = arms.index("pga")

        def start_allocation(member) -> PowerAllocation:
            """The start allocation of the chunk's `member`, or with a slice the stacked ones of one group's members."""
            s = start_rows[member.start if isinstance(member, slice) else member]
            return PowerAllocation(heq=channels[s], lam=lam[s], w=w[s], p=powers[member], rate=rate[member])

        t0 = time.perf_counter()
        steps, candidates, candidate_budgets = [], [], []  # per group; per member with a nonzero gradient
        m = 0  # the group's first member
        for _, folded, _, phi0, members in folded_groups():
            group = slice(m, m + len(members))
            mu = np.array([points[i].cfg.mu0 for i in members])
            grad, scale, new_diag, heq = ascent_step(folded, start_allocation(group), phi0.diag, mu)
            steps.append((grad, scale, new_diag))
            live = scale != 0.0  # a zero gradient gets no candidate
            candidates.append(heq[live])
            candidate_budgets += [b for b, step in zip(budgets[group], live) if step]
            m = group.stop
        if candidate_budgets:
            candidate = np.concatenate(candidates)
            candidate_lam, candidate_w = channel_eigvals(candidate)
            candidate_powers, _ = waterfill(candidate_lam, candidate_budgets)
            candidate_rate = stream_rate(candidate_lam, candidate_powers)
        share = (time.perf_counter() - t0) / len(budgets)

        m = c = 0  # the member and its candidate
        for (t, folded, _, phi0, members), (grad, scale, new_diag) in zip(folded_groups(), steps):
            for j, i in enumerate(members):
                alloc = None  # a zero gradient's, which ends the run
                if scale[j] != 0.0:
                    alloc = PowerAllocation(heq=candidate[c], lam=candidate_lam[c], w=candidate_w[c],
                                            p=candidate_powers[c], rate=float(candidate_rate[c]))
                    c += 1
                cfg = points[i].cfg
                t1 = time.perf_counter()
                result = pga_optimize(folded, budgets[m], mu0=cfg.mu0, epsilon=cfg.epsilon, max_iter=cfg.max_iter,
                                      phi0=phi0, start=start_allocation(m),
                                      first=FirstStep(grad[j], scale[j], new_diag[j], alloc))
                seconds[i, t] = time.perf_counter() - t1 + share
                iterations[i, t], gradient_passes[i, t] = result.iterations, result.gradient_passes
                se[i, pga_column, t] = result.rate
                m += 1
    return TrialSlab(se=se, iterations=iterations, gradient_passes=gradient_passes, seconds=seconds)


def run_trial(cfg: SystemConfig, geom: GeometryConfig, arm: str, key: tuple, snr_db: float) -> float:
    """Spectral efficiency of one Monte Carlo trial for one method arm.

    `key` is the (seed, scenario index, trial) substream key. The result
    equals the trial's cell in `run_scenario`, which scores every sweep
    point and arm of the trial from the same draws.
    """
    if arm not in ARMS:
        raise ValueError(f"unknown arm {arm!r}; choose from {ARMS}")
    return _trial_rates([_sweep_point(cfg, geom, "snr_db", snr_db, snr_db)], [key], (arm,)).se.item()


def sweep_points(cfg: SystemConfig, geom: GeometryConfig, scenario: str) -> list[SweepPoint]:
    """The `SweepPoint` of each point of `scenario`, in row order.

    se_vs_snr sweeps the SNR grid for each RIS size in cfg.n_ris_list at the
    bs_height=10, d_ris=2.2 geometry; plos_vs_se sweeps the LOS-probability
    override grid for each configured SNR at D=200, bs_height=5, d_ris=2.2;
    distance_vs_se sweeps the BS-UE distance grid at bs_height=20, d_ris=30,
    SNR=5 dB. A `geom` that moves any of these keys off its GeometryConfig
    default, or a budget that is not finite and positive, raises ValueError.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}")
    geometry = _SCENARIO_GEOMETRY[scenario]
    default = GeometryConfig()
    for key in geometry:
        if getattr(geom, key) != getattr(default, key):
            raise ValueError(f"{scenario} sets {key} itself; leave it at its default "
                             f"{getattr(default, key)!r}, got {getattr(geom, key)!r}")
    base = replace(geom, **geometry)
    if scenario == "se_vs_snr":
        points = [(cfg.with_n_ris(n_ris), base, "snr_db", float(snr), float(snr))
                  for n_ris in cfg.n_ris_list for snr in cfg.snr_db]
    elif scenario == "plos_vs_se":
        points = [(cfg, replace(base, p_los_override=float(p)), "p_los", float(p), float(snr))
                  for snr in cfg.snr_db for p in cfg.plos_grid]
    else:  # distance_vs_se
        points = [(cfg, replace(base, d_bs_ue=float(d)), "d_bs_ue", float(d), 5.0) for d in cfg.distance_grid]
    return [_sweep_point(*point) for point in points]


def run_scenario(cfg: SystemConfig, geom: GeometryConfig, scenario: str) -> list[ScenarioResult]:
    """Run one experiment scenario and return one result row per (sweep point, arm).

    The sweep comes from one `sweep_points` call, so its checks run before any
    trial. Trials run outermost, in `_trial_rates`' chunks; each trial's draws
    are shared by every sweep point and arm.
    """
    points = sweep_points(cfg, geom, scenario)
    keys = [(cfg.seed, SCENARIOS[scenario], t) for t in range(cfg.mc_trials)]
    se = _trial_rates(points, keys).se  # (points, arms, trials)
    means = se.mean(axis=2)
    stderrs = se.std(axis=2, ddof=1) / np.sqrt(len(keys)) if len(keys) > 1 else np.zeros_like(means)

    rows: list[ScenarioResult] = []
    for point, point_means, point_stderrs in zip(points, means.tolist(), stderrs.tolist()):
        _, d2, _ = link_distances(point.geometry)
        for arm, mean, stderr in zip(ARMS, point_means, point_stderrs):
            rows.append(ScenarioResult(scenario=scenario, sweep_name=point.sweep_name,
                                       sweep_value=point.sweep_value, arm=arm, n_ris=point.cfg.n_ris,
                                       snr_db=point.snr_db, mean_se=mean, stderr_se=stderr,
                                       trials=cfg.mc_trials, seed=cfg.seed, d2=float(d2)))
    return rows


def complexity_table(cfg: SystemConfig, geom: GeometryConfig, n_ris_list, seed: int | None = None, *,
                     trials: int, snr_db: float) -> list[dict]:
    """Mean iterations, FLOPs and optimizer runtime of `pga` trials for each RIS size.

    One `_trial_rates` call scores `trials` trials at every size, each size a
    point at the one SNR `snr_db` (the CLI passes cfg.mc_trials and the first
    value of cfg.snr_db), so each trial is drawn once; each size's row averages
    its run records. `runtime_s` is the optimizer's time: the `pga_optimize`
    call plus an equal share of the chunk's stacked first-step pass; channel
    synthesis, the pathloss fold and the start allocation run outside it.
    `flop_count` prices each run's counters with `flops.pga_run_cost`; the
    counters depend only on the seeded draws, so those columns reproduce. The
    sizes, trial count and seed replace the config's `n_ris_list`, `mc_trials`
    and `seed`, whose numeric rule refuses a bad value before any trial runs.
    """
    cfg = replace(cfg, n_ris_list=tuple(n_ris_list), mc_trials=trials, seed=cfg.seed if seed is None else seed)
    configs = [cfg.with_n_ris(n_ris) for n_ris in cfg.n_ris_list]
    keys = [(cfg.seed, _COMPLEXITY_SCENARIO_ID, t) for t in range(cfg.mc_trials)]
    slab = _trial_rates([_sweep_point(c, geom, "n_ris", c.n_ris, snr_db) for c in configs], keys, ("pga",))
    rows = []
    for c, iters, passes, runtimes in zip(configs, slab.iterations, slab.gradient_passes, slab.seconds):
        flop_counts = [flops.pga_run_cost(c.n_subcarriers, c.n_r, c.n_t, c.n_ris, int(p), int(i)).flop_total
                       for i, p in zip(iters, passes)]
        rows.append({"n_ris": c.n_ris,
                     "iter_count": float(np.mean(iters)),
                     "flop_count": float(np.mean(flop_counts)),
                     "runtime_s": float(np.mean(runtimes))})
    return rows


def _csv_text(header, lines) -> str:
    """RFC-4180 CSV text: the header, then one line per row, each ended by CRLF."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(lines)
    return buf.getvalue()


def scenario_rows_to_csv(rows: list[ScenarioResult]) -> str:
    """RFC-4180 CSV text (header + one line per result row)."""
    return _csv_text(CSV_COLUMNS, ([f"{v:.10g}" if isinstance(v, float) else v for v in r] for r in rows))


def complexity_rows_to_csv(rows: list[dict]) -> str:
    return _csv_text(["n_ris", "iter_count", "flop_count", "runtime_s"],
                     ([r["n_ris"], f"{r['iter_count']:.10g}", f"{r['flop_count']:.10g}", f"{r['runtime_s']:.6f}"]
                      for r in rows))
