"""Seeded Monte Carlo experiments over three method arms with CSV output.

A scenario's sweep is built once, as (cfg, geometry, power budget, sweep
name, sweep value, SNR) points. Blockage, link channels and random start
phases come from counter-based substreams keyed by (seed, scenario, trial,
site), so results are independent of execution order. Trials run outermost,
in contiguous chunks, for scenarios and the complexity table alike: each link
is synthesized in one batched pass over a chunk's trials, each trial drawn
from its own substream exactly as it would be alone, so a trial's values do
not depend on the chunk it lands in. The chunk size comes from a byte budget
over each trial's BS->RIS stack and steering vectors (`CHUNK_BYTES`). One loop,
`_trial_rates`, then scores every sweep point and method arm of each trial
from shared draws (common random numbers): one blockage uniform, the two RIS
links once per RIS size, the direct link once per blockage state, and each
point's pathloss once per chunk. The points that see one channel in a trial
also share its algebra, decomposed where the trial first meets it, since they
differ only in their power budget and the eigenpairs do not: the folded
stacks and the start equivalent channel's eigenpairs once per (RIS size,
blockage state, pathloss gains), and the folded direct channel's eigenpairs
once per (blockage state, direct gain). Each point waterfills only its own
budget on them. The arms are the full phase/power optimization, the random
start phases with waterfilling, and a system with the reflected path removed.
The configs, their presets and their parser are defined in `rislink.config`.
"""

import csv
import io
import math
import time
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from . import flops
from .channel import FreqChannelSet, synthesize_link, taps_to_subcarriers
from .config import DISTANCE_D_RIS, GeometryConfig, SystemConfig, is_integer
from .config import parse_config, preset_config  # noqa: F401  (the configs' entry points, re-exported here)
from .pga import pga_optimize
from .power import channel_eigvals, waterfill_eigenpairs
from .propagation import LinkGains, blockage_state, direct_gain, indirect_gain, link_distances, p_los
from .rate import RisPhases, equivalent_channel, fold_gains
from .rng import SITE_BLOCKAGE, SITE_LINK, SITE_PHASES, substream

ARMS = ("pga", "random_phases", "no_ris")
SCENARIOS = {"se_vs_snr": 1, "plos_vs_se": 2, "distance_vs_se": 3}
_COMPLEXITY_SCENARIO_ID = 4  # substream id of the complexity table's trials
# Geometry each scenario sets itself: the values it fixes and the keys it
# sweeps. run_scenario refuses a geometry that moves any of these keys off its
# GeometryConfig default rather than silently overwrite it.
_SCENARIO_GEOMETRY = {
    "se_vs_snr": ({"bs_height": 10.0, "d_ris": 2.2}, ()),
    "plos_vs_se": ({"d_bs_ue": 200.0, "bs_height": 5.0, "d_ris": 2.2}, ("p_los_override",)),
    "distance_vs_se": ({"bs_height": 20.0, "d_ris": DISTANCE_D_RIS}, ("d_bs_ue",)),
}

# Byte budget of one trial chunk, counted per trial by `_trial_bytes` at the
# largest RIS size; a chunk holds at least one trial. At desk scale the
# steering arrays outweigh the BS->RIS stack (340 KiB against 128 KiB a trial
# at N_RIS=64). 1 MiB gives 2 trials at desk N_RIS=64, 6 at desk N_RIS=16 and
# 1 at paper scale.
CHUNK_BYTES = 2**20


@dataclass
class ScenarioResult:
    """Aggregated spectral efficiency for one (scenario, sweep point, arm) cell."""

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


CSV_COLUMNS = tuple(f.name for f in fields(ScenarioResult))

def reference_gain(geom: GeometryConfig) -> float:
    """Blockage-averaged direct-path gain used as the SNR reference.

    p*rho_LOS + (1-p)*rho_NLOS with p = p_los(geom), the effective LOS
    probability; equals the plain LOS gain when p = 1.
    """
    p = p_los(geom)
    return p * direct_gain(geom, los=True) + (1.0 - p) * direct_gain(geom, los=False)


def total_power_for_snr(cfg: SystemConfig, geom: GeometryConfig, snr_db: float) -> float:
    """Budget P_t so the dB axis reads as average per-subcarrier received direct SNR.

    P_t = K * 10^(snr/10) / reference_gain(geom) with unit noise variance.
    Raises ValueError when that budget is not a finite positive number.
    """
    try:
        power = cfg.n_subcarriers * 10.0 ** (snr_db / 10.0) / reference_gain(geom)
    except (OverflowError, ZeroDivisionError):
        power = math.inf
    if not (power > 0 and math.isfinite(power)):
        raise ValueError(f"snr_db={snr_db!r} gives a power budget of {power!r}; it must be finite and positive")
    return power


def _trial_bytes(c: SystemConfig) -> int:
    """One trial's share of a chunk: its BS->RIS subcarrier stack plus the largest link's steering-vector pair.

    `synthesize_link` holds the rx and tx responses of every (tap, ray) pair
    of a link at once, complex: 16 * L * rays * (n_rx + n_tx) bytes a trial.
    """
    steering = max(taps * clusters * rays * (rx.n_elements + tx.n_elements)
                   for rx, tx, clusters, rays, taps in (c.link(1), c.link(2), c.link(3, True), c.link(3, False)))
    return 16 * (c.n_subcarriers * c.n_ris * c.n_t + steering)


def _chunk_trials(points: list[tuple]) -> int:
    """Trials per chunk for sweep points led by cfg: CHUNK_BYTES over the largest `_trial_bytes`, at least 1."""
    return max(1, CHUNK_BYTES // max(_trial_bytes(c) for c, *_ in points))


def _link_response(cfg: SystemConfig, keys: list[tuple], link: int, los: bool = True) -> np.ndarray:
    """(T, K, n_rx, n_tx) subcarrier responses of one link of the trials at `keys`; `los` matters for link 3 only."""
    taps = synthesize_link(link, cfg, [substream(*key, SITE_LINK, link) for key in keys], los=los)
    return taps_to_subcarriers(taps, cfg.n_subcarriers)


def _trial_draws(points: list[tuple], keys: list[tuple]):
    """Yield (channels, pathloss gains, start phases) of each trial at `keys` at each sweep point.

    A point is read only for its leading (cfg, geometry) pair. Trial-major:
    all points of the first trial, then of the next. Each point's LOS
    probability and its LOS and NLOS gains are evaluated once per call. One
    blockage uniform per trial serves every point; links 1 and 2 and the
    start phases are drawn once per RIS size, and link 3 once per blockage
    state, since the points differ only in RIS size and large-scale geometry.
    Each link is one `synthesize_link` call over the trials that need it.
    The draws are shared, the algebra on them is not: `_trial_rates` groups
    the points of a trial by the channel they see.
    """
    gains = [{los: LinkGains(rho_direct=direct_gain(g, los), rho_indirect=indirect_gain(g), los=los)
              for los in (True, False)} for _, g, *_ in points]
    plos = [p_los(g) for _, g, *_ in points]
    states = [[blockage_state(p, u) for p in plos]
              for u in (substream(*key, SITE_BLOCKAGE).uniform() for key in keys)]
    ris = {}
    for c, *_ in points:
        if c.n_ris not in ris:
            ris[c.n_ris] = (_link_response(c, keys, 1), _link_response(c, keys, 2),
                            [RisPhases.random(c.n_ris, substream(*key, SITE_PHASES)) for key in keys])
    direct = {}  # (trial, blockage state) -> that trial's link-3 stack
    for los in (True, False):
        trials = [t for t, row in enumerate(states) if los in row]
        if trials:
            h3 = _link_response(points[0][0], [keys[t] for t in trials], 3, los)
            direct.update(zip([(t, los) for t in trials], h3))
    for t, row in enumerate(states):
        for (c, *_), point_gains, los in zip(points, gains, row):
            h1, h2, phases = ris[c.n_ris]
            yield FreqChannelSet(h1[t], h2[t], direct[t, los]), point_gains[los], phases[t]


def draw_trial(cfg: SystemConfig, geom: GeometryConfig, key: tuple) -> tuple[FreqChannelSet, LinkGains]:
    """Link channels and pathloss gains of one Monte Carlo trial at one (cfg, geometry) point.

    `key` is the (seed, scenario index, trial) substream key. Each link comes
    from its own substream, so the RIS links are the same in every blockage
    state and the direct link is the same for every RIS size.
    """
    return next(_trial_draws([(cfg, geom)], [key]))[:2]


def _trial_rates(points: list[tuple], keys: list[tuple], arms=ARMS) -> tuple[np.ndarray, np.ndarray]:
    """Spectral efficiency (points x arms x trials) of the trials at `keys` at each (cfg, geometry, budget, ...) point.

    Within a trial, each distinct channel is folded and decomposed where the
    trial first meets it. Points with the same RIS size, blockage state and
    pathloss gains (compared by value) share the folded stacks and the start
    equivalent channel's eigenpairs; points with the same blockage state and
    direct gain share the folded direct channel's eigenpairs, since that link
    does not see the RIS. Each point then scores its own budget: the
    waterfill on the start pairs is `random_phases` and, only when `arms`
    holds `pga`, the optimizer's start; the one on the direct pairs is
    `no_ris`. A lone point (`run_trial`) computes the same bits. Also returns
    the run records (points x 3 x trials, zeros without `pga`): iterations,
    gradient passes and wall seconds of each `pga_optimize` call alone.
    """
    se = np.empty((len(points), len(arms), len(keys)))
    runs = np.zeros((len(points), 3, len(keys)))
    for n, (channels, gains, phi0) in enumerate(_trial_draws(points, keys)):
        t, i = divmod(n, len(points))
        if i == 0:
            shared, directs = {}, {}  # this trial's channel algebra, by the channel it belongs to
        cfg, _, budget = points[i][:3]
        key = (cfg.n_ris, gains.los, gains.rho_direct, gains.rho_indirect)
        if key not in shared:
            folded = fold_gains(channels, gains)
            direct_key = (gains.los, gains.rho_direct)
            if direct_key not in directs:
                directs[direct_key] = folded.h3, *channel_eigvals(folded.h3, 1.0)
            heq = equivalent_channel(folded, phi0)
            shared[key] = folded, (heq, *channel_eigvals(heq, 1.0)), directs[direct_key]
        folded, start, direct = shared[key]
        alloc = waterfill_eigenpairs(*start, budget)
        rates = {"random_phases": alloc.rate, "no_ris": waterfill_eigenpairs(*direct, budget).rate}
        if "pga" in arms:
            t0 = time.perf_counter()
            result = pga_optimize(folded, budget, mu0=cfg.mu0, epsilon=cfg.epsilon, max_iter=cfg.max_iter,
                                  phi0=phi0, start=alloc)
            runs[i, :, t] = result.iterations, result.gradient_passes, time.perf_counter() - t0
            rates["pga"] = result.rate
        se[i, :, t] = [rates[arm] for arm in arms]
    return se, runs


def _score(points: list[tuple], keys: list[tuple], arms=ARMS) -> tuple[np.ndarray, np.ndarray]:
    """`_trial_rates` of the trials at `keys` in contiguous `_chunk_trials` chunks, joined in trial order."""
    chunk = _chunk_trials(points)
    parts = [_trial_rates(points, keys[start:start + chunk], arms) for start in range(0, len(keys), chunk)]
    return tuple(np.concatenate(part, axis=-1) for part in zip(*parts))


def run_trial(cfg: SystemConfig, geom: GeometryConfig, arm: str, key: tuple, snr_db: float) -> float:
    """Spectral efficiency of one Monte Carlo trial for one method arm.

    `key` is the (seed, scenario index, trial) substream key. The result
    equals the trial's cell in `run_scenario`, which scores every sweep
    point and arm of the trial from the same draws.
    """
    if arm not in ARMS:
        raise ValueError(f"unknown arm {arm!r}; choose from {ARMS}")
    return float(_trial_rates([(cfg, geom, total_power_for_snr(cfg, geom, snr_db))], [key], (arm,))[0][0, 0, 0])


def check_scenario_geometry(geom: GeometryConfig, scenario: str) -> None:
    """Raise ValueError if `geom` moves a key that `scenario` sets itself off its GeometryConfig default."""
    fixed, swept = _SCENARIO_GEOMETRY[scenario]
    default = GeometryConfig()
    for key in (*fixed, *swept):
        if getattr(geom, key) != getattr(default, key):
            raise ValueError(f"{scenario} sets {key} itself; leave it at its default "
                             f"{getattr(default, key)!r}, got {getattr(geom, key)!r}")


def sweep_points(cfg: SystemConfig, geom: GeometryConfig, scenario: str) -> list[tuple]:
    """(cfg, geometry, power budget, sweep name, sweep value, SNR) of each sweep point of `scenario`, in row order.

    se_vs_snr sweeps the SNR grid for each RIS size in cfg.n_ris_list at the
    bs_height=10, d_ris=2.2 geometry; plos_vs_se sweeps the LOS-probability
    override grid for each configured SNR at D=200, bs_height=5, d_ris=2.2;
    distance_vs_se sweeps the BS-UE distance grid at bs_height=20, d_ris=30,
    SNR=5 dB. A `geom` that moves any of these keys off its GeometryConfig
    default, or a budget that is not finite and positive, raises ValueError.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}")
    check_scenario_geometry(geom, scenario)
    base = replace(geom, **_SCENARIO_GEOMETRY[scenario][0])
    if scenario == "se_vs_snr":
        points = [(cfg.with_n_ris(n_ris), base, "snr_db", float(snr), float(snr))
                  for n_ris in cfg.n_ris_list for snr in cfg.snr_db]
    elif scenario == "plos_vs_se":
        points = [(cfg, replace(base, p_los_override=float(p)), "p_los", float(p), float(snr))
                  for snr in cfg.snr_db for p in cfg.plos_grid]
    else:  # distance_vs_se
        points = [(cfg, replace(base, d_bs_ue=float(d)), "d_bs_ue", float(d), 5.0) for d in cfg.distance_grid]
    return [(c, g, total_power_for_snr(c, g, snr), name, value, snr) for c, g, name, value, snr in points]


def run_scenario(cfg: SystemConfig, geom: GeometryConfig, scenario: str) -> list[ScenarioResult]:
    """Run one experiment scenario and return one result row per (sweep point, arm).

    The sweep comes from one `sweep_points` call, so its checks run before any
    trial. Trials run outermost, in `_score`'s chunks; each trial's draws are
    shared by every sweep point and arm.
    """
    points = sweep_points(cfg, geom, scenario)
    keys = [(cfg.seed, SCENARIOS[scenario], t) for t in range(cfg.mc_trials)]
    se, _ = _score(points, keys)

    rows: list[ScenarioResult] = []
    for (c, g, _, sweep_name, sweep_value, snr), per_arm in zip(points, se):
        _, d2, _ = link_distances(g)
        for arm, values in zip(ARMS, per_arm):
            stderr = float(values.std(ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
            rows.append(ScenarioResult(scenario=scenario, sweep_name=sweep_name,
                                       sweep_value=sweep_value, arm=arm, n_ris=c.n_ris,
                                       snr_db=snr, mean_se=float(values.mean()), stderr_se=stderr,
                                       trials=cfg.mc_trials, seed=cfg.seed, d2=float(d2)))
    return rows


def complexity_table(cfg: SystemConfig, geom: GeometryConfig, n_ris_list, seed: int | None = None, *,
                     trials: int, snr_db: float) -> list[dict]:
    """Mean iterations, FLOPs and optimizer runtime of `pga` trials for each RIS size.

    Each size averages the run records of `trials` trials scored by `_score`
    at the one SNR `snr_db` (the CLI passes cfg.mc_trials and the first value
    of cfg.snr_db). `runtime_s` times the `pga_optimize` call alone; channel
    synthesis, the pathloss fold and the start allocation run outside it.
    `flop_count` prices each run's counters with `flops.pga_run_cost`; the
    counters depend only on the seeded draws, so those columns reproduce. A
    size or trial count that is not an integer >= 1, or a seed that is not an
    integer >= 0, raises ValueError before any trial runs.
    """
    if not is_integer(trials) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    seed = cfg.seed if seed is None else seed
    if not is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    power = total_power_for_snr(cfg, geom, snr_db)
    configs = [cfg.with_n_ris(n_ris) for n_ris in n_ris_list]
    keys = [(seed, _COMPLEXITY_SCENARIO_ID, t) for t in range(trials)]
    rows = []
    for c in configs:
        iters, passes, runtimes = _score([(c, geom, power)], keys, ("pga",))[1][0]
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
    return _csv_text(CSV_COLUMNS, ([f"{v:.10g}" if isinstance(v, float) else v for v in astuple(r)] for r in rows))


def complexity_rows_to_csv(rows: list[dict]) -> str:
    return _csv_text(["n_ris", "iter_count", "flop_count", "runtime_s"],
                     ([r["n_ris"], f"{r['iter_count']:.10g}", f"{r['flop_count']:.10g}", f"{r['runtime_s']:.6f}"]
                      for r in rows))
