"""Seeded Monte Carlo experiments over three method arms with CSV output.

Blockage, link channels and random start phases come from counter-based
substreams keyed by (seed, scenario, trial, site), so results are independent
of execution order. Trials run outermost, in contiguous chunks: each link is
synthesized in one batched pass over a chunk's trials, each trial drawn from
its own substream exactly as it would be alone, so a trial's values do not
depend on the chunk it lands in. The chunk size comes from a byte budget on
one chunk's BS->RIS stack (`CHUNK_BYTES`). One kernel then scores every sweep
point and method arm of each trial from shared draws (common random
numbers): one blockage uniform, the two RIS links once per RIS size and the
direct link once per blockage state. The three arms are the full phase/power
optimization, the random start phases with waterfilling, and a system with
the reflected path removed.
"""

import csv
import io
import math
import numbers
import time
from dataclasses import dataclass, fields, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import flops
from .channel import FreqChannelSet, UraSpec, synthesize_link, taps_to_subcarriers
from .pga import pga_optimize
from .power import waterfill_covariances
from .propagation import (GeometryConfig, LinkGains, blockage_state, direct_gain, indirect_gain, link_distances,
                          p_los, require_valid_numbers)
from .rate import RisPhases, combine_links, fold_gains
from .rng import SITE_BLOCKAGE, SITE_LINK, SITE_PHASES, substream

ARMS = ("pga", "random_phases", "no_ris")
SCENARIOS = {"se_vs_snr": 1, "plos_vs_se": 2, "distance_vs_se": 3}
_COMPLEXITY_SCENARIO_ID = 4  # substream id of the complexity table's trials
DISTANCE_D_RIS = 30.0  # distance_vs_se's RIS offset (m); its distance_grid must lie beyond it
# Geometry each scenario sets itself: the values it fixes and the keys it
# sweeps. run_scenario refuses a geometry that moves any of these keys off its
# GeometryConfig default rather than silently overwrite it.
_SCENARIO_GEOMETRY = {
    "se_vs_snr": ({"bs_height": 10.0, "d_ris": 2.2}, ()),
    "plos_vs_se": ({"d_bs_ue": 200.0, "bs_height": 5.0, "d_ris": 2.2}, ("p_los_override",)),
    "distance_vs_se": ({"bs_height": 20.0, "d_ris": DISTANCE_D_RIS}, ("d_bs_ue",)),
}

# Byte budget of one trial chunk's BS->RIS subcarrier stack, 16*K*N_RIS*N_t
# bytes per trial at the largest RIS size; a chunk holds at least one trial.
# 1 MiB gives 8 trials at desk N_RIS=64, 32 at desk N_RIS=16 and 1 at paper
# scale. A chunk's steering-vector temporaries outweigh its stacks at desk
# scale: 32-trial chunks raised a 40-trial desk se_vs_snr run's peak RSS by
# 19 MiB over 1-trial chunks, 8-trial chunks by 5 MiB.
CHUNK_BYTES = 2**20

CSV_COLUMNS = ("scenario", "sweep_name", "sweep_value", "arm", "n_ris", "snr_db",
               "mean_se", "stderr_se", "trials", "seed", "d2")


def _square_factorization(n: int) -> tuple[int, int]:
    """rows x cols with rows the largest divisor of n not above sqrt(n)."""
    r = int(np.sqrt(n))
    while r > 1 and n % r:
        r -= 1
    return r, n // r


@dataclass
class SystemConfig:
    """Array sizes, OFDM and channel statistics, and optimizer/Monte Carlo settings."""

    tx_rows: int = 8
    tx_cols: int = 8
    rx_rows: int = 2
    rx_cols: int = 2
    ris_rows: int = 8
    ris_cols: int = 8
    spacing_wavelengths: float = 0.5
    n_subcarriers: int = 24
    n_taps: tuple[int, int, int] = (3, 4, 5)
    rician_k: float = 10.0
    ris_clusters: int = 8
    ris_rays: int = 10
    direct_los_clusters: int = 1
    direct_los_rays: int = 1
    direct_nlos_clusters: int = 5
    direct_nlos_rays: int = 10
    angular_spread_deg: float = 10.0
    snr_db: tuple[float, ...] = (-5.0, 10.0)
    n_ris_list: tuple[int, ...] = (64, 256)  # se_vs_snr sweep
    plos_grid: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 1.0)
    distance_grid: tuple[float, ...] = (100.0, 130.0, 160.0, 190.0, 220.0, 250.0)
    mc_trials: int = 500
    seed: int = 0
    mu0: float = 0.1
    epsilon: float = 1e-3
    max_iter: int = 200

    def __post_init__(self):
        require_valid_numbers(self)
        self.n_taps = tuple(self.n_taps)
        if len(self.n_taps) != 3:
            raise ValueError("n_taps must hold three tap counts")
        if self.n_subcarriers < max(self.n_taps):
            raise ValueError("subcarrier count must be at least the longest tap profile")
        if self.rician_k < 0:
            raise ValueError("Rician factor must be nonnegative")
        if self.angular_spread_deg < 0:
            raise ValueError("angular_spread_deg must be nonnegative")
        if not self.spacing_wavelengths > 0:
            raise ValueError("spacing_wavelengths must be positive")
        for name in ("mu0", "epsilon"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("snr_db", "n_ris_list", "plos_grid", "distance_grid"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must hold at least one value")
        if not all(0.0 <= p <= 1.0 for p in self.plos_grid):
            raise ValueError("plos_grid entries must lie in [0, 1]")
        if not all(d > DISTANCE_D_RIS for d in self.distance_grid):
            raise ValueError(f"distance_grid entries must exceed the distance scenario's "
                             f"RIS offset of {DISTANCE_D_RIS} m")

    @property
    def n_t(self) -> int:
        return self.tx_rows * self.tx_cols

    @property
    def n_r(self) -> int:
        return self.rx_rows * self.rx_cols

    @property
    def n_ris(self) -> int:
        return self.ris_rows * self.ris_cols

    @property
    def tx_spec(self) -> UraSpec:
        return UraSpec(self.tx_rows, self.tx_cols, self.spacing_wavelengths)

    @property
    def rx_spec(self) -> UraSpec:
        return UraSpec(self.rx_rows, self.rx_cols, self.spacing_wavelengths)

    @property
    def ris_spec(self) -> UraSpec:
        return UraSpec(self.ris_rows, self.ris_cols, self.spacing_wavelengths)

    @property
    def angular_spread_rad(self) -> float:
        return float(np.deg2rad(self.angular_spread_deg))

    def with_n_ris(self, n_ris: int) -> "SystemConfig":
        if not isinstance(n_ris, numbers.Integral) or n_ris < 1:
            raise ValueError(f"n_ris must be an integer >= 1, got {n_ris!r}")
        rows, cols = _square_factorization(n_ris)
        return replace(self, ris_rows=rows, ris_cols=cols)


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


PRESETS = {
    "paper": {},
    "desk": {"tx_rows": 4, "tx_cols": 4, "ris_rows": 4, "ris_cols": 4,
             "n_subcarriers": 8, "mc_trials": 50, "n_ris_list": (16, 64)},
}


def preset_config(name: str = "paper") -> tuple[SystemConfig, GeometryConfig]:
    return parse_config(preset=name)


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


def _chunk_trials(setups: list[tuple]) -> int:
    """Trials per chunk for (cfg, geometry) points: CHUNK_BYTES over one trial's BS->RIS stack, at least 1."""
    per_trial = max(16 * c.n_subcarriers * c.n_ris * c.n_t for c, _ in setups)
    return max(1, CHUNK_BYTES // per_trial)


def _link_response(cfg: SystemConfig, keys: list[tuple], link: int, los: bool = True) -> np.ndarray:
    """(T, K, n_rx, n_tx) subcarrier responses of one link of the trials at `keys`; `los` matters for link 3 only."""
    taps = synthesize_link(link, cfg, [substream(*key, SITE_LINK, link) for key in keys], los=los)
    return taps_to_subcarriers(taps, cfg.n_subcarriers)


def _trial_draws(points: list[tuple], keys: list[tuple]):
    """Yield (channels, pathloss gains, start phases) of each trial at `keys` at each (cfg, geometry) point.

    Trial-major: all points of the first trial, then of the next. One
    blockage uniform per trial serves every point; links 1 and 2 and the
    start phases are drawn once per RIS size, and link 3 once per blockage
    state, since the points differ only in RIS size and large-scale geometry.
    Each link is one `synthesize_link` call over the trials that need it.
    """
    states = [[blockage_state(p_los(g), u) for _, g in points]
              for u in (substream(*key, SITE_BLOCKAGE).uniform() for key in keys)]
    ris = {}
    for c, _ in points:
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
        for (c, g), los in zip(points, row):
            h1, h2, phases = ris[c.n_ris]
            gains = LinkGains(rho_direct=direct_gain(g, los), rho_indirect=indirect_gain(g), los=los)
            yield FreqChannelSet(h1[t], h2[t], direct[t, los]), gains, phases[t]


def draw_trial(cfg: SystemConfig, geom: GeometryConfig, key: tuple) -> tuple[FreqChannelSet, LinkGains]:
    """Link channels and pathloss gains of one Monte Carlo trial at one (cfg, geometry) point.

    `key` is the (seed, scenario index, trial) substream key. Each link comes
    from its own substream, so the RIS links are the same in every blockage
    state and the direct link is the same for every RIS size.
    """
    return next(_trial_draws([(cfg, geom)], [key]))[:2]


def _point_rates(cfg: SystemConfig, arms, folded: FreqChannelSet, phi0: RisPhases,
                 total_power: float) -> dict:
    """Spectral efficiency of each of `arms` on gain-folded link stacks at one point.

    `pga` optimizes from `phi0`, `random_phases` keeps `phi0`, and `no_ris`
    drops the reflected path, leaving the folded direct channel. When `pga`
    is scored, `random_phases` is read from its start rate, which is the
    same waterfill on the same phases.
    """
    rates = {}
    if "pga" in arms:
        result = pga_optimize(folded, total_power, mu0=cfg.mu0, epsilon=cfg.epsilon, max_iter=cfg.max_iter,
                              phi0=phi0)
        rates = {"pga": result.rate, "random_phases": result.start_rate}
    for arm in arms:
        if arm not in rates:
            heq = folded.h3 if arm == "no_ris" else combine_links(folded.h1, folded.h2, folded.h3, phi0.diag)
            rates[arm] = waterfill_covariances(heq, total_power).rate
    return rates


def _trial_rates(points: list[tuple], powers: list[float], keys: list[tuple], arms=ARMS) -> np.ndarray:
    """Spectral efficiency (points x arms x trials) of the trials at `keys` at each (cfg, geometry) point."""
    se = np.empty((len(points), len(arms), len(keys)))
    for n, (channels, gains, phi0) in enumerate(_trial_draws(points, keys)):
        t, i = divmod(n, len(points))
        rates = _point_rates(points[i][0], arms, fold_gains(channels, gains), phi0, powers[i])
        se[i, :, t] = [rates[arm] for arm in arms]
    return se


def run_trial(cfg: SystemConfig, geom: GeometryConfig, arm: str, key: tuple, snr_db: float) -> float:
    """Spectral efficiency of one Monte Carlo trial for one method arm.

    `key` is the (seed, scenario index, trial) substream key. The result
    equals the trial's cell in `run_scenario`, which scores every sweep
    point and arm of the trial from the same draws.
    """
    if arm not in ARMS:
        raise ValueError(f"unknown arm {arm!r}; choose from {ARMS}")
    power = total_power_for_snr(cfg, geom, snr_db)
    return float(_trial_rates([(cfg, geom)], [power], [key], (arm,))[0, 0, 0])


def check_scenario_geometry(geom: GeometryConfig, scenario: str) -> None:
    """Raise ValueError if `geom` moves a key that `scenario` sets itself off its GeometryConfig default."""
    fixed, swept = _SCENARIO_GEOMETRY[scenario]
    default = GeometryConfig()
    for key in (*fixed, *swept):
        if getattr(geom, key) != getattr(default, key):
            raise ValueError(f"{scenario} sets {key} itself; leave it at its default "
                             f"{getattr(default, key)!r}, got {getattr(geom, key)!r}")


def _sweep_points(cfg: SystemConfig, geom: GeometryConfig, scenario: str) -> list[tuple]:
    """(cfg, geometry, sweep name, sweep value, SNR) of each sweep point, in row order."""
    check_scenario_geometry(geom, scenario)
    base = replace(geom, **_SCENARIO_GEOMETRY[scenario][0])
    if scenario == "se_vs_snr":
        return [(cfg.with_n_ris(n_ris), base, "snr_db", float(snr), float(snr))
                for n_ris in cfg.n_ris_list for snr in cfg.snr_db]
    if scenario == "plos_vs_se":
        return [(cfg, replace(base, p_los_override=float(p)), "p_los", float(p), float(snr))
                for snr in cfg.snr_db for p in cfg.plos_grid]
    return [(cfg, replace(base, d_bs_ue=float(d)), "d_bs_ue", float(d), 5.0)  # distance_vs_se
            for d in cfg.distance_grid]


def sweep_budgets(cfg: SystemConfig, geom: GeometryConfig, scenario: str) -> list[float]:
    """Power budget of each sweep point of `scenario`, in row order.

    Raises ValueError for a geometry the scenario sets itself or a budget
    that is not finite and positive, the checks `run_scenario` makes before
    its first trial.
    """
    return [total_power_for_snr(c, g, snr) for c, g, _, _, snr in _sweep_points(cfg, geom, scenario)]


def run_scenario(cfg: SystemConfig, geom: GeometryConfig, scenario: str) -> list[ScenarioResult]:
    """Run one experiment scenario and return one result row per (sweep point, arm).

    se_vs_snr sweeps the SNR grid for each RIS size in cfg.n_ris_list at the
    bs_height=10, d_ris=2.2 geometry; plos_vs_se sweeps the LOS-probability
    override grid for each configured SNR at D=200, bs_height=5, d_ris=2.2;
    distance_vs_se sweeps the BS-UE distance grid at bs_height=20, d_ris=30,
    SNR=5 dB. A `geom` that moves any of these keys off its GeometryConfig
    default, or a sweep point whose power budget is not finite, raises
    ValueError before any trial runs. Trials run outermost, in contiguous
    chunks of `_chunk_trials` trials whose links are synthesized together;
    each trial's draws are shared by every sweep point and arm, and the
    chunks' rates are concatenated in trial order.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}")
    points = _sweep_points(cfg, geom, scenario)
    setups = [(c, g) for c, g, _, _, _ in points]
    powers = sweep_budgets(cfg, geom, scenario)
    keys = [(cfg.seed, SCENARIOS[scenario], t) for t in range(cfg.mc_trials)]
    chunk = _chunk_trials(setups)
    se = np.concatenate([_trial_rates(setups, powers, keys[start:start + chunk])
                         for start in range(0, len(keys), chunk)], axis=-1)

    rows: list[ScenarioResult] = []
    for (c, g, sweep_name, sweep_value, snr), per_arm in zip(points, se):
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
    """Instrumented `pga` trials for each RIS size: mean iterations, FLOPs and optimizer runtime.

    Each size runs `trials` trials at the one SNR `snr_db` (the CLI passes
    cfg.mc_trials and the first value of cfg.snr_db), each on the draws
    `run_trial` scores. `runtime_s` is the mean wall time of the
    `pga_optimize` call alone; channel synthesis and the pathloss fold run
    outside the timer. FLOP and iteration counters depend only on the seeded
    draws, so those columns are reproducible. A size or a trial count below
    1 or not an integer raises ValueError before any trial runs.
    """
    if not isinstance(trials, numbers.Integral) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    seed = cfg.seed if seed is None else int(seed)
    power = total_power_for_snr(cfg, geom, snr_db)
    configs = [cfg.with_n_ris(n_ris) for n_ris in n_ris_list]
    rows = []
    for c in configs:
        iters, flop_counts, runtimes = [], [], []
        for t in range(trials):
            channels, gains, phi0 = next(_trial_draws([(c, geom)], [(seed, _COMPLEXITY_SCENARIO_ID, t)]))
            folded = fold_gains(channels, gains)
            meter = flops.FlopMeter()
            t0 = time.perf_counter()
            result = pga_optimize(folded, power, mu0=c.mu0, epsilon=c.epsilon, max_iter=c.max_iter,
                                  phi0=phi0, meter=meter)
            runtimes.append(time.perf_counter() - t0)
            iters.append(result.iterations)
            flop_counts.append(meter.flop_total)
        rows.append({"n_ris": c.n_ris,
                     "iter_count": float(np.mean(iters)),
                     "flop_count": float(np.mean(flop_counts)),
                     "runtime_s": float(np.mean(runtimes))})
    return rows


def scenario_rows_to_csv(rows: list[ScenarioResult]) -> str:
    """RFC-4180 CSV text (header + one line per result row)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow([r.scenario, r.sweep_name, f"{r.sweep_value:.10g}", r.arm, r.n_ris,
                         f"{r.snr_db:.10g}", f"{r.mean_se:.10g}", f"{r.stderr_se:.10g}",
                         r.trials, r.seed, f"{r.d2:.10g}"])
    return buf.getvalue()


def complexity_rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["n_ris", "iter_count", "flop_count", "runtime_s"])
    for r in rows:
        writer.writerow([r["n_ris"], f"{r['iter_count']:.10g}", f"{r['flop_count']:.10g}",
                         f"{r['runtime_s']:.6f}"])
    return buf.getvalue()


# Config files hold "key = value" lines; these parsers map them onto the two
# config dataclasses. Tuples are comma-separated, "none" is None, and other
# values parse as int if they can, else as float.
_SYSTEM_FIELDS = {f.name: f for f in fields(SystemConfig)}
_GEOMETRY_FIELDS = {f.name: f for f in fields(GeometryConfig)}
# item type of every tuple-typed field, read from the dataclass annotations
_TUPLE_ITEM_TYPES = {name: get_args(hint)[0]
                     for cls in (SystemConfig, GeometryConfig)
                     for name, hint in get_type_hints(cls).items() if get_origin(hint) is tuple}


def _parse_value(name: str, text: str):
    text = text.strip()
    item_type = _TUPLE_ITEM_TYPES.get(name)
    if item_type is not None:
        return tuple(item_type(p) for p in text.split(",") if p.strip())
    if text.lower() == "none":
        return None
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_config(path: str | None = None, overrides: dict | None = None,
                 preset: str = "paper") -> tuple[SystemConfig, GeometryConfig]:
    """Build the configs from a preset, an optional key=value file and overrides.

    File format: UTF-8 lines of `key = value`, `#` starts a comment. Keys must
    name a SystemConfig or GeometryConfig field; anything else is an error.
    Overrides (already-typed or string values) are applied after the file.
    """
    sys_kwargs = dict(PRESETS[preset]) if preset in PRESETS else None
    if sys_kwargs is None:
        raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    geom_kwargs: dict = {}

    def assign(key: str, raw):
        if key not in _SYSTEM_FIELDS and key not in _GEOMETRY_FIELDS:
            raise ValueError(f"unknown configuration key {key!r}")
        try:
            value = _parse_value(key, raw) if isinstance(raw, str) else raw
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
        (sys_kwargs if key in _SYSTEM_FIELDS else geom_kwargs)[key] = value

    if path is not None:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
                key, _, raw = stripped.partition("=")
                assign(key.strip(), raw)
    for key, raw in (overrides or {}).items():
        assign(key, raw)
    return SystemConfig(**sys_kwargs), GeometryConfig(**geom_kwargs)
