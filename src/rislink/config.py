"""Validated parameter records: array geometry, deployment geometry and system settings.

`UraSpec`, `GeometryConfig` and `SystemConfig` are frozen dataclasses, so a
config is a hashable value and every change goes through `replace`. Each
numeric field declares its `Range` (`ranged`), and one numeric rule checks
type, range and tuple length by it. It also holds lone values, such as kernel
arguments, a sweep point's SNR and a RIS size, to the rule of the field they
mirror or, for a tuple field, to the rule of its items (`require_numbers`).
One annotation walk per class (`_field_types`) serves the rule's table, the
routing of configuration keys and the item type of parsed tuples.
`SystemConfig.link` is the one table of which arrays, ray counts and taps
each link uses. This module imports nothing else from the package, so every
other module can import it.
"""

import functools
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

C_LIGHT = 299792458.0  # m/s
DISTANCE_D_RIS = 30.0  # distance_vs_se's RIS offset (m); its distance_grid must lie beyond it


class Range(NamedTuple):
    """The values a numeric field admits: above `low` (or at it when `closed`) and at most `high`."""

    low: float = -math.inf
    closed: bool = True
    high: float = math.inf


POSITIVE, NONNEGATIVE, UNIT_INTERVAL, COUNT = Range(0.0, closed=False), Range(0.0), Range(0.0, high=1.0), Range(1)


def ranged(valid: Range, default=MISSING):
    """A dataclass field whose value, or each item of a tuple value, the numeric rule holds to `valid`."""
    return field(default=default, metadata={"range": valid})


@functools.cache
def _field_types(cls) -> dict:
    """Field name -> resolved annotation of dataclass `cls`."""
    return get_type_hints(cls)


def is_integer(value) -> bool:
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@functools.cache
def _numeric_fields(cls) -> dict:
    """Name -> (admits None, is int, (fewest, most) items or None, `Range`) of each int- or float-annotated field."""
    table = {}
    for f in fields(cls):
        hint = _field_types(cls)[f.name]
        args = get_args(hint)
        if {int, float} & {hint, *args}:
            is_int = int in (hint, *args)
            lengths = None if get_origin(hint) is not tuple else (1, math.inf) if Ellipsis in args else (len(args),) * 2
            table[f.name] = type(None) in args, is_int, lengths, f.metadata.get("range", COUNT if is_int else Range())
    return table


def _check(name: str, value, rule: tuple) -> None:
    """Raise a ValueError that names field `name` and shows `value` unless `value` keeps the field's `rule`."""
    admits_none, is_int, lengths, (low, closed, high) = rule
    if lengths is None or isinstance(value, (tuple, list)) and lengths[0] <= len(value) <= lengths[1]:
        for v in (value,) if lengths is None else value:
            # the exact-float test first: the numbers.Real test is an ABC lookup
            if not (admits_none if v is None else (
                    is_integer(v) if is_int else (type(v) is float or isinstance(v, numbers.Real)
                                                  and not isinstance(v, bool)) and math.isfinite(v))
                    and (v >= low if closed else v > low) and v <= high):
                break
        else:
            return
    bounds = (f" in {'[' if closed else '('}{low:g}, {high:g}]" if high < math.inf
              else f" {'>=' if closed else '>'} {low:g}" if low > -math.inf else "")
    where = "" if lengths is None else f" in a tuple or list of {lengths[0]}{' or more' * (lengths[1] > lengths[0])}"
    raise ValueError(f"{name} must hold {'integers' if is_int else 'finite numbers'}{bounds}"
                     f"{' or None' * admits_none}{where}, got {value!r}")


def require_numbers(cls, **values) -> None:
    """Hold loose values, such as `pga_optimize`'s step rule, to the rule of the `cls` fields they are named for.

    Each value is one item: a value named for a tuple field, such as an SNR for `snr_db`, is held to the rule of
    that field's items, and its refusal names no tuple.
    """
    table = _numeric_fields(cls)
    for name, value in values.items():
        admits_none, is_int, _, valid = table[name]
        _check(name, value, (admits_none, is_int, None, valid))


def require_valid_numbers(config) -> None:
    """Reject a dataclass whose int- or float-annotated fields break the numeric rule; store tuple fields as tuples.

    The rule: finite reals or integers, by annotation, in the field's `Range` (an int field without one: >= 1);
    no bools; tuples or lists of the annotated length; None only where the annotation admits it.
    """
    for name, rule in _numeric_fields(type(config)).items():
        value = getattr(config, name)
        _check(name, value, rule)
        if rule[2] is not None:
            object.__setattr__(config, name, tuple(value))


@dataclass(frozen=True)
class UraSpec:
    """Uniform rectangular array geometry: rows x cols elements, pitch in wavelengths."""

    rows: int
    cols: int
    spacing_wavelengths: float = ranged(POSITIVE, 0.5)

    def __post_init__(self):
        require_valid_numbers(self)

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class GeometryConfig:
    """Deployment geometry and large-scale propagation parameters."""

    d_bs_ue: float = ranged(POSITIVE, 200.0)  # BS-UE ground distance D (m)
    bs_height: float = ranged(POSITIVE, 10.0)  # l_t (m)
    ue_height: float = ranged(POSITIVE, 1.8)  # l_r (m)
    d_ris: float = ranged(POSITIVE, 2.2)  # BS array center to RIS center ground offset (m)
    carrier_freq_hz: float = ranged(POSITIVE, 28e9)
    ant_gain_db: float = ranged(Range(-300.0, high=300.0), 62.0)  # combined G_t*G_r in dB (linear 1e-30 to 1e30)
    d_ref: float = ranged(POSITIVE, 1.0)  # reference distance d_0 (m)
    alpha_los: float = ranged(NONNEGATIVE, 2.0)
    alpha_nlos: float = ranged(NONNEGATIVE, 4.0)
    p_los_override: float | None = ranged(UNIT_INTERVAL, None)

    def __post_init__(self):
        require_valid_numbers(self)
        if self.d_bs_ue <= self.d_ris:
            raise ValueError(f"d_bs_ue must exceed d_ris (the UE stands beyond the RIS), "
                             f"got d_bs_ue={self.d_bs_ue!r} <= d_ris={self.d_ris!r}")

    @property
    def wavelength(self) -> float:
        return C_LIGHT / self.carrier_freq_hz

    @property
    def ant_gain(self) -> float:
        """Combined G_t*G_r as a linear power gain."""
        return 10.0 ** (self.ant_gain_db / 10.0)


def _square_factorization(n: int) -> tuple[int, int]:
    """rows x cols with rows the largest divisor of n not above sqrt(n)."""
    r = int(np.sqrt(n))
    while r > 1 and n % r:
        r -= 1
    return r, n // r


@dataclass(frozen=True)
class SystemConfig:
    """Array sizes, OFDM and channel statistics, and optimizer/Monte Carlo settings."""

    tx_rows: int = 8
    tx_cols: int = 8
    rx_rows: int = 2
    rx_cols: int = 2
    ris_rows: int = 8
    ris_cols: int = 8
    spacing_wavelengths: float = ranged(POSITIVE, 0.5)
    n_subcarriers: int = 24
    n_taps: tuple[int, int, int] = (3, 4, 5)
    rician_k: float = ranged(NONNEGATIVE, 10.0)
    ris_clusters: int = 8
    ris_rays: int = 10
    direct_los_clusters: int = 1
    direct_los_rays: int = 1
    direct_nlos_clusters: int = 5
    direct_nlos_rays: int = 10
    angular_spread_deg: float = ranged(NONNEGATIVE, 10.0)
    snr_db: tuple[float, ...] = (-5.0, 10.0)
    n_ris_list: tuple[int, ...] = (64, 256)  # se_vs_snr sweep
    plos_grid: tuple[float, ...] = ranged(UNIT_INTERVAL, (0.1, 0.25, 0.5, 0.75, 1.0))
    distance_grid: tuple[float, ...] = ranged(Range(DISTANCE_D_RIS, False), (100.0, 130.0, 160.0, 190.0, 220.0, 250.0))
    mc_trials: int = 500
    seed: int = ranged(NONNEGATIVE, 0)
    mu0: float = ranged(POSITIVE, 0.1)
    epsilon: float = ranged(POSITIVE, 1e-3)
    max_iter: int = 200

    def __post_init__(self):
        require_valid_numbers(self)
        if self.n_subcarriers < max(self.n_taps):
            raise ValueError(f"n_subcarriers must be >= max(n_taps), got {self.n_subcarriers!r} < max{self.n_taps!r}")

    @property
    def n_t(self) -> int:
        return self.tx_rows * self.tx_cols

    @property
    def n_r(self) -> int:
        return self.rx_rows * self.rx_cols

    @property
    def n_ris(self) -> int:
        return self.ris_rows * self.ris_cols

    @functools.cached_property
    def tx_spec(self) -> UraSpec:
        return UraSpec(self.tx_rows, self.tx_cols, self.spacing_wavelengths)

    @functools.cached_property
    def rx_spec(self) -> UraSpec:
        return UraSpec(self.rx_rows, self.rx_cols, self.spacing_wavelengths)

    @functools.cached_property
    def ris_spec(self) -> UraSpec:
        return UraSpec(self.ris_rows, self.ris_cols, self.spacing_wavelengths)

    @property
    def angular_spread_rad(self) -> float:
        return float(np.deg2rad(self.angular_spread_deg))

    def link(self, index: int, los: bool = True) -> tuple[UraSpec, UraSpec, int, int, int]:
        """(rx spec, tx spec, clusters, rays per cluster, taps) of link 1 (BS->RIS), 2 (RIS->UE) or 3 (BS->UE).

        The direct link (3) has the sparse LOS ray counts when `los` is true
        and the richer NLOS counts otherwise; the RIS links ignore `los`.
        """
        direct = (self.direct_los_clusters, self.direct_los_rays) if los else (
            self.direct_nlos_clusters, self.direct_nlos_rays)
        links = {1: (self.ris_spec, self.tx_spec, self.ris_clusters, self.ris_rays),
                 2: (self.rx_spec, self.ris_spec, self.ris_clusters, self.ris_rays),
                 3: (self.rx_spec, self.tx_spec, *direct)}
        if index not in links:
            raise ValueError(f"link index must be 1, 2 or 3, got {index!r}")
        return *links[index], self.n_taps[index - 1]

    def with_n_ris(self, n_ris: int) -> "SystemConfig":
        require_numbers(SystemConfig, n_ris_list=n_ris)
        rows, cols = _square_factorization(n_ris)
        return replace(self, ris_rows=rows, ris_cols=cols)


PRESETS = {
    "paper": {},
    "desk": {"tx_rows": 4, "tx_cols": 4, "ris_rows": 4, "ris_cols": 4,
             "n_subcarriers": 8, "mc_trials": 50, "n_ris_list": (16, 64)},
}


def preset_config(name: str = "paper") -> tuple[SystemConfig, GeometryConfig]:
    return parse_config(preset=name)


# Config files hold "key = value" lines; these parsers map them onto the two
# config dataclasses. Tuples are comma-separated with no empty item (a blank
# value is the empty tuple), "none" is None, and other values parse as int if
# they can, else as float.
def _parse_value(hint, text: str):
    text = text.strip()
    if get_origin(hint) is tuple:
        items = text.split(",") if text else []
        if not all(p.strip() for p in items):
            raise ValueError(f"empty item in {text!r}")
        return tuple(map(get_args(hint)[0], items))
    if text.lower() == "none":
        return None
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_config(path: str | None = None, overrides: dict | None = None,
                 preset: str = "paper") -> tuple[SystemConfig, GeometryConfig]:
    """Build the configs from a preset, an optional key=value file and overrides.

    File format: UTF-8 lines of `key = value`, `#` starts a comment; a
    leading byte-order mark is skipped. Keys must name a SystemConfig or
    GeometryConfig field; anything else is an error, which names the file
    and line. A file that is not UTF-8 is an error that names the file.
    Overrides (already-typed or string values) are applied after the file.
    """
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    kwargs = {SystemConfig: dict(PRESETS[preset]), GeometryConfig: {}}

    def assign(key: str, raw):
        cls = next((c for c in kwargs if key in _field_types(c)), None)
        if cls is None:
            raise ValueError(f"unknown configuration key {key!r}")
        try:
            kwargs[cls][key] = _parse_value(_field_types(cls)[key], raw) if isinstance(raw, str) else raw
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None

    if path is not None:
        with open(path, encoding="utf-8-sig") as fh:
            try:
                lines = fh.readlines()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: {exc}") from None
            for lineno, line in enumerate(lines, 1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
                key, _, raw = stripped.partition("=")
                try:
                    assign(key.strip(), raw)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
    for key, raw in (overrides or {}).items():
        assign(key, raw)
    return SystemConfig(**kwargs[SystemConfig]), GeometryConfig(**kwargs[GeometryConfig])
