"""Validated parameter records: array geometry, deployment geometry and system settings.

`UraSpec`, `GeometryConfig` and `SystemConfig` are frozen dataclasses, so a
config is a hashable value and every change goes through `replace`. One
annotation walk per class (`_field_types`) serves every job that reads the
field types: the numeric rule, which also stores tuple fields as tuples;
the routing of configuration keys to their dataclass; and the item type of
tuple values parsed from text. `SystemConfig.link` is the one table of which
arrays, ray counts and taps each link uses. This module imports nothing else
from the package, so every other module can import it.
"""

import functools
import math
import numbers
from dataclasses import dataclass, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np

C_LIGHT = 299792458.0  # m/s
DISTANCE_D_RIS = 30.0  # distance_vs_se's RIS offset (m); its distance_grid must lie beyond it


@functools.cache
def _field_types(cls) -> dict:
    """Field name -> resolved annotation of dataclass `cls`."""
    return get_type_hints(cls)


def is_integer(value) -> bool:
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_valid_numbers(config) -> None:
    """Reject a dataclass whose int- or float-annotated fields break the numeric rule.

    Float fields must be finite reals, int fields integers >= 1 (`seed` >= 0);
    a bool is neither. Tuple fields must be tuples or lists, checked item by
    item, and are stored as tuples; None passes only where the annotation
    admits it. The ValueError names the field.
    """
    for name, hint in _field_types(type(config)).items():
        args = get_args(hint)
        if not {int, float} & {hint, *args}:
            continue
        value, is_int, is_tuple = getattr(config, name), int in (hint, *args), get_origin(hint) is tuple
        least = 0 if name == "seed" else 1
        if is_tuple and not isinstance(value, (tuple, list)) or not all(
                type(None) in args if v is None
                else is_integer(v) and v >= least if is_int
                else isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
                for v in (value if is_tuple else (value,))):
            rule = f"integers >= {least}" if is_int else "finite numbers"
            raise ValueError(f"{name} must hold {rule}{' in a tuple or list' * is_tuple}, got {value!r}")
        if is_tuple:
            object.__setattr__(config, name, tuple(value))


@dataclass(frozen=True)
class UraSpec:
    """Uniform rectangular array geometry: rows x cols elements, pitch in wavelengths."""

    rows: int
    cols: int
    spacing_wavelengths: float = 0.5

    def __post_init__(self):
        require_valid_numbers(self)
        if not self.spacing_wavelengths > 0:
            raise ValueError("element spacing must be positive")

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class GeometryConfig:
    """Deployment geometry and large-scale propagation parameters."""

    d_bs_ue: float = 200.0  # BS-UE ground distance D (m)
    bs_height: float = 10.0  # l_t (m)
    ue_height: float = 1.8  # l_r (m)
    d_ris: float = 2.2  # BS array center to RIS center ground offset (m)
    carrier_freq_hz: float = 28e9
    ant_gain_db: float = 62.0  # combined G_t*G_r in dB
    d_ref: float = 1.0  # reference distance d_0 (m)
    alpha_los: float = 2.0
    alpha_nlos: float = 4.0
    p_los_override: float | None = None

    def __post_init__(self):
        require_valid_numbers(self)
        for name in ("d_bs_ue", "bs_height", "ue_height", "d_ris", "carrier_freq_hz", "d_ref"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.d_bs_ue <= self.d_ris:
            raise ValueError(f"d_bs_ue must exceed d_ris (the UE stands beyond the RIS), "
                             f"got d_bs_ue={self.d_bs_ue!r} <= d_ris={self.d_ris!r}")
        if self.alpha_los < 0 or self.alpha_nlos < 0:
            raise ValueError("pathloss exponents must be nonnegative")
        if self.p_los_override is not None and not 0.0 <= self.p_los_override <= 1.0:
            raise ValueError("p_los_override must lie in [0, 1]")

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
        if not is_integer(n_ris) or n_ris < 1:
            raise ValueError(f"n_ris must be an integer >= 1, got {n_ris!r}")
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
# config dataclasses. Tuples are comma-separated, "none" is None, and other
# values parse as int if they can, else as float.
def _parse_value(hint, text: str):
    text = text.strip()
    if get_origin(hint) is tuple:
        item_type = get_args(hint)[0]
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
    return SystemConfig(**kwargs[SystemConfig]), GeometryConfig(**kwargs[GeometryConfig])
