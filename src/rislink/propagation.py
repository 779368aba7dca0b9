"""Distances, LOS probability, blockage sampling and link power gains.

Geometry: the BS (height l_t) and UE (height l_r) are D meters apart on the
ground; the RIS center sits d_ris meters from the BS array center. Both link
gains are multiplicative power gains applied to the equivalent channel, so
received power decreases with distance on both paths.
"""

import functools
import math
import numbers
from dataclasses import dataclass
from typing import get_args, get_origin, get_type_hints

import numpy as np

C_LIGHT = 299792458.0  # m/s


@dataclass
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


@functools.cache
def _number_hints(cls) -> dict:
    """Annotations of the int- and float-typed fields of dataclass `cls`, tuple and optional fields included."""
    return {name: hint for name, hint in get_type_hints(cls).items() if {int, float} & {hint, *get_args(hint)}}


def is_integer(value) -> bool:
    """True for an integral number that is not a bool (`bool` is a `numbers.Integral`)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_valid_numbers(config) -> None:
    """Reject a dataclass whose int- or float-annotated fields break the numeric rule.

    Float fields must be finite reals, int fields integers >= 1 (`seed` >= 0);
    a bool is neither. Tuple fields must be tuples or lists, checked item by
    item; None passes only where the annotation admits it. The ValueError
    names the field.
    """
    for name, hint in _number_hints(type(config)).items():
        value, is_int, is_tuple = getattr(config, name), int in (hint, *get_args(hint)), get_origin(hint) is tuple
        least = 0 if name == "seed" else 1
        if is_tuple and not isinstance(value, (tuple, list)) or not all(
                type(None) in get_args(hint) if v is None
                else is_integer(v) and v >= least if is_int
                else isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
                for v in (value if is_tuple else (value,))):
            rule = f"integers >= {least}" if is_int else "finite numbers"
            raise ValueError(f"{name} must hold {rule}{' in a tuple or list' * is_tuple}, got {value!r}")


@dataclass
class LinkGains:
    """Linear power gains of the direct and RIS-reflected paths for one trial."""

    rho_direct: float
    rho_indirect: float
    los: bool

    def __post_init__(self):
        for name in ("rho_direct", "rho_indirect"):
            value = getattr(self, name)
            if not (value >= 0 and np.isfinite(value)):
                raise ValueError(f"{name} must be nonnegative and finite")


def link_distances(geom: GeometryConfig) -> tuple[float, float, float]:
    """(BS->RIS, RIS->UE, BS->UE) center-to-center distances in meters."""
    d1 = np.hypot(geom.d_ris, geom.bs_height)
    d2 = np.hypot(geom.d_bs_ue - geom.d_ris, geom.ue_height)
    d_dir = np.hypot(geom.d_bs_ue, geom.bs_height - geom.ue_height)
    return float(d1), float(d2), float(d_dir)


def p_los(geom: GeometryConfig) -> float:
    """LOS probability of the direct path: the override when set, else exp(-(d - 10)/50) clamped to [0, 1]."""
    if geom.p_los_override is not None:
        return float(geom.p_los_override)
    _, _, d_dir = link_distances(geom)
    return float(min(1.0, np.exp(-(d_dir - 10.0) / 50.0)))


def indirect_gain(geom: GeometryConfig) -> float:
    """Power gain of the BS->RIS->UE path.

    Uses the reflected-path loss 256*pi^2*d1^2*d2^2 / (lam^4*(l_t/d1+l_r/d2)^2)
    inverted into a gain, with the combined antenna gain applied
    multiplicatively (as in the direct path's reference gain), so higher
    antenna gain and shorter hops both increase received power.
    """
    d1, d2, _ = link_distances(geom)
    lam = geom.wavelength
    elev = geom.bs_height / d1 + geom.ue_height / d2
    return float(geom.ant_gain * lam**4 * elev**2 / (256.0 * np.pi**2 * d1**2 * d2**2))


def direct_gain(geom: GeometryConfig, los: bool) -> float:
    """Power gain of the direct BS->UE path under the Bernoulli LOS/NLOS model.

    K_0*(d_ref/d)^alpha with K_0 = (lam/(4*pi*d_ref))^2 * G_t*G_r and the
    exponent selected by the blockage state.
    """
    _, _, d_dir = link_distances(geom)
    k0 = (geom.wavelength / (4.0 * np.pi * geom.d_ref)) ** 2 * geom.ant_gain
    alpha = geom.alpha_los if los else geom.alpha_nlos
    return float(k0 * (geom.d_ref / d_dir) ** alpha)


def blockage_state(p: float, u: float) -> bool:
    """LOS (True) when the uniform draw `u` on [0, 1) falls below the LOS probability `p`."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("LOS probability must lie in [0, 1]")
    return bool(u < p)


def sample_blockage(p: float, rng: np.random.Generator) -> bool:
    """Bernoulli(p) draw; True means the direct path is LOS."""
    return blockage_state(p, rng.uniform())
