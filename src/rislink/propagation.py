"""Distances, LOS probability, blockage sampling, link power gains and the link budget.

Geometry: the BS (height l_t) and UE (height l_r) are D meters apart on the
ground; the RIS center sits d_ris meters from the BS array center. Both link
gains are multiplicative power gains applied to the equivalent channel, so
received power decreases with distance on both paths. The geometry record
itself, `GeometryConfig`, is defined in `rislink.config`; `link_budget` is the
one checked evaluation of the gains, read by the SNR reference and every trial.
"""

from dataclasses import dataclass

import numpy as np

from .config import NONNEGATIVE, POSITIVE, GeometryConfig, ranged, require_numbers, require_valid_numbers


@dataclass(frozen=True)
class LinkGains:
    """Linear power gains of the direct and RIS-reflected paths for one trial."""

    rho_direct: float = ranged(POSITIVE)
    rho_indirect: float = ranged(NONNEGATIVE)
    los: bool

    def __post_init__(self):
        require_valid_numbers(self)


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


def link_budget(geom: GeometryConfig) -> tuple[float, float, dict[bool, LinkGains]]:
    """(LOS probability p, SNR reference gain, blockage state -> `LinkGains`) of one geometry.

    Gains are built for the states the geometry can draw: LOS when p > 0, NLOS when p < 1. The reference gain is
    their blockage-averaged direct-path gain p*rho_LOS + (1-p)*rho_NLOS. Raises ValueError, naming the state or the
    reflected path and the geometry keys that set its gain, when `LinkGains` refuses a gain or a gain overflows.
    """
    p = p_los(geom)
    path, keys = "reflected-path", ("d_ris",)
    gains, reference = {}, 0.0
    try:
        reflected = indirect_gain(geom)
        require_numbers(LinkGains, rho_indirect=reflected)
        for los, weight in ((True, p), (False, 1.0 - p)):
            state = "LOS" if los else "NLOS"
            path, keys = f"{state} direct-path", ("d_ref", f"alpha_{state.lower()}", "p_los_override")
            rho = direct_gain(geom, los)
            if weight > 0:
                gains[los] = LinkGains(rho, reflected, los)
                reference += weight * rho
    except (ValueError, OverflowError) as exc:
        reason = "it overflows to inf" if isinstance(exc, OverflowError) else exc
        keys = ("carrier_freq_hz", "ant_gain_db", *keys, "d_bs_ue", "bs_height", "ue_height")
        raise ValueError(f"the {path} gain is refused: {reason}. It is set by "
                         + ", ".join(f"{key}={getattr(geom, key)!r}" for key in keys)) from None
    return p, reference, gains


def blockage_state(p: float, u: float) -> bool:
    """LOS (True) when the uniform draw `u` on [0, 1) falls below the LOS probability `p`."""
    if isinstance(p, (bool, np.bool_)) or not 0.0 <= p <= 1.0:
        raise ValueError(f"LOS probability must lie in [0, 1], got {p!r}")
    return bool(u < p)


def sample_blockage(p: float, rng: np.random.Generator) -> bool:
    """Bernoulli(p) draw; True means the direct path is LOS."""
    return blockage_state(p, rng.uniform())
