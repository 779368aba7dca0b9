"""Clustered geometric mmWave channel synthesis for the three simulator links.

Each link (BS->RIS, RIS->UE, BS->UE) is a frequency-selective Rician channel:
per delay tap, a deterministic geometric component built from uniform
rectangular array (URA) steering vectors over clustered rays is mixed with an
i.i.d. complex Gaussian scatter component, then the taps are DFT-converted to
per-subcarrier frequency responses.
"""

from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class UraSpec:
    """Uniform rectangular array geometry: rows x cols elements, pitch in wavelengths."""

    rows: int
    cols: int
    spacing_wavelengths: float = 0.5

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("URA must have at least one row and one column")
        if self.spacing_wavelengths <= 0:
            raise ValueError("element spacing must be positive")

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols


@dataclass
class ClusterRaySet:
    """Per-ray complex gains and arrival/departure angles for one link draw.

    All angle arrays have one entry per (cluster, ray) pair, azimuths in
    [-pi, pi) and elevations in [-pi/2, pi/2].
    """

    gains: np.ndarray
    arrival_az: np.ndarray
    arrival_el: np.ndarray
    departure_az: np.ndarray
    departure_el: np.ndarray
    n_clusters: int
    n_rays: int

    def __post_init__(self):
        n = self.n_clusters * self.n_rays
        for name in ("gains", "arrival_az", "arrival_el", "departure_az", "departure_el"):
            arr = np.asarray(getattr(self, name))
            if arr.shape != (n,):
                raise ValueError(f"{name} must have exactly {n} entries, got shape {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")


@dataclass
class FreqChannelSet:
    """Per-subcarrier frequency responses of the three links.

    h1: (K, N_RIS, N_t) BS->RIS, h2: (K, N_r, N_RIS) RIS->UE,
    h3: (K, N_r, N_t) direct BS->UE.
    """

    h1: np.ndarray
    h2: np.ndarray
    h3: np.ndarray
    n_subcarriers: int = field(init=False)

    def __post_init__(self):
        self.h1 = np.asarray(self.h1, dtype=complex)
        self.h2 = np.asarray(self.h2, dtype=complex)
        self.h3 = np.asarray(self.h3, dtype=complex)
        k = self.h1.shape[0]
        if self.h2.shape[0] != k or self.h3.shape[0] != k:
            raise ValueError("all three stacks must cover the same subcarriers")
        if self.h2.shape[2] != self.h1.shape[1]:
            raise ValueError("h2 columns must match h1 rows (RIS element count)")
        if self.h3.shape[1:] != (self.h2.shape[1], self.h1.shape[2]):
            raise ValueError("h3 must be (K, N_r, N_t)")
        self.n_subcarriers = k


def wrap_azimuth(az):
    """Wrap angles into [-pi, pi)."""
    return np.mod(np.asarray(az, dtype=float) + np.pi, TWO_PI) - np.pi


def clamp_elevation(el):
    """Clamp angles into [-pi/2, pi/2]."""
    return np.clip(np.asarray(el, dtype=float), -np.pi / 2, np.pi / 2)


def ura_response(azimuth, elevation, spec: UraSpec) -> np.ndarray:
    """Unit-norm URA steering vector for a direction.

    Element (m, n) of the rows x cols grid carries phase
    2*pi*spacing*(m*sin(az)*cos(el) + n*sin(el)); the vector is flattened
    row-major and normalized to unit Euclidean norm.

    Accepts scalar angles (returns shape (n_elements,)) or equal-shaped angle
    arrays (returns (n_elements, ...) with the angle axes trailing).
    """
    az = wrap_azimuth(azimuth)
    el = clamp_elevation(elevation)
    m = np.arange(spec.rows)
    n = np.arange(spec.cols)
    # (rows, cols, ...) phase grid, then flatten the element axes.
    u = np.multiply.outer(m, np.sin(az) * np.cos(el))
    v = np.multiply.outer(n, np.sin(el))
    phase = TWO_PI * spec.spacing_wavelengths * (u[:, None, ...] + v[None, :, ...])
    resp = np.exp(1j * phase) / np.sqrt(spec.n_elements)
    return resp.reshape((spec.n_elements,) + np.shape(az))


def draw_cluster_rays(n_clusters: int, n_rays: int, spread: float, rng: np.random.Generator) -> ClusterRaySet:
    """Draw one set of clustered rays.

    Cluster centers are uniform over the full azimuth/elevation ranges; each
    ray offsets its cluster center by a zero-mean Laplacian with standard
    deviation `spread` (radians). Ray gains are i.i.d. CN(0, 1).
    """
    if n_clusters < 1 or n_rays < 1:
        raise ValueError("need at least one cluster and one ray per cluster")
    if spread < 0:
        raise ValueError("angular spread must be nonnegative")

    def angles(center_lo, center_hi):
        centers = rng.uniform(center_lo, center_hi, size=n_clusters)
        # Laplace with std = spread has scale spread/sqrt(2).
        offsets = rng.laplace(0.0, spread / np.sqrt(2.0), size=(n_clusters, n_rays))
        return (centers[:, None] + offsets).reshape(-1)

    arrival_az = wrap_azimuth(angles(-np.pi, np.pi))
    arrival_el = clamp_elevation(angles(-np.pi / 2, np.pi / 2))
    departure_az = wrap_azimuth(angles(-np.pi, np.pi))
    departure_el = clamp_elevation(angles(-np.pi / 2, np.pi / 2))
    n = n_clusters * n_rays
    gains = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    return ClusterRaySet(
        gains=gains,
        arrival_az=arrival_az,
        arrival_el=arrival_el,
        departure_az=departure_az,
        departure_el=departure_el,
        n_clusters=n_clusters,
        n_rays=n_rays,
    )


def geometric_tap(rays: ClusterRaySet, rx_spec: UraSpec, tx_spec: UraSpec) -> np.ndarray:
    """Geometric tap matrix: scaled sum of per-ray rx/tx steering outer products.

    Returns sqrt(n_rx*n_tx/(R*C)) * sum_i gain_i * a_rx(i) a_tx(i)^H, shape
    (n_rx, n_tx).
    """
    a_rx = ura_response(rays.arrival_az, rays.arrival_el, rx_spec)  # (n_rx, n)
    a_tx = ura_response(rays.departure_az, rays.departure_el, tx_spec)  # (n_tx, n)
    scale = np.sqrt(rx_spec.n_elements * tx_spec.n_elements / (rays.n_clusters * rays.n_rays))
    return scale * ((a_rx * rays.gains) @ a_tx.conj().T)


def rician_tap(los_part: np.ndarray, scatter_part: np.ndarray, rician_k: float) -> np.ndarray:
    """Mix deterministic and diffuse components with Rician factor `rician_k` (linear)."""
    los_part = np.asarray(los_part)
    scatter_part = np.asarray(scatter_part)
    if los_part.shape != scatter_part.shape:
        raise ValueError(f"shape mismatch: {los_part.shape} vs {scatter_part.shape}")
    if rician_k < 0:
        raise ValueError("Rician factor must be nonnegative")
    return np.sqrt(rician_k / (rician_k + 1.0)) * los_part + np.sqrt(1.0 / (rician_k + 1.0)) * scatter_part


def taps_to_subcarriers(taps: np.ndarray, n_subcarriers: int) -> np.ndarray:
    """K-point DFT over the tap axis: H[k] = sum_l H[l] exp(-2j*pi*k*l/K).

    Requires n_subcarriers >= number of taps (taps are zero-padded into the
    DFT window, never truncated). `taps` is an (L, n_rx, n_tx) array.
    """
    if n_subcarriers < taps.shape[0]:
        raise ValueError(f"need n_subcarriers >= n_taps, got {n_subcarriers} < {taps.shape[0]}")
    return np.fft.fft(taps, n=n_subcarriers, axis=0)


def tap_power_weights(n_taps: int) -> np.ndarray:
    """Exponentially decaying power profile exp(-l), normalized to unit sum."""
    w = np.exp(-np.arange(n_taps, dtype=float))
    return w / w.sum()


def synthesize_link(link_index: int, config, rng: np.random.Generator, los: bool = True) -> np.ndarray:
    """Synthesize the time-domain taps of one link as an (L, n_rx, n_tx) array.

    Per tap, an independent clustered-ray geometric component and an i.i.d.
    CN(0,1) scatter matrix are combined with the configured Rician factor and
    scaled by the tap's power weight. The direct link (index 3) uses the
    sparse LOS ray counts when `los` is true and the richer NLOS counts
    otherwise; the RIS links (1, 2) always use the generic counts.

    `config` must expose tx_spec/rx_spec/ris_spec (UraSpec), n_taps (3-tuple),
    rician_k, angular_spread_rad and the per-link cluster/ray counts; the
    harness SystemConfig does.
    """
    if link_index == 1:  # BS -> RIS
        rx_spec, tx_spec = config.ris_spec, config.tx_spec
        n_clusters, n_rays = config.ris_clusters, config.ris_rays
    elif link_index == 2:  # RIS -> UE
        rx_spec, tx_spec = config.rx_spec, config.ris_spec
        n_clusters, n_rays = config.ris_clusters, config.ris_rays
    elif link_index == 3:  # BS -> UE direct
        rx_spec, tx_spec = config.rx_spec, config.tx_spec
        if los:
            n_clusters, n_rays = config.direct_los_clusters, config.direct_los_rays
        else:
            n_clusters, n_rays = config.direct_nlos_clusters, config.direct_nlos_rays
    else:
        raise ValueError(f"link_index must be 1, 2 or 3, got {link_index}")

    n_taps = config.n_taps[link_index - 1]
    weights = tap_power_weights(n_taps)
    shape = (rx_spec.n_elements, tx_spec.n_elements)
    taps = np.empty((n_taps,) + shape, dtype=complex)
    for l, w in enumerate(weights):
        rays = draw_cluster_rays(n_clusters, n_rays, config.angular_spread_rad, rng)
        geo = geometric_tap(rays, rx_spec, tx_spec)
        scatter = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        taps[l] = np.sqrt(w) * rician_tap(geo, scatter, config.rician_k)
    return taps
