"""Clustered geometric mmWave channel synthesis for the three simulator links.

Each link (BS->RIS, RIS->UE, BS->UE) is a frequency-selective Rician channel:
per delay tap, a deterministic geometric component built from uniform
rectangular array (URA) steering vectors over clustered rays is mixed with an
i.i.d. complex Gaussian scatter component, then the taps are DFT-converted to
per-subcarrier frequency responses.

A link's taps are synthesized together, and so are the taps of a chunk of
trials that each bring their own generator. The draw loop, trial by trial and
tap by tap, only draws random numbers, in a fixed order per tap; the steering
vectors, the geometric products, the Rician mix and the tap weighting of every
(trial, tap) pair then run in one batched pass, so a trial's taps are the same
whichever chunk it is drawn in. A URA steering vector is the Kronecker product
of a row response and a column response, so it costs rows + cols complex
exponentials per ray, not rows * cols.
"""

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .propagation import require_valid_numbers

TWO_PI = 2.0 * np.pi


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


@functools.lru_cache(maxsize=256, typed=True)
def ura_spec(rows: int, cols: int, spacing_wavelengths: float = 0.5) -> UraSpec:
    """The shared UraSpec of one geometry, validated once per distinct value.

    UraSpec is frozen, so every caller can hold the same instance. Invalid
    sizes raise on every call: a failed construction is not cached.
    """
    return UraSpec(rows, cols, spacing_wavelengths)


@dataclass
class ClusterRaySet:
    """Per-ray complex gains and arrival/departure angles for one link draw.

    Every array holds one entry per (cluster, ray) pair on its last axis,
    azimuths in [-pi, pi) and elevations in [-pi/2, pi/2]. All five share one
    shape: (n,) for one tap, (L, n) for the L taps of a link, or (T, L, n)
    for the links of T trials.
    """

    gains: np.ndarray
    arrival_az: np.ndarray
    arrival_el: np.ndarray
    departure_az: np.ndarray
    departure_el: np.ndarray
    n_clusters: int
    n_rays: int

    def __post_init__(self):
        shape = np.shape(self.gains)[:-1] + (self.n_clusters * self.n_rays,)
        for name in ("gains", "arrival_az", "arrival_el", "departure_az", "departure_el"):
            arr = np.asarray(getattr(self, name))
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.isfinite(arr).all():
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
    row-major and normalized to unit Euclidean norm. The phase is a sum of a
    row term and a column term, so the vector is the Kronecker product of a
    rows-long and a cols-long response.

    Accepts scalar angles (returns shape (n_elements,)) or equal-shaped angle
    arrays (returns (n_elements, ...) with the angle axes trailing).
    """
    az = wrap_azimuth(azimuth)
    el = clamp_elevation(elevation)
    k = TWO_PI * spec.spacing_wavelengths
    row = 1j * np.multiply.outer(k * np.arange(spec.rows), np.sin(az) * np.cos(el))  # (rows, ...)
    col = 1j * np.multiply.outer(k * np.arange(spec.cols), np.sin(el))  # (cols, ...)
    # exp and scale in place: over a chunk of trials' taps each copy would be large
    np.exp(row, out=row)
    np.exp(col, out=col)
    row /= np.sqrt(spec.n_elements)
    return (row[:, None] * col[None, :]).reshape((spec.n_elements,) + np.shape(az))


# Half-widths of the uniform cluster-center ranges, in draw order: arrival
# azimuth, arrival elevation, departure azimuth, departure elevation.
_CENTER_HALF_WIDTHS = (np.pi, np.pi / 2, np.pi, np.pi / 2)


def _check_ray_draw(n_clusters: int, n_rays: int, spread: float) -> None:
    if n_clusters < 1 or n_rays < 1:
        raise ValueError("need at least one cluster and one ray per cluster")
    if not spread >= 0 or not math.isfinite(spread):
        raise ValueError(f"angular spread must be finite and nonnegative, got {spread!r}")


def _draw_tap_rays(angles: np.ndarray, normals: np.ndarray, spread: float, rng: np.random.Generator) -> None:
    """Draw one tap's rays into preallocated arrays, in the fixed per-tap order.

    For arrival azimuth, arrival elevation, departure azimuth and departure
    elevation in turn: uniform cluster centers, then Laplacian ray offsets;
    `angles` (4, n_clusters, n_rays) receives their unwrapped sums. Then one
    standard normal call fills the contiguous buffer `normals`: its first
    n_clusters * n_rays entries are the real and the next as many the
    imaginary gain parts; whatever it holds beyond them (the scatter parts of
    `synthesize_link`) follows in the same call. The stream is consumed as by
    one call per part.
    """
    n_clusters, n_rays = angles.shape[1:]
    scale = spread / np.sqrt(2.0)  # Laplace with std = spread has scale spread/sqrt(2)
    for out, half in zip(angles, _CENTER_HALF_WIDTHS):
        np.add(rng.uniform(-half, half, size=n_clusters)[:, None],
               rng.laplace(0.0, scale, size=(n_clusters, n_rays)), out=out)
    rng.standard_normal(out=normals)


def _ray_set(angles: np.ndarray, normals: np.ndarray) -> ClusterRaySet:
    """The ClusterRaySet of `_draw_tap_rays` draws; leading trial and tap axes stay in front."""
    n_clusters, n_rays = angles.shape[-2:]
    n = n_clusters * n_rays
    flat = angles.reshape(angles.shape[:-2] + (n,))
    (arrival_az, departure_az), (arrival_el, departure_el) = wrap_azimuth(flat[0::2]), clamp_elevation(flat[1::2])
    return ClusterRaySet(
        gains=(normals[..., :n] + 1j * normals[..., n:2 * n]) / np.sqrt(2.0),
        arrival_az=arrival_az,
        arrival_el=arrival_el,
        departure_az=departure_az,
        departure_el=departure_el,
        n_clusters=n_clusters,
        n_rays=n_rays,
    )


def draw_cluster_rays(n_clusters: int, n_rays: int, spread: float, rng: np.random.Generator) -> ClusterRaySet:
    """Draw one set of clustered rays.

    Cluster centers are uniform over the full azimuth/elevation ranges; each
    ray offsets its cluster center by a zero-mean Laplacian with standard
    deviation `spread` (radians). Ray gains are i.i.d. CN(0, 1).
    """
    _check_ray_draw(n_clusters, n_rays, spread)
    angles = np.empty((4, n_clusters, n_rays))
    normals = np.empty(2 * n_clusters * n_rays)
    _draw_tap_rays(angles, normals, spread, rng)
    return _ray_set(angles, normals)


def geometric_tap(rays: ClusterRaySet, rx_spec: UraSpec, tx_spec: UraSpec) -> np.ndarray:
    """Geometric tap matrix: scaled sum of per-ray rx/tx steering outer products.

    Returns sqrt(n_rx*n_tx/(R*C)) * sum_i gain_i * a_rx(i) a_tx(i)^H, shape
    (n_rx, n_tx); rays with leading axes, such as (T, L) trials and taps,
    give those axes in front: (T, L, n_rx, n_tx).
    """
    a_rx = ura_response(rays.arrival_az, rays.arrival_el, rx_spec)  # (n_rx, ..., n)
    a_tx = ura_response(rays.departure_az, rays.departure_el, tx_spec)  # (n_tx, ..., n)
    scale = np.sqrt(rx_spec.n_elements * tx_spec.n_elements / (rays.n_clusters * rays.n_rays))
    a_rx *= scale * rays.gains  # both responses are fresh arrays: weight and conjugate in place
    np.conjugate(a_tx, out=a_tx)
    return np.moveaxis(a_rx, 0, -2) @ np.moveaxis(a_tx, 0, -1)


def rician_tap(los_part: np.ndarray, scatter_part: np.ndarray, rician_k: float) -> np.ndarray:
    """Mix deterministic and diffuse components with Rician factor `rician_k` (linear)."""
    los_part = np.asarray(los_part)
    scatter_part = np.asarray(scatter_part)
    if los_part.shape != scatter_part.shape:
        raise ValueError(f"shape mismatch: {los_part.shape} vs {scatter_part.shape}")
    if not rician_k >= 0 or not math.isfinite(rician_k):
        raise ValueError(f"Rician factor must be finite and nonnegative, got {rician_k!r}")
    return np.sqrt(rician_k / (rician_k + 1.0)) * los_part + np.sqrt(1.0 / (rician_k + 1.0)) * scatter_part


def taps_to_subcarriers(taps: np.ndarray, n_subcarriers: int) -> np.ndarray:
    """K-point DFT over the tap axis: H[k] = sum_l H[l] exp(-2j*pi*k*l/K).

    Requires n_subcarriers >= number of taps (taps are zero-padded into the
    DFT window, never truncated). `taps` is an (L, n_rx, n_tx) array or a
    (T, L, n_rx, n_tx) stack of T trials' taps; the tap axis is axis -3, and
    it becomes the subcarrier axis of the result.
    """
    if n_subcarriers < taps.shape[-3]:
        raise ValueError(f"need n_subcarriers >= n_taps, got {n_subcarriers} < {taps.shape[-3]}")
    return np.fft.fft(taps, n=n_subcarriers, axis=-3)


def tap_power_weights(n_taps: int) -> np.ndarray:
    """Exponentially decaying power profile exp(-l), normalized to unit sum."""
    w = np.exp(-np.arange(n_taps, dtype=float))
    return w / w.sum()


def synthesize_link(link_index: int, config, rng: np.random.Generator | Sequence[np.random.Generator],
                    los: bool = True) -> np.ndarray:
    """Synthesize the time-domain taps of one link as an (L, n_rx, n_tx) array.

    Per tap, an independent clustered-ray geometric component and an i.i.d.
    CN(0,1) scatter matrix are combined with the configured Rician factor and
    scaled by the tap's power weight. Tap by tap, the rays are drawn in
    `draw_cluster_rays` order, then the real and the imaginary scatter parts;
    all taps are then built in one batched pass. The direct link (index 3)
    uses the sparse LOS ray counts when `los` is true and the richer NLOS
    counts otherwise; the RIS links (1, 2) always use the generic counts.

    `rng` is one generator, or a sequence of T generators, one per trial,
    which gives a (T, L, n_rx, n_tx) stack: each generator is drawn as a lone
    one would be, trial by trial, and the pass covers all T * L taps. Entry t
    equals the lone call on generator t bit for bit.

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

    single = isinstance(rng, np.random.Generator)
    rngs = [rng] if single else list(rng)
    spread = config.angular_spread_rad
    _check_ray_draw(n_clusters, n_rays, spread)
    n_taps = config.n_taps[link_index - 1]
    n_gain, shape = 2 * n_clusters * n_rays, (rx_spec.n_elements, tx_spec.n_elements)
    n_scatter = shape[0] * shape[1]
    angles = np.empty((4, len(rngs), n_taps, n_clusters, n_rays))
    # per (trial, tap): real and imaginary gain parts, then real and imaginary scatter parts
    normals = np.empty((len(rngs), n_taps, n_gain + 2 * n_scatter))
    for t, trial_rng in enumerate(rngs):
        for l in range(n_taps):
            _draw_tap_rays(angles[:, t, l], normals[t, l], spread, trial_rng)
    geo = geometric_tap(_ray_set(angles, normals), rx_spec, tx_spec)
    scatter_normals = normals[..., n_gain:].reshape(normals.shape[:2] + (2,) + shape)
    scatter = (scatter_normals[:, :, 0] + 1j * scatter_normals[:, :, 1]) / np.sqrt(2.0)
    taps = np.sqrt(tap_power_weights(n_taps))[:, None, None] * rician_tap(geo, scatter, config.rician_k)
    return taps[0] if single else taps
