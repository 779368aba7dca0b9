"""Clustered geometric mmWave channel synthesis for the three simulator links.

Each link (BS->RIS, RIS->UE, BS->UE) is a frequency-selective Rician channel:
per delay tap, a deterministic geometric component built from uniform
rectangular array (URA) steering vectors over clustered rays is mixed with an
i.i.d. complex Gaussian scatter component, then the taps are converted to
per-subcarrier frequency responses by one product with the DFT matrix.

`synthesize_link` is the one synthesis path. It takes one generator per
trial and synthesizes the taps of all those trials together: the draw loop,
trial by trial and tap by tap, only draws random numbers, in a fixed order per
tap; the steering vectors, the geometric products, the Rician mix and the tap
weighting of every (trial, tap) pair then run in one batched pass, so a
trial's taps are the same whichever trials it is drawn with. Angles stay as
drawn until `ura_response`, which alone normalizes them. A URA steering
vector is the Kronecker product of a row response and a column response,
each the powers of one complex exponential, so it costs two complex
exponentials per ray, not rows * cols.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig, UraSpec, require_numbers

TWO_PI = 2.0 * np.pi


@dataclass
class ClusterRaySet:
    """Per-ray complex gains and arrival/departure angles for one link draw.

    Every array holds one entry per (cluster, ray) pair on its last axis,
    with the angles in radians as drawn: `ura_response` normalizes them. All
    five share one shape: (n,) for one tap, (L, n) for the L taps of a link,
    or (T, L, n) for the links of T trials.
    """

    gains: np.ndarray
    arrival_az: np.ndarray
    arrival_el: np.ndarray
    departure_az: np.ndarray
    departure_el: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.gains)
        for name in ("gains", "arrival_az", "arrival_el", "departure_az", "departure_el"):
            arr = np.asarray(getattr(self, name))
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite entries")
            setattr(self, name, arr)


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
        for name in ("h1", "h2", "h3"):
            stack = np.asarray(getattr(self, name), dtype=complex)
            if stack.ndim != 3:
                raise ValueError(f"{name} must be a 3-D (K, rows, cols) stack, got shape {stack.shape}")
            setattr(self, name, stack)
        k = self.h1.shape[0]
        if self.h2.shape[0] != k or self.h3.shape[0] != k:
            raise ValueError("all three stacks must cover the same subcarriers")
        if self.h2.shape[2] != self.h1.shape[1]:
            raise ValueError("h2 columns must match h1 rows (RIS element count)")
        if self.h3.shape[1:] != (self.h2.shape[1], self.h1.shape[2]):
            raise ValueError("h3 must be (K, N_r, N_t)")


def ura_response(azimuth, elevation, spec: UraSpec) -> np.ndarray:
    """Unit-norm URA steering vector for a direction.

    Element (m, n) of the rows x cols grid carries phase
    2*pi*spacing*(m*sin(az)*cos(el) + n*sin(el)); the vector is flattened
    row-major and normalized to unit Euclidean norm. The phase is a sum of a
    row term and a column term, so the vector is the Kronecker product of a
    rows-long and a cols-long response, and each response is the powers
    z**0, ..., z**(n-1) of one complex exponential z per direction.

    This is where angles are normalized: the elevation is clamped into
    [-pi/2, pi/2], and the azimuth needs no wrap, since the phase reads it
    only through sin(az), which is 2*pi-periodic.

    Accepts scalar angles (returns shape (n_elements,)) or equal-shaped angle
    arrays (returns (n_elements, ...) with the angle axes trailing).
    """
    el = np.clip(np.asarray(elevation, dtype=float), -np.pi / 2, np.pi / 2)
    k = TWO_PI * spec.spacing_wavelengths
    row = _powers(k * (np.sin(azimuth) * np.cos(el)), spec.rows, 1.0 / np.sqrt(spec.n_elements))
    col = _powers(k * np.sin(el), spec.cols, 1.0)
    return (row[:, None] * col[None, :]).reshape((spec.n_elements,) + np.shape(el))


def _powers(phase: np.ndarray, n: int, scale: float) -> np.ndarray:
    """scale * z**m for m = 0, ..., n-1, z = exp(1j * phase), along a new leading axis.

    Entry 0 is scale and entry 1 is scale * z; each further entry is the one
    before it times z, so a response costs one complex exponential per angle.
    """
    out = np.empty((n,) + np.shape(phase), dtype=complex)
    out[0] = scale
    if n > 1:
        z = np.exp(1j * phase)
        out[1] = z * scale
        for m in range(2, n):
            out[m] = out[m - 1] * z
    return out


def geometric_tap(rays: ClusterRaySet, rx_spec: UraSpec, tx_spec: UraSpec) -> np.ndarray:
    """Geometric tap matrix: scaled sum of per-ray rx/tx steering outer products.

    Returns sqrt(n_rx*n_tx/(R*C)) * sum_i gain_i * a_rx(i) a_tx(i)^H, shape
    (n_rx, n_tx); rays with leading axes, such as (T, L) trials and taps,
    give those axes in front: (T, L, n_rx, n_tx).
    """
    a_rx = ura_response(rays.arrival_az, rays.arrival_el, rx_spec)  # (n_rx, ..., n)
    a_tx = ura_response(rays.departure_az, rays.departure_el, tx_spec)  # (n_tx, ..., n)
    scale = np.sqrt(rx_spec.n_elements * tx_spec.n_elements / rays.gains.shape[-1])
    a_rx *= scale * rays.gains  # both responses are fresh arrays: weight and conjugate in place
    np.conjugate(a_tx, out=a_tx)
    return np.moveaxis(a_rx, 0, -2) @ np.moveaxis(a_tx, 0, -1)


def rician_tap(los_part: np.ndarray, scatter_part: np.ndarray, rician_k: float) -> np.ndarray:
    """Mix deterministic and diffuse components with Rician factor `rician_k` (linear, `SystemConfig`'s rule)."""
    los_part = np.asarray(los_part)
    scatter_part = np.asarray(scatter_part)
    if los_part.shape != scatter_part.shape:
        raise ValueError(f"shape mismatch: {los_part.shape} vs {scatter_part.shape}")
    require_numbers(SystemConfig, rician_k=rician_k)
    return np.sqrt(rician_k / (rician_k + 1.0)) * los_part + np.sqrt(1.0 / (rician_k + 1.0)) * scatter_part


def taps_to_subcarriers(taps: np.ndarray, n_subcarriers: int) -> np.ndarray:
    """K-point DFT over the tap axis: H[k] = sum_l H[l] exp(-2j*pi*k*l/K).

    Requires n_subcarriers >= number of taps (taps are zero-padded into the
    DFT window, never truncated). `taps` is an (L, n_rx, n_tx) array or a
    (T, L, n_rx, n_tx) stack of T trials' taps; the tap axis is axis -3, and
    it becomes the subcarrier axis of the result. The transform is one
    product with the K x L DFT matrix, each trial's taps a matrix of L rows;
    k*l is reduced mod K on integers, so every twiddle is exact to rounding
    for any K.
    """
    n_taps, n_rx, n_tx = taps.shape[-3:]
    if n_subcarriers < n_taps:
        raise ValueError(f"need n_subcarriers >= n_taps, got {n_subcarriers} < {n_taps}")
    kl = np.multiply.outer(np.arange(n_subcarriers), np.arange(n_taps)) % n_subcarriers
    dft = np.exp(-1j * (TWO_PI / n_subcarriers) * kl)
    freq = dft @ taps.reshape(taps.shape[:-3] + (n_taps, n_rx * n_tx))
    return freq.reshape(taps.shape[:-3] + (n_subcarriers, n_rx, n_tx))


def tap_power_weights(n_taps: int) -> np.ndarray:
    """Exponentially decaying power profile exp(-l), normalized to unit sum."""
    w = np.exp(-np.arange(n_taps, dtype=float))
    return w / w.sum()


# Half-widths of the uniform cluster-center ranges, in draw order: arrival
# azimuth, arrival elevation, departure azimuth, departure elevation.
_CENTER_HALF_WIDTHS = (np.pi, np.pi / 2, np.pi, np.pi / 2)


def synthesize_link(link_index: int, config: SystemConfig, rngs: Sequence[np.random.Generator],
                    los: bool = True) -> np.ndarray:
    """Synthesize the time-domain taps of one link for T trials as a (T, L, n_rx, n_tx) stack.

    `rngs` holds one generator per trial. Per tap, an independent
    clustered-ray geometric component and an i.i.d. CN(0,1) scatter matrix
    are combined with the configured Rician factor and scaled by the tap's
    power weight. Cluster centers are uniform over the full azimuth and
    elevation ranges; each ray offsets its cluster center by a zero-mean
    Laplacian with standard deviation `config.angular_spread_rad`; ray gains
    are i.i.d. CN(0, 1). Each generator is drawn trial by trial and tap by
    tap: for arrival azimuth, arrival elevation, departure azimuth and
    departure elevation in turn, the cluster centers and then the ray
    offsets; then the real and the imaginary gain parts and the real and the
    imaginary scatter parts. Every (trial, tap) pair is then built in one
    batched pass, so entry t depends on generator t alone.

    The link's arrays and its cluster, ray and tap counts come from the
    config's link table, `config.link(link_index, los)`: the direct link
    (index 3) has the sparse LOS ray counts when `los` is true and the
    richer NLOS counts otherwise. The config's own checks guarantee at least
    one cluster and one ray and a finite, nonnegative angular spread.
    """
    rx_spec, tx_spec, n_clusters, n_rays, n_taps = config.link(link_index, los)
    n, shape = n_clusters * n_rays, (rx_spec.n_elements, tx_spec.n_elements)
    scale = config.angular_spread_rad / np.sqrt(2.0)  # Laplace with std = spread has scale spread/sqrt(2)
    angles = np.empty((4, len(rngs), n_taps, n_clusters, n_rays))
    # per (trial, tap): real and imaginary gain parts, then real and imaginary scatter parts
    normals = np.empty((len(rngs), n_taps, 2 * n + 2 * shape[0] * shape[1]))
    for t, rng in enumerate(rngs):
        for l in range(n_taps):
            for out, half in zip(angles[:, t, l], _CENTER_HALF_WIDTHS):
                np.add(rng.uniform(-half, half, size=n_clusters)[:, None],
                       rng.laplace(0.0, scale, size=(n_clusters, n_rays)), out=out)
            rng.standard_normal(out=normals[t, l])  # consumes the stream as one call per part would
    arrival_az, arrival_el, departure_az, departure_el = angles.reshape(angles.shape[:3] + (n,))
    rays = ClusterRaySet(gains=(normals[..., :n] + 1j * normals[..., n:2 * n]) / np.sqrt(2.0),
                         arrival_az=arrival_az, arrival_el=arrival_el,
                         departure_az=departure_az, departure_el=departure_el)
    geo = geometric_tap(rays, rx_spec, tx_spec)
    scatter_normals = normals[..., 2 * n:].reshape(normals.shape[:2] + (2,) + shape)
    scatter = (scatter_normals[:, :, 0] + 1j * scatter_normals[:, :, 1]) / np.sqrt(2.0)
    return np.sqrt(tap_power_weights(n_taps))[:, None, None] * rician_tap(geo, scatter, config.rician_k)
