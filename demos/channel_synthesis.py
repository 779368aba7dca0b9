"""Walk through the channel synthesis chain, from steering vectors to subcarriers.

Run: python demos/channel_synthesis.py
"""
import numpy as np

from rislink import (ClusterRaySet, SystemConfig, UraSpec, geometric_tap, rician_tap, synthesize_link,
                     taps_to_subcarriers, ura_response)
from rislink.channel import tap_power_weights
from rislink.rng import substream

rng = substream(2024)

# A steering vector maps a direction to per-element phases; its norm is always 1.
bs = UraSpec(rows=8, cols=8, spacing_wavelengths=0.5)
v = ura_response(np.deg2rad(25.0), np.deg2rad(-10.0), bs)
print(f"BS URA 8x8 steering vector: {v.shape[0]} elements, norm = {np.linalg.norm(v):.12f}")

# Clustered rays: 8 clusters x 10 rays, 10 degrees of intra-cluster spread.
# Each cluster center is uniform over the azimuth or elevation range, and each
# ray offsets it by a Laplacian with that standard deviation; gains are CN(0, 1).
n_clusters, n_rays, spread = 8, 10, np.deg2rad(10.0)
angles = [(rng.uniform(-half, half, size=n_clusters)[:, None]
           + rng.laplace(0.0, spread / np.sqrt(2), size=(n_clusters, n_rays))).ravel()
          for half in (np.pi, np.pi / 2, np.pi, np.pi / 2)]  # arrival az/el, departure az/el
gains = (rng.standard_normal(n_clusters * n_rays) + 1j * rng.standard_normal(n_clusters * n_rays)) / np.sqrt(2)
rays = ClusterRaySet(gains, *angles)
print(f"ray set: {rays.gains.size} rays, mean |gain|^2 = {np.mean(np.abs(rays.gains)**2):.3f}")

# One geometric tap for the BS -> RIS link (RIS receives, BS transmits).
ris = UraSpec(8, 8)
tap_geo = geometric_tap(rays, rx_spec=ris, tx_spec=bs)
print(f"geometric tap: shape {tap_geo.shape}, ||H||_F = {np.linalg.norm(tap_geo):.2f} "
      f"(E[||H||_F^2] = N_rx*N_tx = {ris.n_elements * bs.n_elements})")

# Rician mixing pulls the tap toward the geometric part as the factor grows.
scatter = (rng.standard_normal(tap_geo.shape) + 1j * rng.standard_normal(tap_geo.shape)) / np.sqrt(2)
for k_factor in (0.0, 1.0, 10.0, 1e6):
    mixed = rician_tap(tap_geo, scatter, k_factor)
    corr = abs(np.vdot(tap_geo, mixed)) / (np.linalg.norm(tap_geo) * np.linalg.norm(mixed))
    print(f"  Rician factor {k_factor:>8.0f}: correlation with geometric part = {corr:.4f}")

# A link's taps carry an exponentially decaying power profile and DFT to subcarriers.
# synthesize_link draws every tap of the BS -> RIS link (8x8 arrays, the same
# 8 clusters x 10 rays, 10 degrees, Rician factor 10) for each generator it is
# given, one per trial, and builds them in one pass; here it gets one.
weights = tap_power_weights(4)
print(f"tap power weights (L=4): {np.round(weights, 4)}, sum = {weights.sum():.1f}")
cfg = SystemConfig(n_taps=(4, 4, 5))
taps = synthesize_link(1, cfg, [rng])[0]
h_freq = taps_to_subcarriers(taps, cfg.n_subcarriers)
print(f"frequency response: {h_freq.shape} (K=24 subcarriers)")
print(f"  DC bin equals the tap sum: {np.allclose(h_freq[0], taps.sum(axis=0))}")
recovered = np.fft.ifft(h_freq, axis=0)[:len(taps)]
print(f"  inverse DFT recovers the taps: max err = {np.max(np.abs(recovered - taps)):.2e}")
