"""Distances, LOS probability and link power gains across deployment geometries.

Run: python demos/blockage_and_pathloss.py
"""
from dataclasses import replace

import numpy as np

from rislink.config import GeometryConfig
from rislink.propagation import direct_gain, indirect_gain, link_distances, p_los

def db(x):
    return 10 * np.log10(x)

geom = GeometryConfig()  # D=200 m, BS 10 m, UE 1.8 m, RIS offset 2.2 m, 28 GHz
d1, d2, d_dir = link_distances(geom)
print(f"geometry: BS->RIS {d1:.2f} m, RIS->UE {d2:.2f} m, BS->UE {d_dir:.2f} m")
print(f"LOS probability of the direct path: {p_los(geom):.4f}")
print(f"direct gain  LOS: {db(direct_gain(geom, True)):7.1f} dB")
print(f"direct gain NLOS: {db(direct_gain(geom, False)):7.1f} dB  "
      f"(blockage costs {db(direct_gain(geom, True)) - db(direct_gain(geom, False)):.1f} dB)")
print(f"reflected-path gain: {db(indirect_gain(geom)):7.1f} dB")

print("\nLOS probability falls off with distance:")
for d in (50, 100, 150, 200, 300):
    g = replace(geom, d_bs_ue=float(d))
    print(f"  D = {d:3d} m: P_LOS = {p_los(g):.4f}")

print("\nRIS placement: the reflected path pays a product-of-distances loss,")
print("so the panel must sit near one array end:")
for d_ris in (2.2, 10.0, 30.0, 100.0, 197.8):
    g = replace(geom, d_ris=float(d_ris))
    h1, h2, _ = link_distances(g)
    print(f"  RIS offset {d_ris:6.1f} m (hops {h1:6.1f} / {h2:6.1f} m): "
          f"gain = {db(indirect_gain(g)):7.1f} dB")
