"""Spatial-frequency waterfilling: one cutoff across all (subcarrier, stream) pairs.

Run: python demos/waterfilling.py
"""
import numpy as np

from rislink.power import build_covariances, channel_eigvals, waterfill, waterfill_covariances
from rislink.rate import rate_from_heq
from rislink.rng import substream

# Hand-checkable case first: two streams, gains 4 and 1, unit budget.
powers, cutoff = waterfill(np.array([4.0, 1.0]), total_power=1.0)
print(f"two streams (gains 4, 1), budget 1: powers = {powers}, cutoff = {cutoff:.6f} (= 8/9)")
print(f"  active pairs fill to the water level 1/cutoff = {1/cutoff:.4f}:")
for lam, p in zip((4.0, 1.0), powers):
    print(f"    1/gain {1/lam:.3f} + power {p:.3f} = {1/lam + p:.4f}")

# A frequency-selective MIMO channel: K=6 subcarriers, 2x4.
rng = substream(77)
heq = (rng.standard_normal((6, 2, 4)) + 1j * rng.standard_normal((6, 2, 4))) / np.sqrt(2)
lams, _ = channel_eigvals(heq, noise_var=1.0)
print(f"\nchannel eigenvalues per subcarrier (descending):")
for k, row in enumerate(lams):
    print(f"  k={k}: {np.round(row, 3)}")

for budget in (0.5, 4.0, 32.0):
    alloc = waterfill_covariances(heq, total_power=budget)
    active = int((alloc.p > 0).sum())
    rate = rate_from_heq(heq, alloc.q, 1.0)
    n_s = alloc.p.shape[1]
    uniform = build_covariances(alloc.u, np.full(alloc.p.shape, budget / alloc.p.size))
    rate_uni = rate_from_heq(heq, uniform, 1.0)
    print(f"budget {budget:5.1f}: {active:2d}/{alloc.p.size} pairs active, "
          f"rate {rate:6.3f} vs uniform {rate_uni:6.3f} bits/s/Hz "
          f"(+{100 * (rate / rate_uni - 1):.1f}%)")
print("low budgets concentrate power on the strongest pairs; high budgets spread it.")
