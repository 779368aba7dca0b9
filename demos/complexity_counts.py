"""FLOP-count instrumentation of the optimizer and its scaling with panel size.

Run: python demos/complexity_counts.py
"""
import numpy as np

from rislink.config import preset_config
from rislink.harness import complexity_table

# The harness records each optimizer run's iterations and gradient passes, and
# a fixed analytical ledger (flops.pga_run_cost) prices them: complex
# multiplies (6 flops) and scalar real ops. runtime_s is the wall time of the
# optimizer call alone; channel synthesis, the pathloss fold and the start
# allocation are not timed.
cfg, geom = preset_config("desk")
print("instrumented optimizer runs (10 seeded trials per size, SNR 10 dB):")
rows = complexity_table(cfg, geom, [4, 16, 36, 64], seed=7, trials=10, snr_db=10.0)
print(f"{'n_ris':>6} {'iter_count':>11} {'flop_count':>12} {'runtime_s':>10}")
for r in rows:
    print(f"{r['n_ris']:>6} {r['iter_count']:>11.1f} {r['flop_count']:>12.3e} {r['runtime_s']:>10.4f}")

per_iter = [r["flop_count"] / r["iter_count"] for r in rows]
slope = np.polyfit(np.log([r["n_ris"] for r in rows]), np.log(per_iter), 1)[0]
print(f"\nper-iteration flops scale as N_RIS^{slope:.2f} over this range;")
print("iteration counts also grow with the panel size, so total cost rises faster.")
