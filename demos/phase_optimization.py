"""One optimizer run on a blocked-link trial: rate trace and arm comparison.

Run: python demos/phase_optimization.py
"""
from dataclasses import replace

from rislink.config import preset_config
from rislink.harness import SCENARIOS, draw_trial, run_trial, total_power_for_snr
from rislink.pga import pga_optimize
from rislink.rate import fold_gains
from rislink.rng import SITE_PHASES, substream

cfg, geom = preset_config("desk")
cfg = cfg.with_n_ris(64)
geom = replace(geom, bs_height=10.0, d_ris=2.2, p_los_override=0.0)  # force a blocked direct path

key = (42, SCENARIOS["se_vs_snr"], 0)
channels, gains = draw_trial(cfg, geom, key)
power = total_power_for_snr(cfg, geom, snr_db=10.0)
print(f"trial: N_t={cfg.n_t}, N_r={cfg.n_r}, N_RIS={cfg.n_ris}, K={cfg.n_subcarriers}, "
      f"direct path {'LOS' if gains.los else 'blocked (NLOS)'}")

result = pga_optimize(fold_gains(channels, gains), power, rng=substream(*key, SITE_PHASES))

print(f"optimizer: {result.iterations} iterations, converged={result.converged}")
print(f"rate trace (bits/s/Hz): start {result.trace[0]:.4f} -> "
      f"{' '.join(f'{r:.3f}' for r in result.trace[1:9])} ... -> {result.rate:.4f}")

# Baselines on the same channel draw, scored by the harness's own arms.
rate_no = run_trial(cfg, geom, "no_ris", key, 10.0)
rate_rand = run_trial(cfg, geom, "random_phases", key, 10.0)

print(f"\narm comparison on this draw:")
print(f"  no reflected path : {rate_no:.4f} bits/s/Hz")
print(f"  random phases     : {rate_rand:.4f} bits/s/Hz")
print(f"  optimized phases  : {result.rate:.4f} bits/s/Hz "
      f"({result.rate / rate_no:.1f}x the no-RIS rate)")
