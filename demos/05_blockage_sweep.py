#!/usr/bin/env python3
"""The headline experiment: adaptive link vs fixed baselines across a moving
obstacle, on the calibrated default scenario.

Run:  python demos/05_blockage_sweep.py        (about half a second)

Writes blockage_sweep.csv and, for the deepest-shadow position, the received
constellation to constellation_center.csv.
"""

import math

import numpy as np

from vlclink import ScenarioConfig, calibrate, channel_matrix, run_blockage_sweep
from vlclink.receiver import stream_snrs
from vlclink.scenario import N0, P_TOTAL_REF, SETTLING_FRAMES, dump_constellation, write_blockage_csv
from vlclink.scenario import _detect, _frame_bits, _FrontEnds

cfg = ScenarioConfig()
p_total = calibrate(cfg)
print(f"calibrated transmit SNR: {10*math.log10(p_total):.2f} dB "
      f"(SM-256 feasible on the clear channel, +{cfg.calibrate_margin_db:.0f} dB margin)")

result = run_blockage_sweep(cfg)
print(f"\n{'x (cm)':>7}  {'adaptive':>9} {'ber':>10} {'eff':>4}   {'SM-64 eff':>9}  {'SD-64 eff':>9}")
for ra, rm, rd in zip(result.adaptive, result.fixed_sm64, result.fixed_sd64):
    print(f"{ra.position_cm:>7.0f}  {ra.mode.name:>9} {ra.ber:>10.2e} {ra.eff_bshz:>4.0f}"
          f"   {rm.eff_bshz:>9.0f}  {rd.eff_bshz:>9.0f}")

print("\naverage error-free spectral efficiency over the sweep:")
for name, value in result.averages.items():
    print(f"  {name:<12} {value:>6.2f} b/s/Hz")

with open("blockage_sweep.csv", "w", encoding="utf-8") as fh:
    write_blockage_csv(result, fh)
print("\nwrote blockage_sweep.csv")

# received constellation in the deepest shadow (x = 0), first measured frame,
# through the sweep's own receive chain (`_detect`, which `_run_frame` runs)
center_index = int(np.argmin(np.abs(result.positions)))
mode = result.adaptive[center_index].mode
h_norm, _ = channel_matrix(cfg.geometry(obstacle_x=float(result.positions[center_index])))
spec = cfg.frame_spec()
seed = (cfg.base_seed + center_index,)
front_end = _FrontEnds(math.sqrt(p_total / 2.0) * h_norm, spec)
bits = front_end.draw(seed, SETTLING_FRAMES, _frame_bits(mode, spec))
_, sent, detected, est, _ = _detect(mode, bits, front_end)
snrs = stream_snrs(est, P_TOTAL_REF, N0, mode.scheme).snr
print(f"\nx = 0 runs {mode.name}; estimated stream SNRs "
      + ", ".join(f"{10*math.log10(s):.1f} dB" for s in snrs))
evm = math.sqrt(float(np.sum(np.abs(detected - sent) ** 2)) / float(np.sum(np.abs(sent) ** 2)))
print(f"payload EVM at x = 0: {evm:.4f}")
dump_constellation(detected[0][:2048], "constellation_center.csv")
print("wrote constellation_center.csv (received symbols after detection, stream 1)")
