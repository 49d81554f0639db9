#!/usr/bin/env python3
"""Optical geometry: Lambertian gains and what the obstacle does to the 2x2 matrix.

Run:  python demos/03_channel_geometry.py
"""

from dataclasses import replace

import numpy as np

from vlclink import ScenarioConfig, channel_matrix, svd2
from vlclink.channel import Geometry, los_gain

print("=== Lambertian line-of-sight gain ===")
g_onaxis = los_gain((0.0, 0.0), (0.0, 218.0), 1.0, 60.0)
print(f"on-axis, 218 cm, order 1, 1 cm^2: {g_onaxis:.3e}")
print(f"same at 436 cm (inverse square):  {los_gain((0,0),(0,436.0),1,60):.3e}")

print("\n=== Wide emitter vs collimated emitter ===")
for m, label in ((1.0, "bare LED (order 1)"), (20000.0, "lens-collimated (order 20000)")):
    geom = Geometry(lambert_m=m, obstacle=None)
    h, norm = channel_matrix(geom)
    print(f"{label}: cross/direct gain ratio {h[0,1].real:.5f}")
print("the collimated beam is what makes the clear channel nearly diagonal,")
print("so zero-forcing multiplexing is usable at sane transmit power")

print("\n=== Obstacle sweep over the default scenario geometry ===")
cfg = ScenarioConfig()
print(f"obstacle diameter {cfg.obstacle_diam} cm at z = {cfg.obstacle_z} cm, "
      f"beam radius {cfg.beam_radius} cm (soft shadow)")
print(f"{'x (cm)':>8}  {'h11':>7} {'h12':>7} {'h21':>7} {'h22':>7}   {'sigma1':>7} {'sigma2':>7}")
for x in (-65, -20, -10, -5, 0, 5, 10, 20, 65):
    h, _ = channel_matrix(cfg.geometry(obstacle_x=float(x)))
    s = svd2(h)
    hr = h.real
    print(f"{x:>8}  {hr[0,0]:>7.3f} {hr[0,1]:>7.3f} {hr[1,0]:>7.3f} {hr[1,1]:>7.3f}"
          f"   {s.sigma1:>7.3f} {s.sigma2:>7.3f}")

print("\nhard-shadow counterpart (beam radius 0): only x=0 clips the cross links")
for x in (-5, 0, 5):
    h, _ = channel_matrix(replace(cfg.geometry(obstacle_x=float(x)), beam_radius_cm=0.0))
    print(f"x = {x:+}: h = {np.round(h.real, 4).tolist()}")
