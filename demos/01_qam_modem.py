#!/usr/bin/env python3
"""Tour of the Gray-QAM modem: constellations, theory curves, quick BER check.

Run:  python demos/01_qam_modem.py
"""

import math

import numpy as np

from vlclink import ber_theoretical, make_rng, qam_demap, qam_map
from vlclink.modem import QAM_ORDERS, constellation

print("=== Constellations ===")
for order in QAM_ORDERS:
    c = constellation(order)
    energy = np.mean(np.abs(c.points) ** 2)
    print(f"{order:>4}-QAM: {c.bits_per_symbol} bits/symbol, "
          f"scale {c.scale:.6f}, mean energy {energy:.12f}")

print("\nThe all-zeros group lands on the top-right corner:")
for order in QAM_ORDERS:
    k = int(math.log2(order))
    point = qam_map([0] * k, order)[0]
    print(f"{order:>4}-QAM: bits {'0'*k} -> {point.real:+.4f}{point.imag:+.4f}j")

print("\n=== Theoretical BER (linear SNR in dB columns) ===")
snrs_db = [6, 10, 14, 18, 22, 26, 30]
header = "M    " + "".join(f"{s:>10}dB" for s in snrs_db)
print(header)
for order in QAM_ORDERS:
    cells = "".join(f"{ber_theoretical(order, 10**(s/10)):>12.2e}" for s in snrs_db)
    print(f"{order:<5}{cells}")

print("\n=== Monte-Carlo spot check, 16-QAM at its 1e-3 operating point ===")
rng = make_rng(2718)
order = 16
target = 1e-3
# invert the theory curve by bisection
lo, hi = 0.0, 1e5
for _ in range(200):
    mid = 0.5 * (lo + hi)
    if ber_theoretical(order, mid) <= target:
        hi = mid
    else:
        lo = mid
snr = hi
n_bits = 1_200_000
bits = rng.integers(0, 2, size=n_bits)
syms = qam_map(bits, order)
sigma = math.sqrt(1.0 / snr / 2.0)
noisy = syms + sigma * (rng.standard_normal(syms.size) + 1j * rng.standard_normal(syms.size))
errors = int(np.count_nonzero(qam_demap(noisy, order) != bits))
print(f"snr = {10*math.log10(snr):.2f} dB, theory {target:.1e}, "
      f"measured {errors/n_bits:.2e} ({errors} errors in {n_bits} bits)")
