#!/usr/bin/env python3
"""Link adaptation: the 8-mode table, selection vs SNR, feedback latency.

Run:  python demos/04_mode_selection.py
"""

import numpy as np

from vlclink import MODES, StreamSnrs, encode_mode, select_mode
from vlclink.adapt import AdaptPolicy, controller_step, new_controller, predicted_ber
from vlclink.receiver import ChannelEstimate, stream_snrs

policy = AdaptPolicy()
print("=== Mode table (3-bit wire codes) ===")
for mode in MODES:
    print(f"code {encode_mode(mode)} = 0b{encode_mode(mode):03b}  {mode.name:<7} "
          f"eta = {mode.efficiency:>4.0f} b/s/Hz")

print(f"\n=== Selection vs symmetric channel SNR (target BER {policy.ber_tgt}) ===")
print(f"{'snr (dB)':>9}  {'selected':>9}  {'predicted BER':>14}")
for snr_db in range(6, 42, 2):
    snr = 10.0 ** (snr_db / 10.0)
    sm = StreamSnrs("SM", (snr / 2.0, snr / 2.0))   # power split across streams
    sd = StreamSnrs("SD", (snr,))                   # repetition reaps the array gain
    mode = select_mode(sm, sd, policy)
    ber = predicted_ber(mode, sm if mode.scheme == "SM" else sd)
    print(f"{snr_db:>9}  {mode.name:>9}  {ber:>14.2e}")

print("\n=== One-frame feedback latency ===")
state = new_controller(policy)
strong = ChannelEstimate(h_hat=np.eye(2, dtype=complex) * 40.0)
weak = ChannelEstimate(h_hat=np.eye(2, dtype=complex) * 2.0)
print("channel alternates strong/weak each frame; applied mode lags the estimate by one frame")
for frame in range(6):
    est = strong if frame % 2 == 0 else weak
    applied = controller_step(state, stream_snrs(est, 2.0, 1.0, "SM"), stream_snrs(est, 2.0, 1.0, "SD"), policy)
    sel = state.pending
    tag = "strong" if frame % 2 == 0 else "weak"
    print(f"frame {frame}: channel {tag:<6} applied {applied.name:<7} -> selected {sel.name}")
