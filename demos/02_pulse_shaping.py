#!/usr/bin/env python3
"""Pulse shaping and framing: RRC cascade, frame layout, loopback, sync.

Run:  python demos/02_pulse_shaping.py
"""

import math

import numpy as np

from vlclink import make_rng, qam_map
from vlclink.framing import (
    FrameSpec,
    build_head,
    build_tx_symbols,
    matched_filter_frame,
    mseq,
    rrc_taps,
    synchronize,
)

spec = FrameSpec()
print("=== Root-raised-cosine cascade ===")
taps = rrc_taps(spec)
cascade = np.convolve(taps, taps)
center = taps.size - 1
print(f"{taps.size} taps, energy {np.sum(taps**2):.12f}")
print(f"cascade at symbol lags 0..5: "
      + " ".join(f"{cascade[center + spec.sps*m]:+.2e}" for m in range(6)))
print("(the nonzero side lags are the truncation ISI floor)")

print("\n=== Preamble ===")
seq = mseq(63)
acf = [int(round(float(np.sum(seq * np.roll(seq, lag))))) for lag in (0, 1, 7, 31)]
print(f"length-63 m-sequence, circular autocorrelation at lags 0,1,7,31: {acf}")

print("\n=== Frame layout (symbol offsets) ===")
lay = spec.layout()
print(f"preamble @ {lay.preamble}, pilot1 @ {lay.pilot1}, pilot2 @ {lay.pilot2}, "
      f"cp @ {lay.cp}, payload @ {lay.payload}, end @ {lay.end}")
print(f"{spec.n_symbols} symbols -> {spec.n_samples} samples at {spec.sps} samples/symbol")

print("\n=== Loopback, no channel and no noise ===")
rng = make_rng(31)
bits = rng.integers(0, 2, size=(2, 8 * spec.payload_len))
payload = np.stack([qam_map(bits[0], 256), qam_map(bits[1], 256)])
tx = build_tx_symbols(payload, spec)
symbols = matched_filter_frame(tx[0], spec, 0)
got = symbols[lay.payload : lay.end]
err = np.abs(got - payload[0])
evm = math.sqrt(float(np.sum(err**2) / np.sum(np.abs(payload[0]) ** 2)))
print(f"payload peak error {err.max():.2e}, EVM {evm:.2e} "
      "(truncated-RRC floor; decisions stay exact for 256-QAM)")

print("\n=== Synchronization against an unknown offset ===")
offset = 1234
n = offset + spec.n_samples + 64
head = build_head(tx[:1], spec, offset, n)[0]   # the part of the stream sync reads
print(f"frame hidden at sample {offset}, synchronize() says {synchronize(head, spec, stream_len=n)}")
