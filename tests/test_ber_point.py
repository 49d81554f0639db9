"""BER points through the lockstep engine against the former per-point loop.

`measure_mode_ber` is one run in the engine that the blockage positions also use,
with the stop rule "at least one frame, then `min_errors` errors or
`max_bits` bits".  The reference below is the loop it replaced: frame after
frame, each with its own noise drawn by the former complex formula, until
the rule holds.  Both must give the same (errors, bits), exactly.
"""

import math

import numpy as np
import pytest

from vlclink import Mode, channel_matrix, parse_config, run_ber_sweep
from vlclink import scenario
from vlclink.numerics import make_rng
from vlclink.scenario import (
    LEAD_PAD,
    N0,
    TAIL_PAD,
    _BER_SWEEP_TAG,
    _ROLE_BITS,
    _ROLE_NOISE,
    _FrontEnds,
    _frame_bits,
    _packed_bits,
    _run_frame,
    measure_mode_ber,
)

SMALL_TEXT = """
frame.payload_len = 512
frame.pilot_len = 16
"""

SEED = (3, _BER_SWEEP_TAG, 1, 2)


def reference_noise(spec, seed, frame_idx):
    """The former draw: all real parts, then all imaginary parts, each times sigma."""
    rng = make_rng(np.random.SeedSequence(seed + (frame_idx, _ROLE_NOISE)))
    shape = (2, LEAD_PAD + spec.n_samples + TAIL_PAD)
    sigma = math.sqrt(N0 / 2.0)
    w = np.empty(shape, dtype=np.complex128)
    w.real = sigma * rng.standard_normal(shape)
    w.imag = sigma * rng.standard_normal(shape)
    return np.stack([w.real, w.imag])


def reference_measure_mode_ber(config, mode, p_total, seed, min_errors, max_bits):
    """The former `while` loop; (errors, bits, frames run)."""
    spec = config.frame_spec()
    h_norm, _ = channel_matrix(config.geometry(obstacle_x=None))
    h_eff = math.sqrt(p_total / 2.0) * h_norm
    errors = 0
    bits = 0
    frame_idx = 0
    while bits == 0 or (errors < min_errors and bits < max_bits):
        bits_rng = make_rng(np.random.SeedSequence(seed + (frame_idx, _ROLE_BITS)))
        result = _run_frame(
            mode,
            _packed_bits(bits_rng, _frame_bits(mode, spec)),
            _FrontEnds(h_eff, spec, reference_noise(spec, seed, frame_idx)),
        )
        errors += result.errors
        bits += result.bits
        frame_idx += 1
    return errors, bits, frame_idx


class TestMatchesFormerLoop:
    # (mode, snr_db, min_errors, max_bits, how the point stops)
    CASES = [
        (Mode("SD", 4), 8.0, 40, 60_000, "min_errors"),
        (Mode("SM", 16), 20.0, 40, 60_000, "min_errors"),
        (Mode("SD", 4), 16.0, 40, 20_000, "max_bits"),
        (Mode("SM", 16), 24.0, 40, 20_000, "max_bits"),
        (Mode("SD", 4), 4.0, 40, 60_000, "single"),
        (Mode("SM", 64), 30.0, 40, 1, "single"),
    ]

    @pytest.mark.parametrize(
        "mode, snr_db, min_errors, max_bits, stop", CASES, ids=[f"{c[0].name}-{c[1]:g}dB-{c[4]}" for c in CASES]
    )
    def test_same_errors_and_bits(self, mode, snr_db, min_errors, max_bits, stop):
        cfg = parse_config(SMALL_TEXT)
        p_total = 10.0 ** (snr_db / 10.0)
        errors, bits, frames = reference_measure_mode_ber(cfg, mode, p_total, SEED, min_errors, max_bits)
        assert measure_mode_ber(cfg, mode, p_total, SEED, min_errors, max_bits) == (errors, bits)
        if stop == "single":
            assert frames == 1
        elif stop == "min_errors":
            assert frames > 1 and errors >= min_errors and bits < max_bits
        else:
            assert frames > 1 and errors < min_errors and bits >= max_bits

    def test_sweep_points_seeded_by_curve_and_point(self):
        cfg = parse_config(SMALL_TEXT + "bersweep.snr_start = 10\nbersweep.snr_stop = 22\nbersweep.snr_step = 12\n"
                           "bersweep.max_bits = 8000\nbersweep.min_errors = 20\n")
        rows = run_ber_sweep(cfg, jobs=1)
        assert len(rows) == 16
        for i, row in enumerate(rows):
            seed = (cfg.base_seed, _BER_SWEEP_TAG, i // 2, i % 2)
            want = reference_measure_mode_ber(
                cfg, Mode(row.scheme, row.order), 10.0 ** (row.snr_db / 10.0), seed, 20, 8000
            )
            assert (row.errors, row.bits) == want[:2]


class TestNoQualityReads:
    def test_ber_point_computes_no_stream_snrs(self, monkeypatch):
        """A BER point reads errors and bits only, and computes no stream SNRs."""
        calls = []
        real = scenario.stream_snrs

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(scenario, "stream_snrs", spy)
        cfg = parse_config(SMALL_TEXT + "sweep.positions.start = 0\nsweep.positions.stop = 0\nsnr_db = 30\n"
                           "sweep.payload_bits = 4000\n")
        measure_mode_ber(cfg, Mode("SM", 16), 10.0 ** 2.4, SEED, 40, 20_000)
        assert calls == []
        scenario._run_position(cfg, 0, 0.0, 10.0 ** 3)   # the spies do see the blockage runs' quality reads
        assert calls

    def test_ber_frames_carry_errors_and_both_powers(self, monkeypatch):
        """A BER point's frames go through the whole chain: each record holds
        its bit errors and both EVM powers, the same as the frame run alone."""
        results = []
        real = scenario._run_frame

        def spy(*args):
            results.append(real(*args))
            return results[-1]

        monkeypatch.setattr(scenario, "_run_frame", spy)
        cfg = parse_config(SMALL_TEXT)
        errors, bits = measure_mode_ber(cfg, Mode("SD", 4), 10.0 ** 1.6, SEED, 40, 20_000)
        assert len(results) > 1
        assert sum(r.errors for r in results) == errors and sum(r.bits for r in results) == bits
        assert all(r.err_power > 0.0 and r.ref_power > 0.0 for r in results)
        spec = cfg.frame_spec()
        front_end = _FrontEnds(math.sqrt(10.0 ** 1.6 / 2.0) * channel_matrix(cfg.geometry())[0], spec)
        alone = real(Mode("SD", 4), front_end.draw(SEED, 0, _frame_bits(Mode("SD", 4), spec)), front_end)
        assert (alone.errors, alone.err_power, alone.ref_power) == (
            results[0].errors, results[0].err_power, results[0].ref_power
        )
