"""Symbol-rate frame chain against the sample-rate reference.

`_run_frame` shapes only the stream head that sync reads, computes the
noise-free received symbols at symbol rate through the RRC x RRC cascade
(`matched_filter_frame`) and matched-filters the noise on its own.  The
sample-rate chain it replaced lives in `tests/reference_chain.py`: shape the
whole frame, pad it, mix it and add complex noise at every sample, sync on
the whole stream and matched-filter it.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_chain import (
    assert_close,
    frame_specs,
    ref_matched_filter,
    reference_chain,
    shaped_stream,
    stream_len,
)

from test_lockstep import reference_bits
from vlclink import MODES, Mode, ScenarioConfig, channel_matrix, estimate_channel, make_rng
from vlclink import scenario
from vlclink.errors import ParameterError, SyncNotFound
from vlclink.framing import (
    FrameSpec,
    build_head,
    build_tx_symbols,
    matched_filter_frame,
    pilot_symbols,
    synchronize,
)
from vlclink.scenario import (
    LEAD_PAD,
    N0,
    TAIL_PAD,
    _ROLE_NOISE,
    _frame_bits,
    _FrontEnds,
    _run_frame,
)


class TestCascadeKernel:
    @given(frame_specs(), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_matched_filter_of_padded_stream(self, spec, seed):
        # Every start offset d = start - LEAD_PAD from the first sample of the
        # stream to TAIL_PAD + ntaps - 1, past TAIL_PAD too, where the matched
        # filter reads zeros beyond the stream end; d takes every phase mod sps.
        rng = make_rng(seed)
        symbols = rng.standard_normal((2, spec.n_symbols)) + 1j * rng.standard_normal((2, spec.n_symbols))
        stream = shaped_stream(symbols, spec)
        for d in range(-LEAD_PAD, TAIL_PAD + spec.ntaps):
            want = [ref_matched_filter(branch, spec, LEAD_PAD + d, spec.n_symbols) for branch in stream]
            assert_close(matched_filter_frame(symbols, spec, d), np.stack(want))

    @given(frame_specs(), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_head_is_the_stream_prefix_sync_reads(self, spec, seed):
        rng = make_rng(seed)
        symbols = rng.standard_normal((2, spec.n_symbols)) + 1j * rng.standard_normal((2, spec.n_symbols))
        stream = shaped_stream(symbols, spec)
        head = build_head(symbols, spec, LEAD_PAD, stream.shape[-1])
        assert_close(head, stream[:, : head.shape[-1]])

    def test_sync_needs_the_whole_head(self):
        spec = FrameSpec(payload_len=64)
        symbols = build_tx_symbols(np.ones((1, 64)), spec)
        head = build_head(symbols, spec, LEAD_PAD, stream_len(spec))
        assert synchronize(head, spec, stream_len=stream_len(spec)) == LEAD_PAD
        with pytest.raises(ParameterError, match="sync reads"):
            synchronize(head[:, :-1], spec, stream_len=stream_len(spec))


class TestRunFrameMatchesSampleRateChain:
    @given(frame_specs(), st.sampled_from(["SM", "SD"]), st.integers(0, 2**31 - 1))
    @example(FrameSpec(preamble_len=15, pilot_len=4, payload_len=31, cp_len=0, sps=2, rolloff=1.0, rrc_span=5),
             "SM", 515)   # best correlation 0.598: the frame is lost in both chains
    @settings(max_examples=30, deadline=None)
    def test_symbols_estimate_and_sync_index(self, spec, scheme, seed):
        rng = make_rng(seed)
        h_eff = 30.0 * (np.eye(2) + 0.2 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))))
        mode = Mode(scheme, 4)
        front_end = _FrontEnds(h_eff, spec)
        bits = front_end.draw((seed,), 0, _frame_bits(mode, spec))
        seen = {}

        def spy(name, fn):
            def wrapped(*args):
                seen[name] = args
                return fn(*args)
            return wrapped

        with pytest.MonkeyPatch.context() as mp:
            for name in ("build_tx_symbols", "estimate_channel", "detect_sm_zf", "combine_sd_mrc"):
                mp.setattr(scenario, name, spy(name, getattr(scenario, name)))
            try:
                result = _run_frame(mode, bits, front_end)   # the chain calls the detector
            except SyncNotFound:
                result = None

        lay = spec.layout()
        payload = np.broadcast_to(seen["build_tx_symbols"][0], (2, spec.payload_len))
        if result is None:
            # the mixing channel can keep a short preamble under the threshold; the reference must lose it too
            with pytest.raises(AssertionError, match="the reference finds no frame"):
                reference_chain(payload, h_eff, spec, front_end.noise)
            return
        start, symbols = reference_chain(payload, h_eff, spec, front_end.noise)
        assert result.sync_index == start
        n_p = spec.pilot_len
        want_segments = symbols[:, lay.pilot1 : lay.pilot1 + 2 * n_p].reshape(2, 2, n_p)
        assert_close(seen["estimate_channel"][0], want_segments)
        assert_close(seen["detect_sm_zf" if scheme == "SM" else "combine_sd_mrc"][0], symbols[:, lay.payload :])
        want_est = estimate_channel(want_segments, pilot_symbols(spec))
        assert_close(result.est.h_hat, want_est.h_hat)


class TestFrameNoise:
    def test_draws_into_the_buffer_bit_identical_to_the_complex_draw(self):
        spec = FrameSpec(payload_len=256)
        shape = (2, stream_len(spec))
        rng = make_rng(np.random.SeedSequence((5, 3, _ROLE_NOISE)))
        sigma = math.sqrt(N0 / 2.0)
        former = np.empty(shape, dtype=np.complex128)
        former.real = sigma * rng.standard_normal(shape)
        former.imag = sigma * rng.standard_normal(shape)

        buf = np.full((2,) + shape, np.nan)
        front_end = _FrontEnds(np.eye(2), spec, buf)
        front_end.draw((5,), 3, 0)
        assert front_end.noise is buf
        assert np.array_equal(buf[0], former.real)
        assert np.array_equal(buf[1], former.imag)
        fresh = _FrontEnds(np.eye(2), spec)
        fresh.draw((5,), 3, 0)
        assert np.array_equal(fresh.noise, buf)


class TestZeroNoise:
    @pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.name)
    @pytest.mark.parametrize("pilot_len", [32, 8], ids=["head-before-payload", "head-reaches-payload"])
    def test_every_mode_decodes_error_free_on_the_clear_channel(self, mode, pilot_len):
        cfg = ScenarioConfig(pilot_len=pilot_len)
        spec = cfg.frame_spec()
        h_norm, _ = channel_matrix(cfg.geometry(obstacle_x=None))
        front_end = _FrontEnds(h_norm, spec, np.zeros((2, 2, stream_len(spec))))
        result = _run_frame(mode, reference_bits((7,), 0, _frame_bits(mode, spec)), front_end)
        assert result.sync_index == LEAD_PAD
        assert result.bits == _frame_bits(mode, spec)
        assert result.errors == 0
