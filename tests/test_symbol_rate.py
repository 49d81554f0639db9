"""Symbol-rate frame chain against the sample-rate chain it replaced.

`_run_frame` shapes only the stream head that sync reads, computes the
noise-free received symbols at symbol rate through the RRC x RRC cascade
(`matched_filter_frame`) and matched-filters the noise on its own.  The
references below keep the sample-rate chain: shape the whole frame, pad it,
mix it and add complex noise at every sample, sync on the whole stream and
matched-filter it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlclink import MODES, Mode, ScenarioConfig, channel_matrix, estimate_channel, make_rng
from vlclink import scenario
from vlclink.errors import LengthError
from vlclink.framing import (
    FrameSpec,
    build_frame,
    build_head,
    matched_filter_downsample,
    matched_filter_frame,
    pilot_symbols,
    rrc_taps,
    synchronize,
)
from vlclink.scenario import (
    LEAD_PAD,
    N0,
    TAIL_PAD,
    _ROLE_NOISE,
    _bits_rng,
    _frame_bits,
    _frame_noise,
    _FrontEnds,
    _packed_bits,
    _run_frame,
)


@st.composite
def frame_specs(draw):
    """Valid specs: preamble 7..127, sps 2..8, any rolloff, even span * sps."""
    sps = draw(st.integers(2, 8))
    span = draw(st.integers(4, 12).filter(lambda span: span * sps % 2 == 0))
    payload_len = draw(st.integers(1, 40))
    return FrameSpec(
        preamble_len=draw(st.sampled_from([7, 15, 31, 63, 127])),
        pilot_len=draw(st.integers(4, 12)),
        payload_len=payload_len,
        cp_len=draw(st.integers(0, payload_len - 1)),
        sps=sps,
        rolloff=draw(st.floats(0.0, 1.0, exclude_min=True)),
        rrc_span=span,
    )


def stream_len(spec):
    return LEAD_PAD + spec.n_samples + TAIL_PAD


def shaped_stream(symbols, spec):
    """Zero-stuffed symbols convolved with the RRC taps, at sample LEAD_PAD of the stream."""
    taps = rrc_taps(spec)
    stream = np.zeros((2, stream_len(spec)), dtype=np.complex128)
    for b in range(2):
        up = np.zeros(spec.n_symbols * spec.sps, dtype=np.complex128)
        up[:: spec.sps] = symbols[b]
        stream[b, LEAD_PAD : LEAD_PAD + spec.n_samples] = np.convolve(up, taps)
    return stream


def assert_close(got, want):
    """Equal to rtol 1e-12, the absolute slack scaled to the largest value."""
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * max(float(np.abs(want).max()), 1e-300))


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
            want = matched_filter_downsample(stream, spec, LEAD_PAD + d, spec.n_symbols)
            assert_close(matched_filter_frame(symbols, spec, d), want)

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
        symbols = build_frame(np.ones((2, 64)), spec, "SD").branch_symbols
        head = build_head(symbols, spec, LEAD_PAD, stream_len(spec))
        assert synchronize(head, spec, stream_len=stream_len(spec)) == LEAD_PAD
        with pytest.raises(LengthError):
            synchronize(head[:, :-1], spec, stream_len=stream_len(spec))


def reference_chain(payload, scheme, h_eff, spec, noise):
    """Sample-rate chain: (sync index, received symbols) from the whole stream."""
    frame = build_frame(payload, spec, scheme)
    tx = shaped_stream(frame.branch_symbols, spec)
    rx = h_eff @ tx + (noise[0] + 1j * noise[1])
    start = synchronize(rx, spec)
    return start, matched_filter_downsample(rx, spec, start, spec.n_symbols)


class TestRunFrameMatchesSampleRateChain:
    @given(frame_specs(), st.sampled_from(["SM", "SD"]), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_symbols_estimate_and_sync_index(self, spec, scheme, seed):
        rng = make_rng(seed)
        h_eff = 30.0 * (np.eye(2) + 0.2 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))))
        noise = _frame_noise(spec, (seed,), 0)
        seen = {}

        def spy(name, fn):
            def wrapped(*args):
                seen[name] = args
                return fn(*args)
            return wrapped

        with pytest.MonkeyPatch.context() as mp:
            for name in ("build_tx_symbols", "estimate_channel", "detect_sm_zf", "combine_sd_mrc"):
                mp.setattr(scenario, name, spy(name, getattr(scenario, name)))
            mode = Mode(scheme, 4)
            result = _run_frame(mode, _packed_bits(_bits_rng((seed,), 0), _frame_bits(mode, spec)), _FrontEnds(h_eff, spec, noise))

        lay = spec.layout()
        payload = np.broadcast_to(seen["build_tx_symbols"][0], (2, spec.payload_len))
        start, symbols = reference_chain(payload, scheme, h_eff, spec, noise)
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
        assert _frame_noise(spec, (5,), 3, out=buf) is buf
        assert np.array_equal(buf[0], former.real)
        assert np.array_equal(buf[1], former.imag)
        assert np.array_equal(_frame_noise(spec, (5,), 3), buf)


class TestZeroNoise:
    @pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.name)
    @pytest.mark.parametrize("pilot_len", [32, 8], ids=["head-before-payload", "head-reaches-payload"])
    def test_every_mode_decodes_error_free_on_the_clear_channel(self, mode, pilot_len):
        cfg = ScenarioConfig(pilot_len=pilot_len)
        spec = cfg.frame_spec()
        h_norm, _ = channel_matrix(cfg.geometry(obstacle_x=None))
        front_end = _FrontEnds(h_norm, spec, np.zeros((2, 2, stream_len(spec))))
        result = _run_frame(mode, _packed_bits(_bits_rng((7,), 0), _frame_bits(mode, spec)), front_end)
        assert result.sync_index == LEAD_PAD
        assert result.bits == _frame_bits(mode, spec)
        assert result.errors == 0
