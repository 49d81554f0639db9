"""Framing tests: RRC shaping, frame layout, CP, preamble sync."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_chain import (
    admissible_last,
    assert_close,
    frame_specs,
    make_payload,
    ref_matched_filter,
    ref_sync_metric,
    ref_synchronize,
    received,
    rrc_shape,
)

from vlclink import framing, make_rng, qam_demap, qam_map
from vlclink.channel import apply_channel, awgn
from vlclink.errors import ParameterError, SyncNotFound
from vlclink.framing import (
    SYNC_THRESHOLD,
    FrameSpec,
    _band_pair,
    _best_start,
    _upsample_and_shape,
    build_head,
    build_tx_symbols,
    matched_filter_downsample,
    mseq,
    pilot_symbols,
    rrc_taps,
    synchronize,
)

SPEC = FrameSpec()


class TestRrcTaps:
    def test_shape_symmetry_energy(self):
        taps = rrc_taps(SPEC)   # rolloff 0.35, sps 4, span 10
        assert taps.size == 41
        assert np.array_equal(taps, taps[::-1])
        assert np.sum(taps**2) == pytest.approx(1.0, abs=1e-9)

    def test_nyquist_cascade(self):
        # Self-convolution sampled at symbol spacing approximates an impulse.
        # The span-10 truncation leaves residual ISI near 5e-3 per lag
        # (measured); longer spans shrink it but never to zero.
        taps = rrc_taps(SPEC)
        cascade = np.convolve(taps, taps)
        center = taps.size - 1
        assert cascade[center] == pytest.approx(1.0, abs=1e-9)
        lags = range(1, (cascade.size - 1 - center) // 4 + 1)
        assert max(abs(cascade[center + 4 * m]) for m in lags) < 5e-3

    def test_rolloff_one_singularity_handled(self):
        taps = rrc_taps(FrameSpec(rolloff=1.0))
        assert np.all(np.isfinite(taps))
        assert np.sum(taps**2) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("rolloff, sps", [(0.25, 4), (0.5, 2), (1.0, 4)])
    def test_singular_taps_are_the_limit_of_the_regular_formula(self, rolloff, sps):
        # a tap falls on t = +-1/(4 rolloff), where the regular formula is 0/0: the closed form
        # there must be its two-sided limit, scaled as the zero tap is
        spec = FrameSpec(rolloff=rolloff, sps=sps)
        taps = rrc_taps(spec)
        t = (np.arange(taps.size) - (taps.size - 1) / 2.0) / sps
        scale = taps[taps.size // 2] / (1.0 - rolloff + 4.0 * rolloff / np.pi)

        def regular(t):
            num = np.sin(np.pi * t * (1 - rolloff)) + 4 * rolloff * t * np.cos(np.pi * t * (1 + rolloff))
            return num / (np.pi * t * (1 - (4 * rolloff * t) ** 2))

        singular = np.flatnonzero(np.isclose(np.abs(t), 1.0 / (4.0 * rolloff)))
        assert singular.size == 2
        for k in singular:
            limit = 0.5 * (regular(t[k] - 1e-6) + regular(t[k] + 1e-6))
            assert taps[k] == pytest.approx(scale * limit, rel=1e-6)

    def test_parameter_errors(self):
        # the taps' parameters are a FrameSpec's, which checks them and names the one at fault
        for attr, value in (("rolloff", 0.0), ("sps", 1), ("rrc_span", 2)):
            with pytest.raises(ParameterError) as err:
                FrameSpec(**{attr: value})
            assert err.value.field == attr

    def test_one_table_per_spec(self):
        assert rrc_taps(FrameSpec()) is rrc_taps(SPEC)


class TestTapMatrix:
    @given(frame_specs())
    @settings(max_examples=60, deadline=None)
    def test_matched_filter_matrix_has_the_capped_size(self, spec):
        # ScenarioConfig bounds 16 (rrc_span + 1)^2 sps by MAX_TAP_MATRIX_BYTES: the bytes of this matrix
        bands = _band_pair(rrc_taps(spec)[::-1].tobytes(), spec.sps)
        assert bands.nbytes == 16 * (spec.rrc_span + 1) ** 2 * spec.sps


class TestPreamble:
    def test_msequence_circular_autocorrelation(self):
        seq = mseq(63)
        assert set(np.unique(seq)) == {-1.0, 1.0}
        for lag in range(63):
            acf = int(round(float(np.sum(seq * np.roll(seq, lag)))))
            assert acf == (63 if lag == 0 else -1)

    @pytest.mark.parametrize("length", [7, 15, 31, 127])
    def test_other_lengths_are_maximal(self, length):
        seq = mseq(length)
        for lag in range(1, length):
            assert int(round(float(np.sum(seq * np.roll(seq, lag))))) == -1

    def test_pilots_are_unit_power_and_shifted(self):
        pilots = pilot_symbols(SPEC)
        assert pilots.size == SPEC.pilot_len
        assert np.all(np.abs(pilots) == 1.0)
        assert not np.array_equal(pilots, mseq(SPEC.preamble_len)[: SPEC.pilot_len])


def cp_and_payload(payload: np.ndarray, cp_len: int) -> np.ndarray:
    """The CP and payload segments of the frame `build_tx_symbols` assembles
    from one payload row."""
    spec = FrameSpec(payload_len=payload.size, cp_len=cp_len)
    return build_tx_symbols(payload[None, :], spec)[0, spec.cp :]


class TestCyclicPrefix:
    def test_zero_length_is_identity(self):
        x = np.arange(5).astype(complex)
        assert np.array_equal(cp_and_payload(x, 0), x)

    def test_documented_example(self):
        x = np.array([1, 2, 3, 4], dtype=complex)  # [a,b,c,d]
        assert np.array_equal(cp_and_payload(x, 2), np.array([3, 4, 1, 2, 3, 4], dtype=complex))

    def test_length_error(self):
        # a CP as long as the payload is rejected with the frame spec
        with pytest.raises(ParameterError):
            FrameSpec(payload_len=3, cp_len=3)

    @given(st.integers(0, 7), st.integers(8, 40), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, cp_len, n, seed):
        rng = make_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        with_cp = cp_and_payload(x, cp_len)
        assert np.array_equal(with_cp[cp_len:], x)
        assert np.array_equal(with_cp[:cp_len], x[n - cp_len :])


class TestBuildFrame:
    def test_layout_offsets_closed_form(self):
        assert SPEC.pilot1 == SPEC.preamble_len
        assert SPEC.pilot2 == SPEC.preamble_len + SPEC.pilot_len
        assert SPEC.cp == SPEC.preamble_len + 2 * SPEC.pilot_len
        assert SPEC.payload == SPEC.cp + SPEC.cp_len
        assert SPEC.n_symbols == SPEC.preamble_len + 2 * SPEC.pilot_len + SPEC.cp_len + SPEC.payload_len

    def test_pilot_slots_time_orthogonal(self):
        symbols = build_tx_symbols(make_payload(make_rng(1), 16, SPEC, "SM")[1], SPEC)
        n = SPEC.pilot_len
        b1 = symbols[0]
        b2 = symbols[1]
        assert np.all(b2[SPEC.pilot1 : SPEC.pilot1 + n] == 0)
        assert np.all(b1[SPEC.pilot2 : SPEC.pilot2 + n] == 0)
        seg1 = symbols[0, SPEC.pilot1 : SPEC.pilot2 + n]
        seg2 = symbols[1, SPEC.pilot1 : SPEC.pilot2 + n]
        assert np.vdot(seg1, seg2) == 0.0  # exact, time multiplexed

    def test_cp_copies_payload_tail(self):
        bits, payload = make_payload(make_rng(2), 64, SPEC, "SM")
        symbols = build_tx_symbols(payload, SPEC)
        for b in range(2):
            cp = symbols[b, SPEC.cp : SPEC.cp + SPEC.cp_len]
            assert np.array_equal(cp, payload[b, -SPEC.cp_len :])


def ref_symbols(payload: np.ndarray, spec: FrameSpec) -> np.ndarray:
    """Frame symbols assembled segment by segment from a (2, payload_len)
    payload, as the layout table in the README reads."""
    symbols = np.zeros((2, spec.n_symbols), dtype=complex)
    symbols[:, : spec.pilot1] = mseq(spec.preamble_len).astype(np.complex128)
    symbols[0, spec.pilot1 : spec.pilot2] = pilot_symbols(spec)
    symbols[1, spec.pilot2 : spec.cp] = pilot_symbols(spec)
    for b in range(2):
        symbols[b, spec.cp :] = np.concatenate([payload[b, spec.payload_len - spec.cp_len :], payload[b]])
    return symbols


class TestTxAssembly:
    @given(st.sampled_from(["SM", "SD"]), st.integers(1, 40), st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_segment_assembly(self, scheme, payload_len, data):
        spec = FrameSpec(
            preamble_len=data.draw(st.sampled_from([7, 15, 31, 63, 127])),
            pilot_len=data.draw(st.integers(4, 12)),
            payload_len=payload_len,
            cp_len=data.draw(st.one_of(st.just(0), st.integers(0, payload_len - 1))),
        )
        rng = make_rng(data.draw(st.integers(0, 2**32 - 1)))
        rows = 2 if scheme == "SM" else 1
        payload = rng.standard_normal((rows, payload_len)) + 1j * rng.standard_normal((rows, payload_len))
        both = np.broadcast_to(payload, (2, payload_len))
        want = ref_symbols(both, spec)
        got = build_tx_symbols(payload, spec)
        assert np.array_equal(got.view(np.float64), want.view(np.float64))

    def test_cp_len_zero(self):
        spec = FrameSpec(payload_len=16, cp_len=0)
        payload = np.arange(32.0).reshape(2, 16) + 0.5j
        assert np.array_equal(build_tx_symbols(payload, spec), ref_symbols(payload, spec))

    def test_each_call_returns_its_own_writeable_frame(self):
        payload = make_payload(make_rng(3), 16, SPEC, "SM")[1]
        first, second = build_tx_symbols(payload, SPEC), build_tx_symbols(payload, SPEC)
        assert first.flags.writeable and second.flags.writeable
        assert not np.shares_memory(first, second)
        first[:] = 0.0   # scribbling on one frame reaches neither the other nor the next
        assert np.array_equal(second, ref_symbols(payload, SPEC))
        assert np.array_equal(build_tx_symbols(payload, SPEC), ref_symbols(payload, SPEC))


class TestLoopback:
    def test_noise_free_recovery(self):
        # Zero-noise loopback: residual error is the truncated-RRC ISI floor,
        # measured near 2e-2 peak / 8e-3 rms at the default span of 10.
        bits, payload = make_payload(make_rng(4), 256, SPEC, "SM")
        samples = rrc_shape(build_tx_symbols(payload, SPEC), SPEC)
        for b in range(2):
            syms = ref_matched_filter(samples[b], SPEC, 0, SPEC.n_symbols)
            got = syms[SPEC.payload : SPEC.n_symbols]
            err = np.abs(got - payload[b])
            assert err.max() < 0.03
            rms = math.sqrt(float(np.mean(err**2)) / float(np.mean(np.abs(payload[b]) ** 2)))
            assert rms < 0.01
            # bit-exact despite the ISI floor: margin to half minimum distance
            back = qam_demap(got, 256)
            ref_bits = bits[b] if bits.ndim == 2 else bits
            assert np.array_equal(back, ref_bits)

    def test_mistimed_by_half_symbol_degrades(self):
        _, payload = make_payload(make_rng(5), 4, SPEC, "SM")
        samples = rrc_shape(build_tx_symbols(payload, SPEC), SPEC)
        syms = ref_matched_filter(samples[0], SPEC, SPEC.sps // 2, SPEC.n_symbols - 1)
        got = syms[SPEC.payload : SPEC.n_symbols - 1]
        ref = payload[0][: got.size]
        err = math.sqrt(float(np.sum(np.abs(got - ref) ** 2) / np.sum(np.abs(ref) ** 2)))
        assert err > 0.1

    def test_zero_input_zero_output(self):
        out = matched_filter_downsample(np.zeros((2, 2, 4096)), SPEC, 0, 100)
        assert out.shape == (2, 2, 100)
        assert np.all(out == 0)

    def test_noise_is_read_in_place(self, monkeypatch):
        # the sweeps matched-filter every frame's noise buffer, so it must not be copied
        noise = make_rng(3).standard_normal((2, 2, 4096))
        before = noise.copy()
        seen = []
        block_fir = framing._block_fir
        monkeypatch.setattr(framing, "_block_fir", lambda x, *args: seen.append(x) or block_fir(x, *args))
        matched_filter_downsample(noise, SPEC, 100, 50)
        assert np.shares_memory(seen[0], noise)
        assert np.array_equal(noise, before)

    def test_range_errors(self):
        with pytest.raises(ParameterError, match="start 70 outside stream of 64 samples"):
            matched_filter_downsample(np.zeros(64), SPEC, 70, 0)
        with pytest.raises(ParameterError, match="need 100"):
            matched_filter_downsample(np.zeros(64), SPEC, 0, 100)


class TestSynchronize:
    def test_clean_frame_at_known_offset(self):
        _, payload = make_payload(make_rng(6), 4, SPEC, "SM")
        samples = rrc_shape(build_tx_symbols(payload, SPEC), SPEC)
        stream = np.concatenate([np.zeros(1000, complex), samples[0], np.zeros(50, complex)])
        assert synchronize(stream, SPEC) == 1000

    def test_awgn_only_raises(self):
        rng = make_rng(7)
        noise = (rng.standard_normal(6000) + 1j * rng.standard_normal(6000)) / math.sqrt(2)
        with pytest.raises(SyncNotFound):
            synchronize(noise, SPEC)

    def test_zero_db_detection_rate(self):
        # 0 dB SNR per transmitted sample (frame power spreads over sps
        # samples per symbol).  Also checked at the harsher per-symbol
        # reading, where the exact-hit rate stays above 98%.
        spec = FrameSpec(payload_len=256)
        rng = make_rng(42)
        bits = rng.integers(0, 2, size=(2, 2 * 256))
        payload = np.stack([qam_map(bits[0], 4), qam_map(bits[1], 4)])
        samples = rrc_shape(build_tx_symbols(payload, spec), spec)
        mean_power = float(np.mean(np.abs(samples[0]) ** 2))
        offset = 500
        tx = np.concatenate([np.zeros((2, offset), complex), samples, np.zeros((2, 40), complex)], axis=1)

        def hit_rate(n0: float, trials: int) -> float:
            hits = 0
            for t in range(trials):
                rx = apply_channel(tx, np.eye(2, dtype=complex), awgn(tx.shape, n0, make_rng(10_000 + t)))
                try:
                    hits += synchronize(rx[0], spec) == offset
                except SyncNotFound:
                    pass
            return hits / trials

        assert hit_rate(mean_power, 300) >= 0.99
        assert hit_rate(1.0, 1000) >= 0.98


# The production front end filters only the samples its output depends on;
# these tests pin it to the full-convolution reference in
# tests/reference_chain.py.


SMALL = FrameSpec(payload_len=256)


class TestFrontEndEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "case",
        [
            ("clean", [[1.0, 0.3], [0.2, 0.9]], None),
            ("0dB", [[1.0, 0.3], [0.2, 0.9]], 0.25),
            ("branch-blocked", [[1.0, 0.3], [0.0, 0.0]], 0.25),
        ],
        ids=lambda c: c[0],
    )
    def test_synchronize_matches_reference(self, case, seed):
        _, h, n0 = case
        offset, rx = received(SMALL, seed, h, n0)
        ref = ref_synchronize(rx, SMALL)
        last = admissible_last(SMALL, rx.shape[1])
        assert ref is not None and ref <= last  # the reference decodes this frame
        assert synchronize(rx, SMALL) == ref == offset
        for j in range(2):
            peak, metric = ref_sync_metric(rx[j], SMALL)
            if peak <= last:
                got_peak, got_metric = _best_start(rx[j], SMALL, last)
                assert got_peak == peak
                assert got_metric == pytest.approx(metric, rel=1e-9)

    def test_synchronize_matches_reference_at_default_size(self):
        offset, rx = received(SPEC, 99, [[1.0, 0.4], [0.4, 1.0]], 1.0)
        assert synchronize(rx, SPEC) == ref_synchronize(rx, SPEC) == offset

    def test_start_without_room_for_a_frame_is_not_chosen(self):
        # The stream ends one symbol before the frame's last symbol instant,
        # so the last decodable start lies one symbol before the frame, where
        # the preamble does not correlate.  The full-stream reference still
        # peaks at the frame.
        _, payload = make_payload(make_rng(9), 4, SMALL, "SM")
        tx = rrc_shape(build_tx_symbols(payload, SMALL), SMALL)
        offset = 100
        stream = np.concatenate([np.zeros((2, offset), complex), tx], axis=1)
        stream = stream[:, : offset + (SMALL.n_symbols - 2) * SMALL.sps + 1]
        assert ref_synchronize(stream, SMALL) == offset
        with pytest.raises(SyncNotFound):
            synchronize(stream, SMALL)

    def test_equal_metrics_pick_branch_zero(self):
        # Branch 1 carries the same frame one symbol later: the normalised
        # metrics tie exactly and the peaks differ.
        _, payload = make_payload(make_rng(10), 4, SMALL, "SM")
        tx = rrc_shape(build_tx_symbols(payload, SMALL), SMALL)[0]
        pad = np.zeros(200, complex)
        early = np.concatenate([pad[:100], tx, pad])
        late = np.concatenate([pad[: 100 + SMALL.sps], tx, pad[SMALL.sps :]])
        assert synchronize(np.stack([early, late]), SMALL) == 100
        assert synchronize(np.stack([late, early]), SMALL) == 100 + SMALL.sps

    @pytest.mark.parametrize("seed", range(4))
    def test_matched_filter_matches_reference(self, seed):
        rng = make_rng(seed)
        n = int(rng.integers(200, 2000))
        x = rng.standard_normal((2, 2, n))   # the noise layout: real parts, then imaginary parts
        start = int(rng.integers(0, n))
        available = (n - 1 - start) // SMALL.sps + 1
        for count in (available, int(rng.integers(0, available + 1)), 0):
            got = matched_filter_downsample(x, SMALL, start, count)
            assert got.shape == (2, 2, count)
            for part in range(2):
                for j in range(2):
                    ref = ref_matched_filter(x[part, j], SMALL, start, count)
                    np.testing.assert_allclose(got[part, j], ref, rtol=1e-12)
                    np.testing.assert_allclose(
                        matched_filter_downsample(x[part, j], SMALL, start, count), ref, rtol=1e-12
                    )

    @given(frame_specs(), st.integers(1, 300), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_shaping_matches_zero_stuffed_convolution(self, spec, n, seed):
        rng = make_rng(seed)
        symbols = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        assert_close(_upsample_and_shape(symbols, spec), rrc_shape(symbols, spec))

    @pytest.mark.parametrize("shape", [(0,), (1,), (64,), (2, 64), (2, (SPEC.n_symbols - 1) * SPEC.sps)])
    def test_stream_shorter_than_frame_raises_sync_not_found(self, shape):
        with pytest.raises(SyncNotFound):
            synchronize(np.ones(shape, complex), SPEC)

    def test_shortest_decodable_stream(self):
        # One frame's worth of symbol instants: start 0 is the only candidate.
        _, payload = make_payload(make_rng(8), 4, SPEC, "SM")
        samples = rrc_shape(build_tx_symbols(payload, SPEC), SPEC)
        stream = samples[:, : (SPEC.n_symbols - 1) * SPEC.sps + 1]
        assert synchronize(stream, SPEC) == 0
        parts = np.stack([stream.real, stream.imag])
        assert matched_filter_downsample(parts, SPEC, 0, SPEC.n_symbols).shape == (2, 2, SPEC.n_symbols)


class TestSyncDifferential:
    """`_best_start` and `synchronize` against the reference correlation over
    random specs.  The reference is restricted to the admissible starts <= last:
    the whole-stream peak, and even the true offset, may lie past `last`,
    where sync must not look."""

    @given(frame_specs(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_best_start_and_two_branch_rule_match_reference(self, spec, seed):
        rng = make_rng(seed)
        _, payload = make_payload(rng, 4, spec, "SM")
        offset = int(rng.integers(1, 4 * spec.sps))
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        tx = np.concatenate(
            [np.zeros((2, offset)), rrc_shape(build_tx_symbols(payload, spec), spec), np.zeros((2, 63))], axis=1
        )
        rx = h @ tx + 0.3 * (rng.standard_normal(tx.shape) + 1j * rng.standard_normal(tx.shape))
        # the frame starts one sample past the last admissible start, at it, and well before it
        for last in (offset - 1, offset, admissible_last(spec, rx.shape[1])):
            stream = rx[:, : last + 1 + (spec.n_symbols - 1) * spec.sps]
            found = []
            for branch in stream:
                peak, metric = ref_sync_metric(branch, spec, last)
                got_peak, got_metric = _best_start(branch, spec, last)
                assert got_peak == peak <= last
                assert got_metric == pytest.approx(metric, rel=1e-9)
                found.append((got_peak, got_metric))
            (i0, m0), (i1, m1) = found
            if max(m0, m1) < SYNC_THRESHOLD:
                with pytest.raises(SyncNotFound):
                    synchronize(stream, spec)
            else:
                assert synchronize(stream, spec) == (i0 if m0 >= m1 else i1)

    def test_stream_short_of_the_filter_reach_matches_reference(self):
        # the matched filter at the last admissible start reaches past the stream's end, so
        # `_best_start` pads the stream with zeros: sync reads 102 samples of these 96
        spec = FrameSpec(preamble_len=7, pilot_len=4, payload_len=1, cp_len=0, sps=2, rrc_span=12)
        n = spec.n_samples + 40
        last = admissible_last(spec, n)
        assert last + (spec.preamble_len - 1) * spec.sps + spec.ntaps == 102 > n == 96
        rng = make_rng(12)
        _, payload = make_payload(rng, 4, spec, "SM")
        shaped = rrc_shape(build_tx_symbols(payload, spec), spec)
        tx = np.concatenate([np.zeros((2, 20)), shaped, np.zeros((2, 20))], axis=1)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rx = h @ tx + 0.1 * (rng.standard_normal(tx.shape) + 1j * rng.standard_normal(tx.shape))
        assert rx.shape == (2, n)
        for branch in rx:
            peak, metric = ref_sync_metric(branch, spec, last)
            got_peak, got_metric = _best_start(branch, spec, last)
            assert got_peak == peak
            assert got_metric == pytest.approx(metric, rel=1e-9)
        want = ref_synchronize(rx, spec, last)
        assert want is not None
        assert synchronize(rx, spec) == want

    @given(frame_specs(), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_head_sync_matches_whole_stream_reference(self, spec, seed):
        # sync as the sweeps run it, on the head `build_head` shapes at a random
        # lead, against the reference on the whole stream
        rng = make_rng(seed)
        _, payload = make_payload(rng, 4, spec, "SM")
        symbols = build_tx_symbols(payload, spec)
        lead = int(rng.integers(0, 8 * spec.sps))
        n = lead + spec.n_samples + int(rng.integers(0, 4 * spec.sps))
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        noise = 0.3 * (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n)))
        whole = np.zeros((2, n), dtype=complex)
        whole[:, lead : lead + spec.n_samples] = rrc_shape(symbols, spec)
        want = ref_synchronize(h @ whole + noise, spec, admissible_last(spec, n))
        head = build_head(symbols, spec, lead, n)
        rx_head = h @ head + noise[:, : head.shape[-1]]
        if want is None:
            with pytest.raises(SyncNotFound):
                synchronize(rx_head, spec, stream_len=n)
        else:
            assert synchronize(rx_head, spec, stream_len=n) == want
