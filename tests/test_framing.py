"""Framing tests: RRC shaping, frame layout, CP, preamble sync."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlclink import make_rng, qam_demap, qam_map
from vlclink.channel import apply_channel, awgn
from vlclink.errors import LengthError, ParameterError, RangeError, SchemeError, SyncNotFound
from vlclink.framing import (
    SYNC_THRESHOLD,
    FrameSpec,
    _best_start,
    _upsample_and_shape,
    build_frame,
    build_symbols,
    build_tx_symbols,
    matched_filter_downsample,
    mseq,
    pilot_symbols,
    preamble_symbols,
    rrc_taps,
    synchronize,
)

SPEC = FrameSpec()


def make_payload(rng, order, spec, scheme):
    k = int(math.log2(order))
    if scheme == "SM":
        bits = rng.integers(0, 2, size=(2, k * spec.payload_len))
        return bits, np.stack([qam_map(bits[0], order), qam_map(bits[1], order)])
    bits = rng.integers(0, 2, size=k * spec.payload_len)
    row = qam_map(bits, order)
    return bits, np.stack([row, row])


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

    def test_parameter_errors(self):
        # the taps' parameters are a FrameSpec's, which checks them and names the one at fault
        for attr, value in (("rolloff", 0.0), ("sps", 1), ("rrc_span", 2)):
            with pytest.raises(ParameterError) as err:
                FrameSpec(**{attr: value})
            assert err.value.field == attr

    def test_one_table_per_spec(self):
        assert rrc_taps(FrameSpec()) is rrc_taps(SPEC)


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
        assert not np.array_equal(pilots, preamble_symbols(SPEC)[: SPEC.pilot_len])


def cp_and_payload(payload: np.ndarray, cp_len: int) -> np.ndarray:
    """The CP and payload segments of the frame `build_tx_symbols` assembles
    from one payload row."""
    spec = FrameSpec(payload_len=payload.size, cp_len=cp_len)
    return build_tx_symbols(payload[None, :], spec)[0, spec.layout().cp :]


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
        lay = build_frame(make_payload(make_rng(0), 4, SPEC, "SM")[1], SPEC, "SM").layout
        assert lay.preamble == 0
        assert lay.pilot1 == SPEC.preamble_len
        assert lay.pilot2 == SPEC.preamble_len + SPEC.pilot_len
        assert lay.cp == SPEC.preamble_len + 2 * SPEC.pilot_len
        assert lay.payload == lay.cp + SPEC.cp_len
        assert lay.end == SPEC.n_symbols

    def test_pilot_slots_time_orthogonal(self):
        frame = build_frame(make_payload(make_rng(1), 16, SPEC, "SM")[1], SPEC, "SM")
        lay = frame.layout
        n = SPEC.pilot_len
        b1 = frame.branch_symbols[0]
        b2 = frame.branch_symbols[1]
        assert np.all(b2[lay.pilot1 : lay.pilot1 + n] == 0)
        assert np.all(b1[lay.pilot2 : lay.pilot2 + n] == 0)
        seg1 = frame.branch_symbols[0, lay.pilot1 : lay.pilot2 + n]
        seg2 = frame.branch_symbols[1, lay.pilot1 : lay.pilot2 + n]
        assert np.vdot(seg1, seg2) == 0.0  # exact, time multiplexed

    def test_cp_copies_payload_tail(self):
        bits, payload = make_payload(make_rng(2), 64, SPEC, "SM")
        frame = build_frame(payload, SPEC, "SM")
        lay = frame.layout
        for b in range(2):
            cp = frame.branch_symbols[b, lay.cp : lay.cp + SPEC.cp_len]
            assert np.array_equal(cp, payload[b, -SPEC.cp_len :])

    def test_sd_requires_identical_branches(self):
        _, payload = make_payload(make_rng(3), 4, SPEC, "SM")
        with pytest.raises(SchemeError):
            build_frame(payload, SPEC, "SD")

    def test_wrong_payload_shape(self):
        with pytest.raises(LengthError):
            build_frame(np.zeros((2, 5), complex), SPEC, "SM")


def ref_symbols(payload: np.ndarray, spec: FrameSpec) -> np.ndarray:
    """Frame symbols assembled segment by segment from a (2, payload_len)
    payload, as the layout table in the README reads."""
    lay = spec.layout()
    symbols = np.zeros((2, spec.n_symbols), dtype=complex)
    symbols[:, : lay.pilot1] = preamble_symbols(spec)
    symbols[0, lay.pilot1 : lay.pilot2] = pilot_symbols(spec)
    symbols[1, lay.pilot2 : lay.cp] = pilot_symbols(spec)
    for b in range(2):
        symbols[b, lay.cp :] = np.concatenate([payload[b, spec.payload_len - spec.cp_len :], payload[b]])
    return symbols


class TestTxTemplate:
    @given(st.sampled_from(["SM", "SD"]), st.integers(1, 40), st.data())
    @settings(max_examples=60, deadline=None)
    def test_template_fill_equals_build_symbols(self, scheme, payload_len, data):
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
        assert np.array_equal(build_symbols(both, spec, scheme).view(np.float64), want.view(np.float64))
        assert got.flags.writeable   # a copy, not the shared template

    def test_cp_len_zero(self):
        spec = FrameSpec(payload_len=16, cp_len=0)
        payload = np.arange(32.0).reshape(2, 16) + 0.5j
        assert np.array_equal(build_tx_symbols(payload, spec), ref_symbols(payload, spec))
        assert np.array_equal(build_symbols(payload, spec, "SM"), ref_symbols(payload, spec))


class TestLoopback:
    def test_noise_free_recovery(self):
        # Zero-noise loopback: residual error is the truncated-RRC ISI floor,
        # measured near 2e-2 peak / 8e-3 rms at the default span of 10.
        bits, payload = make_payload(make_rng(4), 256, SPEC, "SM")
        frame = build_frame(payload, SPEC, "SM")
        lay = frame.layout
        for b in range(2):
            syms = matched_filter_downsample(frame.branch_samples[b], SPEC, 0, SPEC.n_symbols)
            got = syms[lay.payload : lay.end]
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
        frame = build_frame(payload, SPEC, "SM")
        lay = frame.layout
        syms = matched_filter_downsample(
            frame.branch_samples[0], SPEC, SPEC.sps // 2, SPEC.n_symbols - 1
        )
        got = syms[lay.payload : lay.end - 1]
        ref = payload[0][: got.size]
        err = math.sqrt(float(np.sum(np.abs(got - ref) ** 2) / np.sum(np.abs(ref) ** 2)))
        assert err > 0.1

    def test_zero_input_zero_output(self):
        out = matched_filter_downsample(np.zeros(4096, complex), SPEC, 0, 100)
        assert np.all(out == 0)

    def test_range_errors(self):
        with pytest.raises(RangeError):
            matched_filter_downsample(np.zeros(64, complex), SPEC, 70)
        with pytest.raises(RangeError):
            matched_filter_downsample(np.zeros(64, complex), SPEC, 0, 100)


class TestSynchronize:
    def test_clean_frame_at_known_offset(self):
        _, payload = make_payload(make_rng(6), 4, SPEC, "SM")
        frame = build_frame(payload, SPEC, "SM")
        stream = np.concatenate([np.zeros(1000, complex), frame.branch_samples[0], np.zeros(50, complex)])
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
        frame = build_frame(payload, spec, "SM")
        mean_power = float(np.mean(np.abs(frame.branch_samples[0]) ** 2))
        offset = 500
        tx = np.concatenate(
            [np.zeros((2, offset), complex), frame.branch_samples, np.zeros((2, 40), complex)],
            axis=1,
        )

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


# Reference front end: full convolutions over the whole stream and a sync
# search over every start.  The production code filters only the samples its
# output depends on; these tests pin it to the reference.


def ref_matched_filter(samples, spec, start, n_symbols):
    z = np.convolve(samples, rrc_taps(spec))
    return z[start + spec.ntaps - 1 + spec.sps * np.arange(n_symbols)]


def ref_sync_metric(samples, spec):
    """Best start over the whole stream and its normalised correlation."""
    pre = preamble_symbols(spec)
    z = np.convolve(samples, rrc_taps(spec))
    tpl = np.zeros((pre.size - 1) * spec.sps + 1, dtype=complex)
    tpl[:: spec.sps] = pre
    ones = np.zeros(tpl.size)
    ones[:: spec.sps] = 1.0
    offset = spec.ntaps - 1
    corr = np.abs(np.correlate(z, tpl))[offset:]
    energy = np.correlate(np.abs(z) ** 2, ones).real[offset:]
    peak = int(np.argmax(corr))
    return peak, min(float(corr[peak]) / math.sqrt(max(float(energy[peak]), 1e-300) * pre.size), 1.0)


def ref_synchronize(streams, spec):
    """Two-branch rule: raw-correlation argmax per branch, branch 0 on ties."""
    (i0, m0), (i1, m1) = (ref_sync_metric(s, spec) for s in streams)
    if max(m0, m1) < SYNC_THRESHOLD:
        return None
    return i0 if m0 >= m1 else i1


SMALL = FrameSpec(payload_len=256)


def received(spec, seed, h, n0):
    """A frame at a random offset, through `h`; noise-free when n0 is None."""
    rng = make_rng(seed)
    _, payload = make_payload(rng, 16, spec, "SM")
    frame = build_frame(payload, spec, "SM")
    offset = int(rng.integers(0, 600))
    tx = np.concatenate(
        [np.zeros((2, offset), complex), frame.branch_samples, np.zeros((2, 63), complex)], axis=1
    )
    h = np.asarray(h, dtype=complex)
    if n0 is None:
        return offset, h @ tx
    return offset, apply_channel(tx, h, awgn(tx.shape, n0, make_rng(seed)))


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
        last = rx.shape[1] - 1 - (SMALL.n_symbols - 1) * SMALL.sps
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
        tx = build_frame(payload, SMALL, "SM").branch_samples
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
        tx = build_frame(payload, SMALL, "SM").branch_samples[0]
        pad = np.zeros(200, complex)
        early = np.concatenate([pad[:100], tx, pad])
        late = np.concatenate([pad[: 100 + SMALL.sps], tx, pad[SMALL.sps :]])
        assert synchronize(np.stack([early, late]), SMALL) == 100
        assert synchronize(np.stack([late, early]), SMALL) == 100 + SMALL.sps

    @pytest.mark.parametrize("seed", range(4))
    def test_matched_filter_matches_reference(self, seed):
        rng = make_rng(seed)
        n = int(rng.integers(200, 2000))
        x = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        start = int(rng.integers(0, n))
        available = (n - 1 - start) // SMALL.sps + 1
        for count in (available, int(rng.integers(0, available + 1)), 0):
            got = matched_filter_downsample(x, SMALL, start, count)
            assert got.shape == (2, count)
            for j in range(2):
                ref = ref_matched_filter(x[j], SMALL, start, count)
                np.testing.assert_allclose(got[j], ref, rtol=1e-12)
                np.testing.assert_allclose(
                    matched_filter_downsample(x[j], SMALL, start, count), ref, rtol=1e-12
                )

    @pytest.mark.parametrize("spec", [SPEC, FrameSpec(sps=3, rrc_span=6), FrameSpec(sps=8, rolloff=1.0)])
    def test_shaping_matches_zero_stuffed_convolution(self, spec):
        rng = make_rng(5)
        symbols = rng.standard_normal((2, 300)) + 1j * rng.standard_normal((2, 300))
        got = _upsample_and_shape(symbols, spec)
        taps = rrc_taps(spec)
        for b in range(2):
            up = np.zeros(symbols.shape[1] * spec.sps, dtype=complex)
            up[:: spec.sps] = symbols[b]
            np.testing.assert_allclose(got[b], np.convolve(up, taps), rtol=1e-12)

    @pytest.mark.parametrize("shape", [(0,), (1,), (64,), (2, 64), (2, (SPEC.n_symbols - 1) * SPEC.sps)])
    def test_stream_shorter_than_frame_raises_sync_not_found(self, shape):
        with pytest.raises(SyncNotFound):
            synchronize(np.ones(shape, complex), SPEC)

    def test_shortest_decodable_stream(self):
        # One frame's worth of symbol instants: start 0 is the only candidate.
        _, payload = make_payload(make_rng(8), 4, SPEC, "SM")
        samples = build_frame(payload, SPEC, "SM").branch_samples
        stream = samples[:, : (SPEC.n_symbols - 1) * SPEC.sps + 1]
        assert synchronize(stream, SPEC) == 0
        assert matched_filter_downsample(stream, SPEC, 0, SPEC.n_symbols).shape == (2, SPEC.n_symbols)
