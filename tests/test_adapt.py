"""Mode table, BER-constrained selection, wire codes, feedback latency."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from vlclink import MODES, Mode, StreamSnrs, ber_theoretical, encode_mode, make_rng, qam_demap, qam_map, select_mode
from vlclink.adapt import AdaptPolicy, controller_step, estimate_snrs, new_controller, parse_mode, predicted_ber
from vlclink.errors import ParameterError
from vlclink.receiver import ChannelEstimate, stream_snrs

POLICY = AdaptPolicy()


def oracle_ber(order: int, snr: float) -> float:
    """Independent Gray-QAM BER model for the brute-force oracle."""
    if math.isinf(snr):
        return 0.0
    k = math.log2(order)
    q = 0.5 * erfc(math.sqrt(3.0 * snr / (order - 1)) / math.sqrt(2.0))
    return (4.0 / k) * (1.0 - 1.0 / math.sqrt(order)) * q


def oracle_select(sm_pair, sd_value, policy: AdaptPolicy) -> Mode:
    """Exhaustive enumeration written independently of select_mode."""
    derate = 10.0 ** (-policy.margin_db / 10.0)
    candidates = []
    for scheme in ("SD", "SM"):
        for order in (4, 16, 64, 256):
            if scheme == "SM":
                if sm_pair is None:
                    continue
                ber = 0.5 * (
                    oracle_ber(order, sm_pair[0] * derate) + oracle_ber(order, sm_pair[1] * derate)
                )
                eff = 2 * math.log2(order)
            else:
                ber = oracle_ber(order, sd_value * derate)
                eff = math.log2(order)
            if ber <= policy.ber_tgt:
                candidates.append((eff, -ber, 1 if scheme == "SD" else 0, Mode(scheme, order)))
    if not candidates:
        return policy.fallback
    return max(candidates, key=lambda t: t[:3])[3]


class TestModeTable:
    def test_eight_modes(self):
        assert len(MODES) == 8
        assert len(set(MODES)) == 8

    def test_efficiencies(self):
        assert Mode("SM", 64).efficiency == 12
        assert Mode("SD", 64).efficiency == 6
        assert Mode("SM", 256).efficiency == 16

    def test_wire_codes(self):
        assert encode_mode(Mode("SD", 4)) == 0b000
        assert encode_mode(Mode("SM", 256)) == 0b111
        assert encode_mode(Mode("SD", 256)) == 0b011
        assert encode_mode(Mode("SM", 4)) == 0b100

    def test_round_trip_all_codes(self):
        for code in range(8):
            assert encode_mode(MODES[code]) == code
        for mode in MODES:
            assert MODES[encode_mode(mode)] == mode

    def test_bad_codes(self):
        with pytest.raises(ParameterError):
            Mode("SM", 32)
        with pytest.raises(ParameterError):
            parse_mode("QAM-64")

    def test_parse_mode(self):
        assert parse_mode("sm-64") == Mode("SM", 64)
        assert parse_mode("SD-4") == Mode("SD", 4)


class TestPredictedBer:
    def test_sm_equal_streams_is_single_stream_ber(self):
        snrs = StreamSnrs("SM", (100.0, 100.0))
        single = predicted_ber(Mode("SD", 16), StreamSnrs("SD", (100.0,)))
        assert predicted_ber(Mode("SM", 16), snrs) == pytest.approx(single, rel=1e-12)

    def test_sm_one_infinite_stream_halves(self):
        finite = predicted_ber(Mode("SM", 4), StreamSnrs("SM", (10.0, 10.0)))
        mixed = predicted_ber(Mode("SM", 4), StreamSnrs("SM", (10.0, float("inf"))))
        assert mixed == pytest.approx(finite / 2.0, rel=1e-12)

    def test_sd4_at_milli_ber_point(self):
        got = predicted_ber(Mode("SD", 4), StreamSnrs("SD", (9.55,)))
        assert got == pytest.approx(oracle_ber(4, 9.55), rel=1e-9)
        assert got == pytest.approx(1e-3, rel=1e-3)

    def test_scheme_mismatch(self):
        with pytest.raises(ParameterError, match="SM-4 given SD SNRs"):
            predicted_ber(Mode("SM", 4), StreamSnrs("SD", (10.0,)))

    @given(st.sampled_from(MODES), st.floats(0.0, 1e6), st.floats(0.0, 1e6))
    @settings(max_examples=200, deadline=None)
    def test_plain_mean_equals_numpy_mean(self, mode, a, b):
        snrs = StreamSnrs(mode.scheme, (a, b) if mode.scheme == "SM" else (a,))
        bers = [ber_theoretical(mode.order, s) for s in snrs.snr]
        assert predicted_ber(mode, snrs) == float(np.mean(bers))


class TestSelectMode:
    def test_strong_sm_streams_pick_sm256(self):
        sm = StreamSnrs("SM", (1e4, 1e4))  # 40 dB
        sd = StreamSnrs("SD", (2e4,))
        assert select_mode(sm, sd, POLICY) == Mode("SM", 256)

    def test_sm_infeasible_falls_to_sd(self):
        # 29 dB combined SNR carries SD-256; at exactly 28 dB the predicted
        # BER is 1.5e-3, above target, so SD-64 wins there instead
        assert select_mode(None, StreamSnrs("SD", (10.0**2.9,)), POLICY) == Mode("SD", 256)
        assert select_mode(None, StreamSnrs("SD", (10.0**2.8,)), POLICY) == Mode("SD", 64)

    def test_nothing_feasible_uses_fallback(self):
        sm = StreamSnrs("SM", (0.1, 0.1))
        sd = StreamSnrs("SD", (0.1,))
        assert select_mode(sm, sd, POLICY) == POLICY.fallback

    def test_margin_shifts_decision(self):
        sd = StreamSnrs("SD", (10.0**2.9,))
        assert select_mode(None, sd, POLICY) == Mode("SD", 256)
        tight = AdaptPolicy(margin_db=3.0)
        assert select_mode(None, sd, tight) == Mode("SD", 64)

    def test_matches_bruteforce_oracle(self):
        rng = make_rng(555)
        for _ in range(1000):
            sm = None
            if rng.uniform() > 0.2:
                sm = tuple(10.0 ** rng.uniform(-1.0, 5.0) for _ in range(2))
            sd = 10.0 ** rng.uniform(-1.0, 5.0)
            got = select_mode(
                StreamSnrs("SM", sm) if sm else None, StreamSnrs("SD", (sd,)), POLICY
            )
            assert got == oracle_select(sm, sd, POLICY)

    @given(
        st.floats(min_value=0.1, max_value=1e5),
        st.floats(min_value=0.1, max_value=1e5),
        st.floats(min_value=0.1, max_value=1e5),
        st.floats(min_value=1.0, max_value=100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_snr(self, s1, s2, sd, boost):
        before = select_mode(
            StreamSnrs("SM", (s1, s2)), StreamSnrs("SD", (sd,)), POLICY
        ).efficiency
        after = select_mode(
            StreamSnrs("SM", (s1 * boost, s2 * boost)), StreamSnrs("SD", (sd * boost,)), POLICY
        ).efficiency
        assert after >= before


def est_for(h) -> ChannelEstimate:
    return ChannelEstimate(h_hat=np.asarray(h, dtype=complex))


def snrs_for(h):
    """(SM, SD) stream SNRs of the exact estimate h at p_total 2, n0 1."""
    return estimate_snrs(est_for(h), 2.0, 1.0)


class TestEstimateSnrs:
    def test_both_schemes_from_stream_snrs(self):
        est = est_for([[40.0, 3.0], [1.0, 35.0]])
        assert estimate_snrs(est, 2.0, 1.0) == (stream_snrs(est, 2.0, 1.0, "SM"), stream_snrs(est, 2.0, 1.0, "SD"))

    def test_singular_estimate_has_no_sm_snrs(self):
        sm, sd = snrs_for(np.diag([30.0, 0.0]))
        assert sm is None
        assert sd == StreamSnrs("SD", (900.0,))


class TestController:
    def test_first_frame_uses_initial_mode(self):
        state = new_controller(POLICY)
        applied = controller_step(state, *snrs_for(np.eye(2) * 40.0), POLICY)
        assert applied == POLICY.initial == Mode("SM", 64)

    def test_constant_channel_converges_by_frame_two(self):
        state = new_controller(POLICY)
        snrs = snrs_for(np.eye(2) * 40.0)  # post-ZF snr 32 dB per stream
        seen = [controller_step(state, *snrs, POLICY) for _ in range(6)]
        assert seen[0] == POLICY.initial
        assert len(set(seen[1:])) == 1
        expected = select_mode(
            StreamSnrs("SM", (1600.0, 1600.0)), StreamSnrs("SD", (6400.0,)), POLICY
        )
        assert seen[1] == expected

    def test_one_frame_feedback_latency(self):
        state = new_controller(POLICY)
        strong = snrs_for(np.eye(2) * 40.0)
        weak = snrs_for(np.eye(2) * 0.05)
        applied = []
        for frame in range(6):
            snrs = strong if frame % 2 == 0 else weak
            applied.append(controller_step(state, *snrs, POLICY))
        # selection from frame k shows up as the mode applied at frame k+1
        strong_sel = select_mode(
            StreamSnrs("SM", (1600.0, 1600.0)), StreamSnrs("SD", (6400.0,)), POLICY
        )
        weak_sel = select_mode(
            StreamSnrs("SM", (0.0025, 0.0025)), StreamSnrs("SD", (0.01,)), POLICY
        )
        assert applied[1] == strong_sel and applied[3] == strong_sel
        assert applied[2] == weak_sel and applied[4] == weak_sel

    def test_singular_estimate_forces_sd(self):
        state = new_controller(POLICY)
        controller_step(state, *snrs_for(np.diag([30.0, 0.0])), POLICY)
        assert state.pending.scheme == "SD"


class TestSelectedModeMeetsTarget:
    def test_measured_ber_within_3_sigma_of_target(self):
        # exact channel knowledge, margin 0: the selected mode's measured BER
        # may not exceed the target by more than binomial noise
        rng = make_rng(777)
        h = np.eye(2, dtype=complex)
        p_total = 2.0 * 10.0 ** 2.85  # per-stream snr just above the SM-256 threshold
        snrs_sm = StreamSnrs("SM", (p_total / 2.0, p_total / 2.0))
        snrs_sd = StreamSnrs("SD", (p_total,))
        mode = select_mode(snrs_sm, snrs_sd, POLICY)
        n_bits = 1_000_000
        k = mode.bits_per_symbol
        bits = rng.integers(0, 2, size=(n_bits // k) * k)
        syms = qam_map(bits, mode.order)
        snr = snrs_sm.snr[0] if mode.scheme == "SM" else snrs_sd.snr[0]
        sigma = math.sqrt(1.0 / snr / 2.0)
        noisy = syms + sigma * (
            rng.standard_normal(syms.size) + 1j * rng.standard_normal(syms.size)
        )
        errors = int(np.count_nonzero(qam_demap(noisy, mode.order) != bits))
        measured = errors / bits.size
        sigma_ber = math.sqrt(POLICY.ber_tgt * (1 - POLICY.ber_tgt) / bits.size)
        assert measured <= POLICY.ber_tgt + 3.0 * sigma_ber
