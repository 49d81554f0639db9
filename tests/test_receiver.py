"""Receiver tests: LS estimation statistics, SNR formulas, ZF and MRC."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vlclink import StreamSnrs, estimate_channel, make_rng, qam_map
from vlclink.errors import ParameterError, SingularMatrix
from vlclink.framing import FrameSpec, pilot_symbols
from vlclink.numerics import inv2
from vlclink.receiver import ChannelEstimate, combine_sd_mrc, detect_sm_zf, stream_snrs

PILOTS = pilot_symbols(FrameSpec(pilot_len=32))


def true_est(h) -> ChannelEstimate:
    return ChannelEstimate(h_hat=np.asarray(h, dtype=complex))


def synth_segments(h, pilots, n0, rng):
    """Received pilot blocks for a channel h under time-orthogonal pilots."""
    n_p = pilots.size
    y = np.empty((2, 2, n_p), dtype=complex)
    for j in range(2):
        for i in range(2):
            noise = (rng.standard_normal(n_p) + 1j * rng.standard_normal(n_p)) * math.sqrt(n0 / 2)
            y[j, i] = h[j, i] * pilots + noise
    return y


class TestEstimateChannel:
    def test_noise_free_exact(self):
        h = np.diag([1.0, 0.5]).astype(complex)
        est = estimate_channel(synth_segments(h, PILOTS, 0.0, make_rng(0)), PILOTS)
        assert np.allclose(est.h_hat, h, atol=1e-9)

    def test_error_rms_matches_ls_law(self):
        h = np.array([[1.0, 0.2], [0.3, 0.9]], dtype=complex)
        n0 = 0.5
        rng = make_rng(11)
        sq = 0.0
        trials = 500
        for _ in range(trials):
            est = estimate_channel(synth_segments(h, PILOTS, n0, rng), PILOTS)
            sq += float(np.mean(np.abs(est.h_hat - h) ** 2))
        rms = math.sqrt(sq / trials)
        assert rms == pytest.approx(math.sqrt(n0 / PILOTS.size), rel=0.15)

    def test_doubling_pilots_shrinks_error_by_sqrt2(self):
        h = np.eye(2, dtype=complex)
        n0 = 1.0
        rng = make_rng(12)
        rms = {}
        for n_p in (32, 64):
            pilots = pilot_symbols(FrameSpec(pilot_len=n_p))
            sq = 0.0
            for _ in range(500):
                est = estimate_channel(synth_segments(h, pilots, n0, rng), pilots)
                sq += float(np.mean(np.abs(est.h_hat - h) ** 2))
            rms[n_p] = math.sqrt(sq / 500)
        assert rms[32] / rms[64] == pytest.approx(math.sqrt(2.0), rel=0.10)

    def test_scaling_covariance(self):
        # pilots scaled by alpha scale the estimate by alpha, SNRs by alpha^2
        h = np.array([[1.0, 0.1], [0.1, 0.8]], dtype=complex)
        est1 = estimate_channel(synth_segments(h, PILOTS, 0.0, make_rng(1)), PILOTS)
        est2 = estimate_channel(synth_segments(3.0 * h, PILOTS, 0.0, make_rng(1)), PILOTS)
        assert np.allclose(est2.h_hat, 3.0 * est1.h_hat, atol=1e-12)
        s1 = stream_snrs(est1, 2.0, 1.0, "SM").snr
        s2 = stream_snrs(est2, 2.0, 1.0, "SM").snr
        assert s2[0] == pytest.approx(9.0 * s1[0], rel=1e-9)
        assert s2[1] == pytest.approx(9.0 * s1[1], rel=1e-9)

    def test_shape_validation(self):
        with pytest.raises(ParameterError, match="pilot segments must have shape"):
            estimate_channel(np.zeros((2, 2, 8), complex), PILOTS)


class TestStreamSnrs:
    def test_identity_channel_3db_diversity_gain(self):
        est = true_est(np.eye(2))
        assert stream_snrs(est, 100.0, 1.0, "SM").snr == (50.0, 50.0)
        assert stream_snrs(est, 100.0, 1.0, "SD").snr == (100.0,)

    def test_rank_one_channel(self):
        # a channel that cannot carry two streams has no SM SNRs; it is not an error
        est = true_est(np.diag([1.0, 0.0]))
        assert stream_snrs(est, 100.0, 1.0, "SM") is None
        # one live path carries half the total power
        assert stream_snrs(est, 100.0, 1.0, "SD").snr == (50.0,)

    @settings(max_examples=100, deadline=None)
    @given(
        st.tuples(*[st.floats(-10.0, 10.0)] * 4),
        st.floats(-3.0, 3.0),
        st.sampled_from([0.0, 1e-9, 1e-3, 1.0]),
    )
    def test_sm_is_none_exactly_where_inv2_rejects_the_gram_matrix(self, entries, k, eps):
        # column 2 is k times column 1 plus eps of another column: rank one at eps = 0
        a, b, c, d = entries
        h = np.array([[a, k * a + eps * b], [c, k * c + eps * d]], dtype=complex)
        try:
            inv2(h.conj().T @ h)
            singular = False
        except SingularMatrix:
            singular = True
        assert (stream_snrs(true_est(h), 2.0, 1.0, "SM") is None) == singular

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 1e12) | st.just(math.inf), min_size=1, max_size=2))
    def test_derated_by_zero_keeps_every_bit(self, values):
        snrs = StreamSnrs("SM" if len(values) == 2 else "SD", tuple(values))
        assert np.array_equal(np.array(snrs.derated(0.0).snr).view(np.uint64), np.array(values).view(np.uint64))

    def test_diagonal_equals_half_per_link_snr(self):
        est = true_est(np.diag([1.0, 0.5]))
        snrs = stream_snrs(est, 10.0, 1.0, "SM").snr
        assert snrs[0] == pytest.approx(5.0, rel=1e-12)
        assert snrs[1] == pytest.approx(5.0 * 0.25, rel=1e-12)

    def test_mrc_equals_sum_of_branch_snrs_analytically(self):
        rng = make_rng(21)
        for _ in range(100):
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            est = true_est(h)
            p_total, n0 = 8.0, 0.25
            combined = stream_snrs(est, p_total, n0, "SD").snr[0]
            g = h @ np.ones(2)
            branches = [(p_total / 2) * abs(g[j]) ** 2 / n0 for j in range(2)]
            assert combined == pytest.approx(sum(branches), rel=1e-9)

    def test_sm_formula_matches_monte_carlo_post_zf(self):
        rng = make_rng(22)
        h = np.array([[1.0, 0.25], [0.2, 0.9]], dtype=complex)
        est = true_est(h)
        p_total, n0 = 50.0, 1.0
        n = 100_000
        amp = math.sqrt(p_total / 2.0)
        x = amp * np.exp(2j * np.pi * rng.uniform(size=(2, n)))
        noise = (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))) * math.sqrt(n0 / 2)
        xhat = detect_sm_zf(h @ x + noise, est)
        predicted = stream_snrs(est, p_total, n0, "SM").snr
        for i in range(2):
            err_var = float(np.mean(np.abs(xhat[i] - x[i]) ** 2))
            measured = (p_total / 2.0) / err_var
            assert measured == pytest.approx(predicted[i], rel=0.05)


class TestDetectSmZf:
    def test_noise_free_exact_inversion(self):
        rng = make_rng(31)
        h = np.array([[1.0, 0.3], [0.1, 0.7]], dtype=complex)
        x = rng.standard_normal((2, 256)) + 1j * rng.standard_normal((2, 256))
        xhat = detect_sm_zf(h @ x, true_est(h))
        assert np.allclose(xhat, x, atol=1e-9)

    def test_identity_passthrough(self):
        y = make_rng(32).standard_normal((2, 16)) + 0j
        assert np.allclose(detect_sm_zf(y, true_est(np.eye(2))), y, atol=1e-12)

    def test_remultiplication_reconstructs(self):
        rng = make_rng(33)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        y = rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64))
        xhat = detect_sm_zf(y, true_est(h))
        assert np.allclose(h @ xhat, y, atol=1e-9)

    def test_singular_estimate_rejected(self):
        with pytest.raises(SingularMatrix):
            detect_sm_zf(np.zeros((2, 4), complex), true_est(np.ones((2, 2))))


class TestCombineSdMrc:
    def test_noise_free_exact(self):
        rng = make_rng(41)
        h = np.array([[0.9, 0.1], [0.2, 0.8]], dtype=complex)
        s = qam_map(rng.integers(0, 2, 2 * 512), 4)
        y = h @ np.stack([s, s])
        assert np.allclose(combine_sd_mrc(y, true_est(h)), s, atol=1e-9)

    def test_equal_gain_branches_double_snr(self):
        rng = make_rng(42)
        h = np.diag([1.0, 1.0]).astype(complex)
        n = 200_000
        n0 = 0.5
        s = qam_map(rng.integers(0, 2, 2 * n), 4)
        noise = (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))) * math.sqrt(n0 / 2)
        combined = combine_sd_mrc(h @ np.stack([s, s]) + noise, true_est(h))
        err_var = float(np.mean(np.abs(combined - s) ** 2))
        single_branch_snr = 1.0 / n0
        assert 1.0 / err_var == pytest.approx(2.0 * single_branch_snr, rel=0.05)

    def test_one_dead_branch_keeps_live_snr(self):
        rng = make_rng(43)
        h = np.diag([1.0, 0.0]).astype(complex)
        n = 200_000
        n0 = 0.5
        s = qam_map(rng.integers(0, 2, 2 * n), 4)
        noise = (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))) * math.sqrt(n0 / 2)
        combined = combine_sd_mrc(h @ np.stack([s, s]) + noise, true_est(h))
        err_var = float(np.mean(np.abs(combined - s) ** 2))
        assert 1.0 / err_var == pytest.approx(1.0 / n0, rel=0.05)

    def test_dead_channel_raises(self):
        with pytest.raises(SingularMatrix, match="both combined branch gains are zero"):
            combine_sd_mrc(np.zeros((2, 4), complex), true_est(np.zeros((2, 2))))

    @given(
        st.lists(st.floats(-4.0, 4.0), min_size=8, max_size=8),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_elementwise_sum_matches_matrix_product_to_rounding(self, entries, seed):
        # The combiner weights each branch by conj(g_j) / ||g||^2 and sums the
        # two terms elementwise.  The former (2,) @ (2, n) form went to BLAS
        # and divided last, so the two agree to rounding, not bit for bit.
        h = np.array(entries[:4]).reshape(2, 2) + 1j * np.array(entries[4:]).reshape(2, 2)
        g = h @ np.ones(2)
        norm2 = float(np.sum(np.abs(g) ** 2))
        assume(norm2 >= 1e-12)
        rng = make_rng(seed)
        spec = FrameSpec()
        frame = rng.standard_normal((2, spec.n_symbols)) + 1j * rng.standard_normal((2, spec.n_symbols))
        y = frame[:, spec.layout().payload :]   # a strided payload slice, as the chain passes it
        want = (np.conj(g) @ y) / norm2
        scale = (np.abs(g[0]) * np.abs(y[0]) + np.abs(g[1]) * np.abs(y[1])) / norm2
        assert np.all(np.abs(combine_sd_mrc(y, true_est(h)) - want) <= 8 * np.finfo(float).eps * scale)
