"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
prints one [PASS] line (visible with `pytest -s`); a failed assertion is the
fail line.  The blockage sweep (criteria 4 and 8) runs on the default
calibrated scenario and is executed twice to check byte determinism.
"""

import io
import math
import time

import numpy as np
import pytest
from scipy.special import ndtri

from vlclink import (
    MODES,
    Mode,
    ScenarioConfig,
    StreamSnrs,
    ber_theoretical,
    channel_matrix,
    estimate_channel,
    make_rng,
    qam_demap,
    qam_map,
    select_mode,
    svd2,
    write_blockage_csv,
)
from vlclink.adapt import AdaptPolicy, predicted_ber
from vlclink.framing import FrameSpec, pilot_symbols
from vlclink.receiver import ChannelEstimate, stream_snrs
from vlclink.scenario import (
    N0,
    measure_mode_ber,
    run_blockage_sweep,
)

BER_TGT = 1e-3


@pytest.fixture(scope="module")
def default_config():
    return ScenarioConfig()


@pytest.fixture(scope="module")
def sweep_twice(default_config):
    """The default calibrated blockage sweep, run twice for determinism."""
    results = []
    texts = []
    for _ in range(2):
        result = run_blockage_sweep(default_config)
        buf = io.StringIO()
        write_blockage_csv(result, buf)
        results.append(result)
        texts.append(buf.getvalue())
    return results, texts


def awgn_ber(order: int, snr: float, n_bits: int, seed: int) -> tuple[int, int]:
    """Symbol-level Monte-Carlo BER on the AWGN identity channel."""
    rng = make_rng(seed)
    k = int(math.log2(order))
    n_bits = (n_bits // k) * k
    bits = rng.integers(0, 2, size=n_bits)
    syms = qam_map(bits, order)
    sigma = math.sqrt(1.0 / snr / 2.0)
    noisy = syms + sigma * (rng.standard_normal(syms.size) + 1j * rng.standard_normal(syms.size))
    errors = int(np.count_nonzero(qam_demap(noisy, order) != bits))
    return errors, n_bits


def snr_for_target_ber(order: int, target: float) -> float:
    """Invert the Gray-QAM BER approximation via the scipy normal quantile."""
    k = math.log2(order)
    q = target * k / (4.0 * (1.0 - 1.0 / math.sqrt(order)))
    x = -ndtri(q)
    return x * x * (order - 1) / 3.0


def test_c1_modem_fidelity():
    """C1: Monte-Carlo BER matches theory within 3 binomial sigma."""
    start = time.monotonic()
    for order in (4, 16, 64, 256):
        for target in (1e-2, 1e-3, 1e-4):
            snr = snr_for_target_ber(order, target)
            theory = ber_theoretical(order, snr)
            n_bits = int(round(300.0 / theory))
            errors, total = awgn_ber(order, snr, n_bits, seed=order * 1000 + int(-math.log10(target)))
            expected = theory * total
            assert expected >= 100.0, "needs at least 100 expected errors"
            sigma = math.sqrt(expected * (1.0 - theory))
            assert abs(errors - expected) <= 3.0 * sigma, (
                f"M={order} target={target}: {errors} errors vs {expected:.1f} +- {sigma:.1f}"
            )
    elapsed = time.monotonic() - start
    assert elapsed <= 300.0
    print(f"\n[PASS] C1 modem fidelity: 12 points within 3 sigma ({elapsed:.1f}s)")


def _crossing_db(config, mode, center_db, seed_base) -> float:
    """SNR at which the measured chain BER crosses 1e-3, by local log fit."""
    points = []
    for i, db in enumerate(center_db + np.array([-1.0, -0.5, 0.0, 0.5, 1.0])):
        errors, bits = measure_mode_ber(
            config, mode, 10.0 ** (db / 10.0), (seed_base, i), 150, 300_000
        )
        if errors > 0:
            points.append((db, math.log10(errors / bits)))
    assert len(points) >= 3
    slope, intercept = np.polyfit([p[0] for p in points], [p[1] for p in points], 1)
    return (-3.0 - intercept) / slope


def _theory_crossing_db(est, mode) -> float:
    lo, hi = -10.0, 60.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        snrs = stream_snrs(est, 10.0 ** (mid / 10.0), N0, mode.scheme)
        if predicted_ber(mode, snrs) <= BER_TGT:
            hi = mid
        else:
            lo = mid
    return hi


def test_c2_diversity_gain(default_config):
    """C2: SD reaches BER 1e-3 at 3.0 +- 0.3 dB less SNR than SM, every M."""
    h, _ = channel_matrix(default_config.geometry(obstacle_x=None))
    est = ChannelEstimate(h)
    gaps = {}
    for order in (4, 16, 64, 256):
        sm, sd = Mode("SM", order), Mode("SD", order)
        sm_cross = _crossing_db(default_config, sm, _theory_crossing_db(est, sm), 9000 + order)
        sd_cross = _crossing_db(default_config, sd, _theory_crossing_db(est, sd), 9500 + order)
        gaps[order] = sm_cross - sd_cross
        assert abs(gaps[order] - 3.0) <= 0.3, f"M={order}: gap {gaps[order]:.3f} dB"
    rendered = ", ".join(f"M={m}: {g:.2f} dB" for m, g in gaps.items())
    print(f"\n[PASS] C2 diversity gain: {rendered}")


def test_c3_multiplexing_gain():
    """C3: SM efficiency is exactly twice SD efficiency at every order."""
    for order in (4, 16, 64, 256):
        assert Mode("SM", order).efficiency == 2 * Mode("SD", order).efficiency
    print("\n[PASS] C3 multiplexing gain: eta(SM-M) = 2 eta(SD-M) for all M")


def test_c4_blockage_sweep(default_config, sweep_twice):
    """C4: calibrated default sweep meets the per-position and average goals."""
    results, _ = sweep_twice
    result = results[0]
    assert len(result.adaptive) == 27
    # (a) adaptive steady-state BER at or under target everywhere
    worst = max(r.ber for r in result.adaptive)
    assert worst <= BER_TGT, f"worst adaptive BER {worst:.2e}"
    # at least 1e5 measured payload bits per position, every run
    for reports in (result.adaptive, result.fixed_sm64, result.fixed_sd64):
        assert min(r.bits_sent for r in reports) >= 100_000
    # (b) adaptive error-free efficiency dominates both fixed baselines
    for ra, rm, rd in zip(result.adaptive, result.fixed_sm64, result.fixed_sd64):
        assert ra.eff_bshz >= max(rm.eff_bshz, rd.eff_bshz), f"position {ra.position_cm}"
    # (c) fixed SD-64 average exactly 6.0
    assert result.averages["fixed_sd64"] == 6.0
    # (d) adaptive average at least 11, fixed SM-64 strictly below adaptive
    assert result.averages["adaptive"] >= 11.0
    assert result.averages["fixed_sm64"] < result.averages["adaptive"]
    # steady-state modes stay within the expected adaptation set
    seen = {r.mode for r in result.adaptive}
    assert seen <= {Mode("SM", 256), Mode("SM", 64), Mode("SD", 256)}, seen
    print(
        "\n[PASS] C4 blockage sweep: worst BER {:.2e}; averages adaptive={:.2f}, "
        "SM-64={:.2f}, SD-64={:.2f}; modes {}".format(
            worst,
            result.averages["adaptive"],
            result.averages["fixed_sm64"],
            result.averages["fixed_sd64"],
            sorted(m.name for m in seen),
        )
    )
    # reference targets from the measured hardware are recorded, not asserted:
    # the binary-shadow geometry cannot reproduce unreported optical gains
    for name, reference in (("adaptive", 12.0), ("fixed_sm64", 7.7)):
        delta = result.averages[name] - reference
        inside = "inside" if abs(delta) <= 1.5 else "outside"
        print(
            f"[NOTE] C4 reference target {name}: {result.averages[name]:.2f} b/s/Hz "
            f"vs {reference} +- 1.5 ({inside}, delta {delta:+.2f})"
        )


def test_c5_mode_selector_oracle():
    """C5: select_mode agrees with brute-force enumeration on 1000 tuples."""
    from scipy.special import erfc

    policy = AdaptPolicy()

    def oracle_ber(order, snr):
        k = math.log2(order)
        q = 0.5 * erfc(math.sqrt(3.0 * snr / (order - 1)) / math.sqrt(2.0))
        return (4.0 / k) * (1.0 - 1.0 / math.sqrt(order)) * q

    def brute_force(sm_pair, sd_value):
        best = None
        for mode in MODES:
            if mode.scheme == "SM":
                if sm_pair is None:
                    continue
                ber = 0.5 * (oracle_ber(mode.order, sm_pair[0]) + oracle_ber(mode.order, sm_pair[1]))
            else:
                ber = oracle_ber(mode.order, sd_value)
            if ber > policy.ber_tgt:
                continue
            rank = (mode.efficiency, -ber, 1 if mode.scheme == "SD" else 0)
            if best is None or rank > best[0]:
                best = (rank, mode)
        return best[1] if best else policy.fallback

    rng = make_rng(8080)
    agree = 0
    for _ in range(1000):
        sm = None
        if rng.uniform() > 0.2:
            sm = (float(10.0 ** rng.uniform(-1, 5)), float(10.0 ** rng.uniform(-1, 5)))
        sd = float(10.0 ** rng.uniform(-1, 5))
        got = select_mode(StreamSnrs("SM", sm) if sm else None, StreamSnrs("SD", (sd,)), policy)
        agree += got == brute_force(sm, sd)
    assert agree == 1000, f"only {agree}/1000 agree"
    print("\n[PASS] C5 mode selector oracle: 1000/1000 agreement")


def test_c6_estimation_law():
    """C6: channel-estimate RMS error scales as 1/sqrt(N_p) within 10%."""
    h = np.array([[1.0, 0.2], [0.1, 0.9]], dtype=complex)
    n0 = 1.0
    rng = make_rng(616)
    normalised = {}
    for n_p in (16, 32, 64, 128):
        pilots = pilot_symbols(FrameSpec(pilot_len=n_p))
        sq = 0.0
        for _ in range(500):
            y = np.empty((2, 2, n_p), dtype=complex)
            for j in range(2):
                for i in range(2):
                    noise = (
                        rng.standard_normal(n_p) + 1j * rng.standard_normal(n_p)
                    ) * math.sqrt(n0 / 2.0)
                    y[j, i] = h[j, i] * pilots + noise
            est = estimate_channel(y, pilots)
            sq += float(np.mean(np.abs(est.h_hat - h) ** 2))
        rms = math.sqrt(sq / 500)
        normalised[n_p] = rms * math.sqrt(n_p / n0)
    for n_p, value in normalised.items():
        assert abs(value - 1.0) <= 0.10, f"N_p={n_p}: normalised rms {value:.3f}"
    print(
        "\n[PASS] C6 estimation law: rms*sqrt(N_p) in "
        + str({k: round(v, 3) for k, v in normalised.items()})
    )


def test_c7_scaling_linearity():
    """C7: singular values of alpha*H equal alpha*sigma(H) to 1e-12 relative."""
    rng = make_rng(717)
    for _ in range(1000):
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        alpha = float(10.0 ** rng.uniform(-6, 6))
        base = svd2(h)
        scaled = svd2(alpha * h)
        assert scaled.sigma1 == pytest.approx(alpha * base.sigma1, rel=1e-12)
        assert scaled.sigma2 == pytest.approx(alpha * base.sigma2, rel=1e-12, abs=1e-280)
    print("\n[PASS] C7 scaling linearity: 1000 random (H, alpha) pairs exact")


def test_c8_determinism(sweep_twice):
    """C8: two runs with identical config and seed yield byte-identical CSVs."""
    _, texts = sweep_twice
    assert texts[0] == texts[1]
    assert len(texts[0].encode()) == len(texts[1].encode())
    print(f"\n[PASS] C8 determinism: {len(texts[0].encode())} CSV bytes identical across runs")
