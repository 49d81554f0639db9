"""Config parsing, calibration, and sweep plumbing on small scenarios."""

import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlclink import (
    FrameSpec,
    Mode,
    ParseError,
    ScenarioConfig,
    ValidationError,
    calibrate,
    channel_matrix,
    parse_config,
    run_ber_sweep,
    run_blockage_sweep,
    run_position,
    write_ber_csv,
    write_blockage_csv,
)
from vlclink.adapt import predicted_ber
from vlclink.receiver import stream_snrs
from vlclink.scenario import (
    _ALIASES,
    _KEY_FIELDS,
    MAX_GRID_POINTS,
    MAX_STREAM_SAMPLES,
    N0,
    _grid,
    _grid_points,
    _stream_len,
    _true_estimate,
)

# small scenario for fast plumbing tests: short payload, single position
FAST_TEXT = """
frame.payload_len = 512
frame.pilot_len = 16
sweep.positions.start = 0
sweep.positions.stop = 0
sweep.payload_bits = 4000
base_seed = 3
"""


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        assert parse_config("") == ScenarioConfig()

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\n  base_seed = 9 # trailing\n")
        assert cfg.base_seed == 9

    def test_dotted_and_alias_keys(self):
        cfg = parse_config("sweep.positions.start=-65\npositions.stop=65\nber_tgt=1e-4\n")
        assert cfg.positions_start == -65
        assert cfg.positions_stop == 65
        assert cfg.ber_tgt == 1e-4

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError) as err:
            parse_config("no.such.key = 1\n")
        assert "no.such.key" in str(err.value)

    def test_out_of_range_ber_tgt(self):
        with pytest.raises(ValidationError) as err:
            parse_config("ber_tgt = 2.0\n")
        assert "ber_tgt" in err.value.key

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_config("base_seed = 1\nnot a pair\n")
        assert err.value.line == 2

    def test_bad_value_type(self):
        with pytest.raises(ValidationError):
            parse_config("frame.sps = four\n")

    def test_ambiguous_alias_not_accepted(self):
        # margin_db exists under both policy.* and calibrate.*
        with pytest.raises(ValidationError):
            parse_config("margin_db = 1.0\n")

    def test_cross_field_validation(self):
        with pytest.raises(ValidationError):
            parse_config("geometry.obstacle_z = 300\n")
        with pytest.raises(ValidationError):
            parse_config("sweep.positions.start = 10\nsweep.positions.stop = 0\n")

    @pytest.mark.parametrize(
        "line",
        [
            "snr_db = nan",
            "snr_db = inf",
            "snr_db = -Infinity",
            "calibrate.margin_db = nan",
            "sweep.positions.start = -inf",
            "geometry.led_sep = inf",
            "bersweep.snr_stop = NaN",
        ],
    )
    def test_non_finite_floats_rejected(self, line):
        with pytest.raises(ValidationError) as err:
            parse_config(line + "\n")
        assert "not finite" in str(err.value)

    @pytest.mark.parametrize(
        "text, key",
        [
            ("sweep.positions.step = 1e-9\n", "sweep.positions.step"),
            ("bersweep.snr_step = 1e-6\n", "bersweep.snr_step"),
            # the half-step overshoot of stop overflows to inf
            ("sweep.positions.stop = 1.7e308\nsweep.positions.step = 1e308\n", "sweep.positions.step"),
        ],
    )
    def test_oversized_grids_rejected_at_parse_time(self, text, key):
        with pytest.raises(ValidationError) as err:
            parse_config(text)
        assert err.value.key == key

    def test_grid_at_the_cap_accepted(self):
        cfg = parse_config(f"sweep.positions.start = 0\nsweep.positions.stop = {MAX_GRID_POINTS - 1}\n"
                           "sweep.positions.step = 1\n")
        assert _grid_points(cfg.positions_start, cfg.positions_step, cfg.positions_stop) == MAX_GRID_POINTS
        with pytest.raises(ValidationError):
            parse_config(f"sweep.positions.start = 0\nsweep.positions.stop = {MAX_GRID_POINTS}\n"
                         "sweep.positions.step = 1\n")

    @pytest.mark.parametrize(
        "start, step, stop",
        [(-65.0, 5.0, 65.0), (8.0, 2.0, 34.0), (0.0, 0.1, 1.0), (-1.0, 0.3, 2.0), (3.0, 7.0, 3.0), (0.0, 1e-3, 0.7)],
    )
    def test_grid_points_counts_as_arange_does(self, start, step, stop):
        assert _grid_points(start, step, stop) == _grid(start, step, stop).size

    def test_default_grid_sizes(self):
        cfg = ScenarioConfig()
        assert cfg.positions().size == 27
        assert _grid_points(cfg.bersweep_snr_start, cfg.bersweep_snr_step, cfg.bersweep_snr_stop) == 14

    def test_frames_per_position_capped_at_the_frame_budget(self):
        assert parse_config("sweep.frames_per_position = 256\n").frames_per_position == 256
        for value in (257, 2):
            with pytest.raises(ValidationError) as err:
                parse_config(f"sweep.frames_per_position = {value}\n")
            assert err.value.key == "sweep.frames_per_position"

    def test_payload_bits_capped_at_what_fixed_sd64_can_measure(self):
        # 254 measured frames of 64 SD-64 symbols carry 254 * 6 * 64 = 97536 bits
        short = "frame.payload_len = 64\nsweep.positions.start = 0\nsweep.positions.stop = 0\n"
        assert parse_config(short + "sweep.payload_bits = 97536\n").payload_bits == 97536
        with pytest.raises(ValidationError) as err:
            parse_config(short + "sweep.payload_bits = 97537\n")
        assert err.value.key == "sweep.payload_bits"

    @pytest.mark.parametrize(
        "line", ["frame.payload_len = 1000000000", "frame.sps = 1000000", "frame.pilot_len = 100000000"]
    )
    def test_oversized_frames_rejected_at_parse_time(self, line):
        with pytest.raises(ValidationError) as err:
            parse_config(line + "\n")
        assert err.value.key == "frame"
        assert f"cap of {MAX_STREAM_SAMPLES}" in str(err.value)

    def test_frame_at_the_cap_accepted(self):
        # each payload symbol adds sps = 4 samples per branch
        payload_len = 4096 + (MAX_STREAM_SAMPLES - _stream_len(FrameSpec())) // 4
        cfg = parse_config(f"frame.payload_len = {payload_len}\n")
        assert MAX_STREAM_SAMPLES - 4 < _stream_len(cfg.frame_spec()) <= MAX_STREAM_SAMPLES
        with pytest.raises(ValidationError):
            parse_config(f"frame.payload_len = {payload_len + 1}\n")

    def test_mode_names_validated(self):
        cfg = parse_config("policy.initial = sd-16\n")
        assert cfg.policy().initial == Mode("SD", 16)
        with pytest.raises(ValidationError):
            parse_config("policy.initial = SM-3\n")


_VALUES = st.one_of(
    st.integers(-(10**12), 10**12).map(str),
    st.floats().map(repr),
    st.sampled_from(["SM-64", "sd-4", "SM-3", "QAM-16", "nan", "-inf", "1e400", "0x10", "1_000", "four", "9" * 5000]),
    st.text(max_size=12),
)
_LINES = st.one_of(
    st.builds("{}{}{}".format, st.sampled_from(sorted(_KEY_FIELDS) + sorted(_ALIASES)), st.sampled_from(["=", " = ", "=="]), _VALUES),
    st.text(max_size=30),
)


class TestArbitraryConfigText:
    @given(st.lists(_LINES, max_size=8).map("\n".join))
    @settings(max_examples=200, deadline=None)
    def test_only_config_errors_escape(self, text):
        try:
            cfg = parse_config(text)
        except (ParseError, ValidationError):
            return
        # what parses builds every part a sweep reads, within the caps
        assert _stream_len(cfg.frame_spec()) <= MAX_STREAM_SAMPLES
        assert cfg.positions().size <= MAX_GRID_POINTS
        cfg.geometry(obstacle_x=float(cfg.positions()[0]))
        cfg.policy()


class TestCalibrate:
    def test_meets_target_exactly_at_margin_removed(self):
        cfg = ScenarioConfig()
        p_cal = calibrate(cfg)
        p_raw = p_cal / 10.0 ** (cfg.calibrate_margin_db / 10.0)
        h, _ = channel_matrix(cfg.geometry(obstacle_x=None))
        est = _true_estimate(h)
        mode = Mode("SM", 256)
        assert predicted_ber(mode, stream_snrs(est, p_raw * 1.001, N0, "SM")) <= cfg.ber_tgt
        assert predicted_ber(mode, stream_snrs(est, p_raw * 0.999, N0, "SM")) > cfg.ber_tgt

    def test_margin_shifts_by_exactly_its_db(self):
        base = calibrate(parse_config("calibrate.margin_db = 0\n"))
        plus1 = calibrate(parse_config("calibrate.margin_db = 1\n"))
        assert 10 * math.log10(plus1 / base) == pytest.approx(1.0, abs=1e-9)

    def test_doubled_gains_need_6db_less(self):
        # doubling every optical gain quarters the required transmit power
        cfg = ScenarioConfig()
        p1 = calibrate(cfg)
        h, _ = channel_matrix(cfg.geometry(obstacle_x=None))
        est2 = _true_estimate(2.0 * h)
        mode = Mode("SM", 256)

        def feasible(p):
            return predicted_ber(mode, stream_snrs(est2, p, N0, "SM")) <= cfg.ber_tgt

        lo, hi = 1e-2, 1e12
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if feasible(mid):
                hi = mid
            else:
                lo = mid
        p2 = hi * 10 ** (cfg.calibrate_margin_db / 10.0)
        assert 10 * math.log10(p1 / p2) == pytest.approx(6.02, abs=0.01)

    def test_impossible_on_rank_deficient_channel(self):
        # co-located photodiodes make the two rows identical: no ZF, ever
        cfg = parse_config("geometry.pd_sep = 1e-9\n")
        with pytest.raises(RuntimeError, match="SM-256 infeasible even at 120 dB"):
            calibrate(cfg)


class TestRunPosition:
    def test_rerun_reproduces_bit_exactly(self):
        cfg = parse_config(FAST_TEXT)
        first = run_position(cfg, 0)
        second = run_position(cfg, 0)
        for a, b in zip(first, second):
            assert a == b

    def test_reports_well_formed(self):
        cfg = parse_config(FAST_TEXT)
        adaptive, sm64, sd64 = run_position(cfg, 0)
        assert sm64.mode == Mode("SM", 64)
        assert sd64.mode == Mode("SD", 64)
        assert adaptive.bits_sent >= cfg.payload_bits
        assert sm64.ber == sm64.bit_errors / sm64.bits_sent
        assert sd64.eff_bshz in (0.0, 6.0)
        assert len(sd64.snrs_db) == 1 and len(sm64.snrs_db) == 2


class TestBlockageSweep:
    def test_far_obstacle_settles_to_sm256(self):
        text = FAST_TEXT + "sweep.positions.start = 1e6\nsweep.positions.stop = 1e6\n"
        cfg = parse_config(text)
        res = run_blockage_sweep(cfg)
        assert len(res.adaptive) == 1
        assert res.adaptive[0].mode == Mode("SM", 256)

    def test_csv_blocks_and_averages(self):
        cfg = parse_config(FAST_TEXT)
        res = run_blockage_sweep(cfg)
        buf = io.StringIO()
        write_blockage_csv(res, buf)
        text = buf.getvalue()
        assert text.count("position_cm,mode_code") == 3
        assert "# run=adaptive" in text and "# run=fixed-sd64" in text
        assert "# average_eff_bshz" in text

    def test_byte_identical_reruns(self):
        cfg = parse_config(FAST_TEXT)
        out = []
        for _ in range(2):
            buf = io.StringIO()
            write_blockage_csv(run_blockage_sweep(cfg), buf)
            out.append(buf.getvalue())
        assert out[0] == out[1]


class TestBerSweep:
    def test_grid_and_theory_columns(self):
        text = (
            "frame.payload_len = 512\n"
            "bersweep.snr_start = 14\nbersweep.snr_stop = 16\nbersweep.snr_step = 2\n"
            "bersweep.max_bits = 6000\nbersweep.min_errors = 30\n"
        )
        cfg = parse_config(text)
        rows = run_ber_sweep(cfg)
        assert len(rows) == 8 * 2
        for row in rows:
            assert row.bits > 0
            assert 0 <= row.ber_mc <= 1
            assert 0 <= row.ber_theory <= 0.5
            if row.scheme == "SM":
                twin = next(
                    r for r in rows if r.scheme == "SD" and r.order == row.order
                )
                assert row.eff_bshz == 2 * twin.eff_bshz
        buf = io.StringIO()
        write_ber_csv(rows, buf)
        assert buf.getvalue().splitlines()[0] == "scheme,order,snr_db,ber_mc,ber_theory,bits,errors,eff_bshz"

    def test_sd_beats_sm_at_equal_power(self):
        # at a power where QPSK errors are measurable, diversity shows fewer
        text = (
            "frame.payload_len = 1024\n"
            "bersweep.snr_start = 11\nbersweep.snr_stop = 11\nbersweep.snr_step = 1\n"
            "bersweep.max_bits = 80000\nbersweep.min_errors = 10000\n"
        )
        rows = run_ber_sweep(parse_config(text))
        sm4 = next(r for r in rows if r.scheme == "SM" and r.order == 4)
        sd4 = next(r for r in rows if r.scheme == "SD" and r.order == 4)
        assert sd4.ber_mc < sm4.ber_mc
        assert sd4.ber_theory < sm4.ber_theory
