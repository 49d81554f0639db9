"""Config parsing, calibration, and sweep plumbing on small scenarios."""

import io
import itertools
import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vlclink import (
    Mode,
    ParseError,
    ScenarioConfig,
    ValidationError,
    calibrate,
    channel_matrix,
    load_config,
    parse_config,
    run_ber_sweep,
    run_blockage_sweep,
    write_ber_csv,
    write_blockage_csv,
)
from vlclink import scenario
from vlclink.adapt import predicted_ber
from vlclink.framing import _PILOT_SHIFT, FrameSpec, _last_start
from vlclink.receiver import ChannelEstimate, stream_snrs
from vlclink.scenario import (
    _KEY_FIELDS,
    LEAD_PAD,
    MAX_ABS_DB,
    MAX_BER_POINT_FRAMES,
    MAX_GRID_POINTS,
    MAX_RRC_SPAN,
    MAX_STREAM_SAMPLES,
    MAX_TAP_MATRIX_BYTES,
    N0,
    SETTLING_FRAMES,
    TAIL_PAD,
    BlockageSweepResult,
    LinkReport,
    _frame_bits,
    _grid,
    _grid_points,
    _run_position,
    _stream_len,
)

# every proper dotted tail of a key, as `policy.ber_tgt` gives `ber_tgt`
_TAILS = sorted({key.split(".", i)[-1] for key in _KEY_FIELDS for i in range(1, key.count(".") + 1)})

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

    @pytest.mark.parametrize("tail", _TAILS)
    def test_key_tail_is_an_unknown_key(self, tail):
        # keys are written by their full name only, so adding a key never changes how a config parses
        with pytest.raises(ValidationError) as err:
            parse_config(f"{tail} = 1\n")
        assert err.value.key == tail
        assert str(err.value) == f"{tail}: unknown key"

    @pytest.mark.parametrize(
        "text, field, value",
        [
            ("snr_db = 20\nsnr_db = 25\n", "snr_db", 25),
            ("geometry.led_sep = 3\ngeometry.led_sep = 7\n", "led_sep", 7),
            ("geometry.led_sep = 7\ngeometry.led_sep = 3\n", "led_sep", 3),
        ],
    )
    def test_later_line_overrides_earlier(self, text, field, value):
        # tests override a shared config by appending a line
        assert getattr(parse_config(text), field) == value

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError) as err:
            parse_config("no.such.key = 1\n")
        assert "no.such.key" in str(err.value)

    def test_out_of_range_ber_tgt(self):
        with pytest.raises(ValidationError) as err:
            parse_config("policy.ber_tgt = 2.0\n")
        assert err.value.key == "policy.ber_tgt"

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_config("base_seed = 1\nnot a pair\n")
        assert err.value.line == 2

    def test_bad_value_type(self):
        with pytest.raises(ValidationError):
            parse_config("frame.sps = four\n")

    def test_cross_field_validation(self):
        with pytest.raises(ValidationError):
            parse_config("geometry.obstacle_z = 300\n")

    @pytest.mark.parametrize(
        "text, key, build",
        [
            ("sweep.positions.start = 10\nsweep.positions.stop = 0\n", "sweep.positions.start",
             lambda cfg: cfg.positions()),
            ("bersweep.snr_start = 40\n", "bersweep.snr_start", lambda cfg: run_ber_sweep(cfg)),
        ],
        ids=["positions", "ber-snr"],
    )
    def test_inverted_grid_rejected_by_the_sweep_that_reads_it(self, text, key, build):
        cfg = parse_config(text)   # the config itself parses
        with pytest.raises(ValidationError) as err:
            build(cfg)
        assert err.value.key == key
        assert str(err.value) == f"{key}: start must be <= stop"

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
        "text, key, points",
        [
            ("sweep.positions.step = 1e-9\n", "sweep.positions.step", "1.3e+11"),
            ("bersweep.snr_step = 1e-6\n", "bersweep.snr_step", "2.6e+07"),
            # the half-step overshoot of stop overflows to inf
            ("sweep.positions.stop = 1.7e308\nsweep.positions.step = 1e308\n", "sweep.positions.step", "inf"),
        ],
    )
    def test_oversized_grids_rejected_before_the_grid_is_built(self, text, key, points):
        cfg = parse_config(text)   # the config itself parses
        build = cfg.positions if key.startswith("sweep.") else lambda: run_ber_sweep(cfg)
        with pytest.raises(ValidationError) as err:
            build()
        assert err.value.key == key
        assert str(err.value) == f"{key}: grid of {points} points exceeds the cap of {MAX_GRID_POINTS}"

    def test_grid_at_the_cap_accepted(self):
        text = f"sweep.positions.start = 0\nsweep.positions.step = 1\nsweep.positions.stop = {MAX_GRID_POINTS - 1}\n"
        assert parse_config(text).positions().size == MAX_GRID_POINTS
        cfg = parse_config(text + f"sweep.positions.stop = {MAX_GRID_POINTS}\n")   # the config itself parses
        with pytest.raises(ValidationError) as err:
            cfg.positions()
        assert err.value.key == "sweep.positions.step"
        assert str(err.value) == "sweep.positions.step: grid of 1e+04 points exceeds the cap of 10000"

    @pytest.mark.parametrize(
        "start, step, stop",
        [(-65.0, 5.0, 65.0), (8.0, 2.0, 34.0), (0.0, 0.1, 1.0), (-1.0, 0.3, 2.0), (3.0, 7.0, 3.0), (0.0, 1e-3, 0.7)],
    )
    def test_grid_points_counts_as_arange_does(self, start, step, stop):
        assert _grid_points(start, step, stop) == _grid("sweep.positions.", start, step, stop).size

    def test_default_grid_sizes(self):
        cfg = ScenarioConfig()
        assert cfg.positions().size == 27
        assert _grid_points(cfg.bersweep_snr_start, cfg.bersweep_snr_step, cfg.bersweep_snr_stop) == 14

    def test_frames_per_position_capped_at_the_frame_budget(self):
        assert parse_config("sweep.frames_per_position = 256\n").frames_per_position == 256
        assert parse_config(f"sweep.frames_per_position = {SETTLING_FRAMES + 1}\n").frames_per_position == 3
        for value in (257, 2):
            with pytest.raises(ValidationError) as err:
                parse_config(f"sweep.frames_per_position = {value}\n")
            assert err.value.key == "sweep.frames_per_position"

    def test_payload_bits_capped_at_what_an_sd4_run_can_measure(self):
        # an adaptive run may fall back to SD-4: 254 measured frames of 64 symbols carry 254 * 2 * 64 = 32512 bits
        short = "frame.payload_len = 64\nsweep.positions.start = 0\nsweep.positions.stop = 0\n"
        result = run_blockage_sweep(parse_config(short + "sweep.payload_bits = 32512\n"), jobs=1)
        assert all(report.bits_sent >= 32512 for report in result.adaptive + result.fixed_sm64 + result.fixed_sd64)
        cfg = parse_config(short + "sweep.payload_bits = 32513\n")   # the config itself parses
        with pytest.raises(ValidationError) as err:
            run_blockage_sweep(cfg, jobs=1)
        assert err.value.key == "sweep.payload_bits"
        assert str(err.value) == (
            "sweep.payload_bits: exceeds the 32512 bits an SD-4 run measures in the frame budget of 256 frames"
        )

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


_FIELD_KEYS = {f.name: key for key, f in _KEY_FIELDS.items()}


class TestConfigChecksItself:
    """Text, a file, direct construction and `replace` give one guarantee."""

    @pytest.mark.parametrize(
        "name, value, key",
        [
            ("ber_tgt", 2.0, "policy.ber_tgt"),                  # range rule
            ("snr_db", math.nan, "snr_db"),                      # finite check
            ("obstacle_z", 300.0, "geometry.obstacle_z"),        # cross check
            ("payload_len", 10**9, "frame"),                     # stream cap
            ("base_seed", -1, "base_seed"),
            ("rrc_span", 20000, "frame.rrc_span"),
            ("bersweep_max_bits", 0, "bersweep.max_bits"),
        ],
    )
    def test_every_way_to_build_raises_the_same_error(self, name, value, key, tmp_path):
        text = f"{_FIELD_KEYS[name]} = {value}\n"
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        builds = [
            lambda: parse_config(text),
            lambda: load_config(path),
            lambda: ScenarioConfig(**{name: value}),
            lambda: replace(ScenarioConfig(), **{name: value}),
        ]
        messages = set()
        for build in builds:
            with pytest.raises(ValidationError) as err:
                build()
            assert err.value.key == key
            messages.add(str(err.value))
        assert len(messages) == 1

    @pytest.mark.parametrize(
        "values, key",
        [
            ({"led_sep": 0.0}, "geometry.led_sep"),
            ({"pd_sep": -1.0}, "geometry.pd_sep"),
            ({"link_len": 0.0}, "geometry.link_len"),
            ({"obstacle_diam": 0.0}, "geometry.obstacle_diam"),
            ({"obstacle_z": 0.0}, "geometry.obstacle_z"),
            ({"lambert_m": 0.0}, "geometry.lambert_m"),
            ({"fov_deg": 90.5}, "geometry.fov_deg"),
            ({"beam_radius": -1.0}, "geometry.beam_radius"),
            ({"preamble_len": 10}, "frame.preamble_len"),
            ({"pilot_len": 3}, "frame.pilot_len"),
            ({"payload_len": 0}, "frame.payload_len"),
            ({"cp_len": -1}, "frame.cp_len"),
            ({"sps": 1}, "frame.sps"),
            ({"rolloff": 0.0}, "frame.rolloff"),
            ({"rrc_span": 3}, "frame.rrc_span"),
            ({"ber_tgt": 0.5}, "policy.ber_tgt"),
            ({"margin_db": -1.0}, "policy.margin_db"),
            ({"initial": "SM-3"}, "policy.initial"),
            ({"fallback": "QAM-16"}, "policy.fallback"),
            ({"sps": 3, "rrc_span": 5}, "frame.rrc_span"),   # rrc_span * sps must be even
            ({"pd_sep": 200.0}, "geometry"),                 # the direct path's gain underflows to 0
            ({"link_len": 1e-200, "obstacle_z": 1e-201}, "geometry"),   # its squared length underflows
        ],
    )
    def test_domain_rule_raises_with_its_key(self, values, key):
        # the domain type names the attribute at fault and the config names the key that sets it
        text = "".join(f"{_FIELD_KEYS[name]} = {value}\n" for name, value in values.items())
        for build in (lambda: parse_config(text), lambda: ScenarioConfig(**values)):
            with pytest.raises(ValidationError) as err:
                build()
            assert err.value.key == key

    @pytest.mark.parametrize("name", ["snr_db", "calibrate_margin_db", "bersweep_snr_start", "bersweep_snr_stop"])
    def test_db_keys_bounded_so_their_linear_power_is_finite(self, name):
        # 10^(dB/10) is 1e30 or 1e-30 at the bound; a BER-sweep grid sets both ends so start <= stop holds
        for value in (-MAX_ABS_DB, MAX_ABS_DB):
            values = {"bersweep_snr_start": value, "bersweep_snr_stop": value} if name.startswith("bersweep") else {}
            assert getattr(ScenarioConfig(**{name: value, **values}), name) == value
        for value in (-MAX_ABS_DB - 0.5, MAX_ABS_DB + 0.5, 4000.0):
            with pytest.raises(ValidationError) as err:
                parse_config(f"{_FIELD_KEYS[name]} = {value}\n")
            assert err.value.key == _FIELD_KEYS[name]

    def test_oversized_frame_raises_before_any_array_is_built(self):
        # the frame would span 4,000,000,900 samples per branch
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError) as err:
                ScenarioConfig(payload_len=10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.key == "frame"
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "name, value, key",
        [
            ("initial", Mode("SM", 64), "policy.initial"),   # a Mode where the key holds its name
            ("led_sep", "5", "geometry.led_sep"),            # text where the key holds a float
            ("payload_len", 4096.0, "frame.payload_len"),    # a float where the key holds an int
            ("base_seed", None, "base_seed"),                # None only where it is the default
        ],
    )
    def test_wrong_type_raises_validation_error(self, name, value, key):
        for build in (lambda: ScenarioConfig(**{name: value}), lambda: replace(ScenarioConfig(), **{name: value})):
            with pytest.raises(ValidationError) as err:
                build()
            assert err.value.key == key
            assert "is not a" in str(err.value)

    def test_int_accepted_for_a_float_key(self):
        assert ScenarioConfig(led_sep=5, snr_db=30) == ScenarioConfig(led_sep=5.0, snr_db=30.0)

    def test_oversized_tap_matrix_raises_before_any_array_is_built(self):
        # a one-symbol payload lets sps reach 13103 under the stream cap: an 886 MB matched-filter matrix
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError) as err:
                ScenarioConfig(
                    payload_len=1, preamble_len=7, pilot_len=4, cp_len=0, sps=13103, rrc_span=64,
                )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.key == "frame"
        assert f"cap of {MAX_TAP_MATRIX_BYTES}" in str(err.value)
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "values, rejected",
        [
            # (P + j) sps samples in, against the search reach ntaps + TAIL_PAD + sps - 2
            ({"preamble_len": 7, "pilot_len": 11}, True),    # j = 4: 44 samples in, reach 106
            ({"preamble_len": 7, "pilot_len": 10}, False),   # the pilots end one symbol short of a copy
            ({"preamble_len": 15, "pilot_len": 28}, False),  # j = 13: 112 samples in, reach 106
            ({"preamble_len": 15, "pilot_len": 28, "sps": 2}, True),          # 56 in, reach 84
            ({"preamble_len": 15, "pilot_len": 28, "rrc_span": 30}, True),    # 112 in, reach 186
            ({"pilot_len": 128}, False),                     # j = 46: 436 samples in, reach 106
        ],
    )
    def test_pilots_repeating_the_preamble_where_sync_searches_are_rejected(self, values, rejected):
        if not rejected:
            assert ScenarioConfig(**values).pilot_len == values["pilot_len"]
            return
        text = "".join(f"{_FIELD_KEYS[name]} = {value}\n" for name, value in values.items())
        for build in (lambda: parse_config(text), lambda: ScenarioConfig(**values)):
            with pytest.raises(ValidationError) as err:
                build()
            assert err.value.key == "frame.pilot_len"

    def test_tap_matrix_cap_admits_the_longest_filter_at_default_frame_lengths(self):
        # sps = 244 is the largest the stream cap admits at the default frame lengths
        assert ScenarioConfig(rrc_span=MAX_RRC_SPAN, sps=244).sps == 244
        with pytest.raises(ValidationError) as err:
            ScenarioConfig(rrc_span=MAX_RRC_SPAN, sps=245)
        assert f"cap of {MAX_STREAM_SAMPLES}" in str(err.value)

    def test_pilot_rule_keeps_the_verdicts_of_the_reach_it_restated(self):
        # the rule writes sync's reach past the true start as ntaps + TAIL_PAD + sps - 2, which must stay
        # the last start synchronize admits in the frame's stream, less LEAD_PAD
        assert ScenarioConfig(preamble_len=7, pilot_len=10).pilot_len == 10
        with pytest.raises(ValidationError) as err:
            ScenarioConfig(preamble_len=7, pilot_len=11)
        assert err.value.key == "frame.pilot_len"
        verdicts, ties = set(), 0
        # sps 31 at rrc_span 8 and sps 2 at rrc_span 13 put a copy exactly at the reach for P = 7 and P = 31
        for p, sps, rrc_span in itertools.product((7, 15, 31, 63, 127), (2, 3, 4, 8, 31), (4, 8, 10, 13, 30, 64)):
            if rrc_span * sps % 2:
                continue
            j = -_PILOT_SHIFT % p
            for pilot_len in sorted({4, 10, 11, 32, j + p - 1, j + p, j + p + 1} - {0, 1, 2, 3}):
                spec = FrameSpec(preamble_len=p, pilot_len=pilot_len, sps=sps, rrc_span=rrc_span)
                reach = spec.ntaps + TAIL_PAD + spec.sps - 2
                assert _last_start(spec, _stream_len(spec)) - LEAD_PAD == reach
                old = pilot_len >= j + p and (p + j) * sps <= reach
                ties += pilot_len >= j + p and (p + j) * sps == reach
                try:
                    ScenarioConfig(preamble_len=p, pilot_len=pilot_len, sps=sps, rrc_span=rrc_span)
                    rejected = False
                except ValidationError as exc:
                    assert exc.key == "frame.pilot_len"
                    rejected = True
                assert rejected == old, (p, pilot_len, sps, rrc_span)
                verdicts.add(rejected)
        assert verdicts == {False, True}
        assert ties > 0

    def test_rrc_span_at_the_cap_accepted(self):
        assert parse_config(f"frame.rrc_span = {MAX_RRC_SPAN}\n").rrc_span == MAX_RRC_SPAN
        assert ScenarioConfig(rrc_span=MAX_RRC_SPAN).rrc_span == MAX_RRC_SPAN
        with pytest.raises(ValidationError) as err:
            ScenarioConfig(rrc_span=MAX_RRC_SPAN + 1)
        assert err.value.key == "frame.rrc_span"

    def test_frames_per_ber_point_capped(self, monkeypatch):
        # SD-4 frames carry the fewest bits; a point stops once it has max_bits
        frame_bits = _frame_bits(Mode("SD", 4), ScenarioConfig().frame_spec())
        at_cap = MAX_BER_POINT_FRAMES * frame_bits - 1
        assert at_cap // frame_bits + 1 == MAX_BER_POINT_FRAMES
        points = []
        monkeypatch.setattr(scenario, "measure_mode_ber", lambda *task: points.append(task[-1]) or (0, 1))
        assert len(run_ber_sweep(parse_config(f"bersweep.max_bits = {at_cap}\n"), jobs=1)) == 8 * 14
        assert set(points) == {at_cap}
        for max_bits in (at_cap + 1, 10**12):
            cfg = parse_config(f"bersweep.max_bits = {max_bits}\n")   # the config itself parses
            with pytest.raises(ValidationError) as err:
                run_ber_sweep(cfg, jobs=1)
            assert err.value.key == "bersweep.max_bits"
            frames = max_bits // frame_bits + 1
            assert str(err.value) == (
                f"bersweep.max_bits: an SD-4 point would run {frames} frames, over the cap of {MAX_BER_POINT_FRAMES}"
            )
        assert set(points) == {at_cap}


_VALUES = st.one_of(
    st.integers(-(10**12), 10**12).map(str),
    st.floats().map(repr),
    st.sampled_from(["SM-64", "sd-4", "SM-3", "QAM-16", "nan", "-inf", "1e400", "0x10", "1_000", "four", "9" * 5000]),
    st.text(max_size=12),
)
_LINES = st.one_of(
    st.builds("{}{}{}".format, st.sampled_from(sorted(_KEY_FIELDS) + _TAILS), st.sampled_from(["=", " = ", "=="]), _VALUES),
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
        # what parses builds every part a sweep reads, within the caps; the position grid
        # is checked where it is built
        assert _stream_len(cfg.frame_spec()) <= MAX_STREAM_SAMPLES
        try:
            positions = cfg.positions()
        except ValidationError:
            positions = np.zeros(1)
        assert positions.size <= MAX_GRID_POINTS
        cfg.geometry(obstacle_x=float(positions[0]))
        cfg.policy()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_STEP = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)   # tiny steps give oversized grids
# each value passes its own key's rule; inverted grids, oversized grids and unmeetable budgets are all drawn
_SWEEP_KEYS = st.fixed_dictionaries({}, optional={
    "positions_start": _FINITE,
    "positions_step": _STEP,
    "positions_stop": _FINITE,
    "frames_per_position": st.integers(3, 256),
    "payload_bits": st.integers(1, 10**9),
    "payload_len": st.integers(16, 4096),
})
_DB = st.floats(-MAX_ABS_DB, MAX_ABS_DB)
_BER_SWEEP_KEYS = st.fixed_dictionaries({}, optional={
    "bersweep_snr_start": _DB,
    "bersweep_snr_step": _STEP,
    "bersweep_snr_stop": _DB,
    "bersweep_max_bits": st.integers(1, 10**13),
    "bersweep_min_errors": st.integers(1, 10**9),
})


def _commands(cfg):
    """Each command's outcome on `cfg`: None, or the key of the ValidationError
    it raised.  No frame runs: the sweeps' tasks are stubbed out."""
    report = SimpleNamespace(eff_bshz=0.0)
    commands = {
        "calibrate": lambda: calibrate(cfg),
        "blockage-sweep": lambda: run_blockage_sweep(cfg, jobs=1),
        "ber-sweep": lambda: run_ber_sweep(cfg, jobs=1),
    }
    outcomes = {}
    with mock.patch.object(scenario, "_run_position", lambda *task: (report, report, report)), \
            mock.patch.object(scenario, "measure_mode_ber", lambda *task: (0, 1)):
        for name, command in commands.items():
            try:
                command()
                outcomes[name] = None
            except ValidationError as err:
                outcomes[name] = err.key
    return outcomes


class TestEachSweepChecksItsOwnKeys:
    """A config that only sets one sweep's keys parses, and only that sweep may reject it."""

    @given(_SWEEP_KEYS)
    @settings(max_examples=100, deadline=None)
    @example({"payload_len": 64})   # the frame-budget rule's reproducer
    @example({"positions_start": 3.602879701896397e16, "positions_stop": 3.602879701896397e16})   # empty grid
    @example({"positions_start": 10.0, "positions_stop": 0.0})
    @example({"positions_step": 1e-9})
    def test_blockage_keys_reject_only_the_blockage_sweep(self, values):
        outcomes = _commands(ScenarioConfig(**values))
        assert outcomes["calibrate"] is None and outcomes["ber-sweep"] is None
        assert outcomes["blockage-sweep"] in (None, "sweep.positions.start", "sweep.positions.step",
                                              "sweep.payload_bits")

    @given(_BER_SWEEP_KEYS)
    @settings(max_examples=100, deadline=None)
    @example({"bersweep_snr_start": 40.0})
    @example({"bersweep_snr_step": 1e-6})
    @example({"bersweep_max_bits": 10**12})
    def test_ber_keys_reject_only_the_ber_sweep(self, values):
        outcomes = _commands(ScenarioConfig(**values))
        assert outcomes["calibrate"] is None and outcomes["blockage-sweep"] is None
        assert outcomes["ber-sweep"] in (None, "bersweep.snr_start", "bersweep.snr_step", "bersweep.max_bits")


class TestCalibrate:
    def test_meets_target_exactly_at_margin_removed(self):
        cfg = ScenarioConfig()
        p_cal = calibrate(cfg)
        p_raw = p_cal / 10.0 ** (cfg.calibrate_margin_db / 10.0)
        h, _ = channel_matrix(cfg.geometry(obstacle_x=None))
        est = ChannelEstimate(h)
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
        est2 = ChannelEstimate(2.0 * h)
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
        with pytest.raises(ValidationError, match="SM-256 infeasible even at 120 dB"):
            calibrate(cfg)


class TestRunPosition:
    def test_rerun_reproduces_bit_exactly(self):
        cfg = parse_config(FAST_TEXT)
        p_total = calibrate(cfg)
        first = _run_position(cfg, 0, p_total)
        second = _run_position(cfg, 0, p_total)
        for a, b in zip(first, second):
            assert a == b

    def test_reports_well_formed(self):
        cfg = parse_config(FAST_TEXT)
        adaptive, sm64, sd64 = _run_position(cfg, 0, calibrate(cfg))
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

    def test_blocks_and_trailer_follow_the_run_table_not_the_averages_dict(self):
        def rows(mode, eff):
            return [LinkReport(x, mode, 1000, 0, 0.0, eff, (20.0,), 0.01) for x in (-5.0, 5.0)]

        res = BlockageSweepResult(
            positions=np.array([-5.0, 5.0]),
            adaptive=rows(Mode("SM", 256), 16.0),
            fixed_sm64=rows(Mode("SM", 64), 12.0),
            fixed_sd64=rows(Mode("SD", 64), 6.0),
            averages={"fixed_sd64": 6.0, "fixed_sm64": 12.0, "adaptive": 16.0},   # reversed
            p_total=100.0,
        )
        buf = io.StringIO()
        write_blockage_csv(res, buf)
        lines = buf.getvalue().splitlines()
        assert [line for line in lines if line.startswith("# run=")] == [
            "# run=adaptive",
            "# run=fixed-sm64",
            "# run=fixed-sd64",
        ]
        assert lines[-2:] == [
            "# average_eff_bshz adaptive=16.000000 fixed_sm64=12.000000 fixed_sd64=6.000000",
            "# p_total_db=20.000000",
        ]

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
