"""CLI surface: subcommands, exit codes, output files."""

import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_lockstep import count_calls
from vlclink import ScenarioConfig, ValidationError, cli, load_config, parse_config, run_ber_sweep, run_blockage_sweep
from vlclink import scenario
from vlclink.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from vlclink.scenario import _KEY_FIELDS, _MAX_CONFIG_BYTES, _MAX_ECHO_CHARS

COMMANDS = ["calibrate", "blockage-sweep", "ber-sweep"]
INT_KEYS = sorted(key for key, f in _KEY_FIELDS.items() if f.metadata["parse"] is int)
# (key, command) pairs a 4000-digit value leaves valid: the key admits any size, or the command does not read it
VALID_AT_4000_DIGITS = {(key, command) for key in ("base_seed", "bersweep.min_errors") for command in COMMANDS} | {
    ("sweep.payload_bits", "calibrate"), ("sweep.payload_bits", "ber-sweep"),
    ("bersweep.max_bits", "calibrate"), ("bersweep.max_bits", "blockage-sweep"),
}
PREAMBLE_RULE = "preamble_len must be 2^d - 1 for d in 3..7, got "

FAST = """
frame.payload_len = 512
frame.pilot_len = 16
sweep.positions.start = 0
sweep.positions.stop = 0
sweep.payload_bits = 4000
"""


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST)
    return str(path)


class TestCalibrateCommand:
    def test_writes_parseable_output(self, fast_config, tmp_path, capsys):
        out = tmp_path / "cal.txt"
        assert main(["calibrate", "--config", fast_config, "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        values = dict(line.split("=") for line in text.strip().splitlines())
        assert float(values["p_total_db"]) == pytest.approx(
            10 * __import__("math").log10(float(values["p_total_linear"])), abs=1e-6
        )

    def test_stdout_default(self, fast_config, capsys):
        assert main(["calibrate", "--config", fast_config]) == EXIT_OK
        assert "p_total_db=" in capsys.readouterr().out


class TestBlockageSweepCommand:
    def test_runs_and_is_deterministic(self, fast_config, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["blockage-sweep", "--config", fast_config, "--out", str(out1)]) == EXIT_OK
        assert main(["blockage-sweep", "--config", fast_config, "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_output(self, fast_config, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["blockage-sweep", "--config", fast_config, "--seed", "1", "--out", str(out1)])
        main(["blockage-sweep", "--config", fast_config, "--seed", "2", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()


class TestBerSweepCommand:
    def test_runs_small_grid(self, tmp_path):
        cfg = tmp_path / "bs.cfg"
        cfg.write_text(
            FAST
            + "bersweep.snr_start = 15\nbersweep.snr_stop = 15\nbersweep.snr_step = 1\n"
            + "bersweep.max_bits = 4000\nbersweep.min_errors = 10\n"
        )
        out = tmp_path / "ber.csv"
        assert main(["ber-sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("scheme,order,snr_db")
        assert len(lines) == 1 + 8


class TestErrors:
    def test_missing_config_file(self, capsys):
        assert main(["calibrate", "--config", "/nonexistent.cfg"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_bad_key(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus = 1\n")
        assert main(["calibrate", "--config", str(path)]) == EXIT_CONFIG

    def test_bad_value(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("policy.ber_tgt = 2.0\n")
        assert main(["blockage-sweep", "--config", str(path)]) == EXIT_CONFIG

    def test_negative_seed(self, fast_config, capsys):
        # the config's own base_seed rule rejects the override
        assert main(["calibrate", "--config", fast_config, "--seed", "-1"]) == EXIT_CONFIG
        assert "config error: base_seed:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        ["snr_db = nan\n", "snr_db = inf\n", "calibrate.margin_db = nan\n", "sweep.positions.start = -inf\n",
         "sweep.positions.step = 1e-9\n"],
    )
    def test_non_finite_or_oversized_is_config_error(self, text, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert main(["blockage-sweep", "--config", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_frames_per_position_over_the_budget_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(FAST + "sweep.frames_per_position = 300\n")
        assert main(["blockage-sweep", "--config", str(path)]) == EXIT_CONFIG
        assert "config error: sweep.frames_per_position" in capsys.readouterr().err

    def test_payload_bits_beyond_the_frame_budget_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("frame.payload_len = 64\nsweep.positions.start = 0\nsweep.positions.stop = 0\n"
                        "sweep.payload_bits = 32513\n")
        assert main(["blockage-sweep", "--config", str(path)]) == EXIT_CONFIG
        assert "config error: sweep.payload_bits" in capsys.readouterr().err

    def test_payload_bits_an_sd4_fallback_cannot_meet_is_config_error(self, tmp_path, capsys):
        # the fixed SD-64 run meets 24384 bits in 254 frames of 96; at 15 dB the
        # adaptive run sends SD-4 frames of 32 bits, which would need 762
        path = tmp_path / "bad.cfg"
        path.write_text("frame.payload_len = 16\nsnr_db = 15\nsweep.payload_bits = 24384\n"
                        "sweep.positions.start = 0\nsweep.positions.stop = 0\n")
        assert main(["blockage-sweep", "--config", str(path)]) == EXIT_CONFIG
        assert "config error: sweep.payload_bits" in capsys.readouterr().err

    def test_pilots_repeating_the_preamble_where_sync_searches_is_config_error(self, tmp_path, capsys):
        # preamble 7 shifted by 17 puts a whole copy at pilot symbol 4, 11 symbols after the start;
        # such a sweep read a BER of 8e-2 at 20 dB, against 4.5e-24 in theory
        text = "frame.preamble_len = 7\nframe.payload_len = 512\nbersweep.snr_start = 20\nbersweep.snr_stop = 20\n" \
            "bersweep.max_bits = 20000\n"
        path = tmp_path / "bad.cfg"
        path.write_text(text + "frame.pilot_len = 11\n")
        assert main(["ber-sweep", "--config", str(path), "--out", str(tmp_path / "ber.csv")]) == EXIT_CONFIG
        assert "config error: frame.pilot_len" in capsys.readouterr().err
        path.write_text(text + "frame.pilot_len = 10\n")
        assert main(["ber-sweep", "--config", str(path), "--out", str(tmp_path / "ber.csv"), "--jobs", "1"]) == EXIT_OK
        assert "SD,4,20.00,0.000000e+00," in (tmp_path / "ber.csv").read_text()

    def test_infeasible_calibration_is_config_error(self, tmp_path, capsys):
        # LEDs and photodiodes 1 um apart give a rank-one channel: no SNR carries SM-256
        path = tmp_path / "bad.cfg"
        path.write_text(FAST + "geometry.led_sep = 0.0001\ngeometry.pd_sep = 0.0001\n")
        for command in ("calibrate", "blockage-sweep"):
            assert main([command, "--config", str(path)]) == EXIT_CONFIG
            assert "config error: snr_db: SM-256 infeasible even at 120 dB" in capsys.readouterr().err
        # with snr_db set the sweep does not calibrate
        path.write_text(path.read_text() + "snr_db = 30\n")
        assert main(["blockage-sweep", "--config", str(path), "--out", str(tmp_path / "sweep.csv")]) == EXIT_OK

    @pytest.mark.parametrize("command", ["blockage-sweep", "ber-sweep"])
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_config_error(self, command, jobs, fast_config, monkeypatch, capsys):
        def no_sweep(*args, **kwargs):
            raise AssertionError("sweep started")

        monkeypatch.setattr(cli, "run_blockage_sweep", no_sweep)
        monkeypatch.setattr(cli, "run_ber_sweep", no_sweep)
        assert main([command, "--config", fast_config, "--jobs", jobs]) == EXIT_CONFIG
        assert "config error: --jobs" in capsys.readouterr().err


class TestConfigEncoding:
    @pytest.mark.parametrize(
        "data, line, byte",
        [
            (b"base_seed = 3 # caf\xe9\n", 1, 0xE9),
            (b"snr_db = 20\r\n\r\nbase_seed = 3 # caf\xe9\r\n", 3, 0xE9),
            (b"snr_db = 20\rbase_seed = 3\r\xff\r", 3, 0xFF),   # lines end as parse_config splits them
            (b"\xef\xbb\xbfsnr_db = 20\n# \xc3\n", 2, 0xC3),   # a truncated sequence after a BOM
        ],
        ids=["latin1", "crlf", "cr", "bom-truncated"],
    )
    def test_text_that_is_not_utf8_is_config_error_before_any_work(self, data, line, byte, tmp_path, monkeypatch,
                                                                    capsys):
        def fail(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("run_blockage_sweep", "run_ber_sweep", "calibrate"):
            monkeypatch.setattr(cli, name, fail)
        path = tmp_path / "bad.cfg"
        path.write_bytes(data)
        for command in ("calibrate", "blockage-sweep", "ber-sweep"):
            assert main([command, "--config", str(path)]) == EXIT_CONFIG
            assert capsys.readouterr().err == f"config error: line {line}: byte 0x{byte:02x} is not UTF-8 text\n"

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path, capsys):
        text = "base_seed = 3\nsnr_db = 20\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(text.encode("utf-8-sig"))
        assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
        assert load_config(marked) == load_config(plain) == parse_config(text) != ScenarioConfig()
        outputs = []
        for path in (plain, marked):
            assert main(["calibrate", "--config", str(path)]) == EXIT_OK
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].err == ""


class TestConfigSize:
    def test_file_over_the_cap_is_config_error_before_decoding(self, tmp_path, capsys):
        at_cap, over = tmp_path / "at-cap.cfg", tmp_path / "over.cfg"
        at_cap.write_bytes(b"base_seed = 3\n#" + b"\xff" * (_MAX_CONFIG_BYTES - 15))
        over.write_bytes(b"base_seed = 3\n#" + b"\xff" * (_MAX_CONFIG_BYTES - 14))
        assert main(["calibrate", "--config", str(at_cap)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: line 2: byte 0xff is not UTF-8 text\n"
        assert main(["calibrate", "--config", str(over)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: line 2: config file exceeds the cap of {_MAX_CONFIG_BYTES} bytes\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("not a pair", "line 1: expected key=value, got 'not a pair'"),
            ("bogus = 1", "bogus: unknown key"),
            ("frame.sps = four", "frame.sps: cannot parse 'four' as int"),
            ("policy.initial = SM-3", "policy.initial: value 'SM-3' out of range"),
            ("x" * 10**6, f"line 1: expected key=value, got '{'x' * _MAX_ECHO_CHARS}...'"),
            ("x" * 10**6 + " = 1", f"{'x' * _MAX_ECHO_CHARS}...: unknown key"),
            ("frame.sps = " + "9x" * 500_000, f"frame.sps: cannot parse '{'9x' * (_MAX_ECHO_CHARS // 2)}...' as int"),
            ("policy.initial = " + "S" * 10**6, f"policy.initial: value '{'S' * (_MAX_ECHO_CHARS - 1)}... out of range"),
            ("frame.preamble_len = 10", f"frame.preamble_len: {PREAMBLE_RULE}10"),
            ("frame.sps = 1000", "frame: stream of 4241320 samples per branch exceeds the cap of 1048576"),
            ("frame.preamble_len = " + "9" * 4000,
             f"frame.preamble_len: {PREAMBLE_RULE}{'9' * (_MAX_ECHO_CHARS - len(PREAMBLE_RULE))}..."),
            # 320 + 4241 sps samples, so 4241 * 10^4000 - 3921 at sps = 10^4000 - 1
            ("frame.sps = " + "9" * 4000,
             f"frame: stream of 4240{'9' * (_MAX_ECHO_CHARS - 4)}... samples per branch exceeds the cap of 1048576"),
        ],
        ids=["no-equals", "unknown-key", "bad-int", "bad-mode", "long-no-equals", "long-key", "long-int", "long-mode",
             "frame-rule", "stream-cap", "long-frame-rule", "long-stream-cap"],
    )
    def test_error_quotes_at_most_a_prefix_of_the_text(self, text, message, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(text + "\n")
        assert main(["calibrate", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: {message}\n"
        assert len(err) < 1024

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("key", INT_KEYS)
    def test_integer_of_4000_digits_is_valid_or_a_short_config_error(self, key, command, tmp_path, monkeypatch,
                                                                     capsys):
        def reached(*args, **kwargs):
            raise RuntimeError("the sweep reached its tasks")

        monkeypatch.setattr(scenario, "_map_tasks", reached)   # a valid sweep stops before its first frame
        path = tmp_path / "big.cfg"
        path.write_text(f"{key} = {'9' * 4000}\n")
        code = main([command, "--config", str(path)])
        err = capsys.readouterr().err
        if (key, command) in VALID_AT_4000_DIGITS:
            if command == "calibrate":
                assert (code, err) == (EXIT_OK, "")
            else:
                assert (code, err) == (EXIT_RUNTIME, "runtime error: the sweep reached its tasks\n")
        else:
            assert code == EXIT_CONFIG and err.startswith("config error: ")
            assert len(err.encode()) <= 256


class TestOutPath:
    @pytest.mark.parametrize("command", ["blockage-sweep", "ber-sweep", "calibrate"])
    @pytest.mark.parametrize(
        "out, why",
        [("missing/x.csv", "is not a writable directory"), (".", "is a directory"),
         ("fast.cfg/x.csv", "is not a writable directory")],
        ids=["missing-directory", "directory", "file-as-directory"],
    )
    def test_bad_path_is_config_error_before_any_work(self, command, out, why, fast_config, tmp_path, monkeypatch,
                                                      capsys):
        def fail(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("run_blockage_sweep", "run_ber_sweep", "calibrate"):
            monkeypatch.setattr(cli, name, fail)
        assert main([command, "--config", fast_config, "--out", str(tmp_path / out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: --out: ") and why in err
        assert not (tmp_path / "missing").exists()

    def test_failed_run_writes_no_file(self, fast_config, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(cli, "calibrate", fail)
        out = tmp_path / "cal.txt"
        assert main(["calibrate", "--config", fast_config, "--out", str(out)]) == EXIT_RUNTIME
        assert not out.exists()


# LEDs and photodiodes 1 um apart: the clear channel has rank one
RANK_ONE_BER = """
geometry.led_sep = 0.0001
geometry.pd_sep = 0.0001
frame.payload_len = 64
bersweep.snr_start = 30
bersweep.snr_stop = 30
bersweep.max_bits = 1000
"""


class TestRankOneChannel:
    def test_ber_sweep_writes_no_sm_theory(self, tmp_path):
        cfg, out = tmp_path / "rank-one.cfg", tmp_path / "ber.csv"
        cfg.write_text(RANK_ONE_BER)
        assert main(["ber-sweep", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert sorted(row[0] for row in rows) == ["SD"] * 4 + ["SM"] * 4
        for scheme, _, _, ber_mc, ber_theory, *_ in rows:
            assert 0.0 <= float(ber_mc) <= 1.0
            if scheme == "SM":
                assert ber_theory == ""
            else:
                assert 0.0 <= float(ber_theory) <= 0.5


# the rules on a sweep's own keys, each with the sweep that reads them
SWEEP_RULES = [
    pytest.param("sweep.positions.start = 10\nsweep.positions.stop = 0\n", "blockage-sweep",
                 "sweep.positions.start: start must be <= stop", id="positions-order"),
    pytest.param("sweep.positions.step = 1e-9\n", "blockage-sweep",
                 "sweep.positions.step: grid of 1.3e+11 points exceeds the cap of 10000", id="positions-cap"),
    pytest.param("frame.payload_len = 64\n", "blockage-sweep",
                 "sweep.payload_bits: exceeds the 32512 bits an SD-4 run measures in the frame budget of 256 frames",
                 id="payload-bits"),
    pytest.param("bersweep.snr_start = 40\n", "ber-sweep",
                 "bersweep.snr_start: start must be <= stop", id="snr-order"),
    pytest.param("bersweep.snr_step = 1e-6\n", "ber-sweep",
                 "bersweep.snr_step: grid of 2.6e+07 points exceeds the cap of 10000", id="snr-cap"),
    pytest.param("bersweep.max_bits = 1000000000000\n", "ber-sweep",
                 "bersweep.max_bits: an SD-4 point would run 122070313 frames, over the cap of 65536", id="max-bits"),
    # (10^4000 - 1) // 8192 + 1 is 1220703125 * 10^3987
    pytest.param("bersweep.max_bits = " + "9" * 4000 + "\n", "ber-sweep",
                 f"bersweep.max_bits: an SD-4 point would run 1220703125{'0' * 70}... frames, over the cap of 65536",
                 id="long-max-bits"),
    # half a step below half the float spacing at stop: stop + step / 2 rounds to stop, so the grid is empty
    pytest.param("sweep.positions.start = 3.602879701896397e16\nsweep.positions.stop = 3.602879701896397e16\n",
                 "blockage-sweep",
                 "sweep.positions.step: the grid is empty: half a step of 5.0 vanishes against 3.602879701896397e+16",
                 id="positions-empty"),
    pytest.param("bersweep.snr_start = 300\nbersweep.snr_stop = 300\nbersweep.snr_step = 1e-14\n", "ber-sweep",
                 "bersweep.snr_step: the grid is empty: half a step of 1e-14 vanishes against 300.0", id="snr-empty"),
]


class TestSweepKeysCheckedBeforeWork:
    @pytest.mark.parametrize("text, command, line", SWEEP_RULES)
    def test_sweep_rejects_its_key_before_any_work(self, text, command, line, tmp_path, monkeypatch, capsys):
        counts = count_calls(monkeypatch, ["calibrate", "awgn"])
        cfg = parse_config(text)   # the config itself parses
        sweep = run_blockage_sweep if command == "blockage-sweep" else run_ber_sweep
        with pytest.raises(ValidationError) as err:
            sweep(cfg, jobs=1)
        assert str(err.value) == line
        path, out = tmp_path / "bad.cfg", tmp_path / "out.csv"
        path.write_text(text)
        assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {line}\n"
        assert not out.exists()
        assert sum(counts.values()) == 0

    @pytest.mark.parametrize("text, command, line", SWEEP_RULES)
    def test_other_commands_do_not_read_the_key(self, text, command, line, tmp_path):
        # the other sweep runs one BER point at 30 dB or one position at the centre
        if command == "blockage-sweep":
            other, short = "ber-sweep", "bersweep.snr_start = 30\nbersweep.snr_stop = 30\nbersweep.max_bits = 1000\n"
        else:
            other, short = "blockage-sweep", "sweep.positions.start = 0\nsweep.positions.stop = 0\n"
        path = tmp_path / "cfg.cfg"
        path.write_text(text + short)
        for args in (["calibrate"], [other, "--jobs", "1"]):
            out = tmp_path / f"{args[0]}.out"
            assert main([*args, "--config", str(path), "--out", str(out)]) == EXIT_OK
            assert out.stat().st_size > 0


# values at the edges of every rule: zero, signs, extremes, a non-number, modes and large integers
EDGE_VALUES = ["0", "1", "-1", "1e300", "-1e300", "1e-300", "nan", "SM-64", "SD-4", "SM-3", str(2**63), str(10**30)]


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("calibrate") / "drawn.cfg"


class TestCalibrateExitCode:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(sorted(_KEY_FIELDS)), st.sampled_from(EDGE_VALUES)), max_size=4))
    @example([("geometry.led_sep", "0"), ("geometry.pd_sep", "0")])   # a rank-one channel
    @example([("snr_db", "nan")])
    def test_exit_is_ok_or_config_error(self, config_path, lines):
        config_path.write_text("".join(f"{key} = {value}\n" for key, value in lines))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["calibrate", "--config", str(config_path)])
        assert code in (EXIT_OK, EXIT_CONFIG)
        if code == EXIT_CONFIG:
            assert len(err.getvalue().splitlines()) == 1
            assert err.getvalue().startswith("config error: ")
        else:
            assert err.getvalue() == ""
            assert "p_total_db=" in out.getvalue()


class TestJobs:
    @pytest.mark.parametrize("command", ["blockage-sweep", "ber-sweep"])
    def test_jobs_reach_the_sweep(self, command, fast_config, monkeypatch):
        seen = []

        def record(cfg, jobs):
            seen.append(jobs)
            raise RuntimeError("recorded")

        monkeypatch.setattr(cli, "run_blockage_sweep", record)
        monkeypatch.setattr(cli, "run_ber_sweep", record)
        assert main([command, "--config", fast_config, "--jobs", "2"]) == EXIT_RUNTIME
        assert main([command, "--config", fast_config]) == EXIT_RUNTIME
        assert seen == [2, None]
