"""Metrics tests: BER accounting, efficiencies, CSV dumps."""

import io

import numpy as np
import pytest

from vlclink import Mode, ScenarioConfig, make_rng, qam_map, write_blockage_csv
from vlclink.receiver import ChannelEstimate
from vlclink.scenario import BlockageSweepResult, FrameResult, LinkReport, _Run, dump_constellation


def credited_report(mode, errors):
    """The report of a run whose last frame is in `mode`: 2000 bits, `errors` of them wrong."""
    config = ScenarioConfig()
    est = ChannelEstimate(30.0 * np.eye(2, dtype=complex))
    run = _Run(config, config.policy(), mode)
    first = min(errors, 1000)
    run.frames = [
        FrameResult(Mode("SD", 16), 1000, est, 0, first, 0.02, 1.0),
        FrameResult(mode, 1000, est, 0, errors - first, 0.02, 1.0),
    ]
    return run.report(0.0)


class TestEfficiency:
    def test_values(self):
        assert Mode("SM", 64).efficiency == 12
        assert Mode("SD", 64).efficiency == 6
        assert Mode("SM", 256).efficiency == 16

    def test_doubling_identity(self):
        for order in (4, 16, 64, 256):
            assert Mode("SM", order).efficiency == 2 * Mode("SD", order).efficiency

    def test_error_free_thresholding(self):
        # the report credits the last mode only where the pooled BER meets the target
        assert 2 / 2000 == ScenarioConfig().ber_tgt
        for errors, credited in ((0, 12.0), (2, 12.0), (3, 0.0), (40, 0.0)):   # 2 is at the target
            report = credited_report(Mode("SM", 64), errors)
            assert (report.bits_sent, report.bit_errors, report.ber) == (2000, errors, errors / 2000)
            assert report.mode == Mode("SM", 64)
            assert report.eff_bshz == credited

    def test_monotone_in_measured_ber(self):
        effs = [credited_report(Mode("SD", 16), errors).eff_bshz for errors in range(0, 2001, 20)]
        assert all(a >= b for a, b in zip(effs, effs[1:]))
        assert effs[0] == 4.0 and effs[-1] == 0.0

    def test_sweep_average_is_position_order_invariant(self):
        rng = make_rng(3)
        values = rng.uniform(0, 16, 27)
        shuffled = values.copy()
        rng.shuffle(shuffled)
        assert np.mean(values) == pytest.approx(np.mean(shuffled), abs=1e-12)


class TestDumpConstellation:
    def test_qpsk_points(self, tmp_path):
        path = tmp_path / "qpsk.csv"
        dump_constellation(qam_map([0, 0, 0, 1, 1, 0, 1, 1], 4), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "I,Q"
        assert lines[1] == "0.707107,0.707107"
        assert set(lines[1:]) == {
            "0.707107,0.707107",
            "0.707107,-0.707107",
            "-0.707107,0.707107",
            "-0.707107,-0.707107",
        }

    def test_empty_input_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        dump_constellation([], path)
        assert path.read_text() == "I,Q\n"

    def test_round_trip_precision(self, tmp_path):
        rng = make_rng(4)
        syms = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        path = tmp_path / "c.csv"
        dump_constellation(syms, path)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        parsed = rows[:, 0] + 1j * rows[:, 1]
        assert np.max(np.abs(parsed - syms)) < 1e-6


class TestReportRow:
    def test_formats_both_schemes(self):
        sm = LinkReport(
            position_cm=-65.0, mode=Mode("SM", 256), bits_sent=131072, bit_errors=77,
            ber=77 / 131072, eff_bshz=16.0, snrs_db=(29.41, 29.44), evm=0.0338,
        )
        sd = LinkReport(
            position_cm=0.0, mode=Mode("SD", 64), bits_sent=122880, bit_errors=0,
            ber=0.0, eff_bshz=6.0, snrs_db=(26.9,), evm=0.02,
        )
        result = BlockageSweepResult(
            positions=np.array([0.0]), adaptive=[sm], fixed_sm64=[sm], fixed_sd64=[sd],
            averages={"adaptive": 16.0, "fixed_sm64": 16.0, "fixed_sd64": 6.0}, p_total=100.0,
        )
        out = io.StringIO()
        write_blockage_csv(result, out)
        header = "position_cm,mode_code,mode_name,ber,eff_bshz,snr1_db,snr2_db,evm"
        sm_row = "-65,7,SM-256,5.874634e-04,16,29.41,29.44,0.033800"
        sd_row = "0,2,SD-64,0.000000e+00,6,26.90,,0.020000"   # no second stream under SD
        assert out.getvalue().splitlines() == [
            "# run=adaptive", header, sm_row, "",
            "# run=fixed-sm64", header, sm_row, "",
            "# run=fixed-sd64", header, sd_row, "",
            "# average_eff_bshz adaptive=16.000000 fixed_sm64=16.000000 fixed_sd64=6.000000",
            "# p_total_db=20.000000",
        ]
