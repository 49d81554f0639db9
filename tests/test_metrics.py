"""Metrics tests: BER accounting, efficiencies, CSV dumps."""

import numpy as np
import pytest

from vlclink import Mode, make_rng, qam_map
from vlclink.metrics import REPORT_HEADER, LinkReport, dump_constellation, error_free_efficiency, format_report_row


class TestEfficiency:
    def test_values(self):
        assert Mode("SM", 64).efficiency == 12
        assert Mode("SD", 64).efficiency == 6
        assert Mode("SM", 256).efficiency == 16

    def test_doubling_identity(self):
        for order in (4, 16, 64, 256):
            assert Mode("SM", order).efficiency == 2 * Mode("SD", order).efficiency

    def test_error_free_thresholding(self):
        assert error_free_efficiency(Mode("SM", 64), 0.0, 1e-3) == 12
        assert error_free_efficiency(Mode("SM", 64), 0.02, 1e-3) == 0
        assert error_free_efficiency(Mode("SM", 64), 1e-3, 1e-3) == 12

    def test_monotone_in_measured_ber(self):
        grid = np.linspace(0, 1, 101)
        effs = [error_free_efficiency(Mode("SD", 16), float(b), 1e-3) for b in grid]
        assert all(a >= b for a, b in zip(effs, effs[1:]))

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
        row = format_report_row(sm)
        assert row.startswith("-65,7,SM-256,")
        assert row.count(",") == REPORT_HEADER.count(",")
        sd = LinkReport(
            position_cm=0.0, mode=Mode("SD", 64), bits_sent=122880, bit_errors=0,
            ber=0.0, eff_bshz=6.0, snrs_db=(26.9,), evm=0.02,
        )
        fields = format_report_row(sd).split(",")
        assert fields[1] == "2" and fields[2] == "SD-64"
        assert fields[6] == ""  # no second stream under SD
