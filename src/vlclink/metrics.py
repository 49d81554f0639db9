"""Link reports, error-free efficiency, and CSV dumps.

CSV schemas (comma separated, '.' decimal, header row mandatory):

* constellation dump:  I,Q  with 6 decimal digits per field;
* link report:  position_cm,mode_code,mode_name,ber,eff_bshz,snr1_db,snr2_db,evm
  where snr2_db is empty for single-stream (SD) records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .adapt import Mode, encode_mode
from .errors import ParameterError

__all__ = [
    "LinkReport",
    "REPORT_HEADER",
    "error_free_efficiency",
    "dump_constellation",
    "format_report_row",
    "write_report_block",
]

REPORT_HEADER = "position_cm,mode_code,mode_name,ber,eff_bshz,snr1_db,snr2_db,evm"


@dataclass(frozen=True)
class LinkReport:
    """Steady-state record for one obstacle position."""

    position_cm: float
    mode: Mode
    bits_sent: int
    bit_errors: int
    ber: float
    eff_bshz: float
    snrs_db: tuple[float, ...]
    evm: float


def error_free_efficiency(mode: Mode, measured_ber: float, ber_tgt: float) -> float:
    """Efficiency credited only when the measured BER meets the target."""
    if not 0.0 <= measured_ber <= 1.0:
        raise ParameterError(f"measured_ber must be in [0, 1], got {measured_ber}")
    return mode.efficiency if measured_ber <= ber_tgt else 0.0


def dump_constellation(symbols, path) -> None:
    """Write received symbols as an I,Q CSV with 6 decimal digits."""
    symbols = np.asarray(symbols, dtype=np.complex128).ravel()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("I,Q\n")
        for s in symbols:
            fh.write(f"{s.real:.6f},{s.imag:.6f}\n")


def format_report_row(report: LinkReport) -> str:
    snr1 = f"{report.snrs_db[0]:.2f}" if report.snrs_db else ""
    snr2 = f"{report.snrs_db[1]:.2f}" if len(report.snrs_db) > 1 else ""
    return (
        f"{report.position_cm:g},{encode_mode(report.mode)},{report.mode.name},"
        f"{report.ber:.6e},{report.eff_bshz:g},{snr1},{snr2},{report.evm:.6f}"
    )


def write_report_block(reports: Iterable[LinkReport], fh: IO[str], label: str) -> None:
    """One run's block: a `# run=<label>` line, the header, then a row per report."""
    fh.write(f"# run={label}\n")
    fh.write(REPORT_HEADER + "\n")
    for report in reports:
        fh.write(format_report_row(report) + "\n")
