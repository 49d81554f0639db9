"""Correctness gate for the CSV text a workload produces.

At seed 1 the CSV must hash to the digest recorded for the workload.  At any
seed it must satisfy invariants that hold for every seed: the row layout,
the mode-code table, the bits/errors bookkeeping, the columns that do not
depend on noise, and the paper's claims on the default blockage sweep.  The
gate parses the text on its own and does not import the simulator, so a
defect in the simulator cannot excuse itself.
"""

from __future__ import annotations

import hashlib
import math

from spec import Workload

# The normative 3-bit mode table (README, "Mode codes").
MODE_NAMES = ("SD-4", "SD-16", "SD-64", "SD-256", "SM-4", "SM-16", "SM-64", "SM-256")
BER_TARGET = 1e-3
REPORT_HEADER = "position_cm,mode_code,mode_name,ber,eff_bshz,snr1_db,snr2_db,evm"
BER_HEADER = "scheme,order,snr_db,ber_mc,ber_theory,bits,errors,eff_bshz"
BLOCKS = ("adaptive", "fixed-sm64", "fixed-sd64")

# Calibration uses only the geometry and the BER target, so every seed and
# both blockage workloads share it.
P_TOTAL_DB_LINE = "# p_total_db=32.425302"
# sha256 of the ber-sweep columns that do not depend on noise
# (scheme, order, snr_db, ber_theory, eff_bshz), one row per line.
BER_THEORY_SHA256 = "9287c0560f36d2b6a1dde019afd44d0ea5f704fbe80f7194e7b3e8da377177ef"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def config_value(workload: Workload, key: str, default: float) -> float:
    for line in workload.config_text.splitlines():
        name, _, value = line.partition("=")
        if name.strip() == key:
            return float(value)
    return default


def mode_efficiency(name: str) -> float:
    scheme, order = name.split("-")
    return math.log2(int(order)) * (2 if scheme == "SM" else 1)


def check(workload: Workload, seed: int, csv: str) -> list[str]:
    """Problems found in `csv`; an empty list means it passes."""
    problems: list[str] = []
    if seed == 1 and sha256(csv) != workload.seed1_sha256:
        problems.append(f"seed 1 sha256 {sha256(csv)} != recorded {workload.seed1_sha256}")
    try:
        if workload.sweep == "blockage":
            problems += _check_blockage(workload, csv)
        else:
            problems += _check_ber(workload, csv)
    except (ValueError, IndexError, KeyError) as exc:
        problems.append(f"malformed CSV: {exc!r}")
    return problems


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _check_blockage(workload: Workload, csv: str) -> list[str]:
    problems: list[str] = []
    start = config_value(workload, "sweep.positions.start", -65.0)
    stop = config_value(workload, "sweep.positions.stop", 65.0)
    step = config_value(workload, "sweep.positions.step", 5.0)
    n_positions = int(round((stop - start) / step)) + 1

    lines = csv.split("\n")
    if lines[-1] != "":
        problems.append("CSV does not end in a newline")
    blocks: dict[str, list[list[str]]] = {}
    i = 0
    for label in BLOCKS:
        if lines[i] != f"# run={label}" or lines[i + 1] != REPORT_HEADER:
            return problems + [f"block {label!r} missing or out of order at line {i + 1}"]
        i += 2
        rows = []
        while lines[i] != "":
            rows.append(lines[i].split(","))
            i += 1
        i += 1
        blocks[label] = rows

    for label, rows in blocks.items():
        if len(rows) != n_positions:
            problems.append(f"{label}: {len(rows)} rows, expected {n_positions}")
            continue
        for k, row in enumerate(rows):
            where = f"{label} row {k}"
            if len(row) != 8:
                problems.append(f"{where}: {len(row)} fields")
                continue
            pos, code, name, ber, eff, snr1, snr2, evm = row
            if not _close(float(pos), start + k * step, 1e-9):
                problems.append(f"{where}: position {pos}, expected {start + k * step:g}")
            if MODE_NAMES[int(code)] != name:
                problems.append(f"{where}: code {code} does not name {name}")
            ber_v = float(ber)
            if not 0.0 <= ber_v <= 1.0:
                problems.append(f"{where}: ber {ber} outside [0, 1]")
            expected_eff = mode_efficiency(name) if ber_v <= BER_TARGET else 0.0
            if float(eff) != expected_eff:
                problems.append(f"{where}: eff {eff}, expected {expected_eff:g}")
            if not snr1 or (snr2 == "") != name.startswith("SD"):
                problems.append(f"{where}: SNR columns {snr1!r}, {snr2!r} do not fit {name}")
            if float(evm) < 0.0:
                problems.append(f"{where}: negative evm")
        fixed = {"fixed-sm64": "SM-64", "fixed-sd64": "SD-64"}.get(label)
        if fixed and any(row[2] != fixed for row in rows):
            problems.append(f"{label}: a row is not in {fixed}")
    if problems:
        return problems

    tail = lines[i:]
    if len(tail) != 3 or tail[1] != P_TOTAL_DB_LINE or not tail[0].startswith("# average_eff_bshz "):
        return problems + [f"trailer {tail!r} is not the averages and {P_TOTAL_DB_LINE!r}"]
    averages = dict(item.split("=") for item in tail[0].split()[2:])
    for label, rows in blocks.items():
        key = label.replace("-", "_")
        mean = sum(float(row[4]) for row in rows) / len(rows)
        if not _close(float(averages[key]), mean, 1e-6):
            problems.append(f"average {key}={averages[key]} but rows average {mean:.6f}")
    if workload.name == "blockage-default":
        if averages["fixed_sd64"] != "6.000000":
            problems.append(f"SD-64 average {averages['fixed_sd64']}, expected exactly 6.000000")
        adaptive = float(averages["adaptive"])
        if adaptive < float(averages["fixed_sm64"]) or adaptive < float(averages["fixed_sd64"]):
            problems.append(f"adaptive average {adaptive} below a fixed baseline")
    return problems


def _check_ber(workload: Workload, csv: str) -> list[str]:
    problems: list[str] = []
    payload_len = int(config_value(workload, "frame.payload_len", 4096))
    max_bits = int(config_value(workload, "bersweep.max_bits", 400_000))
    min_errors = int(config_value(workload, "bersweep.min_errors", 100))
    snr_start = config_value(workload, "bersweep.snr_start", 8.0)
    snr_step = config_value(workload, "bersweep.snr_step", 2.0)
    snr_stop = config_value(workload, "bersweep.snr_stop", 34.0)
    grid = [snr_start + k * snr_step for k in range(int(round((snr_stop - snr_start) / snr_step)) + 1)]

    lines = csv.split("\n")
    if lines[0] != BER_HEADER or lines[-1] != "":
        return [f"header {lines[0]!r} or final newline wrong"]
    rows = [line.split(",") for line in lines[1:-1]]
    expected = [(s, o, g) for s in ("SD", "SM") for o in (4, 16, 64, 256) for g in grid]
    if len(rows) != len(expected):
        return [f"{len(rows)} rows, expected {len(expected)}"]
    theory_lines = []
    for row, (scheme, order, snr) in zip(rows, expected):
        where = f"{scheme}-{order} at {snr:g} dB"
        if len(row) != 8:
            problems.append(f"{where}: {len(row)} fields")
            continue
        r_scheme, r_order, r_snr, ber_mc, ber_theory, bits, errors, eff = row
        if (r_scheme, int(r_order), float(r_snr)) != (scheme, order, snr):
            problems.append(f"{where}: row is {r_scheme}-{r_order} at {r_snr}")
        bits_v, errors_v = int(bits), int(errors)
        frame_bits = int(math.log2(order)) * payload_len * (2 if scheme == "SM" else 1)
        if bits_v <= 0 or bits_v % frame_bits:
            problems.append(f"{where}: {bits_v} bits is not a whole number of {frame_bits}-bit frames")
        if not 0 <= errors_v <= bits_v:
            problems.append(f"{where}: {errors_v} errors in {bits_v} bits")
        elif bits_v and not _close(float(ber_mc), errors_v / bits_v, 1e-6 * errors_v / bits_v):
            problems.append(f"{where}: ber_mc {ber_mc} != {errors_v}/{bits_v}")
        if errors_v < min_errors and bits_v < max_bits:
            problems.append(f"{where}: stopped early at {errors_v} errors, {bits_v} bits")
        if bits_v > frame_bits and bits_v - frame_bits >= max_bits:
            problems.append(f"{where}: ran past the {max_bits}-bit cap")
        if float(eff) != mode_efficiency(f"{scheme}-{order}"):
            problems.append(f"{where}: eff {eff}")
        theory_lines.append(f"{r_scheme},{r_order},{r_snr},{ber_theory},{eff}\n")
    if not problems and workload.config_text == "" and sha256("".join(theory_lines)) != BER_THEORY_SHA256:
        problems.append("noise-free columns (scheme, order, snr_db, ber_theory, eff_bshz) changed")
    return problems
