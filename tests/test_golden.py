"""Golden-output checks: the default sweeps render byte-identical CSVs.

The digests are those of `vlclink blockage-sweep` and `vlclink ber-sweep`
run on `configs/default.cfg`; of `blockage-sweep` on short frames, a 1 cm
grid and eight frames per position, where the per-frame paths weigh about
three times more; of both sweeps on the small config with
`frame.pilot_len = 8` that CI also runs, where the sync head reaches the
payload, so the modes of one frame index do not share a front end; and of
`blockage-sweep` on `configs/deep-obstruction.cfg`, where the adaptive run
walks the whole mode ladder (`tests/test_deep_obstruction.py`).  Each
demo is pinned by its stdout and by every file it writes: demo 05 writes
the default blockage CSV and the received constellation at x = 0.  A
change that alters any output must say why and re-baseline the digest here;
the seed-1 digests of the default sweeps and of the short-frame sweep, and
that sweep's config, are read from the benchmark's workload table
(`bench/spec.py`), so a re-baseline of those is one edit there.
"""

import hashlib
import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vlclink import load_config, parse_config, run_ber_sweep, run_blockage_sweep, write_ber_csv, write_blockage_csv

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_CFG = ROOT / "configs" / "default.cfg"
DEEP_OBSTRUCTION_CFG = ROOT / "configs" / "deep-obstruction.cfg"


def bench_workloads():
    """`WORKLOADS` of `bench/spec.py`, which is not an importable package."""
    module_spec = importlib.util.spec_from_file_location("bench_spec", ROOT / "bench" / "spec.py")
    module = importlib.util.module_from_spec(module_spec)
    sys.modules[module_spec.name] = module   # its dataclasses resolve their annotations through it
    module_spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = bench_workloads()
GOLDEN = {
    "blockage-sweep": WORKLOADS["blockage-default"].seed1_sha256,
    "ber-sweep": WORKLOADS["ber-default"].seed1_sha256,
}

SHORT_FRAMES_TEXT = WORKLOADS["blockage-short"].config_text
SHORT_FRAMES_DIGEST = WORKLOADS["blockage-short"].seed1_sha256

PILOT8_TEXT = """
frame.payload_len = 512
frame.pilot_len = 8
sweep.positions.start = -10
sweep.positions.stop = 10
sweep.payload_bits = 4000
bersweep.snr_start = 6
bersweep.snr_step = 8
bersweep.snr_stop = 30
bersweep.max_bits = 20000
bersweep.min_errors = 20
"""
PILOT8_GOLDEN = {
    "blockage-sweep": "019e429475ed67225c1870354bcd3c54f31ef220f4e3d33bc1478b86428b8c32",
    "ber-sweep": "0b22984e6a173723b03a19b69d02e8d6efa227b0ac44b070e2fb9b5999e30105",
}

DEEP_OBSTRUCTION_DIGEST = "d41241e1d9c9f39ac917e1c216d7d094449bbc101212a5ccb0f6262f3e4dfdec"

DEMO_STDOUT = {
    "01_qam_modem.py": "35aa2ac473652c13f4a595ebf21e3f78da1238b6b6627a7be62c410e90a43762",
    "02_pulse_shaping.py": "3cf98f4b85bbd86c7e12d10f3ad9c8990b8083916a7fc7275bb2d82121874dd6",
    "03_channel_geometry.py": "9b7b42da2a0637225bc66d90b6dff21f1c61c942844665fc9963e9a20720d97f",
    "04_mode_selection.py": "11d3122380468a3d3fd7fd3b7324369993b3e832706463c2dd6bd5cda0b7b1e7",
    "05_blockage_sweep.py": "bad551f21b0c22d79cda5e841d9bee95ee158c07e294a00ea410ed2672fd6892",
}
DEMO_FILES = {
    "05_blockage_sweep.py": {
        "blockage_sweep.csv": GOLDEN["blockage-sweep"],
        "constellation_center.csv": "88979c61c46a3f8d6e8e2584473ced1950e4d190d72a83269da6800484476044",
    },
}

SWEEPS = {
    "blockage-sweep": (run_blockage_sweep, write_blockage_csv),
    "ber-sweep": (run_ber_sweep, write_ber_csv),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_default_csv_digest(command):
    run, write = SWEEPS[command]
    buf = io.StringIO()
    write(run(load_config(DEFAULT_CFG)), buf)
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == GOLDEN[command]


def test_short_frame_blockage_csv_digest():
    buf = io.StringIO()
    write_blockage_csv(run_blockage_sweep(parse_config(SHORT_FRAMES_TEXT)), buf)
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == SHORT_FRAMES_DIGEST


def test_deep_obstruction_blockage_csv_digest():
    buf = io.StringIO()
    write_blockage_csv(run_blockage_sweep(load_config(DEEP_OBSTRUCTION_CFG)), buf)
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == DEEP_OBSTRUCTION_DIGEST


@pytest.mark.parametrize("command", sorted(PILOT8_GOLDEN))
def test_pilot8_csv_digest(command):
    run, write = SWEEPS[command]
    buf = io.StringIO()
    write(run(parse_config(PILOT8_TEXT)), buf)
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == PILOT8_GOLDEN[command]


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT))
def test_demo_stdout_digest(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env, capture_output=True, check=True, timeout=120
    )
    assert hashlib.sha256(run.stdout).hexdigest() == DEMO_STDOUT[demo]
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
    assert written == DEMO_FILES.get(demo, {})
