"""Golden-output checks: the default sweeps render byte-identical CSVs.

The digests are those of `vlclink blockage-sweep` and `vlclink ber-sweep`
run on `configs/default.cfg`.  A change that alters either output must say
why and re-baseline the digest here.
"""

import hashlib
import io
from pathlib import Path

import pytest

from vlclink import load_config, run_ber_sweep, run_blockage_sweep, write_ber_csv, write_blockage_csv

DEFAULT_CFG = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"

GOLDEN = {
    "blockage-sweep": "c51c15554cec85360529f9179e1f2d4b1c84f45722c3f7ea1bf57ba1c5f2c890",
    "ber-sweep": "a795bcdc1160856957a712eeb947fa8426d83f3e16077d38a7ca27b0d7ab538b",
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
