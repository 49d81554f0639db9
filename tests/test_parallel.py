"""Thread-parallel sweeps against the serial order.

`run_blockage_sweep` runs one task per position and `run_ber_sweep` one per
(curve, SNR point), each seeded on its own, on up to `jobs` threads.  Every
`jobs` must render the serial CSV byte for byte, a failing sweep must raise
the serial run's first failure, and no queued task may start after it.
"""

import io
import math
import sys
import threading
import time

import numpy as np
import pytest

from test_lockstep import SMALL_SWEEP_TEXT, SWITCHING_TEXT
from vlclink import (
    Mode,
    channel_matrix,
    parse_config,
    run_ber_sweep,
    run_blockage_sweep,
    write_ber_csv,
    write_blockage_csv,
)
from vlclink import scenario
from vlclink.errors import ParameterError, SyncNotFound
from vlclink.framing import FrameSpec, _band_pair, _cached_cascade, _cached_mseq, pilot_symbols, rrc_taps
from vlclink.modem import constellation
from vlclink.scenario import _usable_cpus, _worker_count, run_position

# The adaptive run at x = 1 (index 0, seed 14) alternates SM-16 and SM-64;
# two more positions give the pool something to share out.
SWITCHING_SWEEP_TEXT = SWITCHING_TEXT + "sweep.positions.stop = 3\nsweep.positions.step = 1\n"

# 8 curves x 4 points: low-SNR points stop at min_errors after one frame,
# high-SNR points run to max_bits, so the tasks differ in cost.
BER_TEXT = """
frame.payload_len = 512
frame.pilot_len = 16
bersweep.snr_start = 6
bersweep.snr_step = 8
bersweep.snr_stop = 30
bersweep.max_bits = 20000
bersweep.min_errors = 20
"""

# Three positions around x = 0 at -10 dB: each loses sync on its first frame,
# with its own correlation in the message.
NO_SYNC_SWEEP_TEXT = "snr_db = -10\nsweep.positions.start = -5\nsweep.positions.stop = 5\n"


@pytest.fixture()
def three_cpus(monkeypatch):
    """Let `jobs` up to 3 start that many threads whatever this machine has."""
    monkeypatch.setattr(scenario, "_usable_cpus", lambda: 3)


@pytest.fixture()
def fast_switching():
    """Switch threads every 10 us for the test, so frames interleave finely."""
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(before)


def blockage_csv(text, jobs):
    buf = io.StringIO()
    write_blockage_csv(run_blockage_sweep(parse_config(text), jobs=jobs), buf)
    return buf.getvalue()


def ber_csv(text, jobs):
    buf = io.StringIO()
    write_ber_csv(run_ber_sweep(parse_config(text), jobs=jobs), buf)
    return buf.getvalue()


class TestWorkerCount:
    def test_default_is_usable_cpus(self):
        assert _worker_count(None, 100, 2) == 2
        assert _worker_count(None, 100, 16) == 16

    def test_clamped_to_cpus(self):
        assert _worker_count(8, 100, 2) == 2
        assert _worker_count(10**9, 27, 2) == 2

    def test_clamped_to_tasks(self):
        assert _worker_count(4, 3, 16) == 3
        assert _worker_count(None, 1, 16) == 1

    def test_one_job_is_serial(self):
        assert _worker_count(1, 100, 16) == 1

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_below_one_rejected(self, jobs):
        with pytest.raises(ParameterError, match="jobs"):
            _worker_count(jobs, 100, 2)

    def test_usable_cpus_positive(self):
        assert _usable_cpus() >= 1

    def test_bad_jobs_rejected_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("sweep started")

        monkeypatch.setattr(scenario, "calibrate", no_work)
        monkeypatch.setattr(scenario, "measure_mode_ber", no_work)
        with pytest.raises(ParameterError):
            run_blockage_sweep(parse_config(SMALL_SWEEP_TEXT), jobs=0)
        with pytest.raises(ParameterError):
            run_ber_sweep(parse_config(BER_TEXT), jobs=0)


class TestSameOutputForEveryJobs:
    @pytest.mark.parametrize("text", [SMALL_SWEEP_TEXT, SWITCHING_SWEEP_TEXT], ids=["small", "switching"])
    def test_blockage(self, text, three_cpus, fast_switching):
        serial = blockage_csv(text, jobs=1)
        assert blockage_csv(text, jobs=2) == serial
        assert blockage_csv(text, jobs=3) == serial

    def test_ber_points_of_uneven_cost(self, three_cpus, fast_switching):
        rows = run_ber_sweep(parse_config(BER_TEXT), jobs=1)
        frames = {r.bits / (Mode(r.scheme, r.order).efficiency * 512) for r in rows}
        assert min(frames) == 1 and max(frames) >= 10
        serial = ber_csv(BER_TEXT, jobs=1)
        assert ber_csv(BER_TEXT, jobs=2) == serial
        assert ber_csv(BER_TEXT, jobs=3) == serial


class TestFailure:
    def test_same_error_as_serial(self, three_cpus):
        cfg = parse_config(NO_SYNC_SWEEP_TEXT)
        messages = []
        for index in range(cfg.positions().size):
            with pytest.raises(SyncNotFound) as info:
                run_position(cfg, index)
            messages.append(str(info.value))
        assert len(set(messages)) == len(messages)
        for jobs in (1, 2, 3):
            with pytest.raises(SyncNotFound) as info:
                run_blockage_sweep(cfg, jobs=jobs)
            assert str(info.value) == messages[0]

    def test_queued_tasks_do_not_start_after_failure(self, monkeypatch):
        """Position 0 fails while position 1 runs: positions 3.. must never start.

        The thread freed by the failure may take position 2 before the sweep
        sees the failure; everything queued behind it is cancelled.
        """
        cfg = parse_config(
            SMALL_SWEEP_TEXT + "snr_db = 32\nsweep.positions.start = -4\nsweep.positions.stop = 3\nsweep.positions.step = 1\n"
        )
        p_total = 10.0 ** (cfg.snr_db / 10.0)
        keys = [
            (math.sqrt(p_total / 2.0) * channel_matrix(cfg.geometry(obstacle_x=float(x)))[0]).tobytes()
            for x in cfg.positions()
        ]
        assert len(set(keys)) == 8
        started: set[bytes] = set()
        other_started = threading.Event()
        real_run_frame = scenario._run_frame

        def spy_run_frame(mode, bits, front_end, *args):
            key = front_end.h.tobytes()
            started.add(key)
            if key == keys[0]:
                other_started.wait(timeout=10.0)
                raise RuntimeError("injected failure at position 0")
            other_started.set()
            time.sleep(0.05)   # keep the running positions busy while the failure propagates
            return real_run_frame(mode, bits, front_end, *args)

        monkeypatch.setattr(scenario, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(scenario, "_run_frame", spy_run_frame)
        with pytest.raises(RuntimeError, match="injected failure at position 0"):
            run_blockage_sweep(cfg, jobs=2)
        assert other_started.is_set()
        assert keys[1] in started
        assert started <= set(keys[:3])   # the five positions still queued never ran


class TestSharedCachesReadOnly:
    def test_framing_caches(self):
        tables = (
            _cached_mseq(63),
            rrc_taps(FrameSpec()),
            _cached_cascade(FrameSpec()),
            _band_pair(np.ones(41).tobytes(), (41, 1), 4),
            pilot_symbols(FrameSpec()),
        )
        for table in tables:
            with pytest.raises(ValueError):
                table[0] = 0.0

    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_constellation_tables(self, order):
        c = constellation(order)
        for table in (c.level_by_code, c.points):
            with pytest.raises(ValueError):
                table[0] = 0
