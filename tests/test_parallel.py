"""Thread-parallel sweeps against the serial order.

`run_blockage_sweep` runs one task per position and `run_ber_sweep` one per
(curve, SNR point), each seeded on its own, on the calling thread and up to
`jobs` - 1 helper threads.  Every
`jobs` must render the serial CSV byte for byte, a failing sweep must raise
the serial run's first failure, and no queued task may start after it.
"""

import io
import math
import sys
import threading
import time
import traceback

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
from vlclink.framing import FrameSpec, _band_pair, mseq, pilot_symbols, rrc_taps
from vlclink.modem import _FIELDS, _POPCOUNT, constellation
from vlclink.scenario import _run_position, _usable_cpus, _worker_count

# The adaptive run at x = 1 (index 0, seed 14) alternates SM-16 and SM-64;
# two more positions give the threads something to share out.
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
                _run_position(cfg, index, 10.0 ** (cfg.snr_db / 10.0))
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


def position_keys(cfg):
    """Each position's effective channel as bytes, the key a `_run_frame` spy
    reads off its front end to tell positions apart."""
    p_total = 10.0 ** (cfg.snr_db / 10.0)
    return [
        (math.sqrt(p_total / 2.0) * channel_matrix(cfg.geometry(obstacle_x=float(x)))[0]).tobytes()
        for x in cfg.positions()
    ]


EIGHT_POSITIONS_TEXT = (
    SMALL_SWEEP_TEXT + "snr_db = 32\nsweep.positions.start = -4\nsweep.positions.stop = 3\nsweep.positions.step = 1\n"
)


class TestCallingThreadWorks:
    """The calling thread runs tasks beside `jobs` - 1 helpers, and stops with them."""

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_frames_run_on_at_most_jobs_threads_the_callers_among_them(self, jobs, three_cpus, monkeypatch):
        idents = set()
        real_run_frame = scenario._run_frame

        def spy_run_frame(*args):
            idents.add(threading.get_ident())
            time.sleep(0.002)   # give every thread time to take a task
            return real_run_frame(*args)

        monkeypatch.setattr(scenario, "_run_frame", spy_run_frame)
        threads_before = threading.active_count()
        run_blockage_sweep(parse_config(EIGHT_POSITIONS_TEXT), jobs=jobs)
        assert threading.get_ident() in idents
        assert len(idents) <= jobs   # so at jobs=1 the caller's is the only one
        assert threading.active_count() == threads_before   # every helper is joined

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_interrupt_propagates_and_stops_the_sweep(self, jobs, monkeypatch):
        """The calling thread's first task raises KeyboardInterrupt while a
        helper runs a later position: the sweep raises it once that position
        is done, no position after it starts, and nothing is returned."""
        cfg = parse_config(EIGHT_POSITIONS_TEXT)
        keys = position_keys(cfg)
        caller = threading.get_ident()
        started: set[bytes] = set()
        helper_positions: list[bytes] = []
        running = []   # frames the helper is inside
        helper_on_second = threading.Event()
        real_run_frame = scenario._run_frame

        def spy_run_frame(mode, bits, front_end, *args):
            key = front_end.h.tobytes()
            started.add(key)
            if threading.get_ident() == caller:
                if jobs > 1:
                    assert helper_on_second.wait(timeout=10.0)
                raise KeyboardInterrupt
            if key not in helper_positions:
                helper_positions.append(key)
            if len(helper_positions) == 1:
                return real_run_frame(mode, bits, front_end, *args)
            helper_on_second.set()   # a position after the caller's: only a join waits for it
            running.append(None)
            time.sleep(0.05)
            result = real_run_frame(mode, bits, front_end, *args)
            running.pop()
            return result

        monkeypatch.setattr(scenario, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(scenario, "_run_frame", spy_run_frame)
        returned = []
        with pytest.raises(KeyboardInterrupt):
            returned.append(run_blockage_sweep(cfg, jobs=jobs))
        assert returned == []
        assert running == []   # the helper's running position was joined
        assert started == set(keys[: 2 * jobs - 1])   # the caller's position and the helper's two

    def test_each_task_runs_once_in_order_under_fast_switching(self, fast_switching):
        """Four threads, switching every 10 us, share one task counter: each
        task runs once and the results keep task order."""
        runs = []

        def task(index):
            runs.append(index)
            return index * index

        results = scenario._map_tasks(task, [(index,) for index in range(2000)], 4)
        assert results == [index * index for index in range(2000)]
        assert sorted(runs) == list(range(2000))

    def test_interrupt_between_tasks_stops_the_helpers(self, monkeypatch):
        """An interrupt that reaches the calling thread outside any task, here
        while it starts the second helper, propagates; the first helper takes
        no task after its current one and is joined."""
        runs, started = [], []
        real_start = threading.Thread.start

        def start(thread):
            if started:
                raise KeyboardInterrupt
            started.append(thread)
            real_start(thread)

        def task(index):
            runs.append(index)
            time.sleep(0.01)

        monkeypatch.setattr(threading.Thread, "start", start)
        with pytest.raises(KeyboardInterrupt):
            scenario._map_tasks(task, [(index,) for index in range(20)], 3)
        assert len(runs) <= 1
        assert not started[0].is_alive()

    def test_helper_failure_surfaces_in_task_order(self, monkeypatch):
        """Both threads fail on their first task, the helper first: the
        sweep raises the failure of the lower position, whichever thread
        ran it, as the very exception object the task raised, its traceback
        still reaching the frame that raised it."""
        cfg = parse_config(EIGHT_POSITIONS_TEXT)
        keys = position_keys(cfg)
        caller = threading.get_ident()
        failed: dict[int, int] = {}   # position -> thread ident
        raised: dict[int, RuntimeError] = {}   # position -> the exception its task raised
        caller_started, helper_failed = threading.Event(), threading.Event()

        def spy_run_frame(mode, bits, front_end, *args):
            position = keys.index(front_end.h.tobytes())
            if threading.get_ident() != caller:
                assert caller_started.wait(timeout=10.0)
                failed[position] = threading.get_ident()
                raised[position] = RuntimeError(f"helper failure at position {position}")
                helper_failed.set()
                raise raised[position]
            caller_started.set()
            assert helper_failed.wait(timeout=10.0)
            failed[position] = caller
            raised[position] = RuntimeError(f"caller failure at position {position}")
            raise raised[position]

        monkeypatch.setattr(scenario, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(scenario, "_run_frame", spy_run_frame)
        with pytest.raises(RuntimeError) as info:
            run_blockage_sweep(cfg, jobs=2)
        assert sorted(failed) == [0, 1] and len(set(failed.values())) == 2
        thread = "caller" if failed[0] == caller else "helper"
        assert str(info.value) == f"{thread} failure at position 0"
        assert info.value is raised[0]
        frames = [frame.name for frame in traceback.extract_tb(info.value.__traceback__)]
        frames = [name for name in frames if name != "<dictcomp>"]   # from Python 3.12 comprehensions are inlined
        assert frames[-2:] == ["_lockstep", "spy_run_frame"]
        assert frames.index("_map_tasks") < frames.index("_run_position") < frames.index("_lockstep")


class TestSharedCachesReadOnly:
    def test_framing_caches(self):
        tables = (
            mseq(63),
            rrc_taps(FrameSpec()),
            _band_pair(np.ones(41).tobytes(), 4),
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

    def test_label_tables(self):
        for table in (_POPCOUNT, _FIELDS[2], _FIELDS[4]):
            with pytest.raises(ValueError):
                table[0] = 0
