"""Lockstep blockage positions against the sequential three-run reference.

A blockage position's task, `_run_position`, steps the adaptive, fixed
SM-64 and fixed SD-64 runs together, draws each frame index's noise once
and runs the whole frame chain once per distinct mode among the runs that
read the index: the fixed runs skip their settling frames.  The reference
below is the loop it replaced: each run on its own, frame after frame,
simulating and decoding every frame and drawing its own noise with the
former in-place formula.  Both must give identical reports, compared with
exact equality.
"""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_chain import reference_front_end, reference_noise
from test_modem import pack_labels
from vlclink import Mode, ScenarioConfig, calibrate, channel_matrix, parse_config, run_ber_sweep, run_blockage_sweep
from vlclink import scenario
from vlclink.adapt import controller_step, new_controller
from vlclink.errors import SingularMatrix
from vlclink.framing import FrameSpec, head_symbols
from vlclink.modem import map_labels, unpack_labels
from vlclink.numerics import make_rng
from vlclink.receiver import ChannelEstimate, stream_snrs
from vlclink.scenario import (
    LEAD_PAD,
    N0,
    P_TOTAL_REF,
    SETTLING_FRAMES,
    TAIL_PAD,
    _ROLE_BITS,
    _ROLE_NOISE,
    LinkReport,
    _FrontEnds,
    _frame_bits,
    _packed_bits,
    _run_frame,
    _run_position,
)

# Adaptive run alternates SM-16 and SM-64 inside its measured window.
SWITCHING_TEXT = """
frame.payload_len = 1024
sweep.payload_bits = 30000
sweep.positions.start = 1
sweep.positions.stop = 1
base_seed = 14
"""

SMALL_SWEEP_TEXT = """
frame.payload_len = 512
frame.pilot_len = 16
sweep.positions.start = -5
sweep.positions.stop = 5
sweep.payload_bits = 4000
base_seed = 3
"""


# The sync head reaches 12 payload symbols, so modes do not share front ends.
PILOT8_TEXT = """
frame.payload_len = 512
frame.pilot_len = 8
sweep.payload_bits = 4000
"""


def reference_bits(seed, frame_idx, n_bits):
    """The first `n_bits` payload bits of frame `frame_idx`, packed, from the
    generator seeded `seed + (frame_idx, _ROLE_BITS)`."""
    return _packed_bits(make_rng(np.random.SeedSequence(seed + (frame_idx, _ROLE_BITS))), n_bits)


def reference_simulate_position(config, h_norm, p_total, position_cm, pos_seed, fixed_mode, used):
    """The sequential single-run loop; appends each simulated (frame index, mode) to `used`."""
    spec = config.frame_spec()
    policy = config.policy()
    h_eff = math.sqrt(p_total / 2.0) * h_norm
    state = new_controller(policy) if fixed_mode is None else None

    min_measured = config.frames_per_position - SETTLING_FRAMES
    measured_frames = 0
    bits_total = 0
    errors_total = 0
    err_power = 0.0
    ref_power = 0.0
    snr_records = []
    last_mode = None

    frame_idx = 0
    while True:
        mode = state.pending if state is not None else fixed_mode
        result = _run_frame(
            mode,
            reference_bits((pos_seed,), frame_idx, _frame_bits(mode, spec)),
            reference_front_end(h_eff, spec, reference_noise(spec, (pos_seed,), frame_idx)),
        )
        used.append((frame_idx, mode))
        sm_snrs, sd_snrs = (stream_snrs(result.est, P_TOTAL_REF, N0, scheme) for scheme in ("SM", "SD"))
        if state is not None:
            controller_step(state, sm_snrs, sd_snrs, policy)
        if frame_idx >= SETTLING_FRAMES:
            measured_frames += 1
            bits_total += result.bits
            errors_total += result.errors
            err_power += result.err_power
            ref_power += result.ref_power
            last_mode = mode
            if mode.scheme == "SM" and sm_snrs is not None:
                snr_records.append(("SM", sm_snrs.snr))
            elif mode.scheme == "SD":
                snr_records.append(("SD", sd_snrs.snr))
        frame_idx += 1
        if measured_frames >= min_measured and bits_total >= config.payload_bits:
            break
        if frame_idx > 256:
            raise RuntimeError(f"position {position_cm}: frame budget exhausted")

    ber = errors_total / bits_total
    matching = [snr for scheme, snr in snr_records if scheme == last_mode.scheme]
    if matching:
        mean_lin = np.mean(np.asarray(matching), axis=0)
        snrs_db = tuple(10.0 * math.log10(v) for v in mean_lin)
    else:
        snrs_db = ()
    return LinkReport(
        position_cm=position_cm,
        mode=last_mode,
        bits_sent=bits_total,
        bit_errors=errors_total,
        ber=ber,
        eff_bshz=last_mode.efficiency if ber <= policy.ber_tgt else 0.0,
        snrs_db=snrs_db,
        evm=math.sqrt(err_power / ref_power) if ref_power > 0 else 0.0,
    )


def reference_run_position(config, index, p_total):
    """(reports, per-run lists of simulated (frame index, mode)) from the sequential loop."""
    x = float(config.positions()[index])
    h_norm, _ = channel_matrix(config.geometry(obstacle_x=x))
    pos_seed = config.base_seed + index
    reports, used = [], []
    for fixed_mode in (None, Mode("SM", 64), Mode("SD", 64)):
        used.append([])
        reports.append(reference_simulate_position(config, h_norm, p_total, x, pos_seed, fixed_mode, used[-1]))
    return tuple(reports), used


@pytest.fixture(scope="module")
def default_p_total():
    return calibrate(ScenarioConfig())


def assert_same_reports(config, index, p_total):
    got = _run_position(config, index, p_total)
    want, used = reference_run_position(config, index, p_total)
    assert got == want   # LinkReport equality: every float compared exactly
    return want, used


class TestMatchesSequentialReference:
    @pytest.mark.parametrize("index", [13, 0], ids=["shadowed-x0", "clear-x-65"])
    def test_default_positions(self, index, default_p_total):
        assert_same_reports(ScenarioConfig(), index, default_p_total)

    def test_adaptive_changes_mode_inside_measured_window(self):
        cfg = parse_config(SWITCHING_TEXT)
        _, used = assert_same_reports(cfg, 0, calibrate(cfg))
        measured = {mode for frame_idx, mode in used[0] if frame_idx >= SETTLING_FRAMES}
        assert len(measured) > 1
        assert Mode("SM", 64) in measured   # shares chain runs with the fixed SM-64 run

    def test_runs_end_at_different_frame_indices(self, default_p_total):
        _, used = assert_same_reports(ScenarioConfig(), 0, default_p_total)
        ends = [run[-1][0] for run in used]
        assert len(set(ends)) == 3

    @pytest.mark.parametrize(
        "text, indices", [(SMALL_SWEEP_TEXT, range(3)), (PILOT8_TEXT, (0, 12, 13, 26))], ids=["small", "pilot8"]
    )
    def test_small_and_pilot8_configs(self, text, indices):
        cfg = parse_config(text)
        p_total = calibrate(cfg)
        for index in indices:
            assert_same_reports(cfg, index, p_total)

    def test_bit_budget_met_exactly(self):
        # two measured SM-64 frames of 512 symbols carry exactly 12288 bits
        cfg = parse_config(SMALL_SWEEP_TEXT + "sweep.payload_bits = 12288\n")
        _, used = assert_same_reports(cfg, 1, calibrate(cfg))
        assert used[1][-1][0] == SETTLING_FRAMES + 1


def read_pairs(used):
    """The (frame index, mode) pairs of `reference_run_position`'s runs that the
    lockstep engine simulates: every frame of the adaptive run, the fixed runs'
    frames from SETTLING_FRAMES on."""
    adaptive, *fixed = used
    return set(adaptive) | {(frame_idx, mode) for run in fixed for frame_idx, mode in run if frame_idx >= SETTLING_FRAMES}


def spy_frame_indices(monkeypatch, pos_seed):
    """(noise draws, chain runs, decodes): the frame index of each noise draw, the
    (frame index, mode) of each `_run_frame` call and the frame index of each
    call to a detector or the demapper, from now on."""
    noise_draws, bits_frames, chain_runs, decodes = [], [], [], []
    real_make_rng, real_run_frame = scenario.make_rng, scenario._run_frame

    def spy_make_rng(seed):
        seed_tuple, frame_idx, role = seed.entropy[:-2], seed.entropy[-2], seed.entropy[-1]
        assert tuple(seed_tuple) == pos_seed
        (noise_draws if role == _ROLE_NOISE else bits_frames).append(frame_idx)
        return real_make_rng(seed)

    def spy_run_frame(mode, *args):
        chain_runs.append((bits_frames[-1], mode))
        return real_run_frame(mode, *args)

    monkeypatch.setattr(scenario, "make_rng", spy_make_rng)
    monkeypatch.setattr(scenario, "_run_frame", spy_run_frame)
    for name in ("detect_sm_zf", "combine_sd_mrc", "demap_labels"):
        real = getattr(scenario, name)

        def spy(*args, _real=real, _name=name):
            decodes.append((bits_frames[-1], _name))
            return _real(*args)

        monkeypatch.setattr(scenario, name, spy)
    return noise_draws, chain_runs, decodes


class TestSharedWork:
    @pytest.mark.parametrize("index", range(3))
    def test_one_noise_draw_per_frame_index_one_chain_run_per_mode(self, index, monkeypatch):
        cfg = parse_config(SMALL_SWEEP_TEXT)
        p_total = calibrate(cfg)
        _, used = reference_run_position(cfg, index, p_total)
        want_pairs = read_pairs(used)
        want_indices = {frame_idx for frame_idx, _ in want_pairs}
        assert want_indices == {frame_idx for run in used for frame_idx, _ in run}   # the adaptive run reads them all

        noise_draws, chain_runs, _ = spy_frame_indices(monkeypatch, (cfg.base_seed + index,))
        _run_position(cfg, index, p_total)

        assert sorted(noise_draws) == sorted(want_indices)
        assert sorted(chain_runs, key=lambda p: (p[0], p[1].name)) == sorted(
            want_pairs, key=lambda p: (p[0], p[1].name)
        )
        assert len(chain_runs) < sum(len(run) for run in used)

    @pytest.mark.parametrize("index", [13, 0], ids=["shadowed-x0", "clear-x-65"])
    def test_fixed_runs_skip_settling_and_every_chain_run_decodes_once(self, index, default_p_total, monkeypatch):
        cfg = ScenarioConfig()
        noise_draws, chain_runs, decodes = spy_frame_indices(monkeypatch, (cfg.base_seed + index,))
        _run_position(cfg, index, default_p_total)

        settling = [(frame_idx, mode) for frame_idx, mode in chain_runs if frame_idx < SETTLING_FRAMES]
        assert [frame_idx for frame_idx, _ in settling] == list(range(SETTLING_FRAMES))   # the adaptive run alone
        assert noise_draws[:SETTLING_FRAMES] == list(range(SETTLING_FRAMES))
        # every chain run, settling ones included, detects and demaps once, whichever runs share it
        runs = Counter(frame_idx for frame_idx, _ in chain_runs)
        demaps = Counter(frame_idx for frame_idx, name in decodes if name == "demap_labels")
        detections = Counter(frame_idx for frame_idx, name in decodes if name != "demap_labels")
        assert demaps == detections == runs

    @pytest.mark.parametrize("mode, snr_db", [(Mode("SD", 4), 10.0), (Mode("SM", 64), 32.0)], ids=["SD-4", "SM-64"])
    def test_every_ber_frame_decodes(self, mode, snr_db, monkeypatch):
        cfg = parse_config(SMALL_SWEEP_TEXT)
        seed = (3, 1)
        noise_draws, chain_runs, decodes = spy_frame_indices(monkeypatch, seed)
        _, bits = scenario.measure_mode_ber(cfg, mode, 10.0 ** (snr_db / 10.0), seed, 40, 20_000)
        frames = list(range(len(chain_runs)))
        assert len(frames) > 1 and bits == len(frames) * _frame_bits(mode, cfg.frame_spec())
        assert noise_draws == frames
        assert [frame_idx for frame_idx, name in decodes if name == "demap_labels"] == frames
        assert [frame_idx for frame_idx, name in decodes if name != "demap_labels"] == frames

    def test_single_position_reproduces_sweep_rows(self):
        cfg = parse_config(SMALL_SWEEP_TEXT)
        res = run_blockage_sweep(cfg)
        assert len(res.adaptive) == 3
        for index in range(3):
            rows = (res.adaptive[index], res.fixed_sm64[index], res.fixed_sd64[index])
            assert _run_position(cfg, index, res.p_total) == rows


class TestLockstepStop:
    """`_lockstep` stops at the first frame index that no active run reads.
    That cuts no run short only while a run that is not done reads every
    index, save a fixed blockage run before SETTLING_FRAMES, where the
    adaptive run is still active.  A new run kind or run table meets it here."""

    def test_runs_read_every_index_but_a_fixed_runs_settling_frames(self):
        cfg = ScenarioConfig()
        policy = cfg.policy()
        indices = range(scenario._MAX_FRAMES_PER_POSITION)
        for _, mode in scenario._BLOCKAGE_RUNS:
            run = scenario._Run(cfg, policy, mode, new_controller(policy) if mode is None else None)
            skipped = [] if mode is None else list(range(SETTLING_FRAMES))
            assert [k for k in indices if not run.reads(k)] == skipped
        assert all(scenario._BerRun(Mode("SD", 4), 1, 1).reads(k) for k in range(scenario.MAX_BER_POINT_FRAMES))

    @pytest.mark.parametrize("extra", ["", "sweep.frames_per_position = 3\nsweep.payload_bits = 1\n"])
    def test_every_run_is_done_when_the_lockstep_stops(self, monkeypatch, extra):
        """At the smallest budgets, too, the adaptive run outlasts the settling frames."""
        tables = []
        real = scenario._lockstep

        def spy(runs, *args):
            real(runs, *args)
            tables.append(runs)

        monkeypatch.setattr(scenario, "_lockstep", spy)
        cfg = parse_config(SMALL_SWEEP_TEXT + extra + "bersweep.snr_start = 20\nbersweep.snr_stop = 20\n"
                           "bersweep.max_bits = 4000\n")
        run_blockage_sweep(cfg, jobs=1)
        run_ber_sweep(cfg, jobs=1)
        assert len(tables) == 3 + 8   # three positions, eight BER points
        assert all(run.done for runs in tables for run in runs)


class TestPayloadBits:
    """Labels from raw PCG64 words, one draw per frame index shared by its chain runs."""

    @given(st.sampled_from([4, 16, 64, 256]), st.integers(1, 5000), st.integers(0, 7), st.integers(0, 2**63 - 1))
    @settings(max_examples=150, deadline=None)
    def test_raw_word_labels_equal_integers_then_pack(self, order, count, spare, seed):
        k = int(math.log2(order))
        want = pack_labels(make_rng(seed).integers(0, 2, size=count * k), order)
        for n_bits in (count * k, count * k + spare, 16 * count + 1):   # a run reads a prefix of a longer draw
            assert np.array_equal(unpack_labels(_packed_bits(make_rng(seed), n_bits), order, count), want)

    def test_frame_seeds_give_the_same_labels(self):
        spec = FrameSpec(payload_len=100)
        bits = _FrontEnds(np.eye(2), spec).draw((7,), 3, 16 * 2 * 100)
        for mode in (Mode("SD", 4), Mode("SM", 64), Mode("SM", 256)):
            rng = make_rng(np.random.SeedSequence((7, 3, _ROLE_BITS)))
            want = pack_labels(rng.integers(0, 2, size=_frame_bits(mode, spec)), mode.order)
            assert np.array_equal(unpack_labels(bits, mode.order, mode.streams * 100), want)

    @pytest.mark.parametrize("index", range(3))
    def test_one_bits_generator_per_frame_index(self, index, monkeypatch):
        cfg = parse_config(SMALL_SWEEP_TEXT)
        p_total = calibrate(cfg)
        roles = Counter()
        real_make_rng = scenario.make_rng

        def spy_make_rng(seed):
            roles[seed.entropy[-1]] += 1
            return real_make_rng(seed)

        monkeypatch.setattr(scenario, "make_rng", spy_make_rng)
        counts = count_calls(monkeypatch, ("_run_frame",))
        _run_position(cfg, index, p_total)
        assert roles[_ROLE_BITS] == roles[_ROLE_NOISE] < counts["_run_frame"]
        roles.clear()
        scenario.measure_mode_ber(cfg, Mode("SM", 16), 10.0 ** 2.4, (3, 1), 40, 20_000)
        assert roles[_ROLE_BITS] == roles[_ROLE_NOISE] > 1

    @pytest.mark.parametrize("mode", [Mode("SD", 64), Mode("SM", 16)], ids=lambda m: m.name)
    def test_reference_power_is_the_sent_symbol_energy(self, mode):
        spec = parse_config(SMALL_SWEEP_TEXT).frame_spec()
        h_eff = 30.0 * np.eye(2, dtype=complex)
        front_end = _FrontEnds(h_eff, spec)
        bits = front_end.draw((5,), 0, _frame_bits(mode, spec))
        result = _run_frame(mode, bits, front_end)
        sent = map_labels(unpack_labels(bits, mode.order, mode.streams * spec.payload_len), mode.order)
        assert result.ref_power == float(np.sum(np.abs(sent.reshape(mode.streams, -1)) ** 2))


def spy_stream_snrs(monkeypatch):
    """The scheme of each `stream_snrs` call from `scenario`, from now on."""
    schemes = []
    real = scenario.stream_snrs

    def spy(est, p_total, n0, scheme):
        schemes.append(scheme)
        return real(est, p_total, n0, scheme)

    monkeypatch.setattr(scenario, "stream_snrs", spy)
    return schemes


class TestDecodeInOnePlace:
    """`_run_frame` decodes every chain run; each run derives the SNRs it reads from the estimate."""

    def test_stream_snrs_calls_of_the_default_sweep(self, monkeypatch):
        schemes = spy_stream_snrs(monkeypatch)
        run_blockage_sweep(ScenarioConfig(), jobs=1)
        # 81 for calibration (the 120 dB check and 80 bisection steps), both schemes for each of the
        # controller's 111 frames, and in the reports one for each of the adaptive run's 57 and the
        # fixed runs' 216 measured frames
        assert len(schemes) == 81 + 2 * 111 + 57 + 216

    @pytest.mark.parametrize(
        "fixed_mode, want",
        [(Mode("SM", 64), []), (Mode("SD", 64), []), (None, ["SM", "SD"])],
        ids=["fixed-SM-64", "fixed-SD-64", "adaptive"],
    )
    def test_each_run_computes_the_snrs_it_reads(self, fixed_mode, want, monkeypatch):
        cfg = ScenarioConfig()
        policy = cfg.policy()
        mode = fixed_mode or policy.initial
        spec = cfg.frame_spec()
        front_end = _FrontEnds(30.0 * np.eye(2, dtype=complex), spec)
        bits = front_end.draw((5,), SETTLING_FRAMES, _frame_bits(mode, spec))
        result = _run_frame(mode, bits, front_end)
        run = scenario._Run(cfg, policy, fixed_mode, None if fixed_mode else new_controller(policy))
        schemes = spy_stream_snrs(monkeypatch)
        run.record(SETTLING_FRAMES, result)
        assert schemes == want   # the controller's, if any; a fixed run computes none until its report
        assert len(run.frames) == 1 and run.frames[0] is result
        report = run.report(0.0)
        assert schemes == want + [mode.scheme]   # the report's, from the kept frame's estimate
        snrs = stream_snrs(result.est, P_TOTAL_REF, N0, mode.scheme).snr
        assert report.snrs_db == tuple(10.0 * math.log10(v) for v in snrs)

    def test_detector_error_raises_from_run_frame(self, monkeypatch):
        calls, raised = [], []
        real_run_frame = scenario._run_frame

        def spy_run_frame(mode, *args):
            calls.append(mode)
            try:
                return real_run_frame(mode, *args)
            except SingularMatrix:
                raised.append(mode)
                raise

        def singular(*args):
            raise SingularMatrix("injected singular estimate")

        cfg = parse_config(SMALL_SWEEP_TEXT)
        p_total = calibrate(cfg)
        monkeypatch.setattr(scenario, "_run_frame", spy_run_frame)
        monkeypatch.setattr(scenario, "detect_sm_zf", singular)
        with pytest.raises(SingularMatrix, match="injected"):
            _run_position(cfg, 0, p_total)
        # the first chain run raises: the adaptive run's frame 0, a settling frame
        assert calls == raised == [cfg.policy().initial]


def switching_runs(monkeypatch):
    """(runs, chain runs, used) of SWITCHING_TEXT's one position: its adaptive, fixed
    SM-64 and fixed SD-64 `_Run`s stepped by `_lockstep` as `_run_position` steps them,
    the (frame index, mode, record) of each `_run_frame` call, in call order, and the
    sequential reference's per-run lists of simulated (frame index, mode)."""
    cfg = parse_config(SWITCHING_TEXT)
    p_total = calibrate(cfg)
    _, used = reference_run_position(cfg, 0, p_total)
    policy = cfg.policy()
    runs = [
        scenario._Run(cfg, policy, mode, None if mode is not None else new_controller(policy))
        for mode in (None, Mode("SM", 64), Mode("SD", 64))
    ]
    frame_indices, chain_runs = [], []
    real_draw, real_run_frame = scenario._FrontEnds.draw, scenario._run_frame

    def spy_draw(front_end, seed, frame_idx, n_bits):
        frame_indices.append(frame_idx)
        return real_draw(front_end, seed, frame_idx, n_bits)

    def spy_run_frame(mode, *args):
        result = real_run_frame(mode, *args)
        chain_runs.append((frame_indices[-1], mode, result))
        return result

    monkeypatch.setattr(scenario._FrontEnds, "draw", spy_draw)
    monkeypatch.setattr(scenario, "_run_frame", spy_run_frame)
    x = float(cfg.positions()[0])
    scenario._lockstep(runs, cfg, x, p_total, (cfg.base_seed,))
    return runs, chain_runs, used


class TestFrameRecords:
    """`FrameResult` is the one per-frame record: a blockage run keeps the frames it
    measured, and its report is a reduction over them."""

    def test_record_is_frozen_and_holds_no_per_symbol_array(self):
        spec = parse_config(SMALL_SWEEP_TEXT).frame_spec()
        front_end = _FrontEnds(30.0 * np.eye(2, dtype=complex), spec)
        mode = Mode("SM", 16)
        result = _run_frame(mode, front_end.draw((5,), 0, _frame_bits(mode, spec)), front_end)
        assert None not in (result.errors, result.err_power, result.ref_power)
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.errors = 0
        values = [getattr(result, f.name) for f in dataclasses.fields(result)]
        assert not any(isinstance(value, np.ndarray) for value in values)
        assert isinstance(result.est, ChannelEstimate)

    @pytest.mark.parametrize("index", [13, 0], ids=["shadowed-x0", "clear-x-65"])
    def test_every_record_handed_to_a_run_is_complete(self, index, default_p_total, monkeypatch):
        handed = []
        real_record = scenario._Run.record

        def spy_record(run, frame_idx, result):
            handed.append((frame_idx, result))
            real_record(run, frame_idx, result)

        monkeypatch.setattr(scenario._Run, "record", spy_record)
        _run_position(ScenarioConfig(), index, default_p_total)
        assert {frame_idx for frame_idx, _ in handed} >= set(range(SETTLING_FRAMES))   # settling frames included
        for _, result in handed:
            assert all(getattr(result, f.name) is not None for f in dataclasses.fields(result))

    def test_adaptive_run_keeps_its_measured_frames_in_order(self, monkeypatch):
        (adaptive, fixed_sm64, _), chain_runs, used = switching_runs(monkeypatch)
        records = {(frame_idx, mode): result for frame_idx, mode, result in chain_runs}
        assert len(records) == len(chain_runs)   # one chain run per (frame index, mode)
        measured = [pair for pair in used[0] if pair[0] >= SETTLING_FRAMES]
        assert [id(frame) for frame in adaptive.frames] == [id(records[pair]) for pair in measured]
        assert {Mode("SM", 16), Mode("SM", 64)} <= {frame.mode for frame in adaptive.frames}
        # both runs keep frame index SETTLING_FRAMES + i at i, and share its record when both send SM-64
        shared = [(a, f) for a, f in zip(adaptive.frames, fixed_sm64.frames) if a.mode == Mode("SM", 64)]
        assert shared and all(a is f for a, f in shared)

    def test_report_is_the_sequential_reduction_of_the_kept_frames(self, monkeypatch):
        runs, _, _ = switching_runs(monkeypatch)
        for run in runs:
            bits = errors = 0
            err_power = ref_power = 0.0
            for frame in run.frames:
                bits += frame.bits
                errors += frame.errors
                err_power += frame.err_power
                ref_power += frame.ref_power
            report = run.report(1.0)
            assert (report.bits_sent, report.bit_errors, report.evm) == (bits, errors, math.sqrt(err_power / ref_power))


def count_calls(monkeypatch, names):
    """Counter of calls to each `scenario` function in `names`, from now on."""
    counts = Counter()
    for name in names:
        real = getattr(scenario, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(scenario, name, spy)
    return counts


def head_reach(spec):
    """Frame symbols the sync head is shaped from."""
    return head_symbols(spec, LEAD_PAD, LEAD_PAD + spec.n_samples + TAIL_PAD)


class TestSharedFrontEnd:
    @pytest.mark.parametrize("index", [13, 0], ids=["shadowed-x0", "clear-x-65"])
    def test_one_front_end_per_noise_draw_at_defaults(self, index, default_p_total, monkeypatch):
        cfg = ScenarioConfig()
        assert head_reach(cfg.frame_spec()) <= cfg.frame_spec().cp   # preamble and pilots only
        names = ("apply_channel", "synchronize", "matched_filter_downsample")
        counts = count_calls(monkeypatch, ("awgn", "_run_frame", "build_head") + names)
        _run_position(cfg, index, default_p_total)
        draws = counts["awgn"]
        assert counts["synchronize"] == counts["matched_filter_downsample"] == draws
        # the channel law runs once per draw on the sync head and once per chain run on the frame
        assert counts["apply_channel"] == draws + counts["_run_frame"]
        assert counts["_run_frame"] > draws
        assert counts["build_head"] == 1   # one shaped head for every frame of the position

    @pytest.mark.parametrize("index", [13, 0], ids=["shadowed-x0", "clear-x-65"])
    def test_head_reaching_the_payload_matches_the_reference(self, index, default_p_total, monkeypatch):
        cfg = parse_config(PILOT8_TEXT)
        spec = cfg.frame_spec()
        assert head_reach(spec) > spec.payload
        want, _ = reference_run_position(cfg, index, default_p_total)
        counts = count_calls(monkeypatch, ("awgn", "_run_frame", "synchronize", "build_head"))
        assert _run_position(cfg, index, default_p_total) == want
        assert counts["awgn"] < counts["synchronize"] == counts["_run_frame"]
        # every chain run has a head of its own, so the one front-end slot never drops a head it would reuse
        assert counts["build_head"] == counts["_run_frame"]
