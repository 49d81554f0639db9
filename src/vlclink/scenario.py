"""Experiment orchestration: config parsing, calibration, and the sweeps.

Transmit-power convention of the simulated chain: frames are built from
unit-reference symbols (unit-average-energy payload, unit-power pilots) and
the per-branch amplitude sqrt(p_total/2) is folded into the channel matrix
handed to `apply_channel`, with noise density fixed at n0 = 1.  The receiver
therefore sees an effective matrix that already contains the transmit
amplitude and evaluates its SNR formulas with p_total = 2 (unit symbol energy
per branch).  `snr_db` in a config means 10 log10(p_total / n0).

Config files are line-oriented `key = value` text with `#` comments.  The key
list is documented in the README; unknown keys are rejected.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import IO, Callable, Sequence

import numpy as np

from .adapt import (
    AdaptPolicy,
    ControllerState,
    Mode,
    controller_step,
    new_controller,
    parse_mode,
    predicted_ber,
)
from .channel import ChannelState, Geometry, Obstacle, apply_channel, awgn, channel_matrix
from .errors import (
    BadCode,
    CalibrationImpossible,
    ParameterError,
    ParseError,
    SingularMatrix,
    ValidationError,
)
from .framing import (
    FrameSpec,
    build_head,
    build_symbols,
    head_symbols,
    matched_filter_downsample,
    matched_filter_frame,
    pilot_symbols,
    synchronize,
)
from .metrics import LinkReport, error_free_efficiency, write_report_block
from .modem import demap_labels, label_bit_errors, map_labels, pack_labels
from .numerics import make_rng
from .receiver import ChannelEstimate, combine_sd_mrc, detect_sm_zf, estimate_channel, stream_snrs

__all__ = [
    "ScenarioConfig",
    "parse_config",
    "load_config",
    "calibrate",
    "run_blockage_sweep",
    "run_position",
    "run_ber_sweep",
    "BlockageSweepResult",
    "BerSweepRow",
    "write_blockage_csv",
    "write_ber_csv",
]

SETTLING_FRAMES = 2
N0 = 1.0             # noise variance per complex sample in the simulated chain
P_TOTAL_REF = 2.0    # receiver-side power argument under the folded-amplitude convention
LEAD_PAD = 257       # noise-only samples before each frame, so sync is exercised
TAIL_PAD = 63
_MAX_FRAMES_PER_POSITION = 256
MAX_GRID_POINTS = 10_000   # cap on sweep positions and on BER-sweep SNR points

_ROLE_BITS = 11
_ROLE_NOISE = 12
_BER_SWEEP_TAG = 0xB5


@dataclass(frozen=True)
class ScenarioConfig:
    led_sep: float = 5.0
    pd_sep: float = 5.0
    link_len: float = 218.0
    obstacle_diam: float = 4.5
    obstacle_z: float = 109.0
    lambert_m: float = 20000.0
    rx_area: float = 1.0
    fov_deg: float = 60.0
    beam_radius: float = 5.0

    preamble_len: int = 63
    pilot_len: int = 32
    payload_len: int = 4096
    cp_len: int = 8
    sps: int = 4
    rolloff: float = 0.35
    rrc_span: int = 10

    ber_tgt: float = 1e-3
    margin_db: float = 0.0
    initial: str = "SM-64"
    fallback: str = "SD-4"

    positions_start: float = -65.0
    positions_step: float = 5.0
    positions_stop: float = 65.0
    frames_per_position: int = 4
    payload_bits: int = 100_000

    snr_db: float | None = None
    calibrate_margin_db: float = 1.0
    base_seed: int = 1

    bersweep_snr_start: float = 8.0
    bersweep_snr_step: float = 2.0
    bersweep_snr_stop: float = 34.0
    bersweep_max_bits: int = 400_000
    bersweep_min_errors: int = 100

    def geometry(self, obstacle_x: float | None = None) -> Geometry:
        obstacle = None
        if obstacle_x is not None:
            obstacle = Obstacle(diameter_cm=self.obstacle_diam, z_cm=self.obstacle_z, x_cm=obstacle_x)
        return Geometry.from_separations(
            led_sep=self.led_sep,
            pd_sep=self.pd_sep,
            link_len=self.link_len,
            obstacle=obstacle,
            lambert_m=self.lambert_m,
            rx_area_cm2=self.rx_area,
            fov_deg=self.fov_deg,
            beam_radius_cm=self.beam_radius,
        )

    def frame_spec(self) -> FrameSpec:
        return FrameSpec(
            preamble_len=self.preamble_len,
            pilot_len=self.pilot_len,
            payload_len=self.payload_len,
            cp_len=self.cp_len,
            sps=self.sps,
            rolloff=self.rolloff,
            rrc_span=self.rrc_span,
        )

    def policy(self) -> AdaptPolicy:
        return AdaptPolicy(
            ber_tgt=self.ber_tgt,
            margin_db=self.margin_db,
            initial=parse_mode(self.initial),
            fallback=parse_mode(self.fallback),
        )

    def positions(self) -> np.ndarray:
        return _grid(self.positions_start, self.positions_step, self.positions_stop)


def _grid(start: float, step: float, stop: float) -> np.ndarray:
    """start, start + step, ... up to stop inclusive (to half a step)."""
    return np.arange(start, stop + step / 2.0, step)


def _grid_points(start: float, step: float, stop: float) -> float:
    """Length of `_grid(start, step, stop)` as np.arange computes it, without building it."""
    span = (stop + step / 2.0 - start) / step
    return math.ceil(span) if math.isfinite(span) else math.inf


# key -> (attribute, type, validator, description)
_KEYS: dict[str, tuple[str, type, str]] = {
    "geometry.led_sep": ("led_sep", float, "positive"),
    "geometry.pd_sep": ("pd_sep", float, "positive"),
    "geometry.link_len": ("link_len", float, "positive"),
    "geometry.obstacle_diam": ("obstacle_diam", float, "positive"),
    "geometry.obstacle_z": ("obstacle_z", float, "positive"),
    "geometry.lambert_m": ("lambert_m", float, "positive"),
    "geometry.rx_area": ("rx_area", float, "positive"),
    "geometry.fov_deg": ("fov_deg", float, "fov"),
    "geometry.beam_radius": ("beam_radius", float, "nonneg"),
    "frame.preamble_len": ("preamble_len", int, "positive"),
    "frame.pilot_len": ("pilot_len", int, "pilot"),
    "frame.payload_len": ("payload_len", int, "positive"),
    "frame.cp_len": ("cp_len", int, "nonneg"),
    "frame.sps": ("sps", int, "sps"),
    "frame.rolloff": ("rolloff", float, "rolloff"),
    "frame.rrc_span": ("rrc_span", int, "span"),
    "policy.ber_tgt": ("ber_tgt", float, "ber_tgt"),
    "policy.margin_db": ("margin_db", float, "nonneg"),
    "policy.initial": ("initial", str, "mode"),
    "policy.fallback": ("fallback", str, "mode"),
    "sweep.positions.start": ("positions_start", float, "any"),
    "sweep.positions.step": ("positions_step", float, "positive"),
    "sweep.positions.stop": ("positions_stop", float, "any"),
    "sweep.frames_per_position": ("frames_per_position", int, "frames"),
    "sweep.payload_bits": ("payload_bits", int, "positive"),
    "snr_db": ("snr_db", float, "any"),
    "calibrate.margin_db": ("calibrate_margin_db", float, "any"),
    "base_seed": ("base_seed", int, "nonneg"),
    "bersweep.snr_start": ("bersweep_snr_start", float, "any"),
    "bersweep.snr_step": ("bersweep_snr_step", float, "positive"),
    "bersweep.snr_stop": ("bersweep_snr_stop", float, "any"),
    "bersweep.max_bits": ("bersweep_max_bits", int, "positive"),
    "bersweep.min_errors": ("bersweep_min_errors", int, "positive"),
}


def _build_aliases() -> dict[str, str]:
    counts: dict[str, list[str]] = {}
    for key in _KEYS:
        parts = key.split(".")
        for i in range(1, len(parts)):
            short = ".".join(parts[i:])
            counts.setdefault(short, []).append(key)
    return {short: owners[0] for short, owners in counts.items() if len(owners) == 1}


_ALIASES = _build_aliases()


def _check_range(key: str, rule: str, value) -> None:
    ok = True
    if rule == "positive":
        ok = value > 0
    elif rule == "nonneg":
        ok = value >= 0
    elif rule == "fov":
        ok = 0 < value <= 90
    elif rule == "rolloff":
        ok = 0 < value <= 1
    elif rule == "ber_tgt":
        ok = 0 < value < 0.5
    elif rule == "sps":
        ok = value >= 2
    elif rule == "span":
        ok = value >= 4
    elif rule == "pilot":
        ok = value >= 4
    elif rule == "frames":
        ok = value >= 3
    elif rule == "mode":
        try:
            parse_mode(value)
        except BadCode:
            ok = False
    if not ok:
        raise ValidationError(key, f"value {value!r} out of range")


def parse_config(text: str) -> ScenarioConfig:
    """Parse `key = value` config text into a fully validated ScenarioConfig."""
    values: dict[str, object] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(line_no, f"expected key=value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ParseError(line_no, "empty key or value")
        canonical = key if key in _KEYS else _ALIASES.get(key)
        if canonical is None:
            raise ValidationError(key, "unknown key")
        attr, typ, rule = _KEYS[canonical]
        try:
            parsed: object = typ(value) if typ is not str else value
        except ValueError:
            raise ValidationError(canonical, f"cannot parse {value!r} as {typ.__name__}") from None
        if typ is float and not math.isfinite(parsed):
            raise ValidationError(canonical, f"value {value!r} is not finite")
        _check_range(canonical, rule, parsed)
        values[attr] = parsed
    cfg = ScenarioConfig(**values)
    _cross_validate(cfg)
    return cfg


def _cross_validate(cfg: ScenarioConfig) -> None:
    if not 0 < cfg.obstacle_z < cfg.link_len:
        raise ValidationError("geometry.obstacle_z", "must lie strictly inside the link")
    if cfg.positions_start > cfg.positions_stop:
        raise ValidationError("sweep.positions.start", "start must be <= stop")
    if cfg.cp_len >= cfg.payload_len:
        raise ValidationError("frame.cp_len", "must be smaller than payload_len")
    if cfg.bersweep_snr_start > cfg.bersweep_snr_stop:
        raise ValidationError("bersweep.snr_start", "start must be <= stop")
    for key, start, step, stop in (
        ("sweep.positions.step", cfg.positions_start, cfg.positions_step, cfg.positions_stop),
        ("bersweep.snr_step", cfg.bersweep_snr_start, cfg.bersweep_snr_step, cfg.bersweep_snr_stop),
    ):
        points = _grid_points(start, step, stop)
        if points > MAX_GRID_POINTS:
            raise ValidationError(key, f"grid of {points:.4g} points exceeds the cap of {MAX_GRID_POINTS}")
    try:
        cfg.frame_spec()
        cfg.geometry(obstacle_x=0.0)
        cfg.policy()
    except ParameterError as exc:
        raise ValidationError("config", str(exc)) from None


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _true_estimate(h: np.ndarray) -> ChannelEstimate:
    return ChannelEstimate(h_hat=np.asarray(h, dtype=np.complex128), pilot_len=0, residual_rms=0.0)


def calibrate(config: ScenarioConfig) -> float:
    """Smallest p_total/n0 at which SM-256 meets the BER target, plus margin.

    Evaluated on the unobstructed channel with exact channel knowledge; the
    result is the linear transmit SNR used by the sweeps when `snr_db` is not
    set explicitly.
    """
    h, _ = channel_matrix(config.geometry(obstacle_x=None))
    est = _true_estimate(h)
    mode = Mode("SM", 256)

    def feasible(p_lin: float) -> bool:
        try:
            snrs = stream_snrs(est, p_lin, N0, "SM")
        except SingularMatrix:
            return False
        return predicted_ber(mode, snrs) <= config.ber_tgt

    lo_db, hi_db = -20.0, 120.0
    if not feasible(10.0 ** (hi_db / 10.0)):
        raise CalibrationImpossible("SM-256 infeasible even at 120 dB transmit SNR")
    if feasible(10.0 ** (lo_db / 10.0)):
        hi_db = lo_db
    for _ in range(80):
        mid = 0.5 * (lo_db + hi_db)
        if feasible(10.0 ** (mid / 10.0)):
            hi_db = mid
        else:
            lo_db = mid
    return 10.0 ** ((hi_db + config.calibrate_margin_db) / 10.0)


def _transmit_p_total(config: ScenarioConfig) -> float:
    if config.snr_db is not None:
        return 10.0 ** (config.snr_db / 10.0)
    return calibrate(config)


@dataclass
class FrameResult:
    """What one chain run measured.  The SNRs and the error and reference
    powers are computed on first read: the BER sweep reads none of them."""

    mode: Mode
    bits: int
    errors: int
    est: ChannelEstimate
    sync_index: int
    detected: np.ndarray   # payload symbols after ZF / MRC, one row per stream
    payload: np.ndarray    # payload symbols sent: (2, n) under SM, the (n,) row under SD

    @cached_property
    def sm_snrs(self) -> tuple[float, ...] | None:
        try:
            return stream_snrs(self.est, P_TOTAL_REF, N0, "SM").snr
        except SingularMatrix:
            return None

    @cached_property
    def sd_snr(self) -> float:
        return stream_snrs(self.est, P_TOTAL_REF, N0, "SD").snr[0]

    @cached_property
    def err_power(self) -> float:
        out = self.detected if self.payload.ndim == 2 else self.detected[0]
        return float(np.sum(np.abs(out - self.payload) ** 2))

    @cached_property
    def ref_power(self) -> float:
        return float(np.sum(np.abs(self.payload) ** 2))


def _bits_rng(seed: tuple[int, ...], frame_idx: int) -> np.random.Generator:
    """Payload-bit source of frame `frame_idx`; fresh for every chain run."""
    return make_rng(np.random.SeedSequence(seed + (frame_idx, _ROLE_BITS)))


def _stream_len(spec: FrameSpec) -> int:
    """Samples per branch of a frame's received stream, padding included."""
    return LEAD_PAD + spec.n_samples + TAIL_PAD


def _frame_noise(spec: FrameSpec, seed: tuple[int, ...], frame_idx: int, out=None) -> np.ndarray:
    """Receiver noise of frame `frame_idx` over the (2, n) stream as `awgn` draws
    it, (2, 2, n) real then imaginary parts; into the buffer `out` when given."""
    rng = make_rng(np.random.SeedSequence(seed + (frame_idx, _ROLE_NOISE)))
    return awgn((2, _stream_len(spec)), N0, rng, out=out)


class _FrontEnds:
    """The mode-independent part of the chain for one sweep task (a position or
    a BER point), which runs on one thread.

    A frame's front end is its sync head through the channel, the sync start
    and the matched-filtered noise.  It depends on the frame's symbols only
    through the first `head_symbols` of them, so the chain runs of one frame
    index share it per distinct head-symbol block, and the shaped head of the
    last block is kept across frame indices.  At the defaults that block is
    preamble and pilots only, the same for every mode and frame; a head that
    reaches the payload just keys more blocks.
    """

    def __init__(self, h_eff: np.ndarray, spec: FrameSpec, noise: np.ndarray | None = None):
        self.state = ChannelState(h=h_eff, n0=N0)
        self.spec = spec
        self.noise = noise
        self.used = head_symbols(spec, LEAD_PAD, _stream_len(spec))
        self._ends: dict[bytes, tuple[int, np.ndarray]] = {}
        self._head_key: bytes | None = None
        self._head: np.ndarray | None = None

    def draw(self, seed: tuple[int, ...], frame_idx: int) -> np.ndarray:
        """The noise of frame `frame_idx`, drawn into the task's buffer."""
        self.noise = _frame_noise(self.spec, seed, frame_idx, out=self.noise)
        self._ends.clear()
        return self.noise

    def __call__(self, tx_symbols: np.ndarray) -> tuple[int, np.ndarray]:
        """(sync start, matched-filtered noise) of the frame of `tx_symbols`."""
        block = tx_symbols[:, : self.used]
        key = block.tobytes()
        if key not in self._ends:
            spec, noise = self.spec, self.noise
            if key != self._head_key:
                self._head_key, self._head = key, build_head(block, spec, LEAD_PAD, noise.shape[-1])
            rx_head = apply_channel(self._head, self.state, noise=noise[..., : self._head.shape[-1]])
            start = synchronize(rx_head, spec, stream_len=noise.shape[-1])
            self._ends[key] = (start, matched_filter_downsample(noise, spec, start, spec.n_symbols))
        return self._ends[key]


def _run_frame(
    mode: Mode,
    h_eff: np.ndarray,
    spec: FrameSpec,
    bits_rng: np.random.Generator,
    noise: np.ndarray,
    front_ends: _FrontEnds | None = None,
) -> FrameResult:
    """One frame through the whole chain: build, channel, sync, estimate, detect.

    `noise` is the frame's receiver noise from `_frame_noise`; it is read, not
    modified, so runs that share a frame index share one draw.  Only the
    stream head that sync reads passes the channel at sample rate.  The chain
    is linear and the channel memoryless, so the received symbols are h times
    the frame's symbol-rate RRC cascade plus the matched-filtered noise.
    `front_ends`, the task's `_FrontEnds` whose current draw `noise` is, lets
    chain runs share the sync front end; without it the run computes its own.
    The modem works on k-bit labels, and errors are counted on them.
    """
    rows = 2 if mode.scheme == "SM" else 1
    tx_labels = pack_labels(
        bits_rng.integers(0, 2, size=rows * mode.bits_per_symbol * spec.payload_len), mode.order
    ).reshape(rows, spec.payload_len)
    sent = map_labels(tx_labels, mode.order)
    tx_symbols = build_symbols(np.broadcast_to(sent, (2, spec.payload_len)), spec, mode.scheme)
    if front_ends is None:
        front_ends = _FrontEnds(h_eff, spec, noise)
    start, mf_noise = front_ends(tx_symbols)

    symbols = h_eff @ matched_filter_frame(tx_symbols, spec, start - LEAD_PAD)
    symbols.real += mf_noise[0]
    symbols.imag += mf_noise[1]

    lay = spec.layout()
    n_p = spec.pilot_len
    segments = symbols[:, lay.pilot1 : lay.pilot1 + 2 * n_p].reshape(2, 2, n_p)
    est = estimate_channel(segments, pilot_symbols(spec))

    rx_payload = symbols[:, lay.payload : lay.end]
    if mode.scheme == "SM":
        detected = detect_sm_zf(rx_payload, est)
    else:
        detected = combine_sd_mrc(rx_payload, est)[None, :]
    errors = label_bit_errors(tx_labels, demap_labels(detected, mode.order))

    return FrameResult(
        mode=mode,
        bits=tx_labels.size * mode.bits_per_symbol,
        errors=errors,
        est=est,
        sync_index=start,
        detected=detected,
        payload=sent if rows == 2 else sent[0],
    )


@dataclass
class _Run:
    """One of the three runs at a position: its controller or fixed mode, and its tallies."""

    fixed_mode: Mode | None
    controller: ControllerState | None = None
    measured_frames: int = 0
    bits: int = 0
    errors: int = 0
    err_power: float = 0.0
    ref_power: float = 0.0
    snr_records: list[tuple[str, tuple[float, ...]]] = field(default_factory=list)
    last_mode: Mode | None = None
    done: bool = False

    @property
    def mode(self) -> Mode:
        """The mode this run transmits its next frame in."""
        return self.controller.pending if self.controller is not None else self.fixed_mode

    def record(self, frame_idx: int, result: FrameResult, config: ScenarioConfig, policy: AdaptPolicy) -> None:
        """Account one frame sent in `result.mode`, then apply the stop rule.

        The first SETTLING_FRAMES frames are transmitted but excluded from the
        report; measurement then continues until both the frames_per_position
        budget and the payload_bits budget are met.
        """
        if self.controller is not None:
            controller_step(self.controller, result.est, P_TOTAL_REF, N0, policy)
        if frame_idx >= SETTLING_FRAMES:
            self.measured_frames += 1
            self.bits += result.bits
            self.errors += result.errors
            self.err_power += result.err_power
            self.ref_power += result.ref_power
            self.last_mode = result.mode
            if result.mode.scheme == "SM" and result.sm_snrs is not None:
                self.snr_records.append(("SM", result.sm_snrs))
            elif result.mode.scheme == "SD":
                self.snr_records.append(("SD", (result.sd_snr,)))
        self.done = (
            self.measured_frames >= config.frames_per_position - SETTLING_FRAMES
            and self.bits >= config.payload_bits
        )

    def report(self, position_cm: float, policy: AdaptPolicy) -> LinkReport:
        ber = self.errors / self.bits
        matching = [snr for scheme, snr in self.snr_records if scheme == self.last_mode.scheme]
        if matching:
            mean_lin = np.mean(np.asarray(matching), axis=0)
            snrs_db = tuple(10.0 * math.log10(v) for v in mean_lin)
        else:
            snrs_db = ()
        return LinkReport(
            position_cm=position_cm,
            mode=self.last_mode,
            bits_sent=self.bits,
            bit_errors=self.errors,
            ber=ber,
            eff_bshz=error_free_efficiency(self.last_mode, ber, policy.ber_tgt),
            snrs_db=snrs_db,
            evm=math.sqrt(self.err_power / self.ref_power) if self.ref_power > 0 else 0.0,
        )


@dataclass
class BlockageSweepResult:
    positions: np.ndarray
    adaptive: list[LinkReport]
    fixed_sm64: list[LinkReport]
    fixed_sd64: list[LinkReport]
    averages: dict[str, float]
    p_total: float

    def average(self, which: str) -> float:
        return self.averages[which]


def run_position(
    config: ScenarioConfig, index: int, p_total: float | None = None
) -> tuple[LinkReport, LinkReport, LinkReport]:
    """Reports (adaptive, fixed SM-64, fixed SD-64) for one sweep position.

    Seeded per position, so any single position reproduces its sweep rows
    bit-exactly without running the others.  The three runs step in lockstep
    and share per-frame seeds, so frame index k carries the same noise and
    the same payload-bit stream in each of them.  The noise is drawn once per
    frame index while any run is active, and the frame chain runs once per
    distinct mode among the active runs; its result, which depends only on
    (mode, h_eff, spec, seeds), goes to every run in that mode.  The chain runs
    of a frame index share its sync front end (see `_FrontEnds`).  A run that has
    not met its budgets after _MAX_FRAMES_PER_POSITION frame indices raises.
    """
    positions = config.positions()
    if not 0 <= index < positions.size:
        raise ParameterError(f"position index {index} outside sweep of {positions.size}")
    if p_total is None:
        p_total = _transmit_p_total(config)
    x = float(positions[index])
    h_norm, _ = channel_matrix(config.geometry(obstacle_x=x))
    h_eff = math.sqrt(p_total / 2.0) * h_norm
    spec = config.frame_spec()
    policy = config.policy()
    seed = (config.base_seed + index,)
    runs = (_Run(None, new_controller(policy)), _Run(Mode("SM", 64)), _Run(Mode("SD", 64)))
    front_ends = _FrontEnds(h_eff, spec)
    for frame_idx in range(_MAX_FRAMES_PER_POSITION):
        active = [run for run in runs if not run.done]
        if not active:
            break
        noise = front_ends.draw(seed, frame_idx)
        results: dict[Mode, FrameResult] = {}
        for run in active:
            mode = run.mode
            if mode not in results:
                results[mode] = _run_frame(mode, h_eff, spec, _bits_rng(seed, frame_idx), noise, front_ends)
            run.record(frame_idx, results[mode], config, policy)
    if not all(run.done for run in runs):
        raise RuntimeError(f"position {x}: frame budget of {_MAX_FRAMES_PER_POSITION} frames exhausted")
    adaptive, sm64, sd64 = (run.report(x, policy) for run in runs)
    return adaptive, sm64, sd64


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _worker_count(jobs: int | None, tasks: int, cpus: int) -> int:
    """Threads for `tasks` independent tasks: min(jobs, cpus, tasks), at least 1.

    `jobs=None` asks for one thread per usable CPU.  Clamping to `cpus` and to
    `tasks` means no input can start more threads than there are CPUs to run
    them or tasks to give them.
    """
    if jobs is not None and jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    return max(1, min(cpus if jobs is None else jobs, cpus, tasks))


def _map_tasks(fn: Callable, tasks: Sequence, workers: int) -> list:
    """[fn(t) for t in tasks], on `workers` threads, in task order.

    The tasks must be independent.  The frame chain spends its time in numpy
    kernels that release the interpreter lock, and threads keep every frame
    in this process, where the caller can count and measure it.  The first
    failing task in task order raises, as in a serial run, and tasks not yet
    started are cancelled.
    """
    if workers == 1:
        return list(map(fn, tasks))
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        return list(pool.map(fn, tasks))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def run_blockage_sweep(config: ScenarioConfig, jobs: int | None = None) -> BlockageSweepResult:
    """Sweep the obstacle across the link, adaptive plus both fixed baselines.

    All three runs at a position share per-frame noise seeds, so the baseline
    comparison sees identical noise realisations.  Positions are seeded on
    their own and run on up to `jobs` threads (default: one per usable CPU);
    the result is the same for every `jobs`.
    """
    positions = config.positions()
    workers = _worker_count(jobs, positions.size, _usable_cpus())
    p_total = _transmit_p_total(config)
    reports = _map_tasks(lambda index: run_position(config, index, p_total), range(positions.size), workers)
    adaptive, fixed_sm64, fixed_sd64 = (list(run) for run in zip(*reports))
    averages = {
        "adaptive": float(np.mean([r.eff_bshz for r in adaptive])),
        "fixed_sm64": float(np.mean([r.eff_bshz for r in fixed_sm64])),
        "fixed_sd64": float(np.mean([r.eff_bshz for r in fixed_sd64])),
    }
    return BlockageSweepResult(
        positions=positions,
        adaptive=adaptive,
        fixed_sm64=fixed_sm64,
        fixed_sd64=fixed_sd64,
        averages=averages,
        p_total=p_total,
    )


def write_blockage_csv(result: BlockageSweepResult, fh: IO[str]) -> None:
    write_report_block(result.adaptive, fh, label="adaptive")
    fh.write("\n")
    write_report_block(result.fixed_sm64, fh, label="fixed-sm64")
    fh.write("\n")
    write_report_block(result.fixed_sd64, fh, label="fixed-sd64")
    fh.write("\n")
    fh.write(
        "# average_eff_bshz adaptive={:.6f} fixed_sm64={:.6f} fixed_sd64={:.6f}\n".format(
            result.averages["adaptive"],
            result.averages["fixed_sm64"],
            result.averages["fixed_sd64"],
        )
    )
    fh.write(f"# p_total_db={10.0 * math.log10(result.p_total):.6f}\n")


@dataclass(frozen=True)
class BerSweepRow:
    scheme: str
    order: int
    snr_db: float
    ber_mc: float
    ber_theory: float
    bits: int
    errors: int
    eff_bshz: float


def measure_mode_ber(
    config: ScenarioConfig,
    mode: Mode,
    p_total: float,
    seed_tuple: tuple[int, ...],
    min_errors: int,
    max_bits: int,
) -> tuple[int, int]:
    """Monte-Carlo (errors, bits) for one fixed mode through the full chain."""
    spec = config.frame_spec()
    h_norm, _ = channel_matrix(config.geometry(obstacle_x=None))
    h_eff = math.sqrt(p_total / 2.0) * h_norm
    errors = 0
    bits = 0
    frame_idx = 0
    front_ends = _FrontEnds(h_eff, spec)
    while bits == 0 or (errors < min_errors and bits < max_bits):
        noise = front_ends.draw(seed_tuple, frame_idx)
        result = _run_frame(mode, h_eff, spec, _bits_rng(seed_tuple, frame_idx), noise, front_ends)
        errors += result.errors
        bits += result.bits
        frame_idx += 1
    return errors, bits


def run_ber_sweep(config: ScenarioConfig, jobs: int | None = None) -> list[BerSweepRow]:
    """Monte-Carlo BER against theory over the configured SNR grid.

    Runs every (scheme, order) pair through the full chain on the
    unobstructed channel; the theory column evaluates the BER prediction at
    the SNRs implied by the true channel matrix.  Every (curve, point) is
    seeded on its own and the points run on up to `jobs` threads (default:
    one per usable CPU); the rows are the same for every `jobs`.
    """
    h_norm, _ = channel_matrix(config.geometry(obstacle_x=None))
    est_true = _true_estimate(h_norm)
    grid = _grid(config.bersweep_snr_start, config.bersweep_snr_step, config.bersweep_snr_stop)
    curves = list(product(("SD", "SM"), (4, 16, 64, 256)))
    points = [
        (curve_idx, point_idx, Mode(scheme, order), snr_db, 10.0 ** (snr_db / 10.0))
        for curve_idx, (scheme, order) in enumerate(curves)
        for point_idx, snr_db in enumerate(grid)
    ]
    workers = _worker_count(jobs, len(points), _usable_cpus())

    def measure(point: tuple) -> tuple[int, int]:
        curve_idx, point_idx, mode, _, p_total = point
        return measure_mode_ber(
            config,
            mode,
            p_total,
            (config.base_seed, _BER_SWEEP_TAG, curve_idx, point_idx),
            config.bersweep_min_errors,
            config.bersweep_max_bits,
        )

    rows: list[BerSweepRow] = []
    for (_, _, mode, snr_db, p_total), (errors, bits) in zip(points, _map_tasks(measure, points, workers)):
        theory = predicted_ber(mode, stream_snrs(est_true, p_total, N0, mode.scheme))
        rows.append(
            BerSweepRow(
                scheme=mode.scheme,
                order=mode.order,
                snr_db=float(snr_db),
                ber_mc=errors / bits,
                ber_theory=theory,
                bits=bits,
                errors=errors,
                eff_bshz=mode.efficiency,
            )
        )
    return rows


def write_ber_csv(rows: list[BerSweepRow], fh: IO[str]) -> None:
    fh.write("scheme,order,snr_db,ber_mc,ber_theory,bits,errors,eff_bshz\n")
    for r in rows:
        fh.write(
            f"{r.scheme},{r.order},{r.snr_db:.2f},{r.ber_mc:.6e},{r.ber_theory:.6e},"
            f"{r.bits},{r.errors},{r.eff_bshz:g}\n"
        )
