"""Experiment orchestration: config parsing, calibration, the sweeps and their CSV output.

Transmit-power convention of the simulated chain: frames are built from
unit-reference symbols (unit-average-energy payload, unit-power pilots) and
the per-branch amplitude sqrt(p_total/2) is folded into the channel matrix
handed to `apply_channel`, with noise density fixed at n0 = 1.  The receiver
therefore sees an effective matrix that already contains the transmit
amplitude and evaluates its SNR formulas with p_total = 2 (unit symbol energy
per branch).  `snr_db` in a config means 10 log10(p_total / n0).

Config files are line-oriented `key = value` text with `#` comments.  Each
key is declared once, as a `ScenarioConfig` field with its name, default and
range rule; a key that sets a `Geometry`, `Obstacle`, `FrameSpec` or
`AdaptPolicy` field takes its default and range rule from that type, and its
errors still name the key.  The README documents the keys, and unknown keys
are rejected.  A `ScenarioConfig` checks what every command reads when it
is built, so text, a file, direct construction and `dataclasses.replace`
all give the same guarantee.  The rules that tie a sweep's own keys
together (its grid and its frame budget) run where that sweep builds what
they guard, before any frame, so no command rejects a key it never reads.

CSV schemas (comma separated, '.' decimal, header row mandatory):

* constellation dump:  I,Q  with 6 decimal digits per field;
* link report:  position_cm,mode_code,mode_name,ber,eff_bshz,snr1_db,snr2_db,evm
  where snr2_db is empty for single-stream (SD) records.
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
import threading
from dataclasses import dataclass, field, fields
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from .adapt import (
    MODES,
    AdaptPolicy,
    ControllerState,
    Mode,
    controller_step,
    encode_mode,
    new_controller,
    parse_mode,
    predicted_ber,
)
from .channel import Geometry, Obstacle, apply_channel, awgn, channel_matrix
from .errors import ParameterError, ParseError, ValidationError
from .framing import (
    _PILOT_SHIFT,
    FrameSpec,
    _last_start,
    build_head,
    build_tx_symbols,
    head_symbols,
    matched_filter_downsample,
    matched_filter_frame,
    pilot_symbols,
    synchronize,
)
from .modem import demap_labels, label_bit_errors, map_labels, unpack_labels
from .numerics import make_rng
from .receiver import ChannelEstimate, combine_sd_mrc, detect_sm_zf, estimate_channel, stream_snrs

__all__ = [
    "ScenarioConfig",
    "parse_config",
    "load_config",
    "calibrate",
    "run_blockage_sweep",
    "run_ber_sweep",
    "BlockageSweepResult",
    "BerSweepRow",
    "write_blockage_csv",
    "write_ber_csv",
    "LinkReport",
    "REPORT_HEADER",
    "error_free_efficiency",
    "format_report_row",
    "write_report_block",
    "dump_constellation",
]

SETTLING_FRAMES = 2
N0 = 1.0             # noise variance per complex sample in the simulated chain
P_TOTAL_REF = 2.0    # receiver-side power argument under the folded-amplitude convention
LEAD_PAD = 257       # noise-only samples before each frame, so sync is exercised
TAIL_PAD = 63
_MAX_FRAMES_PER_POSITION = 256
_MAX_CONFIG_BYTES = 1 << 20   # cap on the size of a config file
_MAX_ECHO_CHARS = 80   # longest piece of config text an error message quotes
MAX_GRID_POINTS = 10_000   # cap on sweep positions and on BER-sweep SNR points
MAX_BER_POINT_FRAMES = 1 << 16   # cap on the frames one BER point may run: 49 at the defaults
MAX_STREAM_SAMPLES = 1 << 20   # cap on the samples per branch of a frame's received stream
MAX_RRC_SPAN = 64   # longest RRC filter, in symbols
MAX_ABS_DB = 300.0   # bound on the dB keys, so their linear powers 10^(dB/10) stay finite and nonzero
# matched_filter_downsample's banded tap matrix holds 16 (rrc_span + 1)^2 sps bytes; the cap admits the
# 16.5 MB of rrc_span = 64 at sps = 244, the largest sps the stream cap admits at the default frame lengths
MAX_TAP_MATRIX_BYTES = 1 << 24

_VALUE_TYPES = {float: numbers.Real, int: numbers.Integral, str: str}   # what each parse type admits

_ROLE_BITS = 11
_ROLE_NOISE = 12
_BER_SWEEP_TAG = 0xB5


def _key(name: str, default, rule: Callable[[object], bool] | None = None, parse: type | None = None, part=None):
    """A ScenarioConfig field that is a config key: its name in config text,
    its default and the config's own range rule.  The text is parsed as the
    default's type, or as `parse` where the default is None; `rule` None
    admits every value.  `part` is the (domain type, attribute) the key sets.
    """
    return field(default=default, metadata={"key": name, "rule": rule, "parse": parse or type(default), "part": part})


def _part(name: str, owner: type, attr: str, rule: Callable[[object], bool] | None = None):
    """A key that sets `owner`'s field `attr`: it takes that field's default
    (a mode's name for a mode), and `owner` checks its range when the config
    builds it."""
    default = getattr(owner, attr)
    return _key(name, default.name if isinstance(default, Mode) else default, rule, part=(owner, attr))


def _positive(value) -> bool:
    return value > 0


def _db(value) -> bool:
    return abs(value) <= MAX_ABS_DB


def _mode_name(value: str) -> bool:
    try:
        parse_mode(value)
    except ParameterError:
        return False
    return True


def _clip(text: str) -> str:
    """`text` as an error message quotes it: whole up to _MAX_ECHO_CHARS
    characters, else its first _MAX_ECHO_CHARS and an ellipsis."""
    return text if len(text) <= _MAX_ECHO_CHARS else text[:_MAX_ECHO_CHARS] + "..."


@dataclass(frozen=True)
class ScenarioConfig:
    """The config key table: every field is one key, declared once (see `_key`
    and `_part`).

    Built from text, a file, directly or by `dataclasses.replace`, it checks
    each field's type (an int passes for a float; None only where it is the
    default), that each float field is finite and that each field passes its
    config rule, in field order; then it builds the geometry, frame and policy,
    which check their own fields, then the frame's stream and tap-matrix caps
    and the pilot-preamble rule.  A failure raises `ValidationError` naming
    the key at fault.  The sweeps' grids and budgets are checked by the sweep
    that reads them (`_grid`, `run_blockage_sweep`, `run_ber_sweep`).
    """

    led_sep: float = _part("geometry.led_sep", Geometry, "led_sep")
    pd_sep: float = _part("geometry.pd_sep", Geometry, "pd_sep")
    link_len: float = _part("geometry.link_len", Geometry, "link_len")
    obstacle_diam: float = _part("geometry.obstacle_diam", Obstacle, "diameter_cm")
    obstacle_z: float = _part("geometry.obstacle_z", Obstacle, "z_cm")
    lambert_m: float = _part("geometry.lambert_m", Geometry, "lambert_m")
    fov_deg: float = _part("geometry.fov_deg", Geometry, "fov_deg")
    beam_radius: float = _part("geometry.beam_radius", Geometry, "beam_radius_cm")

    preamble_len: int = _part("frame.preamble_len", FrameSpec, "preamble_len")
    pilot_len: int = _part("frame.pilot_len", FrameSpec, "pilot_len")
    payload_len: int = _part("frame.payload_len", FrameSpec, "payload_len")
    cp_len: int = _part("frame.cp_len", FrameSpec, "cp_len")
    sps: int = _part("frame.sps", FrameSpec, "sps")
    rolloff: float = _part("frame.rolloff", FrameSpec, "rolloff")
    rrc_span: int = _part("frame.rrc_span", FrameSpec, "rrc_span", lambda v: v <= MAX_RRC_SPAN)

    ber_tgt: float = _part("policy.ber_tgt", AdaptPolicy, "ber_tgt")
    margin_db: float = _part("policy.margin_db", AdaptPolicy, "margin_db")
    initial: str = _part("policy.initial", AdaptPolicy, "initial", _mode_name)
    fallback: str = _part("policy.fallback", AdaptPolicy, "fallback", _mode_name)

    positions_start: float = _key("sweep.positions.start", -65.0)
    positions_step: float = _key("sweep.positions.step", 5.0, _positive)
    positions_stop: float = _key("sweep.positions.stop", 65.0)
    frames_per_position: int = _key("sweep.frames_per_position", 4, lambda v: 3 <= v <= _MAX_FRAMES_PER_POSITION)
    payload_bits: int = _key("sweep.payload_bits", 100_000, _positive)

    snr_db: float | None = _key("snr_db", None, _db, parse=float)
    calibrate_margin_db: float = _key("calibrate.margin_db", 1.0, _db)
    base_seed: int = _key("base_seed", 1, lambda v: v >= 0)

    bersweep_snr_start: float = _key("bersweep.snr_start", 8.0, _db)
    bersweep_snr_step: float = _key("bersweep.snr_step", 2.0, _positive)
    bersweep_snr_stop: float = _key("bersweep.snr_stop", 34.0, _db)
    bersweep_max_bits: int = _key("bersweep.max_bits", 400_000, _positive)
    bersweep_min_errors: int = _key("bersweep.min_errors", 100, _positive)

    def __post_init__(self):
        for f in fields(self):
            key, rule, typ, value = f.metadata["key"], f.metadata["rule"], f.metadata["parse"], getattr(self, f.name)
            if value is None and f.default is None:
                continue
            if not isinstance(value, _VALUE_TYPES[typ]):
                raise ValidationError(key, f"value {value!r} is not a {typ.__name__}")
            if typ is float and not math.isfinite(value):
                raise ValidationError(key, f"value '{value}' is not finite")
            if rule is not None and not rule(value):
                raise ValidationError(key, f"value {_clip(repr(value))} out of range")
        # each domain type checks its own fields and names the attribute at fault, if one is
        builds = {"geometry": lambda: self.geometry(obstacle_x=0.0), "frame": self.frame_spec, "policy": self.policy}
        built = {}
        for prefix, build in builds.items():
            try:
                built[prefix] = build()
            except ParameterError as exc:
                raise ValidationError(_PART_KEYS.get(exc.field, prefix), _clip(str(exc))) from None
        # each sweep task draws 2 x 2 x samples float64 noise values per frame index
        spec = built["frame"]
        samples = _stream_len(spec)
        if samples > MAX_STREAM_SAMPLES:
            raise ValidationError(
                "frame", f"stream of {_clip(str(samples))} samples per branch exceeds the cap of {MAX_STREAM_SAMPLES}"
            )
        # the pilots are the preamble shifted by _PILOT_SHIFT and tiled, so pilot symbol j starts a whole
        # copy of it; sync searches up to its last admissible start, that less LEAD_PAD past the true one
        p, j = spec.preamble_len, -_PILOT_SHIFT % spec.preamble_len
        if spec.pilot_len >= j + p and (p + j) * spec.sps <= _last_start(spec, samples) - LEAD_PAD:
            msg = f"pilot symbols {j}-{j + p - 1} repeat the whole preamble inside sync's search window"
            raise ValidationError("frame.pilot_len", msg)
        tap_bytes = 16 * (self.rrc_span + 1) ** 2 * self.sps
        if tap_bytes > MAX_TAP_MATRIX_BYTES:
            raise ValidationError(
                "frame", f"matched-filter tap matrix of {tap_bytes} bytes exceeds the cap of {MAX_TAP_MATRIX_BYTES}"
            )

    def _args(self, owner: type) -> dict:
        """Keyword arguments of `owner` from the keys that set its fields; a mode key's name becomes its Mode."""
        args = {}
        for f in fields(self):
            if f.metadata["part"] and f.metadata["part"][0] is owner:
                value = getattr(self, f.name)
                args[f.metadata["part"][1]] = parse_mode(value) if f.metadata["rule"] is _mode_name else value
        return args

    def geometry(self, obstacle_x: float | None = None) -> Geometry:
        obstacle = None if obstacle_x is None else Obstacle(x_cm=obstacle_x, **self._args(Obstacle))
        return Geometry(obstacle=obstacle, **self._args(Geometry))

    def frame_spec(self) -> FrameSpec:
        return FrameSpec(**self._args(FrameSpec))

    def policy(self) -> AdaptPolicy:
        return AdaptPolicy(**self._args(AdaptPolicy))

    def positions(self) -> np.ndarray:
        """The obstacle positions of the blockage sweep; `_grid` checks them."""
        return _grid("sweep.positions.", self.positions_start, self.positions_step, self.positions_stop)


def _grid(prefix: str, start: float, step: float, stop: float) -> np.ndarray:
    """start, start + step, ... up to stop inclusive (to half a step), the
    grid of the keys `prefix` + start, step and stop.  Raises
    `ValidationError` naming the start key when start > stop and the step key
    for no point or more than MAX_GRID_POINTS points, before building the grid."""
    if start > stop:
        raise ValidationError(prefix + "start", "start must be <= stop")
    points = _grid_points(start, step, stop)
    if points < 1:
        raise ValidationError(prefix + "step", f"the grid is empty: half a step of {step!r} vanishes against {stop!r}")
    if points > MAX_GRID_POINTS:
        raise ValidationError(prefix + "step", f"grid of {points:.4g} points exceeds the cap of {MAX_GRID_POINTS}")
    return np.arange(start, stop + step / 2.0, step)


def _grid_points(start: float, step: float, stop: float) -> float:
    """Length of `_grid(start, step, stop)` as np.arange computes it, without building it."""
    span = (stop + step / 2.0 - start) / step
    return math.ceil(span) if math.isfinite(span) else math.inf


_KEY_FIELDS = {f.metadata["key"]: f for f in fields(ScenarioConfig)}
_PART_KEYS = {f.metadata["part"][1]: key for key, f in _KEY_FIELDS.items() if f.metadata["part"]}


def parse_config(text: str) -> ScenarioConfig:
    """Parse `key = value` config text into typed values and build the
    ScenarioConfig from them, which checks itself."""
    values: dict[str, object] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(line_no, f"expected key=value, got {_clip(raw.strip())!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ParseError(line_no, "empty key or value")
        entry = _KEY_FIELDS.get(key)
        if entry is None:
            raise ValidationError(_clip(key), "unknown key")
        typ = entry.metadata["parse"]
        try:
            values[entry.name] = typ(value)
        except ValueError:
            raise ValidationError(key, f"cannot parse {_clip(value)!r} as {typ.__name__}") from None
    return ScenarioConfig(**values)


def load_config(path) -> ScenarioConfig:
    """Parse the config file at `path`: UTF-8 text, less a leading byte-order
    mark, of at most _MAX_CONFIG_BYTES bytes."""
    with open(path, "rb") as fh:
        data = fh.read(_MAX_CONFIG_BYTES + 1)
    if len(data) > _MAX_CONFIG_BYTES:
        raise ParseError(data.count(b"\n") + 1, f"config file exceeds the cap of {_MAX_CONFIG_BYTES} bytes")
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = len((exc.object[: exc.start].decode("utf-8") + "x").splitlines())   # as parse_config counts
        raise ParseError(line, f"byte 0x{exc.object[exc.start]:02x} is not UTF-8 text") from None
    return parse_config(text)


def calibrate(config: ScenarioConfig) -> float:
    """Smallest p_total/n0 at which SM-256 meets the BER target, plus margin.

    Evaluated on the unobstructed channel with exact channel knowledge; the
    result is the linear transmit SNR used by the sweeps when `snr_db` is not
    set explicitly.  A geometry on which no SNR is enough raises
    `ValidationError` naming `snr_db`.
    """
    h, _ = channel_matrix(config.geometry(obstacle_x=None))
    est = ChannelEstimate(h)
    mode = Mode("SM", 256)

    def feasible(p_lin: float) -> bool:
        snrs = stream_snrs(est, p_lin, N0, "SM")
        return snrs is not None and predicted_ber(mode, snrs) <= config.ber_tgt

    lo_db, hi_db = -20.0, 120.0
    if not feasible(10.0 ** (hi_db / 10.0)):
        raise ValidationError("snr_db", "SM-256 infeasible even at 120 dB transmit SNR; the sweeps need snr_db set")
    for _ in range(80):
        mid = 0.5 * (lo_db + hi_db)
        if feasible(10.0 ** (mid / 10.0)):
            hi_db = mid
        else:
            lo_db = mid
    return 10.0 ** ((hi_db + config.calibrate_margin_db) / 10.0)


@dataclass(frozen=True)
class FrameResult:
    """The one record of a frame, always complete: its mode, payload bits,
    channel estimate and sync start, the bit errors of its decoded payload
    and its EVM powers.  It holds no per-symbol array, so a run can keep
    every frame it measured, and it shares nothing with the task's noise
    buffer, so a later draw leaves it unchanged."""

    mode: Mode
    bits: int
    est: ChannelEstimate
    sync_index: int
    errors: int          # bit errors of the hard decisions on the detected payload
    err_power: float     # sum of |detected - sent|^2
    ref_power: float     # sum of |sent|^2


def _frame_bits(mode: Mode, spec: FrameSpec) -> int:
    """Payload bits of one frame in `mode`."""
    return mode.streams * mode.bits_per_symbol * spec.payload_len


def _packed_bits(bits_rng: np.random.Generator, n_bits: int) -> np.ndarray:
    """`bits_rng.integers(0, 2, size=n_bits)` of a fresh `bits_rng`, packed
    MSB first into bytes, from its raw PCG64 words.

    `integers(0, 2)` takes Lemire's bounded draw of each 32-bit half of the
    stream, low half first, and for a range of two that is the half's top
    bit (Lemire, ACM TOMACS 29(1), 2019; O'Neill, HMC-CS-2014-0905).  A
    shorter draw is a prefix of a longer one.
    """
    words = bits_rng.bit_generator.random_raw(-(-n_bits // 2))
    halves = words.astype("<u8", copy=False).view("<u4")[:n_bits]
    return np.packbits(halves >= 0x80000000)


def _stream_len(spec: FrameSpec) -> int:
    """Samples per branch of a frame's received stream, padding included."""
    return LEAD_PAD + spec.n_samples + TAIL_PAD


class _FrontEnds:
    """The mode-independent part of the chain for one sweep task (a position or
    a BER point), which runs on one thread.

    `draw` makes a frame index's two draws once for all its chain runs: the
    noise, into the task's buffer, and the payload bits.  A frame's front end
    is its sync head through the channel, the sync start and the
    matched-filtered noise.  It depends on the frame's symbols only
    through the first `head_symbols` of them, the key.  One slot holds the
    last key, its shaped head and, until the next draw, its front end: the
    modes at a frame index share one key (the head holds only preamble and
    pilots, as at the defaults, for every frame) or have one each (it reaches
    the CP, which copies payload), so no older key is asked for again.  It
    also holds the pilots, which every chain run reads.
    """

    def __init__(self, h_eff: np.ndarray, spec: FrameSpec, noise: np.ndarray | None = None):
        self.h = h_eff
        self.spec = spec
        self.pilots = pilot_symbols(spec)
        self.noise = noise
        self.used = head_symbols(spec, LEAD_PAD, _stream_len(spec))
        self._key: bytes | None = None
        self._head: np.ndarray | None = None
        self._end: tuple[int, np.ndarray] | None = None

    def draw(self, seed: tuple[int, ...], frame_idx: int, n_bits: int) -> np.ndarray:
        """Draw frame `frame_idx`'s noise into the task's buffer, as `awgn` draws
        it, and return its first `n_bits` payload bits, packed (`_packed_bits`);
        each from its own generator, seeded `seed + (frame_idx, role)`."""
        rng = make_rng(np.random.SeedSequence(seed + (frame_idx, _ROLE_NOISE)))
        self.noise = awgn((2, _stream_len(self.spec)), N0, rng, out=self.noise)
        self._end = None
        return _packed_bits(make_rng(np.random.SeedSequence(seed + (frame_idx, _ROLE_BITS))), n_bits)

    def __call__(self, tx_symbols: np.ndarray) -> tuple[int, np.ndarray]:
        """(sync start, matched-filtered noise) of the frame of `tx_symbols`."""
        block = tx_symbols[:, : self.used]
        key = block.tobytes()
        spec, noise = self.spec, self.noise
        if key != self._key:
            self._key, self._head, self._end = key, build_head(block, spec, LEAD_PAD, noise.shape[-1]), None
        if self._end is None:
            rx_head = apply_channel(self._head, self.h, noise=noise[..., : self._head.shape[-1]])
            start = synchronize(rx_head, spec, stream_len=noise.shape[-1])
            self._end = (start, matched_filter_downsample(noise, spec, start, spec.n_symbols))
        return self._end


def _detect(mode: Mode, bits: np.ndarray, front_end: _FrontEnds) -> tuple:
    """One frame's receive chain, shared by `_run_frame` and demo 05: (sent
    labels, sent symbols, detected payload, channel estimate, sync start).

    `bits` holds the frame's payload bits packed into bytes, possibly
    followed by more, as `_FrontEnds.draw` returns them.  `front_end` is the
    task's `_FrontEnds`: it holds the effective channel, the frame spec and
    the frame's current noise draw, which is read, not modified, so runs that
    share a frame index share one draw and one sync front end.
    `apply_channel` is the one channel law at both rates: the front end
    passes the sample-rate sync head through it, and this the frame's
    noise-free matched-filter output at its symbol instants with the
    matched-filtered noise.  The chain is linear and the channel memoryless,
    so that is the matched filter of y = Hx + w.  The modem works on k-bit
    labels; a detector's `SingularMatrix` raises here.
    """
    spec = front_end.spec
    tx_labels = unpack_labels(bits, mode.order, mode.streams * spec.payload_len).reshape(mode.streams, -1)
    sent = map_labels(tx_labels, mode.order)
    tx_symbols = build_tx_symbols(sent, spec)
    start, mf_noise = front_end(tx_symbols)

    symbols = apply_channel(matched_filter_frame(tx_symbols, spec, start - LEAD_PAD), front_end.h, mf_noise)

    n_p = spec.pilot_len
    segments = symbols[:, spec.pilot1 : spec.pilot1 + 2 * n_p].reshape(2, 2, n_p)
    est = estimate_channel(segments, front_end.pilots)
    received = symbols[:, spec.payload :]
    detected = detect_sm_zf(received, est) if mode.scheme == "SM" else combine_sd_mrc(received, est)[None, :]
    return tx_labels, sent, detected, est, start


def _run_frame(mode: Mode, bits: np.ndarray, front_end: _FrontEnds) -> FrameResult:
    """One frame through the whole receiver, as its `FrameResult`: `_detect`,
    then demap, count bit errors and sum both EVM powers."""
    tx_labels, sent, detected, est, start = _detect(mode, bits, front_end)
    errors = label_bit_errors(tx_labels, demap_labels(detected, mode.order))
    powers = float(np.sum(np.abs(detected - sent) ** 2)), float(np.sum(np.abs(sent) ** 2))
    return FrameResult(mode, _frame_bits(mode, front_end.spec), est, start, errors, *powers)


def _lockstep(
    runs: Sequence, config: ScenarioConfig, obstacle_x: float | None, p_total: float, seed: tuple[int, ...]
) -> None:
    """Step `runs` together by frame index, and stop at the first index that
    no run that is not done reads: the runs' own stop rules alone end it.

    A run has `mode`, the mode of its next frame, a `done` flag,
    `reads(frame_idx)`, whether it reads that frame, and `record(frame_idx,
    result)`, which applies its own stop rule.  The runs share per-frame
    seeds, so frame index k carries the same noise and the same payload-bit
    stream in each of them.  A frame index is simulated for the runs that
    are not done and read it: `_FrontEnds.draw` draws its noise and payload
    bits once, the bits as many as the most any of those runs needs, and the
    whole frame chain runs once per distinct mode among them; its record,
    which depends only on (mode, h_eff, spec, seeds), goes to every such run
    in that mode.  The chain runs of a frame index share the task's one
    front-end slot (see `_FrontEnds`).

    That stop cuts no run short in the run tables the sweeps build: a run
    that is not done reads every index, save a fixed blockage run before
    SETTLING_FRAMES, and at those indices the adaptive run is still active
    (`tests/test_lockstep.py::TestLockstepStop` states that rule).  Each
    frame adds bits to every run that reads it, so its bit budget ends a run.
    """
    h_norm, _ = channel_matrix(config.geometry(obstacle_x=obstacle_x))
    spec = config.frame_spec()
    front_end = _FrontEnds(math.sqrt(p_total / 2.0) * h_norm, spec)
    for frame_idx in itertools.count():
        readers = [run for run in runs if not run.done and run.reads(frame_idx)]
        if not readers:
            break
        modes = dict.fromkeys(run.mode for run in readers)
        bits = front_end.draw(seed, frame_idx, max(_frame_bits(mode, spec) for mode in modes))
        results = {mode: _run_frame(mode, bits, front_end) for mode in modes}
        for run in readers:
            run.record(frame_idx, results[run.mode])


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


@dataclass
class _Run:
    """One of the three runs at a position: its controller or fixed mode, and
    the frames it measured, in frame order."""

    config: ScenarioConfig
    policy: AdaptPolicy
    fixed_mode: Mode | None
    controller: ControllerState | None = None
    frames: list[FrameResult] = field(default_factory=list)
    done: bool = False

    @property
    def mode(self) -> Mode:
        """The mode this run transmits its next frame in."""
        return self.controller.pending if self.controller is not None else self.fixed_mode

    def reads(self, frame_idx: int) -> bool:
        """The adaptive run reads every frame, a fixed run those from SETTLING_FRAMES on."""
        return self.controller is not None or frame_idx >= SETTLING_FRAMES

    def record(self, frame_idx: int, result: FrameResult) -> None:
        """Step the controller on `result`, keep it if measured, then apply the stop rule.

        The first SETTLING_FRAMES frames are transmitted but not kept, and
        only the controller reads them; measurement then continues until both
        the frames_per_position budget and the payload_bits budget are met.
        """
        if self.controller is not None:
            snrs = (stream_snrs(result.est, P_TOTAL_REF, N0, scheme) for scheme in ("SM", "SD"))
            controller_step(self.controller, *snrs, self.policy)
        if frame_idx >= SETTLING_FRAMES:
            self.frames.append(result)
        self.done = (
            len(self.frames) >= self.config.frames_per_position - SETTLING_FRAMES
            and sum(frame.bits for frame in self.frames) >= self.config.payload_bits
        )

    def report(self, position_cm: float) -> LinkReport:
        """The row of the kept frames: their bit, error and EVM-power sums, the
        last frame's mode, and the mean stream SNRs of the frames sent in that
        mode's scheme, each from the frame's own estimate."""
        bits = errors = 0
        err_power = ref_power = 0.0
        for frame in self.frames:   # `+` in frame order: from Python 3.12 sum() compensates float sums
            bits += frame.bits
            errors += frame.errors
            err_power += frame.err_power
            ref_power += frame.ref_power
        mode = self.frames[-1].mode
        ber = errors / bits
        own = [stream_snrs(f.est, P_TOTAL_REF, N0, mode.scheme) for f in self.frames if f.mode.scheme == mode.scheme]
        matching = [snrs.snr for snrs in own if snrs is not None]
        snrs_db = tuple(10.0 * math.log10(v) for v in np.mean(matching, axis=0)) if matching else ()
        return LinkReport(
            position_cm=position_cm,
            mode=mode,
            bits_sent=bits,
            bit_errors=errors,
            ber=ber,
            eff_bshz=error_free_efficiency(mode, ber, self.policy.ber_tgt),
            snrs_db=snrs_db,
            evm=math.sqrt(err_power / ref_power) if ref_power > 0 else 0.0,
        )


@dataclass
class _BerRun:
    """A BER point: one fixed mode, its running error and bit sums and its
    stop rule.  It reads every frame and keeps none of them, as a point may
    run MAX_BER_POINT_FRAMES of them."""

    mode: Mode
    min_errors: int
    max_bits: int
    errors: int = 0
    bits: int = 0
    done: bool = False

    def reads(self, frame_idx: int) -> bool:
        return True

    def record(self, frame_idx: int, result: FrameResult) -> None:
        """Account one frame; stop at `min_errors` errors or `max_bits` bits."""
        self.errors += result.errors
        self.bits += result.bits
        self.done = self.errors >= self.min_errors or self.bits >= self.max_bits


# the runs at each blockage position, by result field: the adaptive run and the two fixed baselines
_BLOCKAGE_RUNS = (("adaptive", None), ("fixed_sm64", Mode("SM", 64)), ("fixed_sd64", Mode("SD", 64)))


@dataclass
class BlockageSweepResult:
    positions: np.ndarray
    adaptive: list[LinkReport]
    fixed_sm64: list[LinkReport]
    fixed_sd64: list[LinkReport]
    averages: dict[str, float]
    p_total: float


def _run_position(config: ScenarioConfig, index: int, p_total: float) -> tuple[LinkReport, ...]:
    """The blockage sweep's task for position `index` of `config.positions()`,
    at the sweep's `p_total`: the reports of the `_BLOCKAGE_RUNS` runs, in
    order.

    The task reads its obstacle position and its seed from its index alone, so
    a position gives the same rows whatever other positions run.  The three
    runs step in lockstep (see `_lockstep`), so they see identical noise.
    Every run, whatever modes it sends, meets its budgets within
    _MAX_FRAMES_PER_POSITION frame indices: the config bounds
    `frames_per_position`, and `run_blockage_sweep` checks `payload_bits`
    before any task.
    """
    x = float(config.positions()[index])
    policy = config.policy()
    runs = [_Run(config, policy, mode, new_controller(policy) if mode is None else None) for _, mode in _BLOCKAGE_RUNS]
    _lockstep(runs, config, x, p_total, (config.base_seed + index,))
    return tuple(run.report(x) for run in runs)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _worker_count(jobs: int | None, tasks: int, cpus: int) -> int:
    """Threads that run `tasks` independent tasks, the calling thread
    included: min(jobs, cpus, tasks), at least 1.

    `jobs=None` asks for one thread per usable CPU.  Clamping to `cpus` and to
    `tasks` means no input can start more threads than there are CPUs to run
    them or tasks to give them; 1 starts no thread (see `_map_tasks`).
    """
    if jobs is not None and jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    return max(1, min(cpus if jobs is None else jobs, cpus, tasks))


def _map_tasks(fn: Callable, tasks: Sequence[tuple], workers: int) -> list:
    """[fn(*args) for args in tasks], in task order, run by the calling
    thread and `workers` - 1 helper threads.

    Each thread takes the next task in order until none is left or a task
    has failed, so `workers` 1 is the serial run and starts no thread.  The
    calling thread runs tasks in the heap arena the imports have already
    grown, so a sweep grows one arena fewer than a pool of `workers` threads
    would.  `fn` is a top-level function and each task a tuple of plain
    arguments, so both could be sent to another process.  The tasks must be
    independent.  Threads keep every frame in this process, where the caller
    can count and measure it.  Only the noise draw and the BLAS matched
    filters release the interpreter lock; the chain's many small steps hold
    it, so a second thread gains only what it overlaps of those (README
    "Parallel runs").

    The tasks taken are a prefix of `tasks`, and each runs to its end.  After
    a failure or an interrupt no task starts and the running ones are
    joined; then the first failure in task order raises, as in a serial run.
    That exception object is re-raised as it is, its traceback still
    reaching into the task.
    """
    results = [None] * len(tasks)
    failures = {}   # task index -> its exception
    pending = iter(range(len(tasks)))
    lock = threading.Lock()   # guards taking an index against `stopped`
    stopped = False

    def work() -> None:
        nonlocal stopped
        while True:
            with lock:
                index = None if stopped else next(pending, None)
            if index is None:
                return
            try:
                results[index] = fn(*tasks[index])
            except BaseException as exc:   # an interrupt, too, reaches the caller in task order
                with lock:
                    stopped = True
                    failures[index] = exc

    helpers = [threading.Thread(target=work, name=f"vlclink-sweep-{n}") for n in range(1, workers)]
    try:
        for helper in helpers:
            helper.start()
        work()
    finally:
        with lock:
            stopped = True   # an interrupt outside a task stops the helpers too
        for helper in helpers:
            if helper.is_alive():   # a helper an interrupt kept from starting cannot be joined
                helper.join()
    if failures:
        raise failures[min(failures)]
    return results


def run_blockage_sweep(config: ScenarioConfig, jobs: int | None = None) -> BlockageSweepResult:
    """Sweep the obstacle across the link, adaptive plus both fixed baselines.

    Each run of `_BLOCKAGE_RUNS` fills the result field and the `averages`
    entry of its name, in the table's order.  The runs at a position share
    per-frame noise seeds, so the baseline comparison sees identical noise
    realisations.  Positions are seeded on their own and run on up to `jobs`
    threads, the calling thread plus `jobs` - 1 helpers (default: one thread
    per usable CPU; see `_map_tasks`); the result is the same for every
    `jobs`.

    The position grid and `sweep.payload_bits` are checked before
    calibration: a run measures every frame index but the settling ones and
    may fall back to SD-4, whose frames carry the fewest bits, so
    `sweep.payload_bits` may not exceed what SD-4 frames carry in the rest
    of the frame budget.
    """
    positions = config.positions()
    most_bits = (_MAX_FRAMES_PER_POSITION - SETTLING_FRAMES) * _frame_bits(Mode("SD", 4), config.frame_spec())
    if config.payload_bits > most_bits:
        budget = f"the frame budget of {_MAX_FRAMES_PER_POSITION} frames"
        raise ValidationError("sweep.payload_bits", f"exceeds the {most_bits} bits an SD-4 run measures in {budget}")
    workers = _worker_count(jobs, positions.size, _usable_cpus())
    p_total = 10.0 ** (config.snr_db / 10.0) if config.snr_db is not None else calibrate(config)
    reports = _map_tasks(_run_position, [(config, i, p_total) for i in range(positions.size)], workers)
    runs = {name: list(rows) for (name, _), rows in zip(_BLOCKAGE_RUNS, zip(*reports))}
    averages = {name: float(np.mean([r.eff_bshz for r in rows])) for name, rows in runs.items()}
    return BlockageSweepResult(**runs, positions=positions, averages=averages, p_total=p_total)


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


def write_blockage_csv(result: BlockageSweepResult, fh: IO[str]) -> None:
    """A block per run of `_BLOCKAGE_RUNS`, labelled by its name with `-` for
    `_`, then a trailer of their averages in the table's order and p_total."""
    for name, _ in _BLOCKAGE_RUNS:
        write_report_block(getattr(result, name), fh, name.replace("_", "-"))
        fh.write("\n")
    averages = " ".join(f"{name}={result.averages[name]:.6f}" for name, _ in _BLOCKAGE_RUNS)
    fh.write(f"# average_eff_bshz {averages}\n")
    fh.write(f"# p_total_db={10.0 * math.log10(result.p_total):.6f}\n")


@dataclass(frozen=True)
class BerSweepRow:
    scheme: str
    order: int
    snr_db: float
    ber_mc: float
    ber_theory: float | None   # None where the clear channel cannot carry two streams (SM only)
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
    """Monte-Carlo (errors, bits) for one fixed mode through the full chain.

    One run through `_lockstep` that stops after at least one frame, once it
    has `min_errors` errors or `max_bits` bits.
    """
    run = _BerRun(mode, min_errors, max_bits)
    _lockstep([run], config, None, p_total, seed_tuple)
    return run.errors, run.bits


def run_ber_sweep(config: ScenarioConfig, jobs: int | None = None) -> list[BerSweepRow]:
    """Monte-Carlo BER against theory over the configured SNR grid.

    Runs every (scheme, order) pair through the full chain on the
    unobstructed channel; the theory column evaluates the BER prediction at
    the SNRs implied by the true channel matrix, and is None for SM where
    that matrix cannot carry two streams.  Every (curve, point) is seeded on
    its own and the points run on up to `jobs` threads, the calling thread
    plus `jobs` - 1 helpers (default: one thread per usable CPU; see
    `_map_tasks`); the rows are the same for every `jobs`.  Before the first
    point, the SNR grid is checked (see `_grid`), and `bersweep.max_bits`
    against MAX_BER_POINT_FRAMES: SD-4 frames carry the fewest bits, so an
    SD-4 point runs the most frames.
    """
    grid = _grid("bersweep.snr_", config.bersweep_snr_start, config.bersweep_snr_step, config.bersweep_snr_stop)
    frames = config.bersweep_max_bits // _frame_bits(Mode("SD", 4), config.frame_spec()) + 1
    if frames > MAX_BER_POINT_FRAMES:
        msg = f"an SD-4 point would run {_clip(str(frames))} frames, over the cap of {MAX_BER_POINT_FRAMES}"
        raise ValidationError("bersweep.max_bits", msg)
    h_norm, _ = channel_matrix(config.geometry(obstacle_x=None))
    est_true = ChannelEstimate(h_norm)
    tasks = [
        (config, mode, 10.0 ** (snr_db / 10.0), (config.base_seed, _BER_SWEEP_TAG, curve_idx, point_idx),
         config.bersweep_min_errors, config.bersweep_max_bits)
        for curve_idx, mode in enumerate(MODES)
        for point_idx, snr_db in enumerate(grid)
    ]
    results = _map_tasks(measure_mode_ber, tasks, _worker_count(jobs, len(tasks), _usable_cpus()))
    rows: list[BerSweepRow] = []
    for (_, mode, p_total, *_), snr_db, (errors, bits) in zip(tasks, itertools.cycle(grid), results):
        snrs = stream_snrs(est_true, p_total, N0, mode.scheme)
        theory = None if snrs is None else predicted_ber(mode, snrs)
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
        theory = "" if r.ber_theory is None else f"{r.ber_theory:.6e}"
        fh.write(
            f"{r.scheme},{r.order},{r.snr_db:.2f},{r.ber_mc:.6e},{theory},"
            f"{r.bits},{r.errors},{r.eff_bshz:g}\n"
        )


def dump_constellation(symbols, path) -> None:
    """Write received symbols as an I,Q CSV with 6 decimal digits."""
    symbols = np.asarray(symbols, dtype=np.complex128).ravel()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("I,Q\n")
        for s in symbols:
            fh.write(f"{s.real:.6f},{s.imag:.6f}\n")
