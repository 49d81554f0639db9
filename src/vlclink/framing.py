"""Per-branch physical frame: preamble, orthogonal pilots, CP, pulse shaping.

Symbol layout of every frame (identical for both branches):

    [ preamble | pilot slot 1 | pilot slot 2 | CP | payload ]

Branch 1 transmits its pilot block in slot 1 and is silent in slot 2;
branch 2 does the opposite, so the pilot blocks are time-orthogonal and
least-squares channel estimation reduces to one correlation per entry.
Both branches transmit the same preamble simultaneously.

`build_tx_symbols` assembles a frame's symbols.  On the air they are
up-sampled by `sps` and shaped with a unit-energy root-raised-cosine filter;
the receiver applies the matched RRC so the cascade sampled at symbol
spacing is (truncated) raised cosine.  Symbol k of a frame starting at
sample index `start` is taken from the matched-filter output at index
`start + (ntaps - 1) + k * sps`.

The chain shapes only the stream head that sync reads (`build_head`), and
`synchronize` considers only the starts that leave room for a whole frame,
start <= n - 1 - (n_symbols - 1) * sps, filtering only the head those
starts need.  Past sync the frame is never shaped: `matched_filter_frame`
gives its noise-free matched-filter output at symbol rate, through one phase
of the RRC x RRC cascade, and `matched_filter_downsample` filters the real
noise at the symbol instants alone.  The head is shaped by zero-stuffed
convolution; the two matched filters are polyphase (Vaidyanathan, Multirate
Systems and Filter Banks, 1993) and run as banded matrix products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError, SyncNotFound

__all__ = [
    "FrameSpec",
    "mseq",
    "pilot_symbols",
    "rrc_taps",
    "build_tx_symbols",
    "build_head",
    "head_symbols",
    "matched_filter_downsample",
    "matched_filter_frame",
    "synchronize",
    "SYNC_THRESHOLD",
]

SYNC_THRESHOLD = 0.6

# Feedback taps of one primitive polynomial per LFSR degree.
_PRIMITIVE_TAPS = {3: (3, 2), 4: (4, 3), 5: (5, 3), 6: (6, 5), 7: (7, 6)}

# Cyclic shift applied to the preamble m-sequence to derive pilot symbols,
# so pilot blocks do not masquerade as preamble sidelobes during sync.
_PILOT_SHIFT = 17


@dataclass(frozen=True)
class FrameSpec:
    """Frame geometry and pulse-shaping parameters.  `pilot1`, `pilot2`, `cp`
    and `payload` are the symbol offsets at which those segments start."""

    preamble_len: int = 63
    pilot_len: int = 32
    payload_len: int = 4096
    cp_len: int = 8
    sps: int = 4
    rolloff: float = 0.35
    rrc_span: int = 10

    def __post_init__(self):
        if self.preamble_len not in {(1 << d) - 1 for d in _PRIMITIVE_TAPS}:
            raise ParameterError(f"preamble_len must be 2^d - 1 for d in 3..7, got {self.preamble_len}", "preamble_len")
        if self.pilot_len < 4:
            raise ParameterError(f"pilot_len must be >= 4, got {self.pilot_len}", "pilot_len")
        if self.payload_len < 1:
            raise ParameterError(f"payload_len must be >= 1, got {self.payload_len}", "payload_len")
        if not 0 <= self.cp_len < self.payload_len:
            raise ParameterError(f"cp_len must satisfy 0 <= cp_len < payload_len, got {self.cp_len}", "cp_len")
        if self.sps < 2:
            raise ParameterError(f"sps must be >= 2, got {self.sps}", "sps")
        if not 0.0 < self.rolloff <= 1.0:
            raise ParameterError(f"rolloff must be in (0, 1], got {self.rolloff}", "rolloff")
        if self.rrc_span < 4:
            raise ParameterError(f"rrc_span must be >= 4, got {self.rrc_span}", "rrc_span")
        if (self.rrc_span * self.sps) % 2 != 0:
            raise ParameterError("rrc_span * sps must be even so the filter is symmetric", "rrc_span")

    @property
    def n_symbols(self) -> int:
        return self.payload + self.payload_len

    @property
    def ntaps(self) -> int:
        return self.rrc_span * self.sps + 1

    @property
    def n_samples(self) -> int:
        # Full convolution of the zero-stuffed stream with the RRC taps.
        return self.n_symbols * self.sps + self.ntaps - 1

    @property
    def pilot1(self) -> int:
        return self.preamble_len

    @property
    def pilot2(self) -> int:
        return self.pilot1 + self.pilot_len

    @property
    def cp(self) -> int:
        return self.pilot2 + self.pilot_len

    @property
    def payload(self) -> int:
        return self.cp + self.cp_len


@lru_cache(maxsize=None)
def mseq(length: int) -> np.ndarray:
    """Maximal-length +-1 sequence from a fixed primitive polynomial.

    Circular autocorrelation is `length` at lag 0 and exactly -1 elsewhere.
    Shared by every caller and every thread, so read-only.
    """
    degree = int(math.log2(length + 1))
    if (1 << degree) - 1 != length or degree not in _PRIMITIVE_TAPS:
        raise ParameterError(f"mseq length must be 2^d - 1 for d in 3..7, got {length}")
    taps = _PRIMITIVE_TAPS[degree]
    state = [1] * degree
    bits = []
    for _ in range(length):
        bits.append(state[-1])
        fb = 0
        for t in taps:
            fb ^= state[t - 1]
        state = [fb] + state[:-1]
    seq = 1.0 - 2.0 * np.array(bits, dtype=np.float64)
    seq.flags.writeable = False
    return seq


@lru_cache(maxsize=None)
def pilot_symbols(spec: FrameSpec) -> np.ndarray:
    """Unit-power BPSK pilots, a cyclic shift of the preamble sequence.

    Shared by every caller and every thread, so read-only.
    """
    base = np.roll(mseq(spec.preamble_len), -_PILOT_SHIFT)
    reps = -(-spec.pilot_len // base.size)
    pilots = np.tile(base, reps)[: spec.pilot_len].astype(np.complex128)
    pilots.flags.writeable = False
    return pilots


@lru_cache(maxsize=None)
def rrc_taps(spec: FrameSpec) -> np.ndarray:
    """Unit-energy root-raised-cosine taps of `spec`, ntaps = rrc_span*sps + 1
    of them, symmetric.  Shared by every caller and every thread, so read-only.
    """
    n = spec.rrc_span * spec.sps
    t = (np.arange(n + 1) - n / 2.0) / spec.sps
    beta = spec.rolloff
    taps = np.empty(t.size)
    singular = np.isclose(np.abs(t), 1.0 / (4.0 * beta), rtol=0.0, atol=1e-12)
    zero = np.isclose(t, 0.0, rtol=0.0, atol=1e-12)
    regular = ~(singular | zero)
    tr = t[regular]
    num = np.sin(np.pi * tr * (1 - beta)) + 4 * beta * tr * np.cos(np.pi * tr * (1 + beta))
    den = np.pi * tr * (1 - (4 * beta * tr) ** 2)
    taps[regular] = num / den
    taps[zero] = 1.0 - beta + 4.0 * beta / np.pi
    if singular.any():
        taps[singular] = (beta / math.sqrt(2.0)) * (
            (1 + 2 / np.pi) * math.sin(np.pi / (4 * beta))
            + (1 - 2 / np.pi) * math.cos(np.pi / (4 * beta))
        )
    taps /= math.sqrt(float(np.sum(taps**2)))
    taps.flags.writeable = False
    return taps


@lru_cache(maxsize=None)
def _band_pair(taps: bytes, step: int) -> np.ndarray:
    """Tap matrix of `_block_fir`, (2*chunk, block) for ntaps taps: entry
    [r, t] is taps[r - t*step] where that tap exists, else 0."""
    f = np.frombuffer(taps)
    block = -(-f.size // step)
    r = np.arange(2 * block * step)[:, None] - step * np.arange(block)
    bands = np.where((r >= 0) & (r < f.size), f[np.clip(r, 0, f.size - 1)], 0.0)
    bands.flags.writeable = False
    return bands


def _block_width(ntaps: int, step: int, n_out: int) -> int:
    """Samples `_block_fir` reads for n_out outputs of ntaps taps: whole chunks
    of ceil(ntaps/step)*step samples, one more than there are blocks."""
    block = -(-ntaps // step)
    return (-(-n_out // block) + 1) * block * step


def _block_fir(x: np.ndarray, taps: np.ndarray, step: int, n_out: int) -> np.ndarray:
    """y[..., k] = sum_i x[..., k*step + i] * taps[i] for k < n_out; x real, zero past its end.

    Outputs go in blocks of ceil(ntaps/step).  The windows of one block span
    its chunk of block*step samples and the next, so a block is two matrix
    products with banded tap matrices.  x is read in place when it holds
    `_block_width` samples.
    """
    bands = _band_pair(taps.tobytes(), step)
    chunk, block = bands.shape[0] // 2, bands.shape[1]
    n_blocks = -(-n_out // block)
    width = _block_width(taps.size, step, n_out)
    if x.shape[-1] < width:
        x = np.concatenate([x, np.zeros(x.shape[:-1] + (width - x.shape[-1],))], axis=-1)
    chunks = x[..., :width].reshape(x.shape[:-1] + (n_blocks + 1, chunk))
    y = chunks[..., :-1, :] @ bands[:chunk]
    y += chunks[..., 1:, :] @ bands[chunk:]
    return y.reshape(x.shape[:-1] + (n_blocks * block,))[..., :n_out]


def _upsample_and_shape(symbols: np.ndarray, spec: FrameSpec) -> np.ndarray:
    """Each row of the (..., n) symbols zero-stuffed by sps and convolved with
    the RRC taps: n*sps + ntaps - 1 samples."""
    stuffed = np.zeros(symbols.shape[:-1] + (symbols.shape[-1] * spec.sps,), dtype=np.complex128)
    stuffed[..., :: spec.sps] = symbols
    return np.apply_along_axis(np.convolve, -1, stuffed, rrc_taps(spec))


def build_tx_symbols(payload_syms: np.ndarray, spec: FrameSpec) -> np.ndarray:
    """The frame symbols of `payload_syms`, unchecked: the one TX assembly.

    `payload_syms` is (streams, payload_len): two rows under SM, the one row
    both branches repeat under SD.  Every segment is written into a fresh
    frame: the preamble on both branches, each branch's pilots in its own
    slot and silence in the other's, the cyclic prefix (the last cp_len
    payload symbols) and the payload.
    """
    symbols = np.empty((2, spec.n_symbols), dtype=np.complex128)
    symbols[:, : spec.pilot1] = mseq(spec.preamble_len)
    symbols[0, spec.pilot1 : spec.pilot2] = pilot_symbols(spec)
    symbols[1, spec.pilot1 : spec.pilot2] = 0.0
    symbols[0, spec.pilot2 : spec.cp] = 0.0
    symbols[1, spec.pilot2 : spec.cp] = pilot_symbols(spec)
    symbols[:, spec.cp : spec.payload] = payload_syms[:, spec.payload_len - spec.cp_len :]
    symbols[:, spec.payload :] = payload_syms
    return symbols


def _last_start(spec: FrameSpec, n: int) -> int:
    """The last frame start `synchronize` admits in an n-sample stream: the
    last that leaves room for a whole frame (negative when none does)."""
    return n - 1 - (spec.n_symbols - 1) * spec.sps


def _sync_reach(spec: FrameSpec, n: int) -> int:
    """Leading samples of an n-sample stream that `synchronize` reads: the
    matched-filter span of the preamble at the last admissible start."""
    return min(n, _last_start(spec, n) + (spec.preamble_len - 1) * spec.sps + spec.ntaps)


def head_symbols(spec: FrameSpec, lead: int, stream_len: int) -> int:
    """Leading frame symbols that reach the head `build_head` shapes, at most
    n_symbols; the head depends on the frame through these alone."""
    return max(0, min(spec.n_symbols, -(-(_sync_reach(spec, stream_len) - lead) // spec.sps)))


def build_head(symbols: np.ndarray, spec: FrameSpec, lead: int, stream_len: int) -> np.ndarray:
    """The head `synchronize` reads of a `stream_len`-sample stream: `lead` zero
    samples, then the frame shaped from the (..., n_symbols) `symbols`.  Only
    the first `head_symbols` symbols are read, so `symbols` may hold just
    those."""
    width = _sync_reach(spec, stream_len)
    used = min(symbols.shape[-1], head_symbols(spec, lead, stream_len))
    head = np.zeros(symbols.shape[:-1] + (width,), dtype=np.complex128)
    if used > 0:
        shaped = _upsample_and_shape(symbols[..., :used], spec)[..., : width - lead]
        head[..., lead : lead + shaped.shape[-1]] = shaped
    return head


def matched_filter_downsample(samples: np.ndarray, spec: FrameSpec, start: int, n_symbols: int) -> np.ndarray:
    """RRC matched filter evaluated only at `n_symbols` symbol instants after `start`.

    `samples` is a real (..., n) array of streams, read in place; the result
    is (..., n_symbols).  Symbol k is the full-convolution output at index
    `start + ntaps - 1 + k*sps`, i.e. the window `samples[start + k*sps :
    start + k*sps + ntaps]` (zero past the end) times the reversed taps.
    Raises ParameterError when `start` lies outside the stream or fewer than
    `n_symbols` symbol instants follow it.
    """
    n = samples.shape[-1]
    if not 0 <= start < max(n, 1):
        raise ParameterError(f"start {start} outside stream of {n} samples")
    available = (n - 1 - start) // spec.sps + 1 if n > start else 0
    if not 0 <= n_symbols <= available:
        raise ParameterError(f"stream holds {available} symbols after start, need {n_symbols}")
    return _block_fir(samples[..., start:], rrc_taps(spec)[::-1], spec.sps, n_symbols)


def matched_filter_frame(symbols: np.ndarray, spec: FrameSpec, start: int) -> np.ndarray:
    """Noise-free matched-filter output of a frame at its symbol instants.

    The RRC matched filter, at the n_symbols instants after s that
    `matched_filter_downsample` samples, of a stream that holds the frame
    shaped from the (..., n_symbols) `symbols` at sample s - start and zeros
    elsewhere; `start` may be any integer.  With g the RRC x RRC cascade and
    c = start + ntaps - 1, symbol k is sum_m symbols[m] * g[(k - m)*sps + c]:
    the symbols filtered by the phase g[c mod sps :: sps], shifted by
    c // sps.  The cascade is convolved from the taps on every call: one
    self-convolution of ntaps taps, too cheap for a shared cache to pay.
    """
    taps = rrc_taps(spec)
    c = start + spec.ntaps - 1
    phase = np.convolve(taps, taps)[c % spec.sps :: spec.sps]
    first = c // spec.sps - (phase.size - 1)   # symbol under the first tap of output 0
    n = symbols.shape[-1]
    lead = max(-first, 0)
    body = symbols[..., max(first, 0) :]
    end = lead + body.shape[-1]
    # real and imaginary parts as two rows of one product, zero outside the frame
    parts = np.zeros(symbols.shape[:-1] + (2, max(end, _block_width(phase.size, 1, n))))
    parts[..., 0, lead:end] = body.real
    parts[..., 1, lead:end] = body.imag
    y = _block_fir(parts, phase[::-1], 1, n)
    out = np.empty(y.shape[:-2] + (n,), dtype=np.complex128)
    out.real = y[..., 0, :]
    out.imag = y[..., 1, :]
    return out


def _best_start(stream: np.ndarray, spec: FrameSpec, last: int) -> tuple[int, float]:
    """Preamble peak over starts 0..last of one branch, and its metric in [0, 1].

    The metric at start s is |sum_k z_k pre_k| / sqrt(P * sum_k |z_k|^2) with
    z_k the matched-filter output at `s + ntaps - 1 + k*sps`.  Only the stream
    head those outputs depend on is filtered, and the correlation runs per
    sample phase against the P preamble symbols.
    """
    pre = mseq(spec.preamble_len)
    sps, ntaps = spec.sps, spec.ntaps
    reach = last + (pre.size - 1) * sps + 1   # filter outputs from index ntaps - 1 on
    head = stream[: reach + ntaps - 1]
    if head.size < reach + ntaps - 1:
        head = np.concatenate([head, np.zeros(reach + ntaps - 1 - head.size, dtype=np.complex128)])
    z = np.convolve(head, rrc_taps(spec), mode="valid")
    corr = np.empty(last + 1)
    for p in range(min(sps, last + 1)):
        np.abs(np.correlate(z[p::sps], pre, mode="valid"), out=corr[p::sps])
    peak = int(np.argmax(corr))
    window = z[peak : peak + (pre.size - 1) * sps + 1 : sps]
    energy = float(np.vdot(window, window).real)
    metric = float(corr[peak]) / math.sqrt(max(energy, 1e-300) * pre.size)
    return peak, min(metric, 1.0)


def synchronize(samples: np.ndarray, spec: FrameSpec, stream_len: int | None = None) -> int:
    """Locate the frame start by preamble cross-correlation.

    `samples` is one (n,) stream or a (2, n) pair of branches.  Returns the
    sample index of the first preamble symbol.  Only starts that leave room
    for a whole frame are considered: start <= n - 1 - (n_symbols - 1)*sps,
    so the returned start always decodes with `matched_filter_downsample`.
    Given `stream_len`, `samples` may be just the head of such a stream that
    sync reads, as `build_head` shapes it.
    The peak of each branch is selected on the raw correlation magnitude;
    with two branches the one with the higher normalised metric wins (branch
    0 on a tie).  Detection requires that metric to reach SYNC_THRESHOLD, so
    an input with no frame, a fully blocked link, or a stream shorter than
    one frame raises SyncNotFound.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    if samples.ndim not in (1, 2):
        raise ParameterError("synchronize expects an (n,) or (2, n) sample stream")
    n = samples.shape[-1] if stream_len is None else stream_len
    last = _last_start(spec, n)
    if last < 0:
        raise SyncNotFound(f"stream of {n} samples is shorter than one frame")
    if samples.shape[-1] < _sync_reach(spec, n):
        raise ParameterError(f"sync reads {_sync_reach(spec, n)} samples, got {samples.shape[-1]}")
    best, metric = 0, -1.0
    for stream in samples.reshape(-1, samples.shape[-1]):
        peak, m = _best_start(stream, spec, last)
        if m > metric:
            best, metric = peak, m
    if metric < SYNC_THRESHOLD:
        raise SyncNotFound(f"best correlation {metric:.3f} below threshold {SYNC_THRESHOLD}")
    return best
