"""Link adaptation: the 8-mode table, BER-constrained selection, 3-bit codes,
and the one-frame-delayed feedback controller.

Wire code table (normative for dumps and feedback; code c is `MODES[c]`):

    0 SD-4    1 SD-16   2 SD-64   3 SD-256
    4 SM-4    5 SM-16   6 SM-64   7 SM-256
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError, SchemeError
from .modem import ber_theoretical
from .receiver import ChannelEstimate, StreamSnrs, stream_snrs
from .numerics import SingularMatrix

__all__ = [
    "Mode",
    "MODES",
    "AdaptPolicy",
    "ControllerState",
    "new_controller",
    "estimate_snrs",
    "predicted_ber",
    "select_mode",
    "encode_mode",
    "parse_mode",
    "controller_step",
]


@dataclass(frozen=True)
class Mode:
    scheme: str   # "SM" or "SD"
    order: int    # 4, 16, 64 or 256

    def __post_init__(self):
        if self.scheme not in ("SM", "SD") or self.order not in (4, 16, 64, 256):
            raise ParameterError(f"no such mode: {self.scheme}-{self.order}")

    @property
    def streams(self) -> int:
        return 2 if self.scheme == "SM" else 1

    @property
    def bits_per_symbol(self) -> int:
        return int(math.log2(self.order))

    @property
    def efficiency(self) -> float:
        """Spectral efficiency in b/s/Hz: log2(M) doubled under SM."""
        return float(self.streams * self.bits_per_symbol)

    @property
    def name(self) -> str:
        return f"{self.scheme}-{self.order}"


MODES: tuple[Mode, ...] = tuple(
    Mode(scheme, order) for scheme in ("SD", "SM") for order in (4, 16, 64, 256)
)
_CODE_BY_MODE = {mode: code for code, mode in enumerate(MODES)}


def encode_mode(mode: Mode) -> int:
    """3-bit wire code of a mode."""
    try:
        return _CODE_BY_MODE[mode]
    except KeyError:
        raise ParameterError(f"unknown mode {mode!r}") from None


def parse_mode(name: str) -> Mode:
    try:
        scheme, order = name.strip().upper().split("-")
        return Mode(scheme, int(order))
    except ValueError:
        raise ParameterError(f"cannot parse mode name {name!r}") from None


@dataclass(frozen=True)
class AdaptPolicy:
    ber_tgt: float = 1e-3
    margin_db: float = 0.0
    initial: Mode = Mode("SM", 64)
    fallback: Mode = Mode("SD", 4)

    def __post_init__(self):
        if not 0.0 < self.ber_tgt < 0.5:
            raise ParameterError(f"ber_tgt must be in (0, 0.5), got {self.ber_tgt}")
        if self.margin_db < 0.0:
            raise ParameterError("margin_db must be >= 0")


def predicted_ber(mode: Mode, snrs: StreamSnrs) -> float:
    """BER prediction for one mode from per-stream SNRs.

    SD uses the single combined SNR directly; SM averages the two stream BERs
    because the payload is split equally across streams.
    """
    if snrs.scheme != mode.scheme:
        raise SchemeError(f"mode {mode.name} given {snrs.scheme} SNRs")
    bers = [ber_theoretical(mode.order, s) for s in snrs.snr]
    return sum(bers) / len(bers)


def estimate_snrs(est: ChannelEstimate, p_total: float, n0: float) -> tuple[StreamSnrs | None, StreamSnrs]:
    """The SM and SD stream SNRs a controller reads from one estimate; SM is
    None when the estimate is rank-deficient."""
    try:
        sm = stream_snrs(est, p_total, n0, "SM")
    except SingularMatrix:
        sm = None
    return sm, stream_snrs(est, p_total, n0, "SD")


def select_mode(sm_snrs: StreamSnrs | None, sd_snrs: StreamSnrs, policy: AdaptPolicy) -> Mode:
    """Highest-efficiency mode whose predicted BER meets the target.

    SM modes are skipped when `sm_snrs` is None (rank-deficient estimate).
    Ties on efficiency resolve toward lower predicted BER, then toward SD.
    Falls back to `policy.fallback` when nothing qualifies.
    """
    sd = sd_snrs.derated(policy.margin_db)
    sm = sm_snrs.derated(policy.margin_db) if sm_snrs is not None else None
    best: tuple[float, float, int] | None = None
    best_mode: Mode | None = None
    for mode in MODES:
        snrs = sm if mode.scheme == "SM" else sd
        if snrs is None:
            continue
        ber = predicted_ber(mode, snrs)
        if ber > policy.ber_tgt:
            continue
        rank = (mode.efficiency, -ber, 1 if mode.scheme == "SD" else 0)
        if best is None or rank > best:
            best = rank
            best_mode = mode
    return best_mode if best_mode is not None else policy.fallback


@dataclass
class ControllerState:
    """Single-owner feedback state; the pending mode takes effect next frame."""

    pending: Mode


def new_controller(policy: AdaptPolicy) -> ControllerState:
    return ControllerState(pending=policy.initial)


def controller_step(
    state: ControllerState,
    sm_snrs: StreamSnrs | None,
    sd_snrs: StreamSnrs,
    policy: AdaptPolicy,
) -> Mode:
    """Advance the controller by one received frame.

    The frame just received was transmitted in `state.pending` (the mode fed
    back one frame earlier), so that mode is applied now; the SNRs this
    frame's estimate gives (see `estimate_snrs`) drive the selection that
    becomes pending for the next frame.  Returns the mode applied to the
    frame just received.
    """
    applied = state.pending
    state.pending = select_mode(sm_snrs, sd_snrs, policy)
    return applied
