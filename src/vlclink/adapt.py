"""Link adaptation: the 8-mode table, BER-constrained selection, 3-bit codes,
and the one-frame-delayed feedback controller.

Wire code table (normative for dumps and feedback; code c is `MODES[c]`):

    0 SD-4    1 SD-16   2 SD-64   3 SD-256
    4 SM-4    5 SM-16   6 SM-64   7 SM-256
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError
from .modem import QAM_ORDERS, ber_theoretical
from .receiver import StreamSnrs, stream_snrs  # noqa: F401 - bench/test_bench.py reads adapt.stream_snrs

__all__ = [
    "Mode",
    "MODES",
    "AdaptPolicy",
    "ControllerState",
    "new_controller",
    "predicted_ber",
    "select_mode",
    "encode_mode",
    "parse_mode",
    "controller_step",
]


@dataclass(frozen=True)
class Mode:
    scheme: str   # "SM" or "SD"
    order: int    # one of QAM_ORDERS

    def __post_init__(self):
        if self.scheme not in ("SM", "SD") or self.order not in QAM_ORDERS:
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
    Mode(scheme, order) for scheme in ("SD", "SM") for order in QAM_ORDERS
)


def encode_mode(mode: Mode) -> int:
    """3-bit wire code of a mode: its index in MODES, which holds every mode `Mode` admits."""
    return MODES.index(mode)


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
            raise ParameterError(f"ber_tgt must be in (0, 0.5), got {self.ber_tgt}", "ber_tgt")
        if self.margin_db < 0.0:
            raise ParameterError(f"margin_db must be >= 0, got {self.margin_db}", "margin_db")


def predicted_ber(mode: Mode, snrs: StreamSnrs) -> float:
    """BER prediction for one mode from per-stream SNRs.

    SD uses the single combined SNR directly; SM averages the two stream BERs
    because the payload is split equally across streams.
    """
    if snrs.scheme != mode.scheme:
        raise ParameterError(f"mode {mode.name} given {snrs.scheme} SNRs")
    bers = [ber_theoretical(mode.order, s) for s in snrs.snr]
    return sum(bers) / len(bers)


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
    back one frame earlier), so that mode is applied now; the SM and SD
    SNRs of this frame's estimate (`receiver.stream_snrs`; SM None when it
    cannot carry two streams) drive the selection that becomes pending for
    the next frame.  Returns the mode applied to the frame just received.
    """
    applied = state.pending
    state.pending = select_mode(sm_snrs, sd_snrs, policy)
    return applied
