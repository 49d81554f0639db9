"""Gray-coded square M-QAM modem for M in {4, 16, 64, 256}.

Mapping convention (fixed so results are bit-exact and reproducible):

* each k-bit group is read MSB first; the first k/2 bits select the I level,
  the last k/2 bits select the Q level;
* per axis, bit code c addresses level index i = gray_inverse(c), and level
  index 0 is the most positive amplitude, so the all-zeros group maps to the
  top-right corner point;
* amplitudes are odd multiples of a scale chosen so the uniform average
  symbol energy is exactly 1.

Under this convention 4-QAM maps bits 00 to (+1+1j)/sqrt(2) and 11 to
(-1-1j)/sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EmptyInput, LengthError, ParameterError
from .numerics import qfunc

__all__ = [
    "QAM_ORDERS",
    "Constellation",
    "constellation",
    "qam_map",
    "qam_demap",
    "ber_theoretical",
    "evm",
    "snr_from_evm",
]

QAM_ORDERS = (4, 16, 64, 256)


def _gray(i: np.ndarray | int):
    return i ^ (i >> 1)


@dataclass(frozen=True)
class Constellation:
    """Lookup tables for one square QAM order.

    `constellation` caches one instance per order for every caller and every
    thread, so its arrays are read-only.
    """

    order: int
    bits_per_symbol: int
    scale: float                # amplitude unit; levels are odd multiples of it
    level_by_code: np.ndarray   # axis amplitude indexed by the axis bit code
    points: np.ndarray          # complex point indexed by the full k-bit label
    labels: np.ndarray          # identity label list, kept for introspection


@lru_cache(maxsize=None)
def constellation(order: int) -> Constellation:
    if order not in QAM_ORDERS:
        raise ParameterError(f"unsupported QAM order {order}; expected one of {QAM_ORDERS}")
    k = int(math.log2(order))
    side = 1 << (k // 2)
    # E|s|^2 = 2 * scale^2 * (side^2 - 1)/3 = 1
    scale = math.sqrt(3.0 / (2.0 * (order - 1)))
    level_by_index = (side - 1 - 2 * np.arange(side)) * scale
    level_by_code = np.empty(side)
    level_by_code[_gray(np.arange(side))] = level_by_index
    codes = np.arange(order)
    icode = codes >> (k // 2)
    qcode = codes & (side - 1)
    points = level_by_code[icode] + 1j * level_by_code[qcode]
    for table in (level_by_code, points, codes):
        table.flags.writeable = False
    return Constellation(
        order=order,
        bits_per_symbol=k,
        scale=scale,
        level_by_code=level_by_code,
        points=points,
        labels=codes,
    )


def _pack_msb_first(bits: np.ndarray) -> np.ndarray:
    weights = 1 << np.arange(bits.shape[1] - 1, -1, -1)
    return bits @ weights


def qam_map(bits, order: int) -> np.ndarray:
    """Map a 0/1 bit sequence onto unit-average-energy QAM symbols."""
    c = constellation(order)
    bits = np.asarray(bits, dtype=np.int64)
    if bits.ndim != 1:
        bits = bits.ravel()
    k = c.bits_per_symbol
    if bits.size % k != 0:
        raise LengthError(f"bit count {bits.size} not divisible by {k}")
    groups = bits.reshape(-1, k)
    half = k // 2
    icode = _pack_msb_first(groups[:, :half])
    qcode = _pack_msb_first(groups[:, half:])
    return c.level_by_code[icode] + 1j * c.level_by_code[qcode]


def _axis_indices(x: np.ndarray, c: Constellation) -> np.ndarray:
    # Level index grows as amplitude falls; round-half-up picks the larger
    # index at an exact decision boundary, i.e. the smaller coordinate.
    side = 1 << (c.bits_per_symbol // 2)
    raw = (side - 1 - x / c.scale) / 2.0
    idx = np.floor(raw + 0.5).astype(np.int64)
    return np.clip(idx, 0, side - 1)


def qam_demap(symbols, order: int) -> np.ndarray:
    """Hard minimum-distance demap back to bits.

    Ties at a decision boundary resolve toward the smaller I coordinate,
    then the smaller Q coordinate.
    """
    c = constellation(order)
    symbols = np.asarray(symbols, dtype=np.complex128).ravel()
    k = c.bits_per_symbol
    half = k // 2
    icode = _gray(_axis_indices(symbols.real, c))
    qcode = _gray(_axis_indices(symbols.imag, c))
    bits = np.empty((symbols.size, k), dtype=np.int64)
    for j in range(half):
        shift = half - 1 - j
        bits[:, j] = (icode >> shift) & 1
        bits[:, half + j] = (qcode >> shift) & 1
    return bits.ravel()


def ber_theoretical(order: int, snr: float) -> float:
    """Nearest-neighbour Gray BER approximation for square QAM on AWGN.

    P_b = (4/k) (1 - 1/sqrt(M)) Q(sqrt(3 snr / (M - 1))) with snr the linear
    per-symbol SNR.  Exact for 4-QAM; for the larger orders the neglected
    terms are O(Q(3x)) and irrelevant below BER 1e-2.
    """
    c = constellation(order)
    if not snr >= 0.0:
        raise ParameterError(f"snr must be >= 0, got {snr}")
    if math.isinf(snr):
        return 0.0
    k = c.bits_per_symbol
    coeff = (4.0 / k) * (1.0 - 1.0 / math.sqrt(order))
    return coeff * qfunc(math.sqrt(3.0 * snr / (order - 1)))


def evm(rx, ref) -> float:
    """Root-mean-square error vector magnitude, normalised to reference power."""
    rx = np.asarray(rx, dtype=np.complex128).ravel()
    ref = np.asarray(ref, dtype=np.complex128).ravel()
    if rx.size != ref.size:
        raise LengthError(f"rx has {rx.size} symbols, ref has {ref.size}")
    if rx.size == 0:
        raise EmptyInput("evm needs at least one symbol")
    ref_power = float(np.sum(np.abs(ref) ** 2))
    if ref_power == 0.0:
        raise ParameterError("reference power is zero")
    return math.sqrt(float(np.sum(np.abs(rx - ref) ** 2)) / ref_power)


def snr_from_evm(evm_rms: float) -> float:
    """Data-aided SNR estimate, 1/EVM^2 in linear units."""
    if not evm_rms > 0.0:
        raise ParameterError(f"evm must be positive, got {evm_rms}")
    return 1.0 / (evm_rms * evm_rms)
