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

A k-bit group read this way is the symbol's label, the index into
`constellation(order).points`.  The frame chain takes its labels straight
from a bit stream packed into bytes (`unpack_labels`), maps and demaps
labels, and counts bit errors as the popcount of tx XOR rx labels;
`qam_map` and `qam_demap` are the bit-level entries over the same functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError
from .numerics import qfunc

__all__ = [
    "QAM_ORDERS",
    "Constellation",
    "constellation",
    "qam_map",
    "qam_demap",
    "unpack_labels",
    "map_labels",
    "demap_labels",
    "label_bit_errors",
    "ber_theoretical",
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
    for table in (level_by_code, points):
        table.flags.writeable = False
    return Constellation(
        order=order,
        bits_per_symbol=k,
        scale=scale,
        level_by_code=level_by_code,
        points=points,
    )


# Set bits of every byte value, for counting bit errors between labels.
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)
_POPCOUNT.flags.writeable = False


def _field_table(k: int) -> np.ndarray:
    """(256, 8 // k) table: row b holds the k-bit fields of byte b, MSB first."""
    shifts = np.arange(8 - k, -1, -k)
    table = ((np.arange(256)[:, None] >> shifts) & ((1 << k) - 1)).astype(np.uint8)
    table.flags.writeable = False
    return table


_FIELDS = {2: _field_table(2), 4: _field_table(4)}


def unpack_labels(packed: np.ndarray, order: int, count: int) -> np.ndarray:
    """The first `count` k-bit labels of a bit stream packed MSB first into
    uint8 bytes, as `np.packbits` packs it: each label is k bits of the
    stream read MSB first, the index into `constellation(order).points`.
    `packed` must hold at least count * k bits.

    A byte holds one 8-bit label, two 4-bit or four 2-bit labels; three
    bytes hold four 6-bit labels.
    """
    k = constellation(order).bits_per_symbol
    if k == 8:
        return packed[:count]
    if k in _FIELDS:
        return np.take(_FIELDS[k], packed[: -(-count * k // 8)], axis=0).ravel()[:count]
    groups = -(-count // 4)
    b = np.zeros((groups, 3), dtype=np.uint8)
    used = min(3 * groups, packed.size)
    b.ravel()[:used] = packed[:used]
    labels = np.empty((groups, 4), dtype=np.uint8)
    np.right_shift(b[:, 0], 2, out=labels[:, 0])
    labels[:, 1] = ((b[:, 0] & 3) << 4) | (b[:, 1] >> 4)
    labels[:, 2] = ((b[:, 1] & 15) << 2) | (b[:, 2] >> 6)
    np.bitwise_and(b[:, 2], 63, out=labels[:, 3])
    return labels.ravel()[:count]


def map_labels(labels: np.ndarray, order: int) -> np.ndarray:
    """Constellation points of k-bit labels, same shape as `labels`."""
    return np.take(constellation(order).points, labels)


def _axis_indices(x: np.ndarray, c: Constellation) -> np.ndarray:
    # Level index grows as amplitude falls; round-half-up picks the larger
    # index at an exact decision boundary, i.e. the smaller coordinate.
    # Evaluates floor(clip((side - 1 - x / scale) / 2.0 + 0.5, 0, side - 1)) in
    # one float64 temporary; the uint8 cast floors the clipped, non-negative value.
    side = 1 << (c.bits_per_symbol // 2)
    raw = np.divide(x, c.scale)
    np.subtract(side - 1, raw, out=raw)
    np.divide(raw, 2.0, out=raw)
    np.add(raw, 0.5, out=raw)
    np.clip(raw, 0, side - 1, out=raw)
    return raw.astype(np.uint8)


def demap_labels(symbols: np.ndarray, order: int) -> np.ndarray:
    """Hard minimum-distance decisions as uint8 k-bit labels, same shape as
    `symbols`.

    Both axes are decided in one pass over the (..., 2) float view of the
    symbols.  Ties at a decision boundary resolve toward the smaller I
    coordinate, then the smaller Q coordinate.
    """
    c = constellation(order)
    z = np.ascontiguousarray(symbols, dtype=np.complex128)
    axes = _axis_indices(z.view(np.float64).reshape(z.shape + (2,)), c)
    axes ^= axes >> 1   # gray code of each axis index
    labels = axes[..., 0]
    labels <<= c.bits_per_symbol // 2
    labels |= axes[..., 1]
    return labels.reshape(np.shape(symbols))


def label_bit_errors(tx: np.ndarray, rx: np.ndarray) -> int:
    """Bits that differ between two uint8 label arrays of one shape."""
    return int(np.take(_POPCOUNT, tx ^ rx).sum())


def qam_map(bits, order: int) -> np.ndarray:
    """Map a 0/1 bit sequence onto unit-average-energy QAM symbols."""
    k = constellation(order).bits_per_symbol
    bits = np.asarray(bits).ravel()
    if bits.size % k != 0:
        raise ParameterError(f"bit count {bits.size} not divisible by {k}")
    if not np.all((bits == 0) | (bits == 1)):
        raise ParameterError("bits must be 0 or 1")
    return map_labels(unpack_labels(np.packbits(bits == 1), order, bits.size // k), order)


def qam_demap(symbols, order: int) -> np.ndarray:
    """Hard minimum-distance demap back to bits, k per symbol, MSB first.

    Ties at a decision boundary resolve toward the smaller I coordinate,
    then the smaller Q coordinate.
    """
    labels = demap_labels(np.ravel(symbols), order)
    k = constellation(order).bits_per_symbol
    shifts = np.arange(k - 1, -1, -1, dtype=np.uint8)
    return ((labels[:, None] >> shifts) & 1).astype(np.int64).ravel()


def ber_theoretical(order: int, snr: float) -> float:
    """Nearest-neighbour Gray BER approximation for square QAM on AWGN.

    P_b = (4/k) (1 - 1/sqrt(M)) Q(sqrt(3 snr / (M - 1))) with snr the linear
    per-symbol SNR.  Exact for 4-QAM; for the larger orders the neglected
    terms are O(Q(3x)) and irrelevant below BER 1e-2.
    """
    c = constellation(order)
    if not snr >= 0.0:
        raise ParameterError(f"snr must be >= 0, got {snr}")
    k = c.bits_per_symbol
    coeff = (4.0 / k) * (1.0 - 1.0 / math.sqrt(order))
    return coeff * qfunc(math.sqrt(3.0 * snr / (order - 1)))

