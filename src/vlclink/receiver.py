"""Channel estimation, per-scheme SNR extraction, ZF detection, MRC combining.

Power convention used throughout: the total transmit symbol power p_total is
split equally over the two LEDs in both schemes, so each branch radiates
p_total/2.  Spatial diversity repeats the same unit-reference symbol on both
branches; with maximal-ratio combining its output SNR is the sum of the two
receive-branch SNRs, which is what produces the 3 dB array gain over spatial
multiplexing on a symmetric channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SingularMatrix
from .numerics import inv2

__all__ = [
    "ChannelEstimate",
    "StreamSnrs",
    "estimate_channel",
    "stream_snrs",
    "detect_sm_zf",
    "combine_sd_mrc",
]


@dataclass(frozen=True)
class ChannelEstimate:
    h_hat: np.ndarray   # (2, 2): h_hat[j, i] couples LED i into PD j


@dataclass(frozen=True)
class StreamSnrs:
    """Linear post-processing SNR per stream: two for SM, one for SD."""

    scheme: str
    snr: tuple[float, ...]

    def __post_init__(self):
        expected = 2 if self.scheme == "SM" else 1
        if self.scheme not in ("SM", "SD"):
            raise ParameterError(f"scheme must be 'SM' or 'SD', got {self.scheme!r}")
        if len(self.snr) != expected:
            raise ParameterError(f"{self.scheme} carries {expected} SNR value(s)")

    def derated(self, margin_db: float) -> "StreamSnrs":
        """These SNRs lowered by `margin_db` dB; a new instance, equal in value
        at margin 0, since 10**0 == 1.0 exactly."""
        factor = 10.0 ** (-margin_db / 10.0)
        return StreamSnrs(self.scheme, tuple(s * factor for s in self.snr))


def estimate_channel(rx_pilot_segments: np.ndarray, pilots: np.ndarray) -> ChannelEstimate:
    """Least-squares estimate from time-orthogonal pilot blocks.

    `rx_pilot_segments[j][i]` is what PD j received while branch i was the
    only one transmitting pilots.  With known pilots p the LS solution per
    entry is <y, p> / ||p||^2; its error variance is n0 / (N_p E_p).
    """
    y = np.asarray(rx_pilot_segments, dtype=np.complex128)
    pilots = np.asarray(pilots, dtype=np.complex128)
    n_p = pilots.size
    if n_p < 4:
        raise ParameterError(f"need at least 4 pilot symbols, got {n_p}")
    if y.shape != (2, 2, n_p):
        raise ParameterError(f"pilot segments must have shape (2, 2, {n_p}), got {y.shape}")
    energy = float(np.sum(np.abs(pilots) ** 2))
    if energy == 0.0:
        raise ParameterError("pilot sequence has zero energy")
    return ChannelEstimate(h_hat=(y @ np.conj(pilots)) / energy)


def stream_snrs(est: ChannelEstimate, p_total: float, n0: float, scheme: str) -> StreamSnrs | None:
    """Predict post-detection SNR per stream from the channel estimate.

    SM (zero forcing):  snr_i = (p_total/2) / (n0 [(H^H H)^-1]_ii)
    SD (MRC over both PDs):  snr = (p_total/2) ||H [1,1]^T||^2 / n0

    The SM form is None when the Gram matrix H^H H fails `inv2`'s singularity
    test: a channel that cannot carry two streams has no SM SNRs, so the mode
    selector skips SM and the BER theory of SM is undefined.  The SD form is
    total.  `scheme` is exactly 'SM' or 'SD', as `Mode.scheme` holds it.
    """
    if not p_total > 0 or not n0 > 0:
        raise ParameterError("p_total and n0 must be positive")
    h = est.h_hat
    per_branch = p_total / 2.0
    if scheme == "SM":
        try:
            gram_inv = inv2(h.conj().T @ h)
        except SingularMatrix:
            return None
        snrs = tuple(per_branch / (n0 * float(gram_inv[i, i].real)) for i in range(2))
        return StreamSnrs("SM", snrs)
    if scheme == "SD":
        g = h @ np.ones(2, dtype=np.complex128)
        snr = per_branch * float(np.sum(np.abs(g) ** 2)) / n0
        return StreamSnrs("SD", (snr,))
    raise ParameterError(f"scheme must be 'SM' or 'SD', got {scheme!r}")


def detect_sm_zf(y: np.ndarray, est: ChannelEstimate) -> np.ndarray:
    """Zero-forcing demultiplexer: x_hat[n] = H^-1 y[n] for a (2, n) block."""
    y = np.asarray(y, dtype=np.complex128)
    if y.ndim != 2 or y.shape[0] != 2:
        raise ParameterError("y must have shape (2, n)")
    return inv2(est.h_hat) @ y


def combine_sd_mrc(y: np.ndarray, est: ChannelEstimate) -> np.ndarray:
    """Maximal-ratio combiner across the two PDs for the repetition scheme.

    The effective column for a unit-reference repeated symbol is
    g = H [1,1]^T; the combiner g^H y / ||g||^2 has unit gain on the symbol,
    so a noise-free input returns the transmitted symbols exactly.  Each
    branch is weighted by conj(g_j) / ||g||^2 and the two terms are summed
    elementwise: a (2,) @ (2, n) product goes to BLAS, which splits it
    across threads for no gain.  A zero combined gain raises SingularMatrix.
    """
    y = np.asarray(y, dtype=np.complex128)
    if y.ndim != 2 or y.shape[0] != 2:
        raise ParameterError("y must have shape (2, n)")
    g = est.h_hat @ np.ones(2, dtype=np.complex128)
    norm2 = float(np.sum(np.abs(g) ** 2))
    if norm2 < 1e-24:
        raise SingularMatrix("both combined branch gains are zero")
    w = np.conj(g) / norm2
    out = w[0] * y[0]
    out += w[1] * y[1]
    return out
