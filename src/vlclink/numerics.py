"""Small complex 2x2 numeric kernel.

Closed-form singular values and inversion for 2x2 complex matrices, the
Gaussian tail function, and a seedable Gaussian random source.  Everything
here is exact at this matrix size; no general linear-algebra routines are
used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SingularMatrix

__all__ = ["Svd2", "qfunc", "svd2", "inv2", "make_rng"]


def make_rng(seed) -> np.random.Generator:
    """Return a PCG64 generator whose stream is fully determined by `seed`.

    `seed` may be an int or a numpy SeedSequence.  PCG64 is used explicitly
    so results are bit-reproducible across platforms and numpy versions that
    share the generator.
    """
    return np.random.Generator(np.random.PCG64(seed))


def qfunc(x: float) -> float:
    """Upper tail of the standard normal, P(N(0,1) > x) = erfc(x / sqrt 2) / 2.

    `math.erfc` keeps relative accuracy near machine precision in the tail,
    well inside the 1e-7 target needed for BER prediction down to 1e-7, and
    saturates to 0.0 once the tail underflows (x above roughly 38).
    """
    x = float(x)
    if math.isnan(x):
        raise ParameterError("qfunc: x must not be NaN")
    return 0.5 * math.erfc(x / math.sqrt(2.0))


@dataclass(frozen=True)
class Svd2:
    """Singular values of a 2x2 complex matrix, sigma1 >= sigma2 >= 0."""

    sigma1: float
    sigma2: float


def svd2(a: np.ndarray) -> Svd2:
    """Closed-form singular values via the eigenvalues of the Hermitian a^H a.

    The characteristic polynomial of a 2x2 Hermitian matrix is quadratic, so
    both eigenvalues are exact; the discriminant is formed as
    (b11 - b22)^2 + 4|b12|^2 to avoid cancellation, and the small eigenvalue
    is recovered from det(b)/lambda1 for accuracy near rank deficiency.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.shape != (2, 2):
        raise ParameterError("svd2 expects a 2x2 matrix")
    b = a.conj().T @ a
    b11 = b[0, 0].real
    b22 = b[1, 1].real
    b12 = b[0, 1]
    trace = b11 + b22
    disc = math.sqrt((b11 - b22) ** 2 + 4.0 * abs(b12) ** 2)
    lam1 = 0.5 * (trace + disc)
    det_b = max(b11 * b22 - abs(b12) ** 2, 0.0)
    lam2 = det_b / lam1 if lam1 > 0.0 else 0.0
    return Svd2(sigma1=math.sqrt(max(lam1, 0.0)), sigma2=math.sqrt(max(lam2, 0.0)))


def inv2(a: np.ndarray) -> np.ndarray:
    """Invert a 2x2 complex matrix by the adjugate formula.

    Raises SingularMatrix when |det| <= 1e-12 times the squared Frobenius
    norm, which in this simulator signals a fully blocked or rank-deficient
    channel.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.shape != (2, 2):
        raise ParameterError("inv2 expects a 2x2 matrix")
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    scale = float(np.sum(np.abs(a) ** 2))
    if abs(det) <= 1e-12 * scale or scale == 0.0:
        raise SingularMatrix(f"|det|={abs(det):.3e} below threshold for norm^2={scale:.3e}")
    return np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / det
