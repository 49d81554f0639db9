"""Geometric 2x2 optical channel: Lambertian LOS gains, obstacle shadowing, AWGN.

Geometry lives in the (x, z) plane, units of cm.  LEDs sit in the z=0 plane,
photodiodes in the z=link_len plane, and a cylindrical obstacle of the given
diameter stands at one z plane in between and is swept along x.  Boresights
point along +z for the LEDs and -z for the PDs, so the emission angle and the
incidence angle of a link coincide.

Shadowing is a knife-edge penumbra by default: the beam is a uniform spot of
radius `beam_radius_cm` around the ray, and the occlusion factor ramps
linearly from 0 to 1 as the ray-to-axis distance goes from radius-beam to
radius+beam.  At `beam_radius_cm` = 0 it is a ray model: a link is fully
blocked when its ray crosses the obstacle plane within the obstacle radius,
otherwise untouched.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "Obstacle",
    "Geometry",
    "los_gain",
    "occlusion_factor",
    "channel_matrix",
    "apply_channel",
    "awgn",
]

Point = tuple[float, float]


@dataclass(frozen=True)
class Obstacle:
    diameter_cm: float = 4.5
    z_cm: float = 109.0
    x_cm: float = 0.0

    def __post_init__(self):
        if self.diameter_cm <= 0:
            raise ParameterError(f"obstacle diameter must be positive, got {self.diameter_cm}", "diameter_cm")


@dataclass(frozen=True)
class Geometry:
    """The symmetric 2x2 link, defaulting to the paper's scenario.  Lengths in cm.

    The LEDs sit `led_sep` apart in the z=0 plane and the PDs `pd_sep` apart in
    the z=link_len plane, each pair centred on x=0.
    """

    led_sep: float = 5.0
    pd_sep: float = 5.0
    link_len: float = 218.0
    obstacle: Obstacle | None = Obstacle()
    lambert_m: float = 20000.0
    fov_deg: float = 60.0
    beam_radius_cm: float = 5.0

    def __post_init__(self):
        for name in ("led_sep", "pd_sep", "link_len", "lambert_m"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive, got {getattr(self, name)}", name)
        if not 0.0 < self.fov_deg <= 90.0:
            raise ParameterError(f"fov_deg must be in (0, 90], got {self.fov_deg}", "fov_deg")
        if self.beam_radius_cm < 0:
            raise ParameterError(f"beam_radius_cm must be >= 0, got {self.beam_radius_cm}", "beam_radius_cm")
        if self.obstacle is not None and not 0.0 < self.obstacle.z_cm < self.link_len:
            raise ParameterError("obstacle must sit strictly between the TX and RX planes", "z_cm")
        gain = los_gain(self.tx_pos[0], self.rx_pos[0], self.lambert_m, self.fov_deg)
        if gain == 0.0:
            raise ParameterError(f"direct path gain is {gain}: the link is outside the field of view or too short")

    @property
    def tx_pos(self) -> tuple[Point, Point]:
        return ((-self.led_sep / 2.0, 0.0), (self.led_sep / 2.0, 0.0))

    @property
    def rx_pos(self) -> tuple[Point, Point]:
        return ((-self.pd_sep / 2.0, self.link_len), (self.pd_sep / 2.0, self.link_len))


def los_gain(tx: Point, rx: Point, lambert_m: float, fov_deg: float) -> float:
    """Lambertian line-of-sight gain between one LED and one PD, per cm^2 of detector.

    gain = (m+1) / (2 pi d^2) * cos(phi)^m * cos(psi), zero outside the
    receiver field of view.  With boresights along the z axis, phi = psi.  The
    detector area would scale all four links alike, so `channel_matrix`'s
    normalisation cancels it and it is left out.  A squared distance that
    underflows to a subnormal or zero, or a gain that is not finite, raises
    ParameterError.
    """
    dx = rx[0] - tx[0]
    dz = rx[1] - tx[1]
    if dz == 0:
        raise ParameterError("tx and rx must lie in different z planes")
    d2 = dx * dx + dz * dz
    if d2 < sys.float_info.min:
        raise ParameterError(f"squared tx-rx distance {d2} underflows")
    cos_ang = abs(dz) / math.sqrt(d2)
    if cos_ang < math.cos(math.radians(fov_deg)):
        return 0.0
    gain = (lambert_m + 1.0) / (2.0 * math.pi * d2) * cos_ang**lambert_m * cos_ang
    if not math.isfinite(gain):
        raise ParameterError(f"gain {gain} over a tx-rx distance of {math.sqrt(d2)} is not finite")
    return gain


def _crossing_distance(tx: Point, rx: Point, obstacle: Obstacle) -> float:
    if not min(tx[1], rx[1]) < obstacle.z_cm < max(tx[1], rx[1]):
        raise ParameterError("obstacle plane must lie between the endpoints")
    frac = (obstacle.z_cm - tx[1]) / (rx[1] - tx[1])
    crossing_x = tx[0] + (rx[0] - tx[0]) * frac
    return abs(crossing_x - obstacle.x_cm)


def occlusion_factor(tx: Point, rx: Point, obstacle: Obstacle | None, beam_radius_cm: float = 0.0) -> float:
    """Shadowing factor in [0, 1]; binary ray model when beam_radius_cm is 0."""
    if obstacle is None:
        return 1.0
    d = _crossing_distance(tx, rx, obstacle)
    radius = obstacle.diameter_cm / 2.0
    if beam_radius_cm <= 0.0:
        return 0.0 if d < radius else 1.0
    return float(np.clip((d - radius + beam_radius_cm) / (2.0 * beam_radius_cm), 0.0, 1.0))


def channel_matrix(geometry: Geometry) -> tuple[np.ndarray, float]:
    """Normalised gain matrix and the normalisation constant.

    h[j][i] couples LED i into PD j.  Gains are divided by the unobstructed
    LED1-to-PD1 gain, which `Geometry` checks is positive, so the clear
    direct path has unit gain; the divisor is returned so optical gains per
    cm^2 of detector can be recovered.
    """
    tx, rx = geometry.tx_pos, geometry.rx_pos
    norm = los_gain(tx[0], rx[0], geometry.lambert_m, geometry.fov_deg)
    h = np.zeros((2, 2), dtype=np.complex128)
    for j in range(2):
        for i in range(2):
            gain = los_gain(tx[i], rx[j], geometry.lambert_m, geometry.fov_deg)
            factor = occlusion_factor(tx[i], rx[j], geometry.obstacle, geometry.beam_radius_cm)
            h[j, i] = gain * factor / norm
    return h, norm


def awgn(shape: tuple[int, ...], n0: float, rng: np.random.Generator, out=None) -> np.ndarray:
    """Zero-mean complex Gaussian noise of variance n0 per sample, as drawn.

    A real (2, *shape) array: every real part, then every imaginary part, each
    scaled by sqrt(n0/2); drawn into `out`, a float64 buffer of that shape,
    when given.  It is what `apply_channel` takes as `noise`, so callers that
    share one noise realisation draw it once.
    """
    shape = (2,) + tuple(shape)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise ParameterError(f"out has shape {out.shape}, noise {shape}")
    rng.standard_normal(out=out)
    out *= math.sqrt(n0 / 2.0)
    return out


def apply_channel(streams: np.ndarray, h: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Mix two branch streams through the channel and add AWGN.

    y_j[n] = sum_i h[j][i] x_i[n] + w_j[n], with `h` the 2x2 gain matrix and
    w zero-mean complex Gaussian noise: `noise`, as `awgn` draws it for the
    streams' shape (read, not modified, so runs that share one realisation
    draw it once).  Being memoryless, this one law serves both rates of the
    chain: the sample-rate sync head and the symbol-rate matched-filter outputs.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.shape != (2, 2):
        raise ParameterError("channel matrix must be 2x2")
    x = np.asarray(streams, dtype=np.complex128)
    if x.ndim != 2 or x.shape[0] != 2 or x.shape[1] < 1:
        raise ParameterError("streams must have shape (2, n)")
    if noise.shape != (2,) + x.shape:
        raise ParameterError(f"noise has shape {noise.shape}, streams {x.shape}")
    y = h @ x
    y.real += noise[0]
    y.imag += noise[1]
    return y
