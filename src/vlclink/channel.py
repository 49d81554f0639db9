"""Geometric 2x2 optical channel: Lambertian LOS gains, obstacle shadowing, AWGN.

Geometry lives in the (x, z) plane, units of cm.  LEDs sit in the z=0 plane,
photodiodes in the z=link_len plane, and a cylindrical obstacle of the given
diameter stands at one z plane in between and is swept along x.  Boresights
point along +z for the LEDs and -z for the PDs, so the emission angle and the
incidence angle of a link coincide.

Shadowing is a ray model by default: a link is fully blocked when its ray
crosses the obstacle plane within the obstacle radius, otherwise untouched.
Setting `beam_radius_cm` > 0 switches to a knife-edge penumbra: the beam is a
uniform spot of that radius around the ray, and the occlusion factor ramps
linearly from 0 to 1 as the ray-to-axis distance goes from radius-beam to
radius+beam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError

__all__ = [
    "Obstacle",
    "Geometry",
    "ChannelState",
    "los_gain",
    "occlusion",
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
            raise ParameterError("obstacle diameter must be positive")


@dataclass(frozen=True)
class Geometry:
    """Positions and optics of the 2x2 link.  Distances in cm, areas in cm^2."""

    tx_pos: tuple[Point, Point] = ((-2.5, 0.0), (2.5, 0.0))
    rx_pos: tuple[Point, Point] = ((-2.5, 218.0), (2.5, 218.0))
    obstacle: Obstacle | None = Obstacle()
    lambert_m: float = 1.0
    rx_area_cm2: float = 1.0
    fov_deg: float = 60.0
    beam_radius_cm: float = 0.0

    def __post_init__(self):
        if self.lambert_m <= 0:
            raise ParameterError("lambert_m must be positive")
        if self.rx_area_cm2 <= 0:
            raise ParameterError("rx_area_cm2 must be positive")
        if not 0.0 < self.fov_deg <= 90.0:
            raise ParameterError("fov_deg must be in (0, 90]")
        if self.beam_radius_cm < 0:
            raise ParameterError("beam_radius_cm must be >= 0")
        if self.obstacle is not None:
            lo = min(self.tx_pos[0][1], self.rx_pos[0][1])
            hi = max(self.tx_pos[0][1], self.rx_pos[0][1])
            if not lo < self.obstacle.z_cm < hi:
                raise ParameterError("obstacle must sit strictly between the TX and RX planes")

    @staticmethod
    def from_separations(
        led_sep: float = 5.0,
        pd_sep: float = 5.0,
        link_len: float = 218.0,
        obstacle: Obstacle | None = Obstacle(),
        lambert_m: float = 1.0,
        rx_area_cm2: float = 1.0,
        fov_deg: float = 60.0,
        beam_radius_cm: float = 0.0,
    ) -> "Geometry":
        return Geometry(
            tx_pos=((-led_sep / 2.0, 0.0), (led_sep / 2.0, 0.0)),
            rx_pos=((-pd_sep / 2.0, link_len), (pd_sep / 2.0, link_len)),
            obstacle=obstacle,
            lambert_m=lambert_m,
            rx_area_cm2=rx_area_cm2,
            fov_deg=fov_deg,
            beam_radius_cm=beam_radius_cm,
        )

    def without_obstacle(self) -> "Geometry":
        return replace(self, obstacle=None)


@dataclass(frozen=True)
class ChannelState:
    """Effective symbol-level channel: gain matrix plus noise density.

    `h` multiplies the two unit-reference branch streams; `n0` is the noise
    variance per complex sample.  The channel is memoryless, so it acts the
    same on a sample-rate stream and on matched-filter outputs.
    """

    h: np.ndarray
    n0: float

    def __post_init__(self):
        ha = np.asarray(self.h, dtype=np.complex128)
        if ha.shape != (2, 2):
            raise ParameterError("channel matrix must be 2x2")
        object.__setattr__(self, "h", ha)
        if not self.n0 > 0:
            raise ParameterError("n0 must be positive")


def los_gain(tx: Point, rx: Point, lambert_m: float, rx_area_cm2: float, fov_deg: float) -> float:
    """Lambertian line-of-sight gain between one LED and one PD.

    gain = (m+1) A / (2 pi d^2) * cos(phi)^m * cos(psi), zero outside the
    receiver field of view.  With boresights along the z axis, phi = psi.
    """
    dx = rx[0] - tx[0]
    dz = rx[1] - tx[1]
    if dz == 0:
        raise ParameterError("tx and rx must lie in different z planes")
    d2 = dx * dx + dz * dz
    cos_ang = abs(dz) / math.sqrt(d2)
    if cos_ang < math.cos(math.radians(fov_deg)):
        return 0.0
    return (lambert_m + 1.0) * rx_area_cm2 / (2.0 * math.pi * d2) * cos_ang**lambert_m * cos_ang


def _crossing_distance(tx: Point, rx: Point, obstacle: Obstacle) -> float:
    if not min(tx[1], rx[1]) < obstacle.z_cm < max(tx[1], rx[1]):
        raise ParameterError("obstacle plane must lie between the endpoints")
    frac = (obstacle.z_cm - tx[1]) / (rx[1] - tx[1])
    crossing_x = tx[0] + (rx[0] - tx[0]) * frac
    return abs(crossing_x - obstacle.x_cm)


def occlusion(tx: Point, rx: Point, obstacle: Obstacle) -> int:
    """Hard ray shadowing: 0 when the ray hits the obstacle, else 1."""
    return 0 if _crossing_distance(tx, rx, obstacle) < obstacle.diameter_cm / 2.0 else 1


def occlusion_factor(tx: Point, rx: Point, obstacle: Obstacle | None, beam_radius_cm: float = 0.0) -> float:
    """Shadowing factor in [0, 1]; binary ray model when beam_radius_cm is 0."""
    if obstacle is None:
        return 1.0
    if beam_radius_cm <= 0.0:
        return float(occlusion(tx, rx, obstacle))
    d = _crossing_distance(tx, rx, obstacle)
    radius = obstacle.diameter_cm / 2.0
    return float(np.clip((d - radius + beam_radius_cm) / (2.0 * beam_radius_cm), 0.0, 1.0))


def channel_matrix(geometry: Geometry) -> tuple[np.ndarray, float]:
    """Normalised gain matrix and the normalisation constant.

    h[j][i] couples LED i into PD j.  Gains are divided by the unobstructed
    LED1-to-PD1 gain so the clear direct path has unit gain; the divisor is
    returned so absolute optical gains can be recovered.
    """
    norm = los_gain(
        geometry.tx_pos[0], geometry.rx_pos[0], geometry.lambert_m,
        geometry.rx_area_cm2, geometry.fov_deg,
    )
    if norm <= 0.0:
        raise ParameterError("direct path has zero gain; geometry is outside the field of view")
    h = np.zeros((2, 2), dtype=np.complex128)
    for j in range(2):
        for i in range(2):
            gain = los_gain(
                geometry.tx_pos[i], geometry.rx_pos[j], geometry.lambert_m,
                geometry.rx_area_cm2, geometry.fov_deg,
            )
            factor = occlusion_factor(
                geometry.tx_pos[i], geometry.rx_pos[j], geometry.obstacle,
                geometry.beam_radius_cm,
            )
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


def apply_channel(streams: np.ndarray, state: ChannelState, noise: np.ndarray) -> np.ndarray:
    """Mix two branch streams through the channel and add AWGN.

    y_j[n] = sum_i h[j][i] x_i[n] + w_j[n], with w zero-mean complex Gaussian
    of variance n0 per sample: `noise`, as `awgn` draws it for the streams'
    shape (read, not modified, so runs that share one realisation draw it
    once).
    """
    x = np.asarray(streams, dtype=np.complex128)
    if x.ndim != 2 or x.shape[0] != 2 or x.shape[1] < 1:
        raise ParameterError("streams must have shape (2, n)")
    if noise.shape != (2,) + x.shape:
        raise ParameterError(f"noise has shape {noise.shape}, streams {x.shape}")
    y = state.h @ x
    y.real += noise[0]
    y.imag += noise[1]
    return y
