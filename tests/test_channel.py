"""Channel tests: Lambertian gains, occlusion geometry, mixing and noise."""

import math

import numpy as np
import pytest

from vlclink import (
    ChannelState,
    Geometry,
    Obstacle,
    ParameterError,
    apply_channel,
    channel_matrix,
    los_gain,
    make_rng,
    occlusion,
    occlusion_factor,
    svd2,
)
from vlclink.channel import awgn

DEFAULT_OBS = Obstacle(diameter_cm=4.5, z_cm=109.0, x_cm=0.0)


class TestLosGain:
    def test_on_axis_reference_value(self):
        # (m+1) A / (2 pi d^2) with m=1, A=1, d=218
        got = los_gain((0.0, 0.0), (0.0, 218.0), 1.0, 1.0, 60.0)
        assert got == pytest.approx(2.0 / (2.0 * math.pi * 218.0**2), rel=1e-12)
        assert got == pytest.approx(6.70e-6, rel=1e-3)

    def test_outside_fov_is_zero(self):
        # 45 degrees off axis with a 30 degree field of view
        assert los_gain((0.0, 0.0), (218.0, 218.0), 1.0, 1.0, 30.0) == 0.0

    def test_inverse_square(self):
        near = los_gain((0.0, 0.0), (0.0, 100.0), 1.0, 1.0, 60.0)
        far = los_gain((0.0, 0.0), (0.0, 200.0), 1.0, 1.0, 60.0)
        assert near == pytest.approx(4.0 * far, rel=1e-12)

    def test_same_plane_rejected(self):
        with pytest.raises(ParameterError):
            los_gain((0.0, 0.0), (1.0, 0.0), 1.0, 1.0, 60.0)


class TestOcclusion:
    def test_cross_link_blocked_at_center(self):
        assert occlusion((-2.5, 0.0), (2.5, 218.0), DEFAULT_OBS) == 0

    def test_direct_link_clear_at_center(self):
        assert occlusion((-2.5, 0.0), (-2.5, 218.0), DEFAULT_OBS) == 1

    def test_all_links_clear_far_away(self):
        obs = Obstacle(diameter_cm=4.5, z_cm=109.0, x_cm=65.0)
        for tx in ((-2.5, 0.0), (2.5, 0.0)):
            for rx in ((-2.5, 218.0), (2.5, 218.0)):
                assert occlusion(tx, rx, obs) == 1

    def test_mirror_symmetry(self):
        # x -> -x with swapped LED/PD indices leaves the pattern unchanged
        txs = ((-2.5, 0.0), (2.5, 0.0))
        rxs = ((-2.5, 218.0), (2.5, 218.0))
        for x in np.linspace(-10, 10, 81):
            a = Obstacle(4.5, 109.0, float(x))
            b = Obstacle(4.5, 109.0, float(-x))
            for i in range(2):
                for j in range(2):
                    assert occlusion(txs[i], rxs[j], a) == occlusion(txs[1 - i], rxs[1 - j], b)

    def test_soft_edge_ramp(self):
        obs = Obstacle(diameter_cm=4.5, z_cm=109.0, x_cm=0.0)
        tx, rx = (-2.5, 0.0), (-2.5, 218.0)  # ray at distance 2.5 from axis
        hard = occlusion_factor(tx, rx, obs, 0.0)
        assert hard == 1.0
        soft = occlusion_factor(tx, rx, obs, 5.0)
        # (2.5 - 2.25 + 5) / 10
        assert soft == pytest.approx(0.525, rel=1e-12)
        assert occlusion_factor(tx, rx, None, 5.0) == 1.0

    def test_obstacle_outside_planes_rejected(self):
        with pytest.raises(ParameterError):
            occlusion((-2.5, 0.0), (-2.5, 218.0), Obstacle(4.5, 300.0, 0.0))


class TestChannelMatrix:
    def test_center_obstacle_kills_cross_paths_only(self):
        geom = Geometry()  # hard shadow, obstacle at x=0
        h, norm = channel_matrix(geom)
        assert norm > 0
        assert h[0, 1] == 0 and h[1, 0] == 0
        assert h[0, 0].real > 0 and h[1, 1].real > 0

    def test_far_obstacle_near_diagonal_dominant(self):
        geom = Geometry.from_separations(lambert_m=20000.0, obstacle=Obstacle(x_cm=65.0))
        h, _ = channel_matrix(geom)
        assert np.all(h.real > 0)
        assert h[0, 0].real > h[0, 1].real
        assert h[1, 1].real > h[1, 0].real

    def test_unobstructed_mirror_symmetry(self):
        h, _ = channel_matrix(Geometry().without_obstacle())
        assert h[0, 0] == h[1, 1]
        assert h[0, 1] == h[1, 0]
        assert h[0, 0].real == pytest.approx(1.0, rel=1e-12)  # normalised direct path

    def test_gain_scaling_scales_singular_values(self):
        h, _ = channel_matrix(Geometry.from_separations(lambert_m=20000.0).without_obstacle())
        s = svd2(h)
        for alpha in (0.25, 3.0, 117.0):
            sa = svd2(alpha * h)
            assert sa.sigma1 == pytest.approx(alpha * s.sigma1, rel=1e-12)
            assert sa.sigma2 == pytest.approx(alpha * s.sigma2, rel=1e-12)


class TestApplyChannel:
    def test_identity_passthrough(self):
        rng = make_rng(0)
        x = rng.standard_normal((2, 512)) + 1j * rng.standard_normal((2, 512))
        y = apply_channel(x, ChannelState(h=np.eye(2, dtype=complex), n0=1e-30), awgn(x.shape, 1e-30, make_rng(1)))
        assert np.allclose(y, x, atol=1e-12)

    def test_zero_channel_pure_noise_variance(self):
        x = np.zeros((2, 1_000_000), complex)
        y = apply_channel(x, ChannelState(h=np.zeros((2, 2), complex), n0=1.0), awgn(x.shape, 1.0, make_rng(2)))
        var = float(np.mean(np.abs(y) ** 2))
        assert var == pytest.approx(1.0, rel=0.01)

    def test_seed_determinism(self):
        rng = make_rng(5)
        x = rng.standard_normal((2, 256)) + 1j * rng.standard_normal((2, 256))
        state = ChannelState(h=np.eye(2, dtype=complex), n0=0.5)
        y1 = apply_channel(x, state, awgn(x.shape, 0.5, make_rng(99)))
        y2 = apply_channel(x, state, awgn(x.shape, 0.5, make_rng(99)))
        assert np.array_equal(y1, y2)
        y3 = apply_channel(x, state, awgn(x.shape, 0.5, make_rng(100)))
        assert not np.array_equal(y1, y3)

    def test_mixing_matrix_applied(self):
        h = np.array([[0.5, 0.1], [0.2, 0.8]], dtype=complex)
        x = make_rng(6).standard_normal((2, 64)) + 0j
        y = apply_channel(x, ChannelState(h=h, n0=1e-30), awgn(x.shape, 1e-30, make_rng(3)))
        assert np.allclose(y, h @ x, atol=1e-12)


class TestNoisePath:
    H = np.array([[0.9, 0.05j], [0.1, 1.1 - 0.2j]], dtype=complex)

    def streams(self):
        rng = make_rng(21)
        return rng.standard_normal((2, 300)) + 1j * rng.standard_normal((2, 300))

    def test_seeded_draw_matches_in_place_formula(self):
        # real parts (2, n) first, then imaginary parts, each scaled by sigma
        x = self.streams()
        state = ChannelState(h=self.H, n0=0.7)
        want = self.H @ x
        rng = make_rng(31)
        sigma = math.sqrt(0.7 / 2.0)
        want.real += sigma * rng.standard_normal(x.shape)
        want.imag += sigma * rng.standard_normal(x.shape)
        assert np.array_equal(apply_channel(x, state, awgn(x.shape, 0.7, make_rng(31))), want)

    def test_awgn_returns_real_then_imaginary_parts_as_drawn(self):
        # the former complex draw, bit for bit, kept as real parts then imaginary parts
        rng = make_rng(31)
        sigma = math.sqrt(0.7 / 2.0)
        want = np.empty((2, 300), dtype=np.complex128)
        want.real = sigma * rng.standard_normal((2, 300))
        want.imag = sigma * rng.standard_normal((2, 300))
        got = awgn((2, 300), 0.7, make_rng(31))
        assert got.shape == (2, 2, 300)
        assert np.array_equal(got[0], want.real)
        assert np.array_equal(got[1], want.imag)

    def test_awgn_draws_into_out(self):
        buf = np.full((2, 2, 300), np.nan)
        assert awgn((2, 300), 0.7, make_rng(31), out=buf) is buf
        assert np.array_equal(buf, awgn((2, 300), 0.7, make_rng(31)))
        with pytest.raises(ParameterError):
            awgn((2, 299), 0.7, make_rng(31), out=buf)

    def test_predrawn_noise_matches_seeded_draw(self):
        x = self.streams()
        state = ChannelState(h=self.H, n0=0.7)
        noise = awgn(x.shape, 0.7, make_rng(31))
        kept = noise.copy()
        first = apply_channel(x, state, noise=noise)
        assert np.array_equal(noise, kept)   # shared draws are read, not modified
        assert np.array_equal(apply_channel(x, state, noise=noise), first)
        assert np.array_equal(first, apply_channel(x, state, awgn(x.shape, 0.7, make_rng(31))))

    def test_noise_shape_must_match(self):
        x = self.streams()
        with pytest.raises(ParameterError):
            apply_channel(x, ChannelState(h=self.H, n0=0.7), noise=awgn((2, 299), 0.7, make_rng(3)))
        complex_noise = np.zeros(x.shape, dtype=np.complex128)
        with pytest.raises(ParameterError):
            apply_channel(x, ChannelState(h=self.H, n0=0.7), noise=complex_noise)
