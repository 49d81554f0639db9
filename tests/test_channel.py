"""Channel tests: Lambertian gains, occlusion geometry, mixing and noise."""

import math
from dataclasses import replace

import numpy as np
import pytest

from vlclink import channel_matrix, make_rng, svd2
from vlclink.channel import Geometry, Obstacle, apply_channel, awgn, los_gain, occlusion_factor
from vlclink.errors import ParameterError

DEFAULT_OBS = Obstacle(diameter_cm=4.5, z_cm=109.0, x_cm=0.0)


class TestLosGain:
    def test_on_axis_reference_value(self):
        # (m+1) / (2 pi d^2) with m=1, d=218, per cm^2 of detector
        got = los_gain((0.0, 0.0), (0.0, 218.0), 1.0, 60.0)
        assert got == pytest.approx(2.0 / (2.0 * math.pi * 218.0**2), rel=1e-12)
        assert got == pytest.approx(6.70e-6, rel=1e-3)

    def test_outside_fov_is_zero(self):
        # 45 degrees off axis with a 30 degree field of view
        assert los_gain((0.0, 0.0), (218.0, 218.0), 1.0, 30.0) == 0.0

    def test_inverse_square(self):
        near = los_gain((0.0, 0.0), (0.0, 100.0), 1.0, 60.0)
        far = los_gain((0.0, 0.0), (0.0, 200.0), 1.0, 60.0)
        assert near == pytest.approx(4.0 * far, rel=1e-12)

    def test_same_plane_rejected(self):
        with pytest.raises(ParameterError):
            los_gain((0.0, 0.0), (1.0, 0.0), 1.0, 60.0)

    @pytest.mark.parametrize("dz", [1e-200, 1e-160])   # the squared distance is 0, or subnormal
    def test_underflowing_squared_distance_rejected(self, dz):
        with pytest.raises(ParameterError, match="underflows"):
            los_gain((0.0, 0.0), (0.0, dz), 1.0, 60.0)

    def test_overflowing_gain_rejected(self):
        # a normal squared distance of 1e-200 with m = 1e300 overflows (m+1) / (2 pi d^2)
        with pytest.raises(ParameterError, match="not finite"):
            los_gain((0.0, 0.0), (0.0, 1e-100), 1e300, 60.0)


class TestOcclusion:
    """The ray model (beam radius 0): a link is 0 when its ray hits the obstacle, else 1."""

    def test_cross_link_blocked_at_center(self):
        assert occlusion_factor((-2.5, 0.0), (2.5, 218.0), DEFAULT_OBS) == 0

    def test_direct_link_clear_at_center(self):
        assert occlusion_factor((-2.5, 0.0), (-2.5, 218.0), DEFAULT_OBS) == 1

    def test_all_links_clear_far_away(self):
        obs = Obstacle(diameter_cm=4.5, z_cm=109.0, x_cm=65.0)
        for tx in ((-2.5, 0.0), (2.5, 0.0)):
            for rx in ((-2.5, 218.0), (2.5, 218.0)):
                assert occlusion_factor(tx, rx, obs) == 1

    def test_mirror_symmetry(self):
        # x -> -x with swapped LED/PD indices leaves the pattern unchanged
        txs = ((-2.5, 0.0), (2.5, 0.0))
        rxs = ((-2.5, 218.0), (2.5, 218.0))
        for x in np.linspace(-10, 10, 81):
            a = Obstacle(4.5, 109.0, float(x))
            b = Obstacle(4.5, 109.0, float(-x))
            for i in range(2):
                for j in range(2):
                    assert occlusion_factor(txs[i], rxs[j], a) == occlusion_factor(txs[1 - i], rxs[1 - j], b)

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
            occlusion_factor((-2.5, 0.0), (-2.5, 218.0), Obstacle(4.5, 300.0, 0.0))


class TestChannelMatrix:
    def test_positions_derive_from_the_separations(self):
        geom = Geometry(led_sep=4.0, pd_sep=6.0, link_len=100.0, obstacle=None)
        assert geom.tx_pos == ((-2.0, 0.0), (2.0, 0.0))
        assert geom.rx_pos == ((-3.0, 100.0), (3.0, 100.0))

    def test_center_obstacle_kills_cross_paths_only(self):
        geom = Geometry(beam_radius_cm=0.0)  # hard shadow, obstacle at x=0
        h, norm = channel_matrix(geom)
        assert norm > 0
        assert h[0, 1] == 0 and h[1, 0] == 0
        assert h[0, 0].real > 0 and h[1, 1].real > 0

    def test_far_obstacle_near_diagonal_dominant(self):
        geom = Geometry(obstacle=Obstacle(x_cm=65.0))
        h, _ = channel_matrix(geom)
        assert np.all(h.real > 0)
        assert h[0, 0].real > h[0, 1].real
        assert h[1, 1].real > h[1, 0].real

    def test_unobstructed_mirror_symmetry(self):
        h, _ = channel_matrix(Geometry(lambert_m=1.0, obstacle=None))
        assert h[0, 0] == h[1, 1]
        assert h[0, 1] == h[1, 0]
        assert h[0, 0].real == pytest.approx(1.0, rel=1e-12)  # normalised direct path

    def test_gain_scaling_scales_singular_values(self):
        h, _ = channel_matrix(Geometry(obstacle=None))
        s = svd2(h)
        for alpha in (0.25, 3.0, 117.0):
            sa = svd2(alpha * h)
            assert sa.sigma1 == pytest.approx(alpha * s.sigma1, rel=1e-12)
            assert sa.sigma2 == pytest.approx(alpha * s.sigma2, rel=1e-12)


class TestGeometryChecks:
    @pytest.mark.parametrize(
        "kwargs, attr",
        [
            ({"led_sep": 0.0}, "led_sep"),
            ({"pd_sep": -1.0}, "pd_sep"),
            ({"link_len": -5.0, "obstacle": None}, "link_len"),
            ({"lambert_m": 0.0}, "lambert_m"),
            ({"fov_deg": 90.5}, "fov_deg"),
            ({"beam_radius_cm": -1.0}, "beam_radius_cm"),
            ({"obstacle": Obstacle(z_cm=218.0)}, "z_cm"),   # the obstacle plane must lie inside the link
        ],
    )
    def test_error_names_the_attribute(self, kwargs, attr):
        with pytest.raises(ParameterError) as err:
            Geometry(**kwargs)
        assert err.value.field == attr

    def test_zero_direct_path_gain_rejected(self):
        # 24 degrees off axis is inside the field of view, but cos(24 deg)^20000 underflows to 0
        assert los_gain((-2.5, 0.0), (-100.0, 218.0), 20000.0, 60.0) == 0.0
        with pytest.raises(ParameterError, match="gain is 0.0") as err:
            Geometry(pd_sep=200.0)
        assert err.value.field is None
        assert channel_matrix(Geometry(pd_sep=200.0, lambert_m=1.0))[1] > 0.0

    @pytest.mark.parametrize("link_len", [1e-160, 1e-200])   # the squared length is subnormal, or 0
    def test_underflowing_link_length_rejected(self, link_len):
        with pytest.raises(ParameterError, match="underflows"):
            Geometry(link_len=link_len, obstacle=None)


# Metamorphic relations of the default soft-shadow link, over obstacle positions
# x = k * 0.37 cm on +-65 cm (the sweep's span, off its 5 cm grid).
GRID = [k * 0.37 for k in range(-175, 176)]


def at(geom, x):
    return replace(geom, obstacle=replace(geom.obstacle, x_cm=x))


class TestChannelMetamorphic:
    def test_mirror_swaps_both_ends_exactly(self):
        # the link is symmetric about x = 0: moving the obstacle to -x swaps LED 1 with
        # LED 2 and PD 1 with PD 2
        p = np.array([[0, 1], [1, 0]])
        for x in GRID:
            h, _ = channel_matrix(at(Geometry(), x))
            mirrored, _ = channel_matrix(at(Geometry(), -x))
            assert np.array_equal(h, p @ mirrored @ p), x

    @pytest.mark.parametrize("k", [0.5, 3.0, 7.0])
    def test_scaling_every_length_keeps_the_normalised_matrix(self, k):
        # angles and the ratios of distances do not change, so neither does h
        g = Geometry()
        scaled = replace(
            g,
            led_sep=k * g.led_sep,
            pd_sep=k * g.pd_sep,
            link_len=k * g.link_len,
            beam_radius_cm=k * g.beam_radius_cm,
            obstacle=Obstacle(k * g.obstacle.diameter_cm, k * g.obstacle.z_cm),
        )
        for x in GRID:
            h, _ = channel_matrix(at(g, x))
            h_scaled, _ = channel_matrix(at(scaled, k * x))
            np.testing.assert_allclose(h_scaled, h, rtol=0.0, atol=2e-14)


class TestApplyChannel:
    def test_identity_passthrough(self):
        rng = make_rng(0)
        x = rng.standard_normal((2, 512)) + 1j * rng.standard_normal((2, 512))
        y = apply_channel(x, np.eye(2, dtype=complex), awgn(x.shape, 1e-30, make_rng(1)))
        assert np.allclose(y, x, atol=1e-12)

    def test_zero_channel_pure_noise_variance(self):
        x = np.zeros((2, 1_000_000), complex)
        y = apply_channel(x, np.zeros((2, 2), complex), awgn(x.shape, 1.0, make_rng(2)))
        var = float(np.mean(np.abs(y) ** 2))
        assert var == pytest.approx(1.0, rel=0.01)

    def test_seed_determinism(self):
        rng = make_rng(5)
        x = rng.standard_normal((2, 256)) + 1j * rng.standard_normal((2, 256))
        h = np.eye(2, dtype=complex)
        y1 = apply_channel(x, h, awgn(x.shape, 0.5, make_rng(99)))
        y2 = apply_channel(x, h, awgn(x.shape, 0.5, make_rng(99)))
        assert np.array_equal(y1, y2)
        y3 = apply_channel(x, h, awgn(x.shape, 0.5, make_rng(100)))
        assert not np.array_equal(y1, y3)

    def test_mixing_matrix_applied(self):
        h = np.array([[0.5, 0.1], [0.2, 0.8]], dtype=complex)
        x = make_rng(6).standard_normal((2, 64)) + 0j
        y = apply_channel(x, h, awgn(x.shape, 1e-30, make_rng(3)))
        assert np.allclose(y, h @ x, atol=1e-12)


class TestNoisePath:
    H = np.array([[0.9, 0.05j], [0.1, 1.1 - 0.2j]], dtype=complex)

    def streams(self):
        rng = make_rng(21)
        return rng.standard_normal((2, 300)) + 1j * rng.standard_normal((2, 300))

    def test_seeded_draw_matches_in_place_formula(self):
        # real parts (2, n) first, then imaginary parts, each scaled by sigma
        x = self.streams()
        want = self.H @ x
        rng = make_rng(31)
        sigma = math.sqrt(0.7 / 2.0)
        want.real += sigma * rng.standard_normal(x.shape)
        want.imag += sigma * rng.standard_normal(x.shape)
        assert np.array_equal(apply_channel(x, self.H, awgn(x.shape, 0.7, make_rng(31))), want)

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
        noise = awgn(x.shape, 0.7, make_rng(31))
        kept = noise.copy()
        first = apply_channel(x, self.H, noise=noise)
        assert np.array_equal(noise, kept)   # shared draws are read, not modified
        assert np.array_equal(apply_channel(x, self.H, noise=noise), first)
        assert np.array_equal(first, apply_channel(x, self.H, awgn(x.shape, 0.7, make_rng(31))))

    def test_channel_matrix_must_be_2x2(self):
        x = self.streams()
        for h in (np.eye(3, dtype=complex), self.H[0], self.H[None]):
            with pytest.raises(ParameterError, match="2x2"):
                apply_channel(x, h, noise=awgn(x.shape, 0.7, make_rng(3)))

    def test_noise_shape_must_match(self):
        x = self.streams()
        with pytest.raises(ParameterError):
            apply_channel(x, self.H, noise=awgn((2, 299), 0.7, make_rng(3)))
        complex_noise = np.zeros(x.shape, dtype=np.complex128)
        with pytest.raises(ParameterError):
            apply_channel(x, self.H, noise=complex_noise)
