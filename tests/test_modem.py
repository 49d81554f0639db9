"""Modem tests: mapping convention, Gray structure, BER model."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from vlclink import ber_theoretical, make_rng, qam_demap, qam_map
from vlclink.errors import ParameterError
from vlclink.modem import QAM_ORDERS, constellation, demap_labels, label_bit_errors, map_labels, unpack_labels


def bits_of(label: int, k: int) -> list[int]:
    return [(label >> (k - 1 - j)) & 1 for j in range(k)]


def pack_labels(bits, order):
    """Labels of 0/1 bits read k at a time, MSB first, by one product with the
    bit weights: the packing the chain used before it unpacked bytes."""
    k = constellation(order).bits_per_symbol
    weights = 1 << np.arange(k - 1, -1, -1)
    return (np.asarray(bits, dtype=np.int64).reshape(-1, k) @ weights).astype(np.uint8)


def former_map(bits, order):
    """The bit-level map the label map replaced: per-axis codes into level_by_code."""
    c = constellation(order)
    half = c.bits_per_symbol // 2
    groups = np.asarray(bits, dtype=np.int64).reshape(-1, 2 * half)
    weights = 1 << np.arange(half - 1, -1, -1)
    return c.level_by_code[groups[:, :half] @ weights] + 1j * c.level_by_code[groups[:, half:] @ weights]


def former_demap(symbols, order):
    """The bit-level demap the label demap replaced: int64 axis indices, one bit column at a time."""
    c = constellation(order)
    k = c.bits_per_symbol
    half = k // 2
    side = 1 << half

    def axis_codes(x):
        idx = np.clip(np.floor((side - 1 - x / c.scale) / 2.0 + 0.5).astype(np.int64), 0, side - 1)
        return idx ^ (idx >> 1)

    icode, qcode = axis_codes(symbols.real), axis_codes(symbols.imag)
    bits = np.empty((symbols.size, k), dtype=np.int64)
    for j in range(half):
        bits[:, j] = (icode >> (half - 1 - j)) & 1
        bits[:, half + j] = (qcode >> (half - 1 - j)) & 1
    return bits.ravel()


def former_demap_labels(symbols, order):
    """The label demap the one-pass form replaced: each axis decided on its own,
    by the one expression that `_axis_indices` now evaluates step by step."""
    c = constellation(order)
    side = 1 << (c.bits_per_symbol // 2)

    def axis_indices(x):
        raw = (side - 1 - x / c.scale) / 2.0
        return np.clip(np.floor(raw + 0.5), 0, side - 1).astype(np.uint8)

    symbols = np.asarray(symbols, dtype=np.complex128)
    i, q = axis_indices(symbols.real), axis_indices(symbols.imag)
    labels = i ^ (i >> 1)
    labels <<= c.bits_per_symbol // 2
    labels |= q ^ (q >> 1)
    return labels


class TestConstellation:
    @pytest.mark.parametrize("order", QAM_ORDERS)
    def test_unit_average_energy(self, order):
        c = constellation(order)
        assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("order", QAM_ORDERS)
    def test_points_form_square_grid(self, order):
        c = constellation(order)
        side = int(math.isqrt(order))
        assert len(set(np.round(c.points.real, 12))) == side
        assert len(set(np.round(c.points.imag, 12))) == side

    @pytest.mark.parametrize("order", QAM_ORDERS)
    def test_gray_property_along_rows_and_columns(self, order):
        c = constellation(order)
        k = c.bits_per_symbol
        side = int(math.isqrt(order))
        label_by_point = {
            (round(p.real, 12), round(p.imag, 12)): lab
            for lab, p in zip(range(order), c.points)
        }
        levels = sorted({round(p.real, 12) for p in c.points})
        for fixed in levels:
            for run in (
                [(lvl, fixed) for lvl in levels],   # one row
                [(fixed, lvl) for lvl in levels],   # one column
            ):
                labels = [label_by_point[pt] for pt in run]
                for a, b in zip(labels, labels[1:]):
                    assert bin(a ^ b).count("1") == 1
        assert side * side == order


class TestMapDemap:
    def test_qpsk_corner_convention(self):
        s = math.sqrt(0.5)
        assert qam_map([0, 0], 4)[0] == pytest.approx(s + 1j * s)
        assert qam_map([1, 1], 4)[0] == pytest.approx(-s - 1j * s)
        assert qam_map([0, 1], 4)[0] == pytest.approx(s - 1j * s)
        assert qam_map([1, 0], 4)[0] == pytest.approx(-s + 1j * s)

    def test_length_error(self):
        with pytest.raises(ParameterError, match="bit count 3 not divisible by 2"):
            qam_map([0, 1, 0], 4)

    @pytest.mark.parametrize(
        "bits, order",
        [([0, 2, 0, 0], 16), ([-1, 0, 0, 0], 16), ([2, 0], 4), ([0.5, 0], 4), ([0, 1, 0, 256], 16)],
    )
    def test_rejects_values_other_than_0_and_1(self, bits, order):
        with pytest.raises(ParameterError):
            qam_map(bits, order)

    def test_accepts_bool_and_float_bits(self):
        want = qam_map([1, 0, 0, 1], 16)
        assert np.array_equal(qam_map(np.array([True, False, False, True]), 16), want)
        assert np.array_equal(qam_map([1.0, 0.0, 0.0, 1.0], 16), want)

    @pytest.mark.parametrize("order", QAM_ORDERS)
    def test_all_labels_round_trip(self, order):
        c = constellation(order)
        k = c.bits_per_symbol
        bits = np.array([b for lab in range(order) for b in bits_of(lab, k)])
        syms = qam_map(bits, order)
        assert np.allclose(syms, c.points)
        assert np.array_equal(qam_demap(syms, order), bits)

    @pytest.mark.parametrize("order", QAM_ORDERS)
    def test_noisy_within_half_min_distance_round_trip(self, order):
        c = constellation(order)
        rng = make_rng(order)
        bits = rng.integers(0, 2, size=c.bits_per_symbol * 500)
        syms = qam_map(bits, order)
        # any perturbation below half the minimum distance cannot flip a decision
        jitter = rng.uniform(-0.49, 0.49, syms.size) + 1j * rng.uniform(-0.49, 0.49, syms.size)
        noisy = syms + c.scale * jitter
        assert np.array_equal(qam_demap(noisy, order), bits)

    def test_boundary_tie_toward_smaller_coordinates(self):
        # exact midpoints between levels must resolve to the smaller level
        assert np.array_equal(qam_demap([0.0 + 0.0j], 4), [1, 1])
        c16 = constellation(16)
        mid = 2.0 * c16.scale  # boundary between +3 and +1 levels
        label = qam_demap([mid + 1j * mid], 16)
        assert np.array_equal(label, [0, 1, 0, 1])  # the +1,+1 point, not +3,+3

    @given(st.sampled_from(QAM_ORDERS), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_round_trip(self, order, seed):
        k = int(math.log2(order))
        bits = make_rng(seed).integers(0, 2, size=k * 64)
        assert np.array_equal(qam_demap(qam_map(bits, order), order), bits)


class TestLabelChain:
    """The label-level modem the frame chain runs, against the bit-level forms it replaced."""

    @given(st.sampled_from(QAM_ORDERS), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_bit_level_map_demap_and_error_count(self, order, data):
        c = constellation(order)
        k = c.bits_per_symbol
        side = 1 << (k // 2)
        coordinate = st.one_of(
            st.floats(-2.0, 2.0),
            st.sampled_from([0.0, -0.0, 1e9, -1e9]),                  # signed zeros, far off the grid
            st.integers(-side, side).map(lambda m: m * c.scale),      # decision boundaries at even m
        )
        n = data.draw(st.integers(1, 24))
        bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=k * n, max_size=k * n)))
        y = np.empty(n, dtype=np.complex128)
        y.real = data.draw(st.lists(coordinate, min_size=n, max_size=n))
        y.imag = data.draw(st.lists(coordinate, min_size=n, max_size=n))

        tx = pack_labels(bits, order)
        assert tx.dtype == np.uint8
        assert np.array_equal(map_labels(tx, order).view(np.float64), former_map(bits, order).view(np.float64))
        assert np.array_equal(qam_map(bits, order).view(np.float64), former_map(bits, order).view(np.float64))
        assert np.array_equal(qam_demap(y, order), former_demap(y, order))
        rx = demap_labels(y, order)
        assert label_bit_errors(tx, rx) == np.count_nonzero(qam_demap(y, order) != bits)

    @pytest.mark.parametrize("order", QAM_ORDERS)
    def test_labels_keep_the_shape_of_two_streams(self, order):
        k = constellation(order).bits_per_symbol
        bits = make_rng(order).integers(0, 2, size=2 * k * 16)
        labels = pack_labels(bits, order).reshape(2, 16)
        symbols = map_labels(labels, order)
        assert symbols.shape == (2, 16)
        assert np.array_equal(demap_labels(symbols, order), labels)
        assert np.array_equal(symbols.ravel(), qam_map(bits, order))

    @pytest.mark.parametrize("order", QAM_ORDERS)
    def test_beyond_the_int64_range_decides_the_nearest_corner(self, order):
        # The former int64 cast wrapped coordinates this large to the opposite corner.
        c = constellation(order)
        corners = np.array([complex(1e300, 1e300), complex(-1e300, -1e300), complex(np.inf, -np.inf)])
        want = np.array([c.points.real.max() + 1j * c.points.imag.max(),
                         c.points.real.min() + 1j * c.points.imag.min(),
                         c.points.real.max() + 1j * c.points.imag.min()])
        assert np.array_equal(map_labels(demap_labels(corners, order), order), want)

    @given(st.sampled_from(QAM_ORDERS), st.data())
    @settings(max_examples=120, deadline=None)
    def test_one_pass_demap_matches_the_two_axis_form(self, order, data):
        c = constellation(order)
        side = 1 << (c.bits_per_symbol // 2)
        boundary = st.integers(-side - 1, side + 1).map(lambda m: m * c.scale)   # decision boundaries at even m
        coordinate = st.one_of(
            st.floats(-2.0, 2.0),
            st.floats(-1e300, 1e300),   # far off the grid, yet x / scale stays finite
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e9, -1e9, np.inf, -np.inf]),
            boundary,
            boundary.map(lambda v: math.nextafter(v, math.inf)),
            boundary.map(lambda v: math.nextafter(v, -math.inf)),
        )
        shape = data.draw(st.sampled_from([(), (1,), (7,), (1, 9), (2, 5)]))
        n = int(np.prod(shape, dtype=int))
        y = np.empty(n, dtype=np.complex128)
        y.real = data.draw(st.lists(coordinate, min_size=n, max_size=n))
        y.imag = data.draw(st.lists(coordinate, min_size=n, max_size=n))
        y = y.reshape(shape)
        kept = y.copy()
        got = demap_labels(y, order)
        assert got.shape == shape and got.dtype == np.uint8
        assert np.array_equal(got, former_demap_labels(y, order))
        assert y.tobytes() == kept.tobytes()   # the in-place steps leave the input alone
        if y.ndim == 2:   # a strided view decides the same
            wide = np.zeros((y.shape[0], 2 * y.shape[1]), dtype=np.complex128)
            wide[:, ::2] = y
            assert np.array_equal(demap_labels(wide[:, ::2], order), got)

    @given(st.sampled_from(QAM_ORDERS), st.integers(1, 300), st.integers(0, 16), st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_unpacked_labels_equal_packed_bit_groups(self, order, count, spare, seed):
        k = constellation(order).bits_per_symbol
        bits = make_rng(seed).integers(0, 2, size=count * k + spare)   # extra bits past the labels read
        got = unpack_labels(np.packbits(bits), order, count)
        assert got.dtype == np.uint8
        assert np.array_equal(got, pack_labels(bits[: count * k], order))

    def test_error_count_is_a_popcount(self):
        tx = np.array([0b000000, 0b111111, 0b101010], dtype=np.uint8)
        rx = np.array([0b000001, 0b000000, 0b101010], dtype=np.uint8)
        assert label_bit_errors(tx, rx) == 7
        every = np.arange(256, dtype=np.uint8)
        assert label_bit_errors(every, np.zeros(256, dtype=np.uint8)) == 8 * 128


class TestDemapMemory:
    @pytest.mark.parametrize("order", QAM_ORDERS)
    def test_demap_peaks_at_one_float_copy_of_its_input(self, order):
        symbols = map_labels(make_rng(order).integers(0, order, size=(2, 4096)).astype(np.uint8), order)
        symbols += 0.01 * (1 + 1j)
        want = demap_labels(symbols, order)   # first call fills the caches
        tracemalloc.start()
        try:
            got = demap_labels(symbols, order)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        # one float64 view's worth of the input, plus uint8 axis indices and labels (1/8 of it each)
        assert symbols.nbytes <= peak < symbols.nbytes * 5 // 4


class TestBerTheoretical:
    def test_qpsk_zero_snr(self):
        assert ber_theoretical(4, 0.0) == 0.5

    def test_qpsk_milli_ber_point(self):
        # frozen from the erfc oracle: Q(sqrt(9.55))
        expected = 0.5 * erfc(math.sqrt(9.55) / math.sqrt(2.0))
        assert ber_theoretical(4, 9.55) == pytest.approx(expected, rel=1e-9)
        assert ber_theoretical(4, 9.55) == pytest.approx(1.0e-3, rel=1e-3)

    def test_monotone_in_order(self):
        for snr in (1.0, 10.0, 100.0):
            assert ber_theoretical(64, snr) > ber_theoretical(4, snr)
        # full monotonicity across orders holds where the nearest-neighbour
        # approximation is in its regime (BER below a few percent)
        for snr in (30.0, 100.0, 1000.0):
            bers = [ber_theoretical(m, snr) for m in QAM_ORDERS]
            assert all(a < b for a, b in zip(bers, bers[1:]))

    def test_monte_carlo_cross_check_qpsk(self):
        # 1e7 bits at the 1e-3 operating point
        rng = make_rng(404)
        n_bits = 10_000_000
        bits = rng.integers(0, 2, size=n_bits)
        syms = qam_map(bits, 4)
        snr = 9.55
        sigma = math.sqrt(1.0 / snr / 2.0)
        noisy = syms + sigma * (
            rng.standard_normal(syms.size) + 1j * rng.standard_normal(syms.size)
        )
        errors = int(np.count_nonzero(qam_demap(noisy, 4) != bits))
        expected = ber_theoretical(4, snr) * n_bits
        assert abs(errors - expected) <= 3.0 * math.sqrt(expected)

    def test_rejects_negative_snr(self):
        with pytest.raises(ParameterError):
            ber_theoretical(4, -1.0)
