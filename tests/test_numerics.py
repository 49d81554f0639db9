"""Kernel tests: Gaussian tail, closed-form 2x2 singular values, inversion, RNG."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from vlclink import make_rng, svd2
from vlclink.errors import ParameterError, SingularMatrix
from vlclink.numerics import inv2, qfunc


def oracle_q(x: float) -> float:
    return 0.5 * erfc(x / math.sqrt(2.0))


class TestQfunc:
    def test_zero_is_half(self):
        assert qfunc(0.0) == 0.5

    def test_frozen_oracle_points(self):
        # Expected values computed with the scipy erfc oracle.
        assert qfunc(3.0902) == pytest.approx(oracle_q(3.0902), rel=1e-5)
        assert qfunc(3.0902) == pytest.approx(1.0e-3, rel=2e-4)
        assert qfunc(1.2816) == pytest.approx(oracle_q(1.2816), rel=1e-5)
        assert qfunc(1.2816) == pytest.approx(0.1000, rel=1e-3)

    def test_relative_accuracy_over_working_range(self):
        for x in np.linspace(1e-6, 8.0, 400):
            assert qfunc(float(x)) == pytest.approx(oracle_q(float(x)), rel=1e-7)

    def test_monotone_decreasing_and_in_unit_interval(self):
        xs = np.linspace(-6, 8, 300)
        vals = [qfunc(float(x)) for x in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v < 1.0 for v in vals)

    @given(st.floats(min_value=-10, max_value=10, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, x):
        assert qfunc(x) + qfunc(-x) == pytest.approx(1.0, abs=1e-12)

    def test_saturates_cleanly_for_huge_argument(self):
        assert qfunc(50.0) == 0.0
        assert qfunc(float("inf")) == 0.0


def random_mat2(rng):
    return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))


class TestSvd2:
    def test_identity(self):
        s = svd2(np.eye(2, dtype=complex))
        assert (s.sigma1, s.sigma2) == (1.0, 1.0)

    def test_diagonal(self):
        s = svd2(np.diag([2.0, 1.0]).astype(complex))
        assert s.sigma1 == pytest.approx(2.0, abs=1e-14)
        assert s.sigma2 == pytest.approx(1.0, abs=1e-14)

    def test_zero_matrix(self):
        s = svd2(np.zeros((2, 2), complex))
        assert s.sigma1 == 0.0 and s.sigma2 == 0.0

    def test_rank_one(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        s = svd2(a)
        assert s.sigma1 == pytest.approx(2.0, rel=1e-12)
        assert s.sigma2 == pytest.approx(0.0, abs=1e-12)

    def test_matches_numpy_and_ordered_random(self):
        rng = make_rng(123)
        for _ in range(1000):
            a = random_mat2(rng)
            s = svd2(a)
            assert s.sigma1 >= s.sigma2 >= 0.0
            want = np.linalg.svd(a, compute_uv=False)
            assert (s.sigma1, s.sigma2) == pytest.approx(tuple(want), rel=1e-10)

    def test_scaling_linearity(self):
        rng = make_rng(77)
        for _ in range(300):
            a = random_mat2(rng)
            alpha = float(10.0 ** rng.uniform(-3, 3))
            s = svd2(a)
            sa = svd2(alpha * a)
            assert sa.sigma1 == pytest.approx(alpha * s.sigma1, rel=1e-12)
            assert sa.sigma2 == pytest.approx(alpha * s.sigma2, rel=1e-12, abs=1e-300)


class TestInv2:
    def test_identity(self):
        assert np.allclose(inv2(np.eye(2, dtype=complex)), np.eye(2))

    def test_diagonal(self):
        got = inv2(np.diag([2.0, 4.0]).astype(complex))
        assert np.allclose(got, np.diag([0.5, 0.25]))

    def test_zero_matrix_rejected(self):
        with pytest.raises(SingularMatrix):
            inv2(np.zeros((2, 2), complex))

    def test_rank_one_rejected(self):
        with pytest.raises(SingularMatrix):
            inv2(np.array([[1.0, 2.0], [0.5, 1.0]], dtype=complex))

    def test_product_is_identity_when_well_conditioned(self):
        rng = make_rng(9)
        for _ in range(300):
            a = random_mat2(rng)
            if abs(np.linalg.det(a)) < 1e-3:
                continue
            assert np.allclose(inv2(a) @ a, np.eye(2), atol=1e-9)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: qfunc(math.nan), "qfunc: x must not be NaN"),
        (lambda: svd2(np.eye(3)), "svd2 expects a 2x2 matrix"),
        (lambda: inv2(np.eye(3)), "inv2 expects a 2x2 matrix"),
    ],
)
def test_broken_contract_is_a_parameter_error(call, message):
    with pytest.raises(ParameterError, match=message):
        call()


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(31).standard_normal(64)
        b = make_rng(31).standard_normal(64)
        assert np.array_equal(a, b)

    def test_moments(self):
        rng = make_rng(2024)
        x = rng.standard_normal(1_000_000)
        assert abs(float(np.mean(x))) < 0.004
        assert abs(float(np.var(x)) - 1.0) < 0.01

    def test_independent_seeds_uncorrelated(self):
        x = make_rng(1).standard_normal(100_000)
        y = make_rng(2).standard_normal(100_000)
        rho = float(np.corrcoef(x, y)[0, 1])
        assert abs(rho) < 0.01
