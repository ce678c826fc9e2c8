"""Multiplication-operator matrices and their atom-sum oracles."""

import time
import tracemalloc

import numpy as np
import pytest

from obtusewalk import (
    ObtuseRV,
    chain_mult_op,
    conj_mult_op,
    expectation_functional,
    mult_op,
    random_system,
    tensor_of,
)
from obtusewalk.errors import ChainTooLarge, DimensionMismatch, NonPositiveStep
from obtusewalk.multop import direct_chain_mult_op, direct_expectation
from obtusewalk.obtuse import Tensor3
from conftest import (
    REFERENCE_SLICE_1,
    REFERENCE_VALUES,
    basis_matrix,
    bernoulli_rv,
    direct_mult_op,
    imaginary_rv,
)


def kron_sum_chain(tensor, i, n_sites, h):
    """Reference for ``chain_mult_op``: the weighted sum of kron ampliations.

    Each site term is kron(kron(I_L, M), I_R) for M = mult_op(tensor, i),
    added to the total site by site, so every entry of the total receives
    the same additions in the same order as in the in-place build.
    """
    op = mult_op(tensor, i)
    d = op.shape[0]
    weight = h if i == 0 else np.sqrt(h)
    total = np.zeros((d**n_sites, d**n_sites), dtype=complex)
    for site in range(n_sites):
        left = np.eye(d**site)
        right = np.eye(d ** (n_sites - site - 1))
        total += weight * np.kron(np.kron(left, op), right)
    return total


def chain_rv(d):
    if d == 2:
        return bernoulli_rv()
    if d == 3:
        return ObtuseRV.from_values(REFERENCE_VALUES)
    return ObtuseRV(random_system(d - 1, np.random.default_rng(d)))


class TestBasisMatrix:
    def test_action(self):
        a = basis_matrix(1, 2, 4)
        e1 = np.zeros(4)
        e1[1] = 1.0
        out = a @ e1
        assert out[2] == 1.0 and np.count_nonzero(out) == 1
        assert np.count_nonzero(a) == 1

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            basis_matrix(4, 0, 4)


class TestMultOp:
    def test_coordinate_zero_is_identity(self, reference_tensor):
        np.testing.assert_allclose(mult_op(reference_tensor, 0), np.eye(3), atol=1e-14)

    def test_reference_coordinate_one(self, reference_tensor):
        # the slice display (rows i, columns k) transposes the operator matrix
        op = mult_op(reference_tensor, 1)
        np.testing.assert_allclose(op.T, REFERENCE_SLICE_1, atol=1e-13)

    def test_imaginary_pair(self):
        tensor = tensor_of(imaginary_rv())
        np.testing.assert_allclose(
            mult_op(tensor, 1), [[0.0, -1.0], [1.0, 0.0]], atol=1e-14
        )
        np.testing.assert_allclose(
            conj_mult_op(tensor, 1), [[0.0, 1.0], [-1.0, 0.0]], atol=1e-14
        )

    def test_oracle_equality_on_random_variables(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            dim = int(rng.integers(1, 5))
            rv = ObtuseRV(random_system(dim, rng))
            tensor = tensor_of(rv)
            for i in range(dim + 1):
                np.testing.assert_allclose(
                    mult_op(tensor, i), direct_mult_op(rv, i), atol=1e-12
                )

    def test_basis_expansion(self, reference_tensor):
        # M_{X^i} = sum_{j,k} S^{ij}_k a^j_k
        s = reference_tensor.entries
        for i in range(3):
            expansion = sum(
                s[i, j, k] * basis_matrix(j, k, 3) for j in range(3) for k in range(3)
            )
            assert np.array_equal(mult_op(reference_tensor, i), expansion)

    def test_conjugate_is_adjoint(self, reference_tensor):
        for i in range(3):
            np.testing.assert_allclose(
                conj_mult_op(reference_tensor, i),
                mult_op(reference_tensor, i).conj().T,
                atol=1e-12,
            )

    def test_normality(self, reference_tensor):
        for i in range(3):
            m = mult_op(reference_tensor, i)
            c = conj_mult_op(reference_tensor, i)
            assert np.max(np.abs(m @ c - c @ m)) <= 1e-10

    def test_operator_product_identity(self, reference_tensor):
        ops = [mult_op(reference_tensor, k) for k in range(3)]
        s = reference_tensor.entries
        for i in range(3):
            for j in range(3):
                rhs = sum(s[i, j, k] * ops[k] for k in range(3))
                assert np.max(np.abs(ops[i] @ ops[j] - rhs)) <= 1e-10


class TestExpectation:
    def test_centered(self, reference_rv):
        value = expectation_functional(reference_rv, [(1.0, ((1, False),))])
        assert abs(value) <= 1e-12

    def test_normalized(self, reference_rv):
        value = expectation_functional(
            reference_rv, [(1.0, ((1, True), (1, False)))]
        )
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_cubic_monomial_matches_atom_sum(self, reference_rv):
        poly = [(1.0, ((1, False), (2, False), (1, True)))]
        a = expectation_functional(reference_rv, poly)
        b = direct_expectation(reference_rv, poly)
        assert abs(a - b) <= 1e-10

    def test_polynomial_with_several_terms(self, reference_rv):
        poly = [
            (0.5, ((1, False), (1, True))),
            (-2.0j, ((2, False), (2, True), (1, False))),
            (1.0, ()),
        ]
        a = expectation_functional(reference_rv, poly)
        b = direct_expectation(reference_rv, poly)
        assert abs(a - b) <= 1e-10

    def test_random_monomials_match_atom_sums(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            rv = ObtuseRV(random_system(n, rng))
            scale = max(1.0, float(np.max(np.abs(rv.values))))
            for degree in range(6):
                factors = tuple(
                    (int(rng.integers(0, n + 1)), bool(rng.integers(0, 2)))
                    for _ in range(degree)
                )
                coeff = complex(rng.standard_normal(), rng.standard_normal())
                poly = [(coeff, factors)]
                a = expectation_functional(rv, poly)
                b = direct_expectation(rv, poly)
                assert abs(a - b) <= 1e-12 * abs(coeff) * scale**degree, (n, factors)

    def test_degree_zero_is_the_coefficient(self, reference_rv):
        assert expectation_functional(reference_rv, [(0.5 - 2j, ())]) == 0.5 - 2j

    @pytest.mark.parametrize("conjugated", [False, True])
    @pytest.mark.parametrize("index", [-1, 3])
    def test_coordinate_out_of_range(self, reference_rv, index, conjugated):
        # a negative index must not wrap around to the last slice
        with pytest.raises(DimensionMismatch, match=f"coordinate {index} out of range"):
            expectation_functional(reference_rv, [(1.0, ((1, False), (index, conjugated)))])


class TestChain:
    @pytest.mark.parametrize("n_sites", [1, 2, 3])
    def test_oracle_equality(self, reference_rv, reference_tensor, n_sites):
        for i in range(3):
            built = chain_mult_op(reference_tensor, i, n_sites, 0.01)
            oracle = direct_chain_mult_op(reference_rv, i, n_sites, 0.01)
            assert np.max(np.abs(built.matrix - oracle.matrix)) <= 1e-10

    def test_one_site_is_scaled_mult_op(self, reference_tensor):
        built = chain_mult_op(reference_tensor, 1, 1, 0.04)
        np.testing.assert_allclose(
            built.matrix, 0.2 * mult_op(reference_tensor, 1), atol=1e-14
        )

    def test_time_coordinate(self, reference_tensor):
        built = chain_mult_op(reference_tensor, 0, 2, 0.01)
        np.testing.assert_allclose(built.matrix, 0.02 * np.eye(9), atol=1e-14)

    def test_bernoulli_two_sites(self):
        rv = bernoulli_rv()
        tensor = tensor_of(rv)
        built = chain_mult_op(tensor, 1, 2, 0.25)
        oracle = direct_chain_mult_op(rv, 1, 2, 0.25)
        assert np.max(np.abs(built.matrix - oracle.matrix)) <= 1e-12
        # real-valued walk coordinate: self-adjoint operator
        assert np.max(np.abs(built.matrix - built.matrix.conj().T)) <= 1e-12

    def test_chain_cap(self, reference_tensor):
        with pytest.raises(ChainTooLarge):
            chain_mult_op(reference_tensor, 1, 11, 0.01)

    @pytest.mark.parametrize(
        "d, n_sites",
        [(3, 1), (3, 2), (5, 3), (3, 5), (5, 4), (3, 6), (3, 7), (2, 1), (2, 6)],
    )
    def test_equals_kron_sum(self, d, n_sites):
        tensor = tensor_of(chain_rv(d))
        for i in range(d):
            built = chain_mult_op(tensor, i, n_sites, 0.01)
            expected = kron_sum_chain(tensor, i, n_sites, 0.01)
            assert built.matrix.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_sites", [2, 3, 4])
    def test_signed_zeros_and_site_order_equal_kron_sum(self, n_sites):
        # -0.0 parts on and off the diagonal are stored as +0.0, as 0.0 + x
        # gives; from 3 sites on, some diagonal sums differ in their last
        # bits when the sites are added in another order
        entries = np.zeros((3, 3, 3), dtype=complex)
        entries[0] = np.eye(3)
        entries[1] = [
            [complex(-0.0, -0.0), complex(-0.0, 0.25), complex(0.3, -0.7)],
            [complex(-0.0, -0.0), complex(0.1, 1e-17), complex(-0.0, 0.6)],
            [complex(1.7, -0.0), complex(0.9, 0.2), complex(0.7, 0.1)],
        ]
        tensor = Tensor3(entries)
        for i in range(2):
            built = chain_mult_op(tensor, i, n_sites, 0.01)
            expected = kron_sum_chain(tensor, i, n_sites, 0.01)
            assert built.matrix.tobytes() == expected.tobytes()

    def test_build_allocates_only_the_matrix(self, reference_tensor):
        # the kron build peaked at 3.07x the matrix at 6 sites
        chain_mult_op(reference_tensor, 1, 6, 0.01)
        tracemalloc.start()
        try:
            built = chain_mult_op(reference_tensor, 1, 6, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * built.matrix.nbytes, peak / built.matrix.nbytes

    def test_one_dimensional_sites_in_closed_form(self):
        # d = 1: only the time coordinate, a 1 x 1 operator at every site
        tensor = Tensor3(np.ones((1, 1, 1), dtype=complex))
        summed = kron_sum_chain(tensor, 0, 10**3, 0.37)
        built = chain_mult_op(tensor, 0, 10**3, 0.37).matrix
        assert np.max(np.abs(built - summed)) <= 1e-12 * np.max(np.abs(summed))
        start = time.perf_counter()
        huge = chain_mult_op(tensor, 0, 10**9, 0.37)
        assert time.perf_counter() - start < 1.0
        assert huge.matrix.shape == (1, 1)
        assert huge.matrix[0, 0] == pytest.approx(0.37e9, rel=1e-12)

    @pytest.mark.parametrize("n_sites", [10, 10**9])
    def test_oversized_chain_is_rejected_before_allocating(
        self, reference_rv, reference_tensor, n_sites
    ):
        for build, source in (
            (chain_mult_op, reference_tensor),
            (direct_chain_mult_op, reference_rv),
        ):
            tracemalloc.start()
            start = time.perf_counter()
            try:
                with pytest.raises(ChainTooLarge):
                    build(source, 1, n_sites, 0.01)
                elapsed = time.perf_counter() - start
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert elapsed < 1.0
            assert peak < 2**20

    @pytest.mark.parametrize("h", [float("nan"), float("inf"), 0.0, -0.01])
    def test_time_step_must_be_finite_and_positive(self, reference_rv, reference_tensor, h):
        with pytest.raises(NonPositiveStep):
            chain_mult_op(reference_tensor, 1, 2, h)
        with pytest.raises(NonPositiveStep):
            direct_chain_mult_op(reference_rv, 1, 2, h)
