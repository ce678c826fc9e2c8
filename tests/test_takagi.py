"""Takagi factorization, and the joint one of a tensor's slice family."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obtusewalk import Tensor3, diagonalize, takagi, tensor_from_family
from obtusewalk.obtuse import haar_unitary
from obtusewalk.errors import DimensionMismatch, NotDoublySymmetric, NotSymmetric
from conftest import REFERENCE_LAMBDA, greedy_match


def random_symmetric(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return z + z.T


def assert_valid_factorization(m, result, atol=1e-10):
    n = m.shape[0]
    u, d = result.unitary, result.diagonal
    assert np.max(np.abs(u.conj().T @ u - np.eye(n))) <= 1e-12
    assert np.all(d >= 0) and np.all(np.diff(d) <= 1e-12)
    assert np.max(np.abs(u @ np.diag(d) @ u.T - m)) <= atol


class TestTakagi:
    def test_antidiagonal_unit(self):
        m = np.array([[0, 1j], [1j, 0]])
        result = takagi(m)
        np.testing.assert_allclose(result.diagonal, [1.0, 1.0], atol=1e-12)
        assert_valid_factorization(m, result, atol=1e-12)

    def test_identity(self):
        result = takagi(np.eye(4, dtype=complex))
        np.testing.assert_allclose(result.diagonal, np.ones(4), atol=1e-12)
        assert_valid_factorization(np.eye(4), result, atol=1e-12)

    def test_reference_limit_covariance(self):
        # symmetric unitary, fully degenerate singular values
        result = takagi(REFERENCE_LAMBDA)
        np.testing.assert_allclose(result.diagonal, [1.0, 1.0], atol=1e-12)
        assert_valid_factorization(REFERENCE_LAMBDA, result, atol=1e-12)
        # an explicit factor of the same matrix, for reference
        v = np.array(
            [
                [(2 + 1j) / np.sqrt(10), 1j / np.sqrt(2)],
                [(-1 + 2j) / np.sqrt(10), 1 / np.sqrt(2)],
            ]
        )
        assert np.max(np.abs(v @ v.T - REFERENCE_LAMBDA)) <= 1e-12

    def test_diagonal_with_negative_entry(self):
        m = np.diag([1.0, -1.0]).astype(complex)
        result = takagi(m)
        np.testing.assert_allclose(result.diagonal, [1.0, 1.0], atol=1e-12)
        assert_valid_factorization(m, result, atol=1e-12)

    def test_zero_matrix(self):
        result = takagi(np.zeros((3, 3), dtype=complex))
        np.testing.assert_allclose(result.diagonal, np.zeros(3))
        assert result.residual == 0.0

    def test_rank_deficient(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        m = np.outer(v, v)
        result = takagi(m)
        assert np.sum(result.diagonal > 1e-10) == 1
        assert_valid_factorization(m, result)

    def test_constructed_multiplicities(self):
        rng = np.random.default_rng(9)
        u = haar_unitary(6, rng)
        d = np.array([3.0, 2.0, 2.0, 2.0, 1.0, 1.0])
        m = u @ np.diag(d) @ u.T
        result = takagi(m)
        np.testing.assert_allclose(result.diagonal, d, atol=1e-10)
        assert_valid_factorization(m, result)

    def test_not_symmetric_raises(self):
        with pytest.raises(NotSymmetric):
            takagi(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises(self, bad):
        m = np.eye(3, dtype=complex)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(DimensionMismatch, match="finite"):
            takagi(m)

    def test_two_hundred_random_matrices(self):
        rng = np.random.default_rng(0)
        for k in range(200):
            dim = int(rng.integers(2, 17))
            m = random_symmetric(dim, rng)
            result = takagi(m)
            assert_valid_factorization(m, result)
            sv = np.linalg.svd(m, compute_uv=False)
            np.testing.assert_allclose(result.diagonal, sv, atol=1e-10)

    def test_graded_singular_values(self):
        # the SVD resolves singular values far below sqrt(eps) s_max
        rng = np.random.default_rng(12)
        u = haar_unitary(3, rng)
        m = u @ np.diag([1.0, 1e-4, 1e-8]) @ u.T
        assert_valid_factorization(m, takagi(m), atol=1e-15)
        for _ in range(600):
            dim = int(rng.integers(2, 17))
            d = np.sort(10.0 ** rng.uniform(-12, 0, dim))[::-1]
            u = haar_unitary(dim, rng)
            m = u @ np.diag(d) @ u.T
            result = takagi(m)
            assert_valid_factorization(m, result, atol=1e-13)
            np.testing.assert_allclose(result.diagonal, d, rtol=1e-10, atol=1e-15)

    def test_near_tied_singular_values(self):
        # a pair of relative gap 1e-16 .. 1e-2, split or clustered
        rng = np.random.default_rng(13)
        for _ in range(600):
            dim = int(rng.integers(2, 12))
            d = rng.uniform(0.1, 1.0, dim)
            k = int(rng.integers(1, dim))
            d[k] = d[k - 1] * (1 - 10.0 ** rng.uniform(-16, -2))
            u = haar_unitary(dim, rng)
            m = u @ np.diag(d) @ u.T
            assert_valid_factorization(m, takagi(m), atol=1e-11)

    def test_symmetric_unitary_input(self):
        # every singular value is 1: one cluster, one square root
        rng = np.random.default_rng(14)
        for _ in range(50):
            dim = int(rng.integers(1, 12))
            o = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
            m = (o * np.exp(1j * rng.choice([-np.pi, 0.5, 2.0], dim))) @ o.T
            assert_valid_factorization(m, takagi(m), atol=1e-13)

    @given(dim=st.integers(2, 8), seed=st.integers(0, 10**6))
    @settings(deadline=None, max_examples=30, derandomize=True)
    def test_factorization_property(self, dim, seed):
        m = random_symmetric(dim, np.random.default_rng(seed))
        assert_valid_factorization(m, takagi(m))


def assert_joint_factorization(tensor, atol):
    """Check S_k = U diag(conj(v_m^k)) U^T with U's columns v_m/|v_m|.

    ``diagonalize`` gives this joint Takagi factorization of the slice
    family; returns U and the diagonals of every slice.
    """
    vectors = diagonalize(tensor).vectors
    u = (vectors / np.linalg.norm(vectors, axis=1)[:, None]).T
    diags = [np.conj(vectors[:, k]) for k in range(tensor.dim)]
    assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[1]))) <= 1e-12
    for k, d in enumerate(diags):
        assert np.max(np.abs(u @ np.diag(d) @ u.T - tensor.k_slice(k))) <= atol
    return u, diags


class TestCommutingCheck:
    def test_tensor_slices_commute(self, reference_tensor):
        # the conjugate products conj(S_i) S_j of a doubly-symmetric tensor
        # commute; this is what makes a joint factorization possible
        slices = [reference_tensor.k_slice(k) for k in range(3)]
        g = [np.conj(a) @ b for a in slices for b in slices]
        worst = max(float(np.max(np.abs(x @ y - y @ x))) for x in g for y in g)
        assert worst <= 1e-10


class TestSimultaneous:
    """Joint Takagi factorization of a tensor's slices, from ``diagonalize``."""

    def test_reference_tensor_slices(self, reference_tensor):
        u, _ = assert_joint_factorization(reference_tensor, atol=1e-9)
        assert u.shape == (3, 3)

    def test_identity_pair(self):
        # the coordinate pair e_1, e_2: the joint factor is the identity
        u, diags = assert_joint_factorization(tensor_from_family(np.eye(2)), atol=1e-12)
        assert greedy_match(u.T, np.eye(2)) <= 1e-12
        np.testing.assert_allclose(diags[0] + diags[1], [1.0, 1.0], atol=1e-12)

    def test_already_diagonal(self):
        # a scaled coordinate family has diagonal slices
        tensor = tensor_from_family(np.diag([1.0, 2.0j, 0.5]))
        for k in range(3):
            s = tensor.k_slice(k)
            assert np.max(np.abs(s - np.diag(np.diagonal(s)))) == 0.0
        assert_joint_factorization(tensor, atol=1e-12)

    def test_constructed_family(self):
        rng = np.random.default_rng(4)
        u_true = haar_unitary(5, rng)
        lengths = rng.uniform(0.4, 2.5, size=5)
        tensor = tensor_from_family(u_true.T * lengths[:, None])
        u, _ = assert_joint_factorization(tensor, atol=1e-9)
        # the factor is u_true up to a column permutation
        overlap = np.abs(u_true.conj().T @ u)
        np.testing.assert_allclose(np.sort(overlap.max(axis=0)), np.ones(5), atol=1e-9)

    def test_non_commuting_raises(self):
        # slices whose conjugate products do not commute fail sym3
        a1 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        a2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(NotDoublySymmetric):
            diagonalize(Tensor3(np.stack([a1, a2], axis=2), has_constant=False))

    def test_deterministic(self, reference_tensor):
        first = diagonalize(reference_tensor).vectors
        assert np.array_equal(first, diagonalize(reference_tensor).vectors)
