"""The principal square root of a symmetric unitary matrix, and the pipeline on it.

``takagi.unitary_sqrt`` gives ``realify`` its V (of the inner time-zero
slice) and ``classify`` its V (of Lambda).  It is a matrix function, so a
real tensor gets V = I, a diagonal Lambda a diagonal V, and V moves with the
last bits of its input.  The hard spectra are those that defeat an
eigenbasis of Re(U): conjugate pairs e^{+-i theta} that Re(U) merges,
eigenvalues at the branch point -1, and degenerate clusters.
"""

import importlib

import numpy as np
import pytest

from obtusewalk import (
    ObtuseRV,
    Tensor3,
    TensorFamily,
    classify,
    limit_tensor,
    random_system,
    realify,
    system_from_probabilities,
    tensor_of,
)
from obtusewalk.errors import NoConvergence
from obtusewalk.takagi import unitary_sqrt


def orthogonal(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diagonal(r))


def symmetric_unitary(theta, rng):
    """O diag(e^{i theta}) O^T for a random real orthogonal O."""
    o = orthogonal(len(theta), rng)
    return (o * np.exp(1j * np.asarray(theta))) @ o.T


def conjugate_pair(gap, rng):
    """Eigenvalues e^{i t} and e^{-i t'} with cos t - cos t' = gap, among random others."""
    theta = rng.uniform(-np.pi, np.pi, int(rng.integers(2, 9)))
    t = rng.uniform(0.1, 3.0)
    theta[:2] = t, -np.arccos(np.cos(t) - gap)
    return symmetric_unitary(theta, rng)


def near_minus_one(rng):
    """Eigenvalues at -1 and within 1e-16..1e-1 of it on either side."""
    n = int(rng.integers(1, 9))
    theta = rng.uniform(-np.pi, np.pi, n)
    m = int(rng.integers(1, n + 1))
    theta[:m] = np.pi - rng.choice([-1.0, 0.0, 1.0], m) * 10.0 ** rng.uniform(-16, -1, m)
    return symmetric_unitary(np.where(theta > np.pi, theta - 2 * np.pi, theta), rng)


def clustered(rng):
    """A spectrum of at most three distinct eigenvalues, repeated."""
    n = int(rng.integers(2, 12))
    return symmetric_unitary(rng.choice(rng.uniform(-np.pi, np.pi, 3), n), rng)


def assert_principal_root(u, v, atol=1e-13):
    n = len(u)
    assert np.max(np.abs(v @ v.T - u)) <= atol
    assert np.max(np.abs(v - v.T)) <= atol
    assert np.max(np.abs(v @ v.conj().T - np.eye(n))) <= atol
    # principal: every eigenvalue of V has argument in [-pi/2, pi/2]
    assert np.all(np.abs(np.angle(np.linalg.eigvals(v))) <= np.pi / 2 + 1e-7)


class TestKernel:
    @pytest.mark.parametrize("gap", [1e-5, 1e-7, 1e-8, 1e-12, 0.0])
    def test_near_conjugate_pairs(self, gap):
        rng = np.random.default_rng(1)
        for _ in range(100):
            u = conjugate_pair(gap, rng)
            assert_principal_root(u, unitary_sqrt(u))

    def test_eigenvalues_at_and_near_minus_one(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            u = near_minus_one(rng)
            v = unitary_sqrt(u)
            assert np.max(np.abs(v @ v.T - u)) <= 1e-13

    def test_degenerate_clusters(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            u = clustered(rng)
            assert_principal_root(u, unitary_sqrt(u))

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_minus_identity_gives_i_identity(self, zero):
        u = np.full((3, 3), zero, dtype=complex)
        u.real[:] = -np.eye(3)
        u.imag[:] = zero
        assert np.max(np.abs(unitary_sqrt(u) - 1j * np.eye(3))) <= 1e-16

    def test_identity_and_diagonal(self):
        assert np.array_equal(unitary_sqrt(np.eye(4, dtype=complex)), np.eye(4))
        phases = np.exp(1j * np.random.default_rng(4).uniform(-3, 3, 5))
        v = unitary_sqrt(np.diag(phases))
        assert np.array_equal(v, np.diag(np.diagonal(v)))
        assert np.max(np.abs(np.diagonal(v) ** 2 - phases)) <= 1e-15

    def test_commutes_with_real_rotations(self):
        # a matrix function: sqrt(O U O^T) = O sqrt(U) O^T, whatever eigenbasis
        # of the degenerate spectrum each side picks
        rng = np.random.default_rng(5)
        u = symmetric_unitary([0.3, 0.3, 0.3, -2.0, -2.0, 2.5], rng)
        for _ in range(20):
            o = orthogonal(6, rng)
            assert np.max(np.abs(unitary_sqrt(o @ u @ o.T) - o @ unitary_sqrt(u) @ o.T)) <= 1e-13

    def test_residual_is_checked(self, monkeypatch):
        # the package exports the function takagi under the module's name
        monkeypatch.setattr(importlib.import_module("obtusewalk.takagi"), "_SQRT_SLACK", 0.0)
        u = conjugate_pair(0.5, np.random.default_rng(6))
        with pytest.raises(NoConvergence):
            unitary_sqrt(u)


def einsum_tensor(rv):
    """``tensor_of`` rounded differently: one einsum instead of one BLAS product."""
    x = rv.hatted
    return Tensor3(np.einsum("a,ai,aj,ak->ijk", rv.probabilities, x, x, np.conj(x)))


class TestPipeline:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_real_tensor_gets_identity(self, n):
        rng = np.random.default_rng(n)
        rv = ObtuseRV(system_from_probabilities(rng.dirichlet(np.full(n + 1, 5.0))))
        assert np.max(np.abs(realify(tensor_of(rv)).v - np.eye(n + 1))) <= 1e-15

    def test_real_system_of_the_ci_smoke_test_gets_exactly_identity(self):
        rv = ObtuseRV(system_from_probabilities([0.1, 0.2, 0.3, 0.4]))
        assert np.array_equal(realify(tensor_of(rv)).v, np.eye(4))

    def test_diagonal_lambda_gives_diagonal_v(self):
        phases = np.exp(1j * np.random.default_rng(7).uniform(-3, 3, 6))
        entries = np.zeros((7, 7, 7), dtype=complex)
        entries[1:, 1:, 0] = np.diag(phases)
        v = classify(Tensor3(entries)).v_matrix
        assert np.array_equal(v, np.diag(np.diagonal(v)))
        assert np.max(np.abs(np.diagonal(v) ** 2 - phases)) <= 1e-15

    def test_last_bit_stability(self):
        rng = np.random.default_rng(21)
        for i in range(21):
            n = (2, 4, 8, 16, 32)[i % 5]
            rv = ObtuseRV(random_system(n, rng))
            a, b = tensor_of(rv), einsum_tensor(rv)
            assert np.max(np.abs(a.entries - b.entries)) <= 1e-14
            ra, rb = realify(a), realify(b)
            assert np.max(np.abs(ra.v - rb.v)) <= 1e-12, n
            moved = np.max(np.abs(ra.real_system.values - rb.real_system.values))
            assert moved <= 1e-10, n
            if n <= 16:
                ca, cb = (classify(limit_tensor(TensorFamily.constant(t))) for t in (a, b))
                assert np.max(np.abs(ca.v_matrix - cb.v_matrix)) <= 1e-12, n
                assert np.max(np.abs(ca.brownian_basis - cb.brownian_basis)) <= 1e-12, n

