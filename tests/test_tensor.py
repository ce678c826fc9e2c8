"""Diagonalization bijection, transforms, real criterion, realification."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obtusewalk import (
    ObtuseRV,
    ObtuseSystem,
    Tensor3,
    TensorFamily,
    classify,
    diagonalize,
    extract_phases,
    is_real_tensor,
    limit_tensor,
    obtuse_fixed_points,
    random_system,
    realify,
    relate_same_probabilities,
    system_from_probabilities,
    tensor_from_family,
    tensor_of,
    transform,
    triangularize_system,
)
from obtusewalk.obtuse import haar_unitary
from obtusewalk.errors import (
    NotDoublySymmetric,
    NotObtuse,
    NotOrthogonal,
    NotUnitary,
    S0NotUnitary,
    WrongCount,
)
from obtusewalk.limits import DEFAULT_STEPS
from obtusewalk.obtuse import validate_obtuse_system
from obtusewalk.tensor import _obtuse_system
from conftest import (
    REFERENCE_PROBS,
    REFERENCE_VALUES,
    bernoulli_rv,
    greedy_match,
    imaginary_rv,
    jump_rv,
)


def random_orthogonal_family(dim, count, rng):
    """Random pairwise-orthogonal non-zero vectors with random lengths."""
    u = haar_unitary(dim, rng)
    scales = rng.uniform(0.4, 2.5, size=count)
    return u[:, :count].T * scales[:, None]


class TestApply:
    def test_single_direction_fixed_point(self):
        v = np.array([0.7, 1.1j], dtype=complex)
        tensor = tensor_from_family([v])
        np.testing.assert_allclose(tensor.apply(v), np.outer(v, v), atol=1e-12)

    def test_contraction_on_basis_vector(self, reference_tensor):
        # S(e_0) picks out the k = 0 entries of the tensor
        e0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        np.testing.assert_allclose(
            reference_tensor.apply(e0), reference_tensor.entries[:, :, 0], atol=1e-14
        )

    def test_zero_vector(self, reference_tensor):
        np.testing.assert_allclose(
            reference_tensor.apply(np.zeros(3)), np.zeros((3, 3))
        )


class TestFromFamily:
    def test_canonical_basis_gives_delta_tensor(self):
        tensor = tensor_from_family(np.eye(4))
        expected = np.zeros((4, 4, 4))
        for m in range(4):
            expected[m, m, m] = 1.0
        np.testing.assert_allclose(tensor.entries, expected, atol=1e-14)

    def test_hatted_system_reproduces_variable_tensor(self, reference_rv):
        tensor = tensor_from_family(reference_rv.hatted, has_constant=True)
        np.testing.assert_allclose(
            tensor.entries, tensor_of(reference_rv).entries, atol=1e-13
        )

    def test_single_vector_entries(self):
        tensor = tensor_from_family([[1.0, 1j]])
        # 1/|v|^2 v^i v^j conj(v^k) with v = (1, i)
        assert tensor.entries[0, 0, 0] == pytest.approx(0.5)
        assert tensor.entries[1, 1, 1] == pytest.approx(0.5j)
        assert tensor.entries[0, 1, 1] == pytest.approx(0.5)
        assert check_sym(tensor)

    def test_rejects_non_orthogonal(self):
        with pytest.raises(NotOrthogonal):
            tensor_from_family([[1.0, 0.0], [1.0, 1.0]])

    def test_long_vector_does_not_excuse_the_others(self):
        # <v_1, v_2> = 1e-6 is held to tol, not to tol |v_0|^2 = 10
        with pytest.raises(NotOrthogonal):
            tensor_from_family([[1e5, 0, 0], [0, 1, 0], [0, 1e-6, 1]])


def check_sym(tensor):
    from obtusewalk import check_symmetries

    return check_symmetries(Tensor3(tensor.entries, has_constant=False), tol=1e-10).ok


class TestDiagonalize:
    def test_reference_tensor_fixed_points(self, reference_rv, reference_tensor):
        result = diagonalize(reference_tensor)
        assert len(result.vectors) == 3
        np.testing.assert_allclose(result.vectors[:, 0], np.ones(3), atol=1e-9)
        assert greedy_match(result.vectors, reference_rv.hatted) <= 1e-9

    def test_zero_tensor(self):
        result = diagonalize(Tensor3(np.zeros((3, 3, 3)), has_constant=False))
        assert len(result.vectors) == 0

    def test_round_trip_random_pair(self):
        rng = np.random.default_rng(17)
        family = random_orthogonal_family(4, 2, rng)
        tensor = tensor_from_family(family)
        result = diagonalize(tensor)
        # the fixed-point equation pins the phase: exact match, not mod phase
        assert greedy_match(result.vectors, family) <= 1e-8

    def test_bijection_on_fifty_random_families(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            dim = int(rng.integers(1, 7))
            count = int(rng.integers(1, dim + 1))
            family = random_orthogonal_family(dim, count, rng)
            tensor = tensor_from_family(family)
            recovered = diagonalize(tensor)
            assert greedy_match(recovered.vectors, family) <= 1e-8
            rebuilt = tensor_from_family(recovered.vectors)
            assert np.max(np.abs(rebuilt.entries - tensor.entries)) <= 1e-8

    def test_zero_dimensional_tensor(self):
        result = diagonalize(Tensor3(np.zeros((0, 0, 0)), has_constant=False))
        assert result.vectors.shape == (0, 0) and result.residual == 0.0

    def test_rejects_asymmetric_tensor(self):
        entries = np.zeros((2, 2, 2), dtype=complex)
        entries[0, 1, 0] = 1.0
        with pytest.raises(NotDoublySymmetric):
            diagonalize(Tensor3(entries, has_constant=False))

    @given(seed=st.integers(0, 10**6))
    @settings(deadline=None, max_examples=20, derandomize=True)
    def test_bijection_property(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 6))
        count = int(rng.integers(1, dim + 1))
        family = random_orthogonal_family(dim, count, rng)
        recovered = diagonalize(tensor_from_family(family))
        assert greedy_match(recovered.vectors, family) <= 1e-8


def fourier_block(k):
    """Rows (w^{m t})_t, w = exp(2 pi i / k): orthogonal, all entries of modulus 1."""
    return np.exp(2j * np.pi * np.outer(np.arange(k), np.arange(k)) / k)


class TestClusters:
    """Equal or nearly equal weights put several directions in one cluster."""

    @given(
        n=st.integers(1, 32),
        kind=st.sampled_from(["tie", "near-tie", "fourier"]),
        exponent=st.floats(3.0, 12.0),
        seed=st.integers(0, 10**6),
    )
    @example(n=32, kind="tie", exponent=3.0, seed=0)
    @example(n=32, kind="near-tie", exponent=12.0, seed=1)
    @example(n=32, kind="fourier", exponent=3.0, seed=2)
    @example(n=7, kind="fourier", exponent=3.0, seed=3)
    @settings(deadline=None, max_examples=40, derandomize=True)
    def test_recovers_clustered_systems(self, n, kind, exponent, seed):
        rng = np.random.default_rng(seed)
        if kind == "fourier":
            # uniform DFT system: (1, v_m) = (w^{m t})_t with k = n + 1 <= 8
            # atoms, then a Fourier block of k <= 8 equal-length directions
            # inside a random orthogonal family of dimension n + 1
            k = min(n + 1, 8)
            values = fourier_block(k)[:, 1:]
            system = obtuse_fixed_points(tensor_of(ObtuseRV.from_values(values)))
            assert greedy_match(system.values, values) <= 1e-9
            d = n + 1
            family = np.zeros((d, d), dtype=complex)
            family[:k, :k] = 1.7 * fourier_block(k)
            rest = haar_unitary(d - k, rng).T if d > k else np.zeros((0, 0))
            family[k:, k:] = rest * rng.uniform(0.4, 2.5, size=d - k)[:, None]
            recovered = diagonalize(tensor_from_family(family))
            assert greedy_match(recovered.vectors, family) <= 1e-8
            return
        p = rng.dirichlet(np.full(n + 1, 5.0))
        if kind == "tie":
            m = int(rng.integers(2, n + 2))
            p[:m] = np.mean(p[:m])
        else:
            p[1] = p[0] * (1.0 + 10.0**-exponent)
            p /= np.sum(p)
        base = system_from_probabilities(p)
        values = base.values @ haar_unitary(n, rng).T
        system = obtuse_fixed_points(
            tensor_of(ObtuseRV(ObtuseSystem(values=values, probabilities=p)))
        )
        np.testing.assert_allclose(np.sort(system.probabilities), np.sort(p), atol=1e-12)
        assert greedy_match(system.values, values) <= 1e-8


def test_no_random_draws(monkeypatch, reference_tensor):
    """Diagonalization, realification and classification draw no random numbers."""
    family = TensorFamily(tensor_at=lambda h: tensor_of(jump_rv(h)), steps=DEFAULT_STEPS)
    limit = limit_tensor(family)

    def refuse(*args, **kwargs):
        raise AssertionError("a random generator was requested")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert len(diagonalize(reference_tensor).vectors) == 3
    assert realify(reference_tensor).imag_residual() <= 1e-8
    assert classify(limit, tol=1e-7).n_poisson == 1


class TestObtuseFixedPoints:
    def test_reference_tensor(self, reference_rv, reference_tensor):
        system = obtuse_fixed_points(reference_tensor)
        np.testing.assert_allclose(
            np.sort(system.probabilities), np.sort(REFERENCE_PROBS), atol=1e-10
        )
        assert greedy_match(system.values, REFERENCE_VALUES) <= 1e-9

    def test_delta_tensor_rejected(self):
        # doubly symmetric, but S^{i0}_k = delta_{ik} fails: its flag owes sym0
        delta = tensor_from_family(np.eye(3), has_constant=True)
        with pytest.raises(NotDoublySymmetric, match="sym0"):
            obtuse_fixed_points(delta)

    def test_first_coordinate_at_each_vectors_scale(self):
        # |v_0|^2 = 1e8 must not excuse a defect of 1e-6 in a short vector
        vecs = system_from_probabilities([1e-8, 0.3, 0.3, 0.4 - 1e-8]).values
        vecs = np.hstack([np.ones((4, 1)), vecs])
        assert len(_obtuse_system(vecs, 1e-9).values) == 4
        vecs[2, 0] += 1e-6
        with pytest.raises(WrongCount):
            _obtuse_system(vecs, 1e-9)

    def test_bernoulli(self):
        system = obtuse_fixed_points(tensor_of(bernoulli_rv()))
        assert greedy_match(system.values, [[1.0], [-1.0]]) <= 1e-10
        np.testing.assert_allclose(system.probabilities, [0.5, 0.5], atol=1e-12)


def sorted_atom_order(vecs):
    """Reference atom order: descending probability, then Re and Im of each entry."""
    probs = 1.0 / np.sum(np.abs(vecs) ** 2, axis=1)
    return sorted(
        range(len(vecs)), key=lambda m: (-probs[m],) + tuple(vecs[m, 1:].view(float))
    )


def hatted(values):
    values = np.asarray(values, dtype=complex)
    return np.hstack([np.ones((len(values), 1)), values])


def fixed_point_cases():
    """Fixed points (1, v) of obtuse tensors, some with exactly tied probabilities."""
    rng = np.random.default_rng(12)
    # exact ties: the entries of each coordinate share one modulus, so every
    # |v|^2 has the same bits, and the order falls to the entries
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, 3))
    yield hatted([[np.exp(2j)], [-np.exp(2j)]])  # the +-1 coin, rotated
    tetra = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
    yield hatted(tetra * phases)  # four tied atoms
    yield hatted(tetra)
    yield diagonalize(tensor_of(bernoulli_rv())).vectors
    base = system_from_probabilities([0.25] * 4).values
    for _ in range(2):
        rotated = ObtuseRV.from_values(base @ haar_unitary(3, rng).T)
        yield diagonalize(tensor_of(rotated)).vectors
    for n in (1, 2, 5, 16, 32):
        yield diagonalize(tensor_of(ObtuseRV(random_system(n, rng)))).vectors


@pytest.mark.parametrize("points", list(fixed_point_cases()))
def test_atom_order_matches_sorted_oracle(points):
    rng = np.random.default_rng(len(points))
    for vecs in (points, points[::-1], points[rng.permutation(len(points))]):
        order = sorted_atom_order(vecs)
        system = _obtuse_system(vecs, 1e-9)
        assert np.array_equal(system.values, vecs[order][:, 1:])
        assert np.array_equal(system.probabilities, 1.0 / np.sum(np.abs(vecs[order]) ** 2, axis=1))


class TestTransform:
    def test_identity(self, reference_tensor):
        out = transform(np.eye(2), reference_tensor)
        np.testing.assert_allclose(out.entries, reference_tensor.entries, atol=1e-14)

    def test_round_trip(self, reference_tensor):
        u = haar_unitary(2, np.random.default_rng(31))
        out = transform(u.conj().T, transform(u, reference_tensor))
        np.testing.assert_allclose(out.entries, reference_tensor.entries, atol=1e-12)

    def test_equivariance_with_diagonalize(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            dim = int(rng.integers(1, 6))
            count = int(rng.integers(1, dim + 1))
            family = random_orthogonal_family(dim, count, rng)
            tensor = tensor_from_family(family)
            u = haar_unitary(dim, rng)
            rotated = transform(u, tensor)
            recovered = diagonalize(rotated)
            assert greedy_match(recovered.vectors, family @ u.T) <= 1e-8

    def test_rejects_non_unitary(self, reference_tensor):
        with pytest.raises(NotUnitary):
            transform(np.ones((2, 2)), reference_tensor)

    @pytest.mark.parametrize("n", [1, 2, 8, 32])
    def test_matches_the_einsum_formula(self, n):
        # three mode products sum in another order than one einsum: each
        # entry sums d^3 terms of size max|T|, so 4 d^3 eps max|T| bounds it
        rng = np.random.default_rng(n)
        t = tensor_of(ObtuseRV(random_system(n, rng)))
        u = haar_unitary(n, rng)
        full = np.eye(n + 1, dtype=complex)
        full[1:, 1:] = u
        want = np.einsum(
            "im,jn,kp,mnp->ijk", full, full, np.conj(full), t.entries, optimize=True
        )
        bound = 4 * (n + 1) ** 3 * np.finfo(float).eps * np.max(np.abs(t.entries))
        assert np.max(np.abs(transform(u, t).entries - want)) <= bound


class TestKhatriRao:
    @pytest.mark.parametrize("n", [1, 2, 8, 32])
    def test_tensors_match_the_einsum_formula(self, n):
        # one BLAS product sums the K terms of an entry in another order than
        # the einsum loop: 4 K eps max_m w_m |v_m|_inf^3 bounds the difference
        rng = np.random.default_rng(n)
        rv = ObtuseRV(random_system(n, rng))
        vhat, p = rv.hatted, rv.probabilities
        want = np.einsum("m,mi,mj,mk->ijk", p, vhat, vhat, np.conj(vhat))
        bound = 4 * (n + 1) * np.finfo(float).eps * np.max(p * np.max(np.abs(vhat), axis=1) ** 3)
        assert np.max(np.abs(tensor_of(rv).entries - want)) <= bound
        assert np.max(np.abs(tensor_from_family(vhat).entries - want)) <= bound

    def test_empty_family(self):
        out = tensor_from_family(np.zeros((0, 3)))
        assert np.array_equal(out.entries, np.zeros((3, 3, 3)))


class TestRealCriterion:
    def test_imaginary_pair_not_real(self):
        tensor = tensor_of(imaginary_rv())
        assert np.max(np.abs(tensor.entries.imag)) == 0.0
        assert not is_real_tensor(tensor)

    def test_bernoulli_real(self):
        assert is_real_tensor(tensor_of(bernoulli_rv()))

    def test_reference_tensor_not_real(self, reference_tensor):
        assert not is_real_tensor(reference_tensor)

    def test_criterion_tracks_real_atoms(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            dim = int(rng.integers(1, 5))
            system = random_system(dim, rng)
            tensor = tensor_of(ObtuseRV(system))
            all_real = float(np.max(np.abs(system.values.imag))) <= 1e-12
            assert is_real_tensor(tensor, tol=1e-9) == all_real


class TestRealify:
    def test_reference_tensor(self, reference_tensor):
        result = realify(reference_tensor)
        s0 = reference_tensor.entries[:, :, 0]
        assert np.max(np.abs(result.v @ result.v.T - s0)) <= 1e-9
        assert result.imag_residual() <= 1e-8
        np.testing.assert_allclose(
            np.sort(result.real_system.probabilities),
            np.sort(REFERENCE_PROBS),
            atol=1e-10,
        )
        assert np.max(np.abs(result.real_system.values.imag)) <= 1e-8

    def test_already_real_tensor(self):
        tensor = tensor_of(bernoulli_rv())
        result = realify(tensor)
        assert is_real_tensor(result.real_tensor)
        assert np.max(np.abs(result.v @ result.v.T - tensor.entries[:, :, 0])) <= 1e-9

    def test_realified_system_has_same_law(self, reference_rv, reference_tensor):
        # the recovered real variable is a unitary image of the original
        result = realify(reference_tensor)
        u, _ = relate_same_probabilities(
            reference_rv, ObtuseRV(result.real_system)
        )
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-9

    def test_transformed_real_tensor_round_trips(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            dim = int(rng.integers(1, 5))
            probs = rng.dirichlet(np.full(dim + 1, 5.0))
            real_sys = system_from_probabilities(probs)
            tensor = tensor_of(ObtuseRV(real_sys))
            u = haar_unitary(dim, rng)
            rotated = transform(u, tensor)
            result = realify(rotated)
            # same probabilities, both real: same distribution up to rotation
            np.testing.assert_allclose(
                np.sort(result.real_system.probabilities), np.sort(probs), atol=1e-9
            )
            assert np.max(np.abs(result.real_system.values.imag)) <= 1e-8

    def test_rejects_bad_time_zero_slice(self, reference_tensor):
        entries = reference_tensor.entries.copy()
        entries[:, :, 0] = 0.0
        entries[:, 0, :] = np.eye(3)
        with pytest.raises((S0NotUnitary, NotDoublySymmetric)):
            realify(Tensor3(entries))


class TestTriangularize:
    def test_reference_system(self):
        u, tri = triangularize_system(REFERENCE_VALUES)
        assert abs(tri[0, 1]) <= 1e-12  # first vector supported on coord 1
        phases, real_sys = extract_phases(tri)
        assert np.max(np.abs(np.abs(phases) - 1.0)) <= 1e-12
        assert np.max(np.abs(real_sys.values.imag)) <= 1e-9
        np.testing.assert_allclose(
            np.sort(real_sys.probabilities), np.sort(REFERENCE_PROBS), atol=1e-10
        )

    def test_already_real_system(self):
        system = system_from_probabilities([0.2, 0.3, 0.5])
        _, tri = triangularize_system(system.values)
        phases, real_sys = extract_phases(tri)
        np.testing.assert_allclose(np.abs(phases.real), np.ones(2), atol=1e-12)
        np.testing.assert_allclose(
            np.sort(real_sys.probabilities), [0.2, 0.3, 0.5], atol=1e-12
        )

    def test_tiny_pivot_keeps_its_phase(self):
        # |v_0| = 1e-13: a nonzero pivot has a phase at any size, and every
        # other decision is relative
        system = system_from_probabilities([1 - 1e-26, 5e-27, 5e-27])
        _, tri = triangularize_system(system.values)
        assert abs(tri[0, 0]) <= 1e-12
        phases, real_sys = extract_phases(tri)
        np.testing.assert_allclose(np.abs(phases), 1.0, atol=1e-15)
        assert not real_sys.values.imag.any()
        np.testing.assert_allclose(real_sys.probabilities, system.probabilities, rtol=1e-12)

    def test_zero_pivot_has_no_phase(self):
        tri = np.array([[0.0, 1.0], [1.0, -1.0], [-1.0, -1.0]], dtype=complex)
        with pytest.raises(NotObtuse, match="pivot 0 is zero"):
            extract_phases(tri)

    def test_one_dimensional_imaginary_pair(self):
        _, tri = triangularize_system(np.array([[1j], [-1j]]))
        phases, real_sys = extract_phases(tri)
        assert greedy_match(real_sys.values, [[1.0], [-1.0]]) <= 1e-12

    @pytest.mark.parametrize(
        "call, pair",
        [
            (triangularize_system, (1, 3)),
            (ObtuseSystem.from_values, (1, 3)),
            # atoms by decreasing probability: 3, 2, 1, 0
            (lambda v: _obtuse_system(np.hstack([np.ones((4, 1)), v]), 1e-9), (0, 2)),
        ],
        ids=["triangularize_system", "from_values", "_obtuse_system"],
    )
    def test_error_names_one_pair_with_its_own_residual(self, call, pair):
        # pair (0, 1) has the largest residual, 1.4e-6, but also the loose
        # bound of the long v_0 (p = 1e-8); pair (1, 3) is farthest over its own
        values = system_from_probabilities([1e-8, 0.3, 0.3, 0.4 - 1e-8]).values.copy()
        values[0] += 1e-6 * np.eye(3)[1]
        values[1] *= 1 + 1e-8
        report = validate_obtuse_system(values)
        assert report.worst_pair == (1, 3) and report.max_pair_residual > 1e-6
        with pytest.raises(NotObtuse) as info:
            call(values)
        assert info.value.pair == pair
        assert info.value.residual == pytest.approx(report.pair_residuals[1, 3], rel=1e-12)
        assert f"{info.value.residual:.3e}" in str(info.value)

    def test_agrees_with_realify_in_law(self, reference_rv, reference_tensor):
        _, tri = triangularize_system(REFERENCE_VALUES)
        _, real_a = extract_phases(tri)
        real_b = realify(reference_tensor).real_system
        u, _ = relate_same_probabilities(ObtuseRV(real_a), ObtuseRV(real_b))
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-9
