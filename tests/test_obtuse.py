"""Obtuse systems, their tensors, and the uniqueness/embedding results."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import obtusewalk as ow
from obtusewalk import (
    ObtuseRV,
    ObtuseSystem,
    Tensor3,
    check_symmetries,
    embed_general,
    random_system,
    relate_same_probabilities,
    rv_is_centered_normalized,
    system_from_probabilities,
    tensor_of,
    validate_obtuse_system,
)
from obtusewalk.obtuse import _SWEEP_BLOCK_BYTES, haar_unitary
from obtusewalk.errors import (
    AmbiguousMatching,
    DimensionMismatch,
    MinimalSupport,
    NotObtuse,
    ProbabilityMismatch,
    SingularSystem,
)
from conftest import (
    REFERENCE_PROBS,
    REFERENCE_VALUES,
    bernoulli_rv,
    imaginary_rv,
    reference_tensor_entries,
)


class TestValidation:
    def test_reference_system_is_obtuse(self):
        report = validate_obtuse_system(REFERENCE_VALUES)
        assert report.ok
        np.testing.assert_allclose(report.probabilities, REFERENCE_PROBS, atol=1e-14)
        assert report.prob_sum_residual <= 1e-12
        assert report.mean_residual <= 1e-10
        assert report.identity_residual <= 1e-10

    def test_non_obtuse_pair_is_reported(self):
        values = [[1j, 1], [1, -1 + 1j], [1, 1]]
        report = validate_obtuse_system(values)
        assert not report.ok
        # <v_1, v_3> = 1 - i, residual |2 - i| = sqrt(5)
        assert report.worst_pair in {(0, 2), (2, 0)}
        assert report.max_pair_residual == pytest.approx(np.sqrt(5.0))
        with pytest.raises(NotObtuse) as err:
            ObtuseSystem.from_values(values)
        assert err.value.pair in {(0, 2), (2, 0)}

    def test_long_vector_does_not_excuse_the_others(self):
        # |v_0|^2 = 1e10: at tol max|v|^2 the residuals 1, 1 and 2 would pass
        values = [[1e5, 0], [0, 1], [0, 1]]
        report = validate_obtuse_system(values)
        assert report.max_pair_residual == 2.0
        assert not report.ok
        with pytest.raises(NotObtuse):
            ObtuseSystem.from_values(values)

    def test_light_atom_does_not_excuse_a_heavy_pair(self):
        values = system_from_probabilities([1e-8, 0.3, 0.3, 0.4 - 1e-8]).values.copy()
        assert validate_obtuse_system(values).ok
        values[1] *= 1 + 5e-4  # residual 5e-4 on every pair of atom 1
        report = validate_obtuse_system(values)
        assert not report.ok
        assert 1 in report.worst_pair and 0 not in report.worst_pair
        with pytest.raises(NotObtuse) as err:
            ObtuseSystem.from_values(values)
        assert err.value.residual == pytest.approx(5e-4, rel=1e-3)

    def test_one_dimensional_bernoulli(self):
        report = validate_obtuse_system(np.array([[1.0], [-1.0]]))
        assert report.ok
        np.testing.assert_allclose(report.probabilities, [0.5, 0.5])

    def test_wrong_count_raises(self):
        with pytest.raises(DimensionMismatch):
            validate_obtuse_system([[1j, 1], [1, -1 + 1j]])

    def test_zero_vector_raises(self):
        with pytest.raises(DimensionMismatch):
            validate_obtuse_system([[0, 0], [1, -1 + 1j], [1, 1]])


class TestCenteredNormalized:
    def test_reference_system(self):
        ok, mean_res, cov_res = rv_is_centered_normalized(
            REFERENCE_VALUES, REFERENCE_PROBS
        )
        assert ok and mean_res <= 1e-12 and cov_res <= 1e-12

    def test_imaginary_pair(self):
        ok, _, _ = rv_is_centered_normalized([[1j], [-1j]], [0.5, 0.5])
        assert ok

    def test_uncentered_fails(self):
        ok, mean_res, _ = rv_is_centered_normalized([[1.0], [1.0]], [0.5, 0.5])
        assert not ok and mean_res == pytest.approx(1.0)

    def test_agrees_with_system_validation_on_minimal_support(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            system = random_system(3, rng)
            ok, _, _ = rv_is_centered_normalized(
                system.values, system.probabilities
            )
            assert ok == validate_obtuse_system(system.values).ok


class TestTensor:
    def test_reference_tensor_matches_known_entries(self, reference_rv):
        tensor = tensor_of(reference_rv)
        np.testing.assert_allclose(
            tensor.entries, reference_tensor_entries(), atol=1e-13
        )

    def test_constant_slice_is_identity(self):
        rng = np.random.default_rng(3)
        tensor = tensor_of(ObtuseRV(random_system(4, rng)))
        np.testing.assert_allclose(tensor.slice(0), np.eye(5), atol=1e-12)

    def test_imaginary_pair_entries(self):
        tensor = tensor_of(imaginary_rv())
        assert tensor.entries[1, 1, 0] == pytest.approx(-1.0)
        assert tensor.entries[0, 1, 1] == pytest.approx(1.0)

    def test_product_reconstruction_on_atoms(self, reference_rv):
        # X^i X^j = sum_k S^{ij}_k X^k pointwise on every atom
        tensor = tensor_of(reference_rv)
        vhat = reference_rv.hatted
        lhs = np.einsum("mi,mj->mij", vhat, vhat)
        rhs = np.einsum("ijk,mk->mij", tensor.entries, vhat)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_conjugate_reconstruction_on_atoms(self, reference_rv):
        # conj(X^i) X^j = sum_k conj(S^{ik}_j) X^k
        tensor = tensor_of(reference_rv)
        vhat = reference_rv.hatted
        lhs = np.einsum("mi,mj->mij", np.conj(vhat), vhat)
        rhs = np.einsum("ikj,mk->mij", np.conj(tensor.entries), vhat)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


class TestSymmetries:
    def test_reference_tensor_passes(self, reference_tensor):
        report = check_symmetries(reference_tensor, tol=1e-12)
        assert report.ok
        assert max(report.residuals().values()) <= 1e-12

    def test_perturbed_constant_slice_fails_sym0(self, reference_tensor):
        entries = reference_tensor.entries.copy()
        entries[0, 0, 0] += 0.1
        report = check_symmetries(Tensor3(entries))
        assert report.residuals()["sym0"] == pytest.approx(0.1)
        assert not report.ok

    def test_randomized_systems_pass(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            dim = int(rng.integers(1, 7))
            tensor = tensor_of(ObtuseRV(random_system(dim, rng)))
            assert check_symmetries(tensor, tol=1e-10).ok


def reference_symmetries(s: np.ndarray) -> tuple:
    """The sweep as unoptimized einsums over whole d^4 intermediates.

    Returns ``(sym0, sym1, sym2, sym3)`` with sym0 for a constant coordinate.
    """
    sym0 = float(np.max(np.abs(s[:, 0, :] - np.eye(s.shape[0]))))
    sym1 = float(np.max(np.abs(s - s.transpose(1, 0, 2))))
    t2 = np.einsum("imj,klm->ijkl", s, s)
    sym2 = float(np.max(np.abs(t2 - t2.transpose(2, 1, 0, 3))))
    t3 = np.einsum("imj,lmk->ijlk", s, np.conj(s))
    sym3 = float(np.max(np.abs(t3 - t3.transpose(3, 1, 2, 0))))
    return sym0, sym1, sym2, sym3


def assert_sweep_matches_reference(s: np.ndarray):
    """sym0/sym1 bit-equal to the reference, sym2/sym3 within rounding.

    The blocked products sum over m in another order than the einsum loop;
    each of the d terms of an entry carries a rounding error of at most a
    few eps * max|S|^2, so the residuals may differ by 4 eps d max|S|^2.
    """
    sym0, sym1, sym2, sym3 = reference_symmetries(s)
    unit = 4 * np.finfo(float).eps * s.shape[0] * np.max(np.abs(s)) ** 2
    for has_constant in (True, False):
        report = check_symmetries(Tensor3(s, has_constant=has_constant)).residuals()
        assert report.get("sym0") == (sym0 if has_constant else None)
        assert report["sym1"] == sym1
        assert abs(report["sym2"] - sym2) <= unit, (report["sym2"], sym2, unit)
        assert abs(report["sym3"] - sym3) <= unit, (report["sym3"], sym3, unit)


SWEEP_DIMS = (2, 3, 9, 17, 33)


class TestSweepKernel:
    @pytest.mark.parametrize("d", SWEEP_DIMS)
    def test_valid_tensors(self, d):
        tensor = tensor_of(ObtuseRV(random_system(d - 1, np.random.default_rng(d))))
        assert_sweep_matches_reference(tensor.entries)

    @pytest.mark.parametrize("d", SWEEP_DIMS)
    def test_ij_symmetric_tensors(self, d):
        # symmetric in (i, j) only, so sym2 and sym3 are of order max|S|^2
        rng = np.random.default_rng(100 + d)
        z = rng.standard_normal((d, d, d)) + 1j * rng.standard_normal((d, d, d))
        s = z + z.transpose(1, 0, 2)
        assert min(reference_symmetries(s)[2:]) > 1.0
        assert_sweep_matches_reference(s)

    @pytest.mark.parametrize(
        "d, noise",
        [(d, noise) for d in SWEEP_DIMS[:-1] for noise in (1e-12, 1e-9, 1e-6)]
        + [(SWEEP_DIMS[-1], 1e-6)],
    )
    def test_noise_broken_tensors(self, d, noise):
        rng = np.random.default_rng(200 + d)
        s = tensor_of(ObtuseRV(random_system(d - 1, rng))).entries
        s = s + noise * (rng.standard_normal(s.shape) + 1j * rng.standard_normal(s.shape))
        assert_sweep_matches_reference(s)

    def test_violation_in_last_partial_block(self):
        # a valid tensor padded by a dead coordinate c = d - 1, plus one entry
        # S^{xy}_c: the sym2 violation then lives only in the slab j = c,
        # which is alone in the last block of the sweep
        d = 25
        step = _SWEEP_BLOCK_BYTES // (16 * d**3)
        assert 1 < step < d and d % step == 1
        rng = np.random.default_rng(25)
        s = np.zeros((d, d, d), dtype=complex)
        s[:-1, :-1, :-1] = tensor_of(ObtuseRV(random_system(d - 2, rng))).entries
        s[2, 1, d - 1] = 1e-3
        t2 = np.einsum("imj,klm->ijkl", s, s)
        slabs = np.max(np.abs(t2 - t2.transpose(2, 1, 0, 3)), axis=(0, 2, 3))
        assert slabs[-1] > 1e-4 and np.max(slabs[:-1]) < 1e-12
        assert_sweep_matches_reference(s)

    def test_empty_tensor_has_zero_residuals(self):
        report = check_symmetries(Tensor3(np.zeros((0, 0, 0)), has_constant=False))
        assert report.residuals() == {"sym1": 0.0, "sym2": 0.0, "sym3": 0.0}

    def test_empty_tensor_with_constant_is_rejected(self):
        # there is no coordinate 0 to be the constant one
        with pytest.raises(DimensionMismatch):
            check_symmetries(Tensor3(np.zeros((0, 0, 0))))

    def test_sweep_memory_is_bounded(self):
        # the d^4 intermediates of the einsum sweep peak at 63 MiB at d = 33
        tensor = tensor_of(ObtuseRV(random_system(32, np.random.default_rng(0))))
        check_symmetries(tensor)
        tracemalloc.start()
        try:
            check_symmetries(tensor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, peak / 2**20


class TestUniqueness:
    def test_recovers_applied_rotation(self, reference_rv):
        theta = 0.7
        u_true = np.diag([np.exp(1j * theta), 1.0])
        rotated = ObtuseRV(
            ObtuseSystem(
                values=reference_rv.values @ u_true.T,
                probabilities=reference_rv.probabilities,
            )
        )
        u, sigma = relate_same_probabilities(reference_rv, rotated)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-12
        # probabilities are distinct, so the matching is the identity
        assert list(sigma) == [0, 1, 2]
        np.testing.assert_allclose(u, u_true, atol=1e-10)

    def test_identity_relation(self, reference_rv):
        u, sigma = relate_same_probabilities(reference_rv, reference_rv)
        np.testing.assert_allclose(u, np.eye(2), atol=1e-10)
        assert list(sigma) == [0, 1, 2]

    def test_relates_to_canonical_real_system(self, reference_rv):
        real_sys = system_from_probabilities(REFERENCE_PROBS)
        u, sigma = relate_same_probabilities(
            reference_rv, ObtuseRV(real_sys)
        )
        residual = np.max(
            np.abs(reference_rv.values @ u.T - real_sys.values[sigma])
        )
        assert residual <= 1e-10

    def test_tied_probabilities_are_matched(self):
        rng = np.random.default_rng(5)
        base = system_from_probabilities([0.25, 0.25, 0.25, 0.25])
        u_true = haar_unitary(3, rng)
        rotated = ObtuseRV(
            ObtuseSystem(values=base.values @ u_true.T, probabilities=base.probabilities)
        )
        u, sigma = relate_same_probabilities(ObtuseRV(base), rotated)
        residual = np.max(np.abs(base.values @ u.T - rotated.values[sigma]))
        assert residual <= 1e-9

    def test_uniform_fifteen_dimensional_system(self):
        # 16 tied atoms: one matching, no search over 16! permutations
        base = system_from_probabilities(np.full(16, 1.0 / 16))
        u_true = haar_unitary(15, np.random.default_rng(15))
        rotated = ObtuseRV(
            ObtuseSystem(values=base.values @ u_true.T, probabilities=base.probabilities)
        )
        tracemalloc.start()
        start = time.perf_counter()
        try:
            u, sigma = relate_same_probabilities(ObtuseRV(base), rotated)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 2**20
        assert np.max(np.abs(base.values @ u.T - rotated.values[sigma])) <= 1e-9
        assert np.max(np.abs(u.conj().T @ u - np.eye(15))) <= 1e-12

    def test_light_atom_does_not_excuse_a_broken_match(self):
        # corner 4.6e-4: at tol max|v|^2 = 0.1 the relation would be accepted
        x = ObtuseRV(system_from_probabilities([1e-8, 0.3, 0.3, 0.4 - 1e-8]))
        values = x.values.copy()
        values[1] *= 1 + 1e-3
        y = ObtuseRV(ObtuseSystem(values=values, probabilities=x.probabilities))
        with pytest.raises(AmbiguousMatching):
            relate_same_probabilities(x, y)

    def test_probability_mismatch_raises(self, reference_rv):
        other = ObtuseRV(system_from_probabilities([0.5, 0.3, 0.2]))
        with pytest.raises(ProbabilityMismatch):
            relate_same_probabilities(reference_rv, other)


class TestEmbedding:
    def test_identity_embedding(self, reference_rv):
        a = embed_general(
            reference_rv.values, reference_rv.probabilities, reference_rv
        )
        np.testing.assert_allclose(a, np.eye(2), atol=1e-10)

    def test_four_point_variable_in_c2(self):
        values = np.array(
            [[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=complex
        )
        probs = np.full(4, 0.25)
        y = ObtuseRV(system_from_probabilities(probs))
        a = embed_general(values, probs, y)
        assert a.shape == (2, 3)
        np.testing.assert_allclose(a @ a.conj().T, np.eye(2), atol=1e-10)
        np.testing.assert_allclose(a @ y.values.T, values.T, atol=1e-10)

    def test_bernoulli_embeds_into_itself(self):
        rv = bernoulli_rv()
        a = embed_general(rv.values, rv.probabilities, rv)
        np.testing.assert_allclose(a, [[1.0]], atol=1e-12)

    def test_light_atom_does_not_excuse_a_broken_isometry(self):
        x = ObtuseRV(system_from_probabilities([1e-8, 0.3, 0.3, 0.4 - 1e-8]))
        values = x.values.copy()
        values[1] *= 1 + 1e-3
        y = ObtuseRV(ObtuseSystem(values=values, probabilities=x.probabilities))
        with pytest.raises(SingularSystem):
            embed_general(x.values, x.probabilities, y)

    def test_minimal_support_enforced(self):
        rv = bernoulli_rv()
        with pytest.raises(MinimalSupport):
            embed_general(
                np.array([[1, 1], [-1, -1]], dtype=complex), [0.5, 0.5], rv
            )


class TestGenerators:
    def test_canonical_real_system(self):
        system = system_from_probabilities(REFERENCE_PROBS)
        assert np.max(np.abs(system.values.imag)) == 0.0
        report = validate_obtuse_system(system.values)
        assert report.ok
        np.testing.assert_allclose(system.probabilities, REFERENCE_PROBS, atol=1e-14)

    def test_strict_subfamilies_have_full_rank(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            dim = int(rng.integers(2, 7))
            system = random_system(dim, rng)
            for drop in range(dim + 1):
                sub = np.delete(system.values, drop, axis=0)
                smallest = np.linalg.svd(sub, compute_uv=False)[-1]
                assert smallest > 1e-8

    @given(dim=st.integers(1, 6), seed=st.integers(0, 10**6))
    @settings(deadline=None, max_examples=30, derandomize=True)
    def test_random_systems_satisfy_derived_identities(self, dim, seed):
        rng = np.random.default_rng(seed)
        system = random_system(dim, rng)
        report = validate_obtuse_system(system.values)
        assert report.ok
        assert report.prob_sum_residual <= 1e-12
        assert report.mean_residual <= 1e-10
        assert report.identity_residual <= 1e-10


def _result_makers():
    """Builders of each result type that holds arrays, one call per object."""
    values = REFERENCE_VALUES
    rv = lambda: ow.ObtuseRV.from_values(values)  # noqa: E731
    tensor = lambda: ow.tensor_of(rv())  # noqa: E731
    spec = lambda: ow.classify(ow.limit_tensor(ow.TensorFamily.constant(tensor())))  # noqa: E731
    path = lambda: ow.walk_path(rv(), 0.01, 1.0)  # noqa: E731
    grid = [0.5, 1.0]
    return {
        "ObtuseSystem": lambda: ow.ObtuseSystem.from_values([[1.0], [-1.0]]),
        "ObtuseRV": rv,
        "SystemValidation": lambda: ow.validate_obtuse_system(values),
        "Tensor3": tensor,
        "DiagResult": lambda: ow.diagonalize(tensor()),
        "TakagiResult": lambda: ow.takagi(np.array([[1.0, 1j], [1j, 2.0]])),
        "RealificationResult": lambda: ow.realify(tensor()),
        "ChainOperator": lambda: ow.chain_mult_op(tensor(), 1, 2, 0.01),
        "LimitTensorResult": lambda: ow.limit_tensor(ow.TensorFamily.constant(tensor())),
        "LimitSpec": spec,
        "Path": path,
        "BracketEstimate": lambda: ow.empirical_brackets(path()),
        "MomentReport": lambda: ow.distribution_compare(
            ow.walk_ensemble(rv(), 0.01, grid, 10), ow.limit_ensemble(spec(), grid, 10), grid
        ),
    }


@pytest.mark.parametrize("name", list(_result_makers()))
def test_results_holding_arrays_compare_by_identity(name):
    # the generated == compares tuples of arrays, which numpy cannot reduce to one bool
    make = _result_makers()[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a == a and a != b
    assert hash(a) == hash(a) != hash(b)
    assert len({a, b, a}) == 2


def test_reports_of_numbers_compare_by_value():
    tensor = ow.tensor_of(ow.ObtuseRV.from_values(REFERENCE_VALUES))
    assert ow.check_symmetries(tensor) == ow.check_symmetries(Tensor3(tensor.entries.copy()))
    inner = ow.limit_tensor(ow.TensorFamily.constant(tensor)).tensor
    twin = Tensor3(inner.entries.copy(), has_constant=inner.has_constant)
    assert ow.check_limit_symmetries(inner) == ow.check_limit_symmetries(twin)
    at = lambda h: tensor  # noqa: E731
    steps = (0.1, 0.01, 0.001)
    assert ow.TensorFamily(at, steps) == ow.TensorFamily(at, steps)
