"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints one PASS/FAIL line (run with ``pytest -s`` to see them).  Runtime
bounds are asserted where a criterion carries one.  Statistical checks pin
seed 0 and their sample sizes, so pass/fail is reproducible.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

from obtusewalk import (
    ObtuseRV,
    TensorFamily,
    chain_mult_op,
    check_symmetries,
    classify,
    diagonalize,
    distribution_compare,
    empirical_brackets,
    is_real_tensor,
    limit_ensemble,
    limit_path,
    limit_tensor,
    mult_op,
    obtuse_fixed_points,
    random_system,
    realify,
    takagi,
    tensor_from_family,
    tensor_of,
    walk_ensemble,
)
from obtusewalk.obtuse import haar_unitary
from obtusewalk.cli import main
from obtusewalk.limits import DEFAULT_STEPS
from obtusewalk.multop import direct_chain_mult_op
from conftest import (
    JUMP_LAMBDA,
    JUMP_M1,
    JUMP_M2,
    JUMP_POISSON_DIR,
    REFERENCE_LAMBDA,
    REFERENCE_PROBS,
    REFERENCE_VALUES,
    bernoulli_rv,
    direct_mult_op,
    greedy_match,
    imaginary_rv,
    jump_rv,
    reference_tensor_entries,
)


@contextmanager
def criterion(num, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {num:2d}] PASS  {description}  ({elapsed:.2f}s)")


def reference_system_doc():
    return {
        "dim": 2,
        "values": [
            [{"re": z.real, "im": z.imag} for z in row] for row in REFERENCE_VALUES
        ],
    }


def test_criterion_1_golden_tensor(tmp_path, capsys):
    with criterion(1, "golden tensor entries via the CLI, <= 1e-12, < 1s"):
        start = time.perf_counter()
        f = tmp_path / "sys.json"
        f.write_text(json.dumps(reference_system_doc()))
        assert main(["tensor", str(f)]) == 0
        out = json.loads(capsys.readouterr().out)
        entries = np.array(
            [
                [[complex(z["re"], z["im"]) for z in row] for row in plane]
                for plane in out["entries"]
            ]
        )
        expected = reference_tensor_entries()
        assert np.max(np.abs(entries - expected)) <= 1e-12
        # spot values called out explicitly
        assert abs(entries[1, 1, 0] - (-(1 - 2j) / 5)) <= 1e-12
        assert abs(entries[2, 2, 1] - (-1j)) <= 1e-12
        assert time.perf_counter() - start < 1.0


def test_criterion_2_symmetry_suite():
    with criterion(
        2, "sym0-sym3 <= 1e-10 on 100 random systems, dims 1..6, + 4 at dims 16, 32, < 10s"
    ):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        # at dim 32 the sweep runs over several blocks of its byte budget
        dims = [1 + k % 6 for k in range(100)] + [16, 16, 32, 32]
        for k, dim in enumerate(dims):
            tensor = tensor_of(ObtuseRV(random_system(dim, rng)))
            report = check_symmetries(tensor, tol=1e-10)
            assert report.ok, (k, dim, report.residuals())
        assert time.perf_counter() - start < 10.0


def test_criterion_3_takagi():
    with criterion(3, "takagi on 200 random dims 2-16: resid<=1e-10, unit<=1e-12, < 30s"):
        start = time.perf_counter()
        rng = np.random.default_rng(1)
        for _ in range(200):
            dim = int(rng.integers(2, 17))
            z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = z + z.T
            result = takagi(m)
            n = m.shape[0]
            assert (
                np.max(np.abs(result.unitary @ np.diag(result.diagonal) @ result.unitary.T - m))
                <= 1e-10
            )
            assert np.max(np.abs(result.unitary.conj().T @ result.unitary - np.eye(n))) <= 1e-12
        assert time.perf_counter() - start < 30.0


def test_criterion_4_diagonalization_bijection():
    with criterion(4, "family<->tensor bijection <= 1e-8 (50 runs); fixed points of the golden tensor"):
        rng = np.random.default_rng(2)
        for _ in range(50):
            dim = int(rng.integers(1, 7))
            count = int(rng.integers(1, dim + 1))
            u = haar_unitary(dim, rng)
            family = u[:, :count].T * rng.uniform(0.4, 2.5, size=(count, 1))
            tensor = tensor_from_family(family)
            recovered = diagonalize(tensor)
            assert greedy_match(recovered.vectors, family) <= 1e-8
            rebuilt = tensor_from_family(recovered.vectors)
            assert np.max(np.abs(rebuilt.entries - tensor.entries)) <= 1e-8
        system = obtuse_fixed_points(
            tensor_of(ObtuseRV.from_values(REFERENCE_VALUES))
        )
        assert greedy_match(system.values, REFERENCE_VALUES) <= 1e-10
        np.testing.assert_allclose(
            np.sort(system.probabilities), np.sort(REFERENCE_PROBS), atol=1e-10
        )


def test_criterion_5_real_criterion():
    with criterion(5, "real-entry tensor of (i,-i) is not real; Bernoulli tensor is"):
        tensor_i = tensor_of(imaginary_rv())
        assert np.max(np.abs(tensor_i.entries.imag)) == 0.0
        assert not is_real_tensor(tensor_i)
        assert is_real_tensor(tensor_of(bernoulli_rv()))


def test_criterion_6_realification():
    with criterion(6, "realify 50 random systems: VVt=S0<=1e-9, |Im R|<=1e-8, probs<=1e-10"):
        rng = np.random.default_rng(3)
        for _ in range(50):
            dim = int(rng.integers(1, 6))
            system = random_system(dim, rng)
            tensor = tensor_of(ObtuseRV(system))
            result = realify(tensor)
            s0 = tensor.entries[:, :, 0]
            assert np.max(np.abs(result.v @ result.v.T - s0)) <= 1e-9
            assert result.imag_residual() <= 1e-8
            np.testing.assert_allclose(
                np.sort(result.real_system.probabilities),
                np.sort(system.probabilities),
                atol=1e-10,
            )


def test_criterion_7_limit_diffusion_example():
    with criterion(7, "h-independent family: inner limit 0, Lambda matches, no jumps"):
        tensor = tensor_of(ObtuseRV.from_values(REFERENCE_VALUES))
        result = limit_tensor(TensorFamily.constant(tensor))
        assert np.max(np.abs(result.tensor.entries[1:, 1:, 1:])) <= 1e-10
        np.testing.assert_allclose(result.lambda_matrix, REFERENCE_LAMBDA, atol=1e-10)
        spec = classify(result)
        assert spec.n_poisson == 0
        assert (
            np.max(np.abs(spec.v_matrix @ spec.v_matrix.T - result.lambda_matrix))
            <= 1e-9
        )
        assert (
            np.max(np.abs(spec.v_matrix.conj().T @ spec.v_matrix - np.eye(2))) <= 1e-12
        )


def test_criterion_8_limit_jump_example():
    with criterion(8, "jump family: limits <= 1e-6, one Poisson dir (1,i)/sqrt2 <= 1e-8"):
        family = TensorFamily(
            tensor_at=lambda h: tensor_of(jump_rv(h)), steps=DEFAULT_STEPS
        )
        result = limit_tensor(family)
        m = result.tensor.entries
        assert np.max(np.abs(m[1:, 1, 1:] - JUMP_M1)) <= 1e-6
        assert np.max(np.abs(m[1:, 2, 1:] - JUMP_M2)) <= 1e-6
        assert np.max(np.abs(result.lambda_matrix - JUMP_LAMBDA)) <= 1e-6
        spec = classify(result, tol=1e-7)
        assert spec.n_poisson == 1
        assert np.max(np.abs(spec.poisson_dirs[0] - JUMP_POISSON_DIR)) <= 1e-8
        assert abs(spec.intensities[0] - 1.0) <= 1e-8
        assert spec.n_brownian == 1
        direction = spec.brownian_basis[0]
        np.testing.assert_allclose(direction / direction[1], [1j, 1.0], atol=1e-7)
        # V is a unitary factor of Lambda (the classification does not pin a
        # particular branch)
        assert np.max(np.abs(spec.v_matrix @ spec.v_matrix.T - spec.lambda_matrix)) <= 1e-9
        assert np.max(np.abs(spec.v_matrix.conj().T @ spec.v_matrix - np.eye(2))) <= 1e-12


def test_criterion_9_multiplication_oracle():
    with criterion(9, "mult ops equal atom-sum oracles (100 runs); chains n=1..3 <= 1e-10"):
        rng = np.random.default_rng(4)
        for _ in range(100):
            dim = int(rng.integers(1, 5))
            rv = ObtuseRV(random_system(dim, rng))
            tensor = tensor_of(rv)
            for i in range(dim + 1):
                assert (
                    np.max(np.abs(mult_op(tensor, i) - direct_mult_op(rv, i))) <= 1e-12
                )
        for dim in (1, 2):
            rv = ObtuseRV(random_system(dim, np.random.default_rng(100 + dim)))
            tensor = tensor_of(rv)
            for n_sites in (1, 2, 3):
                for i in range(dim + 1):
                    built = chain_mult_op(tensor, i, n_sites, 0.01)
                    oracle = direct_chain_mult_op(rv, i, n_sites, 0.01)
                    assert np.max(np.abs(built.matrix - oracle.matrix)) <= 1e-10


def test_criterion_10_statistical_suite():
    n_paths = 20_000
    t_final = 1.0
    start = time.perf_counter()

    reference_rv = ObtuseRV.from_values(REFERENCE_VALUES)
    reference_tensor = tensor_of(reference_rv)
    diffusion_spec = classify(limit_tensor(TensorFamily.constant(reference_tensor)))
    jump_spec = classify(
        limit_tensor(
            TensorFamily(tensor_at=lambda h: tensor_of(jump_rv(h)), steps=DEFAULT_STEPS)
        ),
        tol=1e-7,
    )

    with criterion(10, "statistical suite (a)-(d), seed 0, 2e4 paths, < 5 min"):
        # (a) walk covariance normalization at h = 0.01
        final = walk_ensemble(reference_rv, 0.01, [t_final], n_paths, seed=0)[:, -1, :]
        cov_conj = np.einsum("pi,pj->ij", np.conj(final), final) / n_paths
        assert np.max(np.abs(cov_conj / t_final - np.eye(2))) <= 0.05

        # (b) limit-path covariances against I and Lambda
        for spec in (diffusion_spec, jump_spec):
            final = limit_ensemble(spec, [t_final], n_paths, seed=0)[:, -1, :]
            cov_conj = np.einsum("pi,pj->ij", np.conj(final), final) / n_paths
            cov_plain = np.einsum("pi,pj->ij", final, final) / n_paths
            assert np.max(np.abs(cov_conj / t_final - np.eye(2))) <= 0.05
            assert np.max(np.abs(cov_plain / t_final - spec.lambda_matrix)) <= 0.05

        # (c) realized brackets against the structure right-hand sides
        for spec in (diffusion_spec, jump_spec):
            path = limit_path(spec, t_final, 0.0001, seed=0)
            est = empirical_brackets(path, spec=spec)
            assert np.max(est.sigmas_bracket()) <= 5.0
            assert np.max(est.sigmas_conj_bracket()) <= 5.0

        # (d) covariance distance walk-vs-limit across h; the suite-level
        # distance at each h is the max over the two benchmark walks
        grid = [0.2, 0.4, 0.6, 0.8, 1.0]
        sequences = {}
        for name, rv_at, spec in (
            ("diffusion", lambda h: reference_rv, diffusion_spec),
            ("jump", jump_rv, jump_spec),
        ):
            dists = []
            for h in (0.1, 0.01, 0.001):
                wv = walk_ensemble(rv_at(h), h, grid, n_paths, seed=0)
                lv = limit_ensemble(spec, grid, n_paths, seed=1)
                dists.append(distribution_compare(wv, lv, grid).covariance_distance)
            sequences[name] = dists
        combined = [max(pair) for pair in zip(*sequences.values())]
        print(f"    covariance distances per h=0.1,0.01,0.001: {sequences};"
              f" combined {np.round(combined, 4).tolist()}")
        inversions = sum(b > a for a, b in zip(combined, combined[1:]))
        assert inversions <= 1

        assert time.perf_counter() - start < 300.0
