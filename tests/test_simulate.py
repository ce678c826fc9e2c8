"""Path simulation, bracket estimation, and moment comparison."""

import json
import resource
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from obtusewalk import (
    ObtuseRV,
    TensorFamily,
    classify,
    distribution_compare,
    empirical_brackets,
    limit_ensemble,
    limit_path,
    limit_tensor,
    tensor_of,
    walk_ensemble,
    walk_path,
)
from obtusewalk import obtuse, simulate
from obtusewalk.errors import (
    DimensionMismatch,
    NonPositiveStep,
    PathTooLarge,
    TooFewIncrements,
    TooManyJumps,
)
from obtusewalk.limits import DEFAULT_STEPS, LimitSpec
from obtusewalk.obtuse import Tensor3, haar_unitary, random_system
from conftest import REFERENCE_PROBS, REFERENCE_VALUES, bernoulli_rv, child_env, jump_rv


@pytest.fixture(scope="module")
def reference_spec():
    rv = ObtuseRV.from_values(REFERENCE_VALUES)
    return classify(limit_tensor(TensorFamily.constant(tensor_of(rv))))


@pytest.fixture(scope="module")
def jump_spec():
    family = TensorFamily(
        tensor_at=lambda h: tensor_of(jump_rv(h)), steps=DEFAULT_STEPS
    )
    return classify(limit_tensor(family), tol=1e-7)


def brownian_1d_spec():
    entries = np.zeros((2, 2, 2), dtype=complex)
    entries[:, 0, :] = np.eye(2)
    entries[0, :, :] = np.eye(2)
    entries[1, 1, 0] = 1.0
    return classify(Tensor3(entries, has_constant=True))


def poisson_spec(intensities):
    """Pure-jump spec: coordinate m jumps by 1/sqrt(intensity m)."""
    rates = np.asarray(intensities, dtype=float)
    dim = len(rates)
    return LimitSpec(
        dim=dim,
        tensor=Tensor3(np.zeros((dim, dim, dim), dtype=complex), has_constant=False),
        lambda_matrix=np.eye(dim, dtype=complex),
        v_matrix=np.eye(dim, dtype=complex),
        poisson_dirs=np.diag(1.0 / np.sqrt(rates)).astype(complex),
        intensities=rates,
        brownian_basis=np.zeros((0, dim), dtype=complex),
    )


def complex_walk_ensemble(rv, h, t_grid, n_paths, seed):
    """Reference for ``walk_ensemble``: the same draws, one complex product per time."""
    steps = np.floor(np.asarray(t_grid) / h * (1 + simulate.STEP_RTOL)).astype(int)
    rng = np.random.default_rng([seed])
    out = np.zeros((n_paths, len(steps), rv.dim), dtype=complex)
    counts = np.zeros((n_paths, len(rv.probabilities)))
    prev = 0
    for idx, s in enumerate(steps):
        if s > prev:
            counts = counts + rng.multinomial(s - prev, rv.probabilities, size=n_paths)
            prev = s
        out[:, idx, :] = (np.sqrt(h) * counts).astype(complex) @ rv.values
    return out


def complex_limit_ensemble(spec, t_grid, n_paths, seed):
    """Reference for ``limit_ensemble``: the same draws, complex products."""
    grid = np.asarray(t_grid, dtype=float)
    rng = np.random.default_rng([seed])
    out = np.zeros((n_paths, len(grid), spec.dim), dtype=complex)
    dts = np.diff(np.concatenate([[0.0], grid]))
    if spec.n_brownian:
        db = rng.normal(0.0, 1.0, size=(n_paths, len(grid), spec.n_brownian))
        b = np.cumsum(db * np.sqrt(dts)[None, :, None], axis=1)
        out = out + b.astype(complex) @ spec.brownian_basis
    for v, lam in zip(spec.poisson_dirs, spec.intensities):
        dn = rng.poisson(lam * dts, size=(n_paths, len(grid)))
        compensated = np.cumsum(dn, axis=1) - lam * grid[None, :]
        out = out + compensated[:, :, None] * v[None, None, :]
    return out


def mixed_spec(n, seed):
    """A spec with n // 2 Poisson directions and n - n // 2 Brownian ones: the rows of
    a random unitary, the Poisson rows scaled by 1/sqrt of rates in [5, 50]."""
    u = haar_unitary(n, np.random.default_rng(seed))
    k = n // 2
    rates = np.linspace(5.0, 50.0, k)
    return LimitSpec(
        dim=n,
        tensor=Tensor3(np.zeros((n, n, n), dtype=complex), has_constant=False),
        lambda_matrix=np.eye(n, dtype=complex),
        v_matrix=np.eye(n, dtype=complex),
        poisson_dirs=u[:k] / np.sqrt(rates)[:, None],
        intensities=rates,
        brownian_basis=u[k:],
    )


def per_increment_brackets(path):
    """Oracle for ``empirical_brackets``: the (n, N, N) arrays of increment products
    dz^i dz^j and conj(dz^i) dz^j, their sums, and standard errors sqrt(n var)
    from the two-pass sample variances of their real and imaginary parts.

    Returns bracket, se_bracket, conj_bracket, se_conj_bracket.
    """
    dz = path.increments
    out = []
    for prod in (dz[:, :, None] * dz[:, None, :], np.conj(dz)[:, :, None] * dz[:, None, :]):
        var = prod.real.var(axis=0, ddof=1) + prod.imag.var(axis=0, ddof=1)
        out += [prod.sum(axis=0), np.maximum(np.sqrt(len(prod) * var), simulate.SE_FLOOR)]
    return out


# the values' bytes, the increments counted and the worst sigma of the brackets
# of a seeded N = 32 limit path with 10^5 increments, printed as JSON
LONG_PATH_BRACKETS = """
import json
import numpy as np
from obtusewalk import (
    ObtuseRV, TensorFamily, classify, empirical_brackets, limit_path, limit_tensor,
    random_system, tensor_of,
)
system = ObtuseRV(random_system(32, np.random.default_rng(32)))
spec = classify(limit_tensor(TensorFamily.constant(tensor_of(system))))
path = limit_path(spec, 1.0, 1e-5)
est = empirical_brackets(path, spec)
worst = max(np.max(est.sigmas_bracket()), np.max(est.sigmas_conj_bracket()))
print(json.dumps([path.values.nbytes, est.n_increments, float(worst)]))
"""


def per_time_moments(values):
    """Oracle for the Gram moment kernel: complex moments, one grid time at a time.

    Returns mean, E[conj(Z) Z^T], E[Z Z^T] and E|Z_i|^4 with the time axis
    first, like ``simulate._moments``.
    """
    n = values.shape[0]
    moments = [[], [], [], []]
    for k in range(values.shape[1]):
        z = values[:, k, :]
        moments[0].append(z.mean(axis=0))
        moments[1].append(np.einsum("pi,pj->ij", np.conj(z), z) / n)
        moments[2].append(np.einsum("pi,pj->ij", z, z) / n)
        moments[3].append((np.abs(z) ** 4).mean(axis=0))
    return [np.array(m) for m in moments]


def constant_spec(rv):
    return classify(limit_tensor(TensorFamily.constant(tensor_of(rv))))


class TestStepCount:
    # t/h rounds to just below an integer here; the path and the ensemble
    # used to disagree by one step
    @pytest.mark.parametrize(
        "h, T, n", [(1e-4, 1.6401, 16401), (1e-3, 16.391, 16391), (1e-5, 0.16387, 16387)]
    )
    def test_path_and_ensemble_take_the_same_steps(self, h, T, n):
        assert T / h < n
        assert simulate._step_count(T, h) == n
        path = walk_path(bernoulli_rv(), h, T, seed=0)
        assert len(path.times) == n + 1
        # the ensemble's step rule takes k steps by the k-th fine-grid time
        assert np.array_equal(simulate._step_count(path.times, h), np.arange(n + 1))
        assert path.times[-1] == pytest.approx(T, rel=1e-12)

    def test_horizon_below_one_step(self):
        with pytest.raises(NonPositiveStep):
            walk_path(bernoulli_rv(), 0.1, 0.09)


# the reference grid, and one with repeated times and t = 0
EDGE_GRIDS = [np.linspace(0.1, 1.0, 10), [0, 0, 0.1, 0.1, 0.35]]


class TestRealArithmetic:
    """The real split products reproduce the complex products on the same draws."""

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_walk_ensemble_matches_complex_products(self, n):
        rv = ObtuseRV(random_system(n, np.random.default_rng(n)))
        grid = np.linspace(0.1, 1.0, 10)
        for h in (0.01, 0.001):
            got = walk_ensemble(rv, h, grid, 500, seed=3)
            want = complex_walk_ensemble(rv, h, grid, 500, seed=3)
            if n == 1:
                # two atoms: dgemm and zgemm may round the two-term sum differently
                eps = np.finfo(float).eps
                assert np.max(np.abs(got - want)) <= 4 * eps * np.max(np.abs(want))
            else:
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_limit_ensemble_matches_complex_products(self, n, jump_spec):
        grid = np.linspace(0.1, 1.0, 10)
        spec = constant_spec(ObtuseRV(random_system(n, np.random.default_rng(n))))
        for s in (spec, jump_spec, poisson_spec([30.0, 70.0])):
            got = limit_ensemble(s, grid, 500, seed=4)
            assert np.array_equal(got, complex_limit_ensemble(s, grid, 500, seed=4))


    @pytest.mark.parametrize("grid", EDGE_GRIDS, ids=["linspace", "repeated"])
    @pytest.mark.parametrize("n_paths", [0, 1])
    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_walk_ensemble_matches_complex_products_at_few_paths(self, n, n_paths, grid):
        rv = ObtuseRV(random_system(n, np.random.default_rng(n)))
        for h in (0.01, 0.001):
            got = walk_ensemble(rv, h, grid, n_paths, seed=3)
            want = complex_walk_ensemble(rv, h, grid, n_paths, seed=3)
            assert got.shape == want.shape == (n_paths, len(grid), n)
            if n == 1 or n_paths == 1:
                # one row or one column: numpy runs each product as gemv (zgemv
                # for the reference), which rounds differently from dgemm
                eps = np.finfo(float).eps
                assert np.all(np.abs(got - want) <= 8 * eps * np.max(np.abs(want), initial=1.0))
            else:
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("grid", EDGE_GRIDS, ids=["linspace", "repeated"])
    @pytest.mark.parametrize("n_paths", [0, 1])
    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_limit_ensemble_matches_complex_products_at_few_paths(
        self, n, n_paths, grid, jump_spec
    ):
        spec = constant_spec(ObtuseRV(random_system(n, np.random.default_rng(n))))
        for s in (spec, jump_spec, poisson_spec([30.0, 70.0]), brownian_1d_spec()):
            got = limit_ensemble(s, grid, n_paths, seed=4)
            assert got.shape == (n_paths, len(grid), s.dim)
            assert np.array_equal(got, complex_limit_ensemble(s, grid, n_paths, seed=4))

    def test_ensembles_are_views_of_time_major_buffers(self, jump_spec):
        rv = ObtuseRV.from_values(REFERENCE_VALUES)
        grid = np.linspace(0.1, 1.0, 10)
        for values in (walk_ensemble(rv, 0.01, grid, 50), limit_ensemble(jump_spec, grid, 50)):
            assert values.shape == (50, 10, 2)
            assert values.transpose(1, 0, 2).flags.c_contiguous


class TestWalkPath:
    def test_reproducible(self):
        rv = ObtuseRV.from_values(REFERENCE_VALUES)
        a = walk_path(rv, 0.01, 1.0, seed=5)
        b = walk_path(rv, 0.01, 1.0, seed=5)
        np.testing.assert_array_equal(a.values, b.values)
        c = walk_path(rv, 0.01, 1.0, seed=5, path_index=1)
        assert not np.array_equal(a.values, c.values)

    def test_single_step_hits_an_atom(self):
        rv = ObtuseRV.from_values(REFERENCE_VALUES)
        # pick a seed whose first draw is atom 0
        for seed in range(50):
            path = walk_path(rv, 0.04, 0.04, seed=seed)
            if np.max(np.abs(path.values[1] - 0.2 * rv.values[0])) < 1e-14:
                return
        pytest.fail("no seed below 50 drew atom 0 first")

    def test_steps_live_on_the_atoms(self):
        rv = ObtuseRV.from_values(REFERENCE_VALUES)
        path = walk_path(rv, 0.25, 1.0, seed=2)
        increments = path.increments / 0.5
        for inc in increments:
            assert min(np.max(np.abs(inc - v)) for v in rv.values) <= 1e-12

    def test_atom_frequencies(self):
        rv = ObtuseRV.from_values(REFERENCE_VALUES)
        n = 100_000
        path = walk_path(rv, 1.0, float(n), seed=0)
        counts = np.zeros(3)
        for inc in path.increments:
            idx = int(np.argmin([np.max(np.abs(inc - v)) for v in rv.values]))
            counts[idx] += 1
        freq = counts / n
        bound = 4 * np.sqrt(REFERENCE_PROBS * (1 - REFERENCE_PROBS) / n)
        assert np.all(np.abs(freq - REFERENCE_PROBS) <= bound)

    def test_mean_is_centered(self):
        rv = ObtuseRV.from_values(REFERENCE_VALUES)
        values = walk_ensemble(rv, 0.01, [1.0], 4000, seed=0)
        mean = values[:, -1, :].mean(axis=0)
        assert np.max(np.abs(mean)) <= 4.0 / np.sqrt(4000)


class TestLimitPath:
    def test_pure_brownian_variance(self):
        spec = brownian_1d_spec()
        values = limit_ensemble(spec, [1.0], 20_000, seed=0)[:, -1, 0]
        assert abs(values.imag).max() <= 1e-12
        assert np.var(values.real) == pytest.approx(1.0, abs=0.05)

    def test_jump_membership(self, jump_spec):
        path = limit_path(jump_spec, 5.0, 0.01, seed=9)
        assert len(path.jump_times) > 0
        assert set(path.jump_dirs) <= {0}
        # jumps enter coordinate 1 with real size 1/sqrt(2)
        v = jump_spec.poisson_dirs[0]
        assert v[0] == pytest.approx(1 / np.sqrt(2), abs=1e-8)

    def test_continuous_part_purely_imaginary_in_coord_one(self, jump_spec):
        # remove the compensated jumps; what is left is i * real in coord 1
        path = limit_path(jump_spec, 1.0, 0.001, seed=11)
        lam = jump_spec.intensities[0]
        v = jump_spec.poisson_dirs[0]
        counts = np.searchsorted(path.jump_times, path.times, side="right")
        continuous = path.values - np.outer(counts - lam * path.times, v)
        assert np.max(np.abs(continuous[:, 0].real)) <= 1e-9

    def test_walk_and_limit_normalization(self, reference_spec):
        rv = ObtuseRV.from_values(REFERENCE_VALUES)
        n = 20_000
        walk_final = walk_ensemble(rv, 0.01, [1.0], n, seed=0)[:, -1, :]
        cov = np.einsum("pi,pj->ij", np.conj(walk_final), walk_final) / n
        assert np.max(np.abs(cov - np.eye(2))) <= 0.05
        lim_final = limit_ensemble(reference_spec, [1.0], n, seed=0)[:, -1, :]
        cov_conj = np.einsum("pi,pj->ij", np.conj(lim_final), lim_final) / n
        cov_plain = np.einsum("pi,pj->ij", lim_final, lim_final) / n
        assert np.max(np.abs(cov_conj - np.eye(2))) <= 0.05
        assert np.max(np.abs(cov_plain - reference_spec.lambda_matrix)) <= 0.05

    def test_reproducible(self, jump_spec):
        a = limit_path(jump_spec, 1.0, 0.01, seed=4)
        b = limit_path(jump_spec, 1.0, 0.01, seed=4)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.jump_times, b.jump_times)


class TestPoissonJumps:
    def test_counts_are_poisson(self):
        # N_T of each direction over 2000 seeds: mean and variance both lam*T
        rates, T, n = np.array([30.0, 70.0]), 1.0, 2000
        spec = poisson_spec(rates)
        counts = np.zeros((n, 2))
        for seed in range(n):
            path = limit_path(spec, T, 0.1, seed=seed)
            counts[seed] = np.bincount(path.jump_dirs, minlength=2)
        mean_t = rates * T
        # standard errors of the sample mean and variance of a Poisson(mu)
        # sample: sqrt(mu / n) and sqrt((mu + 2 mu^2) / n)
        assert np.all(np.abs(counts.mean(axis=0) - mean_t) <= 5 * np.sqrt(mean_t / n))
        var_se = np.sqrt((mean_t + 2 * mean_t**2) / n)
        assert np.all(np.abs(counts.var(axis=0, ddof=1) - mean_t) <= 5 * var_se)

    def test_jump_times_sorted_and_inside_horizon(self):
        spec = poisson_spec([30.0, 70.0])
        for seed in range(20):
            path = limit_path(spec, 1.0, 0.01, seed=seed)
            assert np.all(np.diff(path.jump_times) >= 0.0)
            assert path.jump_times.min() >= 0.0 and path.jump_times.max() <= 1.0
            # each value is the compensated count of each direction so far
            before = path.jump_times[None, :] <= path.times[:, None]
            counts = np.stack(
                [np.sum(before & (path.jump_dirs == m), axis=1) for m in range(2)], axis=1
            )
            expected = (counts - np.outer(path.times, spec.intensities)) @ spec.poisson_dirs
            assert np.max(np.abs(path.values - expected)) <= 1e-12

    def test_huge_intensity_fails_fast(self):
        spec = poisson_spec([1e12])
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(TooManyJumps):
                limit_path(spec, 1.0, 0.01)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 2**20

    def test_budget_admits_the_expected_log(self):
        # a float64 time and an int64 direction per jump, at 3x while drawing
        max_jumps = obtuse.MEMORY_BYTES // (3 * (np.dtype(float).itemsize + np.dtype(int).itemsize))
        with pytest.raises(TooManyJumps):
            limit_path(poisson_spec([1.01 * max_jumps]), 1.0, 0.5)
        path = limit_path(poisson_spec([1e5]), 1.0, 0.5)
        assert abs(len(path.jump_times) - 1e5) <= 5 * np.sqrt(1e5)


def mixed_spec(n, k):
    """Spec in C^n with k jump directions (rate 2) and n - k Brownian ones."""
    rng = np.random.default_rng(0)
    q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    return LimitSpec(
        dim=n,
        tensor=Tensor3(np.zeros((n, n, n), dtype=complex), has_constant=False),
        lambda_matrix=np.eye(n, dtype=complex),
        v_matrix=np.eye(n, dtype=complex),
        poisson_dirs=q[:k],
        intensities=np.full(k, 2.0),
        brownian_basis=q[k:],
    )


class TestBadGrids:
    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: limit_path(poisson_spec([1.0]), 1.0, 1e-12), PathTooLarge),
            (lambda: limit_path(poisson_spec([1.0]), np.inf, 0.01), PathTooLarge),
            (lambda: limit_path(poisson_spec([1.0]), np.nan, 0.01), NonPositiveStep),
            (lambda: limit_path(poisson_spec([1.0]), 1.0, np.nan), NonPositiveStep),
            (lambda: limit_path(poisson_spec([1.0]), 1.0, np.inf), NonPositiveStep),
            (lambda: limit_ensemble(poisson_spec([1.0]), [np.nan], 10), DimensionMismatch),
            (lambda: limit_ensemble(poisson_spec([1.0]), [np.inf], 10), DimensionMismatch),
            (lambda: limit_ensemble(poisson_spec([1e20]), [1.0], 10), TooManyJumps),
            (lambda: limit_ensemble(poisson_spec([1.0]), [1.0], -1), DimensionMismatch),
            (lambda: walk_path(bernoulli_rv(), 1e-12, 1e6), PathTooLarge),
            (lambda: walk_path(bernoulli_rv(), 0.01, np.inf), PathTooLarge),
            (lambda: walk_path(bernoulli_rv(), np.nan, 1.0), NonPositiveStep),
            (lambda: walk_ensemble(bernoulli_rv(), np.nan, [1.0], 10), NonPositiveStep),
            (lambda: walk_ensemble(bernoulli_rv(), np.inf, [1.0], 10), NonPositiveStep),
            (lambda: walk_ensemble(bernoulli_rv(), 1e-300, [1.0], 10), NonPositiveStep),
            (lambda: walk_ensemble(bernoulli_rv(), 0.01, [np.nan], 10), DimensionMismatch),
            (lambda: walk_ensemble(bernoulli_rv(), 0.01, [np.inf], 10), DimensionMismatch),
            (lambda: walk_ensemble(bernoulli_rv(), 0.01, [1.0], -1), DimensionMismatch),
            (lambda: walk_ensemble(bernoulli_rv(), 0.01, [1.0], 2.5), DimensionMismatch),
            (lambda: limit_ensemble(poisson_spec([1.0]), [1.0], 2.5), DimensionMismatch),
        ],
        ids=[
            "path-dt-1e-12",
            "path-T-inf",
            "path-T-nan",
            "path-dt-nan",
            "path-dt-inf",
            "ensemble-nan",
            "ensemble-inf",
            "ensemble-rate-1e20",
            "ensemble-negative-paths",
            "walk-path-h-1e-12",
            "walk-path-T-inf",
            "walk-path-h-nan",
            "walk-ensemble-h-nan",
            "walk-ensemble-h-inf",
            "walk-ensemble-h-1e-300",
            "walk-ensemble-nan",
            "walk-ensemble-inf",
            "walk-ensemble-negative-paths",
            "walk-ensemble-fractional-paths",
            "ensemble-fractional-paths",
        ],
    )
    def test_fails_fast(self, call, error):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(error):
                call()
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 2**20

    def test_numpy_integer_path_counts(self):
        # 8 bytes * 2 atoms * 200 paths overflows uint8 arithmetic
        for count in (np.int64(200), np.uint8(200)):
            assert walk_ensemble(bernoulli_rv(), 0.01, [1.0], count).shape == (200, 1, 1)
            assert limit_ensemble(poisson_spec([1.0]), [1.0], count).shape == (200, 1, 1)

    @pytest.mark.parametrize("n, k", [(1, 1), (4, 0), (4, 2), (8, 8)])
    def test_budget_bounds_the_real_allocation(self, monkeypatch, n, k):
        monkeypatch.setattr(obtuse, "MEMORY_BYTES", 2**22)
        spec = mixed_spec(n, k)
        # the grid shares the budget with the jump log of 2k expected jumps on [0, 1]
        log_bytes = simulate._BYTES_PER_JUMP * 2 * k
        rows = (obtuse.MEMORY_BYTES - log_bytes) // simulate._grid_row_bytes(n)
        with pytest.raises(PathTooLarge):
            limit_path(spec, 1.0, 1.0 / rows)
        tracemalloc.start()
        try:
            path = limit_path(spec, 1.0, 1.0 / (rows - 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(path.times) == rows
        assert peak <= obtuse.MEMORY_BYTES

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_walk_budget_bounds_the_real_allocation(self, monkeypatch, n):
        monkeypatch.setattr(obtuse, "MEMORY_BYTES", 2**22)
        rv = ObtuseRV(random_system(n, np.random.default_rng(n)))
        rows = obtuse.MEMORY_BYTES // simulate._grid_row_bytes(n)
        with pytest.raises(PathTooLarge):
            walk_path(rv, 1.0 / rows, 1.0)
        tracemalloc.start()
        try:
            path = walk_path(rv, 1.0 / (rows - 1), 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(path.times) == rows
        assert peak <= obtuse.MEMORY_BYTES


class TestEnsembleBudget:
    """An ensemble over ``MEMORY_BYTES`` fails before anything is allocated."""

    @pytest.mark.parametrize("kind", ["walk", "limit"])
    def test_fails_fast(self, kind):
        # 1e11 paths at one grid time take 2.91 TiB at N = 2
        rv = ObtuseRV.from_values(REFERENCE_VALUES)
        tracemalloc.start()
        try:
            with pytest.raises(PathTooLarge):
                if kind == "walk":
                    walk_ensemble(rv, 0.01, [1.0], 10**11)
                else:
                    limit_ensemble(mixed_spec(2, 1), [1.0], 10**11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_admits_the_recorded_ensembles(self):
        # 1e5 paths at 10 times in C^32, and the 1e4-path ensembles at N = 8
        assert 10**5 * 10 <= obtuse.MEMORY_BYTES // simulate._grid_row_bytes(32)
        assert 10**4 * 10 <= obtuse.MEMORY_BYTES // simulate._grid_row_bytes(8)

    @pytest.mark.parametrize("n, n_t", [(1, 1), (2, 1), (8, 1), (2, 10), (8, 10)])
    def test_budget_bounds_the_real_allocation(self, monkeypatch, n, n_t):
        monkeypatch.setattr(obtuse, "MEMORY_BYTES", 2**22)
        rv = ObtuseRV(random_system(n, np.random.default_rng(n)))
        grid = np.linspace(0.1, 1.0, n_t)
        paths = obtuse.MEMORY_BYTES // (simulate._grid_row_bytes(n) * n_t)
        for sample in (
            lambda count: walk_ensemble(rv, 0.01, grid, count),
            lambda count: limit_ensemble(mixed_spec(n, 0), grid, count),
            lambda count: limit_ensemble(mixed_spec(n, n), grid, count),
        ):
            with pytest.raises(PathTooLarge):
                sample(paths + 1)
            tracemalloc.start()
            try:
                values = sample(paths)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert values.shape == (paths, n_t, n)
            assert peak <= obtuse.MEMORY_BYTES
            del values


class TestOneSampler:
    """Paths are the ensemble samplers on a fine grid that ends at T."""

    @pytest.mark.parametrize("T, times", [(0.25, [0, 0.1, 0.2, 0.25]), (0.3, [0, 0.1, 0.2, 0.3])])
    def test_fine_grid_ends_at_the_horizon(self, T, times):
        # 3 * 0.1 rounds above 0.3, so the multiples below 0.3 stop at 0.2
        walk = walk_path(bernoulli_rv(), 0.1, T, seed=1)
        limit = limit_path(brownian_1d_spec(), T, 0.1, seed=1)
        assert walk.times.tolist() == limit.times.tolist() == times
        if T == 0.25:
            # no step falls in (0.2, 0.25]
            assert np.array_equal(walk.values[-1], walk.values[-2])

    def test_path_is_the_sampler_on_its_grid(self, jump_spec):
        rv = ObtuseRV.from_values(REFERENCE_VALUES)
        walk = walk_path(rv, 0.01, 1.0, seed=5, path_index=2)
        rng = np.random.default_rng([5, 2])
        assert np.array_equal(walk.values, simulate._walk_sample(rv, 0.01, walk.times, 1, rng)[0])
        limit = limit_path(jump_spec, 1.0, 0.01, seed=5, path_index=2)
        rng = np.random.default_rng([5, 2])
        assert np.array_equal(
            limit.values, simulate._limit_sample(jump_spec, limit.times, 1, rng)[0]
        )

    def test_draw_blocks_do_not_change_the_draws(self, monkeypatch):
        rv = ObtuseRV(random_system(3, np.random.default_rng(0)))
        grid = [0.0, 0.0, 0.1, 0.2, 0.3, 0.35, 0.4, 0.5, 0.6, 0.6]
        whole = walk_ensemble(rv, 0.05, grid, 300, seed=8)
        monkeypatch.setattr(simulate, "_DRAW_BLOCK_BYTES", 1)
        assert np.array_equal(walk_ensemble(rv, 0.05, grid, 300, seed=8), whole)

    def test_ensemble_never_holds_all_counts(self):
        # 2000 paths and 200 grid times of 5 steps each, one run: all counts
        # at once would be 9.6 MB of int64 next to the 12.8 MB result
        rv = ObtuseRV(random_system(2, np.random.default_rng(0)))
        tracemalloc.start()
        try:
            values = walk_ensemble(rv, 0.001, np.linspace(0.005, 1.0, 200), 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        all_counts = 200 * 2000 * 3 * np.dtype(int).itemsize
        assert peak - values.nbytes <= all_counts / 4


class TestBrackets:
    def test_pure_brownian_brackets(self):
        spec = brownian_1d_spec()
        path = limit_path(spec, 1.0, 0.0001, seed=1)
        est = empirical_brackets(path, spec=spec)
        assert est.conj_bracket[0, 0].real == pytest.approx(1.0, abs=0.1)
        assert abs(est.bracket[0, 0] - spec.lambda_matrix[0, 0]) <= 0.1
        assert np.max(est.sigmas_bracket()) <= 5.0
        assert np.max(est.sigmas_conj_bracket()) <= 5.0

    def test_diffusion_spec_brackets(self, reference_spec):
        path = limit_path(reference_spec, 1.0, 0.0001, seed=0)
        est = empirical_brackets(path, spec=reference_spec)
        assert np.max(est.sigmas_bracket()) <= 5.0
        assert np.max(est.sigmas_conj_bracket()) <= 5.0
        diag = np.diagonal(est.conj_bracket)
        assert np.all(diag.real >= 0.0)
        assert np.max(np.abs(diag.imag)) <= 1e-12

    def test_jump_spec_brackets(self, jump_spec):
        path = limit_path(jump_spec, 1.0, 0.0001, seed=0)
        est = empirical_brackets(path, spec=jump_spec)
        assert np.max(est.sigmas_bracket()) <= 5.0
        assert np.max(est.sigmas_conj_bracket()) <= 5.0

    def test_equal_summands_read_the_se_floor(self):
        # h a power of two: every value of the +-1 walk is exact, and every
        # squared increment is h, so the sample variances are 0
        rv = bernoulli_rv()
        path = walk_path(rv, 2.0**-10, 1.0, seed=0)
        assert np.all(np.abs(path.increments) == 2.0**-5)
        est = empirical_brackets(path, spec=constant_spec(rv))
        assert est.se_bracket[0, 0] == est.se_conj_bracket[0, 0] == simulate.SE_FLOOR
        assert est.conj_bracket[0, 0] == est.rhs_conj_bracket[0, 0] == 1.0
        assert est.sigmas_conj_bracket()[0, 0] == 0.0

    @pytest.mark.parametrize("n", [1, 2, 8, 16])
    def test_matches_per_increment_oracle(self, n):
        # the Gram kernel sums in another order, and its standard errors come
        # from sum |p|^2 - |sum p|^2 / n instead of two passes: the bounds
        # are those of a 1e3-term float64 sum and of that cancellation
        rv = ObtuseRV(random_system(n, np.random.default_rng(n)))
        specs = [constant_spec(rv), poisson_spec(np.linspace(5.0, 50.0, n)), mixed_spec(n, n)]
        paths = [walk_path(rv, 1e-3, 1.0, seed=n)]
        paths += [limit_path(spec, 1.0, 1e-3, seed=n) for spec in specs]
        for path in paths:
            est = empirical_brackets(path)
            bracket, se, conj_bracket, se_conj = per_increment_brackets(path)
            for got, want in ((est.bracket, bracket), (est.conj_bracket, conj_bracket)):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            for got, want in ((est.se_bracket, se), (est.se_conj_bracket, se_conj)):
                assert np.all(np.abs(got - want) <= 1e-9 * want)
            assert est.n_increments == len(path.times) - 1

    def test_peak_memory_is_a_few_paths(self):
        # the per-increment products would be 2N = 32 times the path's values
        rv = ObtuseRV(random_system(16, np.random.default_rng(16)))
        path = limit_path(constant_spec(rv), 1.0, 1e-4, seed=0)
        assert len(path.increments) == 10_000
        tracemalloc.start()
        try:
            empirical_brackets(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * path.values.nbytes

    def test_long_path_within_one_gib(self):
        # an N = 32 limit path of 10^5 increments (51 MB of values) in a child
        # process whose address space is capped at 1 GiB: one real Gram product
        # reads the increments, where (n, N, N) arrays of increment products
        # would ask for over 3 GiB
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        done = subprocess.run(
            [sys.executable, "-c", LONG_PATH_BRACKETS], env=child_env(OPENBLAS_NUM_THREADS="1"),
            preexec_fn=cap, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        nbytes, n_increments, worst = json.loads(done.stdout)
        assert nbytes > 5e7 and n_increments == 10**5 and worst <= 5.0, done.stdout

    def test_too_few_increments(self, reference_spec):
        path = limit_path(reference_spec, 0.05, 0.001, seed=0)
        with pytest.raises(TooFewIncrements):
            empirical_brackets(path)


class TestDistributionCompare:
    def test_degenerate_time_zero(self, reference_spec):
        rv = ObtuseRV.from_values(REFERENCE_VALUES)
        wv = walk_ensemble(rv, 0.01, [0.0], 100, seed=0)
        lv = limit_ensemble(reference_spec, [0.0], 100, seed=1)
        report = distribution_compare(wv, lv, [0.0])
        assert report.overall_distance == 0.0

    def test_bernoulli_walk_converges_to_brownian(self):
        # the classical central-limit sanity case in one real dimension
        spec = brownian_1d_spec()
        rv = bernoulli_rv()
        grid = [0.2, 0.4, 0.6, 0.8, 1.0]
        n = 20_000
        overall = []
        for h in (0.1, 0.01, 0.001):
            wv = walk_ensemble(rv, h, grid, n, seed=0)
            lv = limit_ensemble(spec, grid, n, seed=1)
            overall.append(distribution_compare(wv, lv, grid).overall_distance)
        inversions = sum(b > a for a, b in zip(overall, overall[1:]))
        assert inversions <= 1
        assert overall[-1] <= overall[0]

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_moments_match_per_time_oracle(self, n):
        rv = ObtuseRV(random_system(n, np.random.default_rng(10 + n)))
        grid = np.linspace(0.1, 1.0, 10)
        values = walk_ensemble(rv, 0.01, grid, 3000, seed=0)
        for got, want in zip(simulate._moments(values), per_time_moments(values)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), 1.0)

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_moments_do_not_depend_on_the_layout(self, n):
        rv = ObtuseRV(random_system(n, np.random.default_rng(10 + n)))
        values = walk_ensemble(rv, 0.01, np.linspace(0.1, 1.0, 10), 3000, seed=0)
        path_major = np.ascontiguousarray(values)
        for got, want in zip(simulate._moments(values), simulate._moments(path_major)):
            assert np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), 1.0)
        # |Z|^2 and the squares it sums take 1.5 ensembles; a time-major
        # ensemble is read in place, where a copy would add one more
        tracemalloc.start()
        try:
            simulate._moments(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * values.nbytes

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_distances_match_per_time_oracle(self, n):
        rv = ObtuseRV(random_system(n, np.random.default_rng(20 + n)))
        grid = np.linspace(0.1, 1.0, 10)
        wv = walk_ensemble(rv, 0.01, grid, 3000, seed=0)
        lv = limit_ensemble(constant_spec(rv), grid, 3000, seed=1)
        report = distribution_compare(wv, lv, grid)
        got = [
            report.mean_distance,
            report.cov_conj_distance,
            report.cov_plain_distance,
            report.abs4_distance,
        ]
        want = [
            np.max(np.abs(w - lim))
            for w, lim in zip(per_time_moments(wv), per_time_moments(lv))
        ]
        assert got == pytest.approx(want, rel=1e-11)

    def test_moment_families_reported(self, reference_spec):
        rv = ObtuseRV.from_values(REFERENCE_VALUES)
        grid = [0.5, 1.0]
        wv = walk_ensemble(rv, 0.01, grid, 2000, seed=0)
        lv = limit_ensemble(reference_spec, grid, 2000, seed=1)
        report = distribution_compare(wv, lv, grid)
        assert report.covariance_distance >= 0.0
        assert report.overall_distance >= report.covariance_distance
