"""Seeded Monte-Carlo simulation of obtuse walks and their limit martingales.

Walks are sums of sqrt(h)-scaled i.i.d. obtuse variables; limit processes
are built exactly from their classification: independent real Brownian
motions along the Brownian basis plus independent compensated Poisson
processes (rate 1/|v|^2) along each jump direction.  No Euler
discretization error enters anywhere.

One sampler per process draws sufficient statistics of ``n_paths`` paths
on a grid of times, exact in distribution there: the walk sampler the
multinomial atom counts of each grid interval in turn (nothing for an
interval without steps), the limit sampler all Gaussian increments in one
``normal`` call, then the Poisson counts of all intervals in one
``poisson`` call per jump direction, in spec order.  An ensemble is a
sampler on the requested grid, a path a sampler with ``n_paths = 1`` on the
fine grid of its step: the step's multiples below T, then T.  A limit path
then draws one uniform per jump, by direction and then interval, for a jump
time inside its interval: given the count, the jump times of a Poisson
process in an interval are that many uniforms (Devroye, *Non-Uniform Random
Variate Generation*, 1986, ch. VI).

RNG contract: all randomness comes from ``numpy.random.default_rng``.  An
ensemble uses the stream ``[seed]``, path k of a seed the independent
substream ``[seed, k]``.  Draws come in the order above, so one stream can
feed several grids in turn: ``obtusewalk simulate`` draws the members it
writes to CSV on the fine grid, then the rest of its ensemble on [T].

Arithmetic: the hot paths run in float64 only.  Products of real draws with
complex atoms or bases are two real matrix products, and the ensemble
moments come from one real Gram matrix per ensemble.  Besides being cheaper,
this keeps numpy's multinomial sampler fast: it runs several times slower
after a complex BLAS product (zgemm) than after a real one, on the OpenBLAS
build the benchmark records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NonPositiveStep,
    PathTooLarge,
    TooFewIncrements,
    TooManyJumps,
)
from .limits import LimitSpec
from .obtuse import ObtuseRV

# A horizon t spans n steps of size h when t/h lies at most this relative
# distance below n, and a fine grid ends with T instead of a multiple of the
# step this close to T.  t/h of decimals rounded to binary lands a few eps
# (2.2e-16) off n; 1e-10 covers that 1e5-fold and stays under one step below
# 1e10 steps.
STEP_RTOL = 1e-10

# Byte budget of the jump log of one limit path: a float64 time and an int64
# direction index per jump, so 2**27 bytes admit 2**23 (8.4 million) jumps on
# average, 8400 times the 1e3 jumps of a rate-1e3 path on [0, 1].  The budget
# bounds the expected count rate * T before anything is drawn; a drawn count
# exceeds it by more than 1 % (29 standard deviations) with negligible
# probability.  Drawing and sorting the log peaks at 2.5x its size.
JUMP_LOG_BYTES = 2**27

# Byte budget of the fine grids of the paths drawn at once.  Per grid time a
# path keeps a float64 time and a complex value (8 + 16 N bytes); sampling
# peaks, by tracemalloc, at most at 40 N + 40 bytes for a walk (N + 1 atom
# counts as int64 and float64, a real product, the step counts) and at
# 32 N + 38 for a limit path.  2**28 bytes admit 3 million grid times at N = 1 and
# 202 000 at N = 32.
PATH_GRID_BYTES = 2**28

# Largest expected jump count of one direction in a limit ensemble.  Counts
# are int64, and a Poisson count of mean 2**62 reaches 2**63 only 2**31
# standard deviations above its mean; numpy's sampler stops just below 2**63.
MAX_ENSEMBLE_JUMPS = 2**62

# Bytes of int64 counts one multinomial call of the walk sampler returns: a
# run of equal grid intervals is one call up to this size (a 1000-step path
# at N <= 31), and an ensemble never holds the counts of all its grid times.
# Blocks of megabytes fault in fresh pages on every call: at 2 MiB the
# benchmark's 10 000-path ensembles ran about 25 % slower than at this size.
_DRAW_BLOCK_BYTES = 2**18


def _grid_row_bytes(dim: int) -> int:
    """Peak bytes per fine-grid time of a path in C^dim (see PATH_GRID_BYTES)."""
    return 40 * dim + 48


def _step_count(t, h: float) -> np.ndarray:
    """Number of whole steps of size h in each horizon of ``t`` (see STEP_RTOL)."""
    return np.floor(np.asarray(t, dtype=float) / h * (1.0 + STEP_RTOL)).astype(int)


def _real_product(x: np.ndarray, basis: np.ndarray, out: np.ndarray) -> None:
    """Write the real ``x`` times the complex ``basis`` into the complex ``out``.

    Two float64 products, one per part of ``basis``, each reshaped to ``out``:
    numpy would run the mixed product as zgemm on a complex copy of ``x``.
    """
    out.real = (x @ np.ascontiguousarray(basis.real)).reshape(out.shape)
    out.imag = (x @ np.ascontiguousarray(basis.imag)).reshape(out.shape)


def _check(t_grid, n_paths: int, step: float | None = None) -> np.ndarray:
    """The grid of a sampler as float64, once its input is checked.

    Raises ``NonPositiveStep`` for a step that is not positive and finite or
    takes ``MAX_ENSEMBLE_JUMPS`` steps to the last time, ``DimensionMismatch``
    for a negative path count or a grid not finite, nonnegative, increasing.
    """
    if step is not None and not 0 < step < np.inf:
        raise NonPositiveStep(f"time step must be positive and finite, got {step}")
    if n_paths < 0:
        raise DimensionMismatch(f"number of paths must be nonnegative, got {n_paths}")
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or not np.all(np.isfinite(grid) & (grid >= 0)) or np.any(np.diff(grid) < 0):
        raise DimensionMismatch("time grid must be finite, nonnegative and increasing")
    if step is not None and grid.size and not float(grid[-1]) / step < MAX_ENSEMBLE_JUMPS:
        raise NonPositiveStep(f"time step {step} takes over 2**62 steps up to {grid[-1]}")
    return grid


def _path_grid(T: float, step: float, dim: int, n_paths: int = 1, min_steps: int = 0):
    """Fine grid of ``n_paths`` paths in C^dim: the multiples of step below T, then T.

    Before allocating it raises ``NonPositiveStep`` for a step that is not
    positive and finite or a horizon not positive or under ``min_steps``
    steps, and ``PathTooLarge`` for a grid over ``PATH_GRID_BYTES``.
    """
    if not 0 < step < np.inf:
        raise NonPositiveStep(f"time step must be positive and finite, got {step}")
    if not T > 0:
        raise NonPositiveStep(f"horizon T must be positive, got {T}")
    intervals = np.ceil(T / step * (1.0 - STEP_RTOL))
    max_rows = PATH_GRID_BYTES // (_grid_row_bytes(dim) * n_paths)
    if not intervals < max_rows:
        raise PathTooLarge(
            f"{intervals:.3g} grid steps on [0, {T:.6g}] exceed the {PATH_GRID_BYTES}-byte "
            f"budget of {n_paths} path(s) in C^{dim} ({max_rows} grid times)"
        )
    if _step_count(T, step) < min_steps:
        raise NonPositiveStep(f"horizon T must cover at least {min_steps} step(s)")
    return np.append(np.arange(int(intervals)) * step, T)


def _walk_sample(rv: ObtuseRV, h: float, grid: np.ndarray, n_paths: int, rng) -> np.ndarray:
    """Walk values at the grid times, shape (n_paths, n_t, N).

    A run of equal intervals is one multinomial call of size (run, n_paths),
    the draws of one call per interval, cut to ``_DRAW_BLOCK_BYTES``.
    """
    out = np.zeros((n_paths, len(grid), rv.dim), dtype=complex)
    atoms = len(rv.probabilities)
    max_run = max(1, _DRAW_BLOCK_BYTES // (np.dtype(int).itemsize * atoms * max(n_paths, 1)))
    new = np.diff(_step_count(np.concatenate([[0.0], grid]), h))
    edges = [0, *(np.flatnonzero(np.diff(new)) + 1), len(new)]
    counts = np.zeros((n_paths, atoms))
    for lo, hi in zip(edges, edges[1:]):
        for start in range(lo, hi, max_run):
            stop = min(start + max_run, hi)
            size = (stop - start, n_paths)  # zero trials draw nothing from the stream
            cum = rng.multinomial(new[start], rv.probabilities, size).astype(float)
            cum[0] += counts
            if len(cum) > cum[0].size:  # numpy's cumsum makes one call per column
                np.cumsum(cum, axis=0, out=cum)
            else:
                for i in range(1, len(cum)):
                    cum[i] += cum[i - 1]
            counts = cum[-1].copy()
            cum *= np.sqrt(h)
            _real_product(cum.reshape(-1, atoms), rv.values, out[:, start:stop].transpose(1, 0, 2))
    return out


def _limit_sample(
    spec: LimitSpec, grid: np.ndarray, n_paths: int, rng, jump_counts: list | None = None
) -> np.ndarray:
    """Limit-martingale values at the grid times, shape (n_paths, n_t, N).

    Raises ``TooManyJumps`` when a direction expects more than
    ``MAX_ENSEMBLE_JUMPS`` jumps by the last time.  Appends each direction's
    interval counts, shape (n_paths, n_t), to ``jump_counts`` if given.
    """
    n_t = len(grid)
    if n_t and not np.all(spec.intensities * grid[-1] <= MAX_ENSEMBLE_JUMPS):
        raise TooManyJumps(f"a direction expects over 2**62 jumps on [0, {grid[-1]:.6g}]")
    out = np.zeros((n_paths, n_t, spec.dim), dtype=complex)
    dts = np.diff(np.concatenate([[0.0], grid]))
    if spec.n_brownian:
        db = rng.normal(0.0, 1.0, size=(n_paths, n_t, spec.n_brownian))
        db *= np.sqrt(dts)[None, :, None]
        np.cumsum(db, axis=1, out=db)
        _real_product(db.reshape(-1, spec.n_brownian), spec.brownian_basis, out)
        del db
    for v, lam in zip(spec.poisson_dirs, spec.intensities):
        dn = rng.poisson(lam * dts, size=(n_paths, n_t))
        if jump_counts is not None:
            jump_counts.append(dn)
        compensated = (np.cumsum(dn, axis=1) - lam * grid[None, :])[:, :, None]
        out.real += compensated * v.real
        out.imag += compensated * v.imag
    return out


@dataclass(frozen=True)
class Path:
    """A sampled trajectory in C^N.

    ``values[k]`` is the state at ``times[k]``, a fine grid.  For limit
    paths, ``jump_times``/``jump_dirs`` log every Poisson jump (direction
    index into the generating spec), which makes the jump structure testable.
    """

    times: np.ndarray
    values: np.ndarray
    kind: str
    jump_times: np.ndarray | None = None
    jump_dirs: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.values, axis=0)


def walk_path(rv: ObtuseRV, h: float, T: float, seed: int = 0, path_index: int = 0) -> Path:
    """One trajectory of the rescaled walk sum sqrt(h) X_1 + ... on [0, T].

    The walk sampler on the fine grid of h; a horizon below one step raises
    ``NonPositiveStep``, other errors as for ``_path_grid``.
    """
    times = _path_grid(T, h, rv.dim, min_steps=1)
    values = _walk_sample(rv, h, times, 1, np.random.default_rng([seed, path_index]))
    return Path(times=times, values=values[0], kind="walk")


def limit_path(spec: LimitSpec, T: float, dt: float, seed: int = 0, path_index: int = 0) -> Path:
    """One trajectory of the limit martingale, on the fine grid of dt, with its jump log.

    Errors as for ``_path_grid``, and ``TooManyJumps``, before drawing, when
    the expected number of jumps exceeds the ``JUMP_LOG_BYTES`` budget.
    """
    times = _path_grid(T, dt, spec.dim)
    expected_jumps = float(np.sum(spec.intensities)) * T
    if not expected_jumps <= JUMP_LOG_BYTES // 16:
        raise TooManyJumps(f"{expected_jumps:.3g} expected jumps overflow the jump log")
    rng = np.random.default_rng([seed, path_index])
    counts = []
    values = _limit_sample(spec, times, 1, rng, counts)[0]
    # jump j of direction d in interval k: a uniform time in (times[k-1], times[k]]
    dn = np.array(counts, dtype=int)
    del counts
    jd, k = np.divmod(np.repeat(np.arange(dn.size), dn.ravel()), len(times))
    jt = times[k] - (times[k] - times[k - 1]) * rng.random(len(k))
    del k
    order = np.argsort(jt, kind="stable")
    return Path(times, values, "limit", jump_times=jt[order], jump_dirs=jd[order])


def walk_ensemble(rv: ObtuseRV, h: float, t_grid, n_paths: int, seed: int = 0) -> np.ndarray:
    """Walk values at the grid times for many paths, shape (n_paths, n_t, N).

    The walk sampler with the stream ``[seed]``; errors as for ``_check``.
    """
    grid = _check(t_grid, n_paths, h)
    return _walk_sample(rv, h, grid, n_paths, np.random.default_rng([seed]))


def limit_ensemble(spec: LimitSpec, t_grid, n_paths: int, seed: int = 0) -> np.ndarray:
    """Limit-martingale values at the grid times, shape (n_paths, n_t, N).

    The limit sampler with the stream ``[seed]``; errors as for ``_check``
    and ``_limit_sample``.
    """
    grid = _check(t_grid, n_paths)
    return _limit_sample(spec, grid, n_paths, np.random.default_rng([seed]))


@dataclass(frozen=True)
class BracketEstimate:
    """Realized square brackets of one path at its final time.

    ``bracket[i, j]`` estimates [Z^i, Z^j]_T as the sum of increment
    products; ``conj_bracket`` uses conjugated first factors.  Standard
    errors treat increment products as i.i.d. summands.  When a limit spec
    is supplied, the structure right-hand sides Lambda T + sum_k M^{ij}_k
    Z^k_T and delta T + sum_k conj(M^{ik}_j) Z^k_T and the residuals in
    units of standard errors are filled in.
    """

    bracket: np.ndarray
    conj_bracket: np.ndarray
    se_bracket: np.ndarray
    se_conj_bracket: np.ndarray
    n_increments: int
    final_time: float
    final_value: np.ndarray
    rhs_bracket: np.ndarray | None = None
    rhs_conj_bracket: np.ndarray | None = None

    def sigmas_bracket(self) -> np.ndarray:
        return np.abs(self.bracket - self.rhs_bracket) / self.se_bracket

    def sigmas_conj_bracket(self) -> np.ndarray:
        return np.abs(self.conj_bracket - self.rhs_conj_bracket) / self.se_conj_bracket


def _sum_and_se(prod: np.ndarray):
    total = prod.sum(axis=0)
    n = prod.shape[0]
    var = prod.real.var(axis=0, ddof=1) + prod.imag.var(axis=0, ddof=1)
    se = np.sqrt(n * var)
    return total, np.maximum(se, 1e-300)


def empirical_brackets(path: Path, spec: LimitSpec | None = None) -> BracketEstimate:
    """Realized covariation matrices of a path from its increments."""
    dz = path.increments
    if dz.shape[0] < 100:
        raise TooFewIncrements(f"need at least 100 increments, got {dz.shape[0]}")
    prod = dz[:, :, None] * dz[:, None, :]
    cprod = np.conj(dz)[:, :, None] * dz[:, None, :]
    bracket, se = _sum_and_se(prod)
    conj_bracket, se_c = _sum_and_se(cprod)
    t_end = float(path.times[-1])
    z_end = path.values[-1]
    rhs = rhs_c = None
    if spec is not None:
        if spec.dim != path.dim:
            raise DimensionMismatch("spec and path dimensions differ")
        m = spec.tensor.entries
        rhs = spec.lambda_matrix * t_end + np.einsum("ijk,k->ij", m, z_end)
        rhs_c = np.eye(spec.dim) * t_end + np.einsum(
            "ikj,k->ij", np.conj(m), z_end
        )
    return BracketEstimate(
        bracket=bracket,
        conj_bracket=conj_bracket,
        se_bracket=se,
        se_conj_bracket=se_c,
        n_increments=dz.shape[0],
        final_time=t_end,
        final_value=z_end,
        rhs_bracket=rhs,
        rhs_conj_bracket=rhs_c,
    )


def _moments(values: np.ndarray):
    """Mean, E[conj(Z) Z^T], E[Z Z^T] and E|Z_i|^4 over the path axis.

    ``values`` has shape (n_paths, n_t, N); each moment comes back with the
    time axis first.  With X the float64 view of Z (columns Re Z_1, Im Z_1,
    Re Z_2, ...), one batched Gram product G = X^T X / n per grid time gives
    all second moments: for the blocks AA = E[Re Re^T], BB = E[Im Im^T] and
    AB = E[Re Im^T] of G, E[conj(Z) Z^T] = AA + BB + i(AB - AB^T) and
    E[Z Z^T] = AA - BB + i(AB + AB^T).
    """
    z = np.ascontiguousarray(values, dtype=complex)
    n = z.shape[0]
    x = z.view(float)
    per_time = x.transpose(1, 0, 2)
    gram = np.matmul(per_time.transpose(0, 2, 1), per_time) / n
    aa, bb, ab = gram[:, 0::2, 0::2], gram[:, 1::2, 1::2], gram[:, 0::2, 1::2]
    ab_t = ab.transpose(0, 2, 1)
    cov_conj = np.empty(aa.shape, dtype=complex)
    cov_conj.real, cov_conj.imag = aa + bb, ab - ab_t
    cov_plain = np.empty(aa.shape, dtype=complex)
    cov_plain.real, cov_plain.imag = aa - bb, ab + ab_t
    squares = np.square(x)
    abs2 = squares[..., 0::2] + squares[..., 1::2]
    abs4 = np.square(abs2, out=abs2).mean(axis=0)
    return z.mean(axis=0), cov_conj, cov_plain, abs4


@dataclass(frozen=True)
class MomentReport:
    """Distances between walk and limit ensembles, per moment family.

    Each entry is the max over grid times and coordinates of the absolute
    difference of the corresponding empirical moments.
    """

    t_grid: np.ndarray
    mean_distance: float
    cov_conj_distance: float
    cov_plain_distance: float
    abs4_distance: float

    @property
    def covariance_distance(self) -> float:
        return max(self.cov_conj_distance, self.cov_plain_distance)

    @property
    def overall_distance(self) -> float:
        return max(self.mean_distance, self.covariance_distance, self.abs4_distance)


def distribution_compare(walk_values: np.ndarray, limit_values: np.ndarray, t_grid) -> MomentReport:
    """Compare first, second and fourth moments of two path ensembles.

    ``walk_values`` and ``limit_values`` have shape (n_paths, n_times, N)
    with matching grids, as produced by :func:`walk_ensemble` and
    :func:`limit_ensemble`.  The moments of each ensemble at every grid time
    come from one call of the Gram kernel ``_moments``.
    """
    grid = np.asarray(t_grid, dtype=float)
    wv = np.asarray(walk_values)
    lv = np.asarray(limit_values)
    if wv.shape[1:] != lv.shape[1:] or wv.shape[1] != len(grid):
        raise DimensionMismatch("ensembles must share the time grid and dimension")
    dists = [0.0] * 4
    if wv.shape[0] and lv.shape[0] and len(grid):
        dists = [float(np.max(np.abs(w - lim))) for w, lim in zip(_moments(wv), _moments(lv))]
    return MomentReport(grid, *dists)
