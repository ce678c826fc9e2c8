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
fine grid of its step: the step's multiples below T, then T.  Both are held
to the memory budget ``obtuse.MEMORY_BYTES`` before they allocate, a limit
path with its jump log.  A limit path then draws one uniform per jump, by
direction and then interval, for a jump time inside its interval: given the
count, the jump times of a Poisson process in an interval are that many
uniforms (Devroye, *Non-Uniform Random Variate Generation*, 1986, ch. VI).

RNG contract: all randomness comes from ``numpy.random.default_rng``, with
keys built in one place, ``_stream``: an ensemble uses the stream ``[seed]``,
path k of a seed the independent substream ``[seed, k]``.  Draws come in the
order above, so one stream can feed several grids in turn: ``obtusewalk
simulate`` draws the members it writes to CSV on the fine grid, then the
rest of its ensemble on [T].

Arithmetic: the hot paths run in float64 only, on time-major buffers of
shape (n_t, n_paths, N); the samplers return their (n_paths, n_t, N)
transposed views.  A block of real draws times complex atoms or a basis is
one real matrix product (dgemm) into the float64 view of the block's grid
times, the basis rows read as interleaved Re/Im columns, and running sums
add whole grid times.  One real Gram kernel, ``_split_gram``, gives the second
moments of each grid time of an ensemble, read as one block, and the brackets
of a path, all its increments read as one block.  No complex BLAS product
runs: besides being slower, one (zgemm) leaves numpy's Poisson and
multinomial samplers about ten times slower until the next real product, on
the OpenBLAS build the benchmark records.
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
from .limits import LimitSpec, _require_spec
from .obtuse import (
    ObtuseSystem,
    _is_real,
    _require_integer,
    _require_memory,
    _require_step,
    _require_variable,
)

# A horizon t spans n steps of size h when t/h lies at most this relative
# distance below n, and a fine grid ends with T instead of a multiple of the
# step this close to T.  t/h of decimals rounded to binary lands a few eps
# (2.2e-16) off n; 1e-10 covers that 1e5-fold and stays under one step below
# 1e10 steps.
STEP_RTOL = 1e-10

# Peak bytes per expected jump of a limit path's log (a float64 time, an int64
# direction): drawing the times holds six arrays of the jump count, 3x the log
# by tracemalloc.  A count rarely exceeds rate * T by 1 % (67 sd at the budget).
_BYTES_PER_JUMP = 48

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


# Smallest standard error of a bracket entry.  Summands that are all equal, as
# the squared increments h of the +-1 walk, have sample variance 0; the residual
# over this floor is then 0 for an exact bracket and a huge finite number of
# standard errors otherwise, where dividing by 0 would give nan or inf.
SE_FLOOR = 1e-300


def _grid_row_bytes(dim: int) -> int:
    """Peak bytes of a path at a grid time in C^dim: by tracemalloc at most 32 N + 24
    for an ensemble (values, and a jump direction's counts as drawn, summed and
    compensated and their product with the direction) and 40 N + 40 for a path,
    which also keeps each direction's interval counts and a float64 time."""
    return 40 * dim + 48


def _check_ensemble(n_paths: int, n_t: int, dim: int, jumps: float = 0.0) -> None:
    """Before allocating, raise for paths and a log of ``jumps`` expected jumps over the
    memory budget: ``TooManyJumps`` if the log is the larger part, else ``PathTooLarge``."""
    grid_bytes, log_bytes = n_paths * n_t * _grid_row_bytes(dim), _BYTES_PER_JUMP * jumps
    error = TooManyJumps if log_bytes > grid_bytes else PathTooLarge
    what = f"{n_paths} paths at {n_t:.0f} grid times in C^{dim} and {jumps:.3g} expected jumps"
    _require_memory(grid_bytes + log_bytes, error, what)


def _step_count(t, h: float) -> np.ndarray:
    """Number of whole steps of size h in each horizon of ``t`` (see STEP_RTOL)."""
    return np.floor(np.asarray(t, dtype=float) / h * (1.0 + STEP_RTOL)).astype(int)


def _accumulate(a: np.ndarray) -> None:
    """Running sums along the first axis of ``a``, in place.

    numpy's cumsum makes one strided call per column: a first axis shorter
    than a row is summed row by row instead.
    """
    if len(a) ** 2 > a.size:
        np.cumsum(a, axis=0, out=a)
    else:
        for i in range(1, len(a)):
            a[i] += a[i - 1]


def _real_product(x: np.ndarray, basis: np.ndarray, out: np.ndarray) -> None:
    """Write the real (m, k) ``x`` times the complex (k, N) ``basis`` into ``out``,
    a contiguous complex block of m rows of N.

    One dgemm into the float64 view of ``out``: the rows of ``basis`` act as
    interleaved Re/Im columns.  numpy would run the mixed product as zgemm on a
    complex copy of ``x``.  For m = 1 or N = 1 numpy runs the product as gemv,
    whose OpenBLAS kernels round differently at N and at 2N columns; there the
    two parts stay two products, so seeded values are the same in every case.
    """
    if len(x) > 1 and basis.shape[1] > 1:
        flat = np.ascontiguousarray(basis, dtype=complex).view(float)
        np.matmul(x, flat, out=out.view(float).reshape(len(x), -1))
    else:
        out.real = (x @ np.ascontiguousarray(basis.real)).reshape(out.shape)
        out.imag = (x @ np.ascontiguousarray(basis.imag)).reshape(out.shape)


def _check(t_grid, n_paths: int, step: float | None = None) -> np.ndarray:
    """The grid of a sampler as float64, once its input is checked.

    Raises ``NonPositiveStep`` for a step that is not positive and finite or
    takes ``MAX_ENSEMBLE_JUMPS`` steps to the last time, ``DimensionMismatch``
    for a path count that is not a nonnegative integer (``_require_integer``)
    or a grid not finite, nonnegative, increasing.
    """
    if step is not None:
        _require_step(step)
    _require_integer(n_paths, "number of paths")
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or not np.all(np.isfinite(grid) & (grid >= 0)) or np.any(np.diff(grid) < 0):
        raise DimensionMismatch("time grid must be finite, nonnegative and increasing")
    if step is not None and grid.size and not float(grid[-1]) / step < MAX_ENSEMBLE_JUMPS:
        raise NonPositiveStep(f"time step {step} takes over 2**62 steps up to {grid[-1]}")
    return grid


def _grid_size(T: float, step: float, min_steps: int = 0) -> float:
    """Times on the fine grid of step up to T (inf for T = inf), or ``NonPositiveStep``
    for a step not positive and finite or a horizon not positive or under ``min_steps``."""
    _require_step(step)
    if not (_is_real(T) and T > 0):
        raise NonPositiveStep(f"horizon T must be positive, got {T if _is_real(T) else repr(T)}")
    if T / step * (1.0 + STEP_RTOL) < min_steps:  # _step_count(T, step) < min_steps
        raise NonPositiveStep(f"horizon T must cover at least {min_steps} step(s)")
    return np.ceil(T / step * (1.0 - STEP_RTOL)) + 1


def _path_grid(T: float, step: float, dim: int, n_paths=1, min_steps=0, jumps=0.0):
    """Fine grid of ``n_paths`` paths in C^dim: the multiples of step below T, then T.

    Errors as for ``_grid_size`` and ``_check_ensemble``, with ``jumps`` logged.
    """
    n_t = _grid_size(T, step, min_steps)
    _check_ensemble(n_paths, n_t, dim, jumps)
    return np.append(np.arange(int(n_t) - 1) * step, T)


def _stream(seed, path_index=None) -> np.random.Generator:
    """The generator of the stream ``[seed]``, or of path ``path_index``'s substream
    ``[seed, path_index]``; ``DimensionMismatch`` unless each is a nonnegative
    integer (``_require_integer``)."""
    _require_integer(seed, "seed")
    key = [seed]
    if path_index is not None:
        _require_integer(path_index, "path index")
        key.append(path_index)
    return np.random.default_rng(key)


def _walk_sample(rv: ObtuseSystem, h: float, grid: np.ndarray, n_paths: int, rng) -> np.ndarray:
    """Walk values at the grid times, shape (n_paths, n_t, N): a view of a time-major buffer.

    A run of equal intervals is one multinomial call of size (run, n_paths),
    the draws of one call per interval, cut to ``_DRAW_BLOCK_BYTES``.  The
    scaled running counts of a block times the atoms are one real product into
    the block's grid times.  Errors as for ``_check_ensemble``.
    """
    _check_ensemble(n_paths, len(grid), rv.dim)
    out = np.empty((len(grid), n_paths, rv.dim), dtype=complex)
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
            _accumulate(cum)
            counts = cum[-1].copy()
            cum *= np.sqrt(h)
            _real_product(cum.reshape(-1, atoms), rv.values, out[start:stop])
    return out.transpose(1, 0, 2)


def _limit_sample(
    spec: LimitSpec, grid: np.ndarray, n_paths: int, rng, jump_counts: list | None = None
) -> np.ndarray:
    """Limit-martingale values at the grid times, shape (n_paths, n_t, N): a view of a
    time-major buffer.

    The Brownian motions, summed along their time axis, times the basis are
    one real product into the buffer; each direction's compensated counts are
    added to it in turn.  Raises ``TooManyJumps`` when a direction expects more than
    ``MAX_ENSEMBLE_JUMPS`` jumps by the last time, other errors as for
    ``_check_ensemble``.  Appends each direction's interval counts, shape
    (n_paths, n_t), to ``jump_counts`` if given.
    """
    n_t = len(grid)
    _check_ensemble(n_paths, n_t, spec.dim)
    if n_t and not np.all(spec.intensities * grid[-1] <= MAX_ENSEMBLE_JUMPS):
        raise TooManyJumps(f"a direction expects over 2**62 jumps on [0, {grid[-1]:.6g}]")
    out = np.zeros((n_t, n_paths, spec.dim), dtype=complex)
    dts = np.diff(np.concatenate([[0.0], grid]))
    if spec.n_brownian:
        draws = rng.normal(0.0, 1.0, size=(n_paths, n_t, spec.n_brownian))
        db = np.empty((n_t, n_paths, spec.n_brownian))
        np.multiply(draws.transpose(1, 0, 2), np.sqrt(dts)[:, None, None], out=db)
        del draws
        _accumulate(db)
        _real_product(db.reshape(-1, spec.n_brownian), spec.brownian_basis, out)
        del db
    rows = out.view(float).reshape(-1, 2 * spec.dim)
    dirs = np.ascontiguousarray(spec.poisson_dirs, dtype=complex).view(float)
    for v, lam in zip(dirs, spec.intensities):
        dn = rng.poisson(lam * dts, size=(n_paths, n_t))
        if jump_counts is not None:
            jump_counts.append(dn)
        counts = dn.T.copy()  # dn stays the interval counts
        _accumulate(counts)
        compensated = counts - lam * grid[:, None]
        # the long axis innermost: numpy loops slowly over the 2N entries of a row
        rows += (v[:, None] * compensated.ravel()).T
    return out.transpose(1, 0, 2)


@dataclass(frozen=True, eq=False)
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


def _require_path(path) -> None:
    """The guard of a path argument: ``DimensionMismatch`` unless a ``Path``."""
    if not isinstance(path, Path):
        raise DimensionMismatch(f"expected a Path, got {type(path).__name__}")


def walk_path(rv: ObtuseSystem, h: float, T: float, seed: int = 0, path_index: int = 0) -> Path:
    """One trajectory of the rescaled walk sum sqrt(h) X_1 + ... on [0, T].

    The walk sampler on the fine grid of h; a horizon below one step raises
    ``NonPositiveStep``, other errors as for ``_require_variable``, ``_path_grid``
    and ``_stream``.
    """
    _require_variable(rv)
    times = _path_grid(T, h, rv.dim, min_steps=1)
    values = _walk_sample(rv, h, times, 1, _stream(seed, path_index))
    return Path(times=times, values=values[0], kind="walk")


def limit_path(spec: LimitSpec, T: float, dt: float, seed: int = 0, path_index: int = 0) -> Path:
    """One trajectory of the limit martingale, on the fine grid of dt, with its jump log.

    Errors as for ``_require_spec``, ``_path_grid``, which holds the grid and
    the expected jump log to the memory budget before anything is drawn, and
    ``_stream``.
    """
    _require_spec(spec)
    times = _path_grid(T, dt, spec.dim, jumps=float(np.sum(spec.intensities)) * T)
    rng = _stream(seed, path_index)
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


def walk_ensemble(rv: ObtuseSystem, h: float, t_grid, n_paths: int, seed: int = 0) -> np.ndarray:
    """Walk values at the grid times for many paths, shape (n_paths, n_t, N).

    The walk sampler with the stream ``[seed]``; errors as for
    ``_require_variable``, ``_check``, ``_stream`` and ``_check_ensemble``.
    """
    _require_variable(rv)
    grid = _check(t_grid, n_paths, h)
    return _walk_sample(rv, h, grid, int(n_paths), _stream(seed))


def limit_ensemble(spec: LimitSpec, t_grid, n_paths: int, seed: int = 0) -> np.ndarray:
    """Limit-martingale values at the grid times, shape (n_paths, n_t, N).

    The limit sampler with the stream ``[seed]``; errors as for
    ``_require_spec``, ``_check``, ``_stream``, ``_check_ensemble`` and
    ``_limit_sample``.
    """
    _require_spec(spec)
    grid = _check(t_grid, n_paths)
    return _limit_sample(spec, grid, int(n_paths), _stream(seed))


@dataclass(frozen=True, eq=False)
class BracketEstimate:
    """Realized square brackets of one path at its final time.

    ``bracket[i, j]`` estimates [Z^i, Z^j]_T as the sum of increment products;
    ``conj_bracket`` uses conjugated first factors.  Standard errors treat the n
    products p as i.i.d. summands: sqrt(n/(n-1) (sum |p|^2 - |sum p|^2 / n)), at
    least ``SE_FLOOR``.  When a limit spec is supplied, the structure right-hand sides
    Lambda T + sum_k M^{ij}_k Z^k_T and delta T + sum_k conj(M^{ik}_j) Z^k_T and the
    residuals in units of standard errors are filled in.
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


def _split_gram(gram: np.ndarray):
    """Sums of conj(z) z^T and of z z^T over complex rows z from the Gram matrix G of
    their float64 view (columns Re z_1, Im z_1, ...), batched over leading axes: with
    AA, BB, AB the blocks sum Re Re^T, Im Im^T, Re Im^T of G, AA + BB + i(AB - AB^T)
    and AA - BB + i(AB + AB^T)."""
    aa, bb, ab = gram[..., 0::2, 0::2], gram[..., 1::2, 1::2], gram[..., 0::2, 1::2]
    ab_t = ab.swapaxes(-1, -2)
    conj = np.empty(aa.shape, dtype=complex)
    conj.real, conj.imag = aa + bb, ab - ab_t
    plain = np.empty(aa.shape, dtype=complex)
    plain.real, plain.imag = aa - bb, ab + ab_t
    return conj, plain


def empirical_brackets(path: Path, spec: LimitSpec | None = None) -> BracketEstimate:
    """Realized covariation matrices of a path from its increments; a path or
    spec of another type raises ``DimensionMismatch`` (``_require_path``,
    ``_require_spec``)."""
    _require_path(path)
    if spec is not None:
        _require_spec(spec)
    dz = np.ascontiguousarray(path.increments, dtype=complex)
    n, x = len(dz), dz.view(float)
    if n < 100:
        raise TooFewIncrements(f"need at least 100 increments, got {n}")
    conj_bracket, bracket = _split_gram(x.T @ x)
    np.square(x, out=x)
    abs2 = x[:, 0::2] + x[:, 1::2]
    # sum_k |p_k|^2 = sum_k |dz_k^i|^2 |dz_k^j|^2 for either kind of product p
    fourth = abs2.T @ abs2
    gaps = [fourth - np.abs(b) ** 2 / n for b in (bracket, conj_bracket)]
    se, se_c = np.maximum(np.sqrt(np.maximum(gaps, 0.0) * n / (n - 1)), SE_FLOOR)
    t_end = float(path.times[-1])
    z_end = path.values[-1]
    rhs = rhs_c = None
    if spec is not None:
        if spec.dim != path.dim:
            raise DimensionMismatch("spec and path dimensions differ")
        m = spec.tensor.entries
        rhs = spec.lambda_matrix * t_end + np.einsum("ijk,k->ij", m, z_end)
        rhs_c = np.eye(spec.dim) * t_end + np.einsum("ikj,k->ij", np.conj(m), z_end)
    return BracketEstimate(
        bracket=bracket,
        conj_bracket=conj_bracket,
        se_bracket=se,
        se_conj_bracket=se_c,
        n_increments=n,
        final_time=t_end,
        final_value=z_end,
        rhs_bracket=rhs,
        rhs_conj_bracket=rhs_c,
    )


def _moments(values: np.ndarray):
    """Mean, E[conj(Z) Z^T], E[Z Z^T] and E|Z_i|^4 over the path axis.

    ``values`` has shape (n_paths, n_t, N); each moment comes back with the
    time axis first.  Each grid time is read as one contiguous (n_paths, 2N)
    float64 block X (columns Re Z_1, Im Z_1, Re Z_2, ...), copied only when
    ``values`` is not the transposed view of a time-major buffer that the
    samplers return.  One batched Gram product X^T X / n gives all second
    moments (``_split_gram``).  The means and E|Z_i|^4 are the all-ones row
    times X and times |Z|^4, over n.
    """
    z = np.ascontiguousarray(np.asarray(values).transpose(1, 0, 2), dtype=complex)
    n = z.shape[1]
    x = z.view(float)
    ones = np.ones(n)
    cov_conj, cov_plain = _split_gram(np.matmul(x.transpose(0, 2, 1), x) / n)
    mean = (np.matmul(ones, x) / n).view(complex)
    squares = np.square(x)
    abs2 = squares[..., 0::2] + squares[..., 1::2]
    abs4 = np.matmul(ones, np.square(abs2, out=abs2)) / n
    return mean, cov_conj, cov_plain, abs4


@dataclass(frozen=True, eq=False)
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
