"""Seeded Monte-Carlo simulation of obtuse walks and their limit martingales.

Walks are sums of sqrt(h)-scaled i.i.d. obtuse variables; limit processes
are built exactly from their classification: independent real Brownian
motions along the Brownian basis plus independent compensated Poisson
processes (rate 1/|v|^2) along each jump direction.  No Euler
discretization error enters anywhere: Gaussian increments are exact per
time step and jump times are exact.

RNG contract: all randomness comes from ``numpy.random.default_rng``.
Single paths use the stream ``[seed, path_index]`` (a ``SeedSequence`` over
both words), so path k of a given seed is an independent, reproducible
substream.  ``walk_path`` draws its n atoms with one ``choice``;
``limit_path`` draws its Brownian increments with one ``normal`` call, then,
for each jump direction in spec order, the jump count N_T ~ Poisson(rate T)
followed by N_T uniforms on [0, T], sorted into the jump times.  Given
N_T, the jump times of a Poisson process are N_T sorted uniforms (Devroye,
*Non-Uniform Random Variate Generation*, 1986, ch. VI), so this is exact.
Ensemble helpers are vectorized over paths and use the single stream
``[seed]``; they draw sufficient statistics (multinomial atom counts,
Poisson interval counts, Gaussian interval increments) and are therefore
exact in distribution at the requested grid times.

Arithmetic: the hot paths run in float64 only.  Products of real draws with
complex atoms or bases are taken as two real matrix products, one for the
real and one for the imaginary part, and the ensemble moments come from one
real Gram matrix per ensemble.  Besides being cheaper than complex products,
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
# distance below n.  t and h are usually decimals rounded to binary and t/h
# rounds once more, so an exact multiple lands a few eps (2.2e-16) short of
# n; 1e-10 covers that 1e5-fold and stays under one step below 1e10 steps.
STEP_RTOL = 1e-10

# Byte budget of the jump log of one limit path: a float64 time and an int64
# direction index per jump, so 2**27 bytes admit 2**23 (8.4 million) jumps on
# average, 8400 times the 1e3 jumps of a rate-1e3 path on [0, 1].  The budget
# bounds the expected count rate * T before anything is drawn; a drawn count
# exceeds it by more than 1 % (29 standard deviations) with negligible
# probability.  Drawing and sorting the log peaks at about 3x its size.
JUMP_LOG_BYTES = 2**27
_JUMP_BYTES = np.dtype(float).itemsize + np.dtype(int).itemsize

# Byte budget of the dt-grid of one limit path in C^N.  Per grid time the
# path keeps a float64 time and a complex value (8 + 16 N bytes), and
# building it holds at most 24 N + 24 bytes more at once: a jump direction's
# complex outer product (16 N) with its count arrays (24), or the Brownian
# draws and their running sum (16 B, B <= N) plus one real product (8 N).
# 2**28 bytes admit 3.7 million grid times at N = 1 and 204 000 at N = 32.
PATH_GRID_BYTES = 2**28

# Largest expected jump count of one direction in a limit ensemble.  Counts
# are int64, and a Poisson count of mean 2**62 reaches 2**63 only 2**31
# standard deviations above its mean; numpy's sampler stops just below 2**63.
MAX_ENSEMBLE_JUMPS = 2**62


def _grid_row_bytes(dim: int) -> int:
    """Peak bytes per grid time of a limit path in C^dim (see PATH_GRID_BYTES)."""
    return 40 * dim + 32


def _substream(seed: int, path_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, path_index])


def _step_count(t, h: float) -> np.ndarray:
    """Number of whole steps of size h in each horizon of ``t`` (see STEP_RTOL)."""
    return np.floor(np.asarray(t, dtype=float) / h * (1.0 + STEP_RTOL)).astype(int)


def _real_product(x: np.ndarray, basis: np.ndarray, out: np.ndarray) -> None:
    """Write the real ``x`` times the complex ``basis`` into the complex ``out``.

    Two float64 products, one per part of ``basis``: numpy would run the
    mixed product as zgemm on a complex copy of ``x``.
    """
    out.real = x @ np.ascontiguousarray(basis.real)
    out.imag = x @ np.ascontiguousarray(basis.imag)


@dataclass(frozen=True)
class Path:
    """A sampled trajectory in C^N.

    ``values[k]`` is the state at ``times[k]``; walks carry uniform spacing
    h.  For limit paths, ``jump_times``/``jump_dirs`` log every Poisson jump
    (direction index into the generating spec), which makes the jump
    structure testable.
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
    """One trajectory of the rescaled walk sum sqrt(h) X_1 + ... on [0, T]."""
    if h <= 0:
        raise NonPositiveStep(f"time step must be positive, got {h}")
    n = int(_step_count(T, h))
    if n < 1:
        raise NonPositiveStep("horizon T must cover at least one step")
    rng = _substream(seed, path_index)
    atoms = rng.choice(len(rv.probabilities), size=n, p=rv.probabilities)
    increments = np.sqrt(h) * rv.values[atoms]
    values = np.vstack([np.zeros((1, rv.dim), dtype=complex), np.cumsum(increments, axis=0)])
    times = np.arange(n + 1) * h
    return Path(times=times, values=values, kind="walk")


def limit_path(spec: LimitSpec, T: float, dt: float, seed: int = 0, path_index: int = 0) -> Path:
    """One trajectory of the limit martingale, sampled on a dt-grid.

    Brownian increments are exact Gaussians.  Each Poisson direction jumps
    N ~ Poisson(intensity * T) times, at N sorted uniform times on [0, T],
    and contributes its compensated count times the direction vector.
    Before allocating anything it raises ``NonPositiveStep`` for a step or
    horizon that is not positive (or a step that is not finite),
    ``PathTooLarge`` when the grid exceeds the ``PATH_GRID_BYTES`` budget
    and ``TooManyJumps`` when the expected number of jumps exceeds the
    ``JUMP_LOG_BYTES`` budget.
    """
    if not 0 < dt < np.inf:
        raise NonPositiveStep(f"grid step must be positive and finite, got {dt}")
    if not T > 0:
        raise NonPositiveStep(f"horizon T must be positive, got {T}")
    max_rows = PATH_GRID_BYTES // _grid_row_bytes(spec.dim)
    if not T / dt < max_rows - 0.5:
        raise PathTooLarge(
            f"{T / dt:.3g} grid steps on [0, {T:.6g}] exceed the {PATH_GRID_BYTES}-byte "
            f"budget of a path in C^{spec.dim} ({max_rows} grid times)"
        )
    n = max(1, int(round(T / dt)))
    times = np.arange(n + 1) * dt
    t_end = times[-1]
    expected_jumps = float(np.sum(spec.intensities)) * t_end
    if not expected_jumps <= JUMP_LOG_BYTES // _JUMP_BYTES:
        raise TooManyJumps(
            f"{expected_jumps:.3g} expected jumps on [0, {t_end:.6g}] exceed the "
            f"{JUMP_LOG_BYTES}-byte jump log"
        )
    rng = _substream(seed, path_index)

    values = np.zeros((n + 1, spec.dim), dtype=complex)
    if spec.n_brownian:
        b = np.zeros((n + 1, spec.n_brownian))
        b[1:] = rng.normal(0.0, np.sqrt(dt), size=(n, spec.n_brownian))
        np.cumsum(b[1:], axis=0, out=b[1:])
        _real_product(b, spec.brownian_basis, values)
        del b

    jump_times = []
    for v, lam in zip(spec.poisson_dirs, spec.intensities):
        jumps = rng.uniform(0.0, t_end, size=rng.poisson(lam * t_end))
        jumps.sort()
        counts = np.searchsorted(jumps, times, side="right")
        values += np.outer(counts - lam * times, v)
        jump_times.append(jumps)
    jt = np.concatenate(jump_times or [np.zeros(0)])
    jd = np.repeat(np.arange(len(jump_times)), [len(j) for j in jump_times])
    del jump_times
    order = np.argsort(jt, kind="stable")
    return Path(
        times=times, values=values, kind="limit", jump_times=jt[order], jump_dirs=jd[order]
    )


def _grid_steps(t_grid, h: float) -> np.ndarray:
    steps = _step_count(t_grid, h)
    if np.any(steps < 0) or np.any(np.diff(steps) < 0):
        raise DimensionMismatch("time grid must be nonnegative and increasing")
    return steps


def walk_ensemble(rv: ObtuseRV, h: float, t_grid, n_paths: int, seed: int = 0) -> np.ndarray:
    """Walk values at the grid times for many paths, shape (n_paths, n_t, N).

    Exact in distribution: between grid times only the multinomial counts of
    atoms matter, and those are drawn directly.
    """
    if h <= 0:
        raise NonPositiveStep(f"time step must be positive, got {h}")
    steps = _grid_steps(t_grid, h)
    rng = np.random.default_rng([seed])
    out = np.zeros((n_paths, len(steps), rv.dim), dtype=complex)
    if n_paths == 0:
        return out
    counts = np.zeros((n_paths, len(rv.probabilities)))
    prev = 0
    for idx, s in enumerate(steps):
        if s > prev:
            counts = counts + rng.multinomial(s - prev, rv.probabilities, size=n_paths)
            prev = s
        _real_product(np.sqrt(h) * counts, rv.values, out[:, idx, :])
    return out


def limit_ensemble(spec: LimitSpec, t_grid, n_paths: int, seed: int = 0) -> np.ndarray:
    """Limit-martingale values at the grid times, shape (n_paths, n_t, N).

    Raises ``DimensionMismatch`` for a grid that is not finite, nonnegative
    and increasing, and ``TooManyJumps`` when a direction expects more than
    ``MAX_ENSEMBLE_JUMPS`` jumps by the last grid time.
    """
    grid = np.asarray(t_grid, dtype=float)
    if not (np.all(np.isfinite(grid)) and np.all(grid >= 0) and np.all(np.diff(grid) >= 0)):
        raise DimensionMismatch("time grid must be finite, nonnegative and increasing")
    n_t = len(grid)
    if n_t and not np.all(spec.intensities * grid[-1] <= MAX_ENSEMBLE_JUMPS):
        raise TooManyJumps(
            f"intensity {np.max(spec.intensities):.3g} expects more than "
            f"{MAX_ENSEMBLE_JUMPS:.3g} jumps on [0, {grid[-1]:.6g}]"
        )
    rng = np.random.default_rng([seed])
    out = np.zeros((n_paths, n_t, spec.dim), dtype=complex)
    if n_paths == 0 or n_t == 0:
        return out
    dts = np.diff(np.concatenate([[0.0], grid]))
    if spec.n_brownian:
        db = rng.normal(0.0, 1.0, size=(n_paths, n_t, spec.n_brownian)) * np.sqrt(
            dts
        )[None, :, None]
        _real_product(np.cumsum(db, axis=1), spec.brownian_basis, out)
    for v, lam in zip(spec.poisson_dirs, spec.intensities):
        dn = rng.poisson(lam * dts, size=(n_paths, n_t))
        compensated = (np.cumsum(dn, axis=1) - lam * grid[None, :])[:, :, None]
        out.real += compensated * v.real
        out.imag += compensated * v.imag
    return out


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
        return max(
            self.mean_distance,
            self.cov_conj_distance,
            self.cov_plain_distance,
            self.abs4_distance,
        )


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
    if wv.shape[0] == 0 or lv.shape[0] == 0 or len(grid) == 0:
        return MomentReport(
            t_grid=grid,
            mean_distance=0.0,
            cov_conj_distance=0.0,
            cov_plain_distance=0.0,
            abs4_distance=0.0,
        )
    dists = [
        float(np.max(np.abs(w - lim))) for w, lim in zip(_moments(wv), _moments(lv))
    ]
    return MomentReport(
        t_grid=grid,
        mean_distance=dists[0],
        cov_conj_distance=dists[1],
        cov_plain_distance=dists[2],
        abs4_distance=dists[3],
    )
