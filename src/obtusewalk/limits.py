"""Continuous-time limits of obtuse random walks.

Rescaling a walk with time step h multiplies the tensor entry S^{ij}_k by
h^{e_i + e_j - e_k}, with exponent 1 on the constant coordinate and 1/2 on
the others.  As h goes to zero only two entry classes survive: the matrix
Lambda^{ij} = lim S^{ij}_0 and the inner tensor M^{ij}_k = lim sqrt(h)
S^{ij}_k.  The limit tensor is doubly symmetric, Lambda is symmetric
unitary, and together they pin down the law of the limiting normal
martingale: jumps happen along the fixed points of M with Poisson rates
1/|v|^2; the remaining dimensions carry a rotated real Brownian motion.

A ``Tensor3`` sample and the limit of ``classify`` go through the gate of
``diagonalize`` (``tensor._certify_or_sweep``): the fixed points certify
double symmetry at O(d^4), and a tensor they fail to certify is swept once,
with the results and errors of sweeping first.  An ``ObtuseSystem`` sample is
valid, so its tensor is doubly symmetric (the characterization theorem) and
is not checked.  ``classify`` adds the four Lambda relations to the gate's
report, where the ``method`` of sym2 and sym3 says whether they are the
certificate's upper bounds or swept residuals.  Every bound is relative
(``obtuse._bound``).

A family whose samples are all one object (``TensorFamily.constant``, a
sample repeated in ``from_samples``) is h-independent, and its limit is
exact: Lambda = S^{ij}_0, M = 0 and no extrapolation error, so
``limit_tensor`` takes the one sample.  Otherwise it adds each distinct
sample into four weighted sums (``_weights``), within the memory budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InconsistentCount,
    NoApparentLimit,
    NonPositiveStep,
    NotDoublySymmetric,
    StructureViolation,
    TooLarge,
)
from .obtuse import (
    DEFAULT_TOL,
    Check,
    ObtuseSystem,
    SymmetryReport,
    Tensor3,
    _bound,
    _identity_defect,
    _require_constant,
    _require_coordinate,
    _require_memory,
    _require_step,
    _require_tensor,
    _sweep_bytes,
    check_symmetries,
    tensor_of,
)
from .takagi import unitary_sqrt
from .tensor import _certify_or_sweep, _fixed_points

# bound on an entry's extrapolation error over max(1, max|limit|): it is at most
# 3.1e-6 with a sqrt(h) expansion (N = 2 jumps of intensity <= 0.09, DEFAULT_STEPS)
# and 2.7e-4 or more without (alternating sign, p = c h^2 or c sqrt(h), e^{i log h})
_EXTRAPOLATION_TOL = 1e-5

DEFAULT_STEPS = tuple(0.1 * 4.0**-k for k in range(5))

# d^3 complex blocks at the streamed peak: four sums, a sample, its four scaled copies
_STREAM_BLOCKS = 9


@dataclass(frozen=True)
class TensorFamily:
    """A map h -> S(h) sampled on a decreasing grid of steps: a sample is the
    ``Tensor3`` S(h) or an ``ObtuseSystem`` whose tensor is S(h)."""

    tensor_at: object  # callable h -> Tensor3 | ObtuseSystem
    steps: tuple

    def __post_init__(self):
        steps = tuple(float(h) for h in self.steps)
        if len(steps) < 3:
            raise DimensionMismatch("need at least 3 sample steps")
        for h in steps:
            _require_step(h)
        if not all(a > b for a, b in zip(np.sqrt(steps), np.sqrt(steps[1:]))):
            raise NonPositiveStep(f"steps must be decreasing in sqrt(h): {steps}")
        object.__setattr__(self, "steps", steps)

    @classmethod
    def from_samples(cls, steps, samples) -> "TensorFamily":
        steps = tuple(float(h) for h in steps)
        samples = list(samples)
        if len(samples) != len(steps):
            raise DimensionMismatch(f"{len(steps)} sample steps but {len(samples)} samples")
        return cls(tensor_at=dict(zip(steps, samples)).__getitem__, steps=steps)

    @classmethod
    def constant(cls, sample: Tensor3 | ObtuseSystem, steps=DEFAULT_STEPS) -> "TensorFamily":
        return cls(tensor_at=lambda h: sample, steps=steps)

    def sample(self) -> list[Tensor3 | ObtuseSystem]:
        return [self.tensor_at(h) for h in self.steps]


def _weights(x: np.ndarray) -> np.ndarray:
    """Weights over samples at the decreasing nodes ``x``: row 0 the Lagrange
    weights at 0, w_s = prod_{t != s} x_t / (x_t - x_s), the limit of Neville's
    table on the nodes (Sidi, *Practical Extrapolation Methods*, CUP 2003,
    ch. 1); row 1 w minus them without the coarsest node, the table's error
    estimate; rows 2 and 3 the differences that ``_observed_order`` reads."""
    n = len(x)
    ratio = x / (x - x[:, None] + np.eye(n))  # ratio[s, t] = x_t / (x_t - x_s), t != s
    ratio.flat[:: n + 1] = 1.0
    rows = np.zeros((4, n))
    rows[0] = rows[1] = ratio.prod(axis=1)
    rows[1, 1:] -= ratio[1:, 1:].prod(axis=1)
    rows[2, -3:-1] = rows[3, -2:] = (-1.0, 1.0)
    return rows


def _first_entry(mask: np.ndarray) -> tuple:
    """First (i, j, k) in index order where ``mask`` over i, j >= 1 holds."""
    first = np.unravel_index(np.argmax(mask), mask.shape)
    return tuple(int(x) + offset for x, offset in zip(first, (1, 1, 0)))


def _observed_order(earlier, later, steps, bound) -> np.ndarray:
    """Per-entry order p of convergence like h^p, from the differences
    ``earlier`` and ``later`` of each sequence over the three finest ``steps``:
    log(max(|earlier|, bound) / |later|) / log(h_{n-1} / h_n), exact for
    lim + c h^p on a geometric grid and approximate on any other.  An entry
    whose later difference is at most ``bound`` does not move: order inf.  A
    step ratio that overflows (1e309 between 0.1 and 1e-310) is taken as
    log(h_{n-1}) - log(h_n); every finite ratio keeps its own log's bits."""
    a, b = np.abs(earlier), np.abs(later)
    with np.errstate(over="ignore"):
        ratio = steps[-2] / steps[-1]
    log_ratio = np.log(ratio) if ratio < np.inf else np.log(steps[-2]) - np.log(steps[-1])
    p = np.log(np.maximum(a, bound) / np.maximum(b, bound)) / log_ratio
    return np.where(b > bound, p, np.inf)


@dataclass(frozen=True, eq=False)
class LimitTensorResult:
    """Extrapolated limit tensor plus convergence diagnostics.

    ``noise``, the largest error estimate of an entry, is added to the
    tolerance of ``classify``.  ``worst_order`` is the smallest observed
    order of an entry as an exponent of h (``_observed_order``), and
    ``worst_entry`` the first entry at it, or inf and None if no entry moves.
    ``tensor`` carries no constant flag: its coordinate 0 is time, where
    Lambda sits, not X^0 = 1, since the rescaled S^{0j}_k = h delta_jk vanish.
    """

    tensor: Tensor3
    lambda_matrix: np.ndarray
    worst_order: float
    worst_entry: tuple | None
    noise: float


def limit_tensor(family: TensorFamily, tol: float = DEFAULT_TOL) -> LimitTensorResult:
    """Extrapolate the limit tensor M from sampled rescaled walks.

    Entries M^{ij}_0 extrapolate S^{ij}_0(h); entries M^{ij}_k (all indices
    >= 1) extrapolate sqrt(h) S^{ij}_k(h); every other entry is forced to
    zero by the rescaling exponents and is asserted, not estimated.  Raises
    ``NoApparentLimit``, with its ``_observed_order``, at the first entry
    whose error estimate (``_weights``) exceeds the bound ``_bound(
    _EXTRAPOLATION_TOL, max|M|)`` that the orders share.  Each distinct
    sample object's tensor (``_sample_tensor``) is added into the sums with
    the sum of its steps' weights, and dropped; if there is one object, the
    limit is in closed form (``_constant_limit``).  First, ``DimensionMismatch``
    unless each distinct sample is an ``ObtuseSystem`` or a ``Tensor3`` carrying
    X^0 = 1 (``_sample_dim``) and all share one dimension, then ``TooLarge``
    if the peak exceeds the memory budget: one check's sweep (``_sweep_bytes``)
    plus two d^3 blocks if constant, else ``_STREAM_BLOCKS`` and one per
    distinct ``Tensor3``, an upper bound if the caller already holds it.
    """
    steps = np.array(family.steps)
    samples = family.sample()
    # the first step of each distinct sample object, and of the object at each step
    first = {}
    owner = [first.setdefault(id(s), i) for i, s in enumerate(samples)]
    d = _sample_dim(samples[0])
    for i in first.values():
        if _sample_dim(samples[i]) != d:
            raise DimensionMismatch("family samples have inconsistent shape")
    constant = len(first) == 1
    tensors = sum(isinstance(samples[i], Tensor3) for i in first.values())
    held = 2 if constant else _STREAM_BLOCKS + tensors
    n_bytes = _sweep_bytes(d) + held * 16 * d**3
    _require_memory(n_bytes, TooLarge, f"{len(samples)} samples of dimension {d}")
    if constant:
        return _constant_limit(_sample_tensor(samples[0], steps[0], tol).entries, steps)
    # each step's weights on S^{ij}_0 and, times sqrt(h), on S^{ij}_k, summed per object
    x = np.sqrt(steps)
    weights = _weights(x)
    per_step = (weights * x).T[:, :, None, None, None].repeat(d, axis=4)
    per_step[..., 0] = weights.T[:, :, None, None]
    scales = np.zeros_like(per_step)
    np.add.at(scales, owner, per_step)
    # (4, N, N, N + 1) over i, j >= 1: the limits, their errors and two differences
    sums = np.zeros((4, d - 1, d - 1, d), dtype=complex)
    for i in first.values():
        sums += scales[i] * _sample_tensor(samples[i], steps[i], tol).entries[1:, 1:, :]
    lims, errors = sums[0], np.abs(sums[1])
    bound = _bound(_EXTRAPOLATION_TOL, np.max(np.abs(lims), initial=0.0))
    orders = _observed_order(sums[2], sums[3], steps, bound)
    failed = ~(errors <= bound)
    if np.any(failed):
        entry, error, order = _first_entry(failed), errors[failed][0], orders[failed][0]
        msg = "entry ({},{},{}) shows no convergent trend: extrapolation error {:.2e} > {:.2e}"
        # + 0.0 turns a -0.0 that rounding leaves into 0.0
        msg = msg.format(*entry, error, bound) + f", observed order h^{round(order, 2) + 0.0:.2f}"
        raise NoApparentLimit(msg, entry=entry, order=float(order))
    entries = np.zeros((d, d, d), dtype=complex)
    entries[1:, 1:, :] = lims
    return _limit_result(entries, orders, float(np.max(errors, initial=0.0)))


def _sample_tensor(sample, h: float, tol: float) -> Tensor3:
    """A family sample's tensor: an ``ObtuseSystem``'s built unchecked, a flagged
    ``Tensor3`` through the gate of ``diagonalize``, whose report alone decides
    it, so no error of the fixed-point kernel escapes (``NotDoublySymmetric``)."""
    if isinstance(sample, ObtuseSystem):
        return tensor_of(sample)
    _, report, _ = _certify_or_sweep(
        sample, tol, lambda: (None, _fixed_points(sample, tol).vectors)
    )
    if not report.ok:
        what = f"sample at h={h} violates tensor symmetries:"
        raise NotDoublySymmetric(f"{what} {report.residuals()}")
    return sample


def _sample_dim(sample) -> int:
    """Dimension d = N + 1 of the tensor of a family sample, without building it, once
    a sample that is no ``ObtuseSystem`` passes ``_require_constant``."""
    if isinstance(sample, ObtuseSystem):
        return sample.dim + 1
    _require_constant(sample)
    return sample.dim


def _constant_limit(s: np.ndarray, steps: np.ndarray) -> LimitTensorResult:
    """The limit of a family whose every sample has the entries ``s``.

    S^{ij}_0(h) is constant and sqrt(h) S^{ij}_k(h) = x S^{ij}_k goes to 0,
    so Lambda is S^{ij}_0 and M is 0, exactly, with no extrapolation error
    (Donsker's case).  The observed orders are ``limit_tensor``'s rule on
    the exact differences (x_{n-2} - x_{n-1}) |S^{ij}_k| and
    (x_{n-1} - x_n) |S^{ij}_k| of the three finest nodes x = sqrt(h), under
    the same bound: 1/2 on a geometric grid wherever S^{ij}_k moves.
    """
    d = len(s)
    entries = np.zeros((d, d, d), dtype=complex)
    entries[1:, 1:, 0] = s[1:, 1:, 0]
    # |S^{ij}_k| for i, j >= 1, and 0 for the constant sequences k = 0
    size = np.abs(s[1:, 1:, :])
    size[..., 0] = 0.0
    x = np.sqrt(steps)
    bound = _bound(_EXTRAPOLATION_TOL, np.max(np.abs(s[1:, 1:, 0]), initial=0.0))
    orders = _observed_order((x[-3] - x[-2]) * size, (x[-2] - x[-1]) * size, steps, bound)
    return _limit_result(entries, orders, 0.0)


def _limit_result(entries: np.ndarray, orders: np.ndarray, noise: float) -> LimitTensorResult:
    """The result of the limit ``entries``, per-entry observed orders and noise."""
    worst_order = float(np.min(orders, initial=np.inf))
    worst_entry = _first_entry(orders == worst_order) if worst_order < np.inf else None
    return LimitTensorResult(
        tensor=Tensor3(entries=entries, has_constant=False),
        lambda_matrix=entries[1:, 1:, 0].copy(),
        worst_order=worst_order,
        worst_entry=worst_entry,
        noise=noise,
    )


def _split_limit(m) -> tuple[np.ndarray, np.ndarray]:
    """Inner entries and Lambda of a full limit tensor or a ``LimitTensorResult``."""
    if isinstance(m, LimitTensorResult):
        m = m.tensor
    _require_tensor(m)
    # Lambda sits on coordinate 0 whatever the flag, and the inner tensor needs N >= 1
    _require_coordinate(1, m.dim)
    return m.entries[1:, 1:, 1:], m.entries[1:, 1:, 0].copy()


def _lambda_checks(inner: np.ndarray, lam: np.ndarray, tol: float) -> tuple[Check, ...]:
    """The four Lambda relations of a limit, exact, in two GEMMs, O(N^4).

    ``lambda_symmetry`` and ``lambda_unitarity`` check Lambda, bounded by
    ``_bound(tol, 1)``; ``exchange`` is the symmetry of sum_m M^{ij}_m
    Lambda^{mk} in (i, k) and ``reduction`` is sum_m conj(M^{km}_j)
    Lambda^{im} = M^{ij}_k, bounded by ``_bound(tol, N max|M|)``.
    """
    n = inner.shape[0]
    unit, nm = _bound(tol, 1.0), _bound(tol, n * float(np.abs(inner).max(initial=0.0)))
    lam_sym = float(np.max(np.abs(lam - lam.T)))
    lam_uni = _identity_defect(lam @ lam.conj().T)
    # ex[i, j, k] = sum_m M^{ij}_m Lambda^{mk}
    ex = (inner.reshape(n * n, n) @ lam).reshape(n, n, n)
    exchange = float(np.max(np.abs(ex - ex.transpose(2, 1, 0))))
    # red[i, j, k] = sum_m Lambda^{im} conj(M^{km}_j)
    red = (lam @ np.conj(inner).transpose(1, 2, 0).reshape(n, n * n)).reshape(n, n, n)
    reduction = float(np.max(np.abs(red - inner)))
    return (
        Check("lambda_symmetry", lam_sym, unit, "exact"),
        Check("lambda_unitarity", lam_uni, unit, "exact"),
        Check("exchange", exchange, nm, "exact"),
        Check("reduction", reduction, nm, "exact"),
    )


def check_limit_symmetries(m, tol: float = DEFAULT_TOL) -> SymmetryReport:
    """Structure-relation report for a limit tensor (report-only, no raise).

    The inner tensor's swept report (no sym0: M has no constant coordinate,
    sym2 and sym3 by "sweep") plus the four ``_lambda_checks``: always the
    exhaustive O(N^5) sweep of the inner tensor, once.
    """
    inner, lam = _split_limit(m)
    rep = check_symmetries(Tensor3(inner, has_constant=False), tol=tol)
    return SymmetryReport((*rep.checks, *_lambda_checks(inner, lam, tol)))


@dataclass(frozen=True, eq=False)
class LimitSpec:
    """Full description of a limiting normal martingale in C^N.

    ``poisson_dirs[m]`` jumps with rate ``intensities[m] = 1/|v|^2``;
    ``brownian_basis`` spans (orthonormally) the subspace carrying the
    Brownian part; ``v_matrix`` is the principal square root of Lambda, a
    unitary with V V^T = Lambda rotating a real picture onto the complex
    one.  ``structure`` is the structure report ``classify`` checked the
    limit tensor against.
    """

    dim: int
    tensor: Tensor3  # inner tensor on {1..N}, no constant coordinate
    lambda_matrix: np.ndarray
    v_matrix: np.ndarray
    poisson_dirs: np.ndarray  # (K, N)
    intensities: np.ndarray  # (K,)
    brownian_basis: np.ndarray  # (N - K, N)
    structure: SymmetryReport | None = None

    @property
    def n_poisson(self) -> int:
        return len(self.poisson_dirs)

    @property
    def n_brownian(self) -> int:
        return len(self.brownian_basis)


def _require_spec(spec) -> None:
    """The guard of a limit-spec argument: ``DimensionMismatch`` unless a ``LimitSpec``."""
    if not isinstance(spec, LimitSpec):
        raise DimensionMismatch(f"expected a LimitSpec, got {type(spec).__name__}")


def _real_complement(rows: np.ndarray, n: int) -> np.ndarray:
    """Orthonormal real basis of the complement of K orthogonal real rows.

    The last N - K right singular vectors of the rows, so exactly N - K
    vectors come back whatever the rows' scale (the identity at K = 0).
    Each vector is signed so that its entry of largest modulus is positive.
    """
    if not len(rows):
        return np.eye(n)
    comp = np.linalg.svd(rows)[2][len(rows) :]
    pivots = comp[np.arange(len(comp)), np.argmax(np.abs(comp), axis=1)]
    return comp * np.where(pivots < 0, -1.0, 1.0)[:, None]


def classify(m, tol: float = DEFAULT_TOL) -> LimitSpec:
    """Split a limit tensor into Poisson directions and a Brownian subspace.

    The Poisson directions are the fixed points of the inner tensor; V is
    the principal square root of Lambda.  The real pre-images V* v of the
    jump directions must be real vectors; their real orthocomplement, pushed
    forward by V, spans the Brownian part.  Dimensions always add up to N.

    Any Takagi factor serves: Lambda is symmetric unitary, so two factors
    V, V' with V V^T = V' V'^T = Lambda differ by a real orthogonal O
    (V' = V O), and the pre-images V'* v = O^T V* v are real exactly when
    V* v are.  So if the computed factor gives a non-real pre-image, every
    factor does, and ``InconsistentCount`` is raised.

    Every check uses one tolerance, ``tol`` plus a ``LimitTensorResult``'s
    ``noise``.  The structure report is the one gate on the limit relations:
    the report of the inner tensor from the gate of ``diagonalize``
    (``tensor._certify_or_sweep``) with the exact ``_lambda_checks``.  The
    fixed points certify it when the whole report passes, and then sym2 and
    sym3 are upper bounds (method "certificate"); otherwise, or if the kernel
    raises, the inner tensor is swept once ("sweep").  The report is kept on
    ``LimitSpec.structure``.  A failing relation raises
    ``StructureViolation``, then the kernel's error stands.
    """
    inner, lam = _split_limit(m)
    tol += m.noise if isinstance(m, LimitTensorResult) else 0.0
    n = inner.shape[0]
    inner_t = Tensor3(inner, has_constant=False)

    def kernel():
        dirs = _fixed_points(inner_t, tol).vectors
        return dirs, dirs

    extra = _lambda_checks(inner, lam, tol)
    dirs, report, error = _certify_or_sweep(inner_t, tol, kernel, extra)
    if not report.ok:
        raise StructureViolation(f"limit tensor fails structure relations: {report.residuals()}")
    if error is not None:
        raise error
    if len(dirs) > n:
        raise InconsistentCount(f"{len(dirs)} jump directions in dimension {n}")

    v = unitary_sqrt(lam)
    w = dirs @ np.conj(v)
    imag = float(np.max(np.abs(w.imag), initial=0.0))
    if not imag <= _bound(tol, float(np.max(np.abs(w), initial=0.0))):
        raise InconsistentCount(
            f"jump directions have no real pre-image under the square root of Lambda "
            f"(residual {imag:.3e})"
        )
    brownian = _real_complement(w.real, n) @ v.T
    return LimitSpec(
        dim=n,
        tensor=inner_t,
        lambda_matrix=lam,
        v_matrix=v,
        poisson_dirs=dirs,
        intensities=1.0 / np.sum(np.abs(dirs) ** 2, axis=1),
        brownian_basis=brownian,
        structure=report,
    )
