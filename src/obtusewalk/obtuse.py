"""Complex obtuse systems and obtuse random variables.

An obtuse system in C^N is a family of N+1 vectors whose pairwise inner
products all equal -1 (inner products are conjugate-linear in the first
argument throughout).  Attaching the probabilities p_i = 1/(1 + |v_i|^2)
turns the family into the value set of a centered, normalized random
variable taking exactly N+1 values: an obtuse random variable.  This module
builds and validates these objects, computes the 3-tensor S^{ij}_k =
E[X^i X^j conj(X^k)] that encodes their multiplication algebra, checks its
symmetry relations, and implements the uniqueness and embedding results
that make obtuse variables generate all finitely supported ones.

All arrays are immutable by convention: no function mutates its inputs and
results are freshly allocated, so everything here is safe to use from
multiple threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    AmbiguousMatching,
    DimensionMismatch,
    MinimalSupport,
    NonPositiveStep,
    NotObtuse,
    ProbabilityMismatch,
    SingularSystem,
)

# relative tolerance of every check (``_bound``), about 1e7 unit roundoffs
DEFAULT_TOL = 1e-9

# probabilities this close are equal: tied atoms, a sum of 1 (n eps, n <= 4500)
TIE_EPS = 1e-12

# bytes of products one block of the sym2/sym3 sweep holds: a block then fits
# in one core's L2 cache (2 MiB per core on the reference Xeon host), and the
# sweep's working memory is a few blocks instead of the d^4 intermediates
_SWEEP_BLOCK_BYTES = 2 * 2**20

# byte budget of every allocation that grows with the input (ensembles, paths,
# chain matrices, limit_tensor): it admits the recorded 1e5-path x 10-time
# ensembles in C^32 and fits a host with 8 GiB
MEMORY_BYTES = 2**31


def _require_memory(n_bytes, error: type, what: str) -> None:
    """Raise ``error`` if ``n_bytes`` (NaN too) exceed ``MEMORY_BYTES``, read at call time."""
    if not n_bytes <= MEMORY_BYTES:
        raise error(f"{what} would exceed the {MEMORY_BYTES}-byte memory budget")


def _bound(tol: float, scale: float) -> float:
    """The largest residual a check accepts: tol * max(1, scale).

    ``scale`` is the size of the terms compared (README "Checks"), as a sum is
    off by a multiple of its terms' moduli (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., 3.1); an array of scales gives one bound
    per residual.  An overflowed scale gives NaN, which fails every check
    written ``residual <= bound``.
    """
    if isinstance(scale, np.ndarray):
        bound = tol * np.maximum(1.0, scale)
        return np.where(bound < math.inf, bound, math.nan)
    # a number takes the scalar path: numpy's ufuncs cost 10 times as much on one
    bound = tol * max(1.0, scale)
    return bound if bound < math.inf else math.nan


def _identity_defect(m: np.ndarray) -> float:
    """max|m - I| of a square matrix ``m``, which it overwrites: build no I.

    ``x - 0`` is ``x`` for every float, signed zeros too, so subtracting 1 on
    the diagonal alone gives the bits of ``m - np.eye(len(m))``.
    """
    m.flat[:: len(m) + 1] -= 1.0
    return float(np.abs(m).max(initial=0.0))


def _corner_defect(m: np.ndarray) -> float:
    """max|m - I| over the first row and column of a square ``m``: how far it is from fixing e_0."""
    edges = np.abs(np.concatenate((m[0, 1:], m[1:, 0])))
    return max(abs(m[0, 0] - 1.0), float(edges.max(initial=0.0)))


def _as_array(values, dtype=complex) -> np.ndarray:
    """The guard of array input: ``values`` as a ``dtype`` array, ``DimensionMismatch``
    for a ragged or non-numeric one, which numpy refuses with ``ValueError`` or ``TypeError``,
    for text, which numpy would parse ("0.5"), also inside an object array, and for
    complex input to a real ``dtype``."""
    refused = "USc" if np.dtype(dtype).kind == "f" else "US"
    try:
        arr = np.asarray(values)
        text = arr.dtype == object and any(isinstance(x, (str, bytes)) for x in arr.flat)
        if arr.dtype.kind not in refused and not text:
            return arr.astype(dtype, copy=False)
    except (TypeError, ValueError):
        pass
    raise DimensionMismatch(f"expected a rectangular array of numbers, got {type(values).__name__}")


def _as_square(m) -> np.ndarray:
    """The guard of a matrix argument: ``m`` as a complex (n, n) array (``_as_array``)."""
    arr = _as_array(m)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _as_vectors(values) -> np.ndarray:
    """Stack a sequence of vectors into a complex (n, d) array (``_as_array``)."""
    arr = _as_array(values)
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a family of vectors, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DimensionMismatch("vector entries must be finite")
    return arr


def _as_family(values, system: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The guard of a vector family: its vectors (``_as_vectors``) and their |v|^2.

    Each |v|^2 must be a positive finite float, else ``DimensionMismatch`` names
    the vector: a zero one, or one whose squared norm under- or overflows.  With
    ``system``, first the count: an obtuse system is N+1 vectors of C^N.
    """
    arr = _as_vectors(values)
    n, d = arr.shape
    if system and n != d + 1:
        raise DimensionMismatch(f"need {d + 1} vectors in C^{d}, got {n}")
    # the range check below reports a squared norm that over- or underflows
    with np.errstate(over="ignore", under="ignore"):
        norms2 = (np.abs(arr) ** 2).sum(axis=1)
    if not (norms2.min(initial=math.inf) > 0.0 and norms2.max(initial=0.0) < math.inf):
        i = int(np.flatnonzero(~((norms2 > 0.0) & (norms2 < math.inf)))[0])
        if system and not arr[i].any():
            raise DimensionMismatch("obtuse systems contain no zero vector")
        raise DimensionMismatch(
            f"|v|^2 of vector {i} is {norms2[i]:.3e} in floating point, "
            "not a positive finite number"
        )
    return arr, norms2


def _require_probabilities(p: np.ndarray) -> None:
    """The guard of a probability vector ``p``: positive entries that sum to 1 (``TIE_EPS``)."""
    if np.any(p <= 0.0) or not abs(float(np.sum(p)) - 1.0) <= TIE_EPS:
        raise DimensionMismatch("probabilities must be positive and sum to 1")


def _is_real(x) -> bool:
    """Whether ``x`` is a real number (a Python or numpy one), not a flag or a string."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _require_step(h) -> None:
    """The guard of a time step: ``NonPositiveStep`` unless a real number (``_is_real``)
    with 0 < h < inf (NaN fails); a non-real is shown by ``repr``, so "1" is no 1."""
    if not (_is_real(h) and 0 < h < math.inf):
        shown = h if _is_real(h) else repr(h)
        raise NonPositiveStep(f"time step must be positive and finite, got {shown}")


def _require_integer(n, what: str) -> None:
    """The guard of an integer argument (a count, a seed): ``DimensionMismatch`` unless
    ``n`` is an int or a numpy integer, not a bool, and n >= 0."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise DimensionMismatch(f"{what} must be a nonnegative integer, got {n!r}")


def _require_coordinate(i, dim: int) -> None:
    """The guard of a coordinate index: ``DimensionMismatch`` unless an integer
    (``_require_integer``) with 0 <= i < dim, a negative one refused, not wrapped."""
    if isinstance(i, (int, np.integer)) and not 0 <= i < dim:
        raise DimensionMismatch(f"coordinate {i} out of range for dimension {dim}")
    _require_integer(i, "coordinate")


def _require_tensor(tensor) -> None:
    """The guard of a tensor argument: ``DimensionMismatch`` unless a ``Tensor3``."""
    if not isinstance(tensor, Tensor3):
        raise DimensionMismatch(f"expected a Tensor3, got {type(tensor).__name__}")


def _require_variable(x) -> None:
    """The guard of a variable argument: ``DimensionMismatch`` unless an
    ``ObtuseSystem``, an ``ObtuseRV`` included."""
    if not isinstance(x, ObtuseSystem):
        raise DimensionMismatch(f"expected an ObtuseRV or ObtuseSystem, got {type(x).__name__}")


def _require_constant(tensor: Tensor3, i: int = 0) -> None:
    """The guard of a constant-coordinate tensor (X^0 = 1) and its coordinate ``i``."""
    _require_tensor(tensor)
    if not tensor.has_constant:
        raise DimensionMismatch("tensor does not carry a constant coordinate")
    _require_coordinate(i, tensor.dim)


def _pair_check(residuals: np.ndarray, p: np.ndarray, tol: float) -> tuple[tuple[int, int], Check]:
    """The pair (i, j), i != j, farthest over its own bound ``_bound(tol, |v_i| |v_j|)``,
    with |v_i| read off p_i = 1/(1 + |v_i|^2), and its ``Check`` "pairs".

    Every pair passes exactly when that check does; a NaN residual or bound
    is the farthest, so it fails.  No pair bound is below tol, so where no
    residual exceeds tol every pair passes, one whose bound overflowed to NaN
    too: the fast path, which ``_require_obtuse`` takes before the bounds.
    """
    with np.errstate(over="ignore"):  # long vectors overflow 1/p and their bounds: NaN (_bound)
        norms = np.sqrt(1.0 / p - 1.0)
        bounds = _bound(tol, np.outer(norms, norms))
    if residuals.max() <= tol:
        bounds[np.isnan(bounds)] = math.inf
    ratio = residuals / bounds
    ratio.flat[:: len(ratio) + 1] = -math.inf  # the diagonal is no pair
    i, j = divmod(int(np.argmax(ratio)), len(ratio))
    return (i, j), Check("pairs", float(residuals[i, j]), float(bounds[i, j]), "exact")


def _obtuse_pairs(values):
    """What the obtuseness decision reads: ``(vectors, p, pair residuals)``.

    The one kernel behind ``validate_obtuse_system`` and ``_require_obtuse``,
    whose test of the residuals is ``_pair_check``.
    Structural problems raise ``DimensionMismatch`` (``_as_family``).
    """
    arr, norms2 = _as_family(values, system=True)
    residuals = np.abs(np.conj(arr) @ arr.T + 1.0)
    residuals.flat[:: len(arr) + 1] = 0.0  # the diagonal, as np.fill_diagonal without its wrapper
    return arr, 1.0 / (1.0 + norms2), residuals


@dataclass(frozen=True, eq=False)
class SystemValidation:
    """Residual report of ``validate_obtuse_system``, read by ``obtusewalk validate``.

    ``pair_residuals[i, j]`` is ``|<v_i, v_j> + 1|`` for i != j (zero on the
    diagonal).  ``worst_pair`` is the pair i != j farthest over its own bound
    ``_bound(tol, |v_i| |v_j|)``, so a long vector does not loosen the bound
    of the others, and ``check`` is that pair's residual and bound, the
    gate's own pair test (``_pair_check``): ``ok`` is ``check.ok``.  The
    three aggregate residuals correspond to sum(p) = 1, sum(p v) = 0 and
    sum(p |v><v|) = I, which hold automatically for a true obtuse system, so
    they carry no bound and no gate reads them.
    """

    probabilities: np.ndarray
    pair_residuals: np.ndarray
    prob_sum_residual: float
    mean_residual: float
    identity_residual: float
    worst_pair: tuple[int, int]
    check: Check

    @property
    def max_pair_residual(self) -> float:
        return float(self.pair_residuals.max())

    @property
    def ok(self) -> bool:
        return self.check.ok


def validate_obtuse_system(values, tol: float = DEFAULT_TOL) -> SystemValidation:
    """Check that ``values`` is an obtuse system of C^N, with the full report.

    The gate's kernel (``_obtuse_pairs`` and ``_pair_check``) plus the
    residuals of the three derived identities sum(p) = 1, sum(p v) = 0 and
    sum(p |v><v|) = I, which only this report carries.  Returns the derived
    probabilities with the pairwise residuals |<v_i,v_j> + 1|, the worst
    pair's check and the three aggregates.  Structural problems raise
    ``DimensionMismatch`` (``_as_family``); a mere failure of obtuseness is
    reported in the result, not raised.
    """
    arr, p, residuals = _obtuse_pairs(values)
    worst_pair, check = _pair_check(residuals, p, tol)
    ident = np.einsum("m,mi,mj->ij", p, arr, np.conj(arr))
    return SystemValidation(
        probabilities=p,
        pair_residuals=residuals,
        prob_sum_residual=abs(float(np.sum(p)) - 1.0),
        mean_residual=float(np.linalg.norm(p @ arr)),
        identity_residual=_identity_defect(ident),
        worst_pair=worst_pair,
        check=check,
    )


def _require_obtuse(values, tol: float, what: str = "") -> tuple[np.ndarray, np.ndarray]:
    """The gate of every obtuse system the library builds or recovers.

    Runs the pair test of ``validate_obtuse_system`` alone (``_obtuse_pairs``
    and ``_pair_check``), without its aggregate residuals, and returns the
    complex vectors and their probabilities.  Most systems pass on
    ``_pair_check``'s fast path, which the gate takes before the bounds are
    built.  Structural problems raise ``DimensionMismatch`` as there; a
    failed pair test raises ``NotObtuse`` naming the pair farthest over its
    bound (``worst_pair``) with that pair's own residual and bound, after the
    prefix ``what``.
    """
    arr, p, residuals = _obtuse_pairs(values)
    if residuals.max() <= tol:  # _pair_check's fast path: every pair passes
        return arr, p
    (i, j), check = _pair_check(residuals, p, tol)
    if not check.ok:
        raise NotObtuse(
            f"{what}vectors {i} and {j} have inner product residual "
            f"{check.value:.3e} > {check.bound:.3e}",
            pair=(i, j),
            residual=check.value,
        )
    return arr, p


@dataclass(frozen=True, eq=False)
class ObtuseSystem:
    """An obtuse system: N+1 vectors of C^N plus their probabilities."""

    values: np.ndarray
    probabilities: np.ndarray

    @classmethod
    def from_values(cls, values, tol: float = DEFAULT_TOL) -> "ObtuseSystem":
        arr, p = _require_obtuse(values, tol)
        return cls(values=arr, probabilities=p)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def hatted(self) -> np.ndarray:
        """The vectors (1, v_i) in C^{N+1}, stacked as rows."""
        n, d = self.values.shape
        out = np.empty((n, d + 1), dtype=complex)
        out[:, 0] = 1.0
        out[:, 1:] = self.values
        return out


class ObtuseRV(ObtuseSystem):
    """Obtuse random variable: an obtuse system read as a random variable.

    The atom i carries the value ``values[i]`` with probability
    ``probabilities[i]``; the class adds no state.  The matrix with rows
    sqrt(p_i) (1, v_i) is unitary exactly when the family is obtuse.
    """

    def __init__(self, system: ObtuseSystem):
        _require_variable(system)
        object.__setattr__(self, "values", system.values)
        object.__setattr__(self, "probabilities", system.probabilities)

    @classmethod
    def from_values(cls, values, tol: float = DEFAULT_TOL) -> "ObtuseRV":
        return cls(ObtuseSystem.from_values(values, tol))


def rv_is_centered_normalized(values, probabilities, tol: float = DEFAULT_TOL):
    """Whether a finitely supported variable has mean 0 and covariance I.

    Works for any number of atoms n in C^d, not only n = d+1.  Returns
    ``(ok, mean_residual, covariance_residual)`` where the covariance is
    E[conj(X^i) X^j], both bounded by ``_bound(tol, max p|x|^2)``.  A value
    whose |x|^2 overflows gives a NaN bound, which fails, with no warning.
    """
    arr = _as_vectors(values)
    p = _as_array(probabilities, float)
    if p.shape != (arr.shape[0],):
        raise DimensionMismatch("one probability per atom required")
    _require_probabilities(p)
    with np.errstate(over="ignore", invalid="ignore"):
        mean_res = float(np.linalg.norm(p @ arr))
        cov_res = _identity_defect(np.einsum("m,mi,mj->ij", p, np.conj(arr), arr))
        bound = _bound(tol, np.max(p * np.sum(np.abs(arr) ** 2, axis=1)))
    return bool(mean_res <= bound and cov_res <= bound), mean_res, cov_res


# ---------------------------------------------------------------------------
# 3-tensors
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Tensor3:
    """Dense 3-tensor S^{ij}_k on C^D, stored as ``entries[i, j, k]``.

    ``has_constant`` marks whether index 0 plays the role of the constant
    coordinate X^0 = 1 (true for tensors of obtuse random variables, false
    e.g. for limit tensors restricted to the coordinates 1..N).
    """

    entries: np.ndarray
    has_constant: bool = True

    def __post_init__(self):
        arr = _as_array(self.entries)
        if arr.ndim != 3 or len(set(arr.shape)) != 1:
            raise DimensionMismatch(f"tensor entries must be a cube, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise DimensionMismatch("tensor entries must be finite")
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def slice(self, j: int) -> np.ndarray:
        """The matrix (S^{ij}_k)_{i,k} of the coordinate j."""
        _require_coordinate(j, self.dim)
        return np.array(self.entries[:, j, :])

    def k_slice(self, k: int) -> np.ndarray:
        """The complex symmetric matrix S_k = (S^{ij}_k)_{i,j}."""
        _require_coordinate(k, self.dim)
        return np.array(self.entries[:, :, k])

    def apply(self, x) -> np.ndarray:
        """Contract on the third index: (S(x))^{ij} = sum_k S^{ij}_k x^k."""
        vec = _as_array(x)
        if vec.shape != (self.dim,):
            raise DimensionMismatch(f"expected a vector of dimension {self.dim}")
        return self.entries @ vec


def tensor_of(rv: ObtuseSystem) -> Tensor3:
    """The 3-tensor S^{ij}_k = E[X^i X^j conj(X^k)] of an obtuse variable.

    Indices run over 0..N with X^0 = 1, so the tensor lives on C^{N+1}.  It is
    the unique tensor with X^i X^j = sum_k S^{ij}_k X^k on the atoms.
    """
    _require_variable(rv)
    return Tensor3(entries=_khatri_rao(rv.probabilities, rv.hatted), has_constant=True)


def _khatri_rao(weights: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Entries sum_m w_m v_m^i v_m^j conj(v_m^k) of K weighted vectors in C^d.

    One BLAS product: the Khatri-Rao rows w_m v_m (x) v_m form a (K, d^2)
    matrix P, and the entries are P^T conj(V) reshaped to (d, d, d), O(K d^3)
    flops.  Each row is formed as (v^i v^j) w with a real w, so it is exactly
    symmetric in (i, j).
    """
    k, d = vectors.shape
    pairs = vectors[:, :, None] * vectors[:, None, :]
    pairs *= weights[:, None, None]
    return (pairs.reshape(k, d * d).T @ np.conj(vectors)).reshape(d, d, d)


class Check(NamedTuple):
    """One relation of a report: its residual ``value`` and the largest one it
    accepts, ``bound`` (``_bound``).  ``method`` says what the value is:
    "exact" a computed residual, "sweep" the residual of the O(d^5) sweep
    ``check_symmetries``, "certificate" an upper bound on the residual from
    the fixed points (``tensor._certificate_bounds``)."""

    name: str
    value: float
    bound: float
    method: str

    @property
    def ok(self) -> bool:
        """Whether ``value`` is within ``bound``; a NaN fails."""
        return bool(self.value <= self.bound)


@dataclass(frozen=True)
class SymmetryReport:
    """The checks of a tensor's symmetry relations, in a fixed order.

    sym1: symmetry of S^{ij}_k in (i, j),
    sym2: symmetry of sum_m S^{im}_j S^{kl}_m in (i, k),
    sym3: symmetry of sum_m S^{im}_j conj(S^{lm}_k) in (i, k),
    sym0: S^{i0}_k = delta_{ik}, only with a constant coordinate,

    bounded by ``_bound(tol, scale)``, scale = max|S| for sym0 and sym1 and
    d max|S|^2 for sym2 and sym3 (``_symmetry_checks``); a limit's report
    adds the four Lambda relations (``limits._lambda_checks``).  ``ok`` holds
    when every value is within its bound, each on its own, so a NaN fails.
    """

    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def residuals(self) -> dict:
        return {c.name: c.value for c in self.checks}


def _symmetry_checks(s: np.ndarray, tol: float, sym0, sym1: float, products, method: str):
    """The checks of the entries ``s``: sym1 and sym0 (None: not owed) exact,
    the ``products`` sym2 and sym3 found by ``method``."""
    scale = float(np.abs(s).max(initial=0.0))
    entry, product = _bound(tol, scale), _bound(tol, len(s) * scale * scale)
    sym2, sym3 = products
    checks = (
        Check("sym1", sym1, entry, "exact"),
        Check("sym2", sym2, product, method),
        Check("sym3", sym3, product, method),
    )
    return checks if sym0 is None else (*checks, Check("sym0", sym0, entry, "exact"))


def check_symmetries(tensor: Tensor3, tol: float = DEFAULT_TOL) -> SymmetryReport:
    """Exhaustively sweep the symmetry relations of a 3-tensor.

    sym0 is computed exactly when the tensor's ``has_constant`` flag is set,
    else not reported; sweep ``Tensor3(entries, has_constant=False)`` for
    sym1-sym3.  sym2 and sym3 carry the method "sweep".

    Cost: sym2 and sym3 take O(d^5) flops, done as BLAS matrix products
    over blocks of one coordinate; the working memory is bounded by the
    block budget ``_SWEEP_BLOCK_BYTES`` plus O(d^3), not by d^4.
    """
    _require_tensor(tensor)
    s = tensor.entries
    sym0 = _sym0(s) if tensor.has_constant else None
    sym1 = _sym1(s)
    return SymmetryReport(_symmetry_checks(s, tol, sym0, sym1, _product_symmetries(s), "sweep"))


def _sym0(s: np.ndarray) -> float:
    """max |S^{i0}_k - delta_{ik}| of the entries ``s``, O(d^2)."""
    _require_coordinate(0, s.shape[0])
    return _identity_defect(s[:, 0, :].copy())


def _sym1(s: np.ndarray) -> float:
    """max |S^{ij}_k - S^{ji}_k| of the entries ``s``, O(d^3)."""
    return float(np.abs(s - s.transpose(1, 0, 2)).max(initial=0.0))


def _sweep_step(d: int) -> int:
    """Values of j in one block of ``_product_symmetries`` on complex d-tensors."""
    return max(1, min(d, _SWEEP_BLOCK_BYTES // max(1, 16 * d**3)))


def _sweep_bytes(d: int) -> int:
    """Working bytes of ``check_symmetries`` on a complex d-tensor, by its allocation.

    The block buffers of ``_product_symmetries`` (two complex and one real
    entry per product), its two d^3 copies of the entries, at most one
    ufunc buffer of complex numbers for the transposed subtraction, and
    16 KiB for the call's Python objects (at most 3.2 KB by tracemalloc,
    d = 2..81, where the sweep peaks at 0.04-0.99 of this sum).
    """
    return 40 * _sweep_step(d) * d**3 + 32 * d**3 + 16 * np.getbufsize() + 2**14


def _product_symmetries(s: np.ndarray) -> tuple[float, float]:
    """sym2 and sym3 of the entries ``s``, swept in blocks of the coordinate j.

    For fixed j, t2[i, j, k, l] = sum_m S^{im}_j S^{kl}_m is the matrix
    product of S_j = S[:, :, j] with B2[m, (k, l)] = S^{kl}_m, and
    t3[i, j, l, k] = sum_m S^{im}_j conj(S^{lm}_k) is S_j times
    B3[m, (k, l)] = conj(S^{lm}_k).  A block of j is one BLAS product of
    its stacked slices with B2 and with B3, so the d^4 tensors t2 and t3
    are never held whole.  Products of huge entries overflow to a NaN
    residual, which is the designed signal, so they raise no warning.
    """
    d = s.shape[0]
    slices = np.ascontiguousarray(s.transpose(2, 0, 1))  # slices[j] = S_j
    b2 = slices.reshape(d, d * d)
    b3 = np.conj(s.transpose(1, 2, 0)).reshape(d, d * d)
    step = _sweep_step(d)
    # one set of block buffers for the whole sweep: fresh ones per block
    # would fault in new pages every time, which costs more than the products
    prod = np.empty((step, d, d, d), dtype=complex)
    diff = np.empty_like(prod)
    size = np.empty(prod.shape)
    res = [0.0, 0.0]
    with np.errstate(over="ignore", invalid="ignore"):
        for j0 in range(0, d, step):
            a = slices[j0 : j0 + step].reshape(-1, d)  # rows (j, i), columns m
            n = len(a) // d
            t, dt, mag = prod[:n], diff[:n], size[:n]
            for q, b in enumerate((b2, b3)):
                np.matmul(a, b, out=t.reshape(n * d, d * d))  # t[j, i, k, l]
                np.subtract(t, t.transpose(0, 2, 1, 3), out=dt)  # swap of i, k
                # np.maximum keeps a NaN residual from overflowed products
                res[q] = np.maximum(res[q], np.abs(dt, out=mag).max())
    return float(res[0]), float(res[1])


# ---------------------------------------------------------------------------
# Uniqueness and embedding
# ---------------------------------------------------------------------------


def relate_same_probabilities(x: ObtuseSystem, y: ObtuseSystem, tol: float = DEFAULT_TOL):
    """Unitary U on C^N with U v_i(x) = v_{sigma(i)}(y) for matched atoms.

    Two obtuse variables with the same probabilities differ by a unitary
    rotation of their values.  Atoms are matched by sorting both
    probability lists; within a block of tied probabilities any matching
    works.  The rows sqrt(p_i) (1, v_i) of each variable form an orthonormal
    basis of C^{N+1}, so the unitary B mapping one basis onto the matched
    other fixes e_0 whenever the matching respects the probabilities:
    B e_0 = sum_i p_i (1, y_sigma(i)) = e_0, because the variable is
    centered.  U is the block of B on C^N.  The result is verified once;
    ``AmbiguousMatching`` reports a relation that fails the check.

    Returns ``(u, sigma)`` where ``sigma[i]`` is the atom of ``y`` matched to
    atom i of ``x``.
    """
    _require_variable(x)
    _require_variable(y)
    if x.dim != y.dim:
        raise DimensionMismatch("variables live in different dimensions")
    px, py = x.probabilities, y.probabilities
    order_x = px.argsort(kind="stable")
    order_y = py.argsort(kind="stable")
    if np.abs(px[order_x] - py[order_y]).max() > TIE_EPS:
        raise ProbabilityMismatch("probability multisets differ")

    sigma = np.empty(len(px), dtype=int)
    sigma[order_x] = order_y
    wx = np.sqrt(px)[:, None] * x.hatted  # rows: orthonormal basis of C^{N+1}
    wy = np.sqrt(py)[:, None] * y.hatted
    big = wy[sigma].T @ np.conj(wx)
    u = big[1:, 1:]
    corner = _corner_defect(big)
    moved = float(np.abs(x.values @ u.T - y.values[sigma]).max())
    # B is unitary by construction; U moves values of length up to max|v|
    if not (corner <= _bound(tol, 1.0) and moved <= _bound(tol, np.sqrt(1 / px.min() - 1))):
        raise AmbiguousMatching(
            f"matched atoms yield no unitary relation (corner {corner:.3e}, "
            f"residual {moved:.3e})"
        )
    return u, sigma


def embed_general(values, probabilities, y: ObtuseSystem, tol: float = DEFAULT_TOL):
    """Matrix A with X = A Y for a general centered normalized variable X.

    X takes n values in C^d with the given probabilities; ``y`` must be an
    obtuse variable in C^{n-1} carrying the same probabilities atom by atom.
    The returned A is d x (n-1) and satisfies A A* = I_d: a partial isometry
    pushing Y forward onto X.
    """
    arr = _as_vectors(values)
    n, d = arr.shape
    _require_variable(y)
    p = _as_array(probabilities, float)
    if n < d + 1:
        raise MinimalSupport(
            f"a centered normalized variable in C^{d} needs at least {d + 1} atoms"
        )
    if y.dim != n - 1:
        raise DimensionMismatch(f"the obtuse factor must live in C^{n - 1}")
    if p.shape != (n,) or np.max(np.abs(p - y.probabilities)) > TIE_EPS:
        raise ProbabilityMismatch("probabilities must match atom by atom")
    ok, mean_res, cov_res = rv_is_centered_normalized(arr, p, tol=tol)
    if not ok:
        raise DimensionMismatch(
            f"variable is not centered normalized (mean {mean_res:.2e}, "
            f"covariance {cov_res:.2e})"
        )

    w = y.values  # (n, n-1); the first n-1 rows are linearly independent
    try:
        a = np.linalg.solve(w[: n - 1], arr[: n - 1]).T
    except np.linalg.LinAlgError as exc:  # pragma: no cover - valid y prevents this
        raise SingularSystem("obtuse value matrix unexpectedly singular") from exc

    last_res = float(np.abs(a @ w[n - 1] - arr[n - 1]).max(initial=0.0))
    iso_res = _identity_defect(a @ a.conj().T)
    # A A* = I is unitarity; A maps the last value w_{n-1} onto x_{n-1}
    if not (iso_res <= _bound(tol, 1.0) and last_res <= _bound(tol, np.linalg.norm(w[n - 1]))):
        raise SingularSystem(
            f"embedding inconsistent (last atom {last_res:.2e}, isometry {iso_res:.2e})"
        )
    return a


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def system_from_probabilities(probabilities) -> ObtuseSystem:
    """The canonical real obtuse system with the given probabilities.

    Builds a real orthogonal matrix whose first column is (sqrt(p_i))_i; its
    rows, divided by sqrt(p_i) and stripped of the first coordinate, form a
    real obtuse system with probabilities p.
    """
    p = _as_array(probabilities, float)
    if p.ndim != 1 or len(p) < 2:
        raise DimensionMismatch("need at least two probabilities")
    _require_probabilities(p)
    n = len(p)
    first = np.sqrt(p)
    basis = np.eye(n)[:, 1:]
    q, _ = np.linalg.qr(np.column_stack([first, basis]))
    if np.dot(q[:, 0], first) < 0:
        q = q * np.concatenate([[-1.0], np.ones(n - 1)])
    vhat = q / first[:, None]
    return ObtuseSystem(values=vhat[:, 1:].astype(complex), probabilities=p)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary: QR of a complex Gaussian, phases fixed."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_system(dim: int, rng: np.random.Generator) -> ObtuseSystem:
    """Random complex obtuse system in C^dim.

    Draws probabilities from a Dirichlet (kept away from degenerate corners),
    builds the canonical real system, then rotates by a random unitary.  All
    complex obtuse variables arise this way.
    """
    _require_integer(dim, "dimension")
    p = rng.dirichlet(np.full(dim + 1, 5.0))
    base = system_from_probabilities(p)
    u = haar_unitary(dim, rng)
    return ObtuseSystem(values=base.values @ u.T, probabilities=base.probabilities)
