"""Doubly-symmetric 3-tensors: diagonalization, transforms, realification.

A 3-tensor with the three double-symmetry relations is exactly one that
splits over an orthogonal family: S(x) = sum_v <v, x> v (x) v / |v|^2, and
the family is recovered as the non-zero fixed points {v : S(v) = v (x) v}.
This module implements both directions of that bijection, the unitary
transform S = U o T of tensors, the criterion telling real tensors apart
from complex ones, and the two constructive routes that turn a complex
obtuse system into a real one (the principal square root of the time-zero
slice, and triangularize-then-strip-phases).  The recovery of the family
is one deterministic kernel, an eigendecomposition of sum_k S_k S_k^*
whose clusters of equal weights are split by a fixed sequence of probes
(see ``diagonalize``); it draws no random numbers.

The same bijection checks its own input, in one gate, ``_certify_or_sweep``.
It runs a kernel first and rebuilds R = sum_m w_m v_m (x) v_m (x) conj(v_m)
from the fixed points it found; R is doubly symmetric up to the family's
orthogonality defect, and S is within max|S - R| of it, which bounds sym2
and sym3 of S at O(d^4) (see ``_certificate_bounds``), while sym0 and sym1
are computed exactly.  Only when that report fails, or the kernel fails,
does the gate run the O(d^5) sweep ``check_symmetries``, once, with sym0
when ``has_constant`` is set.  ``diagonalize`` (on the entries alone),
``obtuse_fixed_points``, ``realify``, ``classify`` and the ``Tensor3``
samples of ``limit_tensor`` go through it.  Rebuilt tensors, like
``tensor_of`` and ``tensor_from_family``, are one BLAS product.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotDoublySymmetric,
    NotObtuse,
    NotOrthogonal,
    NotUnitary,
    ObtuseWalkError,
    S0NotUnitary,
    WrongCount,
)
from .obtuse import (
    DEFAULT_TOL,
    ObtuseSystem,
    SymmetryReport,
    Tensor3,
    _as_array,
    _as_family,
    _bound,
    _corner_defect,
    _identity_defect,
    _khatri_rao,
    _require_constant,
    _require_coordinate,
    _require_obtuse,
    _require_tensor,
    _sym0,
    _sym1,
    _symmetry_checks,
    check_symmetries,
)
from .takagi import _CLUSTER_REL, _EPS, _runs, unitary_sqrt

# unit roundoff u of double precision
_UNIT = _EPS / 2


@dataclass(frozen=True, eq=False)
class DiagResult:
    """Orthogonal family diagonalizing a doubly-symmetric tensor.

    ``vectors[m]`` satisfies S(v) = v (x) v exactly (no phase freedom); the
    weight of a direction is 1/|v|^2.
    """

    vectors: np.ndarray  # (K, D), possibly K = 0
    residual: float

    @property
    def weights(self) -> np.ndarray:
        return 1.0 / np.sum(np.abs(self.vectors) ** 2, axis=1)


def tensor_from_family(family, has_constant: bool = False, tol: float = DEFAULT_TOL) -> Tensor3:
    """Build sum_m v_m (x) v_m <v_m, .> / |v_m|^2 from an orthogonal family.

    The family may be empty (zero tensor of the given dimension is not
    inferable then, so an empty family requires an ndarray with a dim).  A
    zero member, or one whose |v|^2 under- or overflows, raises
    ``DimensionMismatch`` naming it (``obtuse._as_family``); a small nonzero
    one is accepted.  Raises ``NotOrthogonal`` for non-orthogonal members.
    """
    arr, norms2 = _as_family(family)
    if len(arr):
        gram = np.conj(arr) @ arr.T
        off = gram - np.diag(np.diagonal(gram))
        # each pair at its own term size |v_i| |v_j|
        norms = np.sqrt(norms2)
        if not np.all(np.abs(off) <= _bound(tol, np.outer(norms, norms))):
            raise NotOrthogonal(
                f"family is not orthogonal: max off-diagonal {np.max(np.abs(off)):.3e}"
            )
    with np.errstate(over="ignore", invalid="ignore"):  # Tensor3 rejects what 1/|v|^2 overflows
        return Tensor3(entries=_khatri_rao(1.0 / norms2, arr), has_constant=has_constant)


def diagonalize(tensor: Tensor3, tol: float = DEFAULT_TOL) -> DiagResult:
    """Recover the orthogonal family {v : S(v) = v (x) v, v != 0}.

    Requires the entries to be doubly symmetric (``SymmetryReport``), which
    the fixed points themselves certify (``_certify_or_sweep``) without the
    constant flag, so sym0 is not owed; only a tensor they fail to certify
    is swept, and ``NotDoublySymmetric`` names the relation it fails.  The
    algorithm is direct and deterministic:

    1. G = sum_k S_k S_k^* equals sum_m v_m v_m^*, so its eigenvalues are
       the squared norms |v_m|^2 = 1/weight and its eigenvectors the
       directions v_m/|v_m|.  Eigenvalues at or below the eigensolver's
       resolution (4 d^2 eps max|G|) belong to the null space.
    2. Eigenvalues whose gap is below ``_CLUSTER_REL`` of the larger one
       form a cluster, whose eigenvectors are not individually accurate.
       A cluster with basis q is split by the Hermitian probes
       q^* S(y) S(y)^* q, whose eigenvalues are |<v_m, y>|^2 over its
       directions.  The probes y run over the basis vectors q_t, then the
       sums q_t + q_u and q_t + i q_u: by polarization some probe tells any
       two orthogonal directions apart, so the sequence always splits a
       cluster.
    3. Each direction a is rescaled to its fixed point v = c a with the
       cubic form c = conj(a)^T S(a) conj(a).  A direction with
       max|S(a)| <= tol * max(1, max|S|) belongs to the null space.  A fixed
       point whose residual max|S(v) - v v^T| exceeds
       tol * max(1, d max|S| max|v|) raises ``NoConvergence``.

    The vectors come out by decreasing weight, the directions of one
    cluster in the order the probes separate them.  Cost: one O(d^4)
    product for G, one d x d ``eigh``, one O(d^4) product for the images
    S(a), O(d^3) per probe (a cluster of g directions takes at most g^2
    probes, and generically one), and the O(d^4) certificate; the O(d^5)
    sweep only for a tensor the certificate rejects.
    """
    _require_tensor(tensor)
    unflagged = Tensor3(tensor.entries, has_constant=False)

    def kernel():
        result = _fixed_points(unflagged, tol)
        return result, result.vectors

    return _gated(unflagged, tol, kernel)


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u): relative error of a sum of n products."""
    return n * _UNIT / (1 - n * _UNIT)


def _certificate_bounds(s: np.ndarray, vectors: np.ndarray) -> float:
    """Upper bound on sym2 and sym3 of ``s`` from its fixed points ``vectors``.

    With w_m = 1/|v_m|^2, R = sum_m w_m v_m (x) v_m (x) conj(v_m) and
    delta = max|S - R|, each relation moves by at most the perturbation of
    its terms, and sym2 and sym3 compare sums of d products of two entries:

        sym2,3(S) <= sym2,3(R) + 2 d delta (2 max|R| + delta).

    Both product sums of R are sum_{a,b} w_a w_b <a, b> times entries of a
    and b, whose a = b terms are symmetric in (i, k), so

        sym2,3(R) <= 2 sum_{a != b} w_a w_b |a|_inf^2 |b|_inf^2 |<a, b>|,

    an O(K^2 d) Gram matrix.  Rounding enters three times, each bounded by
    gamma_n = n u / (1 - n u), u = eps/2, as for any sum of n products
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    sections 3.1 and 3.6, complex arithmetic): the exact R of the computed
    v_m lies within rho = gamma_{K+6} sum_m w_m |v_m|_inf^3 of the computed
    one, which enlarges delta and max|R| by rho; each computed <a, b> lies
    within gamma_{d+2} |a| |b| of the exact one; and the sweep's own sums
    of d products lie within 2 gamma_{d+2} d max|S|^2 of the exact
    residuals, a term added so that whatever the certificate accepts,
    ``check_symmetries`` accepts at the same ``tol``.  Cost O(K d^3) for R;
    a NaN anywhere makes the bound NaN.
    """
    d = s.shape[0]
    mag = np.abs(vectors)
    norms2 = np.einsum("mi,mi->m", mag, mag)
    sup = mag.max(axis=1, initial=0.0)
    w = 1.0 / norms2
    r = _khatri_rao(w, vectors)
    rho = _gamma(len(vectors) + 6) * float(w @ sup**3)
    delta = float(np.abs(s - r).max(initial=0.0)) + rho
    big = float(np.abs(r).max(initial=0.0)) + rho  # max|S| <= big + delta
    gram = np.abs(np.conj(vectors) @ vectors.T)
    gram.flat[:: len(gram) + 1] = 0.0  # the diagonal
    c = w * sup**2
    # sum_{a != b} c_a c_b gamma |a| |b| <= gamma (sum_a c_a |a|)^2
    sym23 = 2 * (c @ gram @ c + _gamma(d + 2) * (c @ np.sqrt(norms2)) ** 2)
    sym23 += 2 * d * (delta * (2 * big + delta) + _gamma(d + 2) * (big + delta) * (big + delta))
    # 16 u covers the rounding of the bound itself
    return float(sym23 * (1 + 16 * _UNIT))


def _certify_or_sweep(tensor: Tensor3, tol: float, kernel, extra=()):
    """The symmetry report of ``tensor``, certified by its fixed points if they can.

    ``kernel()`` returns a result and the fixed points of ``tensor`` it
    found.  Their certificate reports sym1, and sym0 if ``tensor.has_constant``,
    exactly and sym2, sym3 by ``_certificate_bounds`` (method "certificate"),
    followed by the caller's ``extra`` checks, and stands if the whole report
    passes.  Otherwise, or if the kernel raises a domain or ``LinAlgError``,
    the tensor is swept once and the sweep's report, with ``extra``, stands.
    Returns ``(result, report, error)`` with the kernel's error, if any, for
    the caller to raise once the report passes: the kernel is deterministic,
    so that is what sweeping first gave.  Non-finite values (overflowed
    products of huge entries, a zero fixed point of a tensor that is not
    doubly symmetric) fail the certificate and are the sweep's to report,
    so they raise no warning here.
    """
    s = tensor.entries
    sym0 = _sym0(s) if tensor.has_constant else None
    result = error = None
    try:
        with np.errstate(all="ignore"):
            result, vectors = kernel()
            bound = _certificate_bounds(s, vectors)
            checks = _symmetry_checks(s, tol, sym0, _sym1(s), (bound, bound), "certificate")
            report = SymmetryReport((*checks, *extra))
            if report.ok:
                return result, report, None
    except (ObtuseWalkError, np.linalg.LinAlgError) as exc:
        error = exc
    return result, SymmetryReport((*check_symmetries(tensor, tol=tol).checks, *extra)), error


def _gated(tensor: Tensor3, tol: float, kernel):
    """``kernel``'s result once the gate passes ``tensor``: a failing report raises
    ``NotDoublySymmetric`` with its residuals, then the kernel's own error stands."""
    result, report, error = _certify_or_sweep(tensor, tol, kernel)
    if not report.ok:
        raise NotDoublySymmetric(f"tensor fails symmetry relations: {report.residuals()}")
    if error is not None:
        raise error
    return result


def _fixed_points(tensor: Tensor3, tol: float) -> DiagResult:
    """``diagonalize`` on a tensor known or yet to be certified doubly symmetric."""
    s = tensor.entries
    d = tensor.dim
    scale = float(np.abs(s).max(initial=0.0))
    if scale <= tol:
        return DiagResult(vectors=np.zeros((0, d), dtype=complex), residual=0.0)
    # directions whose image is this small belong to the null space
    null_tol = _bound(tol, scale)

    rows = s.reshape(d, d * d)
    lam, w = np.linalg.eigh(rows @ rows.conj().T)
    live = np.flatnonzero(lam > 4 * d * d * _EPS * lam[-1])
    lam = lam[live]
    dirs = [
        a
        for lo, hi in _runs(lam, _CLUSTER_REL * lam[1:])
        for a in _split_cluster(s, w[:, live[lo:hi]])
    ]
    a = np.array(dirs, dtype=complex).reshape(-1, d)  # (K, d) unit directions
    images = (s.reshape(d * d, d) @ a.T).reshape(d, d, -1).transpose(2, 0, 1)
    keep = np.abs(images).max(axis=(1, 2)) > null_tol
    a, images = a[keep], images[keep]
    conj_a = np.conj(a)
    cubic = np.einsum("mi,mij,mj->m", conj_a, images, conj_a)
    vectors = cubic[:, None] * a
    # S is linear, so S(v) = c S(a)
    outer = vectors[:, :, None] * vectors[:, None, :]
    resid = np.abs(cubic[:, None, None] * images - outer).max(axis=(1, 2))
    # S(v) sums d products of entries of S and of v
    bound = _bound(tol, d * scale * float(np.abs(vectors).max(initial=0.0)))
    if (resid > bound).any():
        worst = float(resid[resid > bound].max())
        raise NoConvergence(
            f"fixed point residual {worst:.3e} exceeds its bound", residual=worst
        )
    return DiagResult(vectors=vectors, residual=float(resid.max(initial=0.0)))


def _split_cluster(s: np.ndarray, q: np.ndarray) -> list:
    """One unit direction per fixed point in the cluster spanned by ``q``.

    ``q`` holds orthonormal columns spanning {v_m} over the directions m of
    one cluster; see ``diagonalize`` for the probe sequence.
    """
    g = q.shape[1]
    if g == 1:
        return [q[:, 0]]
    basis = q.T
    pairs = (
        basis[t] + phase * basis[u]
        for t in range(g)
        for u in range(t + 1, g)
        for phase in (1.0, 1j)
    )
    for y in itertools.chain(basis, pairs):
        a = np.conj(s @ y) @ q  # its Gram matrix is q^* S(y) S(y)^* q
        mu, r = np.linalg.eigh(a.conj().T @ a)
        runs = _runs(mu, _CLUSTER_REL * mu[-1])
        if len(runs) > 1:
            return [col for lo, hi in runs for col in _split_cluster(s, q @ r[:, lo:hi])]
    raise NoConvergence(f"no probe splits a cluster of {g} directions")


def obtuse_fixed_points(tensor: Tensor3, tol: float = DEFAULT_TOL) -> ObtuseSystem:
    """Obtuse system encoded by a constant-coordinate doubly-symmetric tensor.

    For a tensor that also satisfies S^{i0}_k = delta_{ik}, the fixed-point
    family consists of exactly N+1 vectors whose coordinate 0 equals 1;
    stripping that coordinate yields an obtuse system with probabilities
    1/|v|^2.  Its flag owes sym0, so the gate checks all four relations as
    in ``realify`` (``NotDoublySymmetric``); ``WrongCount`` means a recovered
    family whose count is not N+1 or whose first coordinates miss 1.
    """
    _require_constant(tensor)

    def kernel():
        points = _fixed_points(tensor, tol).vectors
        return _obtuse_system(points, tol), points

    return _gated(tensor, tol, kernel)


def _obtuse_system(vecs: np.ndarray, tol: float) -> ObtuseSystem:
    """Obtuse system from the fixed points of a constant-coordinate tensor."""
    n_plus_1 = vecs.shape[1]
    if len(vecs) != n_plus_1:
        raise WrongCount(f"expected {n_plus_1} fixed points, found {len(vecs)}")
    norms2 = (np.abs(vecs) ** 2).sum(axis=1)
    first = vecs[:, 0]
    # an entry of v is as large as |v|: each vector at its own scale
    if not (np.abs(first - 1.0) <= _bound(tol, np.sqrt(norms2))).all():
        raise WrongCount(
            "fixed points do not all have first coordinate 1; "
            "the tensor lacks the constant-coordinate relation"
        )
    probs_all = 1.0 / norms2
    # deterministic atom order: descending probability, then the entries'
    # real and imaginary parts in turn; lexsort's last key is its first and
    # its sort is stable, so exact ties keep their order
    entries = vecs[:, 1:].view(float)
    order = np.lexsort([*entries.T[::-1], -probs_all])
    values = vecs[order][:, 1:]
    probs = probs_all[order]
    _require_obtuse(values, tol, "recovered fixed points do not form an obtuse system: ")
    return ObtuseSystem(values=values, probabilities=probs)


def _full_unitary(u, tensor: Tensor3, tol: float) -> np.ndarray:
    """Coerce u to a D x D unitary compatible with the tensor's indexing."""
    mat = _as_array(u)
    d = tensor.dim
    if mat.shape == (d - 1, d - 1) and tensor.has_constant:
        full = np.eye(d, dtype=complex)
        full[1:, 1:] = mat
        mat = full
    if mat.shape != (d, d):
        raise DimensionMismatch(f"unitary of shape {mat.shape} does not fit dim {d}")
    defect = _identity_defect(mat.conj().T @ mat)
    if not defect <= _bound(tol, 1.0):
        raise NotUnitary(f"matrix is not unitary: defect {defect:.3e}")
    if tensor.has_constant:
        _require_coordinate(0, d)  # a constant coordinate needs d >= 1
        corner = _corner_defect(mat)
        if not corner <= _bound(tol, 1.0):
            raise DimensionMismatch(
                "unitary must fix the constant coordinate e_0 "
                f"(corner defect {corner:.3e})"
            )
    return mat


def transform(u, tensor: Tensor3, tol: float = DEFAULT_TOL) -> Tensor3:
    """The tensor U o T with entries sum u_{im} u_{jn} conj(u_{kp}) T^{mn}_p.

    This is how the tensor of a random variable changes under X = U Y.  For
    constant-coordinate tensors ``u`` may be given either on C^N (extended
    automatically, fixing e_0) or on C^{N+1} already fixing e_0.
    ``transform(u.conj().T, transform(u, t))`` returns ``t``.
    """
    _require_tensor(tensor)
    mat = _full_unitary(u, tensor, tol)
    d = len(mat)
    # three mode products, p then n then m: a ready-made einsum path search
    # costs more than the products at small d; each contraction of mat's
    # columns with axis 1 is the one np.dot that np.tensordot(mat, e,
    # axes=(1, 1)) makes, without its Python-level bookkeeping
    entries = tensor.entries @ mat.conj().T  # [m, n, k]
    for _ in range(2):  # [j, m, k], then [i, j, k]
        entries = np.dot(mat, entries.transpose(1, 0, 2).reshape(d, d * d)).reshape(d, d, d)
    return Tensor3(entries=entries, has_constant=tensor.has_constant)


def is_real_tensor(tensor: Tensor3, tol: float = DEFAULT_TOL) -> bool:
    """Whether the tensor belongs to a real-valued obtuse variable.

    The criterion is the extra symmetry S^{ij}_k = S^{kj}_i, within
    ``_bound(tol, max|S|)``, not realness of the entries: a complex variable
    can have an all-real tensor.
    """
    _require_tensor(tensor)
    s = tensor.entries
    defect = np.abs(s - s.transpose(2, 1, 0)).max(initial=0.0)
    return bool(defect <= _bound(tol, np.abs(s).max(initial=0.0)))


@dataclass(frozen=True, eq=False)
class RealificationResult:
    """Unitary V with V V^T = S_0, the realified tensor, and its system."""

    v: np.ndarray
    real_tensor: Tensor3
    real_system: ObtuseSystem

    def imag_residual(self) -> float:
        return float(np.abs(self.real_tensor.entries.imag).max())


def realify(tensor: Tensor3, tol: float = DEFAULT_TOL) -> RealificationResult:
    """Rotate an obtuse tensor into a real one.

    The slice S_0 = (S^{ij}_0) of a valid obtuse tensor is symmetric and
    unitary, hence factors as V V^T with V unitary (Takagi).  Conjugating the
    tensor by any such V produces a real doubly-symmetric tensor, and its
    fixed points give a real obtuse system with the original probabilities.
    The returned V fixes e_0 and is the principal square root of the inner
    block of S_0 (``takagi.unitary_sqrt``), so a real tensor gets V = I.

    The input must satisfy all four symmetry relations (``SymmetryReport``),
    which the fixed points of the real tensor, mapped back by V, certify in
    the gate of ``diagonalize`` (``_certify_or_sweep``), with sym0 exact.  A
    tensor they fail to certify is swept, and ``NotDoublySymmetric`` names
    the failing relation.
    """
    _require_constant(tensor)
    return _gated(tensor, tol, lambda: _realify(tensor, tol))


def _realify(tensor: Tensor3, tol: float):
    """``realify``'s result, unchecked, and the fixed points of its real tensor
    mapped back by V: the points of ``tensor`` that the gate certifies."""
    d = tensor.dim
    s0 = tensor.entries[:, :, 0]
    uni_defect = _identity_defect(s0 @ s0.conj().T)
    if not uni_defect <= _bound(tol, 1.0):
        raise S0NotUnitary(f"time-zero slice not unitary: defect {uni_defect:.3e}")

    v = np.eye(d, dtype=complex)
    v[1:, 1:] = unitary_sqrt(s0[1:, 1:])

    real_t = transform(v.conj().T, tensor, tol=tol)
    if not is_real_tensor(real_t, tol=tol):
        raise NoConvergence("realified tensor failed the real criterion")
    points = _fixed_points(real_t, tol).vectors
    system = _obtuse_system(points, tol)
    return RealificationResult(v=v, real_tensor=real_t, real_system=system), points @ v.T


def triangularize_system(values, tol: float = DEFAULT_TOL):
    """Unitary U making the first N obtuse vectors upper triangular.

    Returns ``(u, triangular)`` where ``triangular[i] = u @ values[i]`` and
    vector i has zeros after coordinate i+1.  This is the first step of the
    constructive route from a complex obtuse system to a real one.
    """
    arr, _ = _require_obtuse(values, tol, "values do not form an obtuse system: ")
    n = arr.shape[1]
    q, _ = np.linalg.qr(arr[:n].T)
    u = q.conj().T
    return u, arr @ u.T


def extract_phases(triangular, tol: float = DEFAULT_TOL):
    """Strip the per-coordinate phases from a triangularized obtuse system.

    In triangular form every coordinate line carries a common phase phi_j;
    dividing it out leaves an all-real obtuse system.  Returns
    ``(phases, real_system)``.  Anything but N+1 finite vectors of C^N, each
    with a positive finite |v|^2, raises ``DimensionMismatch``
    (``obtuse._as_family``); a pivot that is exactly zero has no phase and
    raises ``NotObtuse``.  Every other decision is relative: ``NotObtuse``
    if residual imaginary parts stay large against max|v|, or if the real
    values fail the obtuseness gate of ``ObtuseSystem.from_values``.
    """
    arr, _ = _as_family(triangular, system=True)
    pivots = np.diagonal(arr)  # arr[j, j] for j < N
    if not pivots.all():
        j = int(np.argmin(pivots != 0))
        raise NotObtuse(f"triangular pivot {j} is zero and has no phase")
    phases = pivots / np.abs(pivots)
    real_values = arr * np.conj(phases)[None, :]
    imag_max = float(np.abs(real_values.imag).max())
    if not imag_max <= _bound(tol, np.abs(arr).max()):
        raise NotObtuse(
            f"phases do not make the system real (residual {imag_max:.3e})"
        )
    system = ObtuseSystem.from_values(real_values.real.astype(complex), tol=tol)
    return phases, system
