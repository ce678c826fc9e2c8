"""Doubly-symmetric 3-tensors: diagonalization, transforms, realification.

A 3-tensor with the three double-symmetry relations is exactly one that
splits over an orthogonal family: S(x) = sum_v <v, x> v (x) v / |v|^2, and
the family is recovered as the non-zero fixed points {v : S(v) = v (x) v}.
This module implements both directions of that bijection, the unitary
transform S = U o T of tensors, the criterion telling real tensors apart
from complex ones, and the two constructive routes that turn a complex
obtuse system into a real one (Takagi of the time-zero slice, and
triangularize-then-strip-phases).  The recovery of the family is one
deterministic kernel, an eigendecomposition of sum_k S_k S_k^* whose
clusters of equal weights are split by a fixed sequence of probes (see
``diagonalize``); it draws no random numbers.
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
    S0NotUnitary,
    WrongCount,
)
from .obtuse import (
    DEFAULT_TOL,
    ObtuseSystem,
    Tensor3,
    check_symmetries,
    validate_obtuse_system,
)
from .takagi import takagi

# eigenvalues of G = sum_k S_k S_k^* (or of a probe) whose gap is below this
# fraction of the larger one share a cluster.  An eigenvector is accurate to
# about eps/gap, so directions closer than ~1e-7 could not meet a 1e-9
# residual if split by one eigendecomposition; 1e-4 leaves a wide margin,
# and the probes resolve what a cluster holds
_CLUSTER_REL = 1e-4


@dataclass(frozen=True)
class DiagResult:
    """Orthogonal family diagonalizing a doubly-symmetric tensor.

    ``vectors[m]`` satisfies S(v) = v (x) v exactly (no phase freedom); the
    weight of a direction is 1/|v|^2.
    """

    vectors: np.ndarray  # (K, D), possibly K = 0
    residual: float

    @property
    def weights(self) -> np.ndarray:
        if len(self.vectors) == 0:
            return np.zeros(0)
        return 1.0 / np.sum(np.abs(self.vectors) ** 2, axis=1)


def tensor_from_family(family, has_constant: bool = False, tol: float = DEFAULT_TOL) -> Tensor3:
    """Build sum_m v_m (x) v_m <v_m, .> / |v_m|^2 from an orthogonal family.

    The family may be empty (zero tensor of the given dimension is not
    inferable then, so an empty family requires an ndarray with a dim).
    Raises ``NotOrthogonal`` for non-orthogonal or zero members.
    """
    arr = np.asarray(family, dtype=complex)
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a family of vectors, got shape {arr.shape}")
    k, d = arr.shape
    if k:
        norms2 = np.sum(np.abs(arr) ** 2, axis=1)
        if np.any(norms2 <= tol):
            raise NotOrthogonal("family contains a (near-)zero vector")
        gram = np.conj(arr) @ arr.T
        off = gram - np.diag(np.diagonal(gram))
        if float(np.max(np.abs(off))) > max(tol, tol * float(np.max(norms2))):
            raise NotOrthogonal(
                f"family is not orthogonal: max off-diagonal {np.max(np.abs(off)):.3e}"
            )
        entries = np.einsum("m,mi,mj,mk->ijk", 1.0 / norms2, arr, arr, np.conj(arr))
    else:
        entries = np.zeros((d, d, d), dtype=complex)
    return Tensor3(entries=entries, has_constant=has_constant)


def diagonalize(tensor: Tensor3, tol: float = DEFAULT_TOL) -> DiagResult:
    """Recover the orthogonal family {v : S(v) = v (x) v, v != 0}.

    Requires the tensor to be doubly symmetric (sym1-sym3 within ``tol``).
    The algorithm is direct and deterministic:

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
       max|S(a)| <= tol * max|S| belongs to the null space.  A fixed point
       whose residual max|S(v) - v v^T| exceeds the bound raises
       ``NoConvergence``.

    The vectors come out by decreasing weight, the directions of one
    cluster in the order the probes separate them.  Cost, beyond the
    O(d^5) symmetry sweep: one O(d^4) product for G, one d x d ``eigh``,
    one O(d^4) product for the images S(a), and O(d^3) per probe; a cluster
    of g directions takes at most g^2 probes, and generically one.
    """
    report = check_symmetries(tensor, tol=tol, include_constant=False)
    if not report.doubly_symmetric:
        raise NotDoublySymmetric(
            f"tensor is not doubly symmetric: residuals {report.residuals()}"
        )
    return _fixed_points(tensor, tol)


def _fixed_points(tensor: Tensor3, tol: float) -> DiagResult:
    """``diagonalize`` on a tensor already known to be doubly symmetric."""
    s = tensor.entries
    d = tensor.dim
    scale = float(np.max(np.abs(s)))
    if scale <= tol:
        return DiagResult(vectors=np.zeros((0, d), dtype=complex), residual=0.0)
    # directions whose image is this small belong to the null space
    null_tol = max(tol * scale, tol)

    rows = s.reshape(d, d * d)
    lam, w = np.linalg.eigh(rows @ rows.conj().T)
    live = np.flatnonzero(lam > 4 * d * d * np.finfo(float).eps * lam[-1])
    cuts = np.flatnonzero(np.diff(lam[live]) > _CLUSTER_REL * lam[live][1:]) + 1
    dirs = [
        a
        for group in np.split(live, cuts)
        if len(group)
        for a in _split_cluster(s, w[:, group])
    ]
    a = np.array(dirs, dtype=complex).reshape(-1, d)  # (K, d) unit directions
    images = np.moveaxis((s.reshape(d * d, d) @ a.T).reshape(d, d, -1), 2, 0)
    keep = np.max(np.abs(images), axis=(1, 2)) > null_tol
    a, images = a[keep], images[keep]
    cubic = np.einsum("mi,mij,mj->m", np.conj(a), images, np.conj(a))
    vectors = cubic[:, None] * a
    # S is linear, so S(v) = c S(a)
    outer = vectors[:, :, None] * vectors[:, None, :]
    resid = np.max(np.abs(cubic[:, None, None] * images - outer), axis=(1, 2))
    bound = 10 * tol * np.maximum(1.0, np.max(np.abs(vectors), axis=1) ** 2)
    if np.any(resid > bound):
        worst = float(np.max(resid[resid > bound]))
        raise NoConvergence(
            f"fixed point residual {worst:.3e} exceeds its bound", residual=worst
        )
    return DiagResult(vectors=vectors, residual=float(np.max(resid, initial=0.0)))


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
        cuts = np.flatnonzero(np.diff(mu) > _CLUSTER_REL * mu[-1]) + 1
        if len(cuts):
            return [
                col
                for part in np.split(r, cuts, axis=1)
                for col in _split_cluster(s, q @ part)
            ]
    raise NoConvergence(f"no probe splits a cluster of {g} directions")


def obtuse_fixed_points(tensor: Tensor3, tol: float = DEFAULT_TOL) -> ObtuseSystem:
    """Obtuse system encoded by a constant-coordinate doubly-symmetric tensor.

    For a tensor that also satisfies S^{i0}_k = delta_{ik}, the fixed-point
    family consists of exactly N+1 vectors whose coordinate 0 equals 1;
    stripping that coordinate yields an obtuse system with probabilities
    1/|v|^2.  A wrong count or a fixed point with v^0 != 1 signals a missing
    constant-coordinate structure and raises ``WrongCount``.
    """
    if not tensor.has_constant:
        raise DimensionMismatch("tensor does not carry a constant coordinate")
    return _obtuse_system(diagonalize(tensor, tol=tol).vectors, tol)


def _obtuse_system(vecs: np.ndarray, tol: float) -> ObtuseSystem:
    """Obtuse system from the fixed points of a constant-coordinate tensor."""
    n_plus_1 = vecs.shape[1]
    if len(vecs) != n_plus_1:
        raise WrongCount(
            f"expected {n_plus_1} fixed points, found {len(vecs)}"
        )
    first = vecs[:, 0]
    if float(np.max(np.abs(first - 1.0))) > max(tol, 1e-7):
        raise WrongCount(
            "fixed points do not all have first coordinate 1; "
            "the tensor lacks the constant-coordinate relation"
        )
    probs_all = 1.0 / np.sum(np.abs(vecs) ** 2, axis=1)
    # deterministic atom order: descending probability, then entries
    order = sorted(
        range(len(vecs)),
        key=lambda m: (-probs_all[m],) + tuple(vecs[m, 1:].view(float)),
    )
    values = vecs[order][:, 1:]
    probs = probs_all[list(order)]
    system = ObtuseSystem(values=values, probabilities=probs)
    report = validate_obtuse_system(values, tol=max(tol, 1e-8))
    if not report.ok:
        raise NotObtuse(
            "recovered fixed points do not form an obtuse system",
            pair=report.worst_pair,
            residual=report.max_pair_residual,
        )
    return system


def _full_unitary(u, tensor: Tensor3, tol: float) -> np.ndarray:
    """Coerce u to a D x D unitary compatible with the tensor's indexing."""
    mat = np.asarray(u, dtype=complex)
    d = tensor.dim
    if mat.shape == (d - 1, d - 1) and tensor.has_constant:
        full = np.eye(d, dtype=complex)
        full[1:, 1:] = mat
        mat = full
    if mat.shape != (d, d):
        raise DimensionMismatch(f"unitary of shape {mat.shape} does not fit dim {d}")
    defect = float(np.max(np.abs(mat.conj().T @ mat - np.eye(d))))
    if defect > max(tol, 1e-8):
        raise NotUnitary(f"matrix is not unitary: defect {defect:.3e}")
    if tensor.has_constant:
        corner = max(
            abs(mat[0, 0] - 1.0),
            float(np.max(np.abs(mat[0, 1:]))) if d > 1 else 0.0,
            float(np.max(np.abs(mat[1:, 0]))) if d > 1 else 0.0,
        )
        if corner > max(tol, 1e-8):
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
    mat = _full_unitary(u, tensor, tol)
    entries = np.einsum(
        "im,jn,kp,mnp->ijk", mat, mat, np.conj(mat), tensor.entries, optimize=True
    )
    return Tensor3(entries=entries, has_constant=tensor.has_constant)


def is_real_tensor(tensor: Tensor3, tol: float = DEFAULT_TOL) -> bool:
    """Whether the tensor belongs to a real-valued obtuse variable.

    The criterion is the extra symmetry S^{ij}_k = S^{kj}_i, not realness of
    the entries: a complex variable can have an all-real tensor.
    """
    s = tensor.entries
    return float(np.max(np.abs(s - s.transpose(2, 1, 0)))) <= tol


@dataclass(frozen=True)
class RealificationResult:
    """Unitary V with V V^T = S_0, the realified tensor, and its system."""

    v: np.ndarray
    real_tensor: Tensor3
    real_system: ObtuseSystem

    def imag_residual(self) -> float:
        return float(np.max(np.abs(self.real_tensor.entries.imag)))


def realify(tensor: Tensor3, tol: float = DEFAULT_TOL) -> RealificationResult:
    """Rotate an obtuse tensor into a real one.

    The slice S_0 = (S^{ij}_0) of a valid obtuse tensor is symmetric and
    unitary, hence factors as V V^T with V unitary (Takagi).  Conjugating the
    tensor by any such V produces a real doubly-symmetric tensor, and its
    fixed points give a real obtuse system with the original probabilities.
    The returned V is the full (N+1)-dimensional block unitary fixing e_0.
    The rotation preserves the symmetry relations swept on the input.
    """
    if not tensor.has_constant:
        raise DimensionMismatch("realify expects a constant-coordinate tensor")
    report = check_symmetries(tensor, tol=tol)
    if not report.ok:
        raise NotDoublySymmetric(
            f"tensor fails symmetry relations: {report.residuals()}"
        )
    d = tensor.dim
    s0 = tensor.entries[:, :, 0]
    uni_defect = float(np.max(np.abs(s0 @ s0.conj().T - np.eye(d))))
    if uni_defect > max(tol, 1e-8):
        raise S0NotUnitary(f"time-zero slice not unitary: defect {uni_defect:.3e}")

    inner = s0[1:, 1:]
    v_inner = takagi(inner, tol=max(tol, 1e-10)).unitary
    v = np.eye(d, dtype=complex)
    v[1:, 1:] = v_inner

    real_t = transform(v.conj().T, tensor, tol=tol)
    if not is_real_tensor(real_t, tol=max(tol, 1e-8)):
        raise NoConvergence("realified tensor failed the real criterion")
    system = _obtuse_system(_fixed_points(real_t, tol).vectors, tol)
    return RealificationResult(v=v, real_tensor=real_t, real_system=system)


def triangularize_system(values, tol: float = DEFAULT_TOL):
    """Unitary U making the first N obtuse vectors upper triangular.

    Returns ``(u, triangular)`` where ``triangular[i] = u @ values[i]`` and
    vector i has zeros after coordinate i+1.  This is the first step of the
    constructive route from a complex obtuse system to a real one.
    """
    report = validate_obtuse_system(values, tol=tol)
    if not report.ok:
        raise NotObtuse(
            "values do not form an obtuse system",
            pair=report.worst_pair,
            residual=report.max_pair_residual,
        )
    arr = np.asarray(values, dtype=complex)
    n = arr.shape[1]
    q, _ = np.linalg.qr(arr[:n].T)
    u = q.conj().T
    return u, arr @ u.T


def extract_phases(triangular, tol: float = DEFAULT_TOL):
    """Strip the per-coordinate phases from a triangularized obtuse system.

    In triangular form every coordinate line carries a common phase phi_j;
    dividing it out leaves an all-real obtuse system.  Returns
    ``(phases, real_system)``.  Raises ``NotObtuse`` if the input is not a
    triangularized obtuse system (residual imaginary parts stay large).
    """
    arr = np.asarray(triangular, dtype=complex)
    n = arr.shape[1]
    phases = np.ones(n, dtype=complex)
    for j in range(n):
        pivot = arr[j, j]
        if abs(pivot) < 1e-12:
            raise NotObtuse(f"triangular pivot {j} vanishes; system degenerate")
        phases[j] = pivot / abs(pivot)
    real_values = arr * np.conj(phases)[None, :]
    imag_max = float(np.max(np.abs(real_values.imag)))
    if imag_max > max(tol, 1e-8):
        raise NotObtuse(
            f"phases do not make the system real (residual {imag_max:.3e})"
        )
    system = ObtuseSystem.from_values(real_values.real.astype(complex), tol=max(tol, 1e-8))
    return phases, system
