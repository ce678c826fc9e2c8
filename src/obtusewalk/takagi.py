"""Takagi factorization of complex symmetric matrices.

A complex symmetric M factors as M = U diag(d) U^T with U unitary and d real
nonnegative (the singular values of M).  The routine here is one SVD
M = Z diag(s) W^H and a square root per cluster of equal singular values
(Chebotarev & Teretenkov, *Appl. Math. Comput.* 234, 2014): there
M = s Z_c B Z_c^T with B = W_c^H conj(Z_c) symmetric unitary, so
U_c = Z_c B^{1/2}, and U_c = Z_c on the null space.  The square root is the
principal one, ``unitary_sqrt``, which ``tensor.realify`` and
``limits.classify`` take directly of S_0's inner block and of Lambda; it
takes U's eigenvalues once, for a cut, and a real eigenbasis from one
Hermitian eigensolve.

The joint factorization of a tensor's slice family, S_k = U diag(conj(v^k))
U^T with U the normalized fixed points, is what ``tensor.diagonalize``
returns; it needs no routine of its own here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotSymmetric
from .obtuse import DEFAULT_TOL, _as_square, _bound, _identity_defect

_EPS = np.finfo(float).eps
# singular values (here) or eigenvalues (``tensor.diagonalize``) at a relative
# gap below this share a cluster: a vector split off at gap g is accurate to
# eps/g, which misses a 1e-9 residual below g ~ 1e-7, so 1e-4 leaves a wide
# margin; a cluster is resolved as one block (a square root here, probes there)
_CLUSTER_REL = 1e-4
# the SVD is backward stable, so singular values up to n eps s_max times this
# are indistinguishable from 0: their vectors span the null space
_NULL_EPS = _EPS
# max|V V^T - U| of ``unitary_sqrt`` is within this multiple of n eps plus U's
# symmetric-unitary defect; 3.1 at worst over 27000 hard spectra with N <= 32
_SQRT_SLACK = 8.0


def _runs(lam: np.ndarray, gap_floor) -> list:
    """``(lo, hi)`` of each run of ascending ``lam`` that no gap above ``gap_floor`` splits.

    The gap lam[i+1] - lam[i] is compared with ``gap_floor``, a number or
    one entry per gap; the runs are the clusters of ``tensor.diagonalize``
    and of ``takagi``, whose descending s gives lam = -s: (-b) - (-a) is
    a - b exactly, so its gaps are bit for bit those of s.
    """
    cuts = np.flatnonzero(lam[1:] - lam[:-1] > gap_floor) + 1
    edges = [0, *cuts.tolist(), len(lam)]
    return [(lo, hi) for lo, hi in zip(edges, edges[1:]) if hi > lo]


@dataclass(frozen=True, eq=False)
class TakagiResult:
    """Factorization M = unitary @ diag(diagonal) @ unitary.T."""

    unitary: np.ndarray
    diagonal: np.ndarray
    residual: float


def unitary_sqrt(u: np.ndarray) -> np.ndarray:
    """Principal square root V = O diag(e^{i theta/2}) O^T of a symmetric unitary U.

    With U = O diag(e^{i theta}) O^T, O real orthogonal and theta in
    (-pi, pi] (-pi read as pi: U = -I gives V = iI for either signed zero),
    V is symmetric unitary, V V^T = U, and a matrix function of U (Higham,
    *Functions of Matrices*, SIAM 2008, ch. 6): independent of O inside an
    eigenspace, it moves with U except across an eigenvalue at -1.

    Re(U) merges a conjugate pair e^{+-i theta}, so O comes from a real
    symmetric matrix that keeps it apart.  U is normal, so the angles of its
    eigenvalues (``eigvals``) are accurate to about n eps; they put a cut
    mid-way in their largest gap on the circle, W = e^{i(pi - cut)} U turns
    it to -1, and Im (I + W)^{-1} is -H/2 for the Cayley transform H of W,
    with eigenvalues tan(phi/2) over W's angles phi.  Raises ``NoConvergence``
    when max|V V^T - U| exceeds ``_SQRT_SLACK`` (n eps + U's defect from
    symmetric unitarity).
    """
    n = len(u)
    if not n:
        return np.zeros((0, 0), dtype=complex)
    # np.angle is this arctan2 behind a Python-level wrapper
    eig = np.linalg.eigvals(u)
    angles = np.arctan2(eig.imag, eig.real)
    angles.sort()
    # the gap after each angle, the last one across the cut at pi
    gaps = np.concatenate((angles[1:], [angles[0] + 2 * np.pi])) - angles
    k = int(gaps.argmax())
    w = np.exp(1j * (np.pi - angles[k] - gaps[k] / 2)) * u
    o = np.linalg.eigh(np.linalg.inv(np.eye(n) + w).imag)[1]
    diag = np.einsum("ij,ij->j", o, u @ o)
    theta = np.arctan2(diag.imag, diag.real)
    theta[theta == -np.pi] = np.pi
    v = (o * np.exp(0.5j * theta)) @ o.T
    residual = float(np.abs(v @ v.T - u).max())
    slack = _SQRT_SLACK * n * _EPS  # U's defect is measured only past it
    if not residual <= slack and not residual <= slack + _SQRT_SLACK * max(
        _identity_defect(u @ u.conj().T), float(np.abs(u - u.T).max())
    ):
        raise NoConvergence(f"square root residual {residual:.3e} exceeds its bound", residual)
    return v


def takagi(m, tol: float = DEFAULT_TOL) -> TakagiResult:
    """Takagi-factorize a complex symmetric matrix.

    Returns unitary U and real nonnegative d, the singular values sorted
    descending, with M = U diag(d) U^T.  Raises ``DimensionMismatch`` when M
    is not a finite square matrix, ``NotSymmetric`` when it is not symmetric
    within tol max(1, max|M|) and ``NoConvergence`` if the final residual
    exceeds that bound (which indicates pathological input rather than an
    unlucky run: the algorithm is direct, not iterative).
    """
    arr = _as_square(m)
    if not np.isfinite(arr).all():
        raise DimensionMismatch("matrix entries must be finite")
    n = arr.shape[0]
    scale = float(np.max(np.abs(arr))) if arr.size else 0.0
    sym_defect = float(np.max(np.abs(arr - arr.T))) if arr.size else 0.0
    if not sym_defect <= _bound(tol, scale):
        raise NotSymmetric(f"matrix is not symmetric: defect {sym_defect:.3e}")
    arr = 0.5 * (arr + arr.T)

    u, s, wh = np.linalg.svd(arr)
    top = s.max(initial=0.0)
    live = np.flatnonzero(s > n * _NULL_EPS * top)
    for lo, hi in _runs(-s[live], _CLUSTER_REL * top):
        c = live[lo:hi]
        u[:, c] = u[:, c] @ unitary_sqrt(wh[c] @ np.conj(u[:, c]))
    residual = float(np.max(np.abs((u * s) @ u.T - arr))) if n else 0.0
    if not residual <= _bound(tol, scale):
        raise NoConvergence(f"factorization residual {residual:.3e} exceeds tolerance", residual)
    return TakagiResult(unitary=u, diagonal=s, residual=residual)
