"""Takagi factorization of complex symmetric matrices.

A complex symmetric M factors as M = U diag(d) U^T with U unitary and d real
nonnegative (the singular values of M).  The routine here goes through the
Hermitian positive-semidefinite matrix conj(M) M, whose eigenbasis gives
conj(U) up to a phase per eigenvector; phases are then fixed so the diagonal
becomes real nonnegative.  Clusters of equal singular values need one extra
step: on such a cluster the matrix acts as s times a unitary symmetric B,
and B itself splits as O D O^T with O real orthogonal and D unit-modulus
diagonal, because the real and imaginary parts of B are commuting real
symmetric matrices.

The joint factorization of a tensor's slice family, S_k = U diag(conj(v^k))
U^T with U the normalized fixed points, is what ``tensor.diagonalize``
returns; it needs no routine of its own here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotSymmetric
from .obtuse import DEFAULT_TOL

_CLUSTER_REL = 1e-10
# the squared route cannot resolve singular values below sqrt(eps) * s_max
_NULL_REL = 1e-8


@dataclass(frozen=True)
class TakagiResult:
    """Factorization M = unitary @ diag(diagonal) @ unitary.T."""

    unitary: np.ndarray
    diagonal: np.ndarray
    residual: float

    def reconstruct(self) -> np.ndarray:
        return self.unitary @ np.diag(self.diagonal) @ self.unitary.T


def _as_square(m) -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _diag_unitary_symmetric(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a unitary symmetric B as O @ diag(d) @ O.T, O real orthogonal.

    Re(B) and Im(B) are commuting real symmetric matrices (a consequence of
    B being unitary and symmetric), so a joint real eigenbasis exists: take
    the eigenbasis of Re(B) and re-diagonalize Im(B) inside each degenerate
    eigenspace.
    """
    x = np.ascontiguousarray(b.real)
    y = np.ascontiguousarray(b.imag)
    k = b.shape[0]
    _, o = np.linalg.eigh(x)
    # refine within degenerate blocks of Re(B) so Im(B) becomes diagonal too
    xv = np.diagonal(o.T @ x @ o).copy()
    start = 0
    while start < k:
        stop = start + 1
        while stop < k and xv[stop] - xv[start] <= 1e-8:
            stop += 1
        if stop - start > 1:
            block = o[:, start:stop]
            _, q = np.linalg.eigh(block.T @ y @ block)
            o[:, start:stop] = block @ q
        start = stop
    d = np.diagonal(o.T @ b @ o).copy()
    return o, d


def takagi(m, tol: float = DEFAULT_TOL) -> TakagiResult:
    """Takagi-factorize a complex symmetric matrix.

    Returns unitary U and real nonnegative d, sorted descending, with
    M = U diag(d) U^T.  Raises ``NotSymmetric`` when M is not symmetric within
    ``tol`` and ``NoConvergence`` if the final residual exceeds the tolerance
    (which indicates pathological input rather than an unlucky run: the
    algorithm is direct, not iterative).
    """
    arr = _as_square(m)
    n = arr.shape[0]
    scale = float(np.max(np.abs(arr))) if arr.size else 0.0
    sym_defect = float(np.max(np.abs(arr - arr.T))) if arr.size else 0.0
    if sym_defect > max(tol, tol * scale):
        raise NotSymmetric(f"matrix is not symmetric: defect {sym_defect:.3e}")
    arr = 0.5 * (arr + arr.T)

    h = np.conj(arr) @ arr
    eigvals, w = np.linalg.eigh(h)
    s = np.sqrt(np.clip(eigvals, 0.0, None))
    smax = float(s[-1]) if n else 0.0
    cluster_tol = max(smax * _CLUSTER_REL, 1e-14)
    null_tol = max(smax * _NULL_REL, 1e-14)

    cols = np.zeros((n, n), dtype=complex)
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and s[stop] - s[start] <= cluster_tol:
            stop += 1
        wc = w[:, start:stop]
        s_rep = float(np.mean(s[start:stop]))
        if s_rep <= null_tol:
            cols[:, start:stop] = np.conj(wc)
        else:
            a = wc.T @ arr @ wc
            o, dphase = _diag_unitary_symmetric(a / s_rep)
            # snap phases onto the unit circle so the factor stays exactly
            # unitary even when s_rep carries eigensolver noise
            mod = np.abs(dphase)
            dphase = np.where(mod > 0, dphase / np.where(mod > 0, mod, 1.0), 1.0)
            g = o * np.sqrt(dphase)[None, :]
            cols[:, start:stop] = np.conj(wc) @ g
        start = stop

    # read the diagonal off M itself; the squared route above loses half the
    # significant digits on small singular values
    dvals = np.maximum(np.real(np.diagonal(cols.conj().T @ arr @ np.conj(cols))), 0.0)
    order = np.argsort(-dvals, kind="stable")
    u = cols[:, order]
    d = dvals[order]
    residual = float(np.max(np.abs(u @ np.diag(d) @ u.T - arr))) if n else 0.0
    if residual > max(tol, tol * scale):
        raise NoConvergence(
            f"factorization residual {residual:.3e} exceeds tolerance",
            residual=residual,
        )
    return TakagiResult(unitary=u, diagonal=d, residual=residual)
