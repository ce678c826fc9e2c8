"""Multiplication operators of obtuse variables, on C^{N+1} and on chains.

The L^2 space of an obtuse variable in C^N is (N+1)-dimensional with
orthonormal basis {X^0, ..., X^N}; multiplying by X^i is therefore a matrix,
and in that basis it reads sum_{j,k} S^{ij}_k a^j_k where a^j_k is the
elementary matrix sending e_j to e_k.  The same story on a product of n
copies (a finite chain) gives the discrete precursors of quantum noises:
single-site ampliations summed over sites with the time-step weights h and
sqrt(h).  Every operator built from the tensor has an independent oracle
built directly from atom sums on the probability space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChainTooLarge, DimensionMismatch
from .obtuse import ObtuseRV, Tensor3

# Byte budget of the one dense D x D complex matrix a chain operator holds:
# 14x the 76.5 MB operator of 3-dimensional sites at 7 sites (D = 2187), and
# well inside a host with 8 GiB.  It admits D <= 8192.
CHAIN_MATRIX_BYTES = 2**30


def basis_matrix(i: int, j: int, dim: int) -> np.ndarray:
    """The elementary matrix a^i_j with a^i_j e_k = delta_{ik} e_j."""
    if not (0 <= i < dim and 0 <= j < dim):
        raise IndexError(f"indices ({i}, {j}) out of range for dimension {dim}")
    out = np.zeros((dim, dim), dtype=complex)
    out[j, i] = 1.0
    return out


def mult_op(tensor: Tensor3, i: int) -> np.ndarray:
    """Matrix of multiplication by X^i: sum_{j,k} S^{ij}_k a^j_k.

    Acting on basis vectors: e_j maps to sum_k S^{ij}_k e_k, so the matrix
    entry (k, j) is S^{ij}_k.  For i = 0 this is the identity.
    """
    if not tensor.has_constant:
        raise DimensionMismatch("multiplication operators need the constant coordinate")
    if not (0 <= i < tensor.dim):
        raise IndexError(f"coordinate {i} out of range for dimension {tensor.dim}")
    return tensor.entries[i].T.copy()


def conj_mult_op(tensor: Tensor3, i: int) -> np.ndarray:
    """Matrix of multiplication by conj(X^i): sum_{j,k} conj(S^{ik}_j) a^j_k.

    Equals the adjoint of ``mult_op(tensor, i)``, as multiplication by the
    conjugate function must be.
    """
    if not tensor.has_constant:
        raise DimensionMismatch("multiplication operators need the constant coordinate")
    if not (0 <= i < tensor.dim):
        raise IndexError(f"coordinate {i} out of range for dimension {tensor.dim}")
    return np.conj(tensor.entries[i]).copy()


def expectation_functional(rv: ObtuseRV, monomials) -> complex:
    """E[f(X^1, ..., X^N)] via functional calculus on multiplication operators.

    ``monomials`` is an iterable of ``(coefficient, factors)`` pairs where
    each factor is ``(index, conjugated)``; the polynomial is the sum of
    coefficient * product of (conjugated) coordinates.  The value is
    <e_0, f(M_{X^1}, ...) e_0> computed with the operator matrices; it agrees
    with the probabilistic expectation sum_m p_m f(v_m).
    """
    from .obtuse import tensor_of

    tensor = tensor_of(rv)
    dim = tensor.dim
    e0 = np.zeros(dim, dtype=complex)
    e0[0] = 1.0
    total = 0.0 + 0.0j
    for coeff, factors in monomials:
        op = np.eye(dim, dtype=complex)
        for index, conjugated in factors:
            factor = conj_mult_op(tensor, index) if conjugated else mult_op(tensor, index)
            op = op @ factor
        total += coeff * np.vdot(e0, op @ e0)
    return complex(total)


def direct_expectation(rv: ObtuseRV, monomials) -> complex:
    """Oracle for ``expectation_functional``: plain atom sums."""
    vhat = rv.hatted
    p = rv.probabilities
    total = 0.0 + 0.0j
    for coeff, factors in monomials:
        vals = np.ones(len(p), dtype=complex)
        for index, conjugated in factors:
            col = vhat[:, index]
            vals = vals * (np.conj(col) if conjugated else col)
        total += coeff * complex(np.dot(p, vals))
    return complex(total)


@dataclass(frozen=True)
class ChainOperator:
    """Dense operator on the n-fold product of copies of C^{N+1}."""

    n_sites: int
    site_dim: int
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _chain_dim(site_dim: int, n_sites: int) -> int:
    """D = site_dim**n_sites, or ChainTooLarge if a D x D matrix busts the budget.

    The exponent is clipped before the power is taken: for site_dim >= 2,
    site_dim**k > max_dim once k exceeds the bit length of max_dim, so a huge
    n_sites is rejected without computing a huge integer.
    """
    if n_sites < 1:
        raise DimensionMismatch("need at least one site")
    max_dim = math.isqrt(CHAIN_MATRIX_BYTES // np.dtype(complex).itemsize)
    dim = site_dim ** min(n_sites, max_dim.bit_length())
    if dim > max_dim:
        raise ChainTooLarge(
            f"a chain of {n_sites} sites of dimension {site_dim} needs a matrix "
            f"above {CHAIN_MATRIX_BYTES} bytes"
        )
    return dim


def _time_weight(i: int, h: float) -> float:
    """The weight h of the time coordinate (i = 0) or sqrt(h) of the others."""
    if not (h > 0 and math.isfinite(h)):
        raise DimensionMismatch(f"time step h must be finite and positive, got {h}")
    return h if i == 0 else np.sqrt(h)


def chain_mult_op(tensor: Tensor3, i: int, n_sites: int, h: float) -> ChainOperator:
    """Multiplication by coordinate i of the walk at time n*h, on n sites.

    The walk value is sum over sites of sqrt(h) X^i(site) for i >= 1, and
    the time coordinate sum of h X^0 = n h for i = 0; the operator is the
    correspondingly weighted sum of single-site ampliations of ``mult_op``.

    Cost: one D x D allocation (D = d**n_sites, at most ``CHAIN_MATRIX_BYTES``)
    and n_sites * D * d additions.  With L = d**site and
    R = d**(n_sites - site - 1), the ampliation at a site touches only the
    entries ((a, k, b), (a, j, b)) of the result, a < L and b < R; they form
    a strided view, to which the weighted site operator is added in place.
    At d = 1 every site's view is the whole 1 x 1 matrix, so the sum is
    n_sites times the site operator, taken in one multiplication.
    """
    d = tensor.dim
    dim = _chain_dim(d, n_sites)
    weight = _time_weight(i, h)
    term = weight * mult_op(tensor, i)
    if d == 1:
        return ChainOperator(n_sites=n_sites, site_dim=d, matrix=n_sites * term)
    total = np.zeros((dim, dim), dtype=complex)
    for site in range(n_sites):
        left, right = d**site, d ** (n_sites - site - 1)
        blocks = total.reshape(left, d, right, left, d, right)
        # view[a, b, k, j] is total[(a, k, b), (a, j, b)]
        view = np.einsum("akbajb->abkj", blocks)
        view += term
    return ChainOperator(n_sites=n_sites, site_dim=d, matrix=total)


def direct_chain_mult_op(rv: ObtuseRV, i: int, n_sites: int, h: float) -> ChainOperator:
    """Oracle for ``chain_mult_op``: direct multiplication matrix on Omega^n.

    Enumerates all atom tuples of the product space and all product basis
    functions Phi_K = prod_m X^{K_m}(omega_m); the entry (K', K) is the plain
    probabilistic sum E[conj(Phi_K') Z Phi_K] with Z the walk coordinate.
    Never touches the 3-tensor.
    """
    vhat = rv.hatted
    n_atoms, d = vhat.shape
    _chain_dim(d, n_sites)
    weight = _time_weight(i, h)

    # basis values per site: phi[k, a] = X^k(atom a); tensor them over sites
    phi = vhat.T  # (d, n_atoms)
    basis = phi
    for _ in range(n_sites - 1):
        basis = np.kron(basis, phi)  # (d**sites, n_atoms**sites)
    probs = rv.probabilities
    pw = probs
    for _ in range(n_sites - 1):
        pw = np.kron(pw, probs)

    # walk coordinate evaluated on every atom tuple
    z = np.zeros(n_atoms**n_sites, dtype=complex)
    coord = vhat[:, i]
    ones = np.ones(n_atoms)
    for site in range(n_sites):
        factors = [coord if s == site else ones for s in range(n_sites)]
        term = factors[0]
        for f in factors[1:]:
            term = np.kron(term, f)
        z = z + weight * term

    matrix = np.conj(basis) * (pw * z)[None, :] @ basis.T
    return ChainOperator(n_sites=n_sites, site_dim=d, matrix=matrix)
