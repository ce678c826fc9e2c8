"""Multiplication operators of obtuse variables, on C^{N+1} and on chains.

The L^2 space of an obtuse variable in C^N is (N+1)-dimensional with
orthonormal basis {X^0, ..., X^N}; multiplying by X^i is therefore a matrix,
and in that basis it reads sum_{j,k} S^{ij}_k a^j_k where a^j_k is the
elementary matrix sending e_j to e_k.  The same story on a product of n
copies (a finite chain) gives the discrete precursors of quantum noises:
single-site ampliations summed over sites with the time-step weights h and
sqrt(h), in one dense matrix within ``obtuse.MEMORY_BYTES``.  Every operator
built from the tensor has an independent oracle built from atom sums alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import obtuse
from .errors import ChainTooLarge, DimensionMismatch
from .obtuse import ObtuseSystem, Tensor3, _require_memory, tensor_of


def mult_op(tensor: Tensor3, i: int) -> np.ndarray:
    """Matrix of multiplication by X^i: sum_{j,k} S^{ij}_k a^j_k.

    Acting on basis vectors: e_j maps to sum_k S^{ij}_k e_k, so the matrix
    entry (k, j) is S^{ij}_k.  For i = 0 this is the identity.  Raises
    ``DimensionMismatch`` as the guard ``obtuse._require_constant``.
    """
    obtuse._require_constant(tensor, i)
    return tensor.entries[i].T.copy()


def conj_mult_op(tensor: Tensor3, i: int) -> np.ndarray:
    """Matrix of multiplication by conj(X^i): sum_{j,k} conj(S^{ik}_j) a^j_k.

    Equals the adjoint of ``mult_op(tensor, i)``, as multiplication by the
    conjugate function must be; it raises as ``mult_op``.
    """
    obtuse._require_constant(tensor, i)
    return np.conj(tensor.entries[i]).copy()


def expectation_functional(rv: ObtuseSystem, monomials) -> complex:
    """E[f(X^1, ..., X^N)] via functional calculus on multiplication operators.

    ``monomials`` is an iterable of ``(coefficient, factors)`` pairs where
    each factor is ``(index, conjugated)``; the polynomial is the sum of
    coefficient * product of (conjugated) coordinates.  The value is
    <e_0, f(M_{X^1}, ...) e_0>: each monomial's operators are applied right
    to left to e_0, one matrix-vector product per factor on the tensor
    slices (``vec @ S[i]`` is ``mult_op(tensor, i) @ vec``, and
    ``conj(S[i]) @ vec`` is ``conj_mult_op(tensor, i) @ vec``), and the
    coordinate 0 of the result is taken.  A monomial without factors gives
    its coefficient.  It agrees with the probabilistic expectation
    sum_m p_m f(v_m).
    """
    tensor = tensor_of(rv)
    dim = tensor.dim
    slices = tensor.entries
    e0 = np.zeros(dim, dtype=complex)
    e0[0] = 1.0
    total = 0.0 + 0.0j
    for coeff, factors in monomials:
        vec = e0
        for index, conjugated in reversed(tuple(factors)):
            obtuse._require_coordinate(index, dim)
            vec = np.conj(slices[index]) @ vec if conjugated else vec @ slices[index]
        total += coeff * vec[0]
    return complex(total)


def direct_expectation(rv: ObtuseSystem, monomials) -> complex:
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


@dataclass(frozen=True, eq=False)
class ChainOperator:
    """Dense operator on the n-fold product of copies of C^{N+1}."""

    n_sites: int
    site_dim: int
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _chain_dim(site_dim: int, n_sites: int) -> int:
    """D = site_dim**n_sites, or ChainTooLarge if a complex D x D matrix busts the budget,
    after ``DimensionMismatch`` unless n_sites is an integer (``_require_integer``) >= 1.

    The exponent is clipped before the power is taken: for site_dim >= 2,
    16 site_dim**(2k) exceeds the memory budget once k reaches its bit length,
    so a huge n_sites is rejected without computing a huge integer.
    """
    obtuse._require_integer(n_sites, "number of sites")
    if n_sites < 1:
        raise DimensionMismatch("need at least one site")
    dim = site_dim ** min(n_sites, obtuse.MEMORY_BYTES.bit_length())
    what = f"a chain of {n_sites} sites of dimension {site_dim}"
    _require_memory(np.dtype(complex).itemsize * dim**2, ChainTooLarge, what)
    return dim


def _time_weight(i: int, h: float) -> float:
    """The weight h of the time coordinate (i = 0) or sqrt(h) of the others."""
    obtuse._require_step(h)
    return h if i == 0 else np.sqrt(h)


def chain_mult_op(tensor: Tensor3, i: int, n_sites: int, h: float) -> ChainOperator:
    """Multiplication by coordinate i of the walk at time n*h, on n sites.

    The walk value is sum over sites of sqrt(h) X^i(site) for i >= 1, and
    the time coordinate sum of h X^0 = n h for i = 0; the operator is the
    correspondingly weighted sum of single-site ampliations of ``mult_op``.

    Cost: one zeroed D x D allocation (D = d**n_sites, within
    ``obtuse.MEMORY_BYTES``) and n_sites * D * d stores, so a page of the
    matrix is first touched by a write and faults at most once.  With
    L = d**site and R = d**(n_sites - site - 1), the ampliation at a site
    touches only the entries ((a, k, b), (a, j, b)) of the result, a < L
    and b < R; they form a strided view.  An entry off the diagonal lies in
    exactly one site's view, so the weighted site operator is assigned
    there, plus 0.0 so that a -0.0 is stored as +0.0.  The diagonal is the
    Kronecker sum of the site diagonals, summed in site order and written
    once at the end over what the views stored.  At d = 1 every site's view
    is the whole 1 x 1 matrix, so the sum is n_sites times the site
    operator, taken in one multiplication.
    """
    term = _time_weight(i, h) * mult_op(tensor, i)
    d = len(term)
    dim = _chain_dim(d, n_sites)
    if d == 1:
        return ChainOperator(n_sites=n_sites, site_dim=d, matrix=n_sites * term)
    term += 0.0
    total = np.zeros((dim, dim), dtype=complex)
    for site in range(n_sites):
        left, right = d**site, d ** (n_sites - site - 1)
        blocks = total.reshape(left, d, right, left, d, right)
        # view[a, b, k, j] is total[(a, k, b), (a, j, b)]
        view = np.einsum("akbajb->abkj", blocks)
        view[...] = term
    acc = diag = term.diagonal()
    for _ in range(n_sites - 1):
        acc = (acc[:, None] + diag).reshape(-1)
    np.fill_diagonal(total, acc)
    return ChainOperator(n_sites=n_sites, site_dim=d, matrix=total)


def direct_chain_mult_op(rv: ObtuseSystem, i: int, n_sites: int, h: float) -> ChainOperator:
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
