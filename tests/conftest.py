"""Shared golden data and helpers.

The reference system is the three-point obtuse system of C^2 with
probabilities (1/3, 1/4, 5/12); its tensor entries are known in closed form
and frozen below as the slice matrices (S^{ij}_k)_{i,k} per coordinate j.
The jump family is an h-dependent obtuse system whose rescaled tensors
converge to a limit with one compensated-Poisson direction (1, i)/sqrt(2)
and one Brownian direction proportional to (i, 1).
"""

import os
from pathlib import Path

import numpy as np
import pytest

import obtusewalk
from obtusewalk import ObtuseRV, Tensor3, TensorFamily, serialize, tensor, tensor_of
from obtusewalk.obtuse import _bound, _require_constant, _require_step, haar_unitary
from obtusewalk.takagi import unitary_sqrt

REFERENCE_VALUES = np.array(
    [
        [1j, 1],
        [1, -1 + 1j],
        [-(3 + 4j) / 5, -(1 + 3j) / 5],
    ],
    dtype=complex,
)

REFERENCE_PROBS = np.array([1 / 3, 1 / 4, 5 / 12])

# slice matrices (rows i, columns k) of the reference tensor
REFERENCE_SLICE_0 = np.eye(3, dtype=complex)
REFERENCE_SLICE_1 = np.array(
    [
        [0, 1, 0],
        [-(1 - 2j) / 5, 0, -2 * (2 + 1j) / 5],
        [-2 * (1 - 2j) / 5, 0, (2 + 1j) / 5],
    ],
    dtype=complex,
)
REFERENCE_SLICE_2 = np.array(
    [
        [0, 0, 1],
        [-2 * (1 - 2j) / 5, 0, (2 + 1j) / 5],
        [(1 - 2j) / 5, -1j, -(1 - 2j) / 5],
    ],
    dtype=complex,
)


def reference_tensor_entries() -> np.ndarray:
    entries = np.empty((3, 3, 3), dtype=complex)
    for j, mat in enumerate([REFERENCE_SLICE_0, REFERENCE_SLICE_1, REFERENCE_SLICE_2]):
        entries[:, j, :] = mat
    return entries


# the diffusion-limit covariance matrix of the reference walk
REFERENCE_LAMBDA = np.array(
    [
        [-(1 - 2j) / 5, -2 * (1 - 2j) / 5],
        [-2 * (1 - 2j) / 5, (1 - 2j) / 5],
    ],
    dtype=complex,
)


def jump_values(h: float) -> np.ndarray:
    """Values of the h-dependent jump-family system in C^2."""
    sh = np.sqrt(h)
    return np.array(
        [
            np.array([1j, 1]) / np.sqrt(2),
            np.array([1 - 1j * sh, 1j - sh]) / np.sqrt(2 * h),
            -np.array([2 * sh + 1j, 1 + 2j * sh]) / np.sqrt(2),
        ],
        dtype=complex,
    )


def jump_rv(h: float) -> ObtuseRV:
    return ObtuseRV.from_values(jump_values(h))


# limit of the jump family: slice matrices (M^{ij}_k)_{i,k} for j = 1, 2 and
# the Lambda matrix (M^{ij}_0)_{i,j}
JUMP_M1 = np.array([[1, -1j], [1j, 1]], dtype=complex) / (2 * np.sqrt(2))
JUMP_M2 = np.array([[1j, 1], [-1, 1j]], dtype=complex) / (2 * np.sqrt(2))
JUMP_LAMBDA = np.array([[0, 1j], [1j, 0]], dtype=complex)
JUMP_POISSON_DIR = np.array([1, 1j]) / np.sqrt(2)


def child_env(**extra) -> dict:
    """This process's environment, plus ``extra``, for a child Python process that
    imports the package under test: PYTHONPATH is the directory holding it."""
    root = Path(obtusewalk.__file__).resolve().parent.parent
    return dict(os.environ, PYTHONPATH=str(root), **extra)


def to_json(fmt: str, x):
    """The plain document of ``x`` in the JSON format ``fmt``: ``serialize._plain``
    of its builder ``serialize.<fmt>_doc``."""
    return serialize._plain(getattr(serialize, f"{fmt}_doc")(x))


# The gate's decision as the previous release wrote it, on a report's residuals
# ``r`` of a tensor in dimension ``dim`` (N for a limit's inner tensor) with
# max|S| = ``scale``: ``SymmetryReport.ok`` and ``doubly_symmetric`` with its
# seven scalar fields, ``LimitSymmetryReport.ok`` with four more.


def doubly_symmetric_before(r, tol, dim, scale):
    m = scale
    entry, product = _bound(tol, m), _bound(tol, dim * m * m)
    return r["sym1"] <= entry and r["sym2"] <= product and r["sym3"] <= product


def symmetry_ok_before(r, tol, dim, scale):
    sym0_ok = r.get("sym0") is None or r["sym0"] <= _bound(tol, scale)
    return sym0_ok and doubly_symmetric_before(r, tol, dim, scale)


def limit_ok_before(r, tol, dim, scale):
    unit, nm = _bound(tol, 1.0), _bound(tol, dim * scale)
    return (
        symmetry_ok_before(r, tol, dim, scale)
        and r["lambda_symmetry"] <= unit
        and r["lambda_unitarity"] <= unit
        and r["exchange"] <= nm
        and r["reduction"] <= nm
    )


def ok_before(report, tol, entries):
    """The previous release's ``ok`` of ``report`` on the tensor ``entries``
    (the inner tensor of a limit, whose report carries the Lambda relations)."""
    r = report.residuals()
    before = limit_ok_before if "lambda_symmetry" in r else symmetry_ok_before
    return before(r, tol, len(entries), float(np.abs(entries).max(initial=0)))


@pytest.fixture
def gate_sweeps(monkeypatch):
    """List that records one entry per sweep of the gate ``tensor._certify_or_sweep``."""
    calls = []
    original = tensor.check_symmetries

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(tensor, "check_symmetries", counting)
    return calls


@pytest.fixture
def reference_rv() -> ObtuseRV:
    return ObtuseRV.from_values(REFERENCE_VALUES)


@pytest.fixture
def reference_tensor(reference_rv):
    return tensor_of(reference_rv)


def bernoulli_rv() -> ObtuseRV:
    """Symmetric +-1 variable in C^1."""
    return ObtuseRV.from_values(np.array([[1.0], [-1.0]], dtype=complex))


def imaginary_rv() -> ObtuseRV:
    """The (i, -i) variable in C^1: real tensor entries, complex variable."""
    return ObtuseRV.from_values(np.array([[1j], [-1j]], dtype=complex))


def basis_matrix(i: int, j: int, dim: int) -> np.ndarray:
    """The elementary matrix a^i_j with a^i_j e_k = delta_{ik} e_j."""
    if not (0 <= i < dim and 0 <= j < dim):
        raise IndexError(f"indices ({i}, {j}) out of range for dimension {dim}")
    out = np.zeros((dim, dim), dtype=complex)
    out[j, i] = 1.0
    return out


def rescale_tensor(tensor: Tensor3, h: float) -> Tensor3:
    """Oracle for the exponents ``limit_tensor`` applies: the tensor of the variable
    rescaled by the step h, entries h^{e_i + e_j - e_k} S^{ij}_k with e = 1 on the
    constant coordinate and 1/2 on the others."""
    _require_step(h)
    _require_constant(tensor)
    d = tensor.dim
    eps = np.full(d, 0.5)
    eps[0] = 1.0
    expo = eps[:, None, None] + eps[None, :, None] - eps[None, None, :]
    return Tensor3(entries=(h**expo) * tensor.entries, has_constant=True)


def direct_mult_op(rv: ObtuseRV, i: int) -> np.ndarray:
    """Oracle for ``mult_op``: entries E[conj(X^k) X^i X^j] from atom sums."""
    vhat = rv.hatted
    return np.einsum("m,mk,m,mj->kj", rv.probabilities, np.conj(vhat), vhat[:, i], vhat)


def greedy_match(found, expected) -> float:
    """Max distance of a greedy one-to-one matching between two families."""
    found = np.asarray(found)
    expected = np.asarray(expected)
    assert found.shape == expected.shape
    used = set()
    worst = 0.0
    for f in found:
        best = min(
            (float(np.max(np.abs(f - e))), k)
            for k, e in enumerate(expected)
            if k not in used
        )
        used.add(best[1])
        worst = max(worst, best[0])
    return worst


# the steps of the benchmark's scaled families
SCALED_STEPS = tuple(0.01 * 4.0**-k for k in range(5))


def scaled_family(n, k, c, rng, steps, light=None):
    """Sampled systems whose first k atoms have probability c*h, and Lambda.

    In the limit the k light atoms become Poisson directions of intensity c
    and the other n - k directions are Brownian.  The real system (rows of
    ``_gram_schmidt(p)`` over sqrt(p)) is rotated by a random diagonal phase
    unitary u, which gives Lambda = u u^T.  ``light(h)``, if given, replaces
    c*h as the probability of a light atom.  The draws from ``rng`` match
    the benchmark's generator of the same name.
    """
    rest = rng.dirichlet(np.full(n + 1 - k, 5.0))
    phases = np.exp(2j * np.pi * rng.random(n))
    systems = []
    for h in steps:
        q = c * h if light is None else light(h)
        p = np.concatenate([np.full(k, q), (1.0 - k * q) * rest])
        real = _gram_schmidt(p)[:, 1:] / np.sqrt(p)[:, None]
        systems.append(real * phases[None, :])
    return systems, np.diag(phases**2)


def sampled_family(steps, systems):
    """The ``TensorFamily`` of the tensors of value arrays, one per step."""
    return TensorFamily.from_samples(
        steps, [tensor_of(ObtuseRV.from_values(v)) for v in systems]
    )


def _gram_schmidt(p):
    """Orthogonal matrix with first column sqrt(p), smooth in p.

    The other columns come from Gram-Schmidt, run twice, on e_1, e_2, ...;
    Householder QR could flip a column's sign from one p to the next.
    """
    cols = [np.sqrt(p)]
    for e in np.eye(len(p))[1:]:
        for _ in range(2):
            for q in cols:
                e = e - np.dot(q, e) * q
        cols.append(e / np.linalg.norm(e))
    return np.column_stack(cols)


def closed_form_family(lam, o, c, rest, steps):
    """Systems with the limit (Lambda, c_1..c_K), and their jump directions.

    At step h the real system of the probabilities p(h) = (c h, (1 - sum(c)
    h) rest), the rows of Q = ``_gram_schmidt(p)`` over sqrt(p) without
    their first entry, is rotated to (real @ O^T) @ V^T, V the principal
    square root of the symmetric unitary Lambda.  The real limit has
    E[X X^T] = I and a jump of intensity c_p along c_p^{-1/2} u_p, u_p the
    limit of row p of Q without its first entry.  With s = sqrt(p) and
    T_k = s_0^2 + sum_{j >= k} s_j^2, Gram-Schmidt gives column k of Q as
    e_k - (s_k / T_k)(s_0 e_0 + sum_{j >= k} s_j e_j) over sqrt(T_{k+1} / T_k).
    As s_0..s_{K-1} go to 0 (K <= N, so the last atom is heavy), Q[0, N]
    tends to -1 and Q[p, p] to 1 for 0 < p < K, every other entry of those
    rows to 0: u_0 = -e_N and u_p = e_p in the coordinates 1..N.  Rotated,
    the limit has Lambda = V V^T, the intensities c_p and the directions
    c_p^{-1/2} V O u_p.  Returns ``(systems, directions)``.
    """
    c = np.asarray(c, dtype=float)
    n, k = len(o), len(c)
    rotation = unitary_sqrt(lam) @ o
    systems = []
    for h in steps:
        p = np.concatenate([c * h, (1.0 - c.sum() * h) * rest])
        real = _gram_schmidt(p)[:, 1:] / np.sqrt(p)[:, None]
        systems.append(real @ rotation.T)
    u = np.eye(n)[np.r_[n - 1, 0 : k - 1]]
    u[0] *= -1.0
    return systems, (u @ rotation.T) / np.sqrt(c)[:, None]


def closed_form_spec(n, k, rng, c_range=(2.5e-4, 5e-4)):
    """A random limit in C^n: dense Lambda, real rotation O, k distinct c_p.

    Lambda = W W^T for a Haar unitary W, O is the Q of a real Gaussian, the
    intensities are log-uniform over ``c_range`` and the other
    probabilities Dirichlet(5).  Returns ``(lam, o, c, rest)``.
    """
    w = haar_unitary(n, rng)
    o = np.linalg.qr(rng.standard_normal((n, n)))[0]
    c = np.exp(rng.uniform(*np.log(c_range), size=k))
    rest = rng.dirichlet(np.full(n + 1 - k, 5.0))
    return w @ w.T, o, c, rest


def closed_form_corpus():
    """40 seeded limits, N = 2..8, K = 1..N/2 jumps of distinct intensity,
    on ``SCALED_STEPS``: ``(n, lam, c, systems, dirs)`` per family."""
    rng = np.random.default_rng(17)
    for i in range(40):
        n = 2 + i % 7
        k = int(rng.integers(1, n // 2 + 1))
        lam, o, c, rest = closed_form_spec(n, k, rng)
        systems, dirs = closed_form_family(lam, o, c, rest, SCALED_STEPS)
        yield n, lam, c, systems, dirs
