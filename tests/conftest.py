"""Shared golden data and helpers.

The reference system is the three-point obtuse system of C^2 with
probabilities (1/3, 1/4, 5/12); its tensor entries are known in closed form
and frozen below as the slice matrices (S^{ij}_k)_{i,k} per coordinate j.
The jump family is an h-dependent obtuse system whose rescaled tensors
converge to a limit with one compensated-Poisson direction (1, i)/sqrt(2)
and one Brownian direction proportional to (i, 1).
"""

import numpy as np
import pytest

from obtusewalk import ObtuseRV, tensor_of

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


def scaled_family(n, k, c, rng, steps):
    """Sampled systems whose first k atoms have probability c*h, and Lambda.

    In the limit the k light atoms become Poisson directions of intensity c
    and the other n - k directions are Brownian.  The real system (rows of
    an orthogonal matrix with first column sqrt(p), from Gram-Schmidt run
    twice, which is smooth in p) is rotated by a random diagonal phase
    unitary u, which gives Lambda = u u^T.  The draws from ``rng`` match
    the benchmark's generator of the same name.
    """
    rest = rng.dirichlet(np.full(n + 1 - k, 5.0))
    phases = np.exp(2j * np.pi * rng.random(n))
    systems = []
    for h in steps:
        p = np.concatenate([np.full(k, c * h), (1.0 - k * c * h) * rest])
        cols = [np.sqrt(p)]
        for e in np.eye(n + 1)[1:]:
            for _ in range(2):
                for q in cols:
                    e = e - np.dot(q, e) * q
            cols.append(e / np.linalg.norm(e))
        real = (np.column_stack(cols) / np.sqrt(p)[:, None])[:, 1:]
        systems.append(real * phases[None, :])
    return systems, np.diag(phases**2)
