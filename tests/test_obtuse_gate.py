"""The obtuseness gate ``_require_obtuse`` against a reference copy of the old one.

The gate used to build the whole ``validate_obtuse_system`` report, the
three aggregate residuals included, and raise unless its ``ok`` held.  It
now runs the pair test alone.  ``reference_gate`` below is that old gate,
report and all, written out here: the gate must accept exactly what it
accepts and fail with the same error type, ``NotObtuse.pair``, ``residual``
and message.  The intended differences are the norm range, where a vector
whose |v|^2 under- or overflows used to pass structurally and now raises,
and the diagonal, which the old gate tested as a pair (i, i) of residual 0
against tol |v_i|^2: it failed where that bound overflowed, at tol > 1.
"""

import re
import warnings

import numpy as np
import pytest

from obtusewalk import ObtuseRV, random_system, system_from_probabilities
from obtusewalk.errors import DimensionMismatch, NotObtuse, ObtuseWalkError
from obtusewalk.obtuse import DEFAULT_TOL, _require_obtuse, haar_unitary, validate_obtuse_system

PREFIX = "recovered fixed points do not form an obtuse system: "


def reference_gate(values, tol, what=""):
    """The old ``_require_obtuse``: the full report, then the pair test.

    Returns the probabilities of an accepted system; raises what the old
    gate raised.
    """
    arr = np.asarray(values, dtype=complex)
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a family of vectors, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DimensionMismatch("vector entries must be finite")
    n, d = arr.shape
    if n != d + 1:
        raise DimensionMismatch(f"need {d + 1} vectors in C^{d}, got {n}")
    norms2 = np.sum(np.abs(arr) ** 2, axis=1)
    if np.any(norms2 == 0.0):
        raise DimensionMismatch("obtuse systems contain no zero vector")
    residuals = np.abs(np.conj(arr) @ arr.T + 1.0)
    np.fill_diagonal(residuals, 0.0)
    p = 1.0 / (1.0 + norms2)
    # the aggregates the old gate computed and never read
    np.einsum("m,mi,mj->ij", p, arr, np.conj(arr))
    norms = np.sqrt(1.0 / p - 1.0)
    bounds = tol * np.maximum(1.0, np.outer(norms, norms))
    bounds = np.where(bounds < np.inf, bounds, np.nan)
    if float(np.max(residuals)) <= tol or np.all(residuals <= bounds):
        return p
    i, j = divmod(int(np.argmax(residuals / bounds)), n)
    residual = float(residuals[i, j])
    raise NotObtuse(
        f"{what}vectors {i} and {j} have inner product residual "
        f"{residual:.3e} > {bounds[i, j]:.3e}",
        pair=(i, j),
        residual=residual,
    )


def reference_worst_pair(values, tol):
    """The old ``worst_pair``, the argmax of residual / bound over every (i, j),
    the diagonal included, which names (0, 0) when every residual is 0; and
    the largest residual."""
    arr = np.asarray(values, dtype=complex)
    residuals = np.abs(np.conj(arr) @ arr.T + 1.0)
    np.fill_diagonal(residuals, 0.0)
    p = 1.0 / (1.0 + np.sum(np.abs(arr) ** 2, axis=1))
    norms = np.sqrt(1.0 / p - 1.0)
    bounds = tol * np.maximum(1.0, np.outer(norms, norms))
    return divmod(int(np.argmax(residuals / bounds)), len(arr)), residuals.max()


def outcome(gate, values, tol, what=""):
    try:
        return "ok", gate(values, tol, what)
    except ObtuseWalkError as exc:
        return type(exc), str(exc), getattr(exc, "pair", None), getattr(exc, "residual", None)


def assert_same_decision(values, tol=DEFAULT_TOL):
    want = outcome(reference_gate, values, tol, PREFIX)
    got = outcome(lambda v, t, w: _require_obtuse(v, t, w)[1], values, tol, PREFIX)
    if want[0] == "ok":
        assert got[0] == "ok"
        assert np.array_equal(got[1], want[1])
        assert validate_obtuse_system(values, tol).ok
    else:
        assert got == want
        if want[0] is NotObtuse:
            assert not validate_obtuse_system(values, tol).ok
    if want[0] in ("ok", NotObtuse):
        pair, largest = reference_worst_pair(values, tol)
        if largest > 0:
            assert validate_obtuse_system(values, tol).worst_pair == pair
    return want[0]


def systems():
    """Random systems at N = 1..32, each also with one pair pushed off."""
    rng = np.random.default_rng(27)
    for n in range(1, 33):
        values = random_system(n, rng).values
        yield values
        for scale in (1e-12, 1e-9, 1e-7, 1e-3):
            bent = values.copy()
            bent[int(rng.integers(n + 1))] *= 1 + scale
            yield bent


@pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-12])
def test_random_systems(tol):
    verdicts = [assert_same_decision(v, tol) for v in systems()]
    # both sides of the decision are exercised
    assert "ok" in verdicts and NotObtuse in verdicts


def test_per_pair_bound_cases():
    # a tiny-probability atom: |v_0|^2 = 1e8 gives its pairs wide bounds
    light = system_from_probabilities([1e-8, 0.3, 0.3, 0.4 - 1e-8]).values.copy()
    assert assert_same_decision(light) == "ok"
    for atom, scale in ((1, 5e-4), (0, 5e-4), (0, 1e-3), (2, 1e-9)):
        bent = light.copy()
        bent[atom] *= 1 + scale
        assert_same_decision(bent)
    # a long vector does not excuse the others
    assert assert_same_decision([[1e5, 0], [0, 1], [0, 1]]) is NotObtuse
    # one perturbed pair of a complex system
    values = random_system(3, np.random.default_rng(1)).values.copy()
    values[2, 1] += 1e-6
    assert assert_same_decision(values) is NotObtuse


def test_overflowed_pair_bound_on_the_fast_path():
    # tol |v_0| |v_1| overflows at tol 2, but no residual exceeds tol: the
    # gate and the report both pass, with no overflow warning
    values = [[1e154, -1e-154], [0, 1e154], [-1e-154, -1e-154]]
    _require_obtuse(values, 2.0)
    report = validate_obtuse_system(values, 2.0)
    assert report.ok and report.worst_pair == (0, 1)
    # off the fast path only pairs i != j count: the old gate also failed the
    # diagonal (0, 0), residual 0 against the overflowed bound of |v_0|^2
    values = [[1e154, 0], [0, 10], [0, 0.15]]
    _require_obtuse(values, 2.0)
    report = validate_obtuse_system(values, 2.0)
    assert report.ok and report.worst_pair in ((1, 2), (2, 1)) and report.check.value == 2.5


def test_near_tied_probabilities():
    rng = np.random.default_rng(9)
    for n in (1, 3, 8):
        for eps in (0.0, 1e-15, 1e-12, 1e-9):
            p = np.full(n + 1, 1.0 / (n + 1))
            p[0] += eps
            p[1] -= eps
            values = system_from_probabilities(p).values @ haar_unitary(n, rng).T
            assert assert_same_decision(values) == "ok"


@pytest.mark.parametrize(
    "values",
    [
        [[np.nan], [-1.0]],
        [[np.inf, 0], [0, 1], [1, 1]],
        [[0, 0], [1, -1 + 1j], [1, 1]],
        [[1j, 1], [1, -1 + 1j]],
        [[1.0, 2.0, 3.0]],
        [1.0, -1.0],
    ],
)
def test_structural_errors(values):
    assert assert_same_decision(values) is DimensionMismatch


OUT_OF_RANGE = [
    # |v_0|^2 overflows to inf, |v_1|^2 = 1e-320 is subnormal
    ([[1e160], [-1e-160]], 0, "inf"),
    # |v_0|^2 underflows to 0 although v_0 is not zero
    ([[1e-170], [-1e170]], 0, "0.000e+00"),
]


@pytest.mark.parametrize("values, index, norm2", OUT_OF_RANGE)
def test_squared_norm_out_of_range_raises(values, index, norm2):
    message = f"|v|^2 of vector {index} is {norm2} in floating point"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (validate_obtuse_system, ObtuseRV.from_values):
            with pytest.raises(DimensionMismatch, match=re.escape(message)):
                call(values)
        with pytest.raises(DimensionMismatch, match="vector 0"):
            _require_obtuse(values, DEFAULT_TOL)
