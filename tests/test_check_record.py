"""The one check record: a report is a tuple of ``Check(name, value, bound, method)``.

``method`` says what a value is: sym0, sym1 and the four Lambda relations
are computed exactly; sym2 and sym3 are the sweep's residuals ("sweep") or
the certificate's upper bound on them ("certificate"), whichever report the
gate kept.  The checks come in the order ``residuals()`` prints them in the
error messages and the CLI reports.
"""

import dataclasses

import numpy as np
import pytest

from obtusewalk import (
    Check,
    ObtuseRV,
    SymmetryReport,
    Tensor3,
    TensorFamily,
    check_limit_symmetries,
    check_symmetries,
    classify,
    diagonalize,
    limit_tensor,
    obtuse_fixed_points,
    random_system,
    realify,
    tensor,
    tensor_from_family,
    tensor_of,
)
from obtusewalk.errors import NotDoublySymmetric
from obtusewalk.limits import DEFAULT_STEPS
from conftest import jump_rv

LAMBDA = dict.fromkeys(("lambda_symmetry", "lambda_unitarity", "exchange", "reduction"), "exact")


def methods(report):
    return {c.name: c.method for c in report.checks}


def products(method, sym0=False):
    """The methods of a tensor report whose sym2 and sym3 were found by ``method``."""
    out = {"sym1": "exact", "sym2": method, "sym3": method}
    return {**out, "sym0": "exact"} if sym0 else out


def random_tensor(n):
    return tensor_of(ObtuseRV(random_system(n, np.random.default_rng(n))))


def jump_limit():
    """The limit of the jump family: one Poisson and one Brownian direction."""
    return limit_tensor(TensorFamily(tensor_at=jump_rv, steps=DEFAULT_STEPS))


def tiny_jump_limit():
    """Lambda = I, a unit jump along e_1 and one of length 1e-9 along e_2.

    The tensor is doubly symmetric, so the sweep reads 0, but the kernel takes
    the tiny jump for a null direction, so its certificate misses it by 1e-9.
    """
    entries = np.zeros((3, 3, 3), dtype=complex)
    entries[1:, 1:, 0] = np.eye(2)
    entries[1, 1, 1] = 1.0
    entries[2, 2, 2] = 1e-9
    return Tensor3(entries)


@pytest.fixture
def tensor_gate(monkeypatch):
    """List that records the report of each gate call of ``diagonalize`` and ``realify``."""
    reports = []
    original = tensor._certify_or_sweep

    def recording(*args, **kwargs):
        out = original(*args, **kwargs)
        reports.append(out[1])
        return out

    monkeypatch.setattr(tensor, "_certify_or_sweep", recording)
    return reports


def test_report_is_one_tuple_of_checks():
    assert [f.name for f in dataclasses.fields(SymmetryReport)] == ["checks"]
    assert Check._fields == ("name", "value", "bound", "method")
    report = check_symmetries(random_tensor(2))
    assert all(isinstance(c, Check) for c in report.checks)
    assert report.residuals() == {c.name: c.value for c in report.checks}


@pytest.mark.parametrize("n", [1, 2, 8])
def test_valid_gate_reports_are_certified(tensor_gate, n):
    t = random_tensor(n)
    diagonalize(t)
    realify(t)
    want = [products("certificate"), products("certificate", sym0=True)]
    assert [methods(r) for r in tensor_gate] == want
    assert all(r.ok for r in tensor_gate)


def test_valid_limit_structure_is_certified(gate_sweeps):
    spec = classify(jump_limit(), tol=1e-7)
    assert spec.n_poisson == 1 and gate_sweeps == []
    assert methods(spec.structure) == {**products("certificate"), **LAMBDA}
    assert spec.structure.ok


def test_checks_sweep():
    t = random_tensor(2)
    assert methods(check_symmetries(t)) == products("sweep", sym0=True)
    assert methods(check_symmetries(Tensor3(t.entries, has_constant=False))) == products("sweep")
    assert methods(check_limit_symmetries(jump_limit())) == {**products("sweep"), **LAMBDA}


def test_rejected_certificate_leaves_the_sweep(gate_sweeps):
    spec = classify(tiny_jump_limit())
    assert len(gate_sweeps) == 1
    assert methods(spec.structure) == {**products("sweep"), **LAMBDA}
    r = spec.structure.residuals()
    assert spec.structure.ok and r["sym2"] == r["sym3"] == 0.0


def test_residuals_keep_their_order():
    t = random_tensor(2)
    assert list(check_symmetries(t).residuals()) == ["sym1", "sym2", "sym3", "sym0"]
    unflagged = Tensor3(t.entries, has_constant=False)
    assert list(check_symmetries(unflagged).residuals()) == ["sym1", "sym2", "sym3"]
    assert list(check_limit_symmetries(jump_limit()).residuals()) == [
        "sym1",
        "sym2",
        "sym3",
        "lambda_symmetry",
        "lambda_unitarity",
        "exchange",
        "reduction",
    ]


def test_sym0_message():
    # a flagged delta tensor is doubly symmetric and breaks S^{i0}_k = delta_ik
    t = tensor_from_family(np.eye(3), has_constant=True)
    residuals = "{'sym1': 0.0, 'sym2': 0.0, 'sym3': 0.0, 'sym0': 1.0}"
    for call in (obtuse_fixed_points, realify):
        with pytest.raises(NotDoublySymmetric) as err:
            call(t)
        assert str(err.value) == f"tensor fails symmetry relations: {residuals}"
    samples = [Tensor3(t.entries.copy()) for _ in range(3)]
    with pytest.raises(NotDoublySymmetric) as err:
        limit_tensor(TensorFamily.from_samples(DEFAULT_STEPS[:3], samples))
    assert str(err.value) == f"sample at h=0.1 violates tensor symmetries: {residuals}"
