"""Each public call checks a tensor's symmetry relations at most once.

``check_symmetries`` is the O(d^5) boundary check of the pipeline; the
internal steps after it trust the tensor it accepted.  ``diagonalize``,
``realify``, ``classify`` and ``limit_tensor`` (for ``Tensor3`` samples, at
every dimension) certify a valid tensor by its fixed points instead and
sweep only a tensor that the certificate rejects.  ``limit_tensor`` builds
the tensor of an ``ObtuseSystem`` sample (an ``ObtuseRV`` included) and
checks it neither way, and ``obtusewalk limit`` samples a system file's
systems as ``ObtuseRV``.
``obtusewalk check --limit`` sweeps only the inner tensor, once.  A
counter wrapped around every module binding of the sweep pins the number of
sweeps per call, and one wrapped around the gate in ``limits`` the number of
gate calls.  The obtuseness gate of a system runs its pair test alone: only
``obtusewalk validate`` computes the three aggregate residuals, counted by a
wrapper around ``validate_obtuse_system``.
"""

import json

import numpy as np
import pytest

import obtusewalk
from obtusewalk import (
    ObtuseRV,
    Tensor3,
    TensorFamily,
    classify,
    cli,
    diagonalize,
    extract_phases,
    limit_tensor,
    limits,
    obtuse,
    random_system,
    realify,
    serialize,
    tensor,
    tensor_of,
    triangularize_system,
)
from obtusewalk.errors import NotDoublySymmetric
from obtusewalk.limits import DEFAULT_STEPS
from conftest import jump_values, to_json


@pytest.fixture
def sweeps(monkeypatch):
    """List that records one entry per ``check_symmetries`` call."""
    calls = []
    original = obtuse.check_symmetries

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in (obtuse, tensor, limits, cli):
        monkeypatch.setattr(module, "check_symmetries", counting)
    return calls


@pytest.fixture
def aggregates(monkeypatch):
    """List that records one entry per ``validate_obtuse_system`` call, the
    only code that computes a system's three aggregate residuals, at every
    module that binds it."""
    calls = []
    original = obtuse.validate_obtuse_system

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in (obtusewalk, obtuse, tensor, limits, serialize, cli):
        if getattr(module, "validate_obtuse_system", None) is original:
            monkeypatch.setattr(module, "validate_obtuse_system", counting)
    return calls


@pytest.fixture
def sample_gates(monkeypatch):
    """List that records each constant-coordinate tensor ``limits`` passes to
    the gate ``tensor._certify_or_sweep``: the samples, not ``classify``'s
    inner tensor."""
    calls = []
    original = limits._certify_or_sweep

    def counting(t, *args, **kwargs):
        if t.has_constant:
            calls.append(t)
        return original(t, *args, **kwargs)

    monkeypatch.setattr(limits, "_certify_or_sweep", counting)
    return calls


def system_doc(values):
    return {"values": [[{"re": z.real, "im": z.imag} for z in row] for row in values]}


@pytest.fixture
def random_tensor():
    return tensor_of(ObtuseRV(random_system(3, np.random.default_rng(7))))


@pytest.fixture
def broken_tensor(random_tensor):
    entries = random_tensor.entries.copy()
    entries[1, 2, 3] += 1e-6
    return Tensor3(entries)


@pytest.mark.parametrize("call", [diagonalize, realify])
def test_valid_tensor_is_not_swept(sweeps, random_tensor, call):
    call(random_tensor)
    assert len(sweeps) == 0


def test_realify_sweeps_once(sweeps, broken_tensor):
    # only a tensor the certificate rejects is swept
    with pytest.raises(NotDoublySymmetric):
        realify(broken_tensor)
    assert len(sweeps) == 1


def test_diagonalize_sweeps_once(sweeps, broken_tensor):
    with pytest.raises(NotDoublySymmetric):
        diagonalize(broken_tensor)
    assert len(sweeps) == 1


@pytest.mark.parametrize("call", [diagonalize, realify])
def test_uncertified_valid_tensor_is_swept_once(sweeps, call):
    # at N = 32 the certificate's bound exceeds 1e-12, the sweep's residuals do not
    valid = tensor_of(ObtuseRV(random_system(32, np.random.default_rng(3))))
    call(valid, tol=1e-12)
    assert len(sweeps) == 1


def test_limit_tensor_sweeps_constant_family_once(sweeps, random_tensor):
    # the d = 4 sample certifies in the gate
    limit_tensor(TensorFamily.constant(random_tensor))
    assert len(sweeps) == 0


def test_classify_does_not_sweep_a_valid_limit(sweeps, random_tensor):
    result = limit_tensor(TensorFamily.constant(random_tensor))
    sweeps.clear()
    classify(result)
    assert len(sweeps) == 0


def test_large_constant_family_is_not_swept(sweeps):
    valid = tensor_of(ObtuseRV(random_system(32, np.random.default_rng(5))))
    classify(limit_tensor(TensorFamily.constant(valid)))
    assert len(sweeps) == 0


def test_broken_large_sample_is_swept_once(sweeps):
    entries = tensor_of(ObtuseRV(random_system(16, np.random.default_rng(5)))).entries.copy()
    entries[1, 2, 3] += 1e-6
    assert len(entries) == 17
    with pytest.raises(NotDoublySymmetric, match="sample at h="):
        limit_tensor(TensorFamily.constant(Tensor3(entries)))
    assert len(sweeps) == 1


@pytest.mark.parametrize("d", [3, 9, 16])
def test_broken_sample_is_swept_once_at_every_dimension(sweeps, sample_gates, d):
    # four steps share a valid sample, which certifies; the broken one is swept
    valid = tensor_of(ObtuseRV(random_system(d - 1, np.random.default_rng(d))))
    entries = valid.entries.copy()
    entries[1, 2, 1] += 1e-6
    samples = [valid] * 5
    samples[2] = Tensor3(entries)
    with pytest.raises(NotDoublySymmetric, match=f"sample at h={DEFAULT_STEPS[2]} "):
        limit_tensor(TensorFamily.from_samples(DEFAULT_STEPS, samples))
    assert [t.dim for t in sweeps] == [d]
    assert len(sample_gates) == 2


def test_obtuse_rv_samples_are_not_checked(sweeps, sample_gates):
    rvs = [ObtuseRV.from_values(jump_values(h)) for h in DEFAULT_STEPS]
    limit_tensor(TensorFamily.from_samples(DEFAULT_STEPS, rvs), tol=1e-7)
    limit_tensor(TensorFamily.constant(rvs[0]))
    assert sweeps == [] and sample_gates == []


def test_cli_limit_on_system_file(sweeps, sample_gates, tmp_path):
    rng = np.random.default_rng(7)
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"system": system_doc(random_system(3, rng).values)}))
    assert cli.main(["limit", str(path), "--out", str(tmp_path / "out.json")]) == 0
    # the validated system's tensor is not checked; the limit tensor certifies
    assert len(sweeps) == 0
    assert len(sample_gates) == 0


def test_cli_limit_on_sampled_family(sweeps, sample_gates, tmp_path):
    doc = {
        "steps": list(DEFAULT_STEPS),
        "systems": [system_doc(jump_values(h)) for h in DEFAULT_STEPS],
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "out.json")
    assert cli.main(["limit", str(path), "--tol", "1e-7", "--out", out]) == 0
    # no check of a validated system's tensor; the limit tensor certifies
    assert len(sweeps) == 0
    assert len(sample_gates) == 0


def test_cli_limit_on_tensor_file_gates_each_sample_once(sweeps, sample_gates, tmp_path):
    tensors = [
        to_json("tensor", tensor_of(ObtuseRV.from_values(jump_values(h)))) for h in DEFAULT_STEPS
    ]
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"steps": list(DEFAULT_STEPS), "tensors": tensors}))
    out = str(tmp_path / "out.json")
    assert cli.main(["limit", str(path), "--tol", "1e-7", "--out", out]) == 0
    # five samples read from five documents: one gate call each, all certified
    assert len(sample_gates) == len(DEFAULT_STEPS)
    assert len(sweeps) == 0


def test_cli_check_limit_sweeps_the_inner_tensor_once(sweeps, random_tensor, tmp_path):
    limit = limit_tensor(TensorFamily.constant(random_tensor)).tensor
    path = tmp_path / "m.json"
    path.write_text(json.dumps(to_json("tensor", limit)))
    sweeps.clear()
    assert cli.main(["check", str(path), "--limit", "--out", str(tmp_path / "out.json")]) == 0
    assert [t.dim for t in sweeps] == [limit.dim - 1]


def test_gates_compute_no_aggregates(aggregates):
    # four obtuseness gates, each on the pair test alone
    values = random_system(4, np.random.default_rng(11)).values
    rv = ObtuseRV.from_values(values)
    realify(tensor_of(rv))
    _, tri = triangularize_system(values)
    extract_phases(tri)
    assert aggregates == []


def test_cli_validate_computes_the_aggregates_once(aggregates, tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system_doc(random_system(3, np.random.default_rng(7)).values)))
    assert cli.main(["validate", str(path), "--out", str(tmp_path / "out.json")]) == 0
    assert len(aggregates) == 1
