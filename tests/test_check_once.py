"""Each public call sweeps a tensor's symmetry relations at most once.

``check_symmetries`` is the O(d^5) boundary check of the pipeline; the
internal steps after it trust the tensor it accepted.  ``diagonalize``,
``realify``, ``classify`` and ``limit_tensor`` (for samples of dimension
``limits._CERTIFY_MIN_DIM`` or more) certify a valid tensor by its fixed
points instead and sweep only a tensor that the certificate rejects.
``obtusewalk check --limit`` sweeps only the inner tensor, once.  A
counter wrapped around every module binding of the sweep pins the number of
sweeps per call.
"""

import json

import numpy as np
import pytest

from obtusewalk import (
    ObtuseRV,
    Tensor3,
    TensorFamily,
    classify,
    cli,
    diagonalize,
    limit_tensor,
    limits,
    obtuse,
    random_system,
    realify,
    serialize,
    tensor,
    tensor_of,
)
from obtusewalk.errors import NotDoublySymmetric
from obtusewalk.limits import DEFAULT_STEPS
from conftest import jump_values


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
    limit_tensor(TensorFamily.constant(random_tensor))
    assert len(sweeps) == 1


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
    assert len(entries) >= limits._CERTIFY_MIN_DIM
    with pytest.raises(NotDoublySymmetric, match="sample at h="):
        limit_tensor(TensorFamily.constant(Tensor3(entries)))
    assert len(sweeps) == 1


def test_cli_limit_on_system_file(sweeps, tmp_path):
    rng = np.random.default_rng(7)
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"system": system_doc(random_system(3, rng).values)}))
    assert cli.main(["limit", str(path), "--out", str(tmp_path / "out.json")]) == 0
    # one sweep of the shared sample (d = 4 is below the certificate's
    # crossover); the limit tensor certifies
    assert len(sweeps) == 1


def test_cli_limit_on_sampled_family(sweeps, tmp_path):
    doc = {
        "steps": list(DEFAULT_STEPS),
        "systems": [system_doc(jump_values(h)) for h in DEFAULT_STEPS],
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "out.json")
    assert cli.main(["limit", str(path), "--tol", "1e-7", "--out", out]) == 0
    # one sweep per distinct sample; the limit tensor certifies
    assert len(sweeps) == len(DEFAULT_STEPS)


def test_cli_check_limit_sweeps_the_inner_tensor_once(sweeps, random_tensor, tmp_path):
    limit = limit_tensor(TensorFamily.constant(random_tensor)).tensor
    path = tmp_path / "m.json"
    path.write_text(json.dumps(serialize.tensor_to_json(limit)))
    sweeps.clear()
    assert cli.main(["check", str(path), "--limit", "--out", str(tmp_path / "out.json")]) == 0
    assert [t.dim for t in sweeps] == [limit.dim - 1]
