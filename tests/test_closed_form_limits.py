"""Round trips of the limit theorem on families whose limit is known in closed form.

``conftest.closed_form_family`` builds, from a symmetric unitary Lambda, a
real rotation O and intensities c_1..c_K, a sampled family whose limit has
exactly that Lambda, those intensities and jump directions derived in its
docstring.  Lambda is dense and the rotation is not a phase, so the tensor
entries reach 1e4 and the relative tolerances carry the checks.  The
regression cases are valid families that a shrink-ratio extrapolation gate
or absolute tolerances reject.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from obtusewalk import TensorFamily, classify, limit_tensor, serialize, tensor_of
from obtusewalk.cli import main
from obtusewalk.limits import DEFAULT_STEPS
from conftest import (
    SCALED_STEPS,
    closed_form_corpus,
    greedy_match,
    sampled_family,
    scaled_family,
)
from test_limits import assert_same_as_table

DATA = Path(__file__).parent / "data"


def family_doc(steps, systems):
    return {
        "steps": list(steps),
        "systems": [{"values": [serialize.vector_to_json(v) for v in s]} for s in systems],
    }


def run_cli(tmp_path, doc):
    f = tmp_path / "family.json"
    f.write_text(json.dumps(doc))
    out = tmp_path / "limit.json"
    assert main(["limit", str(f), "--out", str(out)]) == 0
    return serialize.limitspec_from_json(json.loads(out.read_text()))


def assert_limit(spec, lam, c, dirs=None):
    n, k = len(lam), len(c)
    assert (spec.n_poisson, spec.n_brownian) == (k, n - k)
    assert np.max(np.abs(spec.lambda_matrix - lam)) <= 1e-12
    np.testing.assert_allclose(np.sort(spec.intensities), np.sort(c), rtol=1e-9)
    if dirs is not None:
        assert greedy_match(spec.poisson_dirs, dirs) <= 1e-9 * np.max(np.abs(dirs))


class TestCorpus:
    def test_library(self):
        for n, lam, c, systems, dirs in closed_form_corpus():
            result = limit_tensor(sampled_family(SCALED_STEPS, systems))
            assert_limit(classify(result), lam, c, dirs)
            # the entries converge like h^{1/2}, as the sqrt(h) expansion says
            assert 0.48 <= result.worst_order <= 0.52, (n, result.worst_order)

    def test_cli(self, tmp_path):
        for n, lam, c, systems, dirs in closed_form_corpus():
            spec = run_cli(tmp_path, family_doc(SCALED_STEPS, systems))
            assert_limit(spec, lam, c, dirs)


@pytest.mark.parametrize("name", ["limit-cli-seed42-op65", "limit-cli-seed30-op71"])
def test_benchmark_families(tmp_path, name):
    # scaled families of the benchmark's limit-cli mix (op 65 of seed 42 and
    # op 71 of seed 30, in generation order) whose entry sequences grow
    # before they shrink
    case = json.loads((DATA / f"{name}.json").read_text())
    expect = case["expect"]
    lam = serialize.matrix_from_json(expect["Lambda"])
    spec = run_cli(tmp_path, case["family"])
    assert (spec.n_poisson, spec.n_brownian) == (expect["K"], len(lam) - expect["K"])
    np.testing.assert_allclose(spec.intensities, expect["c"], rtol=1e-6)
    assert np.max(np.abs(spec.lambda_matrix - lam)) <= 1e-6


# (c, seed) of N = 2, K = 1 families on DEFAULT_STEPS whose first differences
# do not shrink (seeds 1, 7, 27), or whose extrapolation noise makes a second
# fixed point of |v|^2 ~ 1e-13, null once the null rule counts that noise (seed 6)
KNOWN_DEFECTS = [(0.01 * m, 1) for m in range(1, 10)] + [
    (0.01 * m, 6) for m in range(5, 10)
] + [(0.08, 27), (0.09, 7), (0.09, 27)]


@pytest.mark.parametrize("c, seed", KNOWN_DEFECTS)
def test_known_defect_families(c, seed):
    systems, lam = scaled_family(2, 1, c, np.random.default_rng([seed]), DEFAULT_STEPS)
    spec = classify(limit_tensor(sampled_family(DEFAULT_STEPS, systems)))
    assert (spec.n_poisson, spec.n_brownian) == (1, 1)
    np.testing.assert_allclose(spec.intensities, [c], rtol=1e-6)
    assert np.max(np.abs(spec.lambda_matrix - lam)) <= 1e-6


def decision_families():
    """The corpus, the known defects and the benchmark families, as tensors."""
    for n, lam, c, systems, dirs in closed_form_corpus():
        yield sampled_family(SCALED_STEPS, systems)
    for c, seed in KNOWN_DEFECTS:
        systems, _ = scaled_family(2, 1, c, np.random.default_rng([seed]), DEFAULT_STEPS)
        yield sampled_family(DEFAULT_STEPS, systems)
    for name in ("limit-cli-seed42-op65", "limit-cli-seed30-op71"):
        doc = json.loads((DATA / f"{name}.json").read_text())["family"]
        family = serialize.family_from_json(doc)
        yield TensorFamily.from_samples(family.steps, map(tensor_of, family.sample()))


def test_same_decisions_as_the_table():
    # fixed weights decide every family as the per-entry Neville table does;
    # limit-cli-seed42-op65 has two entries whose orders tie to an ulp
    for family in decision_families():
        assert assert_same_as_table(family, ties_ok=True) is None
