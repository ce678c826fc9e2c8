"""Self-tests of the benchmark: tracing, determinism and tiny smoke runs.

    python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import pickle

import numpy as np
import pytest

import obtusewalk
import run
import tracing
import workloads
from obtusewalk import cli, limits

TINY = {
    "algebra": {"N2": 1, "N8": 1},
    "limit-cli": {"closed-N2": 1, "scaled-N2": 1, "scaled-N4": 1, "const-N8": 1},
    "walk-limit": {"hand-N1@0.01": 1, "jump-N2@0.001": 1, "const-N8": 1},
    "chain": {"d5n3": 1, "d3n5": 1},
}


def tiny_ops(name, seed, workdir):
    rng = np.random.default_rng([seed, 0])
    return workloads.WORKLOADS[name](rng, 1, sizes=TINY[name], workdir=str(workdir))


def test_wrappers_cover_listed_functions():
    names = set(tracing.layer_functions().values())
    assert set(run.TRACED_FUNCTIONS) <= names
    originals = {name: fn for fn, name in tracing.layer_functions().items()}
    with tracing.Tracer():
        for name in run.TRACED_FUNCTIONS:
            layer, fn = name.split(".")
            module = importlib.import_module(f"obtusewalk.{layer}")
            assert getattr(module, fn) is not originals[name]
            if hasattr(obtusewalk, fn):
                assert getattr(obtusewalk, fn) is not originals[name]
        # a module that imported the function binds the wrapper too
        assert limits.check_symmetries is not originals["obtuse.check_symmetries"]
    for name in run.TRACED_FUNCTIONS:
        layer, fn = name.split(".")
        module = importlib.import_module(f"obtusewalk.{layer}")
        assert getattr(module, fn) is originals[name]


def _ancestors(spans, idx):
    names = []
    while spans[idx][3] >= 0:
        idx = spans[idx][3]
        names.append(spans[idx][0])
    return names


def test_nested_spans_are_children(workdir):
    rv = obtusewalk.ObtuseRV(obtusewalk.random_system(3, np.random.default_rng(0)))
    tensor = obtusewalk.tensor_of(rv)
    path = workdir / "family.json"
    path.write_text(json.dumps({"system": workloads._system_doc(rv.values)}))
    with tracing.Tracer() as tracer:
        obtusewalk.realify(tensor)
        assert cli.main(["limit", str(path), "--out", str(workdir / "out.json")]) == 0
    spans = tracer.spans
    chains = [[s[0]] + _ancestors(spans, k) for k, s in enumerate(spans)]
    assert [
        "obtuse.check_symmetries",
        "tensor.diagonalize",
        "tensor.obtuse_fixed_points",
        "tensor.realify",
    ] in chains
    assert ["limits.limit_tensor", "cli.cmd_limit", "cli.main"] in chains
    assert all(s[2] >= s[1] for s in spans)


def test_self_times_sum_to_at_most_op_wall(workdir):
    ops = tiny_ops("algebra", 3, workdir) + tiny_ops("limit-cli", 3, workdir)
    tracer = tracing.Tracer()
    latencies, traced, outputs = run.measure(ops, tracer)
    assert run.check_all(ops, outputs) == []
    by_name, by_op = tracing.aggregate(tracer.spans)
    assert set(by_op) == set(range(len(ops)))
    for k, wall in enumerate(traced):
        assert 0.0 <= by_op[k] <= wall
    assert all(own >= 0.0 for own in tracing.self_times(tracer.spans))
    metrics, units = run.per_layer(tracer, ops, outputs, latencies, traced)
    assert set(metrics) == set(units)
    assert metrics["cli.main.calls_per_op"] > 0


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_same_inputs(name, workdir):
    first = pickle.dumps([op.inputs for op in tiny_ops(name, 7, workdir)])
    again = pickle.dumps([op.inputs for op in tiny_ops(name, 7, workdir)])
    other = pickle.dumps([op.inputs for op in tiny_ops(name, 8, workdir)])
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_smoke_run(name, workdir):
    ops = tiny_ops(name, 1, workdir)
    latencies, traced, outputs = run.measure(ops)
    assert len(latencies) == len(ops) and traced == []
    assert run.check_all(ops, outputs) == []


def test_limit_check_catches_the_known_defect(workdir):
    """N=2, K=1, c=0.059: the seed code reports a second, spurious Poisson
    direction with |v|^2 ~ 1e-17 and no Brownian one; the check must count
    that (or any other wrong answer) as a failure."""
    steps = limits.DEFAULT_STEPS
    systems, lam = workloads.scaled_family(2, 1, 0.059, np.random.default_rng([2]), steps)
    doc = {"steps": list(steps), "systems": [workloads._system_doc(v, p) for v, p in systems]}
    expect = {"K": 1, "N": 2, "c": 0.059, "Lambda": lam}
    op = workloads.limit_op("scaled-N2", doc, expect, str(workdir), 0)
    summary = op.summarize(op.run())
    reason = op.check(summary)
    if summary["rc"] != 0 or (summary["n_poisson"], summary["n_brownian"]) != (1, 1):
        assert reason is not None
    good = dict(summary, rc=0, n_poisson=1, n_brownian=1, intensities=[0.059], Lambda=lam)
    assert op.check(good) is None
    spurious = dict(good, n_poisson=2, n_brownian=0, intensities=[5.9e16, 0.059])
    assert "2 Poisson + 0 Brownian" in op.check(spurious)


def test_tail_has_at_least_ten_ops_beyond():
    assert run.tail(list(range(100))) == (89, 90, 10)
    assert run.tail(list(range(99))) == (74, 75, 24)
    assert run.tail(list(range(250))) == (237, 95, 12)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50, 1)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = run.per_layer_units(tracing.LAYERS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
