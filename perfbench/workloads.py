"""The four benchmark workloads: seeded inputs, the timed op, the checks.

Each workload turns ``(seed, rounds, sizes)`` into a flat list of ``Op``.
An op's ``run`` is the only code that is timed; it calls the public API of
``obtusewalk`` on inputs generated here.  ``summarize`` reduces the op's
output to what the check needs (it runs right after the op, outside the
timing, so large outputs are not kept), and ``check`` returns ``None`` when
the summary is correct or a one-line reason when it is not.

``sizes`` maps a size class to the number of ops of that class in one round;
a run is ``rounds`` rounds, shuffled into one op list by the seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import obtusewalk as ow
from obtusewalk import cli, limits, multop, serialize
from obtusewalk.limits import LimitSpec


@dataclass
class Op:
    """One timed operation of a workload and how to check its output."""

    kind: str
    inputs: object  # what the seed generated for this op, handed to ``run``
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    summarize: Callable[[object], object] = lambda out: out
    info: dict = field(default_factory=dict)  # reported with a failure


# ---------------------------------------------------------------------------
# algebra: one random system through the whole tensor algebra
# ---------------------------------------------------------------------------

ALGEBRA_SIZES = {"N2": 19, "N8": 8, "N32": 1}


def _algebra_run(values):
    def run():
        rv = ow.ObtuseRV.from_values(values)
        tensor = ow.tensor_of(rv)
        report = ow.check_symmetries(tensor)
        real = ow.realify(tensor)
        _, tri = ow.triangularize_system(values)
        _, tri_real = ow.extract_phases(tri)
        u, sigma = ow.relate_same_probabilities(
            ow.ObtuseRV(real.real_system), ow.ObtuseRV(tri_real)
        )
        return rv.probabilities, report, real, tri_real, u, sigma

    return run


def _algebra_check(out):
    probs, report, real, tri_real, u, sigma = out
    if not report.ok:
        return f"tensor fails its symmetries: {report.residuals()}"
    if not ow.is_real_tensor(real.real_tensor):
        return "realified tensor fails the real criterion"
    want = np.sort(probs)
    for name, system in (("realify", real.real_system), ("triangular", tri_real)):
        if np.max(np.abs(np.sort(system.probabilities) - want)) > 1e-9:
            return f"{name} route changed the probabilities"
    n = u.shape[0]
    if np.max(np.abs(u.conj().T @ u - np.eye(n))) > 1e-8:
        return "relating unitary is not unitary"
    moved = real.real_system.values @ u.T - tri_real.values[sigma]
    if np.max(np.abs(moved)) > 1e-8:
        return "relating unitary does not map the systems onto each other"
    return None


def algebra(rng, rounds, sizes=ALGEBRA_SIZES, workdir=None):
    ops = []
    for kind, count in sizes.items():
        n = int(kind[1:])
        for _ in range(count * rounds):
            values = ow.random_system(n, rng).values
            ops.append(Op(kind, values, _algebra_run(values), _algebra_check))
    return ops


# ---------------------------------------------------------------------------
# limit-cli: the ``limit`` subcommand on family files
# ---------------------------------------------------------------------------

# the closed-form N=2 jump family of tests/conftest.py and its limit
def jump_values(h):
    sh = np.sqrt(h)
    return np.array(
        [
            np.array([1j, 1]) / np.sqrt(2),
            np.array([1 - 1j * sh, 1j - sh]) / np.sqrt(2 * h),
            -np.array([2 * sh + 1j, 1 + 2j * sh]) / np.sqrt(2),
        ],
        dtype=complex,
    )


JUMP_LAMBDA = np.array([[0, 1j], [1j, 0]], dtype=complex)
JUMP_INTENSITY = 1.0

LIMIT_SIZES = {
    "closed-N2": 9,
    "scaled-N2": 10,
    "scaled-N4": 4,
    "scaled-N8": 2,
    "const-N8": 2,
    "scaled-N16": 1,
    "const-N16": 5,
    "const-N32": 1,
}

# range of c, drawn log-uniformly, and the sampled steps of the scaled
# families.  On DEFAULT_STEPS, or with larger c, some families raise
# NoApparentLimit or InconsistentCount or get a wrong direction count; see
# "Known defects" in perfbench/README.md.
SCALED_C = (2.5e-4, 5e-4)
SCALED_STEPS = tuple(0.01 * 4.0**-k for k in range(5))


def _real_system(p):
    """Canonical real obtuse system with probabilities p, smooth in p.

    The rows of an orthogonal matrix whose first column is sqrt(p), divided
    by sqrt(p_i), without their first coordinate.  The other columns come
    from Gram-Schmidt (twice) on e_1, e_2, ..., which is continuous in p;
    Householder QR can flip a column's sign from one step h to the next,
    and then the family has no limit.
    """
    n = len(p)
    cols = [np.sqrt(p)]
    for k in range(1, n):
        v = np.eye(n)[k]
        for _ in range(2):
            for q in cols:
                v = v - np.dot(q, v) * q
        cols.append(v / np.linalg.norm(v))
    return (np.column_stack(cols) / np.sqrt(p)[:, None])[:, 1:]


def scaled_family(n, k, c, rng, steps=SCALED_STEPS):
    """Systems whose first k atoms have probability c*h, and their Lambda.

    In the limit the k light atoms become Poisson directions of intensity
    exactly c and the other n-k directions are Brownian.  The real system
    is rotated by a random diagonal phase unitary u, which makes it complex
    and gives Lambda = u u^T.
    """
    rest = rng.dirichlet(np.full(n + 1 - k, 5.0))
    phases = np.exp(2j * np.pi * rng.random(n))
    systems = []
    for h in steps:
        p = np.concatenate([np.full(k, c * h), (1.0 - k * c * h) * rest])
        systems.append((_real_system(p) * phases[None, :], p))
    return systems, np.diag(phases**2)


def _system_doc(values, probs=None):
    doc = {"dim": int(values.shape[1]), "values": [serialize.vector_to_json(v) for v in values]}
    if probs is not None:
        doc["probabilities"] = [float(p) for p in probs]
    return doc


def _limit_family(kind, rng):
    """Family document and expected classification of one size class."""
    family, n = kind.split("-N")
    n = int(n)
    if family == "const":
        system = ow.random_system(n, rng)
        v, p = system.values, system.probabilities
        doc = {"system": _system_doc(v, p)}
        lam = np.einsum("m,mi,mj->ij", p, v, v)
        return doc, {"K": 0, "N": n, "c": None, "Lambda": lam}
    if family == "closed":
        steps = limits.DEFAULT_STEPS
        systems = [(jump_values(h), None) for h in steps]
        expect = {"K": 1, "N": 2, "c": JUMP_INTENSITY, "Lambda": JUMP_LAMBDA}
    else:
        steps = SCALED_STEPS
        k = int(rng.integers(1, n // 2 + 1))
        c = float(np.exp(rng.uniform(*np.log(SCALED_C))))
        systems, lam = scaled_family(n, k, c, rng, steps)
        expect = {"K": k, "N": n, "c": c, "Lambda": lam}
    doc = {"steps": list(steps), "systems": [_system_doc(v, p) for v, p in systems]}
    return doc, expect


def _limit_summary(out_path):
    def summarize(rc):
        if rc != 0:
            return {"rc": rc}
        with open(out_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return {
            "rc": rc,
            "n_poisson": len(doc["poisson"]),
            "n_brownian": len(doc["brownian"]),
            "intensities": [p["intensity"] for p in doc["poisson"]],
            "Lambda": serialize.matrix_from_json(doc["Lambda"]),
        }

    return summarize


def _limit_check(expect):
    def check(s):
        if s["rc"] != 0:
            return f"limit exited with code {s['rc']}"
        k, n = expect["K"], expect["N"]
        if s["n_poisson"] != k or s["n_brownian"] != n - k:
            return (
                f"{s['n_poisson']} Poisson + {s['n_brownian']} Brownian "
                f"directions, expected {k} + {n - k} "
                f"(intensities {s['intensities']})"
            )
        if k and np.max(np.abs(np.array(s["intensities"]) / expect["c"] - 1)) > 1e-6:
            return f"intensities {s['intensities']} != {expect['c']}"
        if np.max(np.abs(s["Lambda"] - expect["Lambda"])) > 1e-6:
            return "Lambda differs from the known matrix"
        return None

    return check


def limit_op(kind, doc, expect, workdir, index):
    """Op running ``obtusewalk limit`` on ``doc``, written to a family file."""
    path = os.path.join(workdir, f"family-{index}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    out_path = os.path.join(workdir, "limit-out.json")
    argv = ["limit", path, "--out", out_path]
    return Op(
        kind,
        doc,
        lambda: cli.main(argv),
        _limit_check(expect),
        _limit_summary(out_path),
        info={"K": expect["K"], "c": expect["c"]},
    )


def limit_cli(rng, rounds, sizes=LIMIT_SIZES, workdir="."):
    ops = []
    for kind, count in sizes.items():
        for _ in range(count * rounds):
            doc, expect = _limit_family(kind, rng)
            ops.append(limit_op(kind, doc, expect, workdir, len(ops)))
    return ops


# ---------------------------------------------------------------------------
# walk-limit: walk ensembles against their limit martingales
# ---------------------------------------------------------------------------

# size class "<spec>@<h>" runs at walk step h; "const-N8" alternates h
WALK_SIZES = {
    "hand-N1@0.01": 8,
    "hand-N1@0.001": 1,
    "jump-N2@0.01": 2,
    "jump-N2@0.001": 2,
    "const-N8": 1,
}
WALK_STEPS = (1e-2, 1e-3)
WALK_GRID = np.linspace(0.1, 1.0, 10)
WALK_PATHS = 10_000
PATH_PAIRS = 2
HAND_INTENSITY = 1e3
# a check fails when a moment distance exceeds this many standard errors of
# the difference; the distances are maxima over up to 10 * 8 * 8 entries, so
# a correct program exceeds it with probability about 1e-6
SE_MULTIPLE = 6.0


def hand_spec():
    """One real compensated-Poisson direction of intensity HAND_INTENSITY."""
    v = np.array([1.0 / np.sqrt(HAND_INTENSITY)], dtype=complex)
    return LimitSpec(
        dim=1,
        tensor=ow.Tensor3(v.reshape(1, 1, 1), has_constant=False),
        lambda_matrix=np.eye(1, dtype=complex),
        v_matrix=np.eye(1, dtype=complex),
        poisson_dirs=v[None, :],
        intensities=np.array([HAND_INTENSITY]),
        brownian_basis=np.zeros((0, 1), dtype=complex),
    )


def hand_walk(h):
    """Two-point walk whose up-jump is the hand spec's jump."""
    p = HAND_INTENSITY * h / (1.0 + HAND_INTENSITY * h)
    return ow.ObtuseRV(ow.system_from_probabilities([p, 1.0 - p]))


def walk_specs(kind, count, rng):
    """``count`` (walk at step h, classified limit spec) pairs of one class.

    Specs are classified here, in setup; each const op gets its own random
    system, because the cost of multinomial sampling depends on the
    probabilities.
    """
    if kind == "hand-N1":
        return [(hand_walk, hand_spec())] * count
    if kind == "jump-N2":
        steps = limits.DEFAULT_STEPS
        family = limits.TensorFamily.from_samples(
            steps, [ow.tensor_of(ow.ObtuseRV.from_values(jump_values(h))) for h in steps]
        )
        spec = ow.classify(ow.limit_tensor(family))
        return [(lambda h: ow.ObtuseRV.from_values(jump_values(h)), spec)] * count
    n = int(kind.split("-N")[1])
    pairs = []
    for _ in range(count):
        rv = ow.ObtuseRV(ow.random_system(n, rng))
        spec = ow.classify(ow.limit_tensor(ow.TensorFamily.constant(ow.tensor_of(rv))))
        pairs.append((lambda h, rv=rv: rv, spec))
    return pairs


def _walk_run(rv, spec, h, seed):
    def run():
        w = ow.walk_ensemble(rv, h, WALK_GRID, WALK_PATHS, seed=seed)
        lim = ow.limit_ensemble(spec, WALK_GRID, WALK_PATHS, seed=seed + 1)
        report = ow.distribution_compare(w, lim, WALK_GRID)
        for k in range(PATH_PAIRS):
            ow.empirical_brackets(ow.walk_path(rv, h, 1.0, seed=seed, path_index=k))
            lp = ow.limit_path(spec, 1.0, h, seed=seed, path_index=k)
            ow.empirical_brackets(lp, spec)
        return report, w, lim

    return run


def _moment_se(w, lim):
    """Max standard error of the four moment families' differences.

    The variance of a complex per-path quantity a is E|a|^2 - |E a|^2; for
    the products of two coordinates E|z_i z_j|^2 = E[|z_i|^2 |z_j|^2], so
    nothing of shape (paths, times, N, N) is built.
    """
    var = np.zeros(4)
    for z in (w, lim):
        n = len(z)
        a2 = np.abs(z) ** 2
        a2a2 = np.einsum("pti,ptj->tij", a2, a2) / n
        cov_conj = np.einsum("pti,ptj->tij", np.conj(z), z) / n
        cov_plain = np.einsum("pti,ptj->tij", z, z) / n
        var = var + np.array([
            np.max(a2.mean(0) - np.abs(z.mean(0)) ** 2),
            np.max(a2a2 - np.abs(cov_conj) ** 2),
            np.max(a2a2 - np.abs(cov_plain) ** 2),
            np.max((a2**4).mean(0) - ((a2**2).mean(0)) ** 2),
        ]) / n
    return list(np.sqrt(var))


def _walk_summary(out):
    report, w, lim = out
    distances = [
        report.mean_distance,
        report.cov_conj_distance,
        report.cov_plain_distance,
        report.abs4_distance,
    ]
    return distances, _moment_se(w, lim)


def _walk_check(s):
    distances, ses = s
    for name, d, se in zip(("mean", "cov_conj", "cov_plain", "abs4"), distances, ses):
        if d > SE_MULTIPLE * se:
            return f"{name} distance {d:.3g} exceeds {SE_MULTIPLE} SE ({se:.3g})"
    return None


def walk_limit(rng, rounds, sizes=WALK_SIZES, workdir=None):
    ops = []
    for kind, count in sizes.items():
        spec_kind, _, step = kind.partition("@")
        for r, (walk_at, spec) in enumerate(walk_specs(spec_kind, count * rounds, rng)):
            h = float(step) if step else WALK_STEPS[r % len(WALK_STEPS)]
            seed = int(rng.integers(2**31))
            rv = walk_at(h)
            ops.append(
                Op(
                    kind,
                    (rv.values, spec, h, seed),
                    _walk_run(rv, spec, h, seed),
                    _walk_check,
                    _walk_summary,
                )
            )
    return ops


# ---------------------------------------------------------------------------
# chain: dense multiplication operators on chains of sites
# ---------------------------------------------------------------------------

REFERENCE_VALUES = np.array(
    [[1j, 1], [1, -1 + 1j], [-(3 + 4j) / 5, -(1 + 3j) / 5]], dtype=complex
)
CHAIN_SIZES = {"d5n3": 18, "d3n5": 7, "d5n4": 3, "d3n6": 3, "d3n7": 1}
CHAIN_H = 0.01
# sum of coefficient * product of (index, conjugated) coordinates
POLYNOMIAL = [
    (1.0, [(1, False), (1, True)]),
    (0.5 - 0.25j, [(1, False), (2, False)]),
    (2.0, [(2, True), (1, False), (2, False)]),
    (-1.0, [(1, True), (1, True), (2, False), (1, False)]),
]


class ChainOracle:
    """direct_chain_mult_op applied to a probe, once per (tensor, i, n)."""

    def __init__(self, probes):
        self.probes = probes
        self.cache = {}

    def apply(self, rv, key, i, n):
        if (key, i, n) not in self.cache:
            op = multop.direct_chain_mult_op(rv, i, n, CHAIN_H)
            self.cache[key, i, n] = op.matrix @ self.probes[rv.dim + 1, n]
        return self.cache[key, i, n]


def _unit_vector(rng, size):
    z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return z / np.linalg.norm(z)


def _chain_run(rv, tensor, n, psi):
    def run():
        ops = [ow.chain_mult_op(tensor, i, n, CHAIN_H) for i in range(tensor.dim)]
        y = ops[1].matrix @ psi
        e = ow.expectation_functional(rv, POLYNOMIAL)
        return ops, y, e

    return run


def _chain_summary(oracle, d, n):
    def summarize(out):
        ops, _, e = out
        z = oracle.probes[d, n]
        return {
            "images": [op.matrix @ z for op in ops],
            "e": e,
            "matrix_bytes": sum(op.matrix.nbytes for op in ops),
        }

    return summarize


def _chain_check(oracle, rv, key, n):
    def check(s):
        z = oracle.probes[rv.dim + 1, n]
        tol = 1e-10 * n * max(1.0, float(np.max(np.abs(rv.values))))
        if np.max(np.abs(s["images"][0] - n * CHAIN_H * z)) > tol:
            return "coordinate 0 operator is not n*h*I"
        for i, image in enumerate(s["images"]):
            if np.max(np.abs(image - oracle.apply(rv, key, i, n))) > tol:
                return f"operator {i} differs from direct_chain_mult_op"
        if abs(s["e"] - multop.direct_expectation(rv, POLYNOMIAL)) > 1e-10:
            return "expectation_functional differs from direct_expectation"
        return None

    return check


def chain(rng, rounds, sizes=CHAIN_SIZES, workdir=None):
    rvs = {
        3: ("reference", ow.ObtuseRV.from_values(REFERENCE_VALUES)),
        5: ("random-N4", ow.ObtuseRV(ow.random_system(4, rng))),
    }
    tensors = {d: ow.tensor_of(rv) for d, (_, rv) in rvs.items()}
    shapes = [(int(kind[1]), int(kind[3:])) for kind in sizes]
    oracle = ChainOracle({(d, n): _unit_vector(rng, d**n) for d, n in shapes})
    ops = []
    for kind, count in sizes.items():
        d, n = int(kind[1]), int(kind[3:])
        key, rv = rvs[d]
        for _ in range(count * rounds):
            psi = _unit_vector(rng, d**n)
            ops.append(
                Op(
                    kind,
                    (key, n, psi),
                    _chain_run(rv, tensors[d], n, psi),
                    _chain_check(oracle, rv, key, n),
                    _chain_summary(oracle, d, n),
                )
            )
    return ops


WORKLOADS = {
    "algebra": algebra,
    "limit-cli": limit_cli,
    "walk-limit": walk_limit,
    "chain": chain,
}
