"""One guard per kind of input, and every public function that reads one.

Each kind of input the library accepts has one guard: in ``obtuse``, an
array of numbers (``_as_array``), a square matrix, a vector family
(``_as_family``), a probability vector, a time step, an integer (a
coordinate index, a count, a seed), a variable, a tensor and a
constant-coordinate tensor; a limit spec in ``limits`` and a path in
``simulate``.  Every case below is a (public function, malformed input) pair that
must raise one typed ``ObtuseWalkError`` subclass (``FormatError`` for a
JSON document) naming the broken rule; pytest turns a RuntimeWarning on the
way into an error, and the tensor and argument cases any warning.
Empty input that is well formed (dimension 0) gets an answer, not an
untyped numpy error.
"""

import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import obtusewalk
from obtusewalk import (
    ObtuseRV,
    ObtuseSystem,
    Tensor3,
    TensorFamily,
    chain_mult_op,
    check_symmetries,
    classify,
    conj_mult_op,
    diagonalize,
    distribution_compare,
    embed_general,
    empirical_brackets,
    expectation_functional,
    extract_phases,
    is_real_tensor,
    limit_ensemble,
    limit_path,
    limit_tensor,
    mult_op,
    obtuse_fixed_points,
    random_system,
    realify,
    relate_same_probabilities,
    rv_is_centered_normalized,
    serialize,
    system_from_probabilities,
    takagi,
    tensor_from_family,
    tensor_of,
    transform,
    triangularize_system,
    validate_obtuse_system,
    walk_ensemble,
    walk_path,
)
from obtusewalk.cli import main
from obtusewalk.errors import (
    DimensionMismatch,
    MinimalSupport,
    NonPositiveStep,
    NotObtuse,
    ProbabilityMismatch,
)
from obtusewalk.serialize import FormatError
from obtusewalk.limits import DEFAULT_STEPS
from conftest import REFERENCE_VALUES, bernoulli_rv, reference_tensor_entries, to_json

SRC = Path(__file__).resolve().parent.parent / "src" / "obtusewalk"


def embed(values):
    """``embed_general`` of ``values`` into the +-1 variable, atom by atom."""
    return embed_general(values, [0.5, 0.5], bernoulli_rv())


# (values, error, message) per kind of malformed family
ONE_D = (np.array([1.0, -1.0]), DimensionMismatch, "expected a family of vectors")
EMPTY = ([], DimensionMismatch, "expected a family of vectors")
NAN = ([[np.nan], [-1.0]], DimensionMismatch, "vector entries must be finite")
INF = ([[np.inf], [-1.0]], DimensionMismatch, "vector entries must be finite")
SHORT = ([[1.0, 0.0], [0.0, 1.0]], DimensionMismatch, r"need 3 vectors in C\^2, got 2")
NO_ROWS = (np.zeros((0, 0)), DimensionMismatch, r"need 1 vectors in C\^0, got 0")
# |v_0|^2 = 1e320 overflows
OVERFLOW = ([[1e160], [-1e-160]], DimensionMismatch, r"\|v\|\^2 of vector 0 is inf")
ZERO = ([[0.0], [-1.0]], DimensionMismatch, "obtuse systems contain no zero vector")
NOT_NUMBERS = "expected a rectangular array of numbers, got "
RAGGED = ([[1.0, 0.0], [0.0]], DimensionMismatch, NOT_NUMBERS + "list")
STRING = ("x", DimensionMismatch, NOT_NUMBERS + "str")
SYSTEM_CASES = {
    "1-D": ONE_D,
    "empty": EMPTY,
    "nan": NAN,
    "inf": INF,
    "short": SHORT,
    "no-rows": NO_ROWS,
    "overflow": OVERFLOW,
    "zero": ZERO,
    "ragged": RAGGED,
    "string": STRING,
}
# any number of orthogonal vectors is a family, so none is short
FAMILY_ONLY_CASES = {
    "1-D": ONE_D,
    "empty": EMPTY,
    "nan": NAN,
    "inf": INF,
    "overflow": OVERFLOW,
    # orthogonal, but |v|^2 = 1e400 overflows
    "overflow-orthogonal": (
        [[1e200, 0], [0, 1e200]],
        DimensionMismatch,
        r"\|v\|\^2 of vector 0 is inf",
    ),
    "zero": ([[1.0, 0.0], [0.0, 0.0]], DimensionMismatch, r"\|v\|\^2 of vector 1 is 0"),
    # |v|^2 = 1e-320 is positive, but its weight 1/|v|^2 overflows
    "subnormal": ([[1e-160]], DimensionMismatch, "tensor entries must be finite"),
    "ragged": RAGGED,
    "string": STRING,
}
# a general variable may have more than N+1 atoms, and a zero atom
VARIABLE_CASES = {
    "1-D": ONE_D,
    "empty": EMPTY,
    "nan": NAN,
    "inf": INF,
    "short": ([[1.0, 1.0], [-1.0, -1.0]], MinimalSupport, "needs at least 3 atoms"),
    "no-rows": (np.zeros((0, 0)), MinimalSupport, "needs at least 1 atoms"),
    # the covariance overflows: the check fails on a NaN bound, with no warning
    "overflow": ([[1e200], [-1e200]], DimensionMismatch, "not centered normalized"),
    "ragged": RAGGED,
    "string": STRING,
}

FAMILY_CASES = [
    (fn, label, case)
    for fns, cases in (
        ((extract_phases, triangularize_system, validate_obtuse_system), SYSTEM_CASES),
        ((tensor_from_family,), FAMILY_ONLY_CASES),
        ((embed,), VARIABLE_CASES),
    )
    for fn in fns
    for label, case in cases.items()
]


@pytest.mark.parametrize(
    "fn, case",
    [(fn, case) for fn, _, case in FAMILY_CASES],
    ids=[f"{fn.__name__}-{label}" for fn, label, _ in FAMILY_CASES],
)
def test_malformed_family(fn, case):
    values, error, message = case
    with pytest.raises(error, match=message):
        fn(values)


def test_small_members_are_a_family():
    # |v|^2 = 1e-200 is small but a positive float: the family is valid
    tensor = tensor_from_family([[1e-100, 0.0], [0.0, 1.0]])
    assert tensor.entries[0, 0, 0] == pytest.approx(1e-100, rel=1e-15)
    assert tensor.entries[1, 1, 1] == 1.0


STEP_CALLS = {
    "chain_mult_op": lambda h: chain_mult_op(Tensor3(reference_tensor_entries()), 1, 2, h),
    "walk_path": lambda h: walk_path(bernoulli_rv(), h, 1.0),
    "walk_ensemble": lambda h: walk_ensemble(bernoulli_rv(), h, [1.0], 10),
}


@pytest.mark.parametrize("name", sorted(STEP_CALLS))
@pytest.mark.parametrize("h", [0.0, -0.5, np.nan, np.inf, "a"])
def test_malformed_step(name, h):
    # a string is shown as one, so "1" does not read as the number 1
    shown = repr(h) if isinstance(h, str) else h
    message = f"time step must be positive and finite, got {shown}"
    with pytest.raises(NonPositiveStep, match=message):
        STEP_CALLS[name](h)


PROBABILITY_CALLS = {
    "system_from_probabilities": system_from_probabilities,
    "rv_is_centered_normalized": lambda p: rv_is_centered_normalized([[1.0], [-1.0]], p),
}


@pytest.mark.parametrize("name", sorted(PROBABILITY_CALLS))
@pytest.mark.parametrize("p", [[0.5, 0.6], [0.0, 1.0], [-0.5, 1.5], [np.nan, 1.0], [np.inf, 0.5]])
def test_malformed_probabilities(name, p):
    with pytest.raises(DimensionMismatch, match="probabilities must be positive and sum to 1"):
        PROBABILITY_CALLS[name](p)


NOT_INT = "must be a nonnegative integer, got "
NOT_TENSOR = "expected a Tensor3, got ndarray"
NO_CONSTANT = Tensor3(reference_tensor_entries(), has_constant=False)
EMPTY_TENSOR = Tensor3(np.zeros((0, 0, 0)), has_constant=True)

TENSOR_CASES = [
    *[
        (f"{name}-no-constant", call, NO_CONSTANT, "tensor does not carry a constant coordinate")
        for name, call in (
            ("mult_op", lambda t: mult_op(t, 1)),
            ("conj_mult_op", lambda t: conj_mult_op(t, 1)),
            ("realify", realify),
            ("obtuse_fixed_points", obtuse_fixed_points),
        )
    ],
    # dimension 0 has no constant coordinate 0
    *[
        (f"{name}-dimension-0", call, EMPTY_TENSOR, "coordinate 0 out of range for dimension 0")
        for name, call in (
            ("mult_op", lambda t: mult_op(t, 0)),
            ("conj_mult_op", lambda t: conj_mult_op(t, 0)),
            ("realify", realify),
            ("obtuse_fixed_points", obtuse_fixed_points),
            ("transform", lambda t: transform(np.zeros((0, 0)), t)),
        )
    ],
    # a negative coordinate is refused, not read from the end
    *[
        (f"{fn.__name__}-{i}", lambda t, fn=fn, i=i: fn(t, i), None, f"coordinate {i} out of range")
        for fn in (mult_op, conj_mult_op)
        for i in (-1, 3)
    ],
    ("Tensor3-not-a-cube", lambda t: Tensor3(t.entries[:, :, :2]), None, "must be a cube"),
    ("Tensor3.apply-length", lambda t: t.apply(np.ones(2)), None, "a vector of dimension 3"),
    ("transform-shape", lambda t: transform(np.eye(4), t), None, r"unitary of shape \(4, 4\)"),
    ("transform-string", lambda t: transform("x", t), None, NOT_NUMBERS + "str"),
    # swaps e_0 and e_1
    (
        "transform-moves-e0",
        lambda t: transform(np.eye(3)[[1, 0, 2]], t),
        None,
        "unitary must fix the constant coordinate e_0",
    ),
    # a flag or a float is no coordinate, though True == 1 and 1.0 == 1
    *[
        (f"{name}-{i!r}", lambda t, call=call, i=i: call(t, i), None, f"coordinate {NOT_INT}{i!r}")
        for name, call in (
            ("mult_op", mult_op),
            ("conj_mult_op", conj_mult_op),
            (
                "expectation_functional",
                lambda t, i: expectation_functional(
                    ObtuseRV.from_values(REFERENCE_VALUES), [(1.0, ((i, False),))]
                ),
            ),
            ("chain_mult_op", lambda t, i: chain_mult_op(t, i, 2, 0.1)),
        )
        for i in (True, 1.0)
    ],
    (
        "chain_mult_op-1.5-sites",
        lambda t: chain_mult_op(t, 1, 1.5, 0.1),
        None,
        f"number of sites {NOT_INT}1.5",
    ),
    ("chain_mult_op-no-sites", lambda t: chain_mult_op(t, 1, 0, 0.1), None, "at least one site"),
    # an ndarray where a Tensor3 belongs
    *[
        (f"{name}-ndarray", lambda t, call=call: call(t.entries), None, NOT_TENSOR)
        for name, call in (
            ("classify", classify),
            ("diagonalize", diagonalize),
            ("obtuse_fixed_points", obtuse_fixed_points),
            ("realify", realify),
            ("transform", lambda e: transform(np.eye(3), e)),
            ("check_symmetries", check_symmetries),
            ("is_real_tensor", is_real_tensor),
            ("mult_op", lambda e: mult_op(e, 1)),
            ("tensor_doc", serialize.tensor_doc),
            (
                "limit_tensor",
                lambda e: limit_tensor(TensorFamily.from_samples(DEFAULT_STEPS[:3], [e] * 3)),
            ),
        )
    ],
]


@pytest.mark.parametrize(
    "call, tensor, message",
    [case[1:] for case in TENSOR_CASES],
    ids=[case[0] for case in TENSOR_CASES],
)
def test_malformed_tensor_or_coordinate(call, tensor, message):
    tensor = Tensor3(reference_tensor_entries()) if tensor is None else tensor
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch, match=message):
            call(tensor)


def test_empty_tensor_is_real():
    # no entry breaks the symmetry S^{ij}_k = S^{kj}_i
    assert is_real_tensor(EMPTY_TENSOR) is True
    assert is_real_tensor(Tensor3(np.zeros((0, 0, 0)), has_constant=False)) is True


def test_the_guards_still_pass_valid_input():
    plain = ObtuseSystem.from_values(REFERENCE_VALUES)
    rv = ObtuseRV(plain)
    phases, system = extract_phases(triangularize_system(rv.values)[1])
    assert np.allclose(np.abs(phases), 1.0) and system.dim == 2
    assert mult_op(Tensor3(reference_tensor_entries()), 2).shape == (3, 3)
    # a system reads as its variable wherever a variable belongs
    assert np.array_equal(tensor_of(plain).entries, tensor_of(rv).entries)
    assert serialize.dumps(serialize.system_doc(rv)) == serialize.dumps(
        serialize.system_doc(plain)
    )
    # an object array of numbers is numbers
    boxed = ObtuseSystem.from_values(np.array(REFERENCE_VALUES.tolist(), dtype=object))
    assert np.array_equal(boxed.values, plain.values)
    halves = system_from_probabilities(np.array([0.5, np.float64(0.5)], dtype=object))
    assert np.array_equal(halves.probabilities, [0.5, 0.5])


@pytest.mark.parametrize(
    "message",
    [
        "expected a family of vectors",
        "vector entries must be finite",
        "vectors in C^{d}, got",
        "obtuse systems contain no zero vector",
        "|v|^2 of vector",
        "probabilities must be positive and sum to 1",
        "time step must be positive and finite",
        "tensor does not carry a constant coordinate",
        "out of range for dimension",
        "must be a nonnegative integer, got",
        "expected a Tensor3, got",
        "expected a rectangular array of numbers, got",
        "expected a square matrix, got shape",
        "expected an ObtuseRV or ObtuseSystem, got",
        "expected a LimitSpec, got",
        "expected a Path, got",
        "horizon T must be positive, got",
    ],
)
def test_each_rule_is_written_once(message):
    # each guarded rule has one implementation, so its message one source line
    lines = [
        line
        for path in sorted(SRC.glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if message in line
    ]
    assert len(lines) == 1, lines


def reference_spec():
    """The limit of the constant reference family, in C^2."""
    rv = ObtuseRV.from_values(REFERENCE_VALUES)
    return classify(limit_tensor(TensorFamily.constant(rv)))


def one_jump_spec(v, rate):
    """A limit-spec document on C^1 whose one jump is along [v] at ``rate``."""
    return {
        "Lambda": {"entries": [[1.0]]},
        "V": {"entries": [[1.0]]},
        "poisson": [{"v": [v], "intensity": rate}],
    }


NOT_VARIABLE = "expected an ObtuseRV or ObtuseSystem, got ndarray"
NOT_SPEC = "expected a LimitSpec, got ndarray"
VALUES = np.array(REFERENCE_VALUES)

# (call, error, message) per guard on an argument that is no family, step,
# probability vector or tensor
ARGUMENT_CASES = {
    "rv_is_centered_normalized-one-probability": (
        lambda: rv_is_centered_normalized([[1.0], [-1.0]], [1.0]),
        DimensionMismatch,
        "one probability per atom required",
    ),
    "relate_same_probabilities-dimensions": (
        lambda: relate_same_probabilities(bernoulli_rv(), ObtuseRV.from_values(REFERENCE_VALUES)),
        DimensionMismatch,
        "variables live in different dimensions",
    ),
    "embed_general-factor-dimension": (
        lambda: embed_general([[1.0], [-1.0]], [0.5, 0.5], ObtuseRV.from_values(REFERENCE_VALUES)),
        DimensionMismatch,
        r"the obtuse factor must live in C\^1",
    ),
    "embed_general-probabilities": (
        lambda: embed_general([[1.0], [-1.0]], [0.25, 0.75], bernoulli_rv()),
        ProbabilityMismatch,
        "probabilities must match atom by atom",
    ),
    "system_from_probabilities-one": (
        lambda: system_from_probabilities([1.0]),
        DimensionMismatch,
        "need at least two probabilities",
    ),
    "takagi-not-square": (
        lambda: takagi(np.ones((2, 3))),
        DimensionMismatch,
        r"expected a square matrix, got shape \(2, 3\)",
    ),
    # a complex system that is not triangular keeps imaginary parts
    "extract_phases-imaginary": (
        lambda: extract_phases(REFERENCE_VALUES),
        NotObtuse,
        "phases do not make the system real",
    ),
    "empirical_brackets-dimensions": (
        lambda: empirical_brackets(walk_path(bernoulli_rv(), 0.01, 1.0), reference_spec()),
        DimensionMismatch,
        "spec and path dimensions differ",
    ),
    "distribution_compare-grid": (
        lambda: distribution_compare(np.zeros((2, 3, 1)), np.zeros((2, 3, 1)), [0.0, 1.0]),
        DimensionMismatch,
        "ensembles must share the time grid and dimension",
    ),
    "matrix_from_json-no-entries": (
        lambda: serialize.matrix_from_json({}),
        FormatError,
        "matrix must have an 'entries' field",
    ),
    "system_values_from_json-no-values": (
        lambda: serialize.system_values_from_json({}),
        FormatError,
        "system must have a 'values' field",
    ),
    "tensor_from_json-not-a-cube": (
        lambda: serialize.tensor_from_json({"entries": [[[1.0, 2.0]]]}),
        FormatError,
        "tensor entries must be a cube",
    ),
    "tensor_from_json-dim": (
        lambda: serialize.tensor_from_json({"entries": [[[1.0]]], "dim": 2}),
        FormatError,
        "declared dim does not match the entries",
    ),
    "limitspec_from_json-empty": (
        lambda: serialize.limitspec_from_json({}),
        FormatError,
        "limit spec missing required fields",
    ),
    # a jump rate that is not 1/|v|^2 of its direction, on C^1 with v = [v]
    **{
        f"limitspec_from_json-rate-{rate}-direction-{v}": (
            lambda v=v, rate=rate: serialize.limitspec_from_json(one_jump_spec(v, rate)),
            FormatError,
            r"poisson intensities must be 1/\|v\|\^2 of their directions",
        )
        for v, rate in ((1.0, 5.0), (1.0, 0.0), (1.0, math.inf), (0.0, 1.0), (0.0, math.inf))
    },
    "family_from_json-list": (
        lambda: serialize.family_from_json([]),
        FormatError,
        "family must be an object",
    ),
    "family_from_json-empty": (
        lambda: serialize.family_from_json({}),
        FormatError,
        "family needs 'tensors', 'systems' or 'system'",
    ),
    "walk_ensemble-negative-seed": (
        lambda: walk_ensemble(bernoulli_rv(), 0.1, [1.0], 10, seed=-1),
        DimensionMismatch,
        "seed must be a nonnegative integer, got -1",
    ),
    "limit_ensemble-negative-seed": (
        lambda: limit_ensemble(reference_spec(), [1.0], 10, seed=-1),
        DimensionMismatch,
        "seed must be a nonnegative integer, got -1",
    ),
    "walk_path-negative-path-index": (
        lambda: walk_path(bernoulli_rv(), 0.1, 1.0, path_index=-1),
        DimensionMismatch,
        "path index must be a nonnegative integer, got -1",
    ),
    "limit_path-float-seed": (
        lambda: limit_path(reference_spec(), 1.0, 0.1, seed=1.5),
        DimensionMismatch,
        "seed must be a nonnegative integer, got 1.5",
    ),
    # a string where a number belongs
    "walk_path-string-horizon": (
        lambda: walk_path(bernoulli_rv(), 0.01, "1"),
        NonPositiveStep,
        "horizon T must be positive, got '1'",
    ),
    "takagi-string": (lambda: takagi("x"), DimensionMismatch, NOT_NUMBERS + "str"),
    "system_from_probabilities-string": (
        lambda: system_from_probabilities([0.5, "a"]),
        DimensionMismatch,
        NOT_NUMBERS + "list",
    ),
    # text that spells a number is no number
    **{
        f"{name}-numeric-strings": (
            lambda call=call, arg=arg: call(arg),
            DimensionMismatch,
            NOT_NUMBERS + "list",
        )
        for name, call, arg in (
            ("system_from_probabilities", system_from_probabilities, ["0.5", "0.5"]),
            ("ObtuseSystem.from_values", ObtuseSystem.from_values, [["1"], ["-1"]]),
            ("tensor_from_family", tensor_from_family, [["1"], ["-1"]]),
            ("Tensor3", Tensor3, [[["1"]]]),
        )
    },
    # nor inside an object array, whose entries numpy would parse one by one
    **{
        f"{name}-object-strings": (
            lambda call=call, arg=arg: call(np.array(arg, dtype=object)),
            DimensionMismatch,
            NOT_NUMBERS + "ndarray",
        )
        for name, call, arg in (
            ("system_from_probabilities", system_from_probabilities, [0.5, "0.5"]),
            ("ObtuseSystem.from_values", ObtuseSystem.from_values, [[1], [b"-1"]]),
            ("Tensor3", Tensor3, [[["1"]]]),
        )
    },
    # complex probabilities would lose their imaginary parts
    "system_from_probabilities-complex-array": (
        lambda: system_from_probabilities(np.array([0.5, 0.5], dtype=complex)),
        DimensionMismatch,
        NOT_NUMBERS + "ndarray",
    ),
    # an ndarray where a variable, a spec, a path or a matrix belongs
    "ObtuseRV-ndarray": (lambda: ObtuseRV(VALUES), DimensionMismatch, NOT_VARIABLE),
    "tensor_of-ndarray": (lambda: tensor_of(VALUES), DimensionMismatch, NOT_VARIABLE),
    "walk_path-ndarray": (lambda: walk_path(VALUES, 0.1, 1.0), DimensionMismatch, NOT_VARIABLE),
    "walk_ensemble-ndarray": (
        lambda: walk_ensemble(VALUES, 0.1, [1.0], 10),
        DimensionMismatch,
        NOT_VARIABLE,
    ),
    "relate_same_probabilities-ndarray": (
        lambda: relate_same_probabilities(VALUES, ObtuseRV.from_values(REFERENCE_VALUES)),
        DimensionMismatch,
        NOT_VARIABLE,
    ),
    "embed_general-ndarray": (
        lambda: embed_general([[1.0], [-1.0]], [0.5, 0.5], np.array([[1.0], [-1.0]])),
        DimensionMismatch,
        NOT_VARIABLE,
    ),
    "system_doc-ndarray": (lambda: serialize.system_doc(VALUES), DimensionMismatch, NOT_VARIABLE),
    "limit_ensemble-ndarray": (
        lambda: limit_ensemble(VALUES, [1.0], 10),
        DimensionMismatch,
        NOT_SPEC,
    ),
    "limit_path-ndarray": (lambda: limit_path(VALUES, 1.0, 0.1), DimensionMismatch, NOT_SPEC),
    "limitspec_doc-ndarray": (
        lambda: serialize.limitspec_doc(VALUES),
        DimensionMismatch,
        NOT_SPEC,
    ),
    "empirical_brackets-ndarray-path": (
        lambda: empirical_brackets(np.zeros((200, 2)), reference_spec()),
        DimensionMismatch,
        "expected a Path, got ndarray",
    ),
    "empirical_brackets-ndarray-spec": (
        lambda: empirical_brackets(walk_path(bernoulli_rv(), 0.001, 1.0), VALUES),
        DimensionMismatch,
        NOT_SPEC,
    ),
    # a "matrix" document that matrix_from_json would refuse
    "matrix_doc-3-d": (
        lambda: serialize.matrix_doc(np.zeros((2, 2, 2))),
        DimensionMismatch,
        r"expected a square matrix, got shape \(2, 2, 2\)",
    ),
    "matrix_doc-ragged": (
        lambda: serialize.matrix_doc([[1.0, 2.0], [3.0]]),
        DimensionMismatch,
        NOT_NUMBERS + "list",
    ),
    "random_system-float-dimension": (
        lambda: random_system(1.5, np.random.default_rng(0)),
        DimensionMismatch,
        "dimension must be a nonnegative integer, got 1.5",
    ),
    # a flag is no count, though True == 1
    "walk_ensemble-flag-paths": (
        lambda: walk_ensemble(bernoulli_rv(), 0.1, [1.0], True),
        DimensionMismatch,
        "number of paths must be a nonnegative integer, got True",
    ),
}


@pytest.mark.parametrize("name", sorted(ARGUMENT_CASES))
def test_malformed_argument(name):
    call, error, message = ARGUMENT_CASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            call()


@pytest.mark.parametrize("path_index", [None, 3])
def test_numpy_integer_seeds_give_the_draws_of_int_seeds(path_index):
    # the stream key is built once, from whichever integer type the seed has
    if path_index is None:
        draw = lambda seed: walk_ensemble(bernoulli_rv(), 0.1, [1.0], 5, seed=seed)
    else:
        draw = lambda seed: walk_path(bernoulli_rv(), 0.1, 1.0, seed, np.int64(path_index)).values
    assert np.array_equal(draw(np.int64(7)), draw(7))
    assert np.array_equal(draw(np.uint64(2**64 - 1)), draw(2**64 - 1))


def test_a_variable_is_its_system():
    system = ObtuseSystem.from_values(REFERENCE_VALUES)
    rv = ObtuseRV.from_values(REFERENCE_VALUES)
    assert isinstance(ObtuseRV(system), ObtuseSystem) and type(rv) is ObtuseRV
    assert ObtuseRV(system=system).values is system.values
    assert tensor_of(rv).entries.tobytes() == tensor_of(system).entries.tobytes()


def test_no_code_asks_which_of_the_two_it_holds():
    # an ObtuseRV is an ObtuseSystem, so the package never tests for the subclass
    package = Path(obtusewalk.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert len(sources) >= 10
    for source in sources:
        text = source.read_text(encoding="utf-8")
        assert not re.search(r"isinstance\([^)]*ObtuseRV", text), source.name


def test_out_into_a_missing_directory(tmp_path, capsys):
    system = tmp_path / "system.json"
    doc = to_json("system", ObtuseSystem.from_values(REFERENCE_VALUES))
    system.write_text(json.dumps(doc))
    assert main(["tensor", str(system), "--out", str(tmp_path / "missing" / "t.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_transform_of_an_unflagged_dimension_0_tensor():
    empty = Tensor3(np.zeros((0, 0, 0)), has_constant=False)
    assert transform(np.zeros((0, 0)), empty).entries.shape == (0, 0, 0)


def test_a_variable_in_dimension_0_is_centered_normalized():
    assert rv_is_centered_normalized(np.zeros((2, 0)), [0.5, 0.5]) == (True, 0.0, 0.0)


def test_a_variable_in_dimension_0_embeds_as_a_0_by_1_matrix():
    assert embed(np.zeros((2, 0))).shape == (0, 1)
