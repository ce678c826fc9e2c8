"""Rescaling, limit extraction, structure relations, classification."""

import json
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from obtusewalk import (
    ObtuseRV,
    ObtuseSystem,
    SymmetryReport,
    Tensor3,
    TensorFamily,
    chain_mult_op,
    check_limit_symmetries,
    classify,
    diagonalize,
    limit_tensor,
    mult_op,
    random_system,
    tensor_of,
    transform,
    walk_path,
)
from obtusewalk import limits, obtuse, serialize
from obtusewalk.cli import main
from obtusewalk.errors import (
    ChainTooLarge,
    DimensionMismatch,
    NoApparentLimit,
    NonPositiveStep,
    NotDoublySymmetric,
    PathTooLarge,
    StructureViolation,
    TooLarge,
)
from obtusewalk.obtuse import haar_unitary
from obtusewalk.limits import (
    _EXTRAPOLATION_TOL,
    _STREAM_BLOCKS,
    DEFAULT_STEPS,
    _real_complement,
)
from conftest import (
    JUMP_LAMBDA,
    JUMP_M1,
    JUMP_M2,
    JUMP_POISSON_DIR,
    REFERENCE_LAMBDA,
    SCALED_STEPS,
    bernoulli_rv,
    greedy_match,
    jump_rv,
    jump_values,
    ok_before,
    rescale_tensor,
    sampled_family,
    scaled_family,
    to_json,
)


def jump_family():
    return TensorFamily(
        tensor_at=lambda h: tensor_of(jump_rv(h)), steps=DEFAULT_STEPS
    )


def oscillating_family(reference_tensor):
    """Valid tensors rotated by an angle oscillating in h: no limit."""

    def tensor_at(h):
        theta = np.sin(1.0 / h)
        return transform(np.diag([np.exp(1j * theta), 1.0]), reference_tensor)

    return TensorFamily(tensor_at=tensor_at, steps=DEFAULT_STEPS)


def scalar_orders(diffs, steps, bound):
    """Observed order of each entry from the moduli ``(a, b)`` of its last two
    differences: log(max(a, bound) / b) / log(h_{n-1} / h_n) if b > bound,
    else inf."""
    log_ratio = math.log(steps[-2] / steps[-1])
    return {
        entry: math.log(max(a, bound) / b) / log_ratio if b > bound else math.inf
        for entry, (a, b) in diffs.items()
    }


def worst_order(orders):
    """The smallest order and the first entry at it, or (inf, None)."""
    entry = min(orders, key=orders.get)
    return (orders[entry], entry) if orders[entry] < math.inf else (math.inf, None)


def loop_limit(family):
    """Per-entry reference for ``limit_tensor``: one Neville table on the
    nodes sqrt(h), error gate and observed order per entry, in (i, j, k)
    order, the orders from the three finest samples (``scalar_orders``).

    Returns ``(entries, worst_order, worst_entry, noise)``; raises
    ``NoApparentLimit`` with its order at the first entry whose error
    estimate fails.
    """
    x = np.sqrt(np.array(family.steps))
    stack = np.stack([s.entries for s in family.sample()])
    d = stack.shape[1]
    entries = np.zeros((d, d, d), dtype=complex)
    errors, diffs = {}, {}
    for i in range(1, d):
        for j in range(1, d):
            for k in range(d):
                seq = stack[:, i, j, k] if k == 0 else x * stack[:, i, j, k]
                diffs[i, j, k] = abs(seq[-2] - seq[-3]), abs(seq[-1] - seq[-2])
                table = seq
                for level in range(1, len(seq)):
                    q = x[level:] / x[:-level]
                    finer = table[-1]
                    table = (table[1:] - q * table[:-1]) / (1.0 - q)
                entries[i, j, k] = table[0]
                errors[i, j, k] = abs(table[0] - finer)
    bound = _EXTRAPOLATION_TOL * max(1.0, float(np.max(np.abs(entries))))
    orders = scalar_orders(diffs, family.steps, bound)
    for entry, error in errors.items():
        if not error <= bound:
            raise NoApparentLimit("no trend", entry=entry, order=orders[entry])
    return (entries, *worst_order(orders), max(errors.values()))


def rounding_bound(family):
    """Per-entry bound on how far two evaluations of the limit sum_s w_s seq_s
    of the sequences over i, j >= 1 may round apart: 2 (n + 1) eps
    sum_s |w_s| max_s |seq_s|, w_s the Lagrange weights at x = 0 of the n
    nodes x = sqrt(h) (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., 3.1)."""
    x = np.sqrt(np.array(family.steps))
    seqs = np.stack([s.entries[1:, 1:, :] for s in family.sample()])
    seqs[..., 1:] *= x[:, None, None, None]
    weights = [math.prod(t / (t - s) for t in x if t != s) for s in x]
    size = np.max(np.abs(seqs), axis=0)
    return 2 * (len(x) + 1) * np.finfo(float).eps * sum(map(abs, weights)) * size


def assert_same_as_table(family, ties_ok=False):
    """``limit_tensor`` against ``loop_limit``: the same ``NoApparentLimit``
    entry and order, or the same worst entry and order and, to rounding
    (``rounding_bound``), the same entries and noise.  With ``ties_ok`` a
    different worst entry passes if the oracle gives it the worst order to
    1e-12.  Returns the oracle's ``NoApparentLimit``, or None."""
    try:
        expected = loop_limit(family)
    except NoApparentLimit as exc:
        with pytest.raises(NoApparentLimit) as got:
            limit_tensor(family)
        assert got.value.entry == exc.entry
        assert abs(got.value.order - exc.order) <= 1e-12
        return exc
    result = limit_tensor(family)
    bound = rounding_bound(family)
    got, want = result.tensor.entries, expected[0]
    assert np.all(np.abs(got[1:, 1:, :] - want[1:, 1:, :]) <= bound)
    forced = np.ones(got.shape, dtype=bool)
    forced[1:, 1:, :] = False
    assert not np.any(got[forced]) and not np.any(want[forced])
    assert abs(result.noise - expected[3]) <= np.max(bound)
    assert abs(result.worst_order - expected[1]) <= 1e-12
    if not ties_ok:
        assert result.worst_entry == expected[2]
    elif result.worst_entry != expected[2]:
        # np.log of an array and math.log of a scalar may round apart by an
        # ulp, and so break an exact tie of two entries' orders the other way
        assert abs(entry_order(family, result.worst_entry, want) - expected[1]) <= 1e-12
    return None


def entry_order(family, entry, limit):
    """``loop_limit``'s observed order of one entry, whose table gave ``limit``."""
    i, j, k = entry
    x = np.sqrt(np.array(family.steps))
    seq = np.array([s.entries[i, j, k] for s in family.sample()]) * (x if k else 1.0)
    diffs = {entry: (abs(seq[-2] - seq[-3]), abs(seq[-1] - seq[-2]))}
    bound = _EXTRAPOLATION_TOL * max(1.0, float(np.max(np.abs(limit))))
    return scalar_orders(diffs, family.steps, bound)[entry]


def exact_constant_limit(tensor, steps):
    """Closed-form reference for a family with every sample ``tensor``.

    Lambda is S^{ij}_0 and M is 0 exactly, with no noise.  The orders are
    ``loop_limit``'s rule, entry by entry, on the exact differences
    (x_{n-2} - x_{n-1}) |S^{ij}_k| and (x_{n-1} - x_n) |S^{ij}_k| of the
    sequences x S^{ij}_k, x = sqrt(h); the sequences S^{ij}_0 do not move.
    Returns what ``loop_limit`` returns.
    """
    s = tensor.entries
    x = np.sqrt(np.array(steps))
    d = len(s)
    entries = np.zeros((d, d, d), dtype=complex)
    diffs = {}
    for i in range(1, d):
        for j in range(1, d):
            entries[i, j, 0] = s[i, j, 0]
            for k in range(d):
                size = abs(s[i, j, k]) if k else 0.0
                diffs[i, j, k] = (x[-3] - x[-2]) * size, (x[-2] - x[-1]) * size
    bound = _EXTRAPOLATION_TOL * max(1.0, float(np.max(np.abs(entries))))
    return (entries, *worst_order(scalar_orders(diffs, steps, bound)), 0.0)


def light_family(n, steps, seed, light=None, rotate=None):
    """``scaled_family`` with one light atom, c = 3e-4; ``rotate(values, index, h)``
    changes the values of sample ``index``."""
    systems, _ = scaled_family(n, 1, 3e-4, np.random.default_rng(seed), steps, light)
    if rotate is not None:
        systems = [rotate(v, i, h) for i, (v, h) in enumerate(zip(systems, steps))]
    return sampled_family(steps, systems)


def flip_first(values, index, h):
    """Coordinate 0 of the values times (-1)^index: valid samples, no limit."""
    return values * np.where(np.arange(values.shape[1]) == 0, (-1.0) ** index, 1.0)


def brownian_limit_tensor(n):
    """Limit tensor with zero inner part and Lambda = I."""
    entries = np.zeros((n + 1, n + 1, n + 1), dtype=complex)
    entries[:, 0, :] = np.eye(n + 1)
    entries[0, :, :] = np.eye(n + 1)
    entries[1:, 1:, 0] = np.eye(n)
    return Tensor3(entries, has_constant=True)


class TestRescale:
    def test_exponent_classes(self, reference_tensor):
        h = 0.25
        scaled = rescale_tensor(reference_tensor, h)
        s = reference_tensor.entries
        # constant-coordinate rows get a full factor h
        np.testing.assert_allclose(
            scaled.entries[0, :, :], h * s[0, :, :], atol=1e-14
        )
        # inner entries with lower index 0 keep their size
        np.testing.assert_allclose(
            scaled.entries[1:, 1:, 0], s[1:, 1:, 0], atol=1e-14
        )
        # fully inner entries scale with sqrt(h)
        np.testing.assert_allclose(
            scaled.entries[1:, 1:, 1:], np.sqrt(h) * s[1:, 1:, 1:], atol=1e-14
        )

    def test_exponent_table_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            dim = int(rng.integers(1, 5))
            tensor = tensor_of(ObtuseRV(random_system(dim, rng)))
            h = float(rng.uniform(0.01, 0.9))
            scaled = rescale_tensor(tensor, h)
            eps = np.full(dim + 1, 0.5)
            eps[0] = 1.0
            for i in range(dim + 1):
                for j in range(dim + 1):
                    for k in range(dim + 1):
                        expected = h ** (eps[i] + eps[j] - eps[k]) * tensor.entries[i, j, k]
                        assert abs(scaled.entries[i, j, k] - expected) <= 1e-12

    def test_rejects_bad_step(self, reference_tensor):
        with pytest.raises(NonPositiveStep):
            rescale_tensor(reference_tensor, 0.0)

    def test_limit_tensor_applies_these_exponents(self, reference_tensor):
        # S^{ij}_0 has exponent 0, so Lambda is each rescaled sample's, exactly
        result = limit_tensor(TensorFamily.constant(reference_tensor))
        for h in DEFAULT_STEPS:
            scaled = rescale_tensor(reference_tensor, h).entries
            assert np.array_equal(result.lambda_matrix, scaled[1:, 1:, 0])


class TestLimitTensor:
    def test_constant_family_is_exact(self, reference_tensor):
        result = limit_tensor(TensorFamily.constant(reference_tensor))
        assert np.max(np.abs(result.tensor.entries[1:, 1:, 1:])) <= 1e-10
        np.testing.assert_allclose(result.lambda_matrix, REFERENCE_LAMBDA, atol=1e-10)
        # forced-zero blocks
        assert np.max(np.abs(result.tensor.entries[0, :, :])) == 0.0
        assert np.max(np.abs(result.tensor.entries[:, 0, :])) == 0.0

    def test_limit_carries_no_constant_coordinate(self, reference_tensor):
        # the rescaled S^{0j}_k = h delta_jk vanish: coordinate 0 of a limit is
        # time, where Lambda sits, not X^0 = 1, so mult_op(limit, 0) is no identity
        result = limit_tensor(TensorFamily.constant(reference_tensor))
        assert result.tensor.has_constant is False
        assert serialize.tensor_doc(result.tensor)["constant_index"] is False
        with pytest.raises(DimensionMismatch, match="does not carry a constant coordinate"):
            mult_op(result.tensor, 0)
        # the limit commands read the layout, not the flag
        flagged = Tensor3(result.tensor.entries, has_constant=True)
        assert check_limit_symmetries(flagged) == check_limit_symmetries(result)

    def test_jump_family_matches_known_limits(self):
        result = limit_tensor(jump_family())
        m = result.tensor.entries
        np.testing.assert_allclose(m[1:, 1, 1:], JUMP_M1, atol=1e-6)
        np.testing.assert_allclose(m[1:, 2, 1:], JUMP_M2, atol=1e-6)
        np.testing.assert_allclose(result.lambda_matrix, JUMP_LAMBDA, atol=1e-6)

    @pytest.mark.parametrize("n", [2, 8, 16])
    def test_obtuse_rv_family_matches_its_tensor_family(self, n):
        systems, _ = scaled_family(n, 1, 3e-4, np.random.default_rng(n), SCALED_STEPS)
        rvs = [ObtuseRV.from_values(v) for v in systems]
        tensors = [tensor_of(rv) for rv in rvs]
        for make in (
            lambda samples: TensorFamily.constant(samples[0], SCALED_STEPS),
            lambda samples: TensorFamily.from_samples(SCALED_STEPS, samples),
        ):
            got, want = limit_tensor(make(rvs)), limit_tensor(make(tensors))
            assert got.tensor.entries.tobytes() == want.tensor.entries.tobytes()
            assert got.lambda_matrix.tobytes() == want.lambda_matrix.tobytes()
            assert (got.worst_order, got.worst_entry) == (want.worst_order, want.worst_entry)
            assert got.noise == want.noise

    def test_no_apparent_limit(self, reference_tensor):
        # rotating by an angle oscillating in h keeps every sample a valid
        # tensor but destroys the limit
        with pytest.raises(NoApparentLimit) as exc:
            limit_tensor(oscillating_family(reference_tensor))
        # the first failing entry in (i, j, k) order
        assert exc.value.entry == (1, 1, 0)

    def test_worst_order_reports_converging_entries(self):
        # the entries have a sqrt(h) expansion: they converge like h^{1/2}
        result = limit_tensor(jump_family())
        assert 0.48 <= result.worst_order <= 0.52
        i, j, k = result.worst_entry
        d = result.tensor.dim
        assert 1 <= i < d and 1 <= j < d and 0 <= k < d

    @pytest.mark.parametrize(
        "steps", [DEFAULT_STEPS, SCALED_STEPS], ids=["DEFAULT_STEPS", "SCALED_STEPS"]
    )
    def test_constant_family_worst_order_is_one_half(self, reference_tensor, steps):
        # sqrt(h) S^{ij}_k with S fixed goes to 0 exactly like h^{1/2}
        result = limit_tensor(TensorFamily.constant(reference_tensor, steps=steps))
        assert abs(result.worst_order - 0.5) <= 1e-12

    @pytest.mark.parametrize("kind", ["constant", "jump", "rotated-jump", "oscillating"])
    def test_matches_per_entry_loop(self, reference_tensor, kind):
        rng = np.random.default_rng(11)
        if kind == "constant":
            tensor = tensor_of(ObtuseRV(random_system(3, rng)))
            family = TensorFamily.constant(tensor)
        elif kind == "jump":
            family = jump_family()
        elif kind == "rotated-jump":
            u = haar_unitary(2, rng)
            family = TensorFamily(
                tensor_at=lambda h: transform(u, tensor_of(jump_rv(h))),
                steps=DEFAULT_STEPS,
            )
        else:
            family = oscillating_family(reference_tensor)
        if kind == "constant":
            # a constant family's oracle is its closed form, not the table
            expected = exact_constant_limit(tensor, family.steps)
            result = limit_tensor(family)
            assert np.array_equal(result.tensor.entries, expected[0])
            assert (result.worst_entry, result.noise) == (expected[2], expected[3])
            assert abs(result.worst_order - expected[1]) <= 1e-12
        else:
            failure = assert_same_as_table(family)
            assert (failure is not None) == (kind == "oscillating")

    @pytest.mark.parametrize("repeat", [(0, 1), (1, 3), (0, 2, 4)])
    def test_repeated_sample_takes_the_weights_of_its_steps(self, reference_tensor, repeat):
        # one object at several steps is built once and weighted by each of
        # them; the other steps hold equal copies, so the limit exists
        tensors = [Tensor3(reference_tensor.entries.copy()) for _ in DEFAULT_STEPS]
        for i in repeat:
            tensors[i] = tensors[repeat[0]]
        assert assert_same_as_table(TensorFamily.from_samples(DEFAULT_STEPS, tensors)) is None

    @pytest.mark.parametrize("steps", [DEFAULT_STEPS, SCALED_STEPS])
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_alternating_sign_has_no_limit(self, n, steps):
        # the entries with an odd number of indices 1 alternate in sign and
        # go to 0, while a Richardson table without a gate returns 0.1 to 0.4
        with pytest.raises(NoApparentLimit) as exc:
            limit_tensor(light_family(n, steps, seed=n, rotate=flip_first))
        assert exc.value.entry[:2].count(1) + (exc.value.entry[2] == 1) in (1, 3)
        assert "({},{},{})".format(*exc.value.entry) in str(exc.value)

    @pytest.mark.parametrize(
        "light, rotate, order",
        [
            (lambda h: 3e-4 * h * h, None, -0.5),  # sqrt(h) S diverges like h^{-1/2}
            (lambda h: 3e-4 * np.sqrt(h), None, 0.25),  # sqrt(h) S goes like h^{1/4}
            # a phase e^{i log h} turns at the same speed at every scale: order 0
            (lambda h: 3e-4 * h, lambda v, i, h: v * np.exp(1j * np.log(h)), 0.0),
        ],
        ids=["c-h2", "c-sqrt-h", "log-phase"],
    )
    def test_families_without_sqrt_h_expansion_have_no_limit(self, light, rotate, order):
        for n in (2, 4, 8):
            for steps in (DEFAULT_STEPS, SCALED_STEPS):
                family = light_family(n, steps, seed=1, light=light, rotate=rotate)
                with pytest.raises(NoApparentLimit) as exc:
                    limit_tensor(family)
                assert abs(exc.value.order - order) <= 0.01, (n, steps[0], exc.value.order)
                # rounded, + 0.0: an order just below zero prints as h^0.00
                shown = round(exc.value.order, 2) + 0.0
                assert f"observed order h^{shown:.2f}" in str(exc.value)
                if order == 0.0:
                    assert str(exc.value).endswith("observed order h^0.00")

    @pytest.mark.parametrize(
        "steps",
        [(0.01, 0.004, 0.001, 0.0005, 0.0001), (0.01, 0.009, 0.002, 0.0019, 0.0001)],
    )
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_non_geometric_grid(self, n, steps):
        systems, lam = scaled_family(n, 1, 3e-4, np.random.default_rng(n), steps)
        spec = classify(limit_tensor(sampled_family(steps, systems)))
        assert (spec.n_poisson, spec.n_brownian) == (1, n - 1)
        np.testing.assert_allclose(spec.intensities, [3e-4], rtol=1e-9)
        # nodes 0.009 / 0.01 apart amplify rounding by 1 / (1 - q) ~ 20
        assert np.max(np.abs(spec.lambda_matrix - lam)) <= 1e-12

    def test_steps_with_one_square_root_are_rejected(self, reference_tensor, tmp_path, capsys):
        # 0.1 and the float below it have the same square root: one node twice
        steps = (0.1, 0.09999999999999999, 0.01)
        assert steps[1] == np.nextafter(0.1, 0.0) and np.sqrt(steps[0]) == np.sqrt(steps[1])
        systems = [jump_values(h) for h in steps]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPositiveStep, match="0.09999999999999999"):
                TensorFamily.constant(reference_tensor, steps=steps)
            with pytest.raises(NonPositiveStep, match="0.09999999999999999"):
                TensorFamily(tensor_at=lambda h: tensor_of(jump_rv(h)), steps=steps)
            doc = {
                "steps": list(steps),
                "systems": [{"values": [serialize.vector_to_json(v) for v in s]} for s in systems],
            }
            (tmp_path / "family.json").write_text(json.dumps(doc))
            assert main(["limit", str(tmp_path / "family.json")]) == 1
        assert "NonPositiveStep" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_steps(self, reference_tensor, bad):
        for steps in ((0.1, bad, 0.01), (bad, 0.1, 0.01), (0.1, 0.01, bad)):
            with pytest.raises(NonPositiveStep):
                TensorFamily.constant(reference_tensor, steps=steps)
        with pytest.raises(NonPositiveStep):
            rescale_tensor(reference_tensor, bad)

    @pytest.mark.parametrize("n_tensors", [3, 5])
    def test_from_samples_rejects_mismatched_lengths(self, reference_tensor, n_tensors):
        with pytest.raises(DimensionMismatch, match=f"4 sample steps but {n_tensors}"):
            TensorFamily.from_samples(DEFAULT_STEPS[:4], [reference_tensor] * n_tensors)

    def test_needs_three_samples(self, reference_tensor):
        with pytest.raises(Exception):
            TensorFamily.constant(reference_tensor, steps=(0.1, 0.01))


def perturbed_tensor(n):
    """A tensor in C^n with one entry off: it fails sym1."""
    entries = tensor_of(ObtuseRV(random_system(n, np.random.default_rng(n)))).entries.copy()
    entries[1, 2, 1] += 1e-3
    return Tensor3(entries)


class TestConstantClosedForm:
    """A family whose samples are one object has its limit in closed form."""

    @pytest.fixture
    def table_calls(self, monkeypatch):
        calls = []

        def spy(x):
            calls.append(x.shape)
            return weights(x)

        weights = limits._weights
        monkeypatch.setattr(limits, "_weights", spy)
        return calls

    @pytest.mark.parametrize("n", [2, 8, 16])
    @pytest.mark.parametrize("make", ["constant", "repeated"])
    def test_lambda_is_the_sample_and_m_is_zero(self, table_calls, n, make):
        t = tensor_of(ObtuseRV(random_system(n, np.random.default_rng(n))))
        if make == "constant":
            family = TensorFamily.constant(t)
        else:
            family = TensorFamily.from_samples(DEFAULT_STEPS, [t] * 5)
        result = limit_tensor(family)
        assert table_calls == []
        assert np.array_equal(result.lambda_matrix, t.entries[1:, 1:, 0])
        assert np.array_equal(result.tensor.entries[1:, 1:, 0], t.entries[1:, 1:, 0])
        # M and the forced-zero blocks are exactly 0
        rest = result.tensor.entries.copy()
        rest[1:, 1:, 0] = 0.0
        assert not np.any(rest)
        assert result.noise == 0.0
        assert abs(result.worst_order - 0.5) <= 1e-12

    @pytest.mark.parametrize("n", [2, 8, 16])
    def test_separately_parsed_samples_run_the_table(self, table_calls, n):
        # equal tensors read from five documents are five objects: no closed form
        t = tensor_of(ObtuseRV(random_system(n, np.random.default_rng(n))))
        doc = {"steps": list(DEFAULT_STEPS), "tensors": [to_json("tensor", t)] * 5}
        table = limit_tensor(serialize.family_from_json(json.loads(json.dumps(doc))))
        assert len(table_calls) == 1
        exact = limit_tensor(TensorFamily.constant(t))
        assert np.max(np.abs(table.tensor.entries - exact.tensor.entries)) <= 1e-15
        assert np.max(np.abs(table.lambda_matrix - exact.lambda_matrix)) <= 1e-15
        assert table.noise <= 1e-15

    @pytest.mark.parametrize("make", ["constant", "from_samples"])
    def test_systems_are_samples_like_their_variables(self, make):
        # a plain ObtuseSystem is a family sample, with the bits of its ObtuseRV
        def family(sample):
            if make == "constant":
                return TensorFamily.constant(sample(random_system(2, np.random.default_rng(2))))
            systems = [ObtuseSystem.from_values(jump_values(h)) for h in DEFAULT_STEPS]
            return TensorFamily.from_samples(DEFAULT_STEPS, map(sample, systems))

        by_system = limit_tensor(family(lambda s: s), tol=1e-7)
        by_rv = limit_tensor(family(ObtuseRV), tol=1e-7)
        assert by_system.tensor.entries.tobytes() == by_rv.tensor.entries.tobytes()
        assert by_system.lambda_matrix.tobytes() == by_rv.lambda_matrix.tobytes()
        assert (by_system.noise, by_system.worst_order, by_system.worst_entry) == (
            by_rv.noise,
            by_rv.worst_order,
            by_rv.worst_entry,
        )

    def test_inner_tensor_is_a_dimension_mismatch(self, reference_tensor):
        inner = Tensor3(reference_tensor.entries, has_constant=False)
        with pytest.raises(DimensionMismatch, match="tensor does not carry a constant coordinate"):
            limit_tensor(TensorFamily.constant(inner))

    @pytest.mark.parametrize("n", [2, 9, 16])
    def test_asymmetric_sample_is_rejected(self, n):
        # the gate rejects the sample at every dimension
        with pytest.raises(NotDoublySymmetric, match="violates tensor symmetries"):
            limit_tensor(TensorFamily.constant(perturbed_tensor(n)))

    def test_budget_comes_before_the_sample_check(self, monkeypatch):
        monkeypatch.setattr(obtuse, "MEMORY_BYTES", constant_model(9) - 1)
        with pytest.raises(TooLarge):
            limit_tensor(TensorFamily.constant(perturbed_tensor(9)))

    @pytest.mark.parametrize("steps", [(0.1, 0.1, 0.01), (0.1, 0.01, 0.0), (0.1, 0.01, -1.0)])
    def test_bad_steps(self, reference_tensor, steps):
        with pytest.raises(NonPositiveStep):
            limit_tensor(TensorFamily.constant(reference_tensor, steps=steps))
        with pytest.raises(NonPositiveStep):
            TensorFamily.from_samples(steps, [reference_tensor] * len(steps))


class TestLimitSymmetries:
    def test_constant_family_limit_passes(self, reference_tensor):
        result = limit_tensor(TensorFamily.constant(reference_tensor))
        report = check_limit_symmetries(result, tol=1e-10)
        assert report.ok

    def test_jump_family_limit_passes(self):
        report = check_limit_symmetries(limit_tensor(jump_family()), tol=1e-10)
        assert report.ok
        assert max(report.residuals().values()) <= 1e-10

    def test_perturbed_lambda_flagged(self):
        result = limit_tensor(jump_family())
        entries = result.tensor.entries.copy()
        entries[1, 1, 0] += 0.05
        report = check_limit_symmetries(Tensor3(entries, has_constant=True))
        assert report.residuals()["lambda_unitarity"] > 0.05 / 2
        assert not report.ok

    def test_one_dimensional_limit_tensor_raises(self):
        tensor = Tensor3(np.ones((1, 1, 1)), has_constant=True)
        with pytest.raises(DimensionMismatch):
            check_limit_symmetries(tensor)

    @pytest.mark.parametrize(
        "field",
        ["sym1", "sym2", "sym3", "lambda_symmetry", "lambda_unitarity", "exchange", "reduction"],
    )
    def test_nan_residual_fails(self, field):
        # overflowed sweep products give NaN; it fails among passing checks
        result = limit_tensor(jump_family())
        passing = check_limit_symmetries(result)
        assert passing.ok
        nan = float("nan")
        checks = tuple(c._replace(value=nan) if c.name == field else c for c in passing.checks)
        report = SymmetryReport(checks)
        assert field in report.residuals() and "sym0" not in report.residuals()
        assert not report.ok
        assert not ok_before(report, obtuse.DEFAULT_TOL, result.tensor.entries[1:, 1:, 1:])


class TestClassify:
    def test_diffusion_only_family(self, reference_tensor):
        spec = classify(limit_tensor(TensorFamily.constant(reference_tensor)))
        assert spec.n_poisson == 0
        assert spec.n_brownian == 2
        assert np.max(np.abs(spec.v_matrix @ spec.v_matrix.T - REFERENCE_LAMBDA)) <= 1e-9
        assert np.max(np.abs(spec.v_matrix.conj().T @ spec.v_matrix - np.eye(2))) <= 1e-12

    def test_jump_family(self):
        spec = classify(limit_tensor(jump_family()), tol=1e-7)
        assert spec.n_poisson == 1 and spec.n_brownian == 1
        assert np.max(np.abs(spec.poisson_dirs[0] - JUMP_POISSON_DIR)) <= 1e-8
        assert spec.intensities[0] == pytest.approx(1.0, abs=1e-8)
        direction = spec.brownian_basis[0]
        # proportional to (i, 1)
        assert abs(direction[1]) > 0.1
        np.testing.assert_allclose(
            direction / direction[1], [1j, 1.0], atol=1e-7
        )

    def test_pure_brownian(self):
        spec = classify(brownian_limit_tensor(3))
        assert spec.n_poisson == 0 and spec.n_brownian == 3
        np.testing.assert_allclose(spec.v_matrix, np.eye(3), atol=1e-12)

    def test_poisson_dirs_agree_with_diagonalize(self):
        result = limit_tensor(jump_family())
        spec = classify(result, tol=1e-7)
        recovered = diagonalize(spec.tensor, tol=1e-7)
        assert greedy_match(spec.poisson_dirs, recovered.vectors) <= 1e-9

    def test_each_poisson_dir_is_fixed_point(self):
        spec = classify(limit_tensor(jump_family()), tol=1e-7)
        for v in spec.poisson_dirs:
            assert (
                np.max(np.abs(spec.tensor.apply(v) - np.outer(v, v))) <= 1e-8
            )

    def test_rejects_structure_violation(self):
        entries = np.zeros((3, 3, 3), dtype=complex)
        entries[:, 0, :] = np.eye(3)
        entries[0, :, :] = np.eye(3)
        entries[1:, 1:, 0] = np.diag([1.0, 0.5])  # not unitary
        with pytest.raises(StructureViolation):
            classify(Tensor3(entries, has_constant=True))

    def test_brownian_basis_orthogonality(self):
        spec = classify(limit_tensor(jump_family()), tol=1e-7)
        # jump directions and Brownian basis stay orthogonal in the real sense
        for b in spec.brownian_basis:
            for v in spec.poisson_dirs:
                assert abs(np.real(np.vdot(b, v))) <= 1e-7
        gram = spec.brownian_basis @ spec.brownian_basis.conj().T
        np.testing.assert_allclose(gram, np.eye(spec.n_brownian), atol=1e-9)

    @pytest.mark.parametrize(
        "n, k, c, rng",
        [
            # sym2 ~ 1.8e-9 passes the structure gate; a second, tighter gate
            # on sym1-sym3 used to reject it
            (4, 2, 0.05, np.random.default_rng(0)),
            # an extrapolation-noise direction with |v|^2 ~ 3.5e-17 sits
            # below the eigensolver's resolution and is null
            (2, 1, 0.059, np.random.default_rng([2])),
        ],
    )
    def test_scaled_family(self, n, k, c, rng):
        systems, lam = scaled_family(n, k, c, rng, DEFAULT_STEPS)
        spec = classify(limit_tensor(sampled_family(DEFAULT_STEPS, systems)))
        assert (spec.n_poisson, spec.n_brownian) == (k, n - k)
        np.testing.assert_allclose(spec.intensities, np.full(k, c), rtol=1e-6)
        assert np.max(np.abs(spec.lambda_matrix - lam)) <= 1e-6


class TestRealComplement:
    def test_empty_rows_give_identity(self):
        np.testing.assert_array_equal(_real_complement(np.zeros((0, 3)), 3), np.eye(3))

    def test_nearly_canonical_row(self):
        # one row leaves exactly one complement vector, whatever its entries
        comp = _real_complement(np.array([[-1.0, 1.3e-8]]), 2)
        assert comp.shape == (1, 2)
        np.testing.assert_allclose(comp, [[1.3e-8, 1.0]], atol=1e-15)

    def test_exact_count_and_orthogonality(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 5, 9):
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            for k in range(n + 1):
                comp = _real_complement(q[:k], n)
                assert comp.shape == (n - k, n)
                np.testing.assert_allclose(comp @ comp.T, np.eye(n - k), atol=1e-12)
                assert np.max(np.abs(comp @ q[:k].T), initial=0.0) <= 1e-12


def constant_family(n):
    return TensorFamily.constant(tensor_of(ObtuseRV(random_system(n, np.random.default_rng(n)))))


def computed_family(n, n_samples):
    """A family in C^n whose tensor_at builds a fresh sample at every step."""
    entries = tensor_of(ObtuseRV(random_system(n, np.random.default_rng(n)))).entries
    steps = tuple(0.1 * 2.0**-k for k in range(n_samples))
    return TensorFamily(tensor_at=lambda h: Tensor3(entries.copy()), steps=steps)


def rv_family(n, n_samples):
    """A family in C^n of ``ObtuseRV`` samples: one object if ``n_samples`` is
    1, else a fresh object at each of ``n_samples`` steps."""
    system = random_system(n, np.random.default_rng(n))
    if n_samples == 1:
        return TensorFamily.constant(ObtuseRV(system))
    steps = tuple(0.1 * 2.0**-k for k in range(n_samples))
    return TensorFamily(tensor_at=lambda h: ObtuseRV(system), steps=steps)


def constant_model(n):
    """``limit_tensor``'s bytes for a constant family in C^n: its sample, its
    result and one check of the sample, which also bounds building the
    tensor of an ``ObtuseRV`` sample."""
    return obtuse._sweep_bytes(n + 1) + 2 * 16 * (n + 1) ** 3


def stream_model(n, tensors=0):
    """``limit_tensor``'s bytes for the streamed sums in C^n, with ``tensors``
    ``Tensor3`` samples that the family computes in the call."""
    return obtuse._sweep_bytes(n + 1) + (_STREAM_BLOCKS + tensors) * 16 * (n + 1) ** 3


def traced_peak(call):
    """``call()`` and the peak bytes tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryBudget:
    """``limit_tensor`` is held to ``obtuse.MEMORY_BYTES`` by a model of its peak."""

    def test_rejects_before_allocating(self, monkeypatch):
        family = constant_family(32)
        monkeypatch.setattr(obtuse, "MEMORY_BYTES", constant_model(32) - 1)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(TooLarge):
                limit_tensor(family)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 2**20

    @pytest.mark.parametrize(
        "make",
        [
            lambda: (constant_family(32), constant_model(32)),
            lambda: (computed_family(16, 12), stream_model(16, 12)),
            lambda: (constant_family(2), constant_model(2)),
            lambda: (constant_family(8), constant_model(8)),
            lambda: (constant_family(9), constant_model(9)),
            lambda: (computed_family(8, 3), stream_model(8, 3)),
            lambda: (computed_family(9, 3), stream_model(9, 3)),
            lambda: (rv_family(2, 1), constant_model(2)),
            lambda: (rv_family(8, 1), constant_model(8)),
            lambda: (rv_family(9, 1), constant_model(9)),
            lambda: (rv_family(2, 5), stream_model(2)),
            lambda: (rv_family(8, 5), stream_model(8)),
            lambda: (rv_family(9, 5), stream_model(9)),
            # the model does not grow with the number of ObtuseRV samples
            lambda: (rv_family(16, 5), stream_model(16)),
            lambda: (rv_family(16, 40), stream_model(16)),
        ],
        ids=[
            "constant-N32",
            "computed-N16-12-samples",
            "constant-N2",
            "constant-N8",
            "constant-N9",
            "computed-N8-3-samples",
            "computed-N9-3-samples",
            "rv-constant-N2",
            "rv-constant-N8",
            "rv-constant-N9",
            "rv-N2-5-samples",
            "rv-N8-5-samples",
            "rv-N9-5-samples",
            "rv-N16-5-samples",
            "rv-N16-40-samples",
        ],
    )
    def test_model_bounds_the_peak(self, monkeypatch, make):
        # the model is what the call asks for: it runs within it, not a byte less
        family, model = make()
        monkeypatch.setattr(obtuse, "MEMORY_BYTES", model)
        result, peak = traced_peak(lambda: limit_tensor(family))
        assert result.tensor.dim == limits._sample_dim(family.tensor_at(family.steps[0]))
        assert peak <= obtuse.MEMORY_BYTES, peak / obtuse.MEMORY_BYTES
        monkeypatch.setattr(obtuse, "MEMORY_BYTES", model - 1)
        with pytest.raises(TooLarge):
            limit_tensor(family)

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 9, 15, 16, 31, 32])
    def test_sweep_bytes_bound_the_sweep(self, n):
        tensor = constant_family(n).tensor_at(0.1)
        report, peak = traced_peak(lambda: obtuse.check_symmetries(tensor))
        assert report.ok
        assert peak <= obtuse._sweep_bytes(n + 1), peak / obtuse._sweep_bytes(n + 1)

    def test_one_error_class(self, reference_tensor):
        assert issubclass(PathTooLarge, TooLarge) and issubclass(ChainTooLarge, TooLarge)
        with pytest.raises(TooLarge):
            chain_mult_op(reference_tensor, 1, 11, 0.01)
        with pytest.raises(TooLarge):
            walk_path(bernoulli_rv(), 1e-12, 1e6)
