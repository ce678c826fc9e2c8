"""The reconstruction certificate that gates ``diagonalize`` and ``realify``.

Both run their kernel first and accept a tensor when the fixed points it
found rebuild it closely enough (the gate ``tensor._certify_or_sweep``); the
O(d^5) sweep runs only for a tensor they fail to certify.  These tests pin
the three promises of that order: it never accepts what the sweep rejects,
valid input never reaches the sweep, and every result and error is the one
the sweep-first order gave.
"""

import warnings

import numpy as np
import pytest

from obtusewalk import (
    ObtuseRV,
    Tensor3,
    TensorFamily,
    check_symmetries,
    diagonalize,
    limit_tensor,
    obtuse_fixed_points,
    obtuse,
    random_system,
    realify,
    tensor,
    tensor_from_family,
    tensor_of,
)
from obtusewalk.errors import NotDoublySymmetric, ObtuseWalkError
from obtusewalk.limits import DEFAULT_STEPS
from conftest import REFERENCE_VALUES, ok_before


def random_tensor(n, seed):
    return tensor_of(ObtuseRV(random_system(n, np.random.default_rng(seed))))


def overflowed_tensor():
    """1e160 times a valid (i, j)-symmetric tensor: sym2 and sym3 overflow to NaN."""
    s = random_tensor(3, 2).entries
    return Tensor3(1e160 * (s + s.transpose(1, 0, 2)) / 2)


def kernel_points(t, tol):
    """The fixed points ``diagonalize`` and ``realify`` certify ``t`` with, if found."""
    points = []
    with np.errstate(all="ignore"):
        try:
            points.append(tensor._fixed_points(t, tol).vectors)
        except (ObtuseWalkError, np.linalg.LinAlgError):
            pass
        try:
            points.append(tensor._realify(t, tol)[1])
        except (ObtuseWalkError, np.linalg.LinAlgError):
            pass
    return points


def perturbed_corpus():
    """Valid tensors plus noise of size eps, log-uniform over 1e-16..1e-3.

    Half the noise is symmetric in (i, j), so sym1 holds and only sym2 and
    sym3 can fail; the other half breaks sym1 too.
    """
    rng = np.random.default_rng(2024)
    counts = {1: 10, 2: 10, 3: 10, 8: 6, 16: 4, 32: 2}
    for n, count in counts.items():
        for k in range(count):
            s = random_tensor(n, rng.integers(2**32)).entries
            eps = 10.0 ** rng.uniform(-16, -3)
            noise = rng.standard_normal(s.shape) + 1j * rng.standard_normal(s.shape)
            if k % 2 == 0:
                noise = noise + noise.transpose(1, 0, 2)
            noise *= eps / np.max(np.abs(noise))
            yield n, Tensor3(s + noise)


class TestNoLoosening:
    def test_certificate_accepts_only_what_the_sweep_accepts(self, gate_sweeps):
        accepted = rejected = 0
        for n, t in perturbed_corpus():
            # the noise breaks sym0 too: certify the double symmetry of the entries alone
            entries = Tensor3(t.entries, has_constant=False)
            for tol in (1e-9, 1e-12):
                sweep = check_symmetries(entries, tol=tol)
                # every report decides as the seven-field one did, sym0 included
                for rep in (sweep, check_symmetries(t, tol=tol)):
                    assert rep.ok == ok_before(rep, tol, t.entries), (n, tol)
                for points in kernel_points(t, tol):
                    gate_sweeps.clear()
                    _, report, _ = tensor._certify_or_sweep(entries, tol, lambda: (None, points))
                    assert report.ok == ok_before(report, tol, t.entries), (n, tol)
                    if gate_sweeps:
                        rejected += 1
                        continue
                    accepted += 1
                    assert sweep.ok, (n, tol, sweep.residuals())
                    # the certified report: sym1 exact, sym2 and sym3 bounded above
                    got, want = report.residuals(), sweep.residuals()
                    assert got["sym1"] == want["sym1"], (n, tol)
                    assert got["sym2"] >= want["sym2"] and got["sym3"] >= want["sym3"], (n, tol)
        # the corpus reaches both sides of the gate
        assert accepted >= 20 and rejected >= 20, (accepted, rejected)


class TestFastPath:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 11, 16, 23, 32])
    def test_valid_tensors_certify(self, monkeypatch, n):
        def no_sweep(*args, **kwargs):
            raise AssertionError("a valid tensor was swept")

        monkeypatch.setattr(tensor, "check_symmetries", no_sweep)
        for seed in range(3 if n < 16 else 1):
            t = random_tensor(n, 1000 * n + seed)
            diagonalize(t)
            obtuse_fixed_points(t)
            realify(t)


def sweep_first(name, t, tol):
    """The order of the previous release: sweep, then the unchecked kernel.

    The tensor's flag decides whether sym0 is swept; ``diagonalize`` reads
    the entries alone, so its sweep drops the flag.
    """
    if name == "diagonalize":
        t = Tensor3(t.entries, has_constant=False)
    report = check_symmetries(t, tol=tol)
    if not report.ok:
        raise NotDoublySymmetric(f"tensor fails symmetry relations: {report.residuals()}")
    if name == "realify":
        return tensor._realify(t, tol)[0]
    result = tensor._fixed_points(t, tol)
    if name == "obtuse_fixed_points":
        return tensor._obtuse_system(result.vectors, tol)
    return result


def outcome(call):
    try:
        return call()
    except (ObtuseWalkError, np.linalg.LinAlgError) as exc:
        return exc


def assert_same_outcome(got, want, where):
    if isinstance(want, Exception):
        assert type(got) is type(want), where
        assert str(got) == str(want), where
        return
    for field in ("vectors", "values", "probabilities", "v"):
        if hasattr(want, field):
            assert np.array_equal(getattr(got, field), getattr(want, field)), where


def bad_inputs():
    """(label, tensor, tol): inputs on which some of the calls fail, and how."""
    s = random_tensor(3, 1).entries
    sym0 = s.copy()
    sym0[1, 0, 1] += 1e-6
    sym0[0, 1, 1] += 1e-6
    sym1 = s.copy()
    sym1[1, 0, 2] += 1e-6
    sym2 = s + 1e-6 * np.ones_like(s)
    # scaling by 1 + 1e-8 moves sym0 by 1e-8 and the unitarity of S_0 by 2e-8
    scaled = (1 + 1e-8) * s
    asym = random_tensor(1, 0).entries.copy()
    asym[1, 0, 1] += 1e-6
    delta = np.zeros((3, 3, 3), dtype=complex)
    delta[np.arange(3), np.arange(3), np.arange(3)] = 1.0
    return [
        ("sym0", Tensor3(sym0), 1e-9),
        ("sym1", Tensor3(sym1), 1e-9),
        ("sym2-sym3", Tensor3(sym2), 1e-9),
        ("s0-not-unitary", Tensor3(scaled), 1.5e-8),
        ("wrong-count", Tensor3(asym), 1e-6),
        ("delta", Tensor3(delta), 1e-9),
        # fixed-point residuals of valid tensors miss bounds this tight
        ("no-convergence", random_tensor(8, 1), 1e-15),
        ("no-convergence-realify", random_tensor(3, 0), 1e-15),
        ("overflow", overflowed_tensor(), 1e-9),
    ]


class TestSameErrors:
    CALLS = {
        "diagonalize": diagonalize,
        "obtuse_fixed_points": obtuse_fixed_points,
        "realify": realify,
    }

    def test_errors_match_the_sweep_first_order(self):
        seen = set()
        for label, t, tol in bad_inputs():
            for name, call in self.CALLS.items():
                want = outcome(lambda: sweep_first(name, t, tol))
                got = outcome(lambda: call(t, tol=tol))
                assert_same_outcome(got, want, (label, name))
                seen.add(type(want).__name__)
        # the corpus reaches every error these calls raise on bad input
        assert {
            "NotDoublySymmetric",
            "S0NotUnitary",
            "WrongCount",
            "NoConvergence",
        } <= seen, seen

    def test_valid_results_match_the_sweep_first_order(self):
        for n in (1, 2, 8):
            t = random_tensor(n, 7)
            for name, call in self.CALLS.items():
                want = sweep_first(name, t, obtuse.DEFAULT_TOL)
                assert_same_outcome(call(t), want, (n, name))


class TestOverflow:
    def test_sweep_rejects_nan_residuals(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = overflowed_tensor()
            report = check_symmetries(t)
        r = report.residuals()
        assert r["sym1"] == 0.0 and np.isnan(r["sym2"]) and np.isnan(r["sym3"])
        # of the double-symmetry relations sym2 and sym3 fail; sym0 fails too
        failed = [c.name for c in report.checks if not c.value <= c.bound]
        assert failed == ["sym2", "sym3", "sym0"]
        assert not report.ok and not ok_before(report, obtuse.DEFAULT_TOL, t.entries)

    @pytest.mark.parametrize("call", [diagonalize, obtuse_fixed_points, realify])
    def test_certified_calls_reject_it_without_warnings(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotDoublySymmetric):
                call(overflowed_tensor())


# flagged tensors whose entries are doubly symmetric and break sym0 alone
SYM0_BROKEN = {
    "delta": tensor_from_family(np.eye(3), has_constant=True),
    "twice-reference": Tensor3(2 * tensor_of(ObtuseRV.from_values(REFERENCE_VALUES)).entries),
}


class TestOneAnswer:
    """The tensor's flag alone decides whether sym0 is owed, at every entry point."""

    @pytest.mark.parametrize("name", sorted(SYM0_BROKEN))
    def test_flagged_entry_points_name_sym0(self, name):
        t = SYM0_BROKEN[name]
        # three distinct sample objects: no closed form, each sample gated
        samples = [Tensor3(t.entries.copy()) for _ in range(3)]
        family = TensorFamily.from_samples(DEFAULT_STEPS[:3], samples)
        for call in (obtuse_fixed_points, realify, lambda _: limit_tensor(family)):
            with pytest.raises(NotDoublySymmetric, match="sym0"):
                call(t)

    @pytest.mark.parametrize("name", sorted(SYM0_BROKEN))
    def test_diagonalize_reads_the_entries_alone(self, name):
        assert len(diagonalize(SYM0_BROKEN[name]).vectors) == 3
