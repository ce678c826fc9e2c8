"""The reconstruction certificate that gates ``classify`` and ``limit_tensor``.

Both go through the gate ``tensor._certify_or_sweep``: ``classify``
certifies the inner tensor of a limit by its fixed points and adds the
Lambda relations, computed exactly, to the gate's report; ``limit_tensor``
certifies a ``Tensor3`` sample at every dimension.  Only a tensor the gate
fails to certify is swept.  These tests pin the promises of
that order: it never accepts what the sweep rejects, a certified report
bounds the swept residuals from above, and every result and error is the
one the sweep-first order gave.
"""

import warnings

import numpy as np
import pytest

from obtusewalk import (
    ObtuseRV,
    Tensor3,
    TensorFamily,
    check_symmetries,
    classify,
    limit_tensor,
    limits,
    random_system,
    tensor,
    tensor_of,
)
from obtusewalk.errors import (
    InconsistentCount,
    NoConvergence,
    NotDoublySymmetric,
    ObtuseWalkError,
    StructureViolation,
)
from obtusewalk.obtuse import _bound, _khatri_rao
from obtusewalk.takagi import unitary_sqrt
from conftest import SCALED_STEPS, ok_before, sampled_family, scaled_family


def limit_of(vectors, v):
    """Full limit tensor with jump directions ``vectors`` and Lambda = V V^T."""
    n = v.shape[0]
    norms2 = np.sum(np.abs(vectors) ** 2, axis=1)
    entries = np.zeros((n + 1,) * 3, dtype=complex)
    entries[1:, 1:, 1:] = _khatri_rao(1.0 / norms2, vectors)
    entries[1:, 1:, 0] = v @ v.T
    return Tensor3(entries)


def valid_limit(n, k, rng):
    """A limit with k jumps V r_p along real orthogonal r_p and a random unitary V."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    v = np.linalg.qr(z)[0]
    o = np.linalg.qr(rng.standard_normal((n, n)))[0]
    r = o[:k] * rng.uniform(0.5, 3.0, k)[:, None]
    return limit_of(r @ v.T, v)


def noise(rng, shape, eps, symmetric):
    """Complex noise of max modulus ``eps``, symmetric in its first two axes if asked."""
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if symmetric:
        x = x + x.transpose(1, 0, 2)
    return x * (eps / np.max(np.abs(x)))


def perturbed_limits():
    """Valid limits plus inner-tensor noise of size eps, log-uniform over 1e-16..1e-3.

    Half the noise is symmetric in (i, j), so sym1 holds and only sym2 and
    sym3 (and the Lambda relations) can fail; the other half breaks sym1 too.
    """
    rng = np.random.default_rng(2025)
    counts = {1: 6, 2: 10, 3: 10, 5: 8, 8: 6, 16: 2}
    for n, count in counts.items():
        for i in range(count):
            m = valid_limit(n, int(rng.integers(0, n + 1)), rng)
            eps = 10.0 ** rng.uniform(-16, -3)
            entries = m.entries.copy()
            entries[1:, 1:, 1:] += noise(rng, (n, n, n), eps, symmetric=i % 2 == 0)
            yield n, Tensor3(entries)


def perturbed_samples():
    """Samples of dimension 3 to 21 with noise on the entries i, j >= 1.

    S^{i0}_k and S^{0j}_k stay exact, so sym0 holds and the certificate decides.
    """
    rng = np.random.default_rng(2026)
    for n in (9, 10, 12, 16, 20) * 3 + (2, 4, 8) * 2:
        s = tensor_of(ObtuseRV(random_system(n, rng))).entries.copy()
        d = n + 1
        for symmetric in (True, False):
            eps = 10.0 ** rng.uniform(-16, -3)
            t = s.copy()
            t[1:, 1:, :] += noise(rng, (d, d, d), eps, symmetric)[1:, 1:, :]
            yield n, Tensor3(t)


def scaled_16():
    """A scaled family in C^16 with three jumps: samples of d = 17 and entries up to 1e4."""
    systems, _ = scaled_family(16, 3, 3e-4, np.random.default_rng(4), SCALED_STEPS)
    return sampled_family(SCALED_STEPS, systems)


@pytest.fixture
def gate_reports(monkeypatch):
    """List that records the report of each gate call ``limits`` makes."""
    reports = []
    original = limits._certify_or_sweep

    def recording(*args, **kwargs):
        out = original(*args, **kwargs)
        reports.append(out[1])
        return out

    monkeypatch.setattr(limits, "_certify_or_sweep", recording)
    return reports


def outcome(call):
    try:
        return call()
    except (ObtuseWalkError, np.linalg.LinAlgError) as exc:
        return exc


class TestNoLoosening:
    def test_classify_certifies_only_what_the_sweep_accepts(self, gate_sweeps, gate_reports):
        certified = swept = 0
        for n, m in perturbed_limits():
            inner = m.entries[1:, 1:, 1:]
            for tol in (1e-9, 1e-6):
                gate_sweeps.clear()
                gate_reports.clear()
                got = outcome(lambda: classify(m, tol=tol))
                want = limits.check_limit_symmetries(m, tol=tol)
                # both reports decide as the eleven-field one did
                for rep in (gate_reports[0], want):
                    assert rep.ok == ok_before(rep, tol, inner), (n, tol)
                if gate_sweeps:
                    swept += 1
                    continue
                certified += 1
                assert want.ok, (n, tol, want.residuals())
                if isinstance(got, Exception):
                    continue  # raised after the gate, by the Takagi step
                report, want = got.structure.residuals(), want.residuals()
                assert report["sym2"] >= want["sym2"] and report["sym3"] >= want["sym3"], (n, tol)
                exact = {"sym1", "lambda_symmetry", "lambda_unitarity", "exchange", "reduction"}
                for name in exact:
                    assert report[name] == want[name], (n, tol, name)
        # the corpus reaches both sides of the gate
        assert certified >= 20 and swept >= 20, (certified, swept)

    def test_sample_gate_certifies_only_what_the_sweep_accepts(self, gate_sweeps, gate_reports):
        certified = rejected = 0
        for n, s in perturbed_samples():
            for tol in (1e-8, 1e-11):
                gate_sweeps.clear()
                gate_reports.clear()
                family = TensorFamily.constant(s)
                got = outcome(lambda: limit_tensor(family, tol=tol))
                swept = bool(gate_sweeps)
                cert = gate_reports[0]
                assert cert.ok == ok_before(cert, tol, s.entries), (n, tol)
                want = outcome(lambda: limit_tensor_sweep_first(family, tol))
                if isinstance(want, Exception):
                    assert_same_error(got, want, (n, tol))
                else:
                    assert np.array_equal(got.tensor.entries, want.tensor.entries), (n, tol)
                if swept:
                    rejected += 1
                    continue
                certified += 1
                report = check_symmetries(s, tol=tol)
                assert report.ok, (n, tol, report.residuals())
                # the certified report: sym0 and sym1 exact, sym2 and sym3 one upper bound
                cert, report = cert.residuals(), report.residuals()
                assert cert["sym0"] == report["sym0"] and cert["sym1"] == report["sym1"], (n, tol)
                assert cert["sym2"] == cert["sym3"] >= max(report["sym2"], report["sym3"]), (n, tol)
        assert certified >= 8 and rejected >= 8, (certified, rejected)


class TestFastPath:
    def test_valid_limits_certify(self, gate_sweeps):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 5, 8, 16, 32):
            for k in sorted({0, n // 2, n}):
                classify(valid_limit(n, k, rng))
        assert gate_sweeps == []

    def test_scaled_samples_certify(self, gate_sweeps):
        # entries of 5e2 to 1e4: the sweep's rounding, 2 gamma_{d+2} d max|S|^2
        # ~ 3e-7, fits under the relative bound of sym2 and sym3
        family = scaled_16()
        for s in family.sample():
            assert s.dim == 17
            assert np.max(np.abs(s.entries)) >= 5e2
        limit_tensor(family)
        assert gate_sweeps == []

    @pytest.mark.parametrize(
        "error", [NoConvergence("forced", residual=1.0), np.linalg.LinAlgError("forced")]
    )
    def test_kernel_failure_leaves_a_sample_to_the_sweep(self, monkeypatch, gate_sweeps, error):
        family = scaled_16()
        expected = limit_tensor(family)

        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(tensor, "_fixed_points", failing)
        result = limit_tensor(family)
        assert len(gate_sweeps) == len(SCALED_STEPS)
        assert np.array_equal(result.tensor.entries, expected.tensor.entries)


def classify_sweep_first(m, tol):
    """``classify`` in the order of the previous release: sweep, then the kernel."""
    inner, lam = limits._split_limit(m)
    n = inner.shape[0]
    report = limits.check_limit_symmetries(m, tol=tol)
    if not report.ok:
        raise StructureViolation(f"limit tensor fails structure relations: {report.residuals()}")
    dirs = tensor._fixed_points(Tensor3(inner, has_constant=False), tol).vectors
    v = unitary_sqrt(lam)
    w = dirs @ np.conj(v)
    imag = float(np.max(np.abs(w.imag), initial=0.0))
    if not imag <= _bound(tol, float(np.max(np.abs(w), initial=0.0))):
        raise InconsistentCount(
            f"jump directions have no real pre-image under the square root of Lambda "
            f"(residual {imag:.3e})"
        )
    return dirs, v, limits._real_complement(w.real, n) @ v.T


def limit_tensor_sweep_first(family, tol):
    """``limit_tensor`` in the order of the previous release: sweep every sample first."""
    checked = set()
    for h, s in zip(np.array(family.steps), family.sample()):
        if id(s) in checked:
            continue
        checked.add(id(s))
        report = check_symmetries(s, tol=tol)
        if not report.ok:
            raise NotDoublySymmetric(
                f"sample at h={h} violates tensor symmetries: {report.residuals()}"
            )
    return limit_tensor(family, tol=tol)


def assert_same_error(got, want, where):
    assert isinstance(want, Exception), where
    assert type(got) is type(want), (where, got, want)
    assert str(got) == str(want), where


def overflowed_limit():
    """1e160 times the inner tensor of a valid limit: sym2 and sym3 overflow to NaN."""
    m = valid_limit(3, 2, np.random.default_rng(3))
    entries = m.entries.copy()
    entries[1:, 1:, 1:] *= 1e160
    return Tensor3(entries)


def unreal_jump_limit():
    """One jump whose pre-image has imaginary part 1.2e-8 at N = 32.

    Lambda = diag(phases)^2, so the Takagi factor is diag(phases) up to a
    signed permutation.  The jump phases (1 + 1.2e-8 i e_1) break exchange
    and reduction by only 2 * 1.2e-8 / N = 7.5e-10 each, within their bound
    of 1e-9 (max|M| = 1/N), while the imaginary part exceeds 1e-9.
    """
    n = 32
    phases = np.exp(2j * np.pi * np.random.default_rng(1).random(n))
    b = np.zeros(n)
    b[0] = 1.2e-8
    return limit_of((phases * (1 + 1j * b))[None, :], np.diag(phases))


def bad_limits():
    """(label, limit tensor, tol) on which ``classify`` fails, and how."""
    rng = np.random.default_rng(5)
    m = valid_limit(4, 2, rng).entries
    sym1 = m.copy()
    sym1[1, 2, 3] += 1e-6
    sym2 = m.copy()
    sym2[1:, 1:, 1:] += noise(rng, (4, 4, 4), 1e-6, symmetric=True)
    unitarity = m.copy()
    unitarity[1:, 1:, 0] *= 1 + 1e-6
    return [
        ("sym1", Tensor3(sym1), 1e-9),
        # the kernel fails too, and the structure violation takes precedence
        ("sym1-tight", Tensor3(sym1), 1e-15),
        ("sym2-sym3", Tensor3(sym2), 1e-9),
        ("lambda-unitarity", Tensor3(unitarity), 1e-9),
        # fixed-point residuals of valid limits miss bounds this tight
        ("no-convergence", valid_limit(8, 5, np.random.default_rng(4)), 1e-15),
        ("inconsistent-count", unreal_jump_limit(), 1e-9),
        ("overflow", overflowed_limit(), 1e-9),
    ]


def bad_families():
    """(label, family, tol) whose samples fail the gate of ``limit_tensor``."""
    rng = np.random.default_rng(6)
    s = tensor_of(ObtuseRV(random_system(12, rng))).entries
    sym0 = s.copy()
    sym0[2, 0, 3] += 1e-6
    sym1 = s.copy()
    sym1[2, 3, 4] += 1e-6
    sym2 = s.copy()
    sym2[1:, 1:, :] += noise(rng, s.shape, 1e-6, symmetric=True)[1:, 1:, :]
    overflow = s.copy()
    overflow[1:, 1:, :] *= 1e160
    good = Tensor3(s)
    return [
        ("sym0", TensorFamily.constant(Tensor3(sym0)), 1e-9),
        ("sym1", TensorFamily.constant(Tensor3(sym1)), 1e-9),
        ("sym2-sym3", TensorFamily.constant(Tensor3(sym2)), 1e-9),
        ("overflow", TensorFamily.constant(Tensor3(overflow)), 1e-9),
        (
            "last-sample",
            TensorFamily.from_samples(limits.DEFAULT_STEPS, [good] * 4 + [Tensor3(sym2)]),
            1e-9,
        ),
    ]


class TestSameErrors:
    def test_classify_errors_match_the_sweep_first_order(self):
        seen = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for label, m, tol in bad_limits():
                want = outcome(lambda: classify_sweep_first(m, tol))
                got = outcome(lambda: classify(m, tol=tol))
                assert_same_error(got, want, label)
                seen.add(type(want).__name__)
        assert seen == {"StructureViolation", "NoConvergence", "InconsistentCount"}, seen

    def test_limit_tensor_errors_match_the_sweep_first_order(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for label, family, tol in bad_families():
                want = outcome(lambda: limit_tensor_sweep_first(family, tol))
                got = outcome(lambda: limit_tensor(family, tol=tol))
                assert isinstance(want, NotDoublySymmetric), label
                assert_same_error(got, want, label)

    def test_overflow_reports_nan(self):
        with pytest.raises(StructureViolation, match="nan"):
            classify(overflowed_limit())
        m = overflowed_limit()
        report = limits.check_limit_symmetries(m)
        assert not report.ok and not ok_before(report, 1e-9, m.entries[1:, 1:, 1:])

    def test_valid_results_match_the_sweep_first_order(self):
        rng = np.random.default_rng(8)
        for n, k in ((1, 1), (2, 1), (5, 2), (8, 0), (16, 9)):
            m = valid_limit(n, k, rng)
            dirs, v, brownian = classify_sweep_first(m, 1e-9)
            spec = classify(m)
            assert np.array_equal(spec.poisson_dirs, dirs), n
            assert np.array_equal(spec.v_matrix, v), n
            assert np.array_equal(spec.brownian_basis, brownian), n
        for n in (9, 16):
            family = TensorFamily.constant(tensor_of(ObtuseRV(random_system(n, rng))))
            want = limit_tensor_sweep_first(family, 1e-9)
            got = limit_tensor(family)
            assert np.array_equal(got.tensor.entries, want.tensor.entries), n
