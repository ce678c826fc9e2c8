"""Command-line interface: exit codes, file round trips, determinism."""

import copy
import csv
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from obtusewalk import (
    ObtuseRV,
    Tensor3,
    TensorFamily,
    check_limit_symmetries,
    check_symmetries,
    classify,
    cli,
    diagonalize,
    limit_tensor,
    obtuse_fixed_points,
    random_system,
    realify,
    serialize,
    simulate,
    tensor_of,
    validate_obtuse_system,
)
from obtusewalk import obtuse
from obtusewalk.cli import main
from obtusewalk.obtuse import DEFAULT_TOL, _bound
from obtusewalk.limits import DEFAULT_STEPS
from conftest import (
    JUMP_POISSON_DIR,
    REFERENCE_PROBS,
    REFERENCE_VALUES,
    child_env,
    greedy_match,
    jump_values,
    reference_tensor_entries,
    to_json,
)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


# the checks of a limit tensor's structure, by name
LIMIT_CHECK_NAMES = {
    "sym1", "sym2", "sym3", "lambda_symmetry", "lambda_unitarity", "exchange", "reduction"
}

# a tensor on C^1: only the constant coordinate, so a limit has N = 0
ONE_DIM_TENSOR_DOC = {"dim": 1, "entries": [[[{"re": 1.0, "im": 0.0}]]]}


def reference_system_doc():
    return {
        "dim": 2,
        "values": [
            [{"re": z.real, "im": z.imag} for z in row] for row in REFERENCE_VALUES
        ],
    }


class TestValidate:
    def test_valid_system(self, tmp_path, capsys):
        f = write_json(tmp_path / "sys.json", reference_system_doc())
        assert main(["validate", f]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"]
        np.testing.assert_allclose(report["probabilities"], REFERENCE_PROBS, atol=1e-12)

    def test_corrupted_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", str(bad)]) == 2

    def test_missing_file(self):
        assert main(["validate", "/nonexistent/nope.json"]) == 2

    def test_non_obtuse(self, tmp_path, capsys):
        doc = reference_system_doc()
        doc["values"][2] = [{"re": 1, "im": 0}, {"re": 1, "im": 0}]
        f = write_json(tmp_path / "sys.json", doc)
        assert main(["validate", f]) == 1
        report = json.loads(capsys.readouterr().out)
        assert not report["ok"]
        assert sorted(report["worst_pair"]) == [0, 2]

    def test_long_vector_does_not_excuse_the_others(self, tmp_path, capsys):
        values = [[1e5, 0], [0, 1], [0, 1]]
        doc = {"dim": 2, "values": [[{"re": x, "im": 0} for x in v] for v in values]}
        assert main(["validate", write_json(tmp_path / "sys.json", doc)]) == 1
        assert not json.loads(capsys.readouterr().out)["ok"]

    @pytest.mark.parametrize("values", [[[1], [-1]], [[1e7], [-1e-7]]])
    def test_exact_system_names_a_pair(self, tmp_path, capsys, values):
        # every pair residual is 0: the worst pair is still a pair, not the diagonal
        assert main(["validate", write_json(tmp_path / "sys.json", {"values": values})]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["max_pair_residual"] == 0.0 and report["worst_pair"] == [0, 1]

    def test_overflowed_pair_bound_passes_as_in_the_gate(self, tmp_path, capsys):
        # at tol 2 the bound tol |v_0| |v_1| = 2e308 overflows; no residual
        # exceeds tol, so validate accepts, as tensor's gate does, and warns of nothing
        values = [[1e154, -1e-154], [0, 1e154], [-1e-154, -1e-154]]
        f = write_json(tmp_path / "sys.json", {"values": values})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", "--tol", "2", f]) == 0
            out, err = capsys.readouterr()
            assert json.loads(out)["ok"] and err == ""
            assert main(["tensor", "--tol", "2", f]) == 0

    @pytest.mark.parametrize("values", [[[1e160], [-1e-160]], [[1e-170], [-1e170]]])
    @pytest.mark.parametrize(
        "command", ["validate", "tensor", "realify", "limit", "simulate --kind walk"]
    )
    def test_squared_norm_out_of_range(self, tmp_path, capsys, values, command):
        # |v_0|^2 overflows or underflows: a domain error, with no warning, from
        # every command that reads a system file, since they share one reader
        argv = system_command(tmp_path, command, {"values": values})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: DimensionMismatch: |v|^2 of vector 0 ")
        assert captured.err.count("\n") == 1


def system_command(tmp_path, command, system):
    """argv of ``command`` reading the system document ``system``."""
    if command == "limit":
        return ["limit", write_json(tmp_path / "family.json", {"system": system})]
    if command == "limit-systems":
        doc = {"steps": list(DEFAULT_STEPS), "systems": [system] * 5}
        return ["limit", write_json(tmp_path / "family.json", doc)]
    argv = command.split() + [write_json(tmp_path / "sys.json", system)]
    return argv + (["--paths", "10"] if command.startswith("simulate") else [])


@pytest.mark.parametrize(
    "command", ["tensor", "realify", "limit", "limit-systems", "simulate --kind walk"]
)
class TestDeclaredProbabilities:
    """Every command that reads a system holds it to its declared probabilities."""

    @pytest.fixture
    def system(self):
        values = random_system(2, np.random.default_rng(4)).values
        return {"values": [[{"re": z.real, "im": z.imag} for z in v] for v in values]}

    def test_wrong_declaration_is_a_domain_error(self, tmp_path, capsys, system, command):
        probs = ObtuseRV.from_values(serialize.system_values_from_json(system)[0]).probabilities
        assert np.max(np.abs(probs - [0.5, 0.25, 0.25])) > 0.01
        system["probabilities"] = [0.5, 0.25, 0.25]
        assert main(system_command(tmp_path, command, system)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        msg = "error: ProbabilityMismatch: declared probabilities disagree with the values\n"
        assert captured.err == msg

    def test_true_declaration_is_read(self, tmp_path, capsys, system, command):
        values = serialize.system_values_from_json(system)[0]
        system["probabilities"] = ObtuseRV.from_values(values).probabilities.tolist()
        assert main(system_command(tmp_path, command, system)) == 0
        assert capsys.readouterr().err == ""


class TestTensor:
    def test_reference_entries(self, tmp_path, capsys):
        f = write_json(tmp_path / "sys.json", reference_system_doc())
        assert main(["tensor", f]) == 0
        doc = json.loads(capsys.readouterr().out)
        tensor = serialize.tensor_from_json(doc)
        np.testing.assert_allclose(
            tensor.entries, reference_tensor_entries(), atol=1e-12
        )

    def test_round_trip_through_diagonalize(self, tmp_path, capsys):
        f = write_json(tmp_path / "sys.json", reference_system_doc())
        t_file = str(tmp_path / "tensor.json")
        assert main(["tensor", f, "--out", t_file]) == 0
        assert main(["diagonalize", t_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        values = np.array(
            [[complex(z["re"], z["im"]) for z in row] for row in doc["values"]]
        )
        assert greedy_match(values, REFERENCE_VALUES) <= 1e-8
        np.testing.assert_allclose(
            np.sort(doc["probabilities"]), np.sort(REFERENCE_PROBS), atol=1e-10
        )


class TestCheck:
    def test_valid_tensor(self, tmp_path, capsys):
        rv = ObtuseRV.from_values(REFERENCE_VALUES)
        f = write_json(tmp_path / "t.json", to_json("tensor", tensor_of(rv)))
        assert main(["check", f]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"]
        assert set(report["symmetries"]) == {"sym0", "sym1", "sym2", "sym3"}
        assert max(report["symmetries"].values()) <= 1e-10

    def test_broken_tensor(self, tmp_path, capsys):
        rv = ObtuseRV.from_values(REFERENCE_VALUES)
        doc = to_json("tensor", tensor_of(rv))
        doc["entries"][0][0][0] = {"re": 1.5, "im": 0.0}
        f = write_json(tmp_path / "t.json", doc)
        assert main(["check", f]) == 1

    def test_one_dimensional_limit_tensor(self, tmp_path, capsys):
        f = write_json(tmp_path / "t.json", ONE_DIM_TENSOR_DOC)
        assert main(["check", f, "--limit"]) == 1
        assert "error: DimensionMismatch" in capsys.readouterr().err

    def test_overflowed_residuals_fail(self, tmp_path, capsys):
        # 1e160 times an (i, j)-symmetric valid tensor: sym2 and sym3 are NaN
        s = tensor_of(ObtuseRV.from_values(REFERENCE_VALUES)).entries
        huge = Tensor3(1e160 * (s + s.transpose(1, 0, 2)) / 2)
        f = write_json(tmp_path / "t.json", to_json("tensor", huge))
        assert main(["check", f]) == 1
        report = json.loads(capsys.readouterr().out.replace("NaN", "null"))
        assert not report["ok"] and report["symmetries"]["sym2"] is None


class TestRealify:
    def test_from_system_file(self, tmp_path, capsys):
        f = write_json(tmp_path / "sys.json", reference_system_doc())
        assert main(["realify", f]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["imag_residual"] <= 1e-8
        recovered = np.array(
            [
                [complex(z["re"], z["im"]) for z in row]
                for row in doc["system"]["values"]
            ]
        )
        assert np.max(np.abs(recovered.imag)) <= 1e-8

    def test_real_system_keeps_its_axes(self, tmp_path, capsys):
        # V = I, the principal square root of a real tensor's time-zero slice;
        # the values are system_from_probabilities([0.1, 0.2, 0.3, 0.4])
        values = [
            [0.5000000000000002, 0.8660254037844387, -2.82842712474619],
            [-2.0, 4.628113532934919e-18, -4.2576957449952636e-17],
            [0.5, -1.4433756729740645, -2.8824170772746375e-17],
            [0.5, 0.8660254037844386, 0.7071067811865476],
        ]
        f = write_json(tmp_path / "real.json", {"values": values})
        assert main(["realify", f]) == 0
        v = serialize.matrix_from_json(json.loads(capsys.readouterr().out)["V"])
        assert np.max(np.abs(v - np.eye(len(v)))) <= 1e-15

    def test_one_dimensional_tensor(self, tmp_path, capsys):
        # the flagged tensor on C^1 has the one fixed point (1), so its system
        # is one vector of C^0, which is zero; realify takes the square root
        # of S_0's inner block, which is 0 x 0, first
        f = write_json(tmp_path / "t.json", {"entries": [[[1]]]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["realify", f]) == 1
        err = capsys.readouterr().err
        assert err == "error: DimensionMismatch: obtuse systems contain no zero vector\n"


def jump_family_doc():
    return {
        "steps": list(DEFAULT_STEPS),
        "systems": [
            {"values": [serialize.vector_to_json(row) for row in jump_values(h)]}
            for h in DEFAULT_STEPS
        ],
    }


class TestLimit:
    def test_jump_family_file(self, tmp_path, capsys):
        f = write_json(tmp_path / "family.json", jump_family_doc())
        assert main(["limit", f, "--tol", "1e-7"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["poisson"]) == 1
        v = np.array([complex(z["re"], z["im"]) for z in doc["poisson"][0]["v"]])
        assert np.max(np.abs(v - JUMP_POISSON_DIR)) <= 1e-7
        assert doc["poisson"][0]["intensity"] == pytest.approx(1.0, abs=1e-7)
        assert len(doc["brownian"]) == 1
        assert abs(doc["diagnostics"]["worst_order"] - 0.5) <= 0.02
        assert 0.0 <= doc["diagnostics"]["extrapolation_error"] <= 1e-10
        assert max(doc["diagnostics"]["structure_residuals"].values()) <= 1e-8

    def test_constant_family_file(self, tmp_path, capsys):
        f = write_json(
            tmp_path / "family.json", {"system": reference_system_doc()}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["limit", f]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["poisson"] == [] and "M" not in doc
        lam = serialize.matrix_from_json(doc["Lambda"])
        v = serialize.matrix_from_json(doc["V"])
        assert np.max(np.abs(v @ v.T - lam)) <= 1e-9
        # a constant family converges exactly like h^{1/2}
        diagnostics = doc["diagnostics"]
        assert set(diagnostics) == {"worst_order", "extrapolation_error", "structure_residuals"}
        assert abs(diagnostics["worst_order"] - 0.5) <= 1e-12
        assert set(diagnostics["structure_residuals"]) == LIMIT_CHECK_NAMES

    def test_step_ratio_that_overflows(self, tmp_path, capsys):
        # 1e308, 0.1, 1e-310 is a geometric grid whose ratio 1e309 overflows a
        # double: the constant family still converges like h^{1/2}, unwarned
        doc = {"system": reference_system_doc(), "steps": [1e308, 0.1, 1e-310]}
        f = write_json(tmp_path / "family.json", doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["limit", f]) == 0
        diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
        assert abs(diagnostics["worst_order"] - 0.5) <= 1e-12

    def test_family_without_moving_entries_has_null_order(self, tmp_path, capsys):
        # S^{11}_1 = E[X^3] = 0 for a fair +-1 coin: no entry moves with h
        f = write_json(tmp_path / "family.json", {"system": HALVES})
        assert main(["limit", f]) == 0
        assert json.loads(capsys.readouterr().out)["diagnostics"]["worst_order"] is None
        family = serialize.family_from_json({"system": HALVES})
        result = limit_tensor(family)
        assert (result.worst_order, result.worst_entry) == (np.inf, None)

    def test_tol_validates_the_family_systems(self, tmp_path, capsys):
        # a pair residual of 3.0e-8: obtuse at --tol 1e-6, not at the default 1e-9
        values = REFERENCE_VALUES.copy()
        values[0, 0] += 3e-8
        system = {"values": [serialize.vector_to_json(v) for v in values]}
        assert main(["tensor", write_json(tmp_path / "sys.json", system), "--tol", "1e-6"]) == 0
        capsys.readouterr()
        steps = list(DEFAULT_STEPS)
        for doc in ({"system": system}, {"steps": steps, "systems": [system] * len(steps)}):
            f = write_json(tmp_path / "family.json", doc)
            assert main(["limit", f]) == 1
            assert "error: NotObtuse" in capsys.readouterr().err
            assert main(["limit", f, "--tol", "1e-6"]) == 0

    @pytest.mark.parametrize(
        "steps", [[], [1e400], [0, -1], [0.1, 0.09999999999999999, 0.01]]
    )
    def test_explicit_steps_are_never_replaced(self, tmp_path, capsys, steps):
        # only an absent or null "steps" means the default grid; the last
        # steps have coinciding square roots, one node twice in the table
        doc = {"system": HALVES, "steps": steps}
        f = write_json(tmp_path / "family.json", doc)
        assert main(["limit", f]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        doc["steps"] = None
        assert main(["limit", write_json(tmp_path / "null.json", doc)]) == 0

    @pytest.mark.parametrize("broken", [False, True])
    def test_tensor_family_is_gated_sample_by_sample(self, tmp_path, capsys, broken):
        # three copies of a valid tensor pass; 1e-6 on one entry of one fails
        tensors = [to_json("tensor", tensor_of(ObtuseRV.from_values(REFERENCE_VALUES)))] * 3
        if broken:
            tensors[2] = copy.deepcopy(tensors[2])
            tensors[2]["entries"][1][2][1]["re"] += 1e-6
        doc = {"steps": [0.1, 0.025, 0.00625], "tensors": tensors}
        assert main(["limit", write_json(tmp_path / "family.json", doc)]) == int(broken)
        err = capsys.readouterr().err
        assert err.startswith("error: NotDoublySymmetric: ") if broken else err == ""

    def test_one_dimensional_family(self, tmp_path, capsys):
        tensors = [ONE_DIM_TENSOR_DOC] * len(DEFAULT_STEPS)
        f = write_json(
            tmp_path / "family.json", {"steps": list(DEFAULT_STEPS), "tensors": tensors}
        )
        assert main(["limit", f]) == 1
        assert "error: DimensionMismatch" in capsys.readouterr().err
        # systems on C^2 and one on C^1 share no dimension
        doc = {"steps": [0.1, 0.025, 0.00625], "systems": [reference_system_doc()] * 2 + [HALVES]}
        assert main(["limit", write_json(tmp_path / "mixed.json", doc)]) == 1
        err = capsys.readouterr().err
        assert err == "error: DimensionMismatch: family samples have inconsistent shape\n"


@pytest.mark.parametrize(
    "command", ["validate", "tensor", "check", "diagonalize", "realify", "limit"]
)
def test_only_simulate_takes_a_seed(command):
    # the other subcommands draw no random numbers
    with pytest.raises(SystemExit) as exc:
        main([command, "input.json", "--seed", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["validate"],
        ["tensor"],
        ["check"],
        ["diagonalize"],
        ["realify"],
        ["limit"],
        ["simulate", "--kind", "walk"],
    ],
    ids=lambda argv: argv[0],
)
def test_bad_tolerance_is_a_usage_error(capsys, argv, tol):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "input.json", *argv[1:], "--tol", tol])
    assert exc.value.code == 2
    assert "must be positive and finite" in capsys.readouterr().err


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def limit_family_doc(n):
    """The jump family at N = 2, a constant random family otherwise, and a tol."""
    if n == 2:
        return jump_family_doc(), 1e-7
    system = random_system(n, np.random.default_rng(n))
    return {"system": to_json("system", system)}, 1e-9


class TestLimitReport:
    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_report_is_the_spec_and_round_trips(self, tmp_path, n):
        doc, tol = limit_family_doc(n)
        f = write_json(tmp_path / "family.json", doc)
        out = tmp_path / "limit.json"
        assert main(["limit", f, "--out", str(out), "--tol", str(tol)]) == 0
        family = serialize.family_from_json(doc)
        spec = classify(limit_tensor(family, tol=tol), tol=tol)

        report = json.loads(out.read_text())
        assert set(report.pop("diagnostics")) == {
            "worst_order",
            "extrapolation_error",
            "structure_residuals",
        }
        assert "M" not in report
        assert report == to_json("limitspec", spec)
        back = serialize.limitspec_from_json(report)
        assert back.dim == spec.dim
        for name in (
            "lambda_matrix",
            "v_matrix",
            "poisson_dirs",
            "intensities",
            "brownian_basis",
        ):
            assert same_bits(getattr(back, name), getattr(spec, name)), name
        # M is rebuilt from the Poisson directions, to the tolerance of its checks
        scale = np.max(np.abs(spec.tensor.entries))
        gap = np.max(np.abs(back.tensor.entries - spec.tensor.entries))
        assert gap <= _bound(DEFAULT_TOL, scale)
        assert back.tensor.has_constant == spec.tensor.has_constant

    def old_and_new_reports(self, tmp_path, m=None):
        """Spec files of the jump family without "M", and with ``m`` (default
        the spec's own M) as the format before it was dropped wrote it."""
        family = serialize.family_from_json(jump_family_doc())
        spec = classify(limit_tensor(family, tol=1e-7), tol=1e-7)
        new = to_json("limitspec", spec)
        old = dict(new, M=to_json("tensor", spec.tensor if m is None else m))
        return write_json(tmp_path / "new.json", new), write_json(tmp_path / "old.json", old)

    def simulate_bytes(self, tmp_path, spec_file):
        stats, paths = tmp_path / "stats.json", tmp_path / "paths.csv"
        argv = [
            "simulate", spec_file, "--kind", "limit", "--T", "0.5", "--dt", "0.01",
            "--paths", "20", "--max-csv-paths", "3", "--seed", "5",
            "--stats", str(stats), "--out", str(paths),
        ]
        assert main(argv) == 0
        return stats.read_text(), paths.read_text()

    def test_report_with_m_simulates_the_same(self, tmp_path):
        new, old = self.old_and_new_reports(tmp_path)
        assert self.simulate_bytes(tmp_path, old) == self.simulate_bytes(tmp_path, new)

    def test_report_with_tampered_m_is_a_format_error(self, tmp_path, capsys):
        family = serialize.family_from_json(jump_family_doc())
        m = classify(limit_tensor(family, tol=1e-7), tol=1e-7).tensor.entries.copy()
        m[0, 1, 1] += 1e-6
        _, old = self.old_and_new_reports(tmp_path, Tensor3(m, has_constant=False))
        assert main(["simulate", old, "--kind", "limit", "--paths", "10"]) == 2
        assert "M differs from the tensor of its poisson directions" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_report_bytes_are_json_dumps(self, tmp_path, n):
        # the report skips json's cycle check and keeps its exact bytes
        doc, tol = limit_family_doc(n)
        f = write_json(tmp_path / "family.json", doc)
        out = tmp_path / "limit.json"
        assert main(["limit", f, "--out", str(out), "--tol", str(tol)]) == 0
        result = limit_tensor(serialize.family_from_json(doc), tol=tol)
        spec = classify(result, tol=tol)
        want = to_json("limitspec", spec)
        want["diagnostics"] = {
            "worst_order": result.worst_order,
            "extrapolation_error": result.noise,
            "structure_residuals": spec.structure.residuals(),
        }
        assert out.read_text() == json.dumps(want, sort_keys=True) + "\n"

    def test_report_needs_no_python_encoder(self, tmp_path, monkeypatch):
        # json.dumps with indent, and json.dump always, build their output
        # with json.encoder._make_iterencode, the pure-Python encoder
        f = write_json(tmp_path / "family.json", jump_family_doc())
        out = tmp_path / "limit.json"

        def python_encoder(*args, **kwargs):
            raise AssertionError("report written by the pure-Python JSON encoder")

        monkeypatch.setattr(json.encoder, "_make_iterencode", python_encoder)
        assert main(["limit", f, "--out", str(out), "--tol", "1e-7"]) == 0
        assert len(out.read_text().splitlines()) == 1


def plain_bytes(doc):
    return json.dumps(doc, sort_keys=True) + "\n"


def run_to_file(tmp_path, argv, out_flag="--out"):
    out = tmp_path / "report.json"
    rc = main([*argv, out_flag, str(out)])
    return rc, out.read_text()


class TestReportBytes:
    """Every subcommand writes json.dumps(<plain doc>, sort_keys=True) byte for byte.

    The plain documents come from the library and ``conftest.to_json``.
    """

    def reference_tensor(self):
        return tensor_of(ObtuseRV.from_values(REFERENCE_VALUES))

    def jump_limit(self):
        family = serialize.family_from_json(jump_family_doc())
        return classify(limit_tensor(family, tol=1e-7), tol=1e-7)

    def test_validate(self, tmp_path):
        f = write_json(tmp_path / "sys.json", reference_system_doc())
        report = validate_obtuse_system(REFERENCE_VALUES, tol=DEFAULT_TOL)
        want = {
            "ok": True,
            "probabilities": [float(p) for p in report.probabilities],
            "max_pair_residual": report.max_pair_residual,
            "worst_pair": list(report.worst_pair),
            "prob_sum_residual": report.prob_sum_residual,
            "mean_residual": report.mean_residual,
            "identity_residual": report.identity_residual,
        }
        assert run_to_file(tmp_path, ["validate", f]) == (0, plain_bytes(want))

    def test_tensor(self, tmp_path):
        f = write_json(tmp_path / "sys.json", reference_system_doc())
        want = to_json("tensor", self.reference_tensor())
        assert run_to_file(tmp_path, ["tensor", f]) == (0, plain_bytes(want))

    def test_check(self, tmp_path):
        tensor = self.reference_tensor()
        f = write_json(tmp_path / "t.json", to_json("tensor", tensor))
        want = {"ok": True, "symmetries": check_symmetries(tensor).residuals()}
        assert run_to_file(tmp_path, ["check", f]) == (0, plain_bytes(want))
        assert set(want["symmetries"]) == {"sym0", "sym1", "sym2", "sym3"}

    def test_check_limit(self, tmp_path):
        # a walk tensor's inner block is not doubly symmetric on its own
        tensor = self.reference_tensor()
        f = write_json(tmp_path / "t.json", to_json("tensor", tensor))
        want = {"ok": False, "structure": check_limit_symmetries(tensor).residuals()}
        assert run_to_file(tmp_path, ["check", f, "--limit"]) == (1, plain_bytes(want))

    @pytest.mark.parametrize("family", ["constant", "jump"])
    def test_check_limit_passes_a_limit_tensor(self, tmp_path, family):
        if family == "constant":
            limit, tol = limit_tensor(TensorFamily.constant(self.reference_tensor())), DEFAULT_TOL
        else:
            tensors = [tensor_of(ObtuseRV.from_values(jump_values(h))) for h in DEFAULT_STEPS]
            limit = limit_tensor(TensorFamily.from_samples(DEFAULT_STEPS, tensors), tol=1e-7)
            tol = 1e-9
        f = write_json(tmp_path / "m.json", to_json("tensor", limit.tensor))
        want = {"ok": True, "structure": check_limit_symmetries(limit, tol=tol).residuals()}
        got = run_to_file(tmp_path, ["check", f, "--limit", "--tol", str(tol)])
        assert got == (0, plain_bytes(want))
        assert set(want["structure"]) == LIMIT_CHECK_NAMES

    def test_diagonalize_system(self, tmp_path):
        tensor = self.reference_tensor()
        f = write_json(tmp_path / "t.json", to_json("tensor", tensor))
        want = to_json("system", obtuse_fixed_points(tensor, tol=DEFAULT_TOL))
        assert run_to_file(tmp_path, ["diagonalize", f]) == (0, plain_bytes(want))

    def test_diagonalize_inner_tensor(self, tmp_path):
        # a limit's M has no constant coordinate: the vectors-and-weights branch
        tensor = self.jump_limit().tensor
        assert not tensor.has_constant
        f = write_json(tmp_path / "m.json", to_json("tensor", tensor))
        result = diagonalize(tensor, tol=DEFAULT_TOL)
        assert len(result.vectors) > 0
        want = {
            "dim": tensor.dim,
            "vectors": [serialize.vector_to_json(v) for v in result.vectors],
            "weights": [float(w) for w in result.weights],
            "residual": result.residual,
        }
        assert run_to_file(tmp_path, ["diagonalize", f]) == (0, plain_bytes(want))

    def realify_doc(self):
        result = realify(self.reference_tensor(), tol=DEFAULT_TOL)
        return {
            "V": to_json("matrix", result.v),
            "R": to_json("tensor", result.real_tensor),
            "system": to_json("system", result.real_system),
            "imag_residual": result.imag_residual(),
        }

    def test_realify(self, tmp_path):
        f = write_json(tmp_path / "sys.json", reference_system_doc())
        assert run_to_file(tmp_path, ["realify", f]) == (0, plain_bytes(self.realify_doc()))

    def test_realify_tensor_file(self, tmp_path):
        # a tensor file goes through the same gate and writer as a system file
        f = write_json(tmp_path / "t.json", to_json("tensor", self.reference_tensor()))
        assert run_to_file(tmp_path, ["realify", f]) == (0, plain_bytes(self.realify_doc()))

    def test_limit(self, tmp_path):
        f = write_json(tmp_path / "family.json", jump_family_doc())
        family = serialize.family_from_json(jump_family_doc())
        result = limit_tensor(family, tol=1e-7)
        spec = classify(result, tol=1e-7)
        want = to_json("limitspec", spec)
        want["diagnostics"] = {
            "worst_order": result.worst_order,
            "extrapolation_error": result.noise,
            "structure_residuals": spec.structure.residuals(),
        }
        rc, text = run_to_file(tmp_path, ["limit", f, "--tol", "1e-7"])
        assert (rc, text) == (0, plain_bytes(want))

    @pytest.mark.parametrize("kind", ["walk", "limit"])
    def test_simulate_stats(self, tmp_path, kind):
        # every member goes to the CSV, whose end rows give the plain stats
        if kind == "walk":
            f = write_json(tmp_path / "in.json", reference_system_doc())
        else:
            f = write_json(tmp_path / "spec.json", to_json("limitspec", self.jump_limit()))
        csv_file = tmp_path / "paths.csv"
        argv = [
            "simulate", f, "--kind", kind, "--h", "0.1", "--dt", "0.1", "--T", "0.45",
            "--paths", "7", "--max-csv-paths", "7", "--seed", "3", "--out", str(csv_file),
        ]
        rc, text = run_to_file(tmp_path, argv, "--stats")
        with open(csv_file) as fh:
            rows = np.array(list(csv.reader(fh))[1:], dtype=float)
        last = rows[np.flatnonzero(np.diff(rows[:, 0], append=np.inf))]
        ends = np.empty((len(last), 1, (rows.shape[1] - 2) // 2), dtype=complex)
        ends.real[:, 0], ends.imag[:, 0] = last[:, 2::2], last[:, 3::2]
        want = serialize._plain(cli._ensemble_stats(ends, 0.45))
        assert (rc, text) == (0, plain_bytes(want))


class TestParserReuse:
    def test_handler_is_looked_up_per_call(self, tmp_path, monkeypatch):
        f = write_json(tmp_path / "family.json", {"system": reference_system_doc()})
        assert main(["limit", f, "--out", str(tmp_path / "a.json")]) == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_limit", lambda args: calls.append(args) or 0)
        assert main(["limit", f]) == 0
        assert [args.input for args in calls] == [f]

    def test_out_does_not_stick(self, tmp_path, capsys):
        f = write_json(tmp_path / "family.json", {"system": reference_system_doc()})
        out = tmp_path / "limit.json"
        assert main(["limit", f, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["limit", f]) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(out.read_text())

    def test_limit_flag_does_not_stick(self, tmp_path, capsys):
        rv = ObtuseRV.from_values(REFERENCE_VALUES)
        f = write_json(tmp_path / "t.json", to_json("tensor", tensor_of(rv)))
        main(["check", f, "--limit"])
        assert "structure" in json.loads(capsys.readouterr().out)
        assert main(["check", f]) == 0
        assert "structure" not in json.loads(capsys.readouterr().out)


RAGGED_TENSOR = {"dim": 2, "entries": [[[1, 0], [0, 1]], [[0, 1]]]}


def one_dim_spec_doc(**parts):
    doc = {
        "dim": 1,
        "M": {"dim": 1, "constant_index": False, "entries": [[[0]]]},
        "Lambda": {"dim": 1, "entries": [[1]]},
        "V": {"dim": 1, "entries": [[1]]},
        "poisson": [],
        "brownian": [[1]],
    }
    doc.update(parts)
    return doc


def system_doc_with(entry):
    """The reference system file with its first scalar replaced by ``entry``."""
    doc = reference_system_doc()
    doc["values"][0][0] = entry
    return doc


def rate_spec_doc(rate):
    """A spec on C^1 whose one jump direction v = [1] declares the intensity ``rate``."""
    return {
        "Lambda": {"entries": [[1]]},
        "V": {"entries": [[1]]},
        "poisson": [{"v": [1], "intensity": rate}],
    }


# two atoms on C^1: an obtuse system whose probabilities are both 1/2
HALVES = {"values": [[1], [-1]]}
STRING_SCALAR = {"re": "abc", "im": 0.0}


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["check"], RAGGED_TENSOR),
        (["limit"], {"steps": [0.01, 0.005], "tensors": [RAGGED_TENSOR] * 2}),
        (["validate"], {"values": [[1, 2], [3]]}),
        (["validate"], {"values": [[1, 2], [3, 4]], "dim": "x"}),
        (["simulate", "--kind", "limit"], one_dim_spec_doc(brownian=[[1, 2]])),
        (
            ["simulate", "--kind", "limit"],
            one_dim_spec_doc(poisson=[{"v": [1, 2], "intensity": 1.0}], brownian=[]),
        ),
        (
            ["simulate", "--kind", "limit"],
            one_dim_spec_doc(poisson=[{"v": [1], "intensity": -1.0}], brownian=[]),
        ),
        (["tensor"], system_doc_with(STRING_SCALAR)),
        (["check"], {"dim": 1, "entries": [[[STRING_SCALAR]]]}),
        (["limit"], {"system": system_doc_with(STRING_SCALAR)}),
        (["limit"], {"steps": [0.1], "tensors": 5}),
        (["limit"], {"steps": [0.1], "systems": 5}),
        (["validate"], dict(HALVES, probabilities=[0.5])),
        (["tensor"], dict(HALVES, probabilities=[0.5])),
        (["validate"], dict(HALVES, probabilities=[0.5, float("nan")])),
        (["validate"], system_doc_with(True)),
        (["check"], {"dim": 1, "constant_index": "no", "entries": [[[1]]]}),
        (["validate"], dict(HALVES, dim=1.5)),
        (["realify"], 5),
        (["simulate", "--kind", "limit"], rate_spec_doc(5)),
        (["simulate", "--kind", "limit"], one_dim_spec_doc(brownian=[[3]])),
        (["simulate", "--kind", "limit"], one_dim_spec_doc(brownian=[[1e308]])),
        (["validate"], {"values": []}),
        (["check"], {"entries": []}),
    ],
    ids=[
        "check-ragged-tensor",
        "limit-ragged-tensor",
        "validate-ragged-system",
        "validate-dim-not-int",
        "simulate-brownian-length",
        "simulate-poisson-length",
        "simulate-negative-intensity",
        "tensor-string-scalar",
        "check-string-scalar",
        "limit-string-scalar",
        "limit-tensors-not-a-list",
        "limit-systems-not-a-list",
        "validate-short-probabilities",
        "tensor-short-probabilities",
        "validate-nan-probability",
        "validate-boolean-scalar",
        "check-string-constant-index",
        "validate-fractional-dim",
        "realify-not-an-object",
        "simulate-rate-not-inverse-norm",
        "simulate-brownian-row-not-unit",
        "simulate-brownian-row-overflows",
        "validate-empty-values",
        "check-empty-entries",
    ],
)
def test_malformed_input_exits_2(tmp_path, capsys, argv, doc):
    f = write_json(tmp_path / "in.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([argv[0], f, *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv", [["validate"], ["tensor"], ["realify"], ["limit"], ["simulate", "--kind", "walk"]]
)
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-1e400"])
def test_non_finite_system_entry_is_a_format_error(tmp_path, capsys, argv, value):
    text = '{"values": [[-1], [%s]]}' % value
    if argv[0] == "limit":
        text = '{"system": %s}' % text
    f = tmp_path / "in.json"
    f.write_text(text)
    assert main([argv[0], str(f), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: system values[1][0] is not finite: "), err


@pytest.mark.parametrize("command", ["diagonalize", "realify", "limit"])
def test_twice_a_tensor_owes_sym0(tmp_path, capsys, command):
    # twice a valid flagged tensor is doubly symmetric but breaks S^{i0}_k =
    # delta_ik: diagonalize (which recovers the system of a flagged tensor),
    # realify and a family of three copies give one answer, naming sym0
    tensor = tensor_of(ObtuseRV.from_values(REFERENCE_VALUES))
    doc = to_json("tensor", Tensor3(2 * tensor.entries))
    if command == "limit":
        doc = {"steps": [0.1, 0.025, 0.00625], "tensors": [doc] * 3}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, write_json(tmp_path / "twice.json", doc)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: NotDoublySymmetric: [^\n]*sym0[^\n]*\n", err), err


def test_non_finite_tensor_entry_names_the_entry(tmp_path, capsys):
    doc = to_json("tensor", tensor_of(ObtuseRV.from_values(REFERENCE_VALUES)))
    doc["entries"][1][2][0] = {"re": 0.5, "im": float("nan")}
    assert main(["check", write_json(tmp_path / "t.json", doc)]) == 2
    assert capsys.readouterr().err == "error: tensor entries[1][2][0] is not finite: (0.5+nanj)\n"


class TestSimulate:
    def test_walk_stats(self, tmp_path, capsys):
        f = write_json(tmp_path / "sys.json", reference_system_doc())
        csv_file = str(tmp_path / "paths.csv")
        assert (
            main(
                [
                    "simulate", f, "--kind", "walk", "--h", "0.01", "--T", "1.0",
                    "--paths", "500", "--seed", "1", "--out", csv_file,
                ]
            )
            == 0
        )
        stats = json.loads(capsys.readouterr().out)
        assert stats["n_paths"] == 500
        cov = serialize.matrix_from_json(stats["cov_conj_over_T"])
        assert np.max(np.abs(cov - np.eye(2))) <= 0.2
        with open(csv_file) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["path", "t", "re_1", "im_1", "re_2", "im_2"]
        assert len(rows) == 1 + 10 * 101  # header + 10 paths of 101 samples

    def test_zero_paths(self, tmp_path, capsys):
        f = write_json(tmp_path / "sys.json", reference_system_doc())
        assert main(["simulate", f, "--kind", "walk", "--paths", "0"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats == {"n_paths": 0}

    def test_spec_over_the_memory_budget_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # one direction in C^1: rebuilding M asks for 16 * 2 + 17 + 2**17 bytes,
        # which the default budget holds
        f = write_json(tmp_path / "spec.json", rate_spec_doc(1))
        assert main(["simulate", f, "--kind", "limit", "--paths", "10"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(obtuse, "MEMORY_BYTES", 16 * 2 + 17 + 2**17 - 1)
        assert main(["simulate", f, "--kind", "limit", "--paths", "10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: TooLarge: ") and err.count("\n") == 1, err

    def test_limit_simulation_from_spec_file(self, tmp_path, capsys):
        f = write_json(
            tmp_path / "family.json", {"system": reference_system_doc()}
        )
        spec_file = str(tmp_path / "spec.json")
        assert main(["limit", f, "--out", spec_file]) == 0
        assert (
            main(
                [
                    "simulate", spec_file, "--kind", "limit", "--T", "1.0",
                    "--dt", "0.01", "--paths", "200", "--seed", "2",
                ]
            )
            == 0
        )
        stats = json.loads(capsys.readouterr().out)
        assert stats["n_paths"] == 200

    def test_deterministic_outputs(self, tmp_path):
        f = write_json(tmp_path / "sys.json", reference_system_doc())
        outs = []
        for name in ("a.json", "b.json"):
            stats_file = str(tmp_path / name)
            assert (
                main(
                    [
                        "simulate", f, "--kind", "walk", "--paths", "100",
                        "--seed", "7", "--stats", stats_file,
                    ]
                )
                == 0
            )
            outs.append((tmp_path / name).read_text())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("kind", ["walk", "limit"])
    def test_csv_paths_are_ensemble_members(self, tmp_path, capsys, kind):
        # the first --max-csv-paths members are drawn on the fine grid, so with
        # every member on disk the stats are the moments of the CSV end rows
        if kind == "walk":
            f = write_json(tmp_path / "in.json", reference_system_doc())
        else:
            f = str(tmp_path / "spec.json")
            family = write_json(tmp_path / "family.json", jump_family_doc())
            assert main(["limit", family, "--tol", "1e-7", "--out", f]) == 0
        csv_file = str(tmp_path / "paths.csv")
        argv = [
            "simulate", f, "--kind", kind, "--h", "0.1", "--dt", "0.1", "--T", "0.45",
            "--paths", "6", "--max-csv-paths", "6", "--seed", "3", "--out", csv_file,
        ]
        assert main(argv) == 0
        stats = json.loads(capsys.readouterr().out)
        with open(csv_file) as fh:
            rows = np.array(list(csv.reader(fh))[1:], dtype=float)
        last = np.flatnonzero(np.diff(rows[:, 0], append=np.inf))
        assert rows[last, 0].tolist() == list(range(6))
        assert np.all(rows[last, 1] == 0.45)
        ends = rows[last, 2::2] + 1j * rows[last, 3::2]
        assert stats == json.loads(serialize.dumps(cli._ensemble_stats(ends[:, None, :], 0.45)))

    @pytest.mark.parametrize("kind", ["walk", "limit"])
    def test_csv_rows_are_the_sampler_on_the_fine_grid(self, tmp_path, kind):
        # floats are written by repr, so each row reads back as the sampler's
        # value on the fine grid, drawn first from the stream [seed]
        times, rng = simulate._path_grid(0.45, 0.1, 2), np.random.default_rng([3])
        if kind == "walk":
            f = write_json(tmp_path / "in.json", reference_system_doc())
            rv = ObtuseRV.from_values(REFERENCE_VALUES)
            values = simulate._walk_sample(rv, 0.1, times, 4, rng)
        else:
            f = str(tmp_path / "spec.json")
            family = write_json(tmp_path / "family.json", jump_family_doc())
            assert main(["limit", family, "--tol", "1e-7", "--out", f]) == 0
            with open(f, encoding="utf-8") as fh:
                spec = serialize.limitspec_from_json(json.load(fh))
            values = simulate._limit_sample(spec, times, 4, rng)
        csv_file = tmp_path / "paths.csv"
        argv = [
            "simulate", f, "--kind", kind, "--h", "0.1", "--dt", "0.1", "--T", "0.45",
            "--paths", "9", "--max-csv-paths", "4", "--seed", "3", "--out", str(csv_file),
        ]
        assert main(argv) == 0
        want = [
            [k, t, *(part for z in row for part in (z.real, z.imag))]
            for k, path in enumerate(values)
            for t, row in zip(times, path)
        ]
        with open(csv_file, encoding="utf-8") as fh:
            rows = np.array(list(csv.reader(fh))[1:], dtype=float)
        assert rows.shape == (4 * len(times), 6)
        assert np.array_equal(rows, np.array(want))

    def test_csv_paths_lead_the_ensemble(self, tmp_path, capsys):
        # writing paths changes which grid the first members are drawn on,
        # not the stream: the walk's atom counts at T are the same draws
        f = write_json(tmp_path / "sys.json", reference_system_doc())
        argv = ["simulate", f, "--kind", "walk", "--h", "0.25", "--T", "0.25", "--paths", "40"]
        assert main(argv) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main([*argv, "--out", str(tmp_path / "p.csv")]) == 0
        assert json.loads(capsys.readouterr().out) == plain

    @pytest.mark.parametrize("option", ["--paths", "--max-csv-paths", "--seed"])
    def test_negative_counts_are_usage_errors(self, tmp_path, capsys, option):
        f = write_json(tmp_path / "sys.json", reference_system_doc())
        with pytest.raises(SystemExit) as exc:
            main(["simulate", f, "--kind", "walk", option, "-1"])
        assert exc.value.code == 2
        assert "must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "options, error",
        [
            (["--h", "nan"], "NonPositiveStep"),
            (["--h", "inf"], "NonPositiveStep"),
            (["--h", "0"], "NonPositiveStep"),
            (["--T", "nan"], "DimensionMismatch"),
            (["--T", "inf"], "DimensionMismatch"),
            (["--h", "1e-12", "--T", "1e6", "--out", "x.csv"], "PathTooLarge"),
        ],
        ids=["h-nan", "h-inf", "h-zero", "T-nan", "T-inf", "path-too-large"],
    )
    def test_bad_walk_steps_are_typed(self, tmp_path, capsys, monkeypatch, options, error):
        monkeypatch.chdir(tmp_path)
        f = write_json(tmp_path / "sys.json", reference_system_doc())
        assert main(["simulate", f, "--kind", "walk", "--paths", "10", *options]) == 1
        assert capsys.readouterr().err.startswith(f"error: {error}: ")

    @pytest.mark.parametrize("route", [[], ["--out", "paths.csv"]], ids=["stats", "csv"])
    @pytest.mark.parametrize(
        "kind, options, error",
        [
            ("walk", ["--T", "0"], "NonPositiveStep"),
            ("walk", ["--h", "0.1", "--T", "0.05"], "NonPositiveStep"),
            ("walk", ["--T", "-1"], "DimensionMismatch"),
            ("limit", ["--T", "0"], "NonPositiveStep"),
            ("limit", ["--dt", "nan"], "NonPositiveStep"),
            ("limit", ["--dt", "0"], "NonPositiveStep"),
            ("limit", ["--T", "nan"], "DimensionMismatch"),
        ],
        ids=["walk-T-zero", "walk-T-below-h", "walk-T-negative", "limit-T-zero",
             "limit-dt-nan", "limit-dt-zero", "limit-T-nan"],
    )
    def test_grid_checks_hold_with_or_without_csv(
        self, tmp_path, capsys, monkeypatch, kind, options, error, route
    ):
        monkeypatch.chdir(tmp_path)
        if kind == "walk":
            f = write_json(tmp_path / "in.json", reference_system_doc())
        else:
            rv = ObtuseRV.from_values(REFERENCE_VALUES)
            spec = classify(limit_tensor(TensorFamily.constant(tensor_of(rv))))
            f = write_json(tmp_path / "in.json", to_json("limitspec", spec))
        assert main(["simulate", f, "--kind", kind, "--paths", "10", *options, *route]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {error}: ")
        assert not (tmp_path / "paths.csv").exists()

    @pytest.mark.parametrize("kind", ["walk", "limit"])
    def test_ensemble_over_budget_fails_before_allocating(self, tmp_path, capsys, kind):
        # 1e11 paths would take 2.91 TiB at N = 2
        if kind == "walk":
            f = write_json(tmp_path / "in.json", reference_system_doc())
        else:
            rv = ObtuseRV.from_values(REFERENCE_VALUES)
            spec = classify(limit_tensor(TensorFamily.constant(tensor_of(rv))))
            f = write_json(tmp_path / "in.json", to_json("limitspec", spec))
        args = ["simulate", f, "--kind", kind, "--stats", str(tmp_path / "s.json")]
        assert main([*args, "--paths", "1"]) == 0  # loads what the command imports
        tracemalloc.start()
        try:
            assert main([*args, "--paths", "100000000000"]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: PathTooLarge: ")
        assert peak < 2**20


def start_child(argv, cwd):
    """``python -m obtusewalk.cli`` on ``argv`` in a child process, under a hash
    seed other than this process's."""
    seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    return subprocess.Popen(
        [sys.executable, "-m", "obtusewalk.cli", *argv],
        cwd=cwd, env=child_env(PYTHONHASHSEED=seed),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def child_result(child):
    """A child's exit code, stdout and stderr, once it has ended."""
    out, err = child.communicate(timeout=120)
    return child.returncode, out, err


def test_console_process(tmp_path, monkeypatch):
    # what only a process of its own shows: bytes that no hash seed changes, and
    # exit codes and stderr through sys.exit; six children run side by side, and
    # each output is checked against the same run in this process, whose hash
    # seed differs
    system32 = tmp_path / "system32.json"
    system32.write_text(
        serialize.dumps(serialize.system_doc(random_system(32, np.random.default_rng(32)))) + "\n"
    )
    system = write_json(tmp_path / "system.json", reference_system_doc())
    family = write_json(tmp_path / "family.json", {"system": reference_system_doc()})
    spec = str(tmp_path / "spec.json")
    assert main(["limit", family, "--out", spec]) == 0
    # with --out, one stream feeds the CSV members on the fine grid, then the rest
    sampled = ["--paths", "20", "--max-csv-paths", "3", "--seed", "5"]
    runs = [
        ["tensor", str(system32), "--out", "tensor-32.json"],
        ["realify", str(system32), "--out", "realify-32.json"],
        ["simulate", system, "--kind", "walk", *sampled, "--out", "walk.csv", "--stats", "walk.json"],
        ["simulate", spec, "--kind", "limit", *sampled, "--out", "limit.csv", "--stats", "limit.json"],
    ]
    # a domain failure exits 1, a malformed file 2
    huge = write_json(tmp_path / "huge.json", {"values": [[1e160], [-1e-160]]})
    mistyped = write_json(tmp_path / "mistyped.json", {"values": [[{"re": "abc"}], [-1]]})
    failures = [(["tensor", huge], 1), (["tensor", mistyped], 2)]
    child, own = tmp_path / "child", tmp_path / "own"
    child.mkdir()
    own.mkdir()
    children = [start_child(argv, child) for argv in runs + [argv for argv, _ in failures]]
    monkeypatch.chdir(own)
    for argv in runs:
        assert main(argv) == 0
    results = [child_result(c) for c in children]
    assert results[: len(runs)] == [(0, "", "")] * len(runs)
    for (rc, out, err), (_, code) in zip(results[len(runs) :], failures):
        assert (rc, out) == (code, ""), err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err and "Warning" not in err, err
    names = ["limit.csv", "limit.json", "realify-32.json", "tensor-32.json", "walk.csv", "walk.json"]
    assert sorted(p.name for p in child.iterdir()) == sorted(p.name for p in own.iterdir()) == names
    for name in names:
        assert (child / name).read_bytes() == (own / name).read_bytes(), name
    for name in ("tensor-32.json", "realify-32.json"):
        text = (child / name).read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n", name
    # a header and 3 paths on the fine grids of h = 0.01 and dt = 0.001
    assert (child / "walk.csv").read_bytes().count(b"\n") == 304
    assert (child / "limit.csv").read_bytes().count(b"\n") == 3004
