"""Command-line interface: exit codes, file round trips, determinism."""

import csv
import json

import numpy as np
import pytest

from obtusewalk import (
    ObtuseRV,
    classify,
    cli,
    limit_tensor,
    random_system,
    serialize,
    tensor_of,
)
from obtusewalk.cli import main
from obtusewalk.limits import DEFAULT_STEPS
from conftest import (
    JUMP_POISSON_DIR,
    REFERENCE_PROBS,
    REFERENCE_VALUES,
    greedy_match,
    jump_values,
    reference_tensor_entries,
)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


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
        f = write_json(
            tmp_path / "t.json", serialize.tensor_to_json(tensor_of(rv))
        )
        assert main(["check", f]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"]
        assert max(report["symmetries"].values()) <= 1e-10

    def test_broken_tensor(self, tmp_path, capsys):
        rv = ObtuseRV.from_values(REFERENCE_VALUES)
        doc = serialize.tensor_to_json(tensor_of(rv))
        doc["entries"][0][0][0] = {"re": 1.5, "im": 0.0}
        f = write_json(tmp_path / "t.json", doc)
        assert main(["check", f]) == 1

    def test_one_dimensional_limit_tensor(self, tmp_path, capsys):
        f = write_json(tmp_path / "t.json", ONE_DIM_TENSOR_DOC)
        assert main(["check", f, "--limit"]) == 1
        assert "error: DimensionMismatch" in capsys.readouterr().err


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
        assert 0.0 < doc["diagnostics"]["worst_difference_ratio"] < 1.0
        assert max(doc["diagnostics"]["structure_residuals"].values()) <= 1e-8

    def test_constant_family_file(self, tmp_path, capsys):
        f = write_json(
            tmp_path / "family.json", {"system": reference_system_doc()}
        )
        assert main(["limit", f]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["poisson"] == []
        lam = serialize.matrix_from_json(doc["Lambda"])
        v = serialize.matrix_from_json(doc["V"])
        assert np.max(np.abs(v @ v.T - lam)) <= 1e-9

    def test_one_dimensional_family(self, tmp_path, capsys):
        tensors = [ONE_DIM_TENSOR_DOC] * len(DEFAULT_STEPS)
        f = write_json(
            tmp_path / "family.json", {"steps": list(DEFAULT_STEPS), "tensors": tensors}
        )
        assert main(["limit", f]) == 1
        assert "error: DimensionMismatch" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", ["validate", "tensor", "check", "diagonalize", "realify", "limit"]
)
def test_only_simulate_takes_a_seed(command):
    # the other subcommands draw no random numbers
    with pytest.raises(SystemExit) as exc:
        main([command, "input.json", "--seed", "1"])
    assert exc.value.code == 2


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestLimitReport:
    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_report_is_the_spec_and_round_trips(self, tmp_path, n):
        if n == 2:
            doc, tol = jump_family_doc(), 1e-7
        else:
            system = random_system(n, np.random.default_rng(n))
            doc, tol = {"system": serialize.system_to_json(system)}, 1e-9
        f = write_json(tmp_path / "family.json", doc)
        out = tmp_path / "limit.json"
        assert main(["limit", f, "--out", str(out), "--tol", str(tol)]) == 0
        family = serialize.family_from_json(doc, DEFAULT_STEPS)
        spec = classify(limit_tensor(family, tol=tol), tol=tol)

        report = json.loads(out.read_text())
        assert set(report.pop("diagnostics")) == {
            "worst_difference_ratio",
            "structure_residuals",
        }
        assert report == serialize.limitspec_to_json(spec)
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
        assert same_bits(back.tensor.entries, spec.tensor.entries)
        assert back.tensor.has_constant == spec.tensor.has_constant

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
        f = write_json(tmp_path / "t.json", serialize.tensor_to_json(tensor_of(rv)))
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
    ],
    ids=[
        "check-ragged-tensor",
        "limit-ragged-tensor",
        "validate-ragged-system",
        "validate-dim-not-int",
        "simulate-brownian-length",
        "simulate-poisson-length",
        "simulate-negative-intensity",
    ],
)
def test_malformed_input_exits_2(tmp_path, capsys, argv, doc):
    f = write_json(tmp_path / "in.json", doc)
    assert main([argv[0], f, *argv[1:]]) == 2
    assert capsys.readouterr().err.startswith("error: ")


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
        assert stats == cli._ensemble_stats(ends[:, None, :], 0.45)

    def test_csv_paths_lead_the_ensemble(self, tmp_path, capsys):
        # writing paths changes which grid the first members are drawn on,
        # not the stream: the walk's atom counts at T are the same draws
        f = write_json(tmp_path / "sys.json", reference_system_doc())
        argv = ["simulate", f, "--kind", "walk", "--h", "0.25", "--T", "0.25", "--paths", "40"]
        assert main(argv) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main([*argv, "--out", str(tmp_path / "p.csv")]) == 0
        assert json.loads(capsys.readouterr().out) == plain

    @pytest.mark.parametrize("option", ["--paths", "--max-csv-paths"])
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
