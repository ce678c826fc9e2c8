"""Batch command-line front end.

Subcommands wrap the library operations one-to-one: validate a system file,
compute its tensor, diagonalize or realify a tensor, extrapolate and
classify a limit from a sampled family, simulate walks or limit processes,
and check symmetry/structure relations.  Only ``simulate`` draws random
numbers, from ``--seed``; every other subcommand is deterministic.  Reports
go to stdout, or to ``--out``, as one-line JSON with full double precision
and sorted keys.  They are written without indentation because only then
does the json module use its C encoder; the Python encoder it falls back to
costs more than the mathematics behind a report.  The argument parser is
built once per process and finds each subcommand's handler by name when
``main`` runs.

Exit codes: 0 success, 1 domain failure (invalid mathematical input), 2
usage, parse or I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

import numpy as np

from . import limits, serialize, simulate
from .errors import ObtuseWalkError
from .obtuse import (
    DEFAULT_TOL,
    ObtuseRV,
    check_symmetries,
    tensor_of,
    validate_obtuse_system,
)
from .serialize import FormatError
from .tensor import obtuse_fixed_points, diagonalize, realify


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _emit(doc, out: str | None) -> None:
    # dumps, not dump: json.dump always runs the Python encoder.
    text = json.dumps(doc, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_system(path: str, tol: float) -> ObtuseRV:
    values, probs = serialize.system_values_from_json(_load_json(path))
    rv = ObtuseRV.from_values(values, tol=tol)
    if probs is not None and np.max(np.abs(probs - rv.probabilities)) > max(tol, 1e-9):
        raise ObtuseWalkError("declared probabilities disagree with the values")
    return rv


def cmd_validate(args) -> int:
    doc = _load_json(args.input)
    values, probs = serialize.system_values_from_json(doc)
    report = validate_obtuse_system(values, tol=args.tol)
    ok = report.ok
    if probs is not None and np.max(np.abs(probs - report.probabilities)) > max(
        args.tol, 1e-9
    ):
        ok = False
    out = {
        "ok": bool(ok),
        "probabilities": [float(p) for p in report.probabilities],
        "max_pair_residual": report.max_pair_residual,
        "worst_pair": list(report.worst_pair),
        "prob_sum_residual": report.prob_sum_residual,
        "mean_residual": report.mean_residual,
        "identity_residual": report.identity_residual,
    }
    _emit(out, args.out)
    return 0 if ok else 1


def cmd_tensor(args) -> int:
    rv = _load_system(args.input, args.tol)
    _emit(serialize.tensor_to_json(tensor_of(rv)), args.out)
    return 0


def cmd_check(args) -> int:
    tensor = serialize.tensor_from_json(_load_json(args.input))
    report = check_symmetries(tensor, tol=args.tol)
    out = {"symmetries": report.residuals(), "ok": bool(report.ok)}
    if args.limit:
        lim = limits.check_limit_symmetries(tensor, tol=args.tol)
        out["structure"] = lim.residuals()
        out["ok"] = bool(report.ok and lim.ok)
    _emit(out, args.out)
    return 0 if out["ok"] else 1


def cmd_diagonalize(args) -> int:
    tensor = serialize.tensor_from_json(_load_json(args.input))
    if tensor.has_constant:
        system = obtuse_fixed_points(tensor, tol=args.tol)
        _emit(serialize.system_to_json(system), args.out)
    else:
        result = diagonalize(tensor, tol=args.tol)
        _emit(
            {
                "dim": tensor.dim,
                "vectors": [serialize.vector_to_json(v) for v in result.vectors],
                "weights": [float(w) for w in result.weights],
                "residual": result.residual,
            },
            args.out,
        )
    return 0


def cmd_realify(args) -> int:
    doc = _load_json(args.input)
    if "values" in doc:
        values, _ = serialize.system_values_from_json(doc)
        tensor = tensor_of(ObtuseRV.from_values(values, tol=args.tol))
    else:
        tensor = serialize.tensor_from_json(doc)
    result = realify(tensor, tol=args.tol)
    _emit(
        {
            "V": serialize.matrix_to_json(result.v),
            "R": serialize.tensor_to_json(result.real_tensor),
            "system": serialize.system_to_json(result.real_system),
            "imag_residual": result.imag_residual(),
        },
        args.out,
    )
    return 0


def cmd_limit(args) -> int:
    family = serialize.family_from_json(_load_json(args.input), limits.DEFAULT_STEPS)
    result = limits.limit_tensor(family, tol=args.tol)
    spec = limits.classify(result, tol=args.tol)
    doc = serialize.limitspec_to_json(spec)
    doc["diagnostics"] = {
        "worst_difference_ratio": result.worst_ratio,
        "structure_residuals": spec.structure.residuals(),
    }
    _emit(doc, args.out)
    return 0


def _write_paths_csv(path: str, times: np.ndarray, values: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["path", "t"]
        for i in range(1, values.shape[2] + 1):
            header += [f"re_{i}", f"im_{i}"]
        writer.writerow(header)
        for idx, path_values in enumerate(values):
            for t, row in zip(times, path_values):
                out = [idx, repr(float(t))]
                for z in row:
                    out += [repr(float(z.real)), repr(float(z.imag))]
                writer.writerow(out)


def _ensemble_stats(values: np.ndarray, T: float) -> dict:
    if values.shape[0] == 0:
        return {"n_paths": 0}
    mean, cov_conj, cov_plain, abs4 = (m[-1] for m in simulate._moments(values[:, -1:, :]))
    return {
        "n_paths": int(values.shape[0]),
        "T": float(T),
        "mean": serialize.vector_to_json(mean),
        "cov_conj_over_T": serialize.matrix_to_json(cov_conj / T),
        "cov_plain_over_T": serialize.matrix_to_json(cov_plain / T),
        "abs4": [float(x) for x in abs4],
    }


def cmd_simulate(args) -> int:
    # one ensemble from the stream [seed]: CSV members first, on the fine grid
    doc = _load_json(args.input)
    n_csv = min(args.paths, args.max_csv_paths) if args.out else 0
    if args.kind == "walk":
        values, _ = serialize.system_values_from_json(doc)
        rv = ObtuseRV.from_values(values, tol=args.tol)
        final = simulate._check([args.T], args.paths, args.h)
        grid = functools.partial(simulate._path_grid, args.T, args.h, rv.dim, min_steps=1)
        sample = functools.partial(simulate._walk_sample, rv, args.h)
    else:
        spec = serialize.limitspec_from_json(doc)
        final = simulate._check([args.T], args.paths)
        grid = functools.partial(simulate._path_grid, args.T, args.dt, spec.dim)
        sample = functools.partial(simulate._limit_sample, spec)
    times = grid(n_paths=n_csv) if n_csv else final
    rng = np.random.default_rng([args.seed])
    paths = sample(times, n_csv, rng)
    rest = sample(final, args.paths - n_csv, rng)
    stats = _ensemble_stats(np.concatenate([paths[:, -1:], rest]), args.T)
    if args.out:
        _write_paths_csv(args.out, times, paths)
    _emit(stats, args.stats)
    return 0


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="numerical tolerance")
    p.add_argument("--out", default=None, help="output file (default stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obtusewalk",
        description="Obtuse random walks, their 3-tensors and continuous-time limits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an obtuse system file")
    p.add_argument("input")
    _add_common(p)

    p = sub.add_parser("tensor", help="3-tensor of an obtuse system")
    p.add_argument("input")
    _add_common(p)

    p = sub.add_parser("check", help="symmetry relations of a tensor file")
    p.add_argument("input")
    p.add_argument("--limit", action="store_true", help="also check limit structure")
    _add_common(p)

    p = sub.add_parser("diagonalize", help="orthogonal family of a tensor")
    p.add_argument("input")
    _add_common(p)

    p = sub.add_parser("realify", help="rotate a tensor or system to a real one")
    p.add_argument("input")
    _add_common(p)

    p = sub.add_parser("limit", help="limit tensor and classification of a family")
    p.add_argument("input")
    _add_common(p)

    p = sub.add_parser("simulate", help="simulate walk or limit paths")
    p.add_argument("input", help="system file (walk) or limit-spec file (limit)")
    p.add_argument("--kind", choices=["walk", "limit"], required=True)
    p.add_argument("--h", type=float, default=0.01, help="walk time step")
    p.add_argument("--T", type=float, default=1.0, help="time horizon")
    p.add_argument("--dt", type=float, default=0.001, help="limit-path grid step")
    p.add_argument("--paths", type=_count, default=1000, help="number of paths")
    p.add_argument(
        "--max-csv-paths",
        type=_count,
        default=10,
        help="cap on the number of paths written to CSV",
    )
    p.add_argument("--stats", default=None, help="stats JSON file (default stdout)")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    _add_common(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command](args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ObtuseWalkError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
