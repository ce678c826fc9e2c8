"""JSON formats for systems, matrices, tensors, limit specs and families.

Complex scalars are objects {"re": ..., "im": ...}; vectors are lists of
scalars, matrices {"dim", "entries"} with entries[i][j], tensors
{"dim", "entries"} with entries[i][j][k] plus an optional "constant_index"
flag (default true) marking whether index 0 is the constant coordinate.
Floats are emitted with full round-trip precision by the json module.

Writers build a whole array's nested scalar objects in one pass over its
real and imaginary parts (``_complex_lists``); readers parse nested lists
of scalars back into one array (``_complex_array``) and turn ragged,
misnested or mistyped input into ``FormatError``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .limits import LimitSpec, TensorFamily
from .obtuse import ObtuseSystem, Tensor3


class FormatError(ValueError):
    """Raised when a JSON document does not match the expected schema."""


def complex_to_json(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def complex_from_json(obj) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    try:
        return complex(float(obj["re"]), float(obj.get("im", 0.0)))
    except (TypeError, KeyError) as exc:
        raise FormatError(f"not a complex scalar: {obj!r}") from exc


def _complex_lists(arr) -> list:
    """Nested lists of {"re", "im"} objects with the shape of ``arr``.

    Equal to ``complex_to_json`` applied entry by entry, but the floats come
    from one ``tolist`` per part instead of a ``complex`` per numpy scalar.
    """
    arr = np.asarray(arr, dtype=complex)
    if arr.size == 0:
        return arr.real.tolist()
    out = [
        {"re": re, "im": im}
        for re, im in zip(arr.real.ravel().tolist(), arr.imag.ravel().tolist())
    ]
    for n in reversed(arr.shape[1:]):
        out = [out[k : k + n] for k in range(0, len(out), n)]
    return out


def _complex_array(obj, ndim: int, what: str) -> np.ndarray:
    """Complex array with ``ndim`` axes from nested lists of complex scalars."""

    def parse(x, depth):
        if not isinstance(x, list):
            raise FormatError(f"{what} must be nested lists of depth {ndim}")
        if depth == ndim - 1:
            return [complex_from_json(z) for z in x]
        return [parse(y, depth + 1) for y in x]

    nested = parse(obj, 0)
    try:
        arr = np.array(nested, dtype=complex)
    except ValueError as exc:
        raise FormatError(f"{what} must be a rectangular {ndim}-d array") from exc
    if arr.ndim != ndim:
        raise FormatError(f"{what} must be a {ndim}-d array")
    return arr


def _floats(obj, what: str) -> list:
    try:
        return [float(x) for x in obj]
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{what} must be a list of numbers") from exc


def _check_dim(obj, actual: int, what: str) -> None:
    """Reject a declared "dim" that is not an integer or differs from ``actual``."""
    if "dim" not in obj:
        return
    try:
        dim = int(obj["dim"])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"dim must be an integer, got {obj['dim']!r}") from exc
    if dim != actual:
        raise FormatError(f"declared dim does not match the {what}")


def vector_to_json(vec) -> list:
    return _complex_lists(vec)


def matrix_to_json(mat) -> dict:
    arr = np.asarray(mat, dtype=complex)
    return {"dim": int(arr.shape[0]), "entries": _complex_lists(arr)}


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows = obj["entries"]
    except (TypeError, KeyError) as exc:
        raise FormatError("matrix must have an 'entries' field") from exc
    return _complex_array(rows, 2, "matrix entries")


def system_to_json(system: ObtuseSystem) -> dict:
    return {
        "dim": int(system.dim),
        "values": [vector_to_json(v) for v in system.values],
        "probabilities": [float(p) for p in system.probabilities],
    }


def system_values_from_json(obj):
    """Values and optional probabilities from a system document."""
    try:
        raw = obj["values"]
    except (TypeError, KeyError) as exc:
        raise FormatError("system must have a 'values' field") from exc
    values = _complex_array(raw, 2, "system values")
    _check_dim(obj, values.shape[1], "vectors")
    probs = obj.get("probabilities")
    if probs is not None:
        probs = np.asarray(_floats(probs, "probabilities"))
    return values, probs


def tensor_to_json(tensor: Tensor3) -> dict:
    return {
        "dim": int(tensor.dim),
        "constant_index": bool(tensor.has_constant),
        "entries": _complex_lists(tensor.entries),
    }


def tensor_from_json(obj) -> Tensor3:
    try:
        raw = obj["entries"]
    except (TypeError, KeyError) as exc:
        raise FormatError("tensor must have an 'entries' field") from exc
    arr = _complex_array(raw, 3, "tensor entries")
    has_constant = bool(obj.get("constant_index", True))
    _check_dim(obj, arr.shape[0], "entries")
    try:
        return Tensor3(entries=arr, has_constant=has_constant)
    except DimensionMismatch as exc:
        raise FormatError(str(exc)) from exc


def limitspec_to_json(spec: LimitSpec) -> dict:
    return {
        "dim": int(spec.dim),
        "M": tensor_to_json(spec.tensor),
        "Lambda": matrix_to_json(spec.lambda_matrix),
        "V": matrix_to_json(spec.v_matrix),
        "poisson": [
            {"v": vector_to_json(v), "intensity": float(lam)}
            for v, lam in zip(spec.poisson_dirs, spec.intensities)
        ],
        "brownian": [vector_to_json(v) for v in spec.brownian_basis],
    }


def limitspec_from_json(obj) -> LimitSpec:
    """Limit spec whose M, V, directions and basis all match Lambda's N."""
    try:
        tensor = tensor_from_json(obj["M"])
        lam = matrix_from_json(obj["Lambda"])
        v = matrix_from_json(obj["V"])
        poisson = obj.get("poisson", [])
        brownian = obj.get("brownian", [])
        raw_dirs = [p["v"] for p in poisson]
        intensities = np.array(_floats([p["intensity"] for p in poisson], "intensities"))
    except (TypeError, KeyError) as exc:
        raise FormatError("limit spec missing required fields") from exc
    n = lam.shape[0]
    dirs = (
        _complex_array(raw_dirs, 2, "poisson directions")
        if raw_dirs
        else np.zeros((0, n), dtype=complex)
    )
    basis = (
        _complex_array(brownian, 2, "brownian basis")
        if brownian
        else np.zeros((0, n), dtype=complex)
    )
    if (lam.shape, v.shape, tensor.dim, dirs.shape[1], basis.shape[1]) != (
        (n, n), (n, n), n, n, n
    ):
        raise FormatError(
            f"limit spec parts disagree with Lambda {lam.shape}: M has dim "
            f"{tensor.dim}, V {v.shape}, poisson directions {dirs.shape}, "
            f"brownian basis {basis.shape}"
        )
    if not np.all((intensities > 0) & (intensities < np.inf)):
        raise FormatError(f"poisson intensities must be positive and finite: {intensities}")
    return LimitSpec(
        dim=n,
        tensor=tensor,
        lambda_matrix=lam,
        v_matrix=v,
        poisson_dirs=dirs,
        intensities=intensities,
        brownian_basis=basis,
    )


def family_from_json(obj, default_steps) -> TensorFamily:
    """Tensor family from a document with sampled tensors or systems.

    Accepted shapes: {"steps", "tensors"}, {"steps", "systems"} (a system
    per step; tensors are computed), or {"system"} with optional "steps"
    (h-independent family).
    """
    from .obtuse import ObtuseRV, tensor_of

    if not isinstance(obj, dict):
        raise FormatError("family must be an object")
    steps = _floats(obj["steps"], "steps") if obj.get("steps") is not None else None
    if "tensors" in obj:
        if steps is None or len(steps) != len(obj["tensors"]):
            raise FormatError("family needs matching 'steps' and 'tensors'")
        tensors = [tensor_from_json(t) for t in obj["tensors"]]
        return TensorFamily.from_samples(steps, tensors)
    if "systems" in obj:
        if steps is None or len(steps) != len(obj["systems"]):
            raise FormatError("family needs matching 'steps' and 'systems'")
        tensors = []
        for doc in obj["systems"]:
            values, _ = system_values_from_json(doc)
            tensors.append(tensor_of(ObtuseRV.from_values(values)))
        return TensorFamily.from_samples(steps, tensors)
    if "system" in obj:
        values, _ = system_values_from_json(obj["system"])
        tensor = tensor_of(ObtuseRV.from_values(values))
        return TensorFamily.constant(tensor, steps=tuple(steps or default_steps))
    raise FormatError("family needs 'tensors', 'systems' or 'system'")
