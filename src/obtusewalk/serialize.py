"""JSON formats for systems, matrices, tensors, limit specs and families.

Complex scalars are objects {"re": ..., "im": ...}; vectors are lists of
scalars, matrices {"dim", "entries"} with entries[i][j], tensors
{"dim", "entries"} with entries[i][j][k] plus an optional "constant_index"
flag (default true) marking whether index 0 is the constant coordinate.
Floats are written with full round-trip precision, as the json module
writes them.

Each format has one document builder, ``*_doc``, whose complex arrays stay
numpy arrays.  ``_plain`` turns a document into the plain one (every array
becomes nested lists of {"re", "im"} objects, ``_complex_lists``), and
``dumps`` writes a document's text, byte for byte
``json.dumps(plain, sort_keys=True)``, without building the plain one, in
one pass.  It encodes the skeleton with one call of json's C encoder, each
array held by a placeholder string, doubles every ``%`` of the skeleton and
puts in each placeholder's place a template of the array's nested lists
with one ``%s`` per entry.  One ``%`` then fills every template with the
entries' texts, one ``%r`` pair per distinct entry of the document, keyed by
its 16 bytes (so -0.0 and 0.0 stay apart): the symmetric half of a tensor
and the zero imaginary parts of a real one share one text each, and a
non-finite entry is spelled as json spells it once per distinct entry.
Nothing outlives the call.

A limit spec is written as the parts that determine it: Lambda, V, the
Poisson directions v_p with their intensities lambda_p, and the Brownian
basis.  Its inner tensor M^{ij}_k = sum_p lambda_p v_p^i v_p^j conj(v_p^k),
N^3 entries that repeat K N numbers, is rebuilt on reading, from
intensities that must be the rates 1/|v_p|^2 of their directions.  A spec
that still carries "M" is read if that M agrees with the rebuild.

Readers parse nested lists of scalars back into one array
(``_complex_array``) and turn ragged, misnested, mistyped or non-finite
input into ``FormatError``: numbers must be JSON numbers (not strings or
booleans), array entries finite, flags booleans and dims integers.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import DimensionMismatch, ProbabilityMismatch, TooLarge
from .limits import DEFAULT_STEPS, LimitSpec, TensorFamily, _require_spec
from .obtuse import (
    DEFAULT_TOL,
    ObtuseRV,
    ObtuseSystem,
    Tensor3,
    _as_square,
    _bound,
    _khatri_rao,
    _require_memory,
    _require_tensor,
    _require_variable,
)


class FormatError(ValueError):
    """Raised when a JSON document does not match the expected schema."""


# complex_to_json, tensor_to_json and limitspec_to_json, the plain documents
# of their formats, stay while perfbench/run.py lists them in TRACED_FUNCTIONS
def complex_to_json(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _real(x) -> float:
    """A JSON number as a float; a bool, string or other value is a ``TypeError``.

    An integer beyond the float range raises ``OverflowError``.
    """
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"not a number: {x!r}")
    return float(x)


def complex_from_json(obj) -> complex:
    """A complex scalar: {"re": x, "im": y}, with y 0 when absent, or a real number."""
    if isinstance(obj, dict):
        re, im = obj.get("re"), obj.get("im", 0.0)
        if type(re) is float is type(im):  # what json.load gives for most scalars
            return complex(re, im)
    else:
        re, im = obj, 0.0
    try:
        return complex(_real(re), _real(im))
    except (TypeError, OverflowError) as exc:
        raise FormatError(f"not a complex scalar: {obj!r}") from exc


def _complex_lists(arr) -> list:
    """Nested lists of {"re", "im"} objects with the shape of ``arr``.

    The floats come from one ``tolist`` per part instead of a ``complex``
    per numpy scalar.
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
    return out if arr.ndim else out[0]


def _plain(doc):
    """``doc`` with each numpy array replaced by ``_complex_lists`` of it."""
    if isinstance(doc, np.ndarray):
        return _complex_lists(doc)
    if isinstance(doc, dict):
        return {key: _plain(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_plain(value) for value in doc]
    return doc


_HOLE = "\x00"  # placeholder string of an array in the skeleton
_HOLE_TEXT = json.dumps(_HOLE)
_ENTRY = '{"im": %r, "re": %r}'.__mod__


def dumps(doc) -> str:
    """The text ``json.dumps(_plain(doc), sort_keys=True)`` of ``doc``, whose
    numpy arrays stand for nested lists of {"re", "im"} objects."""
    arrays = []

    def hold(obj):
        if not isinstance(obj, np.ndarray):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        arrays.append(np.asarray(obj, dtype=complex))
        return _HOLE

    text = json.dumps(doc, sort_keys=True, default=hold)
    parts = text.replace("%", "%%").split(_HOLE_TEXT)
    if len(parts) != len(arrays) + 1:  # a string of the document spells a hole
        return json.dumps(_plain(doc), sort_keys=True)
    if not arrays:
        return text
    template = [parts[0]]
    for a, part in zip(arrays, parts[1:]):
        template += (_template(a.shape), part)
    entries = np.concatenate([a.reshape(-1) for a in arrays])
    return "".join(template) % _entry_texts(entries)


def _template(shape: tuple) -> str:
    """Nested lists of ``shape`` with a ``%s`` per entry, in C order."""
    text = "%s"
    for m in reversed(shape):
        text = "[" + ", ".join([text] * m) + "]"
    return text


def _entry_texts(flat: np.ndarray) -> tuple:
    """Text of each entry of a 1-d complex array, shared by entries with the same bits."""
    bits = flat.view(np.uint64).reshape(-1, 2)
    order = np.lexsort(bits.T)
    run = bits[order]
    first = np.ones(len(run), dtype=bool)
    np.any(run[1:] != run[:-1], axis=1, out=first[1:])
    inverse = np.empty(len(run), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    entries = flat[order[first]]
    texts = list(map(_ENTRY, zip(entries.imag.tolist(), entries.real.tolist())))
    for k in np.flatnonzero(~np.isfinite(entries)).tolist():
        # %r spells nan, inf and -inf; json spells NaN, Infinity and -Infinity
        texts[k] = texts[k].replace("nan", "NaN").replace("inf", "Infinity")
    return tuple(np.array(texts, dtype=object)[inverse].tolist())


def _complex_array(obj, ndim: int, what: str) -> np.ndarray:
    """Complex array with ``ndim`` axes from nested lists of finite complex scalars."""

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
    if not np.isfinite(arr).all():
        bad = tuple(np.argwhere(~np.isfinite(arr))[0])
        index = "".join(f"[{i}]" for i in bad)
        raise FormatError(f"{what}{index} is not finite: {arr[bad]}")
    return arr


def _floats(obj, what: str) -> list:
    try:
        return [_real(x) for x in obj]
    except (TypeError, OverflowError) as exc:
        raise FormatError(f"{what} must be a list of numbers") from exc


def _check_dim(obj, actual: int, what: str) -> None:
    """Reject a declared "dim" that is not an integer or differs from ``actual``."""
    if "dim" not in obj:
        return
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise FormatError(f"dim must be an integer, got {dim!r}")
    if dim != actual:
        raise FormatError(f"declared dim does not match the {what}")


def vector_to_json(vec) -> list:
    return _complex_lists(vec)


def matrix_doc(mat) -> dict:
    arr = _as_square(mat)
    return {"dim": int(arr.shape[0]), "entries": arr}


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows = obj["entries"]
    except (TypeError, KeyError) as exc:
        raise FormatError("matrix must have an 'entries' field") from exc
    return _complex_array(rows, 2, "matrix entries")


def system_doc(system: ObtuseSystem) -> dict:
    _require_variable(system)
    return {
        "dim": int(system.dim),
        "values": np.asarray(system.values, dtype=complex),
        "probabilities": [float(p) for p in system.probabilities],
    }


def system_values_from_json(obj):
    """Values and optional probabilities, one finite number per value, from a system document."""
    try:
        raw = obj["values"]
    except (TypeError, KeyError) as exc:
        raise FormatError("system must have a 'values' field") from exc
    values = _complex_array(raw, 2, "system values")
    _check_dim(obj, values.shape[1], "vectors")
    probs = obj.get("probabilities")
    if probs is not None:
        probs = _floats(probs, "probabilities")
        if len(probs) != len(values) or not all(map(math.isfinite, probs)):
            raise FormatError(
                f"probabilities must be {len(values)} finite numbers, one per value"
            )
        probs = np.asarray(probs)
    return values, probs


def system_from_json(obj, tol: float = DEFAULT_TOL) -> ObtuseRV:
    """The variable of a system document, validated at ``tol``; declared
    probabilities that do not agree with it raise ``ProbabilityMismatch``."""
    values, probs = system_values_from_json(obj)
    rv = ObtuseRV.from_values(values, tol)
    if not probabilities_agree(probs, rv.probabilities, tol):
        raise ProbabilityMismatch("declared probabilities disagree with the values")
    return rv


def probabilities_agree(declared, probabilities, tol: float) -> bool:
    """Whether declared probabilities, if any, are within ``_bound(tol, 1)``."""
    return declared is None or bool(np.max(np.abs(declared - probabilities)) <= _bound(tol, 1.0))


def tensor_doc(tensor: Tensor3) -> dict:
    _require_tensor(tensor)
    return {
        "dim": int(tensor.dim),
        "constant_index": bool(tensor.has_constant),
        "entries": np.asarray(tensor.entries, dtype=complex),
    }


def tensor_to_json(tensor: Tensor3) -> dict:
    return _plain(tensor_doc(tensor))


def tensor_from_json(obj) -> Tensor3:
    try:
        raw = obj["entries"]
    except (TypeError, KeyError) as exc:
        raise FormatError("tensor must have an 'entries' field") from exc
    arr = _complex_array(raw, 3, "tensor entries")
    has_constant = obj.get("constant_index", True)
    if not isinstance(has_constant, bool):
        raise FormatError(f"constant_index must be true or false, got {has_constant!r}")
    _check_dim(obj, arr.shape[0], "entries")
    try:
        return Tensor3(entries=arr, has_constant=has_constant)
    except DimensionMismatch as exc:
        raise FormatError(str(exc)) from exc


def limitspec_doc(spec: LimitSpec) -> dict:
    """The spec's parts that determine it: M is rebuilt from "poisson" on reading."""
    _require_spec(spec)
    return {
        "dim": int(spec.dim),
        "Lambda": matrix_doc(spec.lambda_matrix),
        "V": matrix_doc(spec.v_matrix),
        "poisson": [
            {"v": v, "intensity": float(lam)}
            for v, lam in zip(np.asarray(spec.poisson_dirs, dtype=complex), spec.intensities)
        ],
        "brownian": np.asarray(spec.brownian_basis, dtype=complex),
    }


def limitspec_to_json(spec: LimitSpec) -> dict:
    return _plain(limitspec_doc(spec))


def limitspec_from_json(obj) -> LimitSpec:
    """Limit spec whose V, directions and basis all match Lambda's N.

    M is rebuilt from the Poisson directions and intensities, each its
    direction's rate 1/|v|^2 within ``_bound(DEFAULT_TOL, 1)``.  The rows B
    of the Brownian basis are orthonormal: max|B B* - I| within the same
    bound, or ``FormatError``, since a longer row would scale its Brownian
    motion's covariance.  A document that still carries "M" (the format
    before it was dropped) must agree with the rebuild within
    ``_bound(DEFAULT_TOL, max|M|)``.  The rebuild is held to the memory
    budget ``obtuse.MEMORY_BYTES`` before it allocates and raises
    ``TooLarge`` over it.
    """
    try:
        lam = matrix_from_json(obj["Lambda"])
        v = matrix_from_json(obj["V"])
        poisson = obj.get("poisson", [])
        brownian = obj.get("brownian", [])
        raw_dirs = [p["v"] for p in poisson]
        intensities = np.array(_floats([p["intensity"] for p in poisson], "intensities"))
        written = tensor_from_json(obj["M"]) if "M" in obj else None
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
    m_dim = n if written is None else written.dim
    if (lam.shape, v.shape, m_dim, dirs.shape[1], basis.shape[1]) != (
        (n, n), (n, n), n, n, n
    ):
        raise FormatError(
            f"limit spec parts disagree with Lambda {lam.shape}: M has dim "
            f"{m_dim}, V {v.shape}, poisson directions {dirs.shape}, "
            f"brownian basis {basis.shape}"
        )
    # a row product that overflows gives inf or NaN, which fails
    with np.errstate(over="ignore", invalid="ignore"):
        gram_gap = np.max(np.abs(basis @ basis.conj().T - np.eye(len(basis))), initial=0.0)
    if not gram_gap <= _bound(DEFAULT_TOL, 1.0):
        raise FormatError(f"brownian basis rows must be orthonormal: max|B B* - I| = {gram_gap:.3e}")
    # an infinite rate on a zero direction, or a zero rate on one whose |v|^2
    # overflows, gives NaN, which fails
    with np.errstate(over="ignore", invalid="ignore"):
        rate_gaps = np.abs(intensities * np.sum(np.abs(dirs) ** 2, axis=1) - 1.0)
    if not np.all(rate_gaps <= _bound(DEFAULT_TOL, 1.0)):
        raise FormatError(f"poisson intensities must be 1/|v|^2 of their directions: {intensities}")
    # the rebuild's peak by tracemalloc: the (K, N, N) pairs, the conjugate directions,
    # M and its finiteness mask, numpy's cast buffer (8192 entries) for the real
    # weights; a written M is compared one (N, N) slice at a time, in O(N^2) bytes
    # that the mask and the buffer cover
    k = len(dirs)
    n_bytes = 16 * (k * n * n + k * n) + 17 * n**3 + 2**17
    _require_memory(n_bytes, TooLarge, f"the M of a spec in C^{n} with {k} Poisson direction(s)")
    inner = _khatri_rao(intensities, dirs)  # sum_p lambda_p v_p (x) v_p (x) conj(v_p)
    if written is not None:
        # np.max of the slices' maxima keeps a NaN, which fails
        pairs = list(zip(written.entries, inner))
        scale = float(np.max([np.abs(w).max(initial=0.0) for w, _ in pairs], initial=0.0))
        gap = float(np.max([np.abs(w - m).max(initial=0.0) for w, m in pairs], initial=0.0))
        if not gap <= _bound(DEFAULT_TOL, scale):
            raise FormatError(
                f"M differs from the tensor of its poisson directions by {gap:.3e}"
            )
    return LimitSpec(
        dim=n,
        tensor=Tensor3(entries=inner, has_constant=False),
        lambda_matrix=lam,
        v_matrix=v,
        poisson_dirs=dirs,
        intensities=intensities,
        brownian_basis=basis,
    )


def family_from_json(obj, tol: float = DEFAULT_TOL) -> TensorFamily:
    """Tensor family from a document with sampled tensors or systems.

    Accepted shapes: {"steps", "tensors"}, {"steps", "systems"} (a system
    per step), or {"system"} with optional "steps" (h-independent family;
    only an absent or null "steps" means ``DEFAULT_STEPS``).  A system is
    read at ``tol`` (``system_from_json``) and sampled as its ``ObtuseRV``,
    whose tensor ``limit_tensor`` builds; a tensor is sampled as read, and
    ``limit_tensor`` checks it.
    """
    if not isinstance(obj, dict):
        raise FormatError("family must be an object")
    steps = _floats(obj["steps"], "steps") if obj.get("steps") is not None else None
    for key in ("tensors", "systems"):
        if key in obj and (
            steps is None or not isinstance(obj[key], list) or len(steps) != len(obj[key])
        ):
            raise FormatError(f"family needs matching 'steps' and '{key}' lists")

    if "tensors" in obj:
        return TensorFamily.from_samples(steps, [tensor_from_json(t) for t in obj["tensors"]])
    if "systems" in obj:
        return TensorFamily.from_samples(steps, [system_from_json(s, tol) for s in obj["systems"]])
    if "system" in obj:
        rv = system_from_json(obj["system"], tol)
        return TensorFamily.constant(rv, DEFAULT_STEPS if steps is None else steps)
    raise FormatError("family needs 'tensors', 'systems' or 'system'")
