"""JSON writers and readers: array-wise complex lists, typed reader errors."""

import json
import tracemalloc

import numpy as np
import pytest

from obtusewalk import Tensor3, classify, limit_tensor, obtuse, random_system, serialize, tensor_of
from obtusewalk.errors import TooLarge
from obtusewalk.limits import LimitSpec
from obtusewalk.obtuse import DEFAULT_TOL, _bound, _khatri_rao, haar_unitary
from obtusewalk.serialize import FormatError
from conftest import SCALED_STEPS, closed_form_corpus, sampled_family, to_json


def per_entry_lists(arr):
    """Oracle: the writers' former comprehension, one ``complex`` per entry."""
    if arr.ndim == 1:
        return [{"re": complex(z).real, "im": complex(z).imag} for z in arr]
    return [per_entry_lists(sub) for sub in arr]


def awkward_array(shape, seed=0):
    """Random complex entries with signed zeros, subnormals and huge values mixed in."""
    rng = np.random.default_rng(seed)
    arr = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    special = np.array([-0.0, 5e-324, -1.7e308, 1e-300, 0.1])
    flat = arr.reshape(-1)
    flat.real[::7] = np.resize(special, flat[::7].shape)
    flat.imag[::5] = -np.resize(special, flat[::5].shape)
    return arr


def float_types(lists):
    if isinstance(lists, dict):
        return {type(lists["re"]), type(lists["im"])}
    return set().union(*(float_types(x) for x in lists))


@pytest.mark.parametrize(
    "shape", [(0,), (0, 3), (3, 0), (2, 0, 4), (3,), (4, 4), (33, 33, 33)]
)
def test_complex_lists_match_the_per_entry_oracle(shape):
    arr = awkward_array(shape)
    lists = serialize._complex_lists(arr)
    assert lists == per_entry_lists(arr)
    assert float_types(lists) <= {float}


@pytest.mark.parametrize(
    "obj, ndim",
    [
        ([[[1, 0], [0, 1]], [[0, 1]]], 3),  # ragged rows
        ([[1, 2], [3]], 2),
        ([[1, 2], 3], 2),  # a scalar where a row belongs
        ([1, 2], 2),  # too shallow
        ([[[1]]], 2),  # a list where a scalar belongs
        ({"re": 1}, 1),
    ],
)
def test_complex_array_rejects_malformed_nesting(obj, ndim):
    with pytest.raises(FormatError):
        serialize._complex_array(obj, ndim, "entries")


@pytest.mark.parametrize("shape", [(3,), (3, 0), (4, 4), (2, 3, 5)])
def test_complex_array_inverts_complex_lists(shape):
    arr = awkward_array(shape, seed=1)
    back = serialize._complex_array(serialize._complex_lists(arr), len(shape), "x")
    assert back.shape == shape
    assert np.array_equal(back.view(np.uint64), arr.view(np.uint64))


def oracle_text(arr):
    return json.dumps(serialize._complex_lists(arr), sort_keys=True)


@pytest.mark.parametrize(
    "shape", [(0,), (0, 3), (3, 0), (2, 0, 4), (), (3,), (4, 4), (33, 33, 33)]
)
def test_dumps_matches_json_dumps_of_complex_lists(shape):
    arr = np.asarray(awkward_array(shape))
    assert serialize.dumps(arr) == oracle_text(arr)


def test_dumps_of_an_all_zero_tensor():
    arr = np.zeros((33, 33, 33), dtype=complex)
    assert serialize.dumps(arr) == oracle_text(arr)


def test_dumps_keeps_signed_zeros_apart():
    # -0.0 == 0.0, so entries keyed by value would share one text
    re, im = np.meshgrid([0.0, -0.0], [0.0, -0.0])
    arr = np.empty((6, 4), dtype=complex)
    arr.real, arr.imag = np.tile(re, (3, 2)), np.tile(im, (3, 2))
    assert len({z.tobytes() for z in arr.reshape(-1)}) == 4
    assert serialize.dumps(arr) == oracle_text(arr)
    assert serialize.dumps(arr[::-1]) == oracle_text(arr[::-1])


def test_dumps_spells_non_finite_floats_as_json_does():
    arr = awkward_array((5, 4))
    arr.real[0] = [np.nan, np.inf, -np.inf, 1.0]
    arr.imag[1] = [-np.inf, np.nan, np.inf, -np.nan]
    text = serialize.dumps(arr)
    assert text == oracle_text(arr)
    assert "NaN" in text and ": Infinity" in text and "-Infinity" in text


def special_array(shape):
    """Entries -0.0, NaN, inf and -inf, cycled through both parts of an array of ``shape``."""
    arr = np.empty(shape, dtype=complex)
    flat = arr.reshape(-1)
    flat.real = np.resize([-0.0, np.nan, np.inf, -np.inf], flat.size)
    flat.imag = np.resize([np.inf, -0.0, -np.inf, np.nan], flat.size)
    return arr


def system_and_tensor_doc():
    rng = np.random.default_rng(2)
    system = random_system(3, rng)
    return {
        "system": serialize.system_doc(system),
        "tensor": serialize.tensor_doc(tensor_of(system)),
        "rows": [{"v": v, "w": float(w)} for v, w in zip(system.values, system.probabilities)],
        "empty": np.zeros((0, 3), dtype=complex),
        "real": np.eye(2),
        "flag": True,
        "text": "hé",
    }


PERCENT_DOC = {
    "%": "%s",
    "%s": [special_array(()), "%%", {"a%%b": special_array((1, 1, 1))}],
    "100%": special_array((0, 3)),
    "x": [special_array((2, 0)), "%d %(x)s %", special_array((2, 3))],
}
SHARED = special_array((2, 2))


@pytest.mark.parametrize(
    "doc",
    [
        system_and_tensor_doc(),
        PERCENT_DOC,
        {"n": 3, "flags": [True, False, None], "text": "no array, 100% plain"},
        # the same array twice, and the same document written twice below
        {"a": SHARED, "b": [SHARED, {"c": SHARED}]},
    ],
    ids=["system-and-tensor", "percent-signs-and-special-entries", "no-array", "shared-array"],
)
def test_dumps_writes_documents_as_json_dumps_of_their_plain_form(doc):
    text = json.dumps(serialize._plain(doc), sort_keys=True)
    assert serialize.dumps(doc) == text
    assert serialize.dumps(doc) == text


def test_dumps_retains_nothing():
    # a d = 65 tensor write; a cache of the text around its entries held 15.5 MiB
    doc = serialize.tensor_doc(tensor_of(random_system(64, np.random.default_rng(0))))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        serialize.dumps(doc)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 2**20, retained


def test_dumps_of_a_document_whose_string_spells_a_placeholder():
    doc = {"a": "\x00", "b": np.ones(2), "c": ["\x00", np.zeros((1, 1))]}
    assert serialize.dumps(doc) == json.dumps(serialize._plain(doc), sort_keys=True)


def test_dumps_rejects_what_json_rejects():
    with pytest.raises(TypeError, match="int64 is not JSON serializable"):
        serialize.dumps({"n": np.int64(1)})


@pytest.mark.parametrize(
    "read, obj",
    [
        (serialize.complex_from_json, {"re": "abc"}),
        (serialize.complex_from_json, {"re": 1.0, "im": "1"}),
        (serialize.complex_from_json, True),
        (serialize.complex_from_json, {"im": 1.0}),
        (serialize.complex_from_json, 10**400),
        (serialize.tensor_from_json, {"entries": [[[1]]], "constant_index": "no"}),
        (serialize.tensor_from_json, {"entries": [[[1]]], "dim": True}),
        (serialize.system_values_from_json, {"values": [[1], [-1]], "dim": 1.5}),
        (serialize.system_values_from_json, {"values": [[1], [-1]], "probabilities": [0.5]}),
        (serialize.system_values_from_json, {"values": [[1], [-1]], "probabilities": ["0.5", 0.5]}),
        (lambda obj: serialize.family_from_json(obj), {"steps": [0.1], "tensors": 5}),
        (lambda obj: serialize.family_from_json(obj), {"steps": [0.1], "systems": {"a": 1}}),
        (lambda obj: serialize.family_from_json(obj), {"steps": [False], "system": {}}),
    ],
)
def test_readers_reject_mistyped_values(read, obj):
    with pytest.raises(FormatError):
        read(obj)


def corpus_specs():
    for n, lam, c, systems, dirs in closed_form_corpus():
        yield classify(limit_tensor(sampled_family(SCALED_STEPS, systems)))


class TestLimitSpec:
    """A limit spec is written without M, which the reader rebuilds from "poisson"."""

    def test_m_is_rebuilt_from_the_poisson_directions(self):
        for spec in corpus_specs():
            doc = json.loads(serialize.dumps(serialize.limitspec_doc(spec)))
            assert "M" not in doc
            back = serialize.limitspec_from_json(doc)
            scale = np.max(np.abs(spec.tensor.entries))
            gap = np.max(np.abs(back.tensor.entries - spec.tensor.entries))
            assert gap <= _bound(DEFAULT_TOL, scale), (spec.dim, gap, scale)
            assert not back.tensor.has_constant

    def old_doc(self, m=None):
        """The first corpus spec as the format with "M" wrote it, with M ``m``."""
        spec = next(corpus_specs())
        doc = to_json("limitspec", spec)
        doc["M"] = to_json("tensor", spec.tensor if m is None else m)
        return spec, doc

    def test_old_format_with_matching_m_is_read(self):
        spec, doc = self.old_doc()
        back = serialize.limitspec_from_json(doc)
        rebuilt = serialize.limitspec_from_json(to_json("limitspec", spec))
        assert np.array_equal(back.tensor.entries, rebuilt.tensor.entries)

    @pytest.mark.parametrize("change", ["entry", "scale", "dim"])
    def test_old_format_with_another_m_is_rejected(self, change):
        spec = next(corpus_specs())
        m = spec.tensor.entries.copy()
        if change == "entry":
            m[0, 1, 1] += 1e-6 * np.max(np.abs(m))
        elif change == "scale":
            m *= 1.0 + 1e-6
        else:
            m = m[1:, 1:, 1:]
        _, doc = self.old_doc(Tensor3(m, has_constant=False))
        with pytest.raises(FormatError):
            serialize.limitspec_from_json(doc)

    @staticmethod
    def rebuild_bytes(k, n):
        """The reader's model of the rebuild of M from k directions in C^n, with or
        without a written M, which is compared slice by slice."""
        return 16 * (k * n * n + k * n) + 17 * n**3 + 2**17

    @staticmethod
    def unitary_doc(n, k):
        """A spec document whose directions are k rows of a random unitary in C^n."""
        u = haar_unitary(n, np.random.default_rng(n))
        rates = np.linspace(1.0, 2.0, k)
        dirs = u[:k] / np.sqrt(rates)[:, None]
        spec = LimitSpec(
            dim=n,
            tensor=Tensor3(_khatri_rao(rates, dirs), has_constant=False),
            lambda_matrix=np.eye(n, dtype=complex),
            v_matrix=np.eye(n, dtype=complex),
            poisson_dirs=dirs,
            intensities=rates,
            brownian_basis=u[k:],
        )
        return spec, to_json("limitspec", spec)

    @pytest.mark.parametrize("written", [False, True], ids=["rebuilt", "with-M"])
    @pytest.mark.parametrize("n, k", [(1, 0), (2, 1), (8, 8), (16, 4)])
    def test_rebuild_is_held_to_the_memory_budget(self, monkeypatch, n, k, written):
        # the model is what the read asks for: it runs within it, not a byte less
        spec, doc = self.unitary_doc(n, k)
        if written:
            doc["M"] = to_json("tensor", spec.tensor)
        model = self.rebuild_bytes(k, n)
        monkeypatch.setattr(obtuse, "MEMORY_BYTES", model)
        serialize.limitspec_from_json(doc)
        monkeypatch.setattr(obtuse, "MEMORY_BYTES", model - 1)
        with pytest.raises(TooLarge):
            serialize.limitspec_from_json(doc)

    @pytest.mark.parametrize("n, k", [(4, 4), (16, 16), (32, 8), (48, 1)])
    def test_model_bounds_the_peak_of_the_read(self, n, k):
        _, doc = self.unitary_doc(n, k)
        tracemalloc.start()
        try:
            serialize.limitspec_from_json(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.rebuild_bytes(k, n), peak

    def test_written_m_costs_a_few_slices(self, monkeypatch):
        # from the rebuild's start, a document that still carries "M" peaks within
        # a few (N, N) slices of one without it: no d^3 difference or moduli
        n = 64
        spec, doc = self.unitary_doc(n, 0)
        rebuild = serialize._khatri_rao
        start = []

        def traced(*args):
            tracemalloc.reset_peak()
            start.append(tracemalloc.get_traced_memory()[0])
            return rebuild(*args)

        monkeypatch.setattr(serialize, "_khatri_rao", traced)
        peaks = []
        for written in (False, True):
            if written:
                doc["M"] = to_json("tensor", spec.tensor)
            tracemalloc.start()
            try:
                serialize.limitspec_from_json(doc)
                peaks.append(tracemalloc.get_traced_memory()[1] - start.pop())
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 4 * 16 * n * n, peaks
