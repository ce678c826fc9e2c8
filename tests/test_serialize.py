"""JSON writers and readers: array-wise complex lists, typed reader errors."""

import numpy as np
import pytest

from obtusewalk import serialize
from obtusewalk.serialize import FormatError


def per_entry_lists(arr):
    """Oracle: the writers' former comprehension, one ``complex_to_json`` per entry."""
    if arr.ndim == 1:
        return [serialize.complex_to_json(z) for z in arr]
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
