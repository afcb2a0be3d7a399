"""Element ids: every public entry point that takes them checks them through
one gate, with one message for a bad type and one for a bad range."""

from __future__ import annotations

import re

import numpy as np
import pytest

import dsets as D
from dsets import InputError, LeafTree, SequenceWindow, Splitting

# Each entry point on the CAT5 fixture (5 elements), given one id v in a
# call that is otherwise valid.
_ENTRY_POINTS = {
    "holds": lambda d, v: d.holds(0, 1, 2, v),
    # v first: a dict keeps the first of equal keys, so a bool or float
    # equal to an element would otherwise vanish behind that element's key.
    "recolor": lambda d, v: d.recolor({v: 1, 0: 0, 1: 0, 2: 0, 3: 0, 4: 0}),
    "substructure": lambda d, v: D.substructure(d, [0, 1, v]),
    "relabel": lambda d, v: D.relabel(d, {0: 0, v: 1, 2: 2, 3: 3, 4: 4}),
    "branch": lambda d, v: D.branch(d, 0, 1, v),
    "induced_splitting": lambda d, v: D.induced_splitting(d, [0, 1, 2], v),
    "complementary": lambda d, v: D.complementary(d, Splitting([[0], [1], [2, 3, 4]]), [2, 3, 4], v),
    "extend_splitting": lambda d, v: D.extend_splitting(d, [0, 1, v], Splitting([[0], [1], [2]])),
    "density_witnesses": lambda d, v: D.density_witnesses(d, 0, 1, 2, v),
    "qftp_base": lambda d, v: D.qftp_base(d, [0, 1, v], 4),
    "same_qftp": lambda d, v: D.same_qftp(d, [0, 1, 2], 3, v),
    "check_partial_iso": lambda d, v: D.check_partial_iso(d, d, {0: 1, v: 0}),
    "extend_partial_iso": lambda d, v: D.extend_partial_iso(d, {0: 0}, v),
    "classify_window": lambda d, v: D.classify_window(d, SequenceWindow([(0,), (1,), (2,), (v,)])),
    "weakly_indiscernible_over": lambda d, v: D.weakly_indiscernible_over(
        d, SequenceWindow([(e,) for e in range(5)]), [0, v]
    ),
}


@pytest.mark.parametrize("bad", (True, 1.0, "1", None, np.float64(1)), ids=repr)
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_entry_points_reject_ids_that_are_not_integers(catalogue, entry, bad):
    message = f"element ids must be non-negative integers, got {bad!r}"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        _ENTRY_POINTS[entry](catalogue["CAT5"].dset, bad)


@pytest.mark.parametrize("bad", (-1, 5, 10**30))
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_entry_points_reject_ids_out_of_range(catalogue, entry, bad):
    with pytest.raises(InputError, match=f"^{re.escape(f'element {bad} out of range 0..4')}$"):
        _ENTRY_POINTS[entry](catalogue["CAT5"].dset, bad)


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_entry_points_take_numpy_integers(catalogue, entry):
    d = catalogue["CAT5"].dset
    # An id that makes the call valid: 2, unless the other ids rule it out.
    v = {"relabel": 1, "induced_splitting": 3, "density_witnesses": 3, "same_qftp": 4,
         "check_partial_iso": 1, "extend_partial_iso": 1}.get(entry, 2)
    assert repr(_ENTRY_POINTS[entry](d, np.int64(v))) == repr(_ENTRY_POINTS[entry](d, v))


# A call on the CAT5 fixture that passes an int where a collection of ids,
# a DSet or a splitting belongs, and the message it ends in.
_NOT_A_COLLECTION = "element ids must come as a collection, got 5"
_WRONG_TYPES = {
    "substructure": (lambda d: D.substructure(d, 5), _NOT_A_COLLECTION),
    "qftp_base": (lambda d: D.qftp_base(d, 5, 4), _NOT_A_COLLECTION),
    "same_qftp": (lambda d: D.same_qftp(d, 5, 3, 4), _NOT_A_COLLECTION),
    "induced_splitting": (lambda d: D.induced_splitting(d, 5, 4), _NOT_A_COLLECTION),
    "are_isomorphic": (lambda d: D.are_isomorphic(d, 5), "are_isomorphic compares two DSets, got 5"),
    "extend_splitting": (
        lambda d: D.extend_splitting(d, [0, 1, 2], 5),
        "sectors must be lists of element ids: 'int' object is not iterable",
    ),
}


@pytest.mark.parametrize("entry", sorted(_WRONG_TYPES))
def test_arguments_of_the_wrong_type_are_input_errors(catalogue, entry):
    call, message = _WRONG_TYPES[entry]
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call(catalogue["CAT5"].dset)


@pytest.mark.parametrize(
    "mapping, message",
    (
        ({0.0: 1, 1.0: 0, 2: 2, 3: 3}, "element ids must be non-negative integers, got 0.0"),
        ({0: 1, True: 0, 2: 2, 3: 3}, "element ids must be non-negative integers, got True"),
        ({0: 1.0, 1: 0, 2: 2, 3: 3}, "element ids must be non-negative integers, got 1.0"),
    ),
)
def test_relabel_rejects_float_and_bool_ids(catalogue, mapping, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        D.relabel(catalogue["CAT4"].dset, mapping)


@pytest.mark.parametrize(
    "nodes, edges, leaves, bad",
    (
        ([0, 1, 2, 3.7], [(0, 3), (1, 3), (2, 3)], {0: 0, 1: 1, 2: 2}, 3.7),
        (["a"], [], {}, "a"),
        ([0, 1, 2, 3], [(0, 3), (1, 3), (2, True)], {0: 0, 1: 1, 2: 2}, True),
        ([0, 1, 2, 3], [(0, 3), (1, 3), (2, 3)], {0: 0, 1: 1, 2: np.float64(2)}, np.float64(2)),
    ),
)
def test_leaf_tree_rejects_ids_that_are_not_integers(nodes, edges, leaves, bad):
    with pytest.raises(InputError, match=f"^{re.escape(f'tree ids must be integers, got {bad!r}')}$"):
        LeafTree(nodes, edges, leaves)


def test_leaf_tree_takes_numpy_and_negative_node_ids():
    t = LeafTree(np.array([0, 1, 2, -3]), [(np.int64(0), -3), (1, -3), (2, -3)], {0: 0, 1: 1, 2: np.int32(2)})
    assert t == LeafTree([-3, 0, 1, 2], [(-3, 0), (-3, 1), (-3, 2)], {0: 0, 1: 1, 2: 2})
    assert all(type(v) is int for v in t.nodes + sum(t.edges, ()) + sum(t.leaves, ()))
