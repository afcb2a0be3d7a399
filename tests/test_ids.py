"""Element ids: every public entry point that takes them checks them through
one gate, with one message for a bad type and one for a bad range.  A
structure argument has one gate too, with one message."""

from __future__ import annotations

import inspect
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
_NOT_SECTORS = "sectors must be lists of element ids: 'int' object is not iterable"
_WRONG_TYPES = {
    "substructure": (lambda d: D.substructure(d, 5), _NOT_A_COLLECTION),
    "qftp_base": (lambda d: D.qftp_base(d, 5, 4), _NOT_A_COLLECTION),
    "same_qftp": (lambda d: D.same_qftp(d, 5, 3, 4), _NOT_A_COLLECTION),
    "induced_splitting": (lambda d: D.induced_splitting(d, 5, 4), _NOT_A_COLLECTION),
    "are_isomorphic": (lambda d: D.are_isomorphic(d, 5), "expected a DSet, got 5"),
    "extend_splitting": (lambda d: D.extend_splitting(d, [0, 1, 2], 5), _NOT_SECTORS),
    "complementary": (lambda d: D.complementary(d, 5, [0, 1], 0), _NOT_SECTORS),
    "one_sector": (lambda d: D.one_sector(d, 5, Splitting([[0, 1], [2, 3, 4]])), _NOT_SECTORS),
    "extend_by_point": (lambda d: D.extend_by_point(d, 5), _NOT_SECTORS),
}


@pytest.mark.parametrize("entry", sorted(_WRONG_TYPES))
def test_arguments_of_the_wrong_type_are_input_errors(catalogue, entry):
    call, message = _WRONG_TYPES[entry]
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call(catalogue["CAT5"].dset)


# Each public entry point that takes a structure, called on CAT5 (d) with
# the structure under test (x) in one place and otherwise valid arguments;
# the splittings and windows are bound when each lambda is made.
_CUT, _NODE = Splitting([[0, 1], [2, 3, 4]]), Splitting([[0], [1], [2, 3, 4]])
_W4, _W5 = (SequenceWindow([(v,) for v in range(k)]) for k in (4, 5))
_TAKE_A_STRUCTURE = {
    "check_axioms": lambda d, x: D.check_axioms(x),
    "relation_table": lambda d, x: D.relation_table(x),
    "substructure": lambda d, x: D.substructure(x, [0, 1]),
    "relabel": lambda d, x: D.relabel(x, {e: e for e in range(5)}),
    "are_isomorphic/first": lambda d, x: D.are_isomorphic(x, d),
    "are_isomorphic/second": lambda d, x: D.are_isomorphic(d, x),
    "tree_from_dset": lambda d, x: D.tree_from_dset(x),
    "is_splitting": lambda d, x, cut=_CUT: D.is_splitting(x, cut),
    "enumerate_splittings": lambda d, x: D.enumerate_splittings(x),
    "enumerate_splittings/tree": lambda d, x: D.enumerate_splittings(x, method="tree"),
    "branch": lambda d, x: D.branch(x, 4, 0, 1),
    "induced_splitting": lambda d, x: D.induced_splitting(x, [0, 1, 2], 3),
    "complementary": lambda d, x, cut=_CUT: D.complementary(x, cut, [2, 3, 4], 2),
    "extend_by_point": lambda d, x, cut=_CUT: D.extend_by_point(x, cut),
    "extend_splitting": lambda d, x: D.extend_splitting(x, [0, 1, 2], Splitting([[0], [1], [2]])),
    "one_sector": lambda d, x, cut=_CUT, node=_NODE: D.one_sector(x, node, cut),
    "is_regular": lambda d, x: D.is_regular(x),
    "is_true_edge_splitting": lambda d, x, cut=_CUT: D.is_true_edge_splitting(x, cut),
    "density_witnesses": lambda d, x: D.density_witnesses(x, 0, 1, 2, 3),
    "qftp_base": lambda d, x: D.qftp_base(x, [0, 1, 2], 3),
    "same_qftp": lambda d, x: D.same_qftp(x, [0, 1, 2], 3, 4),
    "check_partial_iso/first": lambda d, x: D.check_partial_iso(x, d, {}),
    "check_partial_iso/second": lambda d, x: D.check_partial_iso(d, x, {}),
    "extend_partial_iso": lambda d, x: D.extend_partial_iso(x, {0: 0}, 1),
    "homogeneity_conditions": lambda d, x: D.homogeneity_conditions(x),
    "nonextendable_witness": lambda d, x: D.nonextendable_witness(x),
    "classify_window": lambda d, x, w4=_W4: D.classify_window(x, w4),
    "hull_window": lambda d, x, w5=_W5: D.hull_window(x, w5),
    "frontiers": lambda d, x, w5=_W5: D.frontiers(x, w5),
    "weakly_indiscernible_over": lambda d, x, w5=_W5: D.weakly_indiscernible_over(x, w5, [0]),
    "mutually_indiscernible": lambda d, x, w5=_W5: D.mutually_indiscernible(x, w5, w5),
    "detect_petaled": lambda d, x: D.detect_petaled(x, 3),
    "color_uniform": lambda d, x: D.color_uniform(x),
    "color_round_robin": lambda d, x: D.color_round_robin(x, 2),
    "color_sector_avoiding": lambda d, x: D.color_sector_avoiding(x),
}


@pytest.mark.parametrize("bad", (5, None, LeafTree([0, 1], [(0, 1)], {0: 0, 1: 1})), ids=("int", "None", "LeafTree"))
@pytest.mark.parametrize("entry", sorted(_TAKE_A_STRUCTURE))
def test_entry_points_refuse_what_is_no_dset(catalogue, entry, bad):
    d = catalogue["CAT5"].dset
    _TAKE_A_STRUCTURE[entry](d, d)  # valid with a DSet in that place
    with pytest.raises(InputError, match=f"^{re.escape(f'expected a DSet, got {bad!r}')}$"):
        _TAKE_A_STRUCTURE[entry](d, bad)


def test_structure_sweep_covers_every_public_dset_parameter():
    takes = {
        name for name in D.__all__
        if inspect.isfunction(f := getattr(D, name))
        and any(p.annotation == "DSet" for p in inspect.signature(f).parameters.values())
    }
    assert takes == {entry.split("/")[0] for entry in _TAKE_A_STRUCTURE}


# Each public entry point that takes a tree, called on CAT5's tree (t) with
# the tree under test (x) in one place and otherwise valid arguments.
_TAKE_A_TREE = {
    "d_from_tree": lambda t, x: D.d_from_tree(x),
    "splittings_from_tree": lambda t, x: D.splittings_from_tree(x),
    "canonical_form": lambda t, x: D.canonical_form(x),
    "export_dot": lambda t, x: D.export_dot(x),
    "are_isomorphic_trees/first": lambda t, x: D.are_isomorphic_trees(x, t),
    "are_isomorphic_trees/second": lambda t, x: D.are_isomorphic_trees(t, x),
    "are_isomorphic_trees/shape": lambda t, x: D.are_isomorphic_trees(x, t, respect_labels=False),
}


@pytest.mark.parametrize("bad", (5, None, D.DSet(2)), ids=("int", "None", "DSet"))
@pytest.mark.parametrize("entry", sorted(_TAKE_A_TREE))
def test_entry_points_refuse_what_is_no_tree(catalogue, entry, bad):
    t = catalogue["CAT5"].tree
    _TAKE_A_TREE[entry](t, t)  # valid with a LeafTree in that place
    with pytest.raises(InputError, match=f"^{re.escape(f'expected a LeafTree, got {bad!r}')}$"):
        _TAKE_A_TREE[entry](t, bad)


def test_tree_sweep_covers_every_public_tree_parameter():
    takes = {
        name for name in D.__all__
        if inspect.isfunction(f := getattr(D, name))
        and any(p.annotation == "LeafTree" for p in inspect.signature(f).parameters.values())
    }
    assert takes == {entry.split("/")[0] for entry in _TAKE_A_TREE}


# The calls that read a sequence indexed by element id off CAT5's tree.
_PER_ELEMENT = {
    "leaf_tokens": lambda t, v: D.canonical_form(t, v),
    "colors": lambda t, v: D.export_dot(t, colors=v),
}


@pytest.mark.parametrize("name", sorted(_PER_ELEMENT))
def test_sequences_by_element_need_an_entry_per_element(catalogue, name):
    call, t = _PER_ELEMENT[name], catalogue["CAT5"].tree
    message = f"{name} must be a sequence indexed by element id, got 5"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call(t, 5)
    for short in ([], [0], [0, 1, 0, 1]):
        message = f"{name} needs an entry for each of 5 elements, got {len(short)}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            call(t, short)
    # A longer sequence reads its first entries, as it always did.
    assert call(t, (0, 1, 0, 1, 1, 7)) == call(t, [0, 1, 0, 1, 1]) == call(t, iter([0, 1, 0, 1, 1]))


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


# Each library call on CAT5 that takes a count or a seed, given the bad value
# v, and the argument its message names.
_COUNTS = {
    "homogeneity_conditions": (lambda d, v: D.homogeneity_conditions(d, v), "min_sector_size"),
    "detect_petaled": (lambda d, v: D.detect_petaled(d, v), "k"),
    "enum_trees": (lambda d, v: list(D.enum_trees(v)), "leaves"),
    "TreeSpec.leaves": (lambda d, v: D.gen_random(D.TreeSpec("star", v)), "leaves"),
    "TreeSpec.degree": (lambda d, v: D.gen_random(D.TreeSpec("d_regular_random", 10, v)), "degree"),
    "TreeSpec.seed": (lambda d, v: D.gen_random(D.TreeSpec("d_regular_random", 10, 3, seed=v)), "seed"),
    "color_round_robin": (lambda d, v: D.color_round_robin(d, v), "n_colors"),
    "are_isomorphic": (lambda d, v: D.are_isomorphic(d, d, max_n=v), "max_n"),
}


_BAD_COUNTS = ("3", None, 3.5, True, -1, np.float64(3))
# Not refused by the count check: a TreeSpec without a degree is valid, a
# seed may be negative, and detect_petaled refuses an integer k below 3,
# bools included, by its range.
_OTHERWISE = {("TreeSpec.degree", None), ("TreeSpec.seed", -1), ("detect_petaled", True), ("detect_petaled", -1)}


@pytest.mark.parametrize(
    "entry, bad",
    [(entry, bad) for entry in sorted(_COUNTS) for bad in _BAD_COUNTS if (entry, bad) not in _OTHERWISE],
    ids=repr,
)
def test_counts_pass_the_one_count_check(catalogue, entry, bad):
    call, name = _COUNTS[entry]
    kind = "an integer" if name == "seed" else "a non-negative integer"  # a seed may be negative
    message = f"'{name}' must be {kind}, got {bad!r}"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call(catalogue["CAT5"].dset, bad)
    assert repr(call(catalogue["CAT5"].dset, np.int64(4))) == repr(call(catalogue["CAT5"].dset, 4))


# Public constructors and readers given an argument of the wrong type or
# shape, and the message each ends in.
_NOT_ITERABLE = "'int' object is not iterable"
_NOT_TEXT = "invalid JSON: the JSON object must be str, bytes or bytearray, not "
_BAD_ARGUMENTS = {
    "LeafTree/nodes": (lambda: LeafTree(5, [], {}), f"tree nodes, edges and leaves must be collections: {_NOT_ITERABLE}"),
    "LeafTree/edges": (
        lambda: LeafTree([0], None, {0: 0}),
        "tree nodes, edges and leaves must be collections: 'NoneType' object is not iterable",
    ),
    "LeafTree/edge": (lambda: LeafTree([0, 1], [5], {0: 0}), f"tree nodes, edges and leaves must be collections: {_NOT_ITERABLE}"),
    "LeafTree/leaves": (lambda: LeafTree([0], [], 5), f"tree nodes, edges and leaves must be collections: {_NOT_ITERABLE}"),
    "LeafTree/edge_triple": (lambda: LeafTree([0, 1, 2], [(0, 1, 2)], {0: 0}), "tree edges and leaves must be pairs of ids"),
    "LeafTree/leaf_single": (lambda: LeafTree([0], [], [(0,)]), "tree edges and leaves must be pairs of ids"),
    "DSet/positives": (lambda: D.DSet(3, 5), "positive quads must come as a collection, got 5"),
    "DSet/colors": (lambda: D.DSet(3, [], 5), "colors must come as a collection, got 5"),
    "DSet.build/quads": (lambda: D.DSet.build(5, 5), "positive quads must come as a collection, got 5"),
    "DSet.build/colors": (lambda: D.DSet.build(3, [], 5), "colors must come as a collection, got 5"),
    "gen_fixture": (lambda: D.gen_fixture(5), "fixture names are strings, got 5"),
    "canonical_form/unhashable": (
        lambda: D.canonical_form(D.gen_fixture("CAT5").tree, [[0]] * 5),
        "leaf_tokens must be hashable and comparable: unhashable type: 'list'",
    ),
    "canonical_form/incomparable": (
        lambda: D.canonical_form(D.gen_fixture("CAT5").tree, [0, "a", 0, "a", 0]),
        "leaf_tokens must be hashable and comparable: '<' not supported between instances of 'str' and 'int'",
    ),
    "DSet.from_json/int": (lambda: D.DSet.from_json(5), _NOT_TEXT + "int"),
    "DSet.from_json/None": (lambda: D.DSet.from_json(None), _NOT_TEXT + "NoneType"),
    "LeafTree.from_json": (lambda: LeafTree.from_json(5), _NOT_TEXT + "int"),
    "Splitting.from_json": (lambda: Splitting.from_json(5), _NOT_TEXT + "int"),
}


@pytest.mark.parametrize("case", sorted(_BAD_ARGUMENTS))
def test_constructors_and_readers_refuse_arguments_of_the_wrong_shape(case):
    call, message = _BAD_ARGUMENTS[case]
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("v", ("no", "", 1, 0, None, 1.0, np.int64(1), [True]), ids=repr)
def test_yes_no_arguments_take_a_bool_only(v):
    # Read by its truthiness, respect_colors="no" would respect colors.
    fixture = D.gen_fixture("CAT5")
    with pytest.raises(InputError, match=f"^'respect_colors' must be True or False, got {re.escape(repr(v))}$"):
        D.are_isomorphic(fixture.dset, fixture.dset, respect_colors=v)
    with pytest.raises(InputError, match=f"^'respect_labels' must be True or False, got {re.escape(repr(v))}$"):
        D.are_isomorphic_trees(fixture.tree, fixture.tree, respect_labels=v)


@pytest.mark.parametrize("v", ("no", "", 1, None), ids=repr)
def test_enum_trees_takes_a_bool_flag_only(v):
    # Read by its truthiness, allow_large="no" would lift the 8-leaf cap.
    with pytest.raises(InputError, match=f"^'allow_large' must be True or False, got {re.escape(repr(v))}$"):
        next(D.enum_trees(9, allow_large=v))
    with pytest.raises(InputError, match="^'allow_large' must be True or False"):
        next(D.enum_trees(4, allow_large=v))
    assert next(D.enum_trees(9, allow_large=np.True_)).n_elements == 9
    assert [t.to_json() for t in D.enum_trees(6, allow_large=np.False_)] == [t.to_json() for t in D.enum_trees(6)]


def test_yes_no_arguments_take_python_and_numpy_bools():
    fixture = D.gen_fixture("CAT5")
    d, other = fixture.dset.recolor([1, 0, 0, 0, 0]), fixture.dset.recolor([0, 0, 0, 0, 1])
    t, moved = fixture.tree, D.tree_from_dset(D.relabel(fixture.dset, {0: 2, 1: 1, 2: 0, 3: 3, 4: 4}))
    for v in (True, False, np.True_, np.False_):
        assert D.are_isomorphic(d, other, respect_colors=v) == D.are_isomorphic(d, other, respect_colors=bool(v))
        assert D.are_isomorphic_trees(t, moved, respect_labels=v) is (not v)


_CAT5 = D.gen_fixture("CAT5").dset
_OF_0123 = D.induced_splitting(_CAT5, [0, 1, 2, 3], 4)  # a splitting of 0..3 only


@pytest.mark.parametrize(
    "call, message",
    (
        (lambda: SequenceWindow([]), "window must hold at least one row"),
        (lambda: SequenceWindow([()]), "window rows must be nonempty tuples"),
        (lambda: SequenceWindow([(0,), (1, 2)]), "window rows must share one arity"),
        (lambda: D.relabel(_CAT5, {0: 0, 1: 0, 2: 2, 3: 3, 4: 4}), "relabeling must be a bijection of the element range"),
        (lambda: D.DSet(3, colors=[0, 1]), "colors must assign one color to every element"),
        (lambda: D.color_sector_avoiding(D.DSet(1)), "nothing to starve in a one-element D-set"),
        (lambda: D.color_sector_avoiding(D.DSet(2)), "no splitting offers a sector worth starving"),
        (lambda: next(D.enum_trees(0)), "leaf count must be positive"),
        (lambda: D.induced_splitting(_CAT5, [0], 4), "need at least two elements to induce a splitting"),
        (lambda: D.complementary(_CAT5, _OF_0123, range(4), 0), "sector does not belong to the splitting"),
        (lambda: D.extend_splitting(_CAT5, [0, 1, 2], _OF_0123), "splitting does not cover the given subset"),
        (lambda: D.extend_splitting(_CAT5, range(4), _OF_0123, order=[]), "order must enumerate exactly the uncovered elements"),
        (lambda: _OF_0123.sector_of(4), "element 4 not covered by this splitting"),
    ),
    ids=(
        "window-no-row", "window-empty-row", "window-two-arities", "relabel-no-bijection", "colors-short",
        "sector-avoiding-one-element", "sector-avoiding-singletons", "enum-no-leaves", "induced-one-element", "complementary-foreign-sector",
        "extend-other-ground", "extend-wrong-order", "sector-of-uncovered",
    ),
)
def test_refusals_name_what_is_wrong(call, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()


def test_window_json_nested_too_deep_is_refused():
    # json.loads gives up on it with RecursionError, refused as malformed JSON is.
    with pytest.raises(InputError, match="^bad window payload: maximum recursion depth"):
        SequenceWindow.from_json("[" * 100_000 + "]" * 100_000)
