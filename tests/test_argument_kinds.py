"""Argument kinds: every argument of the public constructors and readers,
given a value of a wrong kind, ends in InputError or NotRepresentable and
never in another exception.  The few values that are valid in a place are
listed with the reason, and must be taken there."""

from __future__ import annotations

import math

import numpy as np
import pytest

import dsets as D
from dsets import InputError, LeafTree, NotRepresentable, SequenceWindow, Splitting, TreeSpec

_CAT5 = D.gen_fixture("CAT5").dset
_STAR = ([0, 1, 2, 3], [(0, 3), (1, 3), (2, 3)], {0: 0, 1: 1, 2: 2})

# Each argument, as a call that is valid but for the value v in that place.
_ARGUMENTS = {
    "TreeSpec.kind": lambda v: TreeSpec(v, 10, 3),
    "TreeSpec.leaves": lambda v: TreeSpec("d_regular_random", v, 3),
    "TreeSpec.degree": lambda v: TreeSpec("d_regular_random", 10, v),
    "TreeSpec.seed": lambda v: TreeSpec("d_regular_random", 10, 3, v),
    "LeafTree.nodes": lambda v: LeafTree(v, *_STAR[1:]),
    "LeafTree.edges": lambda v: LeafTree(_STAR[0], v, _STAR[2]),
    "LeafTree.leaves": lambda v: LeafTree(*_STAR[:2], v),
    "Splitting": lambda v: Splitting(v),
    "Splitting/sector": lambda v: Splitting([[0, 1], v]),
    "SequenceWindow": lambda v: SequenceWindow(v),
    "SequenceWindow/row": lambda v: SequenceWindow([(0,), v]),
    "DSet.n": lambda v: D.DSet(v),
    "DSet.positives": lambda v: D.DSet(4, v),
    "DSet/quad": lambda v: D.DSet(4, [v]),
    "DSet.colors": lambda v: D.DSet(4, [], v),
    "DSet.build.n": lambda v: D.DSet.build(v),
    "DSet.build.quads": lambda v: D.DSet.build(4, v),
    "DSet.build/quad": lambda v: D.DSet.build(4, [v]),
    "DSet.build.colors": lambda v: D.DSet.build(4, [], v),
    "DSet.from_json": lambda v: D.DSet.from_json(v),
    "LeafTree.from_json": lambda v: LeafTree.from_json(v),
    "Splitting.from_json": lambda v: Splitting.from_json(v),
    "gen_fixture": lambda v: D.gen_fixture(v),
    "DSet.recolor": lambda v: _CAT5.recolor(v),
}

_VALUES = {
    "None": None,
    "float": 1.5,
    "str": "x",
    "nested_list": [[1]],
    "array_2d": np.zeros((2, 2)),
    "array_1d": np.array([1, 2]),
    "dict": {"a": 1},
    "object": object(),
    "-1": -1,
    "True": True,
    "bytes": b"x",
    "nan": math.nan,
    "huge_int": 10**30,
}

# The values that are valid where they stand.
_TAKEN = {
    ("TreeSpec.leaves", "huge_int"),  # counts and seeds are unbounded integers
    ("TreeSpec.degree", "huge_int"),
    ("TreeSpec.seed", "huge_int"),
    ("TreeSpec.seed", "-1"),  # a seed may be negative
    ("TreeSpec.degree", "None"),  # only d_regular_random needs a degree, and gen_random asks
    ("DSet.build.colors", "None"),  # build's default: monochromatic
    ("Splitting", "nested_list"),  # one sector, which is_splitting reports as too few
    ("SequenceWindow", "nested_list"),  # one row, (1,)
    ("Splitting/sector", "bytes"),  # bytes are a collection of ints: element 120
    ("SequenceWindow/row", "bytes"),
}


@pytest.mark.parametrize("value", sorted(_VALUES))
@pytest.mark.parametrize("argument", sorted(_ARGUMENTS))
def test_arguments_of_a_wrong_kind_end_in_input_errors(argument, value):
    call, v = _ARGUMENTS[argument], _VALUES[value]
    if (argument, value) in _TAKEN:
        call(v)
    else:
        with pytest.raises((InputError, NotRepresentable)):
            call(v)
