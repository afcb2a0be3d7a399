"""Fixture catalogue, tree enumeration, random generation, colorings."""

from __future__ import annotations

import hashlib
import itertools
import random
import re

import numpy as np
import pytest

import dsets as D
from dsets import InputError, SequenceWindow, TreeSpec

import _oracles as O


# ---------------------------------------------------------------------------
# gen_fixture


def test_fixture_flower(catalogue):
    fix = catalogue["FLW4"]
    internal = [n for n in fix.tree.nodes if n not in dict(fix.tree.leaves)]
    assert len(internal) == 1
    assert len(fix.tree.leaves) == 4
    assert fix.dset.positives == frozenset()


def test_fixture_caterpillar(catalogue):
    fix = catalogue["CAT4"]
    assert len(fix.tree.nodes) == 6
    assert len(fix.tree.edges) == 5
    degrees = fix.tree.degrees()
    internal_degrees = sorted(
        deg for node, deg in degrees.items() if node not in dict(fix.tree.leaves)
    )
    assert internal_degrees == [3, 3]


def test_fixture_mix_is_irregular(catalogue):
    assert D.is_regular(catalogue["MIX"].dset) == (False, None)


def test_fixture_dset_matches_tree(catalogue):
    for fix in catalogue.values():
        assert fix.dset.positives == O.positives_oracle(fix.tree)


def test_fixture_unknown_name():
    with pytest.raises(InputError):
        D.gen_fixture("WAT")


# ---------------------------------------------------------------------------
# enum_trees


def test_enum_small_counts(trees_by_k):
    assert len(trees_by_k[3]) == 1
    assert len(trees_by_k[4]) == 2
    assert len(trees_by_k[5]) == 3


def test_enum_four_leaf_shapes(catalogue, trees_by_k):
    star, cat = catalogue["STAR4"].tree, catalogue["CAT4"].tree
    matches = {
        ("STAR4" if D.are_isomorphic_trees(t, star, respect_labels=False) else None,
         "CAT4" if D.are_isomorphic_trees(t, cat, respect_labels=False) else None)
        for t in trees_by_k[4]
    }
    assert matches == {("STAR4", None), (None, "CAT4")}


def test_enum_counts_match_shape_oracle(trees_by_k):
    for k in range(1, 9):
        assert len(trees_by_k[k]) == O.count_shapes(k), k


# sha256 of the newline-joined to_json of enum_trees(k), in order.  gen
# --spec kind=enumerated picks a tree by its index, so the order is part of
# the CLI's output.
ENUM_DIGESTS = {
    1: "ff420731b406ce1576ebf901b8dcb9e96377385ce254b51fb54053f6a59804d9",
    2: "226207b8a1111002c6cf0d21f2fd4568971b006c5fd384826eb1c0c609d085ea",
    3: "2a105200b7be08d3f513553fafdde19062e78926267023b2c4b136e34cce82f7",
    4: "3039d301f8bad8313bd3a1bf1c615cd571671590980745e29754aaf8bab39d3c",
    5: "de3794f03c7f043ace265926778aaba0370da647482526635f592a6db8f8c201",
    6: "aec512efa19c98c8f2657755a9f9e43eabcb5dea151843830d978106e0fa831c",
    7: "0ce4affdca5355543133c691c5db9c537ca44e7ede582cdc0124c307cbdfd1cf",
    8: "ad40552d520d1dbf7d04b9524db8bccc7bc6f665d7a3e2a1443c3ba9f7cb3aad",
}


def test_enum_trees_are_pinned(trees_by_k):
    for k, digest in ENUM_DIGESTS.items():
        text = "\n".join(t.to_json() for t in trees_by_k[k])
        assert hashlib.sha256(text.encode()).hexdigest() == digest, k


def test_enum_pairwise_non_isomorphic(trees_by_k):
    for t1, t2 in itertools.combinations(trees_by_k[6], 2):
        assert not D.are_isomorphic_trees(t1, t2, respect_labels=False)


def test_enum_large_needs_flag():
    with pytest.raises(InputError):
        list(D.enum_trees(9))
    assert sum(1 for _ in D.enum_trees(9, allow_large=True)) == O.count_shapes(9)


# ---------------------------------------------------------------------------
# gen_random


def _generated_lines():
    names = [n for n in D.fixture_names() if not n.startswith("FLW")]
    names += [f"FLW{k}" for k in range(3, 13)]
    for name in names:
        yield D.gen_fixture(name).tree.to_json()
    kinds = [("star", None), ("caterpillar", None)]
    kinds += [("d_regular_random", degree) for degree in (3, 4, 5)]
    for kind, degree in kinds:
        for leaves in range(3, 41):
            for seed in range(5):
                try:
                    yield D.gen_random(TreeSpec(kind, leaves, degree, seed)).to_json()
                except InputError as exc:
                    yield f"InputError: {exc}"


def test_generated_trees_are_pinned():
    # sha256 of the newline-joined lines: every catalogue fixture, FLW3-12,
    # then star, caterpillar and d_regular_random (degrees 3-5) at 3-40
    # leaves and seeds 0-4, an infeasible spec as its error message.
    lines = list(_generated_lines())
    assert len(lines) == 971
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "37d578944f35115a5196a95887c7d15b0e72374e44ecae1c91d880bf7f26a081"
    )


def test_gen_random_enumerated_picks_a_seeded_index():
    for k in (1, 4, 6, 8):
        shapes = list(D.enum_trees(k))
        for seed in range(4):
            expected = shapes[random.Random(seed).randrange(len(shapes))]
            assert D.gen_random(TreeSpec("enumerated", k, seed=seed)) == expected


_NO_KINDS = (np.zeros((2, 2)), np.array([1, 2]))  # the `in` test alone raised numpy's ValueError on these


def _named(v) -> str:
    return f"array{v.shape}" if isinstance(v, np.ndarray) else repr(v)


@pytest.mark.parametrize("bad", (5, None, "star", ("star", 5), *_NO_KINDS), ids=_named)
def test_gen_random_refuses_what_is_no_spec(bad):
    with pytest.raises(InputError, match=f"^{re.escape(f'expected a TreeSpec, got {bad!r}')}$"):
        D.gen_random(bad)


@pytest.mark.parametrize("bad", ("zigzag", "", 5, None, ["star"], *_NO_KINDS), ids=_named)
def test_tree_spec_refuses_a_kind_that_is_no_kind_name(bad):
    with pytest.raises(InputError, match=f"^{re.escape(f'unknown tree kind {bad!r}')}$"):
        TreeSpec(bad, 5)


def test_gen_random_regular():
    t = D.gen_random(TreeSpec("d_regular_random", leaves=6, degree=3, seed=1))
    assert D.is_regular(D.d_from_tree(t)) == (True, 3)


def test_gen_random_caterpillar_window():
    t = D.gen_random(TreeSpec("caterpillar", leaves=7))
    d = D.d_from_tree(t)
    got = D.classify_window(d, SequenceWindow([(i,) for i in range(5)]))
    assert got.label == "monotonic"


def test_gen_random_star_is_petaled():
    t = D.gen_random(TreeSpec("star", leaves=5))
    found = D.detect_petaled(D.d_from_tree(t), 5)
    assert found == SequenceWindow([(i,) for i in range(5)])


def test_gen_random_infeasible_degree():
    with pytest.raises(InputError):
        D.gen_random(TreeSpec("d_regular_random", leaves=5, degree=4))


def test_gen_random_unknown_kind():
    with pytest.raises(InputError):
        D.gen_random(TreeSpec("zigzag", leaves=4))


def test_gen_random_seed_determinism():
    spec = TreeSpec("d_regular_random", leaves=8, degree=3, seed=5)
    assert D.gen_random(spec) == D.gen_random(spec)
    assert D.gen_random(spec) != D.gen_random(
        TreeSpec("d_regular_random", leaves=8, degree=3, seed=6)
    )


@pytest.mark.parametrize("kind", ("star", "d_regular_random"))
def test_tree_spec_refuses_a_seed_that_is_no_integer_and_takes_a_negative_one(kind):
    # Before the check a star ignored any seed and random.Random hashed a string one.
    for bad in ("x", 1.5, True, [1], None):
        with pytest.raises(InputError, match=f"^'seed' must be an integer, got {re.escape(repr(bad))}$"):
            TreeSpec(kind, leaves=10, degree=3, seed=bad)
    spec = TreeSpec(kind, leaves=10, degree=3, seed=-3)
    assert D.gen_random(spec) == D.gen_random(spec)


def test_gen_random_output_is_valid_everywhere():
    for kind, extra in (("caterpillar", {}), ("star", {}),
                        ("d_regular_random", {"degree": 3})):
        for seed in range(3):
            t = D.gen_random(TreeSpec(kind, leaves=6, seed=seed, **extra))
            d = D.d_from_tree(t)
            assert D.check_axioms(d).core_pass
            assert d.positives == O.positives_oracle(t)


# ---------------------------------------------------------------------------
# colorings


def test_color_uniform(catalogue):
    colored = D.color_uniform(catalogue["CAT4"].dset)
    assert colored.colors == (0, 0, 0, 0)


def test_color_round_robin(catalogue):
    colored = D.color_round_robin(catalogue["CAT4"].dset, 3)
    assert colored.colors == (0, 1, 2, 0)


def test_color_sector_avoiding_starves_a_sector(catalogue):
    colored = D.color_sector_avoiding(catalogue["CAT4"].dset)
    assert colored.colors == (1, 0, 0, 0)
    result = D.nonextendable_witness(colored)
    assert result is not None
    m, stuck = result
    assert D.check_partial_iso(colored, colored, m)[0]
    assert D.extend_partial_iso(colored, m, stuck) == []


def test_colorings_preserve_relation(catalogue):
    d = catalogue["CAT5"].dset
    for colored in (D.color_uniform(d), D.color_round_robin(d, 2),
                    D.color_sector_avoiding(d)):
        assert colored.positives == d.positives
