"""Leaf trees, both correspondence directions, splitting read-off, DOT."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

import dsets as D
import dsets.core
import dsets.splittings
import dsets.trees
from dsets import InputError, LeafTree, Splitting

import _families as F
import _oracles as O


# ---------------------------------------------------------------------------
# LeafTree validation


def test_leaftree_rejects_binary_internal():
    # path of two internal nodes between two leaves: degree-2 internals
    with pytest.raises(InputError):
        LeafTree([0, 1, 2, 3], [(0, 2), (2, 3), (3, 1)], {0: 0, 1: 1})


def test_leaftree_rejects_cycle():
    with pytest.raises(InputError):
        LeafTree([0, 1, 2], [(0, 1), (1, 2), (0, 2)], {0: 0, 1: 1, 2: 2})


def test_leaftree_rejects_label_collision():
    with pytest.raises(InputError):
        LeafTree([0, 1, 4], [(4, 0), (4, 1)], [(0, 0), (0, 1)])


def test_leaftree_rejects_sparse_labels():
    with pytest.raises(InputError):
        LeafTree([0, 2, 4], [(4, 0), (4, 2)], {0: 0, 2: 2})


def test_leaftree_rejects_labeled_high_degree(catalogue):
    star = catalogue["FLW4"].tree
    center = star.internal_nodes()[0]
    with pytest.raises(InputError):
        LeafTree(star.nodes, star.edges, dict(star.leaves) | {center: 4})


def test_leaftree_names_what_is_no_tree():
    bad_json = "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
    for make, message in (
        (lambda: LeafTree([0, 1], [(1, 1)], {0: 0}), "self-loop at node 1"),
        (lambda: LeafTree([0, 1], [(0, 5)], {0: 0, 1: 1}), "edge (0,5) mentions an unknown node"),
        (lambda: LeafTree([0, 1, 2, 3], [(0, 1), (1, 2), (0, 2)], {3: 0}), "tree is not connected"),
        (lambda: LeafTree([0, 1], [(0, 1)], {0: 0, 5: 1}), "label on unknown node 5"),
        (lambda: LeafTree.from_json("{"), bad_json),
        (lambda: LeafTree.from_json("[]"), "tree JSON must be an object"),
        (lambda: Splitting.from_json("{"), bad_json),
    ):
        with pytest.raises(InputError) as caught:
            make()
        assert str(caught.value) == message


def test_leaftree_json_round_trip(catalogue):
    for name in ("FLW4", "CAT5X", "MIX"):
        t = catalogue[name].tree
        assert LeafTree.from_json(t.to_json()) == t
        assert LeafTree.from_json(t.to_json()).to_json() == t.to_json()


# ---------------------------------------------------------------------------
# d_from_tree


def test_d_from_tree_cat4(catalogue):
    cat4 = catalogue["CAT4"]
    assert O.positives_oracle(cat4.tree) == frozenset({(0, 1, 2, 3)})
    assert cat4.dset.positives == frozenset({(0, 1, 2, 3)})


def test_d_from_tree_star4(catalogue):
    assert catalogue["STAR4"].dset.positives == frozenset()


def test_d_from_tree_cat5(catalogue):
    cat5 = catalogue["CAT5"]
    expected = frozenset(itertools.combinations(range(5), 4))
    assert O.positives_oracle(cat5.tree) == expected
    assert cat5.dset.positives == expected


def test_d_from_tree_matches_oracle_on_catalogue(catalogue):
    for fix in catalogue.values():
        assert fix.dset.positives == O.positives_oracle(fix.tree)


# ---------------------------------------------------------------------------
# seeded trees above the catalogue sizes, against the path oracles


def _relabelled(tree, rng):
    """The same tree with its element labels permuted."""
    perm = list(range(tree.n_elements))
    rng.shuffle(perm)
    return LeafTree(tree.nodes, tree.edges, {u: perm[e] for u, e in tree.leaves})


def _four_point_table(tree):
    """T[w,x,y,z] = d(w,x) + d(y,z) < d(w,y) + d(x,z), with d counted off
    the oracle's BFS paths."""
    at = {e: u for u, e in tree.leaves}
    n = len(at)
    dist = np.zeros((n, n), dtype=int)
    for a, b in itertools.combinations(range(n), 2):
        dist[a, b] = dist[b, a] = len(O.path_nodes(tree.edges, at[a], at[b])) - 1
    w, x, y, z = np.indices((n, n, n, n), sparse=True)
    return dist[w, x] + dist[y, z] < dist[w, y] + dist[x, z]


FAMILIES = ("caterpillar", "star", "d_regular_random")


# Every family up to 32 leaves; at 64 one family, since the path oracle
# alone takes seconds there.
@pytest.mark.parametrize(
    ("kind", "leaves"),
    [(kind, leaves) for leaves in (16, 24, 32) for kind in FAMILIES]
    + [("d_regular_random", 64)],
)
def test_large_trees_match_oracles(kind, leaves):
    rng = random.Random(f"{kind}-{leaves}")
    degree = 3 if kind == "d_regular_random" else None
    t = _relabelled(D.gen_random(D.TreeSpec(kind, leaves, degree, seed=leaves)), rng)
    d = D.d_from_tree(t)
    assert d.positives == O.positives_oracle(t)
    assert np.array_equal(D.relation_table(d), _four_point_table(t))

    fresh = D.DSet.from_json(d.to_json())
    assert fresh == d and D.check_axioms(fresh).core_pass
    assert D.canonical_form(D.tree_from_dset(fresh)) == D.canonical_form(t)

    for _ in range(6):
        e, *subset = rng.sample(range(leaves), rng.randint(3, leaves))
        expected = {
            frozenset(b for b in subset if any(d.holds(a, b, e, x) for x in subset))
            for a in subset
        }
        assert set(D.induced_splitting(d, subset, e).sectors) == expected


def _oracle_trees(trees_by_k):
    """Every tree with up to 8 leaves, plain and relabelled, then the
    caterpillar and the star at 64 leaves, relabelled."""
    rng = random.Random(37)
    for k in range(1, 9):
        for tree in trees_by_k[k]:
            yield tree
            yield _relabelled(tree, rng)
    for kind in ("caterpillar", "star"):
        yield _relabelled(D.gen_random(D.TreeSpec(kind, 64, seed=64)), rng)


def test_d_from_tree_rows_match_path_oracle(trees_by_k):
    for tree in _oracle_trees(trees_by_k):
        d = D.d_from_tree(tree)
        n = d.n
        expected = D.DSet.build(n, O.positives_oracle(tree))
        rows = d.rows
        assert np.array_equal(rows, expected.rows), tree
        assert rows.dtype == np.int64 and rows.shape == (len(rows), 4)
        assert rows.flags.c_contiguous and not rows.flags.writeable
        key = ((rows[:, 0] * n + rows[:, 1]) * n + rows[:, 2]) * n + rows[:, 3]
        assert (np.diff(key) > 0).all()  # sorted and free of repeats, as stored
        assert (hash(d), repr(d), d.to_json()) == (hash(expected), repr(expected), expected.to_json())


def test_leaf_distances_match_path_oracle(trees_by_k):
    for tree in _oracle_trees(trees_by_k):
        expected = O.leaf_distance_oracle(tree)
        record = dsets.core._record(tree.adjacency(), tree.leaf_map(), tree.n_elements)
        assert np.array_equal(record[2], expected), tree
        d = D.d_from_tree(tree)
        if d.n >= 2:  # a rows-only copy's own rebuild, leaves by element id
            record = dsets.core._rebuild(D.DSet._from_rows(d.n, d.rows))
            assert np.array_equal(record[2], expected), tree


def test_kept_leaf_distances_carry_the_relation(trees_by_k):
    # Buneman's four-point condition on the record's leaf distances is the
    # relation table, degenerate values included, for a record made from a
    # tree in hand and for one rebuilt from the rows.
    shapes = (("caterpillar", None), ("star", None), ("d_regular_random", 3), ("d_regular_random", 4))
    trees = [t for k in range(1, 9) for t in trees_by_k[k]]
    trees += [D.gen_random(D.TreeSpec(kind, k, degree, seed=k)) for k in (16, 24) for kind, degree in shapes]
    for tree in trees:
        d = D.d_from_tree(tree)
        w, x, y, z = np.ix_(*[range(d.n)] * 4)
        for e in (d, D.DSet._from_rows(d.n, d.rows)):
            dist = dsets.core._tree_record(e)[2]
            assert np.array_equal(dist[w, x] + dist[y, z] < dist[w, y] + dist[x, z], D.relation_table(e)), tree


def test_built_structures_skip_certification(monkeypatch):
    # d_from_tree, relabel and extend_by_point hand on the tree they know, so
    # the gated calls on their results never certify from the rows.
    a = D.d_from_tree(D.gen_random(D.TreeSpec("d_regular_random", 16, 3, seed=16)))
    b = D.relabel(a, dict(enumerate(random.Random(16).sample(range(16), 16))))
    grown = [D.extend_by_point(a, s) for s in D.enumerate_splittings(a)[::7]]

    rebuild = dsets.core._rebuild

    def refuse(d):  # certification from the rows runs the rebuild a record kept on d skips
        if "_rebuild" not in d._analyses:
            raise AssertionError("certified from the rows")
        return rebuild(d)

    monkeypatch.setattr(dsets.core, "_rebuild", refuse)
    with pytest.raises(AssertionError, match="from the rows"):
        D.check_axioms(D.DSet._from_rows(a.n, a.rows))
    for d in (a, b, *grown):
        assert D.check_axioms(d).core_pass
        assert D.tree_from_dset(d).n_elements == d.n
    assert D.relabel(a, D.are_isomorphic(a, b)) == b


# ---------------------------------------------------------------------------
# tree_from_dset


def test_reconstruct_flower(catalogue):
    t = D.tree_from_dset(catalogue["FLW4"].dset)
    assert len(t.leaves) == 4
    assert len(t.internal_nodes()) == 1


def test_reconstruct_cat4_round_trip(catalogue):
    cat4 = catalogue["CAT4"]
    t = D.tree_from_dset(cat4.dset)
    assert D.are_isomorphic_trees(t, cat4.tree, respect_labels=True)
    assert D.d_from_tree(t).positives == cat4.dset.positives


def test_reconstruct_three_elements():
    t = D.tree_from_dset(D.DSet(3))
    assert len(t.leaves) == 3
    assert len(t.internal_nodes()) == 1


def test_reconstruct_two_and_one_element():
    t2 = D.tree_from_dset(D.DSet(2))
    assert len(t2.leaves) == 2
    assert len(t2.internal_nodes()) == 0
    t1 = D.tree_from_dset(D.DSet(1))
    assert len(t1.leaves) == 1


def test_reconstruct_rejects_non_dset():
    broken = D.DSet.build(4, [(0, 1, 2, 3), (0, 2, 1, 3)])
    with pytest.raises(D.NotRepresentable):
        D.tree_from_dset(broken)


# ---------------------------------------------------------------------------
# certification against the sweep and the insertion reconstruction


def _pinned(d):
    """check_axioms and tree_from_dset on d against the sweep and insertion
    oracles, for a structure that passes D1..D4."""
    got = (D.check_axioms(d).as_dict(), D.tree_from_dset(d).to_json())
    table = np.array(D.relation_table(d))
    assert got == (O.axioms_oracle(table), O.insertion_tree_oracle(table))


def test_certification_matches_oracles_on_enumerated_trees(trees_by_k):
    rng = random.Random(29)
    for k in range(1, 9):
        for tree in trees_by_k[k]:
            d = D.d_from_tree(tree)
            _pinned(d)
            for color in (0, 1):
                perm = list(range(k))
                rng.shuffle(perm)
                _pinned(D.relabel(d, dict(enumerate(perm))).recolor([e % 2 * color for e in range(k)]))


@pytest.mark.parametrize(
    ("kind", "leaves"), [(kind, leaves) for leaves in (16, 32, 64) for kind in FAMILIES]
)
def test_certification_matches_oracles_on_large_trees(kind, leaves):
    rng = random.Random(f"certify-{kind}-{leaves}")
    degree = 3 if kind == "d_regular_random" else None
    tree = _relabelled(D.gen_random(D.TreeSpec(kind, leaves, degree, seed=leaves)), rng)
    plain = D.DSet.from_json(D.d_from_tree(tree).to_json())
    colored = plain.recolor([e % 3 for e in range(leaves)])
    got = [(D.check_axioms(d).as_dict(), D.tree_from_dset(d).to_json()) for d in (plain, colored)]
    table = np.array(D.relation_table(plain))
    assert got == [(O.axioms_oracle(table), O.insertion_tree_oracle(table))] * 2


def _perturbed_tables(rng, count):
    """count tables on 4-10 elements, in turn: a tree table with one 4-set's
    pairing swapped for another (the row count stays; a 4-set without one
    gains one), a tree table with one to six quads added or removed, and a
    random table."""
    for i in range(count):
        n = rng.randint(4, 10)
        if i % 3 == 2:
            yield F.random_table(rng, n)
            continue
        rows = set(map(tuple, F.seeded_tree_dset(rng, n).rows.tolist()))
        for _ in range(1 if i % 3 == 0 else rng.randint(1, 6)):
            a, b, c, e = sorted(rng.sample(range(n), 4))
            pairings = [(a, b, c, e), (a, c, b, e), (a, e, b, c)]
            held = [q for q in pairings if q in rows]
            if i % 3 == 0 and held:
                rows.discard(held[0])
                rows.add(rng.choice([q for q in pairings if q != held[0]]))
            elif held and rng.random() < 0.5:
                rows.discard(rng.choice(held))
            else:
                rows.add(rng.choice(pairings))
        yield D.DSet.build(n, sorted(rows))


# Its rooted clusters are not nested, yet distances counted off them as if
# they were a tree's pass both the four-point and the row-count test.
NON_NESTED = D.DSet.build(5, [(0, 2, 1, 3), (0, 2, 3, 4), (0, 3, 1, 2), (0, 4, 1, 2), (1, 2, 3, 4)])


def test_certification_never_passes_a_non_tree_table():
    rng = random.Random(31)
    failing = 0
    for d in itertools.chain([NON_NESTED], _perturbed_tables(rng, 2100)):
        report = D.check_axioms(d).as_dict()
        assert report == O.axioms_oracle(np.array(D.relation_table(d)))
        if report["core_pass"]:
            assert D.d_from_tree(D.tree_from_dset(d)) == d
        else:
            failing += 1
            with pytest.raises(D.NotRepresentable) as caught:
                D.tree_from_dset(d)
            assert str(caught.value) == f"relation table fails D1..D4: {report}"
    assert failing > 1000


def test_certified_tree_dset_builds_no_table():
    tree = D.gen_random(D.TreeSpec("d_regular_random", 40, 3, seed=40))
    d = D.DSet.from_json(D.d_from_tree(tree).to_json())
    assert D.check_axioms(d).core_pass
    D.tree_from_dset(d)
    D.enumerate_splittings(d)
    assert "relation_table" not in d._analyses


# ---------------------------------------------------------------------------
# splittings_from_tree


def _sector_sets(splittings):
    return {frozenset(frozenset(sec) for sec in s.sectors) for s in splittings}


def test_splittings_cat4(catalogue):
    corr = D.splittings_from_tree(catalogue["CAT4"].tree)
    node_parts = _sector_sets((s for _, s in corr.node_splittings))
    assert node_parts == {
        frozenset({frozenset({0}), frozenset({1}), frozenset({2, 3})}),
        frozenset({frozenset({0, 1}), frozenset({2}), frozenset({3})}),
    }
    assert len(corr.edge_splittings) == 5


def test_splittings_star4(catalogue):
    corr = D.splittings_from_tree(catalogue["STAR4"].tree)
    node_parts = _sector_sets((s for _, s in corr.node_splittings))
    assert node_parts == {
        frozenset({frozenset({0}), frozenset({1}), frozenset({2}), frozenset({3})})
    }
    edge_parts = _sector_sets((s for _, s in corr.edge_splittings))
    assert edge_parts == {
        frozenset({frozenset({e}), frozenset(set(range(4)) - {e})}) for e in range(4)
    }


def test_splittings_two_leaf_tree():
    t = LeafTree([0, 1], [(0, 1)], {0: 0, 1: 1})
    corr = D.splittings_from_tree(t)
    assert len(corr.node_splittings) == 0
    assert len(corr.edge_splittings) == 1


def test_node_splitting_degree_match(catalogue, trees_by_k):
    # a degree-d internal node maps to a d-sector splitting
    for t in trees_by_k[6]:
        corr = D.splittings_from_tree(t)
        degrees = t.degrees()
        for node, s in corr.node_splittings:
            assert len(s.sectors) == degrees[node]


def test_all_read_off_splittings_are_splittings(catalogue):
    for name in ("CAT5X", "MIX", "FLW5"):
        fix = catalogue[name]
        corr = D.splittings_from_tree(fix.tree)
        for s in corr.ordered:
            ok, witness = O.splitting_ok(fix.dset, [set(c) for c in s.sectors])
            assert ok, witness


def _entries(tree):
    corr = D.splittings_from_tree(tree)
    nodes = [(mu, set(s.sectors)) for mu, s in corr.node_splittings]
    edges = [(e, set(s.sectors)) for e, s in corr.edge_splittings]
    return nodes, edges


def _renumbered(tree, rng):
    """The same tree with node ids and element labels both shuffled, so
    node ids no longer coincide with element ids."""
    ids = rng.sample(range(3 * len(tree.nodes)), len(tree.nodes))
    node = dict(zip(tree.nodes, ids))
    perm = rng.sample(range(tree.n_elements), tree.n_elements)
    return LeafTree(
        ids, [(node[u], node[v]) for u, v in tree.edges], {node[u]: perm[e] for u, e in tree.leaves}
    )


def test_splittings_match_component_oracle_on_enumerated_trees(trees_by_k):
    for trees in trees_by_k.values():
        for t in trees:
            assert _entries(t) == O.tree_splittings_oracle(t), t.to_json()


@pytest.mark.parametrize("leaves", (16, 32, 64))
@pytest.mark.parametrize("kind", FAMILIES)
def test_splittings_match_component_oracle_on_large_trees(kind, leaves):
    rng = random.Random(f"split-{kind}-{leaves}")
    degree = 3 if kind == "d_regular_random" else None
    t = _renumbered(D.gen_random(D.TreeSpec(kind, leaves, degree, seed=leaves)), rng)
    assert _entries(t) == O.tree_splittings_oracle(t)


def test_correspondence_matches_the_component_oracle_in_order(trees_by_k):
    # Every tree of 1..8 leaves and seeded families of 16 to 128 leaves, each
    # read off its LeafTree (nodes renumbered) and, up to 64 leaves, off the
    # kept record of its D-set: the features and their sectors are the
    # oracle's, ordered sorts them by sorted sector lists, and each
    # splitting's sectors go by least element.
    rng = random.Random("layout")
    trees = [t for k in range(1, 9) for t in trees_by_k[k]]
    for leaves in (16, 32, 64, 128):
        for kind, degree in (("caterpillar", None), ("star", None), ("d_regular_random", 3), ("d_regular_random", 4)):
            trees.append(D.gen_random(D.TreeSpec(kind, leaves, degree, seed=leaves)))
    read = 0
    for tree in trees:
        moved = _renumbered(tree, rng)
        pairs = [(D.splittings_from_tree(moved), moved)]
        if tree.n_elements <= 64:
            d = D.DSet.from_json(D.d_from_tree(tree).to_json())
            pairs.append((dsets.splittings._tree_splittings(d), D.tree_from_dset(d)))
        for corr, t in pairs:
            nodes, edges = O.tree_splittings_oracle(t)
            assert [(mu, set(s.sectors)) for mu, s in corr.node_splittings] == nodes, t.to_json()
            assert [(e, set(s.sectors)) for e, s in corr.edge_splittings] == edges, t.to_json()
            features = [s for _, s in corr.node_splittings + corr.edge_splittings]
            assert corr.ordered == tuple(sorted(features, key=Splitting.as_sorted_lists))
            assert all(list(s.sectors) == sorted(s.sectors, key=min) for s in corr.ordered)
            read += 1
    assert read == 2 * (60 + 12) + 4


# ---------------------------------------------------------------------------
# the trusted route: what tree_from_dset and the splitting readers build
# without checks equals what the checking constructors build


def _sweep_trees(trees_by_k):
    """Every tree with 1..8 leaves, then seeded caterpillars, stars and 3-
    and 4-regular trees of 16, 32 and 64 leaves."""
    for k in range(1, 9):
        yield from trees_by_k[k]
    for leaves in (16, 32, 64):
        for kind, degree in (("caterpillar", None), ("star", None), ("d_regular_random", 3), ("d_regular_random", 4)):
            yield D.gen_random(D.TreeSpec(kind, leaves, degree, seed=leaves))


def _same_as_rows_rebuild(d):
    """The tree record kept on d and d's axiom report equal those of an
    independent rebuild from a rows-only copy of d."""
    fresh = D.DSet._from_rows(d.n, d.rows, d.colors)
    kept, rebuilt = d._analyses["_rebuild"], dsets.core._rebuild(fresh)
    assert all(np.array_equal(x, y) and x.dtype == y.dtype for x, y in zip(kept, rebuilt)), d
    assert D.check_axioms(d) == D.check_axioms(fresh), d


def test_handed_on_records_equal_rows_rebuilds(trees_by_k, catalogue):
    rng = random.Random(53)
    for tree in _sweep_trees(trees_by_k):
        if tree.n_elements >= 2:
            d = D.d_from_tree(tree)
            _same_as_rows_rebuild(d)
            for _ in range(3):
                _same_as_rows_rebuild(D.relabel(d, dict(enumerate(rng.sample(range(d.n), d.n)))))
    grown = [fix.dset.recolor([e % 2 for e in range(fix.dset.n)]) for fix in catalogue.values()]
    for leaves in (16, 24, 32):
        for kind, degree in (("caterpillar", None), ("star", None), ("d_regular_random", 3), ("d_regular_random", 4)):
            grown.append(D.d_from_tree(D.gen_random(D.TreeSpec(kind, leaves, degree, seed=leaves))))
    for d in grown:
        t = D.tree_from_dset(d)
        correspondence = D.splittings_from_tree(t)
        features = correspondence.node_splittings + correspondence.edge_splittings
        # The path oracle costs about 0.1 s a call at 33 leaves: there, a seeded sample.
        oracle = features if d.n <= 16 else rng.sample(features, 3)
        for feature, s in features:
            g = D.extend_by_point(d, s)
            _same_as_rows_rebuild(g)
            assert g.colors == d.colors + (0,)
            if (feature, s) in oracle:
                expected = O.positives_oracle(dsets.trees._graft(t, feature))
                assert g == D.DSet.build(d.n + 1, expected, d.colors + (0,)), (d, s)


def _checked(s):
    """s rebuilt through the checking constructor."""
    return Splitting(s.as_sorted_lists())


def _int_ids(s):
    return {type(v) for sec in s.sectors for v in sec} == {int}


def _checked_graft(t, feature):
    """dsets.trees._graft through the checking constructor, from unsorted parts."""
    top, leaves = max(t.nodes), dict(t.leaves)
    if isinstance(feature, tuple):
        u, v = feature
        edges = [e for e in t.edges if e != feature] + [(u, top + 1), (top + 1, v), (top + 2, top + 1)]
        return LeafTree([top + 2, top + 1, *t.nodes], edges, {top + 2: t.n_elements, **leaves})
    return LeafTree([top + 1, *t.nodes], [(top + 1, feature), *t.edges], {top + 1: t.n_elements, **leaves})


def test_trusted_route_equals_checked_rebuilds(trees_by_k):
    swept = 0
    for tree in _sweep_trees(trees_by_k):
        d = D.DSet.from_json(D.d_from_tree(tree).to_json())
        t = D.tree_from_dset(d)
        checked = LeafTree(t.nodes, t.edges, dict(t.leaves))
        assert t == checked and t.to_json() == checked.to_json()
        # One leaf grafted at every feature of the tree and of its rebuild.
        for u in (tree, t) if d.n <= 7 else ():
            for feature in u.internal_nodes() + list(u.edges):
                grafted, checked = dsets.trees._graft(u, feature), _checked_graft(u, feature)
                assert grafted == checked and grafted.to_json() == checked.to_json()
        got = D.enumerate_splittings(d)
        rebuilt = [_checked(s) for s in got]
        assert got == rebuilt == sorted(set(rebuilt), key=Splitting.as_sorted_lists)
        assert all(map(_int_ids, got))
        # The order does not depend on the tree's node ids.
        assert D.splittings_from_tree(tree).ordered == tuple(got)
        if d.n <= 7:
            assert got == D.enumerate_splittings(d, method="brute")
        swept += 1
    assert swept == 60 + 12


def test_kept_record_and_tree_walk_read_the_same_splittings(trees_by_k):
    # A D-set's splittings are read off its kept (parent, below) record;
    # splittings_from_tree walks a LeafTree.  Both agree, node and edge keys
    # included, with enumerate_splittings, the component oracle and, up to
    # six elements, the brute-force route.
    structures = [D.DSet(n) for n in range(4)]
    for tree in _sweep_trees(trees_by_k):
        d = D.d_from_tree(tree)
        structures += [d, D.DSet.from_json(d.to_json())]
    for d in structures:
        kept = dsets.splittings._tree_splittings(d)
        t = D.tree_from_dset(d)
        assert kept == D.splittings_from_tree(t), d
        nodes = [mu for mu, _ in kept.node_splittings]
        assert all(type(v) is int for v in itertools.chain(nodes, *(e for e, _ in kept.edge_splittings)))
        entries = (
            [(mu, set(s.sectors)) for mu, s in kept.node_splittings],
            [(e, set(s.sectors)) for e, s in kept.edge_splittings],
        )
        assert entries == O.tree_splittings_oracle(t), d
        assert D.enumerate_splittings(d) == list(kept.ordered)
        if d.n <= 6:
            assert D.enumerate_splittings(d, method="brute") == list(kept.ordered)
    assert len(structures) == 4 + 2 * (60 + 12)


def test_trusted_trees_of_up_to_three_elements():
    expected = {
        0: ((), ()),
        1: ((0,), ()),
        2: ((0, 1), ((0, 1),)),
        3: ((0, 1, 2, 3), ((0, 3), (1, 3), (2, 3))),
    }
    for n, (nodes, edges) in expected.items():
        d = D.d_from_tree(next(D.enum_trees(n))) if n else D.DSet(0)
        t = D.tree_from_dset(d)
        assert (t.nodes, t.edges, t.leaves) == (nodes, edges, tuple((e, e) for e in range(n)))
        assert t == LeafTree(nodes, edges, {e: e for e in range(n)})
        assert D.enumerate_splittings(d) == D.enumerate_splittings(d, method="brute")


def test_induced_and_extended_splittings_equal_checked_rebuilds(catalogue):
    rng = random.Random(41)
    for fix in catalogue.values():
        d = fix.dset
        for e in range(d.n):
            rest = [a for a in range(d.n) if a != e]
            for sub in (rest, sorted(rng.sample(rest, rng.randint(2, len(rest))))):
                s = D.induced_splitting(d, sub, e)
                assert s == _checked(s) and _int_ids(s)
                grown = D.extend_splitting(d, sub, s)
                assert grown == _checked(grown) and _int_ids(grown)
                backwards = D.extend_splitting(d, sub, s, sorted(set(range(d.n)) - set(sub), reverse=True))
                assert backwards == _checked(backwards)


# ---------------------------------------------------------------------------
# isomorphism of trees


def test_tree_iso_respects_labels(catalogue):
    cat4 = catalogue["CAT4"].tree
    relabeled = LeafTree(
        cat4.nodes, cat4.edges, {u: (e + 1) % 4 for u, e in cat4.leaves}
    )
    assert D.are_isomorphic_trees(cat4, relabeled, respect_labels=False)
    assert not D.are_isomorphic_trees(cat4, relabeled, respect_labels=True)


def _oracle_code(t, leaf_tokens):
    """O.flat_code of t with canonical_form's node tokens, its nodes numbered
    in t.nodes order and hung from the first one by a plain walk of t.edges."""
    index = {u: i for i, u in enumerate(t.nodes)}
    near = {i: [] for i in index.values()}
    for u, v in t.edges:
        near[index[u]].append(index[v])
        near[index[v]].append(index[u])
    parent, queue = {0: -1}, [0]
    for u in queue:
        for v in near[u]:
            if v not in parent:
                parent[v] = u
                queue.append(v)
    leaf = {index[u]: e for u, e in t.leaves}
    token = lambda i: ("leaf", leaf_tokens[leaf[i]]) if i in leaf else ("i",)  # noqa: E731
    return O.flat_code([parent[i] for i in range(len(t.nodes))], token)


def test_canonical_form_is_the_oracle_flat_code(trees_by_k):
    # Every tree of 1..8 leaves and seeded caterpillars, stars, 3- and
    # 4-regular trees of 16 to 300 leaves, under element ids, a constant and
    # e % 3; enumeration lists each leaf count's shapes in code order.
    seeded = [
        D.gen_random(D.TreeSpec(kind, leaves, degree, seed=leaves))
        for kind, degree in (("caterpillar", None), ("star", None), ("d_regular_random", 3), ("d_regular_random", 4))
        for leaves in (16, 50, 300)
    ]
    for t in itertools.chain(*trees_by_k.values(), seeded):
        n = t.n_elements
        for tokens in (range(n), [0] * n, [e % 3 for e in range(n)]):
            assert D.canonical_form(t, tokens) == _oracle_code(t, tokens)
    for trees in trees_by_k.values():
        codes = [_oracle_code(t, [0] * t.n_elements) for t in trees]
        assert all(a < b for a, b in zip(codes, codes[1:]))
    assert D.canonical_form(LeafTree([], [], {})) == ("empty",)


@pytest.mark.parametrize("n", (1500, 3000))
def test_deep_caterpillar_canonical_form(n):
    # A spine of n - 2 nodes, deeper than the interpreter's default
    # recursion limit.
    t = D.gen_random(D.TreeSpec("caterpillar", n))
    rng = random.Random(n)
    shuffled = _renumbered(t, rng)
    # Reversing the spine is an automorphism: leaf e goes where n-1-e was.
    mirrored = LeafTree(t.nodes, t.edges, {u: n - 1 - e for u, e in t.leaves})
    zeros = [0] * n
    shape, labelled = D.canonical_form(t, zeros), D.canonical_form(t)
    assert D.canonical_form(shuffled, zeros) == shape
    assert D.canonical_form(shuffled) != labelled
    assert D.canonical_form(mirrored, zeros) == shape
    assert D.canonical_form(mirrored) == labelled
    assert D.are_isomorphic_trees(shuffled, mirrored, respect_labels=False)
    assert not D.are_isomorphic_trees(shuffled, mirrored)


def test_tree_iso_shape_only(catalogue):
    assert not D.are_isomorphic_trees(
        catalogue["CAT4"].tree, catalogue["STAR4"].tree, respect_labels=False
    )


# ---------------------------------------------------------------------------
# export_dot


def test_dot_two_leaf_tree():
    t = LeafTree([0, 1], [(0, 1)], {0: 0, 1: 1})
    text = D.export_dot(t)
    assert text.count("label=") == 2
    assert text.count(" -- ") == 1


def test_dot_cat4_counts(catalogue):
    text = D.export_dot(catalogue["CAT4"].tree)
    assert text.count(" -- ") == 5
    assert text.count("shape=point") == 2
    assert text.count("label=") == 4


def test_dot_carries_colors(catalogue):
    text = D.export_dot(catalogue["STAR4"].tree, colors=(0, 0, 1, 1))
    assert text.count('color_index="0"') == 2
    assert text.count('color_index="1"') == 2


def test_dot_deterministic(catalogue):
    t = catalogue["CAT5X"].tree
    assert D.export_dot(t) == D.export_dot(t)
