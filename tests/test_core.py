"""Relation table, axiom checker, substructures, isomorphism."""

from __future__ import annotations

import ast
import gc
import itertools
import json
import pathlib
import random
import re
import weakref

import numpy as np
import pytest

import dsets as D
from dsets import DSet, InputError, check_axioms, normalize_quad
from dsets.core import _atoms, _backtrack_bijection, _grid

import _families as F
import _oracles as O


# ---------------------------------------------------------------------------
# normalize_quad


def test_normalize_examples():
    assert normalize_quad(3, 1, 2, 0) == (0, 2, 1, 3)
    assert normalize_quad(0, 1, 2, 3) == (0, 1, 2, 3)
    assert normalize_quad(2, 3, 0, 1) == (0, 1, 2, 3)


def test_normalize_constant_on_symmetry_orbit():
    w, x, y, z = 5, 2, 7, 0
    orbit = set()
    for a, b in ((w, x), (x, w)):
        for c, d in ((y, z), (z, y)):
            orbit.add(normalize_quad(a, b, c, d))
            orbit.add(normalize_quad(c, d, a, b))
    assert orbit == {(0, 7, 2, 5)}
    assert normalize_quad(*normalize_quad(w, x, y, z)) == (0, 7, 2, 5)


def test_normalize_rejects_bad_ids():
    with pytest.raises(InputError):
        normalize_quad(-1, 0, 1, 2)
    with pytest.raises(InputError):
        normalize_quad(0, "1", 2, 3)
    with pytest.raises(InputError):
        normalize_quad(True, 0, 1, 2)


# ---------------------------------------------------------------------------
# holds and degenerate semantics


def test_holds_flower_examples(catalogue):
    flw4 = catalogue["FLW4"].dset
    assert flw4.holds(0, 0, 1, 2) is True
    assert flw4.holds(0, 1, 2, 3) is False


def test_holds_intersecting_pairs_false(catalogue):
    for name in ("FLW4", "CAT4", "CAT5"):
        d = catalogue[name].dset
        assert d.holds(0, 1, 0, 2) is False


def test_holds_out_of_range(catalogue):
    with pytest.raises(InputError):
        catalogue["FLW4"].dset.holds(0, 1, 2, 4)


@pytest.mark.parametrize("bad", ["a", None, 1.5, True, 99.0, np.float64(2)])
@pytest.mark.parametrize("slot", range(4))
def test_holds_rejects_non_integer_ids(catalogue, bad, slot):
    ids = [0, 1, 2, 3]
    ids[slot] = bad
    with pytest.raises(InputError, match=f"must be non-negative integers, got {re.escape(repr(bad))}$"):
        catalogue["CAT5"].dset.holds(*ids)


def test_holds_d1_symmetry_exhaustive(catalogue):
    for name in ("FLW4", "CAT4", "CAT5", "MIX"):
        d = catalogue[name].dset
        for quad in itertools.product(range(d.n), repeat=4):
            w, x, y, z = quad
            value = d.holds(w, x, y, z)
            for a, b in ((w, x), (x, w)):
                for c, e in ((y, z), (z, y)):
                    assert d.holds(a, b, c, e) == value
                    assert d.holds(c, e, a, b) == value


def test_atoms_reads_ids_arrays_and_slices_alike(catalogue):
    d = catalogue["MIX"].dset
    n, every = d.n, slice(None)
    table = np.array([[[[d.holds(w, x, y, z) for z in range(n)] for y in range(n)] for x in range(n)] for w in range(n)])
    full = _atoms(d, every, every, every, every)
    # A read of ids and slices is a view of the kept table, not a copy.
    assert np.shares_memory(full, D.relation_table(d)) and np.array_equal(full, table)
    assert np.shares_memory(_atoms(d, 2, 0, 1, every), full)
    assert np.array_equal(_atoms(d, 2, 0, 1, every), table[2, 0, 1])
    assert np.array_equal(_atoms(d, *np.ix_([3, 1], [0], [4, 2], [1, 2, 3])), table[np.ix_([3, 1], [0], [4, 2], [1, 2, 3])])
    assert np.array_equal(_atoms(d, [0, 1], [1, 2], every, 4), table[[0, 1], [1, 2], :, 4])
    assert _atoms(d, 0, 1, 2, 3) == table[0, 1, 2, 3]


def test_build_rejects_degenerate_and_duplicate():
    with pytest.raises(InputError):
        DSet.build(4, [(0, 1, 1, 2)])
    with pytest.raises(InputError):
        DSet.build(4, [(0, 1, 2, 3), (1, 0, 3, 2)])


# ---------------------------------------------------------------------------
# check_axioms


def test_axioms_cat4(catalogue):
    d = catalogue["CAT4"].dset
    report = check_axioms(d)
    assert report.core_pass
    assert report.d5.status == "fail"
    assert report.d6.status == "fail"
    # the reported witnesses must be genuine counterexamples
    w, x, y = report.d5.witness
    assert not any(z != y and d.holds(w, x, y, z) for z in range(d.n))
    quad = report.d6.witness
    assert d.holds(*quad)
    w, x, y, z = quad
    assert not any(
        d.holds(v, x, y, z)
        and d.holds(w, v, y, z)
        and d.holds(w, x, v, z)
        and d.holds(w, x, y, v)
        for v in range(d.n)
    )


def test_axioms_flw4(catalogue):
    report = check_axioms(catalogue["FLW4"].dset)
    assert report.core_pass


def test_axioms_d2_violation():
    d = DSet.build(4, [(0, 1, 2, 3), (0, 2, 1, 3)])
    report = check_axioms(d)
    assert report.d2.status == "fail"
    assert report.d2.witness == (0, 1, 2, 3)


def test_axioms_empty_dset():
    report = check_axioms(DSet(0))
    assert report.core_pass
    assert report.d5.status == "not_applicable"
    assert report.d6.status == "not_applicable"


def test_axioms_report_dict_shape(catalogue):
    out = check_axioms(catalogue["CAT4"].dset).as_dict()
    assert out["core_pass"] is True
    assert out["d5"]["status"] == "fail"
    assert "witness" in out["d5"]


def _first(tuples, bad):
    """Least tuple (in the order given) where bad holds, as a verdict dict."""
    for tup in tuples:
        if bad(*tup):
            return {"status": "fail", "witness": list(tup)}
    return {"status": "pass"}


def _reference_axioms(d):
    """check_axioms restated as scans over tuples in lexicographic order.

    D6 asks, as the library always has, for v with D(vx;yz), D(wv;yz) and
    D(wx;vz); it does not require D(wx;yv).
    """
    n, h = d.n, d.holds
    quads = list(itertools.product(range(n), repeat=4))
    triples = list(itertools.product(range(n), repeat=3))
    na = {"status": "not_applicable"}
    out = {
        "d1": _first(quads, lambda w, x, y, z: h(w, x, y, z) and not (h(x, w, y, z) and h(y, z, w, x))),
        "d2": _first(quads, lambda w, x, y, z: h(w, x, y, z) and h(w, y, x, z)),
        "d3": _first(
            itertools.product(range(n), repeat=5),
            lambda w, x, y, z, v: h(w, x, y, z) and not h(v, x, y, z) and not h(w, x, y, v),
        ),
        "d4": _first(triples, lambda w, x, y: w != y and x != y and not h(w, x, y, y)),
        "d5": na if n < 3 else _first(
            triples,
            lambda w, x, y: len({w, x, y}) == 3 and not any(h(w, x, y, z) for z in range(n) if z != y),
        ),
        "d6": na if n < 2 else _first(
            quads,
            lambda w, x, y, z: h(w, x, y, z) and not any(
                h(v, x, y, z) and h(w, v, y, z) and h(w, x, v, z) for v in range(n)
            ),
        ),
    }
    out["core_pass"] = all(out[k]["status"] == "pass" for k in ("d1", "d2", "d3", "d4"))
    return out


def test_axioms_match_scalar_scans_on_random_tables():
    rng = random.Random(11)
    for _ in range(200):
        d = F.random_table(rng, rng.randint(0, 5))
        assert check_axioms(d).as_dict() == _reference_axioms(d)


def test_d6_fourth_conjunct_is_implied_on_tree_dsets(trees_by_k):
    # D6 asks for D(vx;yz), D(wv;yz) and D(wx;vz); on D-sets of trees
    # D(wx;yv) then follows, so a density witness there splits the quad
    # all four ways.
    for k in range(1, 9):
        for tree in trees_by_k[k]:
            t = D.relation_table(D.d_from_tree(tree))
            w, x, y, z, v = np.indices((k,) * 5, sparse=True)
            three = t[w, x, y, z] & t[v, x, y, z] & t[w, v, y, z] & t[w, x, v, z]
            assert not (three & ~t[w, x, y, v]).any(), tree


@pytest.mark.parametrize("n", (63, 64, 65, 70))
def test_packed_sweep_matches_slices_across_word_boundary(n):
    # A caterpillar whose end cherry is {0, n-1}, with the quad {1,3 | 2,n-1}
    # removed.  D3 then first fails at (0,2,1,3) for v = n-1 alone, and the
    # D6 premise (0,0,1,2) has v = n-1 as its only density witness, so for
    # n > 64 a sweep that lost the second word would report other witnesses.
    # (No tree table passes D6 on its w = 0 slice: D(00;yz) for y, z in two
    # branches at 0's neighbour has no witness.)
    top = n - 1
    swap = {e: e for e in range(n)}
    swap[1], swap[top] = top, 1
    tree = D.d_from_tree(D.gen_random(D.TreeSpec("caterpillar", n)))
    positives = D.relabel(tree, swap).positives
    d = DSet(n, positives - {(1, 3, 2, top)})
    report = check_axioms(d).as_dict()
    d3, d6 = O.d3_d6_oracle(np.array(D.relation_table(d)))
    assert (report["d3"], report["d6"]) == (d3, d6)
    assert d3["witness"] == [0, 2, 1, 3, top] and d6["witness"] == [0, 0, 1, top]


def test_packed_sweep_matches_slices_on_random_tables():
    rng = random.Random(13)
    for _ in range(60):
        d = F.random_table(rng, rng.randint(6, 10))
        report = check_axioms(d).as_dict()
        assert (report["d3"], report["d6"]) == O.d3_d6_oracle(np.array(D.relation_table(d)))


def test_failing_table_is_packed_once(monkeypatch):
    # Besides the all-ones row `full`, the D3 and D6 sweeps read one packed
    # layout, D(vx;yz) over v, and its D1 images.
    d = F.random_table(random.Random(17), 9)
    pack, packed = D.core._pack, []
    monkeypatch.setattr(D.core, "_pack", lambda bits: packed.append(bits.shape) or pack(bits))
    assert not check_axioms(d).core_pass
    assert packed == [(9,), (9, 9, 9, 9)]


# ---------------------------------------------------------------------------
# substructure


def test_substructure_small(catalogue):
    sub, remap = D.substructure(catalogue["CAT4"].dset, {0, 1, 2})
    assert sub.n == 3
    assert sub.positives == frozenset()
    assert remap == {0: 0, 1: 1, 2: 2}


def test_substructure_cat5_inner_quad(catalogue):
    cat5 = catalogue["CAT5"]
    chosen = [0, 1, 3, 4]
    remap = {old: new for new, old in enumerate(chosen)}
    expected = set()
    for four in itertools.combinations(chosen, 4):
        a, b, c, e = four
        for quad in ((a, b, c, e), (a, c, b, e), (a, e, b, c)):
            if O.holds_oracle(cat5.tree, *quad):
                expected.add(O.canon_oracle(*(remap[v] for v in quad)))
    assert expected == {(0, 1, 2, 3)}

    sub, got_map = D.substructure(cat5.dset, chosen)
    assert got_map == remap
    assert sub.positives == frozenset(expected)


def test_substructure_flw4_identity(catalogue):
    flw4 = catalogue["FLW4"].dset
    sub, remap = D.substructure(flw4, range(4))
    assert sub == flw4
    assert remap == {e: e for e in range(4)}


def test_substructure_requires_subset(catalogue):
    with pytest.raises(InputError):
        D.substructure(catalogue["FLW4"].dset, {0, 9})


@pytest.mark.parametrize("bad", (1.5, 1.0, "1", True))
def test_substructure_rejects_ids_that_are_not_integers(catalogue, bad):
    with pytest.raises(InputError, match=f"^element ids must be non-negative integers, got {re.escape(repr(bad))}$"):
        D.substructure(catalogue["CAT5"].dset, [0, bad, 2])


def test_substructure_preserves_core(catalogue):
    rng = random.Random(7)
    for name in ("CAT5", "CAT5X", "MIX", "FLW6"):
        d = catalogue[name].dset
        for _ in range(5):
            size = rng.randrange(0, d.n + 1)
            subset = rng.sample(range(d.n), size)
            sub, _ = D.substructure(d, subset)
            assert check_axioms(sub).core_pass


# ---------------------------------------------------------------------------
# isomorphism


def test_iso_identity(catalogue):
    flw4 = catalogue["FLW4"].dset
    assert D.are_isomorphic(flw4, flw4) == {e: e for e in range(4)}


def test_iso_relabeling(catalogue):
    d = catalogue["CAT4"].dset
    perm = {0: 0, 1: 2, 2: 1, 3: 3}
    other = D.relabel(d, perm)
    assert other != d

    expected = O.least_bijection_oracle(d, other, True)
    assert expected is not None
    got = D.are_isomorphic(d, other)
    assert got == expected
    for q in itertools.product(range(4), repeat=4):
        assert d.holds(*q) == other.holds(*(got[v] for v in q))


def test_iso_distinguishes_shapes(catalogue):
    assert D.are_isomorphic(catalogue["CAT4"].dset, catalogue["STAR4"].dset) is None


def test_iso_respects_colors(catalogue):
    d = catalogue["CAT4"].dset
    left = d.recolor([1, 0, 0, 0])
    right = d.recolor([0, 0, 0, 1])
    assert D.are_isomorphic(left, right) is not None
    uneven = d.recolor([1, 1, 0, 0])
    assert D.are_isomorphic(left, uneven) is None
    assert D.are_isomorphic(left, uneven, respect_colors=False) is not None


def _relabelled(d, seed):
    perm = list(range(d.n))
    random.Random(seed).shuffle(perm)
    return D.relabel(d, dict(enumerate(perm)))


def test_iso_is_least_bijection_on_small_trees(trees_by_k):
    """Individualisation gives backtracking's bijection on every tree up to
    8 leaves, and both give the permutation search's up to 7.  Colors are
    round-robin; a plain pair is the colored pair with colors ignored."""
    for k, trees in trees_by_k.items():
        for t in trees:
            a = D.d_from_tree(t).recolor([e % 2 for e in range(k)])
            b = _relabelled(a, k)
            plain_a, plain_b = a.recolor([0] * k), b.recolor([0] * k)
            colored, plain = _backtrack_bijection(a, b, True), _backtrack_bijection(a, b, False)
            assert D.are_isomorphic(a, b) == colored, t
            assert D.are_isomorphic(a, b, respect_colors=False) == plain, t
            assert D.are_isomorphic(plain_a, plain_b) == plain, t
            assert D.are_isomorphic(plain_a, plain_b, respect_colors=False) == plain, t
            if k <= 7:
                assert colored == O.least_bijection_oracle(a, b, True), t
                assert plain == O.least_bijection_oracle(a, b, False), t


def test_iso_none_for_non_isomorphic_pairs(trees_by_k):
    """Distinct shapes give None, and so does one marked element whose image
    lies in another orbit; marks in one orbit give backtracking's map.
    Backtracking, exhaustive when there is no map, is the reference up to 6
    leaves for shapes and 7 for marks."""
    for k in range(4, 9):
        plain = [D.d_from_tree(t) for t in trees_by_k[k]]
        for a, b in zip(plain, plain[1:]):
            b = _relabelled(b, k)
            assert D.are_isomorphic(a, b, respect_colors=False) is None
            if k <= 6:
                assert _backtrack_bijection(a, b, False) is None
    nones = 0
    for k in range(4, 8):
        for d in map(D.d_from_tree, trees_by_k[k]):
            a = d.recolor([int(e == 0) for e in range(k)])
            for f in range(k):
                b = _relabelled(d.recolor([int(e == f) for e in range(k)]), f)
                got = D.are_isomorphic(a, b)
                assert got == _backtrack_bijection(a, b, True), (d, f)
                nones += got is None
    assert nones > 0


@pytest.mark.parametrize("leaves", (10, 11, 12))
@pytest.mark.parametrize("kind", ("caterpillar", "d_regular_random"))
def test_iso_matches_backtracking_on_seeded_relabellings(kind, leaves):
    # Random colors prune backtracking; ignoring them, its cost grows
    # several-fold per leaf, so that route is compared at 10 leaves only.
    rng = random.Random(leaves)
    a = F.seeded_tree_dset(rng, leaves, kind).recolor([rng.randrange(2) for _ in range(leaves)])
    b = _relabelled(a, leaves)
    assert D.are_isomorphic(a, b) == _backtrack_bijection(a, b, True)
    if leaves == 10:
        assert D.are_isomorphic(a, b, respect_colors=False) == _backtrack_bijection(a, b, False)


@pytest.mark.parametrize("kind", ("caterpillar", "d_regular_random"))
def test_iso_maps_large_relabelled_trees(kind):
    rng = random.Random(64)
    a = F.seeded_tree_dset(rng, 64, kind).recolor([e % 2 for e in range(64)])
    b = _relabelled(a, 64)
    assert D.relabel(a, D.are_isomorphic(a, b)) == b
    plain_a, plain_b = a.recolor([0] * 64), b.recolor([0] * 64)
    assert D.relabel(plain_a, D.are_isomorphic(a, b, respect_colors=False)) == plain_b


def test_iso_ignoring_colors_matches_labels_by_shape():
    # Ignoring colors compares the trees' shapes, never their element ids.
    a = D.d_from_tree(D.gen_random(D.TreeSpec("caterpillar", 6)))
    b = D.relabel(a, dict(enumerate([2, 3, 0, 4, 5, 1])))
    assert D.are_isomorphic(a, b, respect_colors=False) == D.are_isomorphic(a, b)
    assert D.are_isomorphic(a, b) is not None


def test_iso_backtracks_on_tables_failing_core():
    for d, *_ in F.failing_tables(10, 6):
        b = _relabelled(d, d.n)
        if d.n <= 7:
            assert D.are_isomorphic(d, b) == O.least_bijection_oracle(d, b, True)
        assert D.relabel(d, D.are_isomorphic(d, b)) == b
        with pytest.raises(InputError, match="capped at 4"):
            D.are_isomorphic(d, b, max_n=4)


def test_iso_backtrack_reads_the_atoms_that_start_with_the_new_element(monkeypatch):
    # By D1 each tuple with e has an image with e first, so a candidate image
    # of e is checked on the (e+1)^3 atoms (e, x, y, z) over placed x, y, z.
    d, *_ = F.failing_tables(4, 1)[0]
    b = _relabelled(d, d.n)
    atoms, shapes = D.core._atoms, []
    monkeypatch.setattr(D.core, "_atoms", lambda *args: shapes.append((read := atoms(*args)).shape) or read)
    assert D.relabel(d, D.are_isomorphic(d, b)) == b
    assert {len(s) for s in shapes} == {3} and {len(set(s)) for s in shapes} == {1}
    assert {s[0] for s in shapes} == set(range(1, d.n + 1))


def test_iso_answers_early_without_comparing_trees():
    cat6 = D.d_from_tree(D.gen_random(D.TreeSpec("caterpillar", 6)))
    assert D.are_isomorphic(cat6, D.d_from_tree(D.gen_random(D.TreeSpec("caterpillar", 7)))) is None
    assert D.are_isomorphic(DSet(0), DSet(0)) == {}
    failing = DSet.build(6, [(0, 1, 2, 3)])
    assert not check_axioms(failing).core_pass
    assert D.are_isomorphic(cat6, failing) is None and D.are_isomorphic(failing, cat6) is None


@pytest.mark.parametrize("leaves", (16, 32))
def test_iso_walks_each_tree_once_per_center(monkeypatch, leaves):
    # Two walks find a tree's one or two centers and one walk from each
    # serves every candidate code, so a call walks at most 2 * (2 + 2) times.
    rng = random.Random(leaves)
    pairs = []
    for kind in ("caterpillar", "star", "d_regular_random"):
        a = F.seeded_tree_dset(rng, leaves, kind).recolor([rng.randrange(2) for _ in range(leaves)])
        pairs.append((a, _relabelled(a, leaves)))
    walk, walks = D.core._walk, []
    monkeypatch.setattr(D.core, "_walk", lambda adj, root: walks.append(root) or walk(adj, root))
    for a, b in pairs:
        for respect_colors in (True, False):
            walks.clear()
            image = D.are_isomorphic(a, b, respect_colors)
            assert 0 < len(walks) <= 8, len(walks)
            assert D.relabel(a, image).rows.tolist() == b.rows.tolist()


@pytest.mark.parametrize(
    "ids",
    (
        ([3, 1, 2],),
        ([0, 4], (2, 1, 3)),
        ((5,), [6], np.array([1, 0], dtype=np.int64)),
        ([2, 3, 4], [], [1]),
        ([],),
        (np.arange(3), np.arange(3), [7], np.array([2, 2, 0, 1])),
        (np.array([4], dtype=np.int64),) * 4,
    ),
)
def test_grid_lays_ids_out_as_ix_does(ids):
    # Lists, tuples, int64 arrays, one id and no ids, as the package passes them.
    got, expected = _grid(*ids), np.ix_(*ids)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert (a.shape, a.dtype) == (b.shape, b.dtype)
        assert np.array_equal(a, b)


@pytest.mark.parametrize("leaves", (16, 32))
def test_iso_ranks_each_tree_once_per_center(monkeypatch, leaves):
    # Each tree is ranked in full once per center, from the walk that
    # _rootings makes there (after two walks that find the centers); every
    # other ranking is of one root path, after a leaf took a fresh token.
    rng = random.Random(leaves)
    pairs = []
    for kind in ("caterpillar", "star", "d_regular_random"):
        a = F.seeded_tree_dset(rng, leaves, kind).recolor([rng.randrange(2) for _ in range(leaves)])
        pairs.append((a, _relabelled(a, leaves)))
    walk, ranks, walks, ranked = D.core._walk, D.core._ranks, [], []
    monkeypatch.setattr(D.core, "_walk", lambda adj, root: walks.append(root) or walk(adj, root))

    def counted(nodes, parent, adj, tokens, intern, rank):
        nodes = list(nodes)
        if not rank:  # a whole walk, reversed: its root comes last
            assert len(nodes) == len(adj)
            ranked.append(nodes[-1])
        else:  # a path up to the root, each node the parent of the one before
            assert [parent[u] for u in nodes] == [*nodes[1:], None], nodes
        return ranks(nodes, parent, adj, tokens, intern, rank)

    monkeypatch.setattr(D.core, "_ranks", counted)
    for a, b in pairs:
        for respect_colors in (True, False):
            walks.clear()
            ranked.clear()
            image = D.are_isomorphic(a, b, respect_colors)
            centers = len(ranked) // 2  # per tree; walks holds 2 + centers roots per tree
            assert 2 <= len(ranked) == len(walks) - 4 <= 4, (ranked, walks)
            assert ranked == walks[2 : 2 + centers] + walks[4 + centers :]
            assert D.relabel(a, image).rows.tolist() == b.rows.tolist()


def _moved_leaves(t, perm):
    """t with element perm[e] on the leaf that carried e."""
    return D.LeafTree(t.nodes, t.edges, {u: perm[e] for u, e in t.leaf_map().items()})


def _carried_colors(colors, perm):
    """colors as they fall on the elements of _moved_leaves(t, perm)."""
    moved = [0] * len(perm)
    for e, f in enumerate(perm):
        moved[f] = colors[e]
    return moved


def _grafted_elsewhere(t, rng):
    """t with one leaf cut off, its old neighbour smoothed out if left with
    two edges, and hung on a new node that splits another edge."""
    adj, edges, nodes = t.adjacency(), {frozenset(e) for e in t.edges}, set(t.nodes)
    leaf = rng.choice(sorted(t.leaf_map()))
    (p,) = adj[leaf]
    edges.discard(frozenset((leaf, p)))
    if len(adj[p]) == 3:
        u, v = (w for w in adj[p] if w != leaf)
        edges = edges - {frozenset((p, u)), frozenset((p, v))} | {frozenset((u, v))}
        nodes.discard(p)
    u, v = rng.choice(sorted(sorted(e) for e in edges))
    w = max(t.nodes) + 1
    edges = edges - {frozenset((u, v))} | {frozenset((u, w)), frozenset((v, w)), frozenset((leaf, w))}
    return D.LeafTree(sorted(nodes | {w}), sorted(sorted(e) for e in edges), t.leaf_map())


_TREE_KINDS = ("caterpillar", "star", "d_regular_random")


def _seeded_tree(kind, leaves):
    return D.gen_random(D.TreeSpec(kind, leaves, 3 if kind == "d_regular_random" else None, seed=leaves))


@pytest.mark.parametrize("leaves", (9, 16, 32, 64))
@pytest.mark.parametrize("kind", _TREE_KINDS)
def test_iso_matches_flat_codes_on_seeded_relabellings(kind, leaves):
    """The rank search gives the whole-code individualisation's bijection on
    a seeded leaf relabelling, under 1, 2 and 3 colors, colors respected or
    not; ignoring colors, every coloring gives the plain bijection."""
    rng = random.Random(leaves)
    t = _seeded_tree(kind, leaves)
    perm = list(range(leaves))
    rng.shuffle(perm)
    a, b = D.d_from_tree(t), D.d_from_tree(_moved_leaves(t, perm))
    plain = O.flat_code_bijection(a, b, False)
    assert D.are_isomorphic_trees(_moved_leaves(t, plain), _moved_leaves(t, perm), respect_labels=False)
    for k in (1, 2, 3):
        colors = [rng.randrange(k) for _ in range(leaves)]
        ca, cb = a.recolor(colors), b.recolor(_carried_colors(colors, perm))
        assert D.are_isomorphic(ca, cb) == O.flat_code_bijection(ca, cb, True)
        assert D.are_isomorphic(ca, cb, respect_colors=False) == plain


def _distance_profile(t, leaf):
    """The sorted distances from a leaf node to every leaf."""
    adj, depth, queue = t.adjacency(), {leaf: 0}, [leaf]
    for u in queue:
        for v in adj[u]:
            if v not in depth:
                depth[v] = depth[u] + 1
                queue.append(v)
    return sorted(depth[u] for u in t.leaf_map())


@pytest.mark.parametrize("leaves", (16, 32, 64))
@pytest.mark.parametrize("kind", _TREE_KINDS)
def test_iso_none_for_a_moved_color_or_a_grafted_leaf(kind, leaves):
    """One color moved onto a leaf with another distance profile, so into
    another orbit, and one leaf grafted onto another edge, into a tree of
    another shape: both the rank search and the flat codes return None."""
    rng = random.Random(leaves)
    t = _seeded_tree(kind, leaves)
    perm = list(range(leaves))
    rng.shuffle(perm)
    a, b = D.d_from_tree(t), D.d_from_tree(_moved_leaves(t, perm))
    node = {e: u for u, e in t.leaf_map().items()}
    profiles = [_distance_profile(t, node[e]) for e in range(leaves)]
    y = next((y for y in range(leaves) if profiles[y] != profiles[0]), None)
    assert (y is None) == (kind == "star")
    if y is not None:
        ca, cb = a.recolor([int(e == 0) for e in range(leaves)]), b.recolor([int(f == perm[y]) for f in range(leaves)])
        assert D.are_isomorphic(ca, cb) is None and O.flat_code_bijection(ca, cb, True) is None
        plain = O.flat_code_bijection(a, b, False)
        assert plain is not None and D.are_isomorphic(ca, cb, respect_colors=False) == plain
    grafted = _grafted_elsewhere(t, rng)
    while D.are_isomorphic_trees(grafted, t, respect_labels=False):
        grafted = _grafted_elsewhere(t, rng)
    g = D.d_from_tree(_moved_leaves(grafted, perm))
    assert D.are_isomorphic(a, g, respect_colors=False) is None and O.flat_code_bijection(a, g, False) is None
    colors = [e % 2 for e in range(leaves)]
    ca, cg = a.recolor(colors), g.recolor(_carried_colors(colors, perm))
    assert D.are_isomorphic(ca, cg) is None and O.flat_code_bijection(ca, cg, True) is None


# ---------------------------------------------------------------------------
# serialization


def test_dset_json_round_trip(catalogue):
    for name in ("FLW4", "CAT5", "MIX"):
        d = catalogue[name].dset.recolor(range(catalogue[name].dset.n))
        again = DSet.from_json(d.to_json())
        assert again == d


def test_dset_json_canonicalizes():
    text = json.dumps({"n": 4, "positives": [[1, 0, 2, 3]]})
    assert DSet.from_json(text).positives == frozenset({(0, 1, 2, 3)})


def test_dset_json_rejects_duplicates():
    text = json.dumps({"n": 4, "positives": [[0, 1, 2, 3], [1, 0, 3, 2]]})
    with pytest.raises(InputError):
        DSet.from_json(text)


def test_dset_json_rejects_bad_ids():
    with pytest.raises(InputError):
        DSet.from_json(json.dumps({"n": 3, "positives": [[0, 1, 2, 3]]}))
    with pytest.raises(InputError):
        DSet.from_json("[]")


HUGE_N = 99999999999999999999999  # more than an index can hold


@pytest.mark.parametrize(
    "make",
    [
        lambda: DSet.from_json(json.dumps({"n": HUGE_N})),
        lambda: DSet.from_json(f'{{"colors":{{}},"n":{HUGE_N},"positives":[]}}'),
        lambda: DSet(HUGE_N),
        lambda: DSet.build(HUGE_N, [(0, 1, 2, 3)]),
    ],
    ids=["loads", "own_spelling", "constructor", "build"],
)
def test_unindexable_n_is_an_input_error(make):
    with pytest.raises(InputError, match="element count must be at most"):
        make()


@pytest.mark.parametrize("n", (2.5, "4", 4.0, True, -1, np.float64(4), None), ids=repr)
@pytest.mark.parametrize("make", (DSet, DSet.build, lambda n: DSet.from_json(json.dumps({"n": n}))),
                         ids=("constructor", "build", "from_json"))
def test_every_route_checks_the_element_count_alike(make, n):
    with pytest.raises(InputError, match="^'n' must be a non-negative integer$"):
        make(n)


def test_a_numpy_element_count_becomes_an_int():
    for d in (DSet(np.int64(4), [(0, 1, 2, 3)]), DSet.build(np.uint8(4), [(0, 1, 2, 3)])):
        assert type(d.n) is int and d == DSet(4, [(0, 1, 2, 3)])
        assert DSet.from_json(d.to_json()) == d


def test_unsigned_numpy_ids_in_stored_quads_equal_ints():
    quads = [(0, 1, 2, 3), (0, 1, 2, 4), (0, 3, 1, 4)]
    d = DSet(5, [tuple(map(np.uint8, q)) for q in quads])
    assert d == DSet(5, quads) and d.rows.dtype == np.int64



# ---------------------------------------------------------------------------
# relation JSON: to_json's own spelling is read on its bytes, any other
# spelling by json.loads; both must agree with the scalar oracle


JSON_MUTATIONS = (
    "digit", "leading_zero", "negative", "float", "true", "long_id", "unicode_digit",
    "whitespace", "drop", "extra_comma", "swapped_separator", "stray_digit", "key_order",
    "duplicate", "non_canonical", "out_of_range", "color_key",
)


def _mutations(text, n, kinds, rng, at_quad=None):
    """(kind, text changed in one place) for each of kinds, a subset of
    JSON_MUTATIONS; text is a to_json text with at least one quad.  The
    quad changed is the at_quad-th, or one drawn at random."""
    at = text.rindex('"positives":[')
    quads = list(re.finditer(r"\[(\d+),(\d+),(\d+),(\d+)\]", text[at:]))
    put = lambda a, b, new: text[:a] + new + text[b:]  # noqa: E731
    for kind in kinds:
        quad = rng.choice(quads) if at_quad is None else quads[at_quad]
        slot = rng.randrange(1, 5)
        i, j = at + quad.start(slot), at + quad.end(slot)  # one id
        p = rng.randrange(i, j)  # one of its digits
        # A bracket or comma of the quad, the comma after it or the list's closing bracket.
        sep = at + rng.choice(
            (quad.start(), quad.end(1), quad.end() - 1, quad.end(), len(text) - at - 2)
        )
        if kind == "key_order":
            payload = json.loads(text)
            keys = sorted(payload, key=lambda _: rng.random())
            yield kind, json.dumps({k: payload[k] for k in keys}, separators=(",", ":"))
        elif kind in ("duplicate", "non_canonical"):
            a, b, c, e = quad.groups()
            new = f"[{a},{b},{c},{e}],{quad.group()}" if kind == "duplicate" else f"[{c},{e},{b},{a}]"
            yield kind, put(at + quad.start(), at + quad.end(), new)
        elif kind == "color_key":
            yield kind, text.replace('"colors":{', f'"colors":{{"{n + rng.randrange(3)}":1,', 1)
        elif kind in ("digit", "unicode_digit"):
            digit = int(text[p])
            new = (digit + rng.randrange(1, 10)) % 10
            yield kind, put(p, p + 1, str(new) if kind == "digit" else chr(0x660 + digit))
        elif kind == "whitespace":
            p = rng.randrange(len(text) + 1)
            yield kind, put(p, p, rng.choice(" \t\n\r"))
        elif kind == "drop":
            yield kind, put(sep, sep + 1, "")
        elif kind in ("extra_comma", "stray_digit"):
            yield kind, put(sep, sep, "," if kind == "extra_comma" else str(rng.randrange(10)))
        elif kind == "swapped_separator":
            yield kind, put(sep, sep + 1, rng.choice([c for c in "[],}" if c != text[sep]]))
        else:
            new = {
                "leading_zero": "0" + text[i:j],
                "negative": "-1",
                "float": text[i:j] + ".0",
                "true": "true",
                "long_id": str(rng.randrange(10**19, 10**20)),
                "out_of_range": str(n + rng.randrange(3)),
            }
            yield kind, put(i, j, new[kind])


def _from_json_outcome(text):
    try:
        return "ok", DSet.from_json(text).to_json()
    except InputError as exc:
        return "error", str(exc)


def test_dset_json_matches_oracle_on_mutations():
    rng = random.Random(6)
    specs = [D.TreeSpec("caterpillar", 40)] + [
        D.TreeSpec(rng.choice(("caterpillar", "d_regular_random")), rng.randint(5, 24), 3, seed=s)
        for s in range(8)
    ]
    own = {"ok": 0, "error": 0}
    for spec in specs:
        d = D.d_from_tree(D.gen_random(spec))
        text = d.recolor([rng.randrange(3) for _ in range(d.n)]).to_json()
        assert _from_json_outcome(text) == O.dset_json_oracle(text) == ("ok", text)
        # The scalar oracle takes about 0.1 s per text at 40 leaves.
        kinds = JSON_MUTATIONS if d.n <= 24 else rng.sample(JSON_MUTATIONS, 5)
        for kind, changed in _mutations(text, d.n, kinds, rng):
            outcome = _from_json_outcome(changed)
            assert outcome == O.dset_json_oracle(changed), (spec, kind)
            if D.core._read_own_spelling(changed) is not None:
                own[outcome[0]] += 1
    # Both verdicts were reached on the bytes, without json.loads.
    assert own["ok"] > 0 and own["error"] > 0


def test_dset_json_with_the_marker_twice_reads_as_json_loads():
    # The positives marker is found from the head; a text holding it twice
    # reads as json.loads reads it, or fails as json.loads fails.
    head = '{"colors":{"0":0,"1":1,"2":0,"3":0,"4":0},"n":5'
    quads = "[0,1,2,3],[0,1,2,4]"
    texts = [
        f'{head},"positives":[[0,1,2,4]],"positives":[{quads}]}}',  # the last key wins
        f'{head},"positives":[],"positives":[{quads}]}}',
        f'{head},"positives":[{quads}],"positives":[]}}',
        f'{{"x":{{"y":1,"positives":[1]}},{head[1:]},"positives":[{quads}]}}',
        f'{head},"x":",\\"positives\\":[0]","positives":[{quads}]}}',
        f'{head},"positives":[,"positives":[{quads}]}}',
    ]
    for text in texts:
        read = D.core._read_own_spelling(text)
        assert read is None or {**read, "positives": np.asarray(read["positives"]).tolist()} == json.loads(text)
        assert _from_json_outcome(text) == O.dset_json_oracle(text), text
    assert DSet.from_json(texts[0]).positives == {(0, 1, 2, 3), (0, 1, 2, 4)}
    assert DSet.from_json(texts[2]).positives == frozenset()


def _block_sizes(text, monkeypatch):
    """The number of quads in each block that from_json reads text in."""
    sizes, read = [], D.core._quad_ids

    def spy(raw):
        ids = read(raw)
        sizes.append(ids.shape[1])
        return ids

    monkeypatch.setattr(D.core, "_quad_ids", spy)
    DSet.from_json(text)
    monkeypatch.undo()
    return sizes


# Kinds that change the chosen quad or a separator next to it.
QUAD_MUTATIONS = tuple(k for k in JSON_MUTATIONS if k not in ("key_order", "whitespace", "color_key"))


def test_dset_json_matches_oracle_at_block_seams(monkeypatch):
    # Random quads almost never sit next to a cut between two blocks; here
    # the quads on both sides of four cuts are changed, and the last one
    # before the cut is also repeated, its copy starting the next block.
    rng = random.Random(12)
    d = D.d_from_tree(D.gen_random(D.TreeSpec("caterpillar", 40)))
    text = d.recolor([rng.randrange(3) for _ in range(d.n)]).to_json()
    sizes = _block_sizes(text, monkeypatch)
    assert len(sizes) > 10 and sum(sizes) == len(d.rows)
    assert isinstance(D.core._read_own_spelling(text)["positives"], np.ndarray)
    # The scalar oracle takes up to 0.7 s per text at 40 leaves.
    for seam in rng.sample(list(np.cumsum(sizes)[:-1]), 4):
        before, after = ["duplicate", rng.choice(QUAD_MUTATIONS)], [rng.choice(QUAD_MUTATIONS)]
        for at_quad, kinds in ((seam - 1, before), (seam, after)):
            for kind, changed in _mutations(text, d.n, kinds, rng, at_quad):
                assert _from_json_outcome(changed) == O.dset_json_oracle(changed), (seam, at_quad, kind)


def test_dset_json_swapped_across_a_seam_is_sorted(monkeypatch):
    # Quads in order inside each block but not across a cut are taken, in
    # lexicographic order, as json.loads would take them.
    d = D.d_from_tree(D.gen_random(D.TreeSpec("caterpillar", 24)))
    text = d.to_json()
    seam = _block_sizes(text, monkeypatch)[0]
    rows = d.rows.tolist()
    rows[seam - 1], rows[seam] = rows[seam], rows[seam - 1]
    swapped = text[: text.index("[[")] + json.dumps(rows, separators=(",", ":")) + "}"
    assert DSet.from_json(swapped) == d and _block_sizes(swapped, monkeypatch)[0] == seam


@pytest.mark.parametrize("blocks", (1, 2))
@pytest.mark.parametrize("extra", (-1, 0, 1))
def test_to_json_at_block_boundaries(blocks, extra):
    # Row counts of a whole number of blocks, one less and one more, with ids
    # of one width (whole quads end every 14 bytes) and of mixed widths.
    d = D.d_from_tree(D.gen_random(D.TreeSpec("caterpillar", 40)))
    k = blocks * D.core._BLOCK + extra
    for rows in (d.rows[(d.rows >= 10).all(axis=1)][:k], d.rows[:k]):
        part = DSet._from_rows(40, rows.copy())
        text = part.to_json()
        expected = {"colors": {str(e): 0 for e in range(40)}, "n": 40, "positives": rows.tolist()}
        assert text == json.dumps(expected, sort_keys=True, separators=(",", ":"))
        assert len(rows) == k and DSet.from_json(text) == part
        assert isinstance(D.core._read_own_spelling(text)["positives"], np.ndarray)


def test_own_spelling_is_read_without_json_loads(monkeypatch):
    d = D.d_from_tree(D.gen_random(D.TreeSpec("caterpillar", 40))).recolor(
        [e % 3 for e in range(40)]
    )
    text = d.to_json()
    loads = json.loads

    def small_only(s, *args, **kwargs):
        if len(s) > 1024:
            raise AssertionError(f"json.loads given {len(s)} characters")
        return loads(s, *args, **kwargs)

    monkeypatch.setattr(json, "loads", small_only)
    assert DSet.from_json(text) == d and len(text) > 1_000_000


# ---------------------------------------------------------------------------
# quad validation: each entry point names the first bad quad.  The references
# restate the scalar rules of DSet.build, DSet(...) and DSet.from_json.


def _reference_id_error(q):
    for v in q:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            return f"element ids must be non-negative integers, got {v!r}"
    return None


def _reference_stored_error(n, quads):
    for q in quads:
        error = _reference_id_error(q)
        if error:
            return error
        if q != O.canon_oracle(*q):
            return f"stored quad {q} is not canonical"
        if len(set(q)) != 4:
            return f"stored quad {q} repeats an element"
        if max(q) >= n:
            return f"quad {q} exceeds element range 0..{n - 1}"
    return None


def _reference_build_error(n, quads):
    seen = set()
    for q in quads:
        if len(set(q)) != 4:
            return f"quad {tuple(q)} must have four distinct elements"
        error = _reference_id_error(q)
        if error:
            return error
        canon = O.canon_oracle(*q)
        if canon in seen:
            return f"duplicate quad {tuple(q)} (canonical {canon})"
        seen.add(canon)
    return _reference_stored_error(n, frozenset(seen))


def _reference_json_error(n, quads):
    for item in quads:
        if any(not isinstance(v, int) or not 0 <= v < n for v in item):
            return f"positive entry {list(item)!r} has ids outside 0..{n - 1}"
    return _reference_build_error(n, quads)


QUAD_FAILURES = (
    "non_int", "bool", "negative", "repeated", "duplicate", "non_canonical", "out_of_range",
)


def _corrupted(q, kind, n, earlier, rng):
    q = list(q)
    i = rng.randrange(4)
    if kind == "non_int":
        q[i] = str(q[i])
    elif kind == "bool":
        q[i] = rng.choice((True, False))
    elif kind == "negative":
        q[i] = -rng.randint(1, 3)
    elif kind == "repeated":
        q[i] = q[(i + 1) % 4]
    elif kind == "duplicate":
        a, b, c, e = rng.choice(earlier) if earlier else q
        q = [b, a, e, c]
    elif kind == "non_canonical":
        q = [q[2], q[3], q[0], q[1]]
    else:
        q[i] = n + rng.randrange(3)
    return tuple(q)


@pytest.mark.parametrize("kind", QUAD_FAILURES)
def test_quad_errors_name_first_bad_quad(kind):
    rng = random.Random(QUAD_FAILURES.index(kind))
    failures = 0
    for _ in range(80):
        n = rng.randint(5, 9)
        quads = []
        for _ in range(rng.randint(2, 10)):
            q = O.canon_oracle(*rng.sample(range(n), 4))
            quads.append(_corrupted(q, kind, n, quads, rng) if rng.random() < 0.3 else q)
        stored = frozenset(quads)
        text = json.dumps({"n": n, "positives": [list(q) for q in quads]})
        for make, expected in (
            (lambda: DSet.build(n, quads), _reference_build_error(n, quads)),
            (lambda: DSet(n, stored), _reference_stored_error(n, stored)),
            (lambda: DSet.from_json(text), _reference_json_error(n, quads)),
        ):
            if expected is None:
                make()
                continue
            failures += 1
            with pytest.raises(InputError) as caught:
                make()
            assert str(caught.value) == expected
    assert failures > 40


@pytest.mark.parametrize("kind", QUAD_FAILURES)
def test_list_spelled_stored_quads_name_the_same_first_bad_quad(kind):
    rng = random.Random(f"lists-{kind}")
    failures = 0
    for _ in range(80):
        n = rng.randint(5, 9)
        quads = [O.canon_oracle(*rng.sample(range(n), 4)) for _ in range(rng.randint(2, 10))]
        quads = [_corrupted(q, kind, n, quads, rng) if rng.random() < 0.3 else q for q in quads]
        errors = []
        for spelled in (quads, [list(q) for q in quads]):
            try:
                DSet(n, spelled)
            except InputError as exc:
                errors.append(str(exc))
        assert len(errors) in (0, 2) and len(set(errors)) <= 1
        failures += len(errors) // 2
    assert failures > 20
    with pytest.raises(InputError, match=re.escape("quad (0, 1, 2, 5) exceeds element range 0..3")):
        DSet(4, [[0, 1, 2, 3], [0, 1, 2, 5]])


@pytest.mark.parametrize(
    "make, shown",
    (
        (lambda: DSet(5, [5]), "5"),
        (lambda: DSet(5, [(0, 1, 2)]), "(0, 1, 2)"),
        (lambda: DSet(6, [(0, 1, 2, 3, 4)]), "(0, 1, 2, 3, 4)"),
        (lambda: DSet(5, [(0, 1, 2, 3), None]), "None"),
        (lambda: DSet.build(5, [5]), "5"),
        (lambda: DSet.build(5, [(0, 1, 2, 3), 7]), "7"),
    ),
    ids=("int", "three-ids", "five-ids", "none", "build-int", "build-second-int"),
)
def test_constructors_reject_quads_that_are_not_four_ids(make, shown):
    with pytest.raises(InputError, match=f"^positive entry {re.escape(shown)} must be a 4-element list$"):
        make()


@pytest.mark.parametrize("quad", ((0, 1, 2, [3]), ([0], 1, 2, 3), (0, 1, "2", [3])))
def test_build_and_constructor_name_an_unhashable_id_alike(quad):
    shown = next(v for v in quad if not isinstance(v, int))
    for make in (DSet, DSet.build):
        with pytest.raises(InputError, match=f"^element ids must be non-negative integers, got {re.escape(repr(shown))}$"):
            make(5, [quad])
    # A repeated id still comes first when every id is hashable, and five
    # ids with a repeat are not four distinct ones.
    for quad in ((0, 1, 1, "2"), (0, 1, 2, 3, 3)):
        with pytest.raises(InputError, match=f"^quad {re.escape(str(quad))} must have four distinct elements$"):
            DSet.build(5, [quad])


def test_relabel_refuses_a_sequence(catalogue):
    with pytest.raises(InputError, match="^relabeling must be a mapping from old to new ids$"):
        D.relabel(catalogue["CAT4"].dset, [1, 0, 2, 3])


def test_constructors_reject_colors_that_are_not_non_negative_integers(catalogue):
    d = catalogue["CAT4"].dset
    for make, bad in (
        (lambda: DSet(4, [], ["a"] * 4), "'a'"),
        (lambda: DSet(4, [], [0, 0, 1.5, 0]), "1.5"),
        (lambda: DSet(4, [], [0, -1, 0, 0]), "-1"),
        (lambda: d.recolor(["a"] * 4), "'a'"),
        (lambda: d.recolor([1.7] * 4), "1.7"),
        (lambda: d.recolor({0: 0, 1: None, 2: 0, 3: 0}), "None"),
        # Bools are refused on every route, as the JSON reader refuses them.
        (lambda: DSet(4, [], [True] * 4), "True"),
        (lambda: DSet.build(4, [], [True, 0, 0, 0]), "True"),
        (lambda: d.recolor([True, 0, 0, 0]), "True"),
        (lambda: d.recolor({0: True, 1: 0, 2: 0, 3: 0}), "True"),
        (lambda: DSet.from_json('{"n":2,"colors":{"0":true}}'), "True"),
    ):
        with pytest.raises(InputError, match=f"^bad color {re.escape(bad)} for element "):
            make()
    # Integers of any kind but bool are kept, as Python ints.
    tinted = d.recolor([np.int64(1), np.uint8(1), 0, 2])
    assert tinted.colors == (1, 1, 0, 2) and {type(c) for c in tinted.colors} == {int}


@pytest.mark.parametrize("key", ("1_0", "+2", " 3 ", "\u0663", " +2 ", "01"))
def test_from_json_refuses_color_keys_that_are_not_plain_decimals(key):
    # int() reads each of these as an element id.
    text = json.dumps({"n": 12, "colors": {"0": 1, key: 3}, "positives": []})
    with pytest.raises(InputError, match=f"^{re.escape(f'bad element id {key!r} in colors')}$"):
        DSet.from_json(text)


def test_every_route_reads_a_color_map_by_element(catalogue):
    assert DSet(4, [], {0: 1, 1: 0, 2: 0, 3: 0}).colors == (1, 0, 0, 0)
    assert DSet.build(4, [], {3: 1, 2: 0, 1: 0, 0: 0}).colors == (0, 0, 0, 1)
    d = catalogue["CAT4"].dset
    assert d.recolor({3: 1, 2: 0, 1: 0, 0: 0}) == DSet.build(4, d.rows.tolist(), [0, 0, 0, 1])
    for make in (lambda c: DSet(4, [], c), lambda c: DSet.build(4, [], c), d.recolor):
        with pytest.raises(InputError, match=r"^coloring misses elements \[3\]$"):
            make({0: 0, 1: 0, 2: 0})
        with pytest.raises(InputError, match=r"^element 4 out of range 0\.\.3$"):
            make({0: 0, 1: 0, 2: 0, 3: 0, 4: 0})


# ---------------------------------------------------------------------------
# one stored relation: every route to the same relation gives the same structure


def test_seven_routes_give_one_structure():
    rng = random.Random(5)
    tree = D.gen_random(D.TreeSpec("d_regular_random", 12, 3, seed=4))
    perm = list(range(12))
    rng.shuffle(perm)
    tree = D.LeafTree(tree.nodes, tree.edges, {u: perm[e] for u, e in tree.leaves})
    colors = [e % 3 for e in range(12)]
    quads = sorted(O.positives_oracle(tree))
    shuffled = list(quads)
    rng.shuffle(shuffled)
    payload = {"n": 12, "colors": {str(e): c for e, c in enumerate(colors)}}
    inverse = {new: old for old, new in enumerate(perm)}
    respelt = [[c, e, b, a] for a, b, c, e in shuffled]  # non-canonical spellings
    routes = [
        DSet(12, frozenset(shuffled), colors),
        DSet(12, frozenset(quads), colors),
        DSet.build(12, [(b, a, e, c) for a, b, c, e in shuffled], colors),
        DSet.from_json(json.dumps({**payload, "positives": quads})),
        DSet.from_json(json.dumps({**payload, "positives": respelt})),
        DSet(12, frozenset(quads)).recolor(colors),
        D.relabel(D.relabel(DSet(12, frozenset(quads), colors), dict(enumerate(perm))), inverse),
        D.d_from_tree(tree).recolor(colors),
    ]
    first = routes[0]
    for d in routes:
        assert d == first and hash(d) == hash(first)
        assert d.to_json() == first.to_json() and repr(d) == repr(first)
        assert d.positives == frozenset(quads)
        assert d.rows.tolist() == [list(q) for q in quads] and not d.rows.flags.writeable
    assert len(set(routes)) == 1


@pytest.mark.parametrize("kind", ("duplicate", "non_canonical", "out_of_range"))
def test_shuffled_json_names_first_bad_quad(kind):
    # A later copy of a quad (as stored, or spelt non-canonically) or a
    # quad leaving 0..n-1, placed among shuffled valid quads.
    rng = random.Random(kind)
    for _ in range(40):
        n = rng.randint(6, 12)
        tree = D.gen_random(D.TreeSpec("caterpillar", n))
        quads = [list(q) for q in sorted(D.d_from_tree(tree).positives)]
        rng.shuffle(quads)
        at = rng.randrange(len(quads))
        a, b, c, e = quads[at]
        bad = {"duplicate": [a, b, c, e], "non_canonical": [e, c, b, a], "out_of_range": [a, b, c, n]}
        bad = bad[kind]
        quads.insert(rng.randrange(at + 1, len(quads) + 1), bad)
        with pytest.raises(InputError) as caught:
            DSet.from_json(json.dumps({"n": n, "positives": quads}))
        assert str(caught.value) == _reference_json_error(n, quads)


@pytest.mark.parametrize("n", (9, 55_109))  # n**4 fits in int64 at 9, not at 55,109
def test_rows_are_sorted_and_deduplicated(n):
    rng = random.Random(n)
    ids = sorted(rng.sample(range(n), 9))  # the largest id is n - 1 at n = 9
    quads = [tuple(rng.sample(ids, 4)) for _ in range(60)]
    canonical = sorted({O.canon_oracle(*q) for q in quads})
    first = {}
    for q in quads:
        first.setdefault(O.canon_oracle(*q), q)
    d = DSet.build(n, list(first.values()))
    assert d.rows.tolist() == [list(q) for q in canonical]
    assert DSet(n, canonical + canonical[::-2]) == d == DSet(n, frozenset(canonical))
    assert DSet.from_json(d.to_json()) == d
    with pytest.raises(InputError, match="duplicate quad"):
        DSet.build(n, quads)


# ---------------------------------------------------------------------------
# analyses kept on the structure


def test_analyses_computed_once(catalogue):
    d = DSet.from_json(catalogue["CAT6"].dset.to_json())
    assert check_axioms(d) is check_axioms(d)
    assert D.relation_table(d) is D.relation_table(d)
    assert D.tree_from_dset(d) is D.tree_from_dset(d)
    # recolor hands its result every kept analysis.
    tinted = d.recolor([e % 2 for e in range(d.n)])
    assert check_axioms(tinted) is check_axioms(d) and D.tree_from_dset(tinted) is D.tree_from_dset(d)
    assert tinted.positives is d.positives and tinted.colors != d.colors


# Every analysis that _kept keeps on a structure.  recolor hands them all to
# its result, so each must read the relation alone: a new one joins this list
# only once it is shown to ignore the colors.
_KEPT_ANALYSES = {
    "core": ["_rebuild", "check_axioms", "positives", "relation_table"],
    "splittings": ["_brute_force_splittings", "_tree_splittings"],
    "trees": ["tree_from_dset"],
}


def test_kept_analyses_are_the_color_free_ones():
    found = {}
    for path in sorted(pathlib.Path(D.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(dec, ast.Name) and dec.id == "_kept" for dec in node.decorator_list
            ):
                found.setdefault(path.stem, []).append(node.name)
    assert {module: sorted(names) for module, names in found.items()} == _KEPT_ANALYSES


def test_kept_analyses_stay_out_of_identity(catalogue):
    d = catalogue["CAT6"].dset
    text = d.recolor([e % 2 for e in range(d.n)]).to_json()
    fresh, analysed = DSet.from_json(text), DSet.from_json(text)
    before = (repr(analysed), hash(analysed), analysed.to_json())
    D.tree_from_dset(analysed)
    D.enumerate_splittings(analysed)
    assert analysed == fresh and hash(analysed) == hash(fresh)
    assert (repr(analysed), hash(analysed), analysed.to_json()) == before
    assert repr(analysed) == repr(fresh) and analysed.to_json() == fresh.to_json()
    assert len({analysed, fresh}) == 1


def test_kept_table_is_read_only(catalogue):
    d = DSet.from_json(catalogue["CAT5"].dset.to_json())
    table = D.relation_table(d)
    check_axioms(d)
    D.tree_from_dset(d)
    assert table is D.relation_table(d)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 1, 2, 3] = not table[0, 1, 2, 3]


def test_kept_analyses_die_with_structure(catalogue):
    d = DSet.from_json(catalogue["CAT6"].dset.to_json())
    D.enumerate_splittings(d)
    gone = weakref.ref(d)
    del d
    gc.collect()
    assert gone() is None


# ---------------------------------------------------------------------------
# transitivity spot check (the exhaustive sweep lives in the acceptance suite)


def test_transitivity_on_catalogue(catalogue):
    for name in ("CAT5", "CAT6", "CAT5X"):
        d = catalogue[name].dset
        for a, b, x, y, z in itertools.product(range(d.n), repeat=5):
            if d.holds(a, b, x, y) and d.holds(a, b, y, z):
                assert d.holds(a, b, x, z)
