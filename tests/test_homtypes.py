"""Quantifier-free types over a subset and partial isomorphisms."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re

import numpy as np
import pytest

import dsets as D
import dsets.core
from dsets import InputError, Splitting, homtypes, splittings

import _families as F
import _oracles as O
from _families import spine_tree


# ---------------------------------------------------------------------------
# qftp_base


def test_qftp_base_node_case(catalogue):
    got = D.qftp_base(catalogue["CAT4E"].dset, [0, 1, 2, 3], 4)
    assert got.case == "node"
    assert set(got.base) == {0, 1, 2}
    assert got.splitting == Splitting([{0}, {1}, {2, 3}])


def test_qftp_base_edge_case(catalogue):
    got = D.qftp_base(catalogue["CAT4M"].dset, [0, 1, 2, 3], 4)
    assert got.case == "edge"
    assert got.base == (0, 1, 2)
    assert got.splitting == Splitting([{0, 1}, {2, 3}])


def test_qftp_base_flower(catalogue):
    got = D.qftp_base(catalogue["FLW4"].dset, [0, 1, 2], 3)
    assert got.case == "node"
    assert got.base == (0, 1, 2)
    assert got.splitting == Splitting([{0}, {1}, {2}])


def test_qftp_base_requires_outside_element(catalogue):
    with pytest.raises(InputError):
        D.qftp_base(catalogue["CAT4"].dset, [0, 1, 2], 2)


def test_qftp_base_refuses_tables_failing_core_axioms():
    for d, _, subset, e in F.failing_tables(5, 300):
        with pytest.raises(InputError, match=r"^input fails D1\.\.D4$"):
            D.qftp_base(d, subset, e)


@pytest.mark.parametrize("bad", (1.7, 1.0, 2.0, "1", True))
def test_type_entry_points_reject_ids_that_are_not_integers(catalogue, bad):
    d = catalogue["CAT5"].dset
    message = f"^element ids must be non-negative integers, got {re.escape(repr(bad))}$"
    node = D.qftp_base(d, [0, 1, 2, 3], 4)
    for call in (
        lambda: D.qftp_base(d, [0, bad, 2], 3),
        lambda: D.qftp_base(d, [0, 1, 2], bad),
        lambda: D.same_qftp(d, [0, bad, 2], 3, 4),
        lambda: D.same_qftp(d, [0, 1, 2], 3, bad),
        lambda: D.check_partial_iso(d, d, {0: bad, 1: 0}),
        lambda: D.check_partial_iso(d, d, [(bad, 0)]),
        lambda: D.extend_partial_iso(d, {0: bad}, 2),
        lambda: D.extend_partial_iso(d, {0: 0, 1: 1}, bad),
        lambda: node.predict(0, bad, 2),
        lambda: node.shares_sector(bad, 2),
    ):
        with pytest.raises(InputError, match=message):
            call()


def test_shares_sector_rejects_elements_outside_the_subset(catalogue):
    qb = D.qftp_base(catalogue["CAT5"].dset, [0, 1, 2], 3)
    with pytest.raises(InputError, match="outside the subset"):
        qb.shares_sector(0, 4)


def test_small_case_tabulates_every_atom(catalogue):
    checked = 0
    for fixture in catalogue.values():
        d = fixture.dset
        for sub in itertools.chain(*(itertools.combinations(range(d.n), k) for k in (1, 2))):
            for e in sorted(d.elements - set(sub)):
                qb = D.qftp_base(d, sub, e)
                assert qb.case == "small"
                for x, y, z in itertools.product(sub, repeat=3):
                    assert qb.predict(x, y, z) == d.holds(e, x, y, z)
                with pytest.raises(InputError, match=r"^no splitting in the small case$"):
                    qb.shares_sector(sub[0], sub[-1])
                checked += 1
    assert checked > 1000


def _assert_base_exact(d, subset, e, triples):
    """The base of e over the subset reproduces the relation (checked by the
    reference), and predict agrees with the table on the given triples."""
    table = D.relation_table(d)
    qb = D.qftp_base(d, subset, e)
    assert O.type_base_mismatch(qb, table) is None, (d.n, subset, e)
    for x, y, z in triples:
        assert qb.predict(x, y, z) == table[e, x, y, z], (d.n, subset, e, (x, y, z))


def test_qftp_base_exact_on_small_trees(trees_by_k):
    checked = 0
    for k in range(4, 7):
        for tree in trees_by_k[k]:
            d = D.d_from_tree(tree)
            for size in range(3, k):
                for subset in itertools.combinations(range(k), size):
                    for e in sorted(d.elements - set(subset)):
                        _assert_base_exact(d, subset, e, itertools.product(subset, repeat=3))
                        checked += 1
    assert checked == 2 * 4 + 3 * 25 + 7 * 96


def test_qftp_base_exact_on_renumbered_trees():
    rng = random.Random(17)
    for d in F.renumbered_trees(3):
        for _ in range(6):
            e, *subset = rng.sample(range(d.n), rng.randint(4, d.n))
            triples = [tuple(rng.choice(subset) for _ in range(3)) for _ in range(60)]
            _assert_base_exact(d, subset, e, triples)


# ---------------------------------------------------------------------------
# same_qftp


def test_same_qftp_same_attachment():
    d = D.d_from_tree(spine_tree([[0, 1, 4, 5], [2, 3]]))
    assert D.same_qftp(d, [0, 1, 2, 3], 4, 5)


def test_same_qftp_different_attachment():
    d = D.d_from_tree(spine_tree([[0, 1, 4], [2, 3, 5]]))
    assert not D.same_qftp(d, [0, 1, 2, 3], 4, 5)


def test_same_qftp_reflexive(catalogue):
    assert D.same_qftp(catalogue["CAT4E"].dset, [0, 1, 2, 3], 4, 4)


@pytest.mark.parametrize("subset", ([-1, 0, 1], [0, 1, 99]))
def test_same_qftp_rejects_unknown_subset_elements(catalogue, subset):
    bad = subset[0] if subset[0] < 0 else subset[-1]
    with pytest.raises(InputError, match=f"^{re.escape(f'element {bad} out of range 0..4')}$"):
        D.same_qftp(catalogue["CAT4E"].dset, subset, 2, 3)


def test_bases_compare_equal_exactly_when_types_agree(catalogue):
    pairs = same = 0
    for name in ("CAT5X", "CAT5L", "CAT5R", "MIX", "FLW6"):
        d = catalogue[name].dset
        for size in range(1, 5):
            for subset in itertools.combinations(range(d.n), size):
                outside = sorted(d.elements - set(subset))
                for e1, e2 in itertools.combinations(outside, 2):
                    agree = D.same_qftp(d, subset, e1, e2)
                    assert (D.qftp_base(d, subset, e1) == D.qftp_base(d, subset, e2)) == agree
                    pairs, same = pairs + 1, same + agree
    assert pairs == 1780 and 0 < same < pairs


# ---------------------------------------------------------------------------
# check_partial_iso


def test_check_partial_iso_identity(catalogue):
    cat4 = catalogue["CAT4"].dset
    assert D.check_partial_iso(cat4, cat4, {i: i for i in range(4)}) == (True, None)


def test_check_partial_iso_pair_swap(catalogue):
    cat4 = catalogue["CAT4"].dset
    ok, witness = D.check_partial_iso(cat4, cat4, {0: 2, 1: 3, 2: 0, 3: 1})
    assert ok and witness is None


def test_check_partial_iso_adjacent_swap(catalogue):
    cat4 = catalogue["CAT4"].dset
    ok, witness = D.check_partial_iso(cat4, cat4, {0: 0, 1: 2, 2: 1, 3: 3})
    assert not ok
    assert witness["kind"] == "quad"
    assert witness["quad"] == [0, 1, 2, 3]
    # the cited quad really separates source from image
    assert cat4.holds(0, 1, 2, 3)
    assert not cat4.holds(0, 2, 1, 3)


def test_check_partial_iso_color_mismatch(catalogue):
    cat4 = catalogue["CAT4"].dset
    tinted = cat4.recolor((0, 0, 0, 1))
    ok, witness = D.check_partial_iso(tinted, tinted, {3: 0})
    assert not ok and witness["kind"] == "color"


def test_check_partial_iso_rejects_non_injective(catalogue):
    cat4 = catalogue["CAT4"].dset
    with pytest.raises(InputError):
        D.check_partial_iso(cat4, cat4, {0: 1, 2: 1})


def test_malformed_maps_are_input_errors(catalogue):
    d = catalogue["CAT4"].dset
    not_iterable = "a map must be a mapping or a sequence of pairs: 'int' object is not iterable"
    for call, message in (
        (lambda: D.check_partial_iso(d, d, [(0, 1, 2)]), "map entries must be pairs, got [0, 1, 2]"),
        (lambda: D.extend_partial_iso(d, [(0,)], 1), "map entries must be pairs, got [0]"),
        (lambda: D.check_partial_iso(d, d, 5), not_iterable),
        (lambda: D.extend_partial_iso(d, [0, 1], 2), not_iterable),
    ):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            call()


# ---------------------------------------------------------------------------
# extend_partial_iso


def test_extend_flower_free_choice(catalogue):
    assert D.extend_partial_iso(catalogue["FLW4"].dset, {0: 1}, 1) == [0, 2, 3]


def test_extend_identity_forced(catalogue):
    assert D.extend_partial_iso(catalogue["CAT4"].dset, {0: 0, 1: 1, 2: 2}, 3) == [3]


def test_extend_cross_pair(catalogue):
    assert D.extend_partial_iso(catalogue["CAT4"].dset, {0: 2, 1: 3}, 2) == [0, 1]


def test_extend_candidates_verified_pointwise(catalogue):
    # every reported candidate must itself pass the full check, and every
    # rejected image must fail it
    for name in ("CAT4", "CAT5", "CAT4E", "MIX"):
        d = catalogue[name].dset
        m = {0: 0, 1: 1}
        x = 2
        got = set(D.extend_partial_iso(d, m, x))
        for y in d.elements - set(m.values()):
            ok, _ = D.check_partial_iso(d, d, {**m, x: y})
            assert (y in got) == ok, (name, y)


def test_extend_refuses_a_map_that_is_no_partial_iso(catalogue):
    # D(01;23) holds in CAT5 and its image D(02;13) does not.
    message = "not a partial isomorphism: {'kind': 'quad', 'quad': [0, 1, 2, 3], 'image': [0, 2, 1, 3]}"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        D.extend_partial_iso(catalogue["CAT5"].dset, {0: 0, 1: 2, 2: 1, 3: 3}, 4)


def test_extend_requires_unmapped_source(catalogue):
    with pytest.raises(InputError):
        D.extend_partial_iso(catalogue["CAT4"].dset, {0: 0, 1: 1}, 0)


def _counted(monkeypatch, modules, name):
    """Count the calls of `name`, patched in each module that reads it."""
    calls, real = [], getattr(modules[0], name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_extend_partial_iso_reads_its_map_once(monkeypatch):
    # The map is parsed once per call, for the check and the candidates
    # alike, and the candidates still equal a scan of check_partial_iso.
    rng = random.Random(35)
    calls = _counted(monkeypatch, [homtypes], "_as_map")
    answered, refused = 0, 0
    for leaves in (16, 24, 40):
        d = F.seeded_tree_dset(rng, leaves).recolor([rng.randrange(2) for _ in range(leaves)])
        for i in range(6):
            x, *dom = rng.sample(range(leaves), rng.randint(3, 6))
            m = {a: a for a in dom} if i < 4 else list(zip(dom, rng.sample(range(leaves), len(dom))))
            calls.clear()
            try:
                got = D.extend_partial_iso(d, m, x)
            except InputError:
                assert len(calls) == 1, calls
                refused += 1
                continue
            assert len(calls) == 1, calls
            answered += 1
            pairs = dict(m)
            expected = [y for y in range(leaves) if y not in pairs.values() and D.check_partial_iso(d, d, {**pairs, x: y})[0]]
            assert got == expected
    assert answered >= 12 and refused > 0, (answered, refused)


def test_qftp_base_checks_its_subset_once(monkeypatch):
    # One check of the subset and the element per call, whatever the case;
    # induced_splitting and complementary, called on their own, still check.
    rng = random.Random(36)
    calls = _counted(monkeypatch, [homtypes, splittings], "_subset_outside")
    cases = set()
    for leaves in (16, 24, 40):
        d = F.seeded_tree_dset(rng, leaves)
        for size in (2, 3, 4, 6, 9):
            e, *subset = rng.sample(range(leaves), size + 1)
            calls.clear()
            base = D.qftp_base(d, subset, e)
            assert len(calls) == 1, calls
            cases.add(base.case)
            if base.case != "small":
                assert base.splitting == D.induced_splitting(d, subset, e)
            if base.case == "edge":
                first = base.splitting.sector_of(base.base[0])
                assert base.base[1] == D.complementary(d, base.splitting, first, base.base[0])
    assert cases == {"small", "node", "edge"}
    with pytest.raises(InputError, match="^element 99 out of range 0..39$"):
        D.induced_splitting(d, [0, 1, 99], 5)
    with pytest.raises(InputError, match="^element 99 out of range 0..39$"):
        D.complementary(d, D.Splitting([[0, 1], [2, 99]]), [0, 1], 0)


# ---------------------------------------------------------------------------
# types by induced splitting and by atom slice


def _assert_splittings_match_atoms(d, dom, img):
    """For x outside dom and y outside img: the induced splitting of x on
    dom, carried along dom -> img, equals that of y on img exactly when the
    atom slice D(x a; b c) over dom, carried, equals y's over img.  Returns
    the number of (x, y) pairs compared."""
    t = D.relation_table(d)
    m = dict(zip(dom, img))
    dom_grid, img_grid = np.ix_(dom, dom, dom), np.ix_(img, img, img)
    carried = [
        (Splitting([{m[a] for a in sec} for sec in D.induced_splitting(d, dom, x).sectors]), t[x][dom_grid])
        for x in sorted(d.elements - set(dom))
    ]
    own = [
        (D.induced_splitting(d, img, y), t[y][img_grid])
        for y in sorted(d.elements - set(img))
    ]
    for (sx, ax), (sy, ay) in itertools.product(carried, own):
        assert (sx == sy) == np.array_equal(ax, ay), (d, dom, img)
    return len(carried) * len(own)


def _grown_partial_iso(d, rng, size):
    """A partial isomorphism of d onto itself: a random first pair, then
    random extensions by an element with a matching atom slice."""
    t = D.relation_table(d)
    a, b = rng.sample(range(d.n), 2)
    m = {a: b}
    while len(m) < size:
        x = rng.choice(sorted(d.elements - set(m)))
        dom = sorted(m)
        img = [m[v] for v in dom]
        x_slice = t[x][np.ix_(dom, dom, dom)]
        fits = [
            y
            for y in sorted(d.elements - set(img))
            if np.array_equal(x_slice, t[y][np.ix_(img, img, img)])
        ]
        if not fits:
            break
        m[x] = rng.choice(fits)
    assert D.check_partial_iso(d, d, m)[0]
    return m


def test_induced_splittings_decide_types_on_small_trees(trees_by_k):
    rng = random.Random(6)
    compared = 0
    for k in range(4, 8):
        for tree in trees_by_k[k]:
            d = D.d_from_tree(tree)
            for size in range(2, k - 1):
                for dom in itertools.combinations(range(k), size):
                    compared += _assert_splittings_match_atoms(d, dom, dom)
            for size in range(2, k):
                m = _grown_partial_iso(d, rng, size)
                compared += _assert_splittings_match_atoms(d, list(m), list(m.values()))
    assert compared > 10_000


@pytest.mark.parametrize("leaves", (16, 24, 32))
def test_induced_splittings_decide_types_on_large_trees(leaves):
    rng = random.Random(leaves)
    d = F.seeded_tree_dset(rng, leaves)
    for _ in range(4):
        dom = rng.sample(range(leaves), rng.randint(2, leaves - 2))
        _assert_splittings_match_atoms(d, dom, dom)
    for size in (3, 6, 9, 12):
        m = _grown_partial_iso(d, rng, size)
        _assert_splittings_match_atoms(d, list(m), list(m.values()))


# ---------------------------------------------------------------------------
# homogeneity_conditions


def test_homogeneity_cat4(catalogue):
    report = D.homogeneity_conditions(catalogue["CAT4"].dset)
    assert report["regular"]["verdict"] is True
    assert report["regular"]["sector_count"] == 3
    assert report["dense"]["verdict"] is False
    assert report["dense"]["witness"] == [0, 1, 2, 3]
    assert report["color_hitting"]["verdict"] is True


def test_homogeneity_color_starved(catalogue):
    tinted = catalogue["CAT4"].dset.recolor((0, 0, 0, 1))
    report = D.homogeneity_conditions(tinted)
    assert report["color_hitting"]["verdict"] is False
    w = report["color_hitting"]["witness"]
    assert w["sector"] == [0, 1] and w["color"] == 1
    # the cited sector really misses the color
    assert all(tinted.colors[e] != 1 for e in w["sector"])


def test_homogeneity_dense_flower(catalogue):
    report = D.homogeneity_conditions(catalogue["FLW5"].dset)
    assert report["dense"]["verdict"] is True


# ---------------------------------------------------------------------------
# nonextendable_witness


def _assert_genuinely_stuck(d, m, stuck):
    ok, _ = D.check_partial_iso(d, d, m)
    assert ok
    assert stuck not in m
    assert D.extend_partial_iso(d, m, stuck) == []


def test_nonextendable_color_starved_sector(catalogue):
    tinted = catalogue["CAT4"].dset.recolor((0, 0, 0, 1))
    result = D.nonextendable_witness(tinted)
    assert result == ({2: 0, 0: 2, 1: 1}, 3)
    _assert_genuinely_stuck(tinted, *result)


def test_nonextendable_unequal_nodes(catalogue):
    mix = catalogue["MIX"].dset
    result = D.nonextendable_witness(mix)
    assert result == ({0: 0, 2: 1, 3: 2}, 4)
    _assert_genuinely_stuck(mix, *result)


def test_nonextendable_none_on_uniform_regular(catalogue):
    assert D.nonextendable_witness(catalogue["CAT4"].dset) is None


def test_regularity_hitting_and_witnesses_answer_as_they_did(catalogue, trees_by_k):
    # sha256 of the newline-joined JSON of is_regular, homogeneity_conditions
    # at sector sizes 0..3 and nonextendable_witness (its map as sorted
    # pairs) under each of F.colorings: every tree of 4..7 leaves, then the
    # 16- and 40-leaf F.splitting_structures.
    lines = []
    ds = [D.d_from_tree(t) for k in range(4, 8) for t in trees_by_k[k]]
    for d in ds + list(F.splitting_structures(catalogue.values(), (16, 40))):
        for c in F.colorings(d):
            found = D.nonextendable_witness(c)
            conditions = [D.homogeneity_conditions(c, k) for k in (0, 1, 2, 3)]
            found = found and [sorted(found[0].items()), found[1]]
            lines.append(json.dumps([D.is_regular(c), conditions, found], sort_keys=True))
    assert len(lines) == 275
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "b7fc6dd2d78a30a17b64f63dc4afac4ea864f76d6f596105498799ce34a79998"
    )


def _library_order(tree, perm):
    """The tree oracle's splittings of tree's D-set with element e renamed
    perm[e], as sector lists in the library's order."""
    nodes, edges = O.tree_splittings_oracle(tree)
    families = {frozenset(frozenset(perm[e] for e in sec) for sec in secs) for _, secs in nodes + edges}
    return [sorted(f, key=min) for f in sorted(families, key=lambda f: sorted(map(sorted, f)))]


def _colored_trees(leaves):
    """Seeded caterpillars, stars, 3- and 4-regular trees and a spine with
    one to three leaves a node, of the given size, relabelled, each colored
    sector_avoiding and round_robin, with its splittings from the tree
    oracle in the library's order."""
    rng = random.Random(leaves)
    trees = [
        D.gen_random(D.TreeSpec(kind, leaves, degree, seed=rng.randrange(1000)))
        for kind, degree in (("caterpillar", None), ("star", None), ("d_regular_random", 3), ("d_regular_random", 4))
    ]
    loads = [[0, 1]]  # end nodes need two leaves, inner ones one to three
    while loads[-1][-1] < leaves - 3:
        loads.append(list(range(loads[-1][-1] + 1, min(loads[-1][-1] + rng.randint(2, 4), leaves - 2))))
    for tree in trees + [spine_tree(loads + [[leaves - 2, leaves - 1]])]:
        perm = rng.sample(range(leaves), leaves)
        d = D.relabel(D.d_from_tree(tree), dict(enumerate(perm)))
        splittings = _library_order(tree, perm)
        for colored in (D.color_sector_avoiding(d), D.color_round_robin(d, rng.choice((2, 3)))):
            yield colored, splittings


def _relabelled_trees(trees_by_k):
    """Every tree of 4..8 leaves, then seeded caterpillars, stars and 3- and
    4-regular trees of 16, 32 and 64 leaves, each as built and relabelled at
    random: (D-set, the tree oracle's splittings in the library's order)."""
    rng = random.Random(34)
    shapes = (("caterpillar", None), ("star", None), ("d_regular_random", 3), ("d_regular_random", 4))
    trees = [t for k in range(4, 9) for t in trees_by_k[k]]
    trees += [D.gen_random(D.TreeSpec(kind, k, degree, seed=k)) for k in (16, 32, 64) for kind, degree in shapes]
    for tree in trees:
        d, k = D.d_from_tree(tree), tree.n_elements
        perm = rng.sample(range(k), k)
        yield d, _library_order(tree, range(k))
        yield D.relabel(d, dict(enumerate(perm))), _library_order(tree, perm)


def test_distance_reads_equal_table_reads(trees_by_k):
    # The density witness, the swap's third element and the D5 and D6
    # witnesses are read off the certified tree's leaf distances.  They
    # equal the first row the table route finds witnessless, the scalar
    # oracles and, where the dense oracle is affordable, its axiom sweep.
    swept = 0
    for d, splittings in _relabelled_trees(trees_by_k):
        lacking = next((row for row in map(np.ndarray.tolist, d.rows) if D.density_witnesses(d, *row) == []), None)
        t = O.dense_table(d) if d.n <= 32 else D.relation_table(d)
        if d.n <= 32:
            assert D.check_axioms(d).as_dict() == O.axioms_oracle(t), d
        for c in F.colorings(d):
            assert D.homogeneity_conditions(c)["dense"]["witness"] == lacking, c
            assert D.nonextendable_witness(c) == O.nonextendable_oracle(t, c.colors, splittings), c
            swept += 1
    assert swept == 2 * 5 * (sum(len(trees_by_k[k]) for k in range(4, 9)) + 12)


def test_report_on_rows_alone_builds_no_table(monkeypatch):
    d = D.d_from_tree(D.gen_random(D.TreeSpec("d_regular_random", 32, 3, seed=32)))
    colors = [e % 3 for e in range(d.n)]
    report = (D.homogeneity_conditions, D.nonextendable_witness)
    expected = [f(d.recolor(colors)) for f in report]

    def refuse(d):
        raise AssertionError("built the relation table")

    monkeypatch.setattr(dsets.core, "relation_table", refuse)
    fresh = D.DSet._from_rows(d.n, d.rows, colors)
    assert [f(fresh) for f in report] == expected
    assert expected[0]["dense"]["witness"] is not None and expected[1] is not None


def _grown_colored_iso(t, colors, rng, size):
    """A partial isomorphism of a colored structure onto itself, grown by
    random extensions that the oracle allows."""
    a = rng.randrange(len(colors))
    m = {a: rng.choice([b for b in range(len(colors)) if colors[b] == colors[a]])}
    while len(m) < size:
        x = rng.choice(sorted(set(range(len(colors))) - set(m)))
        fits = O.extend_oracle(t, colors, m, x)
        if not fits:
            break
        m[x] = rng.choice(fits)
    return m


@pytest.mark.parametrize("leaves", (16, 24, 32))
def test_witnesses_and_candidates_match_scalar_loops_on_colored_trees(leaves):
    # Which map, stuck element and candidate comes first is the contract:
    # the scalar loops of the oracle fix it.
    rng = random.Random(leaves)
    found = 0
    for d, splittings in _colored_trees(leaves):
        t, colors = O.dense_table(d), d.colors
        witness = D.nonextendable_witness(d)
        assert witness == O.nonextendable_oracle(t, colors, splittings), (leaves, colors)
        found += witness is not None
        maps = [_grown_colored_iso(t, colors, rng, size) for size in (1, 3, 5, 8)]
        maps += [{a: a for a in rng.sample(range(leaves), 4)}, {}, witness[0] if witness else {0: 0}]
        for m in maps:
            for x in rng.sample(sorted(set(range(leaves)) - set(m)), 4):
                assert D.extend_partial_iso(d, m, x) == O.extend_oracle(t, colors, m, x), (m, x)
    assert found >= 4


def test_witness_constructions_match_verified_scan_on_every_small_tree(trees_by_k):
    # nonextendable_witness returns its constructions unchecked; the oracle
    # keeps the search that verifies each candidate with extend_oracle.  A
    # witness of the first kind is stuck on a color its map's domain lacks,
    # one of the second kind on the color of its whole domain.  Colorings
    # nearly always starve a sector of these trees, so the second kind comes
    # from the uncolored irregular ones.
    kinds = {"starved": 0, "unequal": 0}
    for k in range(4, 9):
        for tree in trees_by_k[k]:
            d = D.d_from_tree(tree)
            splittings = _library_order(tree, range(k))
            for colored in (d, D.color_round_robin(d, 2), D.color_round_robin(d, 3), D.color_sector_avoiding(d)):
                t, colors = O.dense_table(colored), colored.colors
                witness = D.nonextendable_witness(colored)
                assert witness == O.nonextendable_oracle(t, colors, splittings), (tree, colors)
                if witness:
                    m, stuck = witness
                    kinds["starved" if colors[stuck] not in {colors[a] for a in m} else "unequal"] += 1
    assert kinds == {"starved": 55, "unequal": 39}
