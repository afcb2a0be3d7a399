"""Window classification, discernible hulls, frontiers, indiscernibility."""

from __future__ import annotations

import collections
import functools
import itertools
import json
import random
import re

import numpy as np
import pytest

import dsets as D
from dsets import InputError, SequenceWindow
from dsets import indiscernibles
from dsets.indiscernibles import _KEEP_FILLINGS, _KEEP_QUADS, _block, _layout, _slot_layouts

import _families as F
import _oracles as O
from _families import spine_tree


def _pairings(d, a, b, c, e):
    return (d.holds(a, b, c, e), d.holds(a, c, b, e), d.holds(a, e, b, c))


@functools.lru_cache(maxsize=None)
def _brute_splittings(d):
    return O.brute_splittings(d)


def _detect_oracle(d, k):
    """Least k distinct elements with no positive quad, pairwise split apart."""
    partitions = _brute_splittings(d)
    for combo in itertools.combinations(sorted(d.elements), k):
        chosen = set(combo)
        if any(set(q) <= chosen for q in d.positives):
            continue
        for cells in partitions:
            homes = {next(c for c in cells if e in c) for e in combo}
            if len(homes) == k:
                return combo
    return None


# ---------------------------------------------------------------------------
# classify_window


def test_classify_monotonic(catalogue, mkwin):
    got = D.classify_window(catalogue["CAT5"].dset, mkwin(range(5)))
    assert got.label == "monotonic" and got.witness is None


def test_classify_petaled(catalogue, mkwin):
    got = D.classify_window(catalogue["FLW5"].dset, mkwin(range(5)))
    assert got.label == "petaled" and got.witness is None


def test_classify_out_of_order(catalogue, mkwin):
    d = catalogue["CAT5"].dset
    got = D.classify_window(d, mkwin([0, 2, 1, 3]))
    assert got.label == "not_indiscernible"
    w = got.witness
    assert w["kind"] == "forbidden_pattern"
    # the cited rows really show a pattern no indiscernible class allows
    elems = [0, 2, 1, 3]
    i, j, k, l = w["quad"]
    pattern = list(_pairings(d, elems[i], elems[j], elems[k], elems[l]))
    assert pattern == w["pattern"]
    assert pattern not in ([False, False, False], [True, False, False])


def test_classify_constant(catalogue, mkwin):
    got = D.classify_window(catalogue["CAT5"].dset, mkwin([2, 2, 2, 2]))
    assert got.label == "constant"


def test_classify_errors(catalogue):
    d = catalogue["CAT5"].dset
    with pytest.raises(InputError):
        D.classify_window(d, SequenceWindow([(0,), (1,), (2,)]))
    with pytest.raises(InputError):
        D.classify_window(d, SequenceWindow([(0, 1), (2, 3), (1, 0), (3, 2)]))


@pytest.mark.parametrize("bad", [1.7, True, "3", None])
def test_window_rejects_non_integer_ids(bad):
    with pytest.raises(InputError, match=f"^element ids must be non-negative integers, got {re.escape(repr(bad))}$"):
        SequenceWindow([(bad,), (2,), (3,), (4,), (5,)])


def test_window_takes_numpy_integers():
    w = SequenceWindow([(np.int64(v), np.int32(v)) for v in range(5)])
    assert w.rows == tuple((v, v) for v in range(5))
    assert all(type(v) is int for row in w.rows for v in row)


def test_window_json_round_trip():
    w = SequenceWindow([(0, 2), (1, 2), (4, 3)])
    assert SequenceWindow.from_json(w.to_json()) == w


@pytest.mark.parametrize("rows", ["[1, 2]", "5", "null", "[[0], 3]"])
def test_window_json_rejects_rows_not_lists_of_lists(rows):
    with pytest.raises(InputError, match="bad window payload"):
        SequenceWindow.from_json(f'{{"rows": {rows}}}')


@pytest.mark.parametrize("rows", [[1, 2], 5, None, [(0,), 3]])
def test_window_rejects_rows_not_sequences_of_sequences(rows):
    with pytest.raises(InputError, match="window rows must be a sequence of sequences"):
        SequenceWindow(rows)


# ---------------------------------------------------------------------------
# hull_window


def test_hull_interior_element(catalogue, mkwin):
    d = catalogue["CAT5X"].dset
    result = D.hull_window(d, mkwin(range(5)))
    col = result.columns[0]
    assert col.klass.label == "monotonic"
    assert col.h3 == frozenset({5}) and col.h1 == col.h2 == frozenset()
    assert result.hull == frozenset(range(6))
    # 5 really satisfies the two-sided separation pattern on some i<j<k<l
    window = list(range(5))
    assert any(
        d.holds(window[i], 5, window[k], window[l])
        and d.holds(window[i], window[j], 5, window[l])
        for i, j, k, l in itertools.combinations(range(5), 4)
    )


def test_hull_relationless_element(catalogue, mkwin):
    d = catalogue["CAT5Y"].dset
    result = D.hull_window(d, mkwin(range(5)))
    col = result.columns[0]
    assert col.h2 == frozenset({5})
    assert 5 in result.hull
    # witness shape: some window triple has no relation at all with 5
    assert any(
        not any(_pairings(d, i, j, k, 5))
        for i, j, k in itertools.combinations(range(5), 3)
    )


def test_hull_petaled_sectors(catalogue, mkwin):
    result = D.hull_window(catalogue["FLW5"].dset, mkwin(range(4)))
    assert result.hull == frozenset({0, 1, 2, 3})
    assert result.columns[0].sector_union == frozenset({0, 1, 2, 3})


def test_hull_plain_window_adds_nothing(catalogue, mkwin):
    result = D.hull_window(catalogue["CAT5"].dset, mkwin(range(5)))
    assert result.hull == frozenset(range(5))


def test_hull_multi_column_union(catalogue):
    d = catalogue["CAT5X"].dset
    rows = SequenceWindow([(i, 2) for i in range(5)])
    result = D.hull_window(d, rows)
    labels = [c.klass.label for c in result.columns]
    assert labels == ["monotonic", "constant"]
    assert result.hull == result.columns[0].hull == frozenset(range(6))
    assert result.columns[1].hull == frozenset()


def test_hull_rejects_unclassifiable(catalogue, mkwin):
    with pytest.raises(InputError):
        D.hull_window(catalogue["CAT5"].dset, mkwin([0, 2, 1, 3, 4]))


def _assert_petaled_hull_from_splitting(d, mkwin, col):
    """The splitting a petaled column's singletons extend to passes the
    definition, and the hull takes exactly its sectors that meet the column."""
    partial = D.Splitting([{v} for v in col])
    full = D.extend_splitting(d, partial.ground, partial)
    assert O.splitting_ok(d, full.sectors)[0], (d.n, col)
    got = D.hull_window(d, mkwin(col)).columns[0]
    assert got.klass.label == "petaled", (d.n, col)
    assert got.sector_union == frozenset().union(*(sec for sec in full.sectors if sec & set(col)))


def test_petaled_hulls_extend_to_splittings_on_small_trees(trees_by_k, mkwin):
    checked = 0
    for k in range(4, 9):
        for tree in trees_by_k[k]:
            d = D.d_from_tree(tree)
            for size in range(4, k + 1):
                for col in itertools.combinations(range(k), size):
                    if D.classify_window(d, mkwin(col)).label == "petaled":
                        _assert_petaled_hull_from_splitting(d, mkwin, col)
                        checked += 1
    assert checked == 1105


def test_petaled_hulls_extend_to_splittings_on_renumbered_trees(mkwin):
    # The scalar oracle visits every four sectors, about 6 s on the
    # 64-sector star, so node splittings with more than 32 sectors are left out.
    rng = random.Random(19)
    checked = 0
    for d in F.renumbered_trees(3):
        nodes = [s for s in D.enumerate_splittings(d) if 4 <= len(s.sectors) <= 32]
        for s in rng.sample(nodes, min(2, len(nodes))):
            sectors = rng.sample(s.sectors, rng.randint(4, min(6, len(s.sectors))))
            _assert_petaled_hull_from_splitting(d, mkwin, [rng.choice(sorted(sec)) for sec in sectors])
            checked += 1
    # Seeded 4-, 5- and 6-regular trees: at two nodes each, a column of
    # every length from 4 up to the degree.
    rng = random.Random(20)
    for degree, leaves in ((4, 16), (4, 32), (5, 17), (5, 32), (6, 18), (6, 30)):
        d = F.seeded_tree_dset(rng, leaves, "d_regular_random", degree)
        nodes = [s for s in D.enumerate_splittings(d) if len(s.sectors) == degree]
        for s in rng.sample(nodes, 2):
            for size in range(4, degree + 1):
                col = [rng.choice(sorted(sec)) for sec in rng.sample(s.sectors, size)]
                _assert_petaled_hull_from_splitting(d, mkwin, col)
                checked += 1
    assert checked == 8 + 24


# ---------------------------------------------------------------------------
# frontiers


def test_frontiers_left_pair(catalogue, mkwin):
    left, right = D.frontiers(catalogue["CAT5L"].dset, mkwin(range(5)))
    assert left == frozenset({5, 6}) and right == frozenset()


def test_frontiers_right_pair(catalogue, mkwin):
    left, right = D.frontiers(catalogue["CAT5R"].dset, mkwin(range(5)))
    assert left == frozenset() and right == frozenset({5, 6})


def test_frontiers_exclude_hull_member(catalogue, mkwin):
    left, right = D.frontiers(catalogue["CAT5X"].dset, mkwin(range(5)))
    assert 5 not in left | right
    assert left == right == frozenset()


def test_frontiers_bare_window(catalogue, mkwin):
    assert D.frontiers(catalogue["CAT5"].dset, mkwin(range(5))) == (
        frozenset(),
        frozenset(),
    )


def test_frontiers_require_monotonic(catalogue, mkwin):
    with pytest.raises(InputError):
        D.frontiers(catalogue["FLW5"].dset, mkwin(range(5)))


def test_monotonic_columns_under_five_rows_are_refused(mkwin):
    d, column = D.d_from_tree(D.gen_random(D.TreeSpec("caterpillar", 8))), mkwin(range(4))
    assert D.classify_window(d, column).label == "monotonic"
    with pytest.raises(InputError, match=r"^monotonic hull needs a window of at least 5 rows$"):
        D.hull_window(d, column)
    with pytest.raises(InputError, match=r"^frontiers need a window of at least 5 rows$"):
        D.frontiers(d, column)


def _tree_path(tree, u, v):
    """The nodes of tree's u..v path, in order from u."""
    adj = {}
    for a, b in tree.edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    parent, queue = {u: None}, [u]
    for x in queue:
        for nb in adj[x]:
            if nb not in parent:
                parent[nb] = x
                queue.append(nb)
    path = [v]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


def _monotonic_column(rng, tree, m):
    """Up to m, and at least 5, elements in the order of a path between two
    leaves: its ends and elements hanging off its inner nodes, one per
    node, so that every index quad pairs its first two rows apart from its
    last two."""
    leaf_of = dict(tree.leaves)
    while True:
        u, v = rng.sample(sorted(leaf_of), 2)
        path = _tree_path(tree, u, v)
        on_path = set(path)
        hanging = []
        for node in path[1:-1]:
            off = rng.choice(sorted(x for edge in tree.edges if node in edge for x in edge if x not in on_path))
            hanging.append(rng.choice(sorted(O._component_elements(tree, off, banned_node=node))))
        elements = [leaf_of[u], *hanging, leaf_of[v]]
        if len(elements) >= 5:
            return [elements[i] for i in sorted(rng.sample(range(len(elements)), min(m, len(elements))))]


def test_frontiers_match_the_definition_on_seeded_monotonic_windows():
    rng = random.Random(28)
    frontiers = []
    for kind, degree in (("caterpillar", None), ("d_regular_random", 3), ("d_regular_random", 4)):
        for leaves in (8, 16, 24, 40):
            tree = D.gen_random(D.TreeSpec(kind, leaves, degree, seed=rng.randrange(1000)))
            d = D.d_from_tree(tree)
            for _ in range(2):
                col = _monotonic_column(rng, tree, rng.randint(5, 8))
                for window in (col, col[::-1]):
                    assert O.classify_oracle(d, window) == {"label": "monotonic"}, (tree, window)
                    expected = O.frontiers_oracle(tree, window)
                    s = SequenceWindow([(v,) for v in window])
                    assert D.frontiers(d, s) == expected, (tree, window)
                    column = D.hull_window(d, s).columns[0]
                    assert (column.left, column.right) == expected, (tree, window)
                    frontiers.extend(expected)
    assert len(frontiers) == 2 * 48
    assert sum(map(bool, frontiers)) >= 48 and not all(frontiers)


def _hull_error(d, rows):
    """The message hull_window raises on a window of d, from the scalar
    scan, its checks taken column by column in order: a column under 4
    rows, an id out of range, a column that is not indiscernible, a
    monotonic column under 5 rows; None when the window passes them all."""
    for j, col in enumerate(zip(*rows)):
        if len(col) < 4:
            return "window too short to classify (need at least 4 rows)"
        bad = [v for v in col if v >= d.n]
        if bad:
            return f"element {bad[0]} out of range 0..{d.n - 1}"
        klass = O.classify_oracle(d, col)
        if klass["label"] == "not_indiscernible":
            return f"column {j} is not indiscernible: {klass['witness']}"
        if klass["label"] == "monotonic" and len(col) < 5:
            return "monotonic hull needs a window of at least 5 rows"
    return None


def _seeded_column(rng, spine, m):
    """A column of m rows: an in-order stretch of spine, reversed now and
    then, a constant or a random sample, then perhaps given a repeat, two
    rows swapped or an id one past the last element."""
    style = rng.random()
    if style < 0.5:
        col = [spine[i] for i in sorted(rng.sample(range(len(spine)), m))]
        col = col[::-1] if rng.random() < 0.5 else col
    elif style < 0.6:
        col = [rng.choice(spine)] * m
    else:
        col = rng.sample(spine, m)
    fault = rng.random()
    if fault < 0.15:
        col[rng.randrange(1, m)] = col[0]
    elif fault < 0.3:
        i = rng.randrange(m - 1)
        col[i], col[i + 1] = col[i + 1], col[i]
    elif fault < 0.4:
        col[rng.randrange(m)] = len(spine)
    return col


def test_classify_and_hull_errors_match_scalar_scan():
    rng = random.Random(29)
    classes, errors = collections.Counter(), collections.Counter()
    # Tables failing D1..D4: their windows, constant, and with a repeat.
    for d, window, _, _ in F.failing_tables(29, 24):
        for col in (window, window[:1] * len(window), window + window[1:2]):
            got = D.classify_window(d, SequenceWindow([(v,) for v in col])).as_dict()
            assert got == O.classify_oracle(d, col), (d, col)
            classes[got["label"], got.get("witness", {}).get("kind")] += 1
    # Caterpillars and stars with seeded labels: single and double columns
    # through classify_window and hull_window.
    for leaves in (6, 8, 10, 12, 5, 7):
        spine = rng.sample(range(leaves), leaves)
        loads = [spine[:2]] + [[v] for v in spine[2:-2]] + [spine[-2:]] if leaves > 7 else [spine]
        d = D.d_from_tree(spine_tree(loads))
        for _ in range(40):
            m = rng.randint(3, min(7, leaves))
            columns = [_seeded_column(rng, spine, m) for _ in range(rng.choice((1, 1, 2)))]
            if len(columns) == 1 and m >= 4 and max(columns[0]) < leaves:
                got = D.classify_window(d, SequenceWindow([(v,) for v in columns[0]])).as_dict()
                assert got == O.classify_oracle(d, columns[0]), (d, columns[0])
                classes[got["label"], got.get("witness", {}).get("kind")] += 1
            rows = list(zip(*columns))
            expected = _hull_error(d, rows)
            errors[expected and expected.split(" ")[0]] += 1
            if expected is None:
                got = D.hull_window(d, SequenceWindow(rows)).columns
                assert [c.klass.as_dict() for c in got] == [O.classify_oracle(d, col) for col in columns]
            else:
                with pytest.raises(InputError, match=f"^{re.escape(expected)}$"):
                    D.hull_window(d, SequenceWindow(rows))
    assert set(classes) == {
        ("constant", None), ("petaled", None), ("monotonic", None),
        ("not_indiscernible", "repeat"), ("not_indiscernible", "order"), ("not_indiscernible", "forbidden_pattern"),
    }, classes
    assert set(errors) == {None, "window", "element", "column", "monotonic"}, errors


def test_window_blocks_are_read_only_combinations_kept_up_to_the_bound(monkeypatch):
    # Lengths of at most 2**12 index quads are kept, 4..19 rows, and the
    # kept blocks hold 1,604,640 bytes at most; longer ones are built per call.
    monkeypatch.setattr(indiscernibles, "_BLOCKS", {})
    kept = [m for m in range(4, 30) if len(list(itertools.combinations(range(m), 4))) <= _KEEP_QUADS]
    assert kept == list(range(4, 20))
    for m in range(4, 23):
        pairings, triples = _block(m)
        assert not pairings.flags.writeable and not triples.flags.writeable
        quads = list(itertools.combinations(range(m), 4))
        for p, (i, j, k, l) in enumerate(((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))):
            assert pairings[:, p].T.tolist() == [[q[i], q[j], q[k], q[l]] for q in quads], (m, p)
        assert triples.T.tolist() == list(map(list, itertools.combinations(range(m), 3)))
        assert (_block(m) is _block(m)) == (m in kept)
    assert sorted(indiscernibles._BLOCKS) == kept
    assert sum(a.nbytes for block in indiscernibles._BLOCKS.values() for a in block) == 1_604_640


def _quad_elements(col, witness, side):
    return [col[i] for i in witness[f"quad_{side}"]], witness[f"pattern_{side}"]


def _window_columns(rng, leaves):
    """(d, column) on seeded structures of `leaves` elements: per length from
    4 to two rows past the kept bound, an in-order stretch of a caterpillar's
    spine (monotonic), a sample of a star's leaves (petaled), a sample of a
    3-regular tree's elements and a sample given a repeat."""
    spine = rng.sample(range(leaves), leaves)
    caterpillar = D.d_from_tree(spine_tree([spine[:2]] + [[v] for v in spine[2:-2]] + [spine[-2:]]))
    star = F.seeded_tree_dset(rng, leaves, "star")
    cubic = F.seeded_tree_dset(rng, leaves, "d_regular_random")
    for m in range(4, min(leaves, 21) + 1):
        stretch = [spine[i] for i in sorted(rng.sample(range(leaves), m))]
        yield caterpillar, stretch[::-1] if rng.random() < 0.5 else stretch
        yield star, rng.sample(range(leaves), m)
        yield cubic, rng.sample(range(leaves), m)
        repeated = rng.sample(range(leaves), m)
        repeated[rng.randrange(1, m)] = repeated[0]
        yield cubic, repeated


def _classify_and_hull(d, col):
    """classify_window's and hull_window's answers on a singleton column, as
    JSON text (a refusal as its message)."""
    w = SequenceWindow([(v,) for v in col])
    try:
        hull = json.dumps(D.hull_window(d, w).as_dict())
    except InputError as exc:
        hull = str(exc)
    return json.dumps(D.classify_window(d, w).as_dict()), hull


def test_classify_and_hull_read_kept_and_built_blocks_alike(monkeypatch):
    # Every length from 4 to 21 rows on 16- to 40-leaf structures: the
    # answers with blocks kept (read a second time once kept) are the bytes
    # of the answers with every block built for its call, and agree with
    # the scalar order-invariance oracle.
    rng = random.Random(35)
    cases = [case for leaves in (16, 24, 40) for case in _window_columns(rng, leaves)]
    monkeypatch.setattr(indiscernibles, "_BLOCKS", {})
    kept = [_classify_and_hull(d, col) for d, col in cases]
    assert kept == [_classify_and_hull(d, col) for d, col in cases]
    monkeypatch.setattr(indiscernibles, "_KEEP_QUADS", -1)
    monkeypatch.setattr(indiscernibles, "_BLOCKS", {})
    assert kept == [_classify_and_hull(d, col) for d, col in cases]
    assert indiscernibles._BLOCKS == {}
    labels = collections.Counter()
    for (d, col), (klass, _) in zip(cases, kept):
        got = json.loads(klass)
        kind = got.get("witness", {}).get("kind")
        labels[got["label"], kind, len(col) > 19] += 1
        if kind == "repeat":
            continue
        invariant, witness = O.order_invariant(d, col)
        if invariant:  # one pattern: a label, or at 4 rows perhaps a forbidden one
            pattern = list(O.quad_pattern(d, *col[:4]))
            label = {(False,) * 3: "petaled", (True, False, False): "monotonic"}.get(tuple(pattern))
            forbidden = {"kind": "forbidden_pattern", "quad": [0, 1, 2, 3], "pattern": pattern}
            assert got == ({"label": label} if label else {"label": "not_indiscernible", "witness": forbidden})
            assert label or len(col) == 4, (col, got)
        else:
            assert kind == "order", (col, got)
            first, second = witness["first"], witness["second"]
            assert _quad_elements(col, got["witness"], "a") == (list(first[0]), list(first[1]))
            assert _quad_elements(col, got["witness"], "b") == (list(second[0]), list(second[1]))
    for long in (False, True):
        for label, kind in (("petaled", None), ("monotonic", None), ("not_indiscernible", "order")):
            assert labels[label, kind, long] > 0, labels
    assert labels["not_indiscernible", "repeat", False] > 0, labels
    assert labels["not_indiscernible", "forbidden_pattern", False] > 0, labels


def test_a_window_past_the_bound_is_classified_without_being_kept(monkeypatch):
    monkeypatch.setattr(indiscernibles, "_BLOCKS", {})
    d = D.d_from_tree(D.gen_random(D.TreeSpec("caterpillar", 24)))
    for m in (20, 22):
        col = list(range(1, m + 1))
        got = D.classify_window(d, SequenceWindow([(v,) for v in col]))
        assert got.as_dict() == O.classify_oracle(d, col) == {"label": "monotonic"}
        assert m not in indiscernibles._BLOCKS
    assert indiscernibles._BLOCKS == {}


# ---------------------------------------------------------------------------
# weakly_indiscernible_over


def test_weak_fails_over_hull_member(catalogue, mkwin):
    d = catalogue["CAT5X"].dset
    ok, witness = D.weakly_indiscernible_over(d, mkwin(range(5)), [5])
    assert not ok
    assert witness["kind"] == "order_type"
    first, second = witness["first"], witness["second"]
    assert [s["kind"] for s in first["slots"]] == [s["kind"] for s in second["slots"]]
    assert first["value"] != second["value"]
    for atom in (first, second):
        assert d.holds(*atom["args"]) is atom["value"]


def test_weak_holds_over_frontier(catalogue, mkwin):
    ok, witness = D.weakly_indiscernible_over(
        catalogue["CAT5L"].dset, mkwin(range(5)), [5]
    )
    assert ok and witness is None


def test_weak_fails_over_a_window_element_by_equality(catalogue, mkwin):
    # The parameter 0 is window row 0: D(00;00) is False there, D(00;11) True at row 1.
    d, window = catalogue["CAT5"].dset, mkwin(range(5))
    assert D.weakly_indiscernible_over(d, window, []) == (True, None)
    ok, witness = D.weakly_indiscernible_over(d, window, [0])
    assert not ok and witness["kind"] == "order_type"
    first, second = witness["first"], witness["second"]
    assert (first["args"], first["value"]) == ([0, 0, 0, 0], False)
    assert (second["args"], second["value"]) == ([0, 0, 1, 1], True)
    assert [s.get("row") for s in first["slots"]] == [None, None, 0, 0]
    assert [s.get("row") for s in second["slots"]] == [None, None, 1, 1]
    for atom in (first, second):
        assert d.holds(*atom["args"]) is atom["value"]


def test_weak_constant_window(catalogue, mkwin):
    ok, _ = D.weakly_indiscernible_over(catalogue["CAT5"].dset, mkwin([2] * 5), [0, 3])
    assert ok


@pytest.mark.parametrize("params", [[5.9], [True], ["5"], 6, None])
def test_weak_rejects_non_integer_params(catalogue, mkwin, params):
    with pytest.raises(InputError):
        D.weakly_indiscernible_over(catalogue["CAT5X"].dset, mkwin(range(5)), params)


def test_weak_takes_numpy_integer_params(catalogue, mkwin):
    d = catalogue["CAT5X"].dset
    got = D.weakly_indiscernible_over(d, mkwin(range(5)), [np.int64(5)])
    assert got == D.weakly_indiscernible_over(d, mkwin(range(5)), [5])
    assert got[0] is False


def test_weak_window_too_short(catalogue, mkwin):
    with pytest.raises(InputError):
        D.weakly_indiscernible_over(catalogue["CAT5"].dset, mkwin(range(4)), [4])


# ---------------------------------------------------------------------------
# mutually_indiscernible


def test_mutual_disjoint_flower_windows(catalogue, mkwin):
    d = catalogue["FLW12"].dset
    ok, witness = D.mutually_indiscernible(d, mkwin(range(5)), mkwin(range(5, 10)))
    assert ok and witness is None


def test_mutual_self_fails(catalogue, mkwin):
    d = catalogue["CAT5"].dset
    ok, witness = D.mutually_indiscernible(d, mkwin(range(5)), mkwin(range(5)))
    assert not ok
    assert witness["kind"] == "order_type"


def test_mutual_window_against_widened_frontier(mkwin):
    # CAT5L geometry with the frontier node widened to five leaves, so the
    # second window reaches the minimum length
    d = D.d_from_tree(spine_tree([[5, 6, 7, 8, 9], [0], [1], [2], [3, 4]]))
    s1, s2 = mkwin(range(5)), mkwin(range(5, 10))
    ok, witness = D.mutually_indiscernible(d, s1, s2)
    assert ok and witness is None
    # agrees with the definition, one direction at a time
    assert D.weakly_indiscernible_over(d, s1, range(5, 10))[0]
    assert D.weakly_indiscernible_over(d, s2, range(5))[0]
    # and the hulls stay apart
    assert not D.hull_window(d, s1).hull & D.hull_window(d, s2).hull


def test_mutual_names_the_second_direction(mkwin):
    # The petals 0..4 see the spine as one branch, so they are weakly
    # indiscernible over it; the spine taken as 6, 5, 7, 8, 9 is not over them.
    d = D.d_from_tree(spine_tree([[0, 1, 2, 3, 4], [5], [6], [7], [8], [9, 10]]))
    s1, s2 = mkwin(range(5)), mkwin([6, 5, 7, 8, 9])
    assert D.weakly_indiscernible_over(d, s1, s2.elements()) == (True, None)
    ok, witness = D.weakly_indiscernible_over(d, s2, s1.elements())
    assert not ok
    assert D.mutually_indiscernible(d, s1, s2) == (False, {"direction": "second_over_first", **witness})


def test_mutual_window_too_short(catalogue, mkwin):
    with pytest.raises(InputError):
        D.mutually_indiscernible(catalogue["CAT5"].dset, mkwin(range(4)), mkwin(range(5)))


# ---------------------------------------------------------------------------
# against the scalar scans of tests/_oracles.py


def _seeded_structures(rng):
    """Tree-derived D-sets with 5 to 14 leaves and random tables that fail
    D1..D4."""
    for leaves in (5, 8, 11, 14):
        yield F.seeded_tree_dset(rng, leaves)
    for n in (5, 6, 7, 8):
        yield F.random_table(rng, n)


def test_classify_window_matches_scalar_scan():
    rng = random.Random(3)
    outcomes = set()
    for d in _seeded_structures(rng):
        for _ in range(40):
            length = rng.randint(4, min(8, d.n))
            col = rng.sample(range(d.n), length)
            if rng.random() < 0.2:
                col[rng.randrange(1, length)] = col[0]
            if rng.random() < 0.05:
                col = [col[0]] * length
            got = D.classify_window(d, SequenceWindow([(v,) for v in col])).as_dict()
            assert got == O.classify_oracle(d, col), (d, col)
            outcomes.add((got["label"], got.get("witness", {}).get("kind")))
    assert len(outcomes) >= 5


def test_weakly_indiscernible_matches_scalar_scan():
    rng = random.Random(4)
    verdicts = []
    for d in _seeded_structures(rng):
        for arity in (1, 1, 2, 2, 3):
            rows = [[rng.randrange(d.n) for _ in range(arity)] for _ in range(5 + (arity < 3))]
            if rng.random() < 0.3:  # every column the same distinct elements
                rows = [[v] * arity for v in rng.sample(range(d.n), 5)]
            params = rng.sample(range(d.n), rng.randint(1, 3))
            got = D.weakly_indiscernible_over(d, SequenceWindow(rows), params)
            assert got == O.weak_oracle(d, rows, params), (d, rows, params)
            verdicts.append(got[0])
    # Spine windows, read arity entries per row, over their frontier.
    for length, arity in ((5, 1), (10, 2), (15, 3)):
        d, window, extras = next(F.frontier_instances(length))
        rows = [window[i : i + arity] for i in range(0, length, arity)]
        got = D.weakly_indiscernible_over(d, SequenceWindow(rows), extras)
        assert got == O.weak_oracle(d, rows, extras) == (True, None)
        verdicts.append(got[0])
    assert True in verdicts and False in verdicts


def _spine_window(rng, leaves, arity, length, nb):
    """A caterpillar with seeded labels, a window of `arity` columns read
    off consecutive stretches of its spine (in either direction), and nb
    params outside the window, one of them swapped for a window element
    now and then.  Windows on the spine are order-invariant over outside
    params, so most such calls answer True."""
    spine = rng.sample(range(leaves), leaves)
    d = D.d_from_tree(spine_tree([spine[:2]] + [[v] for v in spine[2:-2]] + [spine[-2:]]))
    start = rng.randrange(leaves - arity * length + 1)
    cells = spine[start : start + arity * length]
    if rng.random() < 0.5:
        cells.reverse()
    rows = [[cells[c * length + r] for c in range(arity)] for r in range(length)]
    params = rng.sample([v for v in spine if v not in cells], nb)
    if params and rng.random() < 0.2:
        params[0] = rng.choice(cells)
    return d, rows, params


def test_weakly_indiscernible_kept_layouts_match_scalar_scan():
    # Session sizes, with shapes (rows, arity, params) interleaved and
    # repeated on other structures and ids, so a kept layout that carried
    # anything over from an earlier call would show.  Spine windows keep
    # to shapes of at most 40,000 fillings: a positive answer makes the
    # scalar oracle visit every one of them.
    rng = random.Random(11)
    spine_shapes = [(5, 1, 4), (8, 1, 4), (6, 1, 2), (5, 2, 3), (7, 2, 1), (8, 2, 2), (5, 3, 1), (6, 3, 0)]
    calls = []
    for leaves in (24, 40, 24, 40):
        for length, arity, nb in rng.sample(spine_shapes, 4):
            calls.append(_spine_window(rng, leaves, arity, length, nb))
        for d in (F.seeded_tree_dset(rng, leaves), F.random_table(rng, rng.randint(5, 8))):
            for _ in range(4):
                arity, length = rng.randint(1, 3), rng.randint(5, 8)
                rows = [[rng.randrange(d.n) for _ in range(arity)] for _ in range(length)]
                calls.append((d, rows, rng.sample(range(d.n), rng.randint(0, 4))))
    _layout.cache_clear()
    answers = []
    for d, rows, params in calls:
        got = D.weakly_indiscernible_over(d, SequenceWindow(rows), params)
        assert got == O.weak_oracle(d, rows, params), (d, rows, params)
        answers.append(got)
    verdicts = [ok for ok, _ in answers]
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10, verdicts
    assert len({(len(rows), len(rows[0]), len(set(params))) for _, rows, params in calls}) < len(calls)
    # Cold calls build the layout again and answer as the warm ones did.
    for (d, rows, params), warm in list(zip(calls, answers))[::3]:
        _layout.cache_clear()
        assert D.weakly_indiscernible_over(d, SequenceWindow(rows), params) == warm
    # 32 window cells over 2 params: 73,984 fillings, answered layout by
    # layout and not kept.
    _layout.cache_clear()
    d, rows, params = _spine_window(random.Random(5), 40, 2, 16, 2)
    assert 32 * 2 * 34**2 > _KEEP_FILLINGS
    overs = (params, [params[0], rows[3][1]])
    got = [D.weakly_indiscernible_over(d, SequenceWindow(rows), over) for over in overs]
    assert got == [O.weak_oracle(d, rows, over) for over in overs]
    assert [ok for ok, _ in got] == [True, False]
    assert _layout.cache_info().currsize == 0


@pytest.mark.parametrize("m, k, nb", ((5, 1, 1), (5, 2, 3), (8, 3, 2), (6, 1, 4)))
def test_layout_holds_the_fillings_of_one_slot_layout_per_d1_orbit(m, k, nb):
    # Window slots (1) of 0001, 0011, 0101 and 0111: the first of each orbit
    # of the 14 mixed layouts under D1's slot permutations, in product order.
    layouts = [tuple((slots[0] < k * m).astype(int).tolist()) for slots, _ in _slot_layouts(m, k, nb)]
    assert layouts == [(0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 1)]
    slots, first_of = _layout(m, k, nb)
    assert len(slots) == len(first_of) == k * m * nb * (k * m + nb) ** 2


# ---------------------------------------------------------------------------
# detect_petaled


def test_detect_flower(catalogue):
    got = D.detect_petaled(catalogue["FLW5"].dset, 4)
    assert got == SequenceWindow([(0,), (1,), (2,), (3,)])
    assert _detect_oracle(catalogue["FLW5"].dset, 4) == (0, 1, 2, 3)


def test_detect_caterpillar_triple(catalogue):
    d = catalogue["CAT5"].dset
    got = D.detect_petaled(d, 3)
    expected = _detect_oracle(d, 3)
    assert expected == (0, 1, 2)
    assert got == SequenceWindow([(e,) for e in expected])


def test_detect_matches_oracle_on_catalogue(catalogue):
    for name in ("CAT4", "CAT4E", "MIX", "STAR4", "FLW4"):
        d = catalogue[name].dset
        for k in (3, 4):
            got = D.detect_petaled(d, k)
            expected = _detect_oracle(d, k)
            if expected is None:
                assert got is None, (name, k)
            else:
                assert got == SequenceWindow([(e,) for e in expected]), (name, k)


def test_detect_too_few_elements(catalogue):
    assert D.detect_petaled(catalogue["CAT5"].dset, 9) is None


def test_detect_needs_k_of_at_least_three(catalogue):
    for k in (2, 1, 0, -1):
        with pytest.raises(InputError, match=r"^petaled detection needs k of at least 3$"):
            D.detect_petaled(catalogue["CAT5"].dset, k)


def test_detect_matches_oracle_on_small_trees(trees_by_k):
    for trees in trees_by_k.values():
        for t in trees:
            d = D.d_from_tree(t)
            for k in range(3, 7):
                expected = _detect_oracle(d, k)
                got = D.detect_petaled(d, k)
                assert got == (None if expected is None else SequenceWindow([(e,) for e in expected])), (t, k)


def test_detect_none_without_a_wide_enough_node():
    # Every node of a caterpillar has degree 3, so no 5 elements are split
    # apart; the k-subsets (42,504 here) are never scanned.
    d = D.d_from_tree(D.gen_random(D.TreeSpec("caterpillar", 24)))
    assert D.detect_petaled(d, 3) == SequenceWindow([(0,), (1,), (2,)])
    assert D.detect_petaled(d, 5) is None


def _detect_scan(tree, k):
    """Least k elements of tree's D-set with one splitting giving each its
    own sector, from a scan of the k-subsets in lexicographic order against
    the tree oracle's splittings."""
    nodes, edges = O.tree_splittings_oracle(tree)
    wide = [secs for _, secs in nodes + edges if len(secs) >= k]
    elements = sorted(e for _, e in tree.leaves)
    for combo in itertools.combinations(elements, k):
        if any(sum(not sec.isdisjoint(combo) for sec in secs) == k for secs in wide):
            return combo
    return None


def test_detect_reads_the_least_tuple_late_in_the_scan():
    # A caterpillar on 0..m-1 whose end node joins a degree-5 node holding
    # m..m+3: the least separated k-tuple is (0, m, ..., m+k-2), which a
    # scan of the k-subsets in order reaches after about C(m + 3, k - 1) of them.
    for m in (16, 20, 36):
        tree = spine_tree([[0, 1]] + [[v] for v in range(2, m)] + [list(range(m, m + 4))])
        d = D.d_from_tree(tree)
        for k in (4, 5):
            got = D.detect_petaled(d, k)
            assert got == SequenceWindow([(v,) for v in (0, *range(m, m + k - 1))]), (m, k)
            if m < 36:
                assert got == SequenceWindow([(v,) for v in _detect_scan(tree, k)]), (m, k)
