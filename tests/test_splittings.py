"""Splitting validation, enumeration, and the extension machinery."""

from __future__ import annotations

import itertools
import random
import re

import numpy as np
import pytest

import dsets as D
import dsets.trees
from dsets import DSet, InputError, Splitting

import _families as F
import _oracles as O


def _as_cellsets(splittings):
    return {frozenset(frozenset(sec) for sec in s.sectors) for s in splittings}


# ---------------------------------------------------------------------------
# Splitting type


def test_splitting_structural_equality():
    assert Splitting([{0, 1}, {2, 3}]) == Splitting([[3, 2], [1, 0]])
    assert Splitting([{0, 1}, {2, 3}]).kind == "edge"
    assert Splitting([{0}, {1}, {2}]).kind == "node"


def test_splitting_rejects_overlap_and_empty():
    with pytest.raises(InputError):
        Splitting([{0, 1}, {1, 2}])
    with pytest.raises(InputError):
        Splitting([{0}, set()])


def test_splitting_converts_numpy_ids_and_orders_sectors_by_least_element():
    s = Splitting([(np.int64(2), 0), [np.int32(1), 3], {9, 5}, iter((4,))])
    assert s.sectors == (frozenset({0, 2}), frozenset({1, 3}), frozenset({4}), frozenset({5, 9}))
    assert {type(v) for sec in s.sectors for v in sec} == {int}
    assert s.to_json() == '{"sectors":[[0,2],[1,3],[4],[5,9]]}'
    with pytest.raises(InputError, match="^empty sector$"):
        Splitting([{0, 1}, {1, 2}, set()])  # every sector is read before overlaps are sought
    with pytest.raises(InputError, match="^sectors overlap$"):
        Splitting([{0, 1}, {3}, {1, 2}])


@pytest.mark.parametrize(
    "sectors",
    ([[0, "1"], [2]], [[0, 1.0], [2]], [[0, 1.5], [2]], [[0, True], [2]], [[1, True], [2]],
     [[0, None], [2]], [[0, np.float64(1)], [2]], [[1, 1.0], [2]], [[0], [2, True, 1]]),
)
def test_splitting_rejects_ids_that_are_not_integers(sectors):
    with pytest.raises(InputError, match="^element ids must be non-negative integers, got "):
        Splitting(sectors)


@pytest.mark.parametrize("sectors", (5, [[0, 1], 5], [[0, 1], None], [[0, [1]], [2]]))
def test_splitting_rejects_sectors_that_are_not_lists_of_ids(sectors):
    with pytest.raises(InputError, match="^sectors must be lists of element ids: "):
        Splitting(sectors)


def test_splitting_json_round_trip():
    s = Splitting([{2, 0}, {1}, {3, 4}])
    assert Splitting.from_json(s.to_json()) == s


def test_splitting_json_bare_list():
    # the splittings CLI payload lists partitions without the wrapper object
    s = Splitting.from_json("[[0, 2], [1], [3, 4]]")
    assert s == Splitting([{0, 2}, {1}, {3, 4}])
    with pytest.raises(InputError):
        Splitting.from_json('"not a partition"')


# ---------------------------------------------------------------------------
# is_splitting


def test_is_splitting_cat4(catalogue):
    cat4 = catalogue["CAT4"].dset
    ok, witness = D.is_splitting(cat4, [{0, 1}, {2, 3}])
    assert ok and witness is None

    ok, witness = D.is_splitting(cat4, [{0, 2}, {1, 3}])
    assert not ok
    assert witness["kind"] == "separation_fails"
    a, b = witness["pair"]
    c, e = witness["other"]
    assert not cat4.holds(a, b, c, e)


def test_is_splitting_star4_singletons(catalogue):
    star4 = catalogue["STAR4"].dset
    ok, _ = O.splitting_ok(star4, [{0}, {1}, {2}, {3}])
    assert ok
    assert D.is_splitting(star4, [{0}, {1}, {2}, {3}])[0]


def test_is_splitting_requires_partition(catalogue):
    cat4 = catalogue["CAT4"].dset
    with pytest.raises(InputError):
        D.is_splitting(cat4, [{0, 1}, {1, 2, 3}])
    ok, witness = D.is_splitting(cat4, [{0, 1}, {2}])
    assert not ok and witness["kind"] == "ground_mismatch"


def test_is_splitting_agrees_with_oracle_exhaustively(catalogue):
    for name in ("CAT4", "FLW4", "CAT5"):
        d = catalogue[name].dset
        for cells in O.set_partitions(sorted(d.elements)):
            if len(cells) < 2:
                continue
            expected, _ = O.splitting_ok(d, cells)
            got, _ = D.is_splitting(d, [set(c) for c in cells])
            assert got == expected, (name, cells)


def _random_partition(rng, n, cells):
    labels = [rng.randrange(cells) for _ in range(n)]
    return [[e for e in range(n) if labels[e] == i] for i in set(labels)]


def _mutation_sweep():
    """(table, cells) pairs of at least two cells: random tables with random
    partitions, and seeded tree D-sets with random partitions, some of
    their splittings, those splittings with one element moved, and tables
    relating elements of four of their sectors."""
    rng = random.Random(23)
    for trial in range(300):
        if trial % 3 == 0:
            d = F.random_table(rng, rng.randint(5, 9))
            cases = [(d, _random_partition(rng, d.n, rng.randint(2, d.n))) for _ in range(3)]
        else:
            d = F.seeded_tree_dset(rng, rng.randint(5, 14))
            cases = [(d, _random_partition(rng, d.n, rng.randint(2, d.n))) for _ in range(2)]
            splittings = [s.as_sorted_lists() for s in D.enumerate_splittings(d, "tree")]
            wide = [cells for cells in splittings if len(cells) >= 4]
            for cells in rng.sample(wide, min(2, len(wide))):
                # relate one element from each of four sectors, a few times
                picks = [[rng.choice(c) for c in rng.sample(cells, 4)] for _ in range(4)]
                quads = {O.canon_oracle(*q) for q in picks}
                cases.append((DSet.build(d.n, sorted(d.positives | quads)), cells))
            for cells in rng.sample(splittings, 2):
                cases.append((d, cells))
                if len(cells) > 2:  # move one element to another sector
                    cells = [list(c) for c in cells]
                    src, dst = rng.sample(range(len(cells)), 2)
                    cells[dst].append(cells[src].pop())
                    cases.append((d, [c for c in cells if c]))
        yield from ((d, cells) for d, cells in cases if len(cells) >= 2)


def test_is_splitting_matches_scalar_loop():
    # Sector combinations come first: {0,5 | 2,3} is found before
    # {0,1 | 3,4}, although (0, 1, 3, 4) is the smaller id tuple.
    edges = [(0, 6), (2, 6), (3, 6), (4, 6), (7, 6), (1, 7), (5, 7)]
    star = D.LeafTree(range(8), edges, {e: e for e in range(6)})
    d = DSet.build(6, sorted(D.d_from_tree(star).positives | {(0, 5, 2, 3), (0, 1, 3, 4)}))
    expected = (False, {"kind": "four_sector_relation", "elements": [0, 5, 2, 3]})
    cells = [[0], [1, 5], [2], [3], [4]]
    assert D.is_splitting(d, cells) == expected
    assert O.splitting_witness_oracle(d, Splitting(cells).sectors) == expected
    kinds = {}
    for d, cells in _mutation_sweep():
        expected = O.splitting_witness_oracle(d, Splitting(cells).sectors)
        assert D.is_splitting(d, cells) == expected, (d, cells)
        kind = expected[1]["kind"] if expected[1] else "pass"
        kinds[kind] = kinds.get(kind, 0) + 1
    assert min(kinds.values()) > 20, kinds


# ---------------------------------------------------------------------------
# enumerate_splittings


def test_enumerate_cat4(catalogue):
    cat4 = catalogue["CAT4"].dset
    found = D.enumerate_splittings(cat4)
    assert len(found) == 7
    assert sum(1 for s in found if s.kind == "node") == 2
    assert sum(1 for s in found if s.kind == "edge") == 5
    assert _as_cellsets(found) == O.brute_splittings(cat4)


def test_enumerate_flw4(catalogue):
    flw4 = catalogue["FLW4"].dset
    expected = O.brute_splittings(flw4)
    assert _as_cellsets(D.enumerate_splittings(flw4, method="brute")) == expected
    assert _as_cellsets(D.enumerate_splittings(flw4, method="tree")) == expected
    # one all-singleton node splitting plus the four leaf cuts
    assert len(expected) == 5


def test_enumerate_two_element():
    d = DSet(2)
    found = D.enumerate_splittings(d)
    assert len(found) == 1
    assert found[0].as_sorted_lists() == [[0], [1]]


def test_brute_route_is_capped_at_ten_elements(monkeypatch):
    # Bell(11) partitions would take minutes; the cap refuses them at once.
    visited = []
    monkeypatch.setattr(D.splittings, "_brute_force_splittings", lambda d: visited.append(d.n) or [])
    for n in (10, 11, 16):
        d = D.d_from_tree(D.gen_random(D.TreeSpec("caterpillar", n, seed=n)))
        if n <= 10:
            assert D.enumerate_splittings(d, method="brute") == []
        else:
            with pytest.raises(InputError, match=f"capped at 10 elements, got {n}"):
                D.enumerate_splittings(d, method="brute")
    assert visited == [10]
    assert len(D.enumerate_splittings(D.d_from_tree(D.gen_random(D.TreeSpec("star", 11, seed=1))))) == 12


def test_enumerate_routes_agree(catalogue):
    for name in ("CAT5", "MIX", "CAT4E"):
        d = catalogue[name].dset
        brute = _as_cellsets(D.enumerate_splittings(d, method="brute"))
        tree = _as_cellsets(D.enumerate_splittings(d, method="tree"))
        assert brute == tree


def test_auto_route_equals_brute_force_on_every_small_dset():
    rng = random.Random("auto-route")
    checked = 0
    for leaves in range(1, 7):
        for t in D.enum_trees(leaves):
            d = D.d_from_tree(t)
            for _ in range(3):
                perm = list(range(leaves))
                rng.shuffle(perm)
                e = D.relabel(d, dict(enumerate(perm))).recolor([rng.randrange(2) for _ in range(leaves)])
                assert D.enumerate_splittings(e) == D.enumerate_splittings(e, method="brute")
                checked += 1
    assert checked == 3 * sum(len(list(D.enum_trees(k))) for k in range(1, 7))


def test_auto_route_brute_forces_small_tables_failing_core_axioms(monkeypatch):
    visited = []
    brute = D.splittings._brute_force_splittings
    monkeypatch.setattr(D.splittings, "_brute_force_splittings", lambda d: visited.append(d) or brute(d))
    rng = random.Random("auto-failing")
    tables = [F.random_table(rng, rng.randint(4, 6)) for _ in range(60)]
    tables = [d for d in tables if not D.check_axioms(d).core_pass]
    assert len(tables) > 20
    for d in tables:
        assert D.enumerate_splittings(d) == D.enumerate_splittings(d, method="brute")
    assert visited == [d for d in tables for _ in range(2)]
    # A D-set of as few elements takes the tree route.
    visited.clear()
    assert len(D.enumerate_splittings(D.gen_fixture("CAT5").dset)) == 10
    assert visited == []


def test_auto_route_refuses_larger_tables_failing_core_axioms():
    rng = random.Random("auto-seven")
    tables = [d for d in (F.random_table(rng, 7) for _ in range(10)) if not D.check_axioms(d).core_pass]
    assert tables
    for d in tables:
        with pytest.raises(D.NotRepresentable):
            D.enumerate_splittings(d)


def test_enumerate_keeps_tree_route_per_structure(catalogue, monkeypatch):
    d = DSet.from_json(catalogue["MIX"].dset.to_json())
    reads, walks = [], []
    read = dsets.trees._correspondence
    monkeypatch.setattr(dsets.trees, "_correspondence", lambda *record: reads.append(record) or read(*record))
    for module in (dsets.core, dsets.trees):  # the record is read as kept, never walked
        monkeypatch.setattr(module, "_walk", lambda *args: walks.append(args))
    first = D.enumerate_splittings(d, method="tree")
    expected = list(first)
    first.pop()
    second = D.enumerate_splittings(d, method="tree")
    assert second == expected and second is not first
    assert len(reads) == 1 and walks == []


def test_enumerate_rejects_unknown_method(catalogue):
    with pytest.raises(InputError):
        D.enumerate_splittings(catalogue["CAT4"].dset, method="magic")


# ---------------------------------------------------------------------------
# branch


def test_branch_examples(catalogue):
    assert D.branch(catalogue["CAT4"].dset, 2, 0, 1) == [3]
    assert D.branch(catalogue["STAR4"].dset, 0, 1, 2) == []
    assert D.branch(catalogue["CAT5"].dset, 4, 0, 1) == [2, 3]


def test_branch_requires_distinct(catalogue):
    with pytest.raises(InputError):
        D.branch(catalogue["CAT4"].dset, 0, 0, 1)


def _tree_and_random_structures():
    rng = random.Random("branch-complementary")
    for leaves in range(5, 15):
        yield F.seeded_tree_dset(rng, leaves)
    for n in (5, 6, 7, 8):
        yield F.random_table(rng, n)


def test_branch_and_complementary_match_holds_oracles():
    rng = random.Random(7)
    for d in _tree_and_random_structures():
        for a, b, c in rng.sample(list(itertools.permutations(range(d.n), 3)), 12):
            assert D.branch(d, a, b, c) == O.branch_oracle(d, a, b, c)
        splittings = D.enumerate_splittings(d) if D.check_axioms(d).core_pass else []
        for _ in range(6):
            cut = sorted(rng.sample(range(1, d.n), rng.randint(1, 3)))
            splittings.append(Splitting(
                [range(lo, hi) for lo, hi in zip([0] + cut, cut + [d.n])]))
        for s in splittings:
            for sector in s.sectors:
                for a in sector:
                    expected = O.complementary_oracle(d, s.sectors, sector, a)
                    if expected is None:
                        with pytest.raises(D.InvariantViolation):
                            D.complementary(d, s, sector, a)
                    else:
                        assert D.complementary(d, s, sector, a) == expected


@pytest.mark.parametrize("bad", (-1, 4, True, 1.0, 2.0))
def test_branch_and_complementary_reject_unknown_ids(catalogue, bad):
    # Table indexing would wrap -1, read True as a mask and fail on a float.
    d = catalogue["CAT4"].dset
    s = Splitting([{0, 1}, {2, 3}])
    message = "^element ids must be non-negative integers" if isinstance(bad, (bool, float)) else None
    with pytest.raises(InputError, match=message):
        D.branch(d, *((0, 1, bad) if bad == 2 else (bad, 2, 3)))
    with pytest.raises(InputError, match=message):
        D.complementary(d, s, {0, 1}, bad)
    if bad == 1:  # True and 1.0 would be read as the sector {0, 1}
        with pytest.raises(InputError, match=message):
            D.complementary(d, s, [0, bad], 0)
    if type(bad) is int:  # a sector holds ints; True would become 1 and 2.0 equal 2
        wide = Splitting([{0, 1}, {2, 3, bad}])
        with pytest.raises(InputError):
            D.complementary(d, wide, {0, 1}, 0)


# ---------------------------------------------------------------------------
# induced_splitting


def test_induced_cat4e(catalogue):
    d = catalogue["CAT4E"].dset
    got = D.induced_splitting(d, [0, 1, 2, 3], 4)
    assert got == Splitting([{0}, {1}, {2, 3}])


def test_induced_cat5(catalogue):
    got = D.induced_splitting(catalogue["CAT5"].dset, [0, 1, 2, 3], 4)
    assert got == Splitting([{0, 1, 2}, {3}])


def test_induced_flw4(catalogue):
    got = D.induced_splitting(catalogue["FLW4"].dset, [0, 1, 2], 3)
    assert got == Splitting([{0}, {1}, {2}])


def test_induced_refuses_a_grouping_that_is_not_transitive():
    # 1 is grouped with 0 and with 2, but 0 and 2 are not grouped together.
    d = DSet.build(5, [(0, 1, 2, 4), (0, 4, 1, 2)])
    message = re.escape("grouping induced by 4 is not an equivalence on [0, 1, 2]")
    with pytest.raises(InputError, match=f"^{message}$"):
        D.induced_splitting(d, [0, 1, 2], 4)


def test_induced_matches_scalar_oracle_on_random_tables():
    rng = random.Random(23)
    splits = refusals = 0
    for _ in range(12):
        d = F.random_table(rng, rng.randint(4, 7))
        table = O.dense_table(d).tolist()
        for e in range(d.n):
            rest = [a for a in range(d.n) if a != e]
            for size in range(2, len(rest) + 1):
                for subset in itertools.combinations(rest, size):
                    classes = O.induced_classes_oracle(table, subset, e)
                    if classes is not None and len(classes) > 1:
                        got = D.induced_splitting(d, subset, e)
                        assert set(got.sectors) == classes, (d, subset, e)
                        splits += 1
                    else:
                        with pytest.raises(InputError, match=f"^grouping induced by {e} "):
                            D.induced_splitting(d, subset, e)
                        refusals += 1
    assert splits > 100 and refusals > 100


def test_induced_requires_outside_element(catalogue):
    with pytest.raises(InputError):
        D.induced_splitting(catalogue["CAT4"].dset, [0, 1, 2], 2)


@pytest.mark.parametrize("bad", (1.7, 1.0, "1", True))
def test_subset_entry_points_reject_ids_that_are_not_integers(catalogue, bad):
    d = catalogue["CAT5"].dset
    s = Splitting([{0}, {1}, {2}])
    for call in (
        lambda: D.induced_splitting(d, [0, bad, 2], 3),
        lambda: D.induced_splitting(d, [0, 1, 2], bad),
        lambda: D.extend_splitting(d, [0, bad, 2], s),
        lambda: D.extend_splitting(d, [0, 1, 2], s, order=[bad, 4]),
    ):
        with pytest.raises(InputError, match="^element ids must be non-negative integers, got "):
            call()


# ---------------------------------------------------------------------------
# complementary


def test_complementary_cat6(catalogue):
    d = catalogue["CAT6"].dset
    s = Splitting([{0, 1, 2}, {3, 4}])
    assert D.complementary(d, s, {0, 1, 2}, 0) == 2
    # 1 genuinely fails: D(01;23) separates the pair 0,1 across the cut
    assert d.holds(0, 1, 2, 3)


def test_complementary_cat4(catalogue):
    d = catalogue["CAT4"].dset
    s = Splitting([{0, 1}, {2, 3}])
    assert D.complementary(d, s, {0, 1}, 0) == 1


def test_complementary_singleton_sector(catalogue):
    d = catalogue["FLW4"].dset
    s = Splitting([{0}, {1}, {2}, {3}])
    assert D.complementary(d, s, {0}, 0) == 0


def test_complementary_checks_membership(catalogue):
    d = catalogue["CAT4"].dset
    s = Splitting([{0, 1}, {2, 3}])
    with pytest.raises(InputError):
        D.complementary(d, s, {0, 1}, 2)


# ---------------------------------------------------------------------------
# extend_by_point


def test_extend_star3_all_singletons(catalogue):
    star3 = catalogue["FLW3"].dset
    out = D.extend_by_point(star3, Splitting([{0}, {1}, {2}]))
    assert out.n == 4
    assert out.positives == frozenset()


def test_extend_cat4_edge_matches_subdivided_tree(catalogue):
    out = D.extend_by_point(catalogue["CAT4"].dset, Splitting([{0, 1}, {2, 3}]))
    assert out.positives == catalogue["CAT4M"].dset.positives


def test_extend_cat4_node_matches_extra_leaf(catalogue):
    out = D.extend_by_point(
        catalogue["CAT4"].dset, Splitting([{0}, {1}, {2, 3}])
    )
    assert out.positives == catalogue["CAT4E"].dset.positives


def test_extend_induces_input_back(catalogue):
    d = catalogue["CAT5"].dset
    for s in D.enumerate_splittings(d):
        grown = D.extend_by_point(d, s)
        assert D.check_axioms(grown).core_pass
        assert D.induced_splitting(grown, range(d.n), d.n) == s


@pytest.mark.parametrize("leaves", (16, 20, 24))
def test_extend_induces_input_back_on_large_trees(leaves):
    rng = random.Random(leaves)
    d = F.seeded_tree_dset(rng, leaves)
    for s in rng.sample(D.enumerate_splittings(d), 3):
        grown = D.extend_by_point(d, s)
        assert D.check_axioms(grown).core_pass
        assert D.induced_splitting(grown, range(d.n), d.n) == s


def test_extend_rejects_input_failing_core_axioms():
    d = DSet.build(4, [(0, 1, 2, 3), (0, 2, 1, 3)])  # fails D2
    s = Splitting([{0}, {1, 2, 3}])
    assert D.is_splitting(d, s)[0]
    with pytest.raises(InputError, match="input fails D1..D4"):
        D.extend_by_point(d, s)


def test_extend_reads_the_tree_and_names_faults_as_before(catalogue):
    # A splitting of a D-set is a feature of its tree, so growing a structure
    # looks the feature up and builds no relation table: not on a tree-built
    # structure, on its relabelling or on a copy read from JSON.
    a = D.d_from_tree(D.gen_random(D.TreeSpec("d_regular_random", 16, 3, seed=16)))
    b = D.relabel(a, dict(enumerate(random.Random(62).sample(range(16), 16))))
    for d in (a, b, DSet.from_json(a.to_json())):
        for s in D.enumerate_splittings(d)[::4]:
            D.extend_by_point(d, s)
        assert "relation_table" not in d._analyses
    # A miss still names the fault with the splitting checks' messages.
    faults = (
        ([[0, 2], [1, 3, 4]], "{'kind': 'separation_fails', 'pair': [0, 2], 'other': [1, 3]}"),
        ([[0, 1], [2, 3, 4, 5]], "{'kind': 'ground_mismatch', 'expected': [0, 1, 2, 3, 4], 'got': [0, 1, 2, 3, 4, 5]}"),
        ([[0, 1, 2, 3, 4]], "{'kind': 'too_few_sectors', 'count': 1}"),
    )
    for sectors, witness in faults:
        with pytest.raises(InputError, match=f"^{re.escape(f'not a splitting of the input: {witness}')}$"):
            D.extend_by_point(catalogue["CAT5"].dset, sectors)
    # On a table failing D1..D4 the splitting is checked first, as before.
    with pytest.raises(InputError, match=re.escape("not a splitting of the input: {'kind': 'too_few_sectors'")):
        D.extend_by_point(DSet.build(4, [(0, 1, 2, 3), (0, 2, 1, 3)]), [[0, 1, 2, 3]])


# ---------------------------------------------------------------------------
# extend_splitting


def test_extend_splitting_new_singleton(catalogue):
    d = catalogue["CAT4E"].dset
    got = D.extend_splitting(d, {0, 1, 2, 3}, Splitting([{0}, {1}, {2, 3}]))
    assert got == Splitting([{0}, {1}, {2, 3}, {4}])


def test_extend_splitting_edge_default_policy(catalogue):
    d = catalogue["CAT4E"].dset
    got = D.extend_splitting(d, {0, 1, 2, 3}, Splitting([{0, 1}, {2, 3}]))
    assert got == Splitting([{0, 1, 4}, {2, 3}])


def test_extend_splitting_full_subset_identity(catalogue):
    d = catalogue["CAT4"].dset
    s = Splitting([{0, 1}, {2, 3}])
    assert D.extend_splitting(d, {0, 1, 2, 3}, s) == s


def test_extend_splitting_recovers_restricted_node(catalogue):
    # restricting the left node splitting of CAT5 to {0,1,2} loses the tail;
    # extension must rebuild it whichever way the tail is fed back in
    d = catalogue["CAT5"].dset
    full = Splitting([{0}, {1}, {2, 3, 4}])
    restricted = Splitting([{0}, {1}, {2}])
    for order in itertools.permutations([3, 4]):
        assert D.extend_splitting(d, {0, 1, 2}, restricted, order=order) == full


def test_extend_splitting_refuses_a_point_fitting_two_of_many_sectors():
    # With every quad of four elements positive, 3 fits each sector of the
    # singletons {0}, {1}, {2}: no D-set's splitting does that.
    d = DSet(4, [(0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)])
    with pytest.raises(InputError, match="^element 3 fits two sectors of a many-sector splitting$"):
        D.extend_splitting(d, [0, 1, 2], [[0], [1], [2]])


# ---------------------------------------------------------------------------
# one_sector


def test_one_sector_cat4(catalogue):
    d = catalogue["CAT4"].dset
    at_n1 = Splitting([{0}, {1}, {2, 3}])
    at_n2 = Splitting([{0, 1}, {2}, {3}])
    assert D.one_sector(d, at_n1, at_n2) == frozenset({0, 1})
    assert D.one_sector(d, at_n2, at_n1) == frozenset({2, 3})


def test_one_sector_refinement_case(catalogue):
    d = catalogue["FLW4"].dset
    node = Splitting([{0}, {1}, {2}, {3}])
    edge = Splitting([{0}, {1, 2, 3}])
    assert D.one_sector(d, node, edge) == frozenset({1, 2, 3})


def test_one_sector_requires_distinct(catalogue):
    s = Splitting([{0, 1}, {2, 3}])
    with pytest.raises(InputError):
        D.one_sector(catalogue["CAT4"].dset, s, s)


def test_one_sector_refuses_splittings_with_no_swallowing_sector(catalogue):
    # No sector of the edge {0,2 | 1,3,4} holds three of the four sectors.
    with pytest.raises(InputError, match="^expected exactly one swallowing sector, found 0$"):
        D.one_sector(catalogue["CAT5"].dset, [[0], [1], [2], [3, 4]], [[0, 2], [1, 3, 4]])


def test_raw_sectors_stand_for_their_splitting(catalogue):
    d = catalogue["CAT5"].dset
    cut, node = [[0, 1], [2, 3, 4]], [[0], [1], [2, 3, 4]]
    assert D.complementary(d, cut, [2, 3, 4], 2) == D.complementary(d, Splitting(cut), [2, 3, 4], 2) == 3
    assert D.one_sector(d, node, cut) == D.one_sector(d, Splitting(node), Splitting(cut)) == {0, 1}
    assert D.extend_by_point(d, cut) == D.extend_by_point(d, Splitting(cut))


# ---------------------------------------------------------------------------
# regularity, true edges, density


def test_is_regular(catalogue):
    assert D.is_regular(catalogue["CAT4"].dset) == (True, 3)
    assert D.is_regular(catalogue["FLW5"].dset) == (True, 5)
    assert D.is_regular(catalogue["MIX"].dset) == (False, None)


def test_true_edge_splitting(catalogue):
    cat4 = catalogue["CAT4"].dset
    assert not D.is_true_edge_splitting(cat4, [{0, 1}, {2, 3}])
    assert not D.is_true_edge_splitting(cat4, [{0}, {1, 2, 3}])
    # the node splitting at n1 refines the spine cut, so the cut is not true
    node = Splitting([{0}, {1}, {2, 3}])
    cut = Splitting([{0, 1}, {2, 3}])
    assert all(any(sec <= big for big in cut.sectors) for sec in node.sectors)


def test_true_edge_answers_a_tree_built_dset_without_a_table():
    # Every edge of a finite tree has a node splitting refining it, so a
    # D-set answers False without reading a quad.
    d = D.d_from_tree(D.gen_random(D.TreeSpec("d_regular_random", 64, 3, seed=1)))
    assert not any(D.is_true_edge_splitting(d, s) for s in D.enumerate_splittings(d))
    assert "relation_table" not in d._analyses


def _true_edge_oracle(brute, cells):
    """Whether cells are two sectors of at least two elements each, among the
    brute-force splittings, with no brute-force node splitting refining them."""
    p = Splitting(cells).sectors
    if p not in brute or len(p) != 2 or min(map(len, p)) < 2:
        return False
    return not any(len(o) > 2 and all(any(t <= sec for sec in p) for t in o) for o in brute)


def _true_edge_table():
    """A 6-element table failing D1..D4 whose splitting {0,1,2 | 3,4,5} is a
    true edge: D(01;23) and D(34;50) stop every partition refining it from
    being a splitting."""
    left, right = itertools.combinations(range(3), 2), list(itertools.combinations(range(3, 6), 2))
    halves = [a + b for a in left for b in right]
    return DSet.build(6, halves + [(0, 1, 2, 3), (3, 4, 5, 0)])


def test_true_edge_searches_small_tables_failing_core_axioms():
    true_edge = _true_edge_table()
    cases = [(true_edge, [[0, 1, 2], [3, 4, 5]])] + list(_mutation_sweep())
    verdicts = {True: 0, False: 0}
    for d, cells in cases:
        if d.n > 6 or D.check_axioms(d).core_pass:
            continue
        brute = [s.sectors for s in D.enumerate_splittings(d, method="brute")]
        for cand in [cells] + [[sorted(sec) for sec in p] for p in brute]:
            expected = _true_edge_oracle(brute, cand)
            assert D.is_true_edge_splitting(d, cand) == expected, (d, cand)
            verdicts[expected] += 1
    assert D.is_true_edge_splitting(true_edge, [[0, 1, 2], [3, 4, 5]])
    assert min(verdicts.values()) > 0, verdicts


def test_brute_route_filters_the_partitions_once_per_structure(monkeypatch):
    d, cut = _true_edge_table(), [[0, 1, 2], [3, 4, 5]]
    check, calls = D.splittings.is_splitting, []
    monkeypatch.setattr(D.splittings, "is_splitting", lambda e, cand: calls.append(cand) or check(e, cand))
    petaled = D.detect_petaled(d, 3)
    assert len(calls) == 202  # Bell(6) - 1 partitions into two or more sectors
    calls.clear()
    assert D.detect_petaled(d, 3) == petaled and calls == []
    assert D.is_true_edge_splitting(d, cut)
    calls.clear()
    assert D.is_true_edge_splitting(d, cut) and len(calls) == 1  # its own candidate check
    calls.clear()
    # recolor hands the kept list on; each call still returns a fresh list.
    tinted = d.recolor([e % 2 for e in range(d.n)])
    assert D.detect_petaled(tinted, 3) == petaled and calls == []
    brute = D.enumerate_splittings(tinted, method="brute")
    assert brute == D.enumerate_splittings(d) and brute is not D.enumerate_splittings(d) and calls == []


def test_true_edge_and_detect_refuse_larger_tables_failing_core_axioms():
    # A 7-leaf caterpillar's rows less D(01;23): {0,1,2,3,4 | 5,6} is still a
    # splitting, but only the tree route serves 7 elements, and it refuses.
    d = DSet.build(7, D.d_from_tree(D.gen_random(D.TreeSpec("caterpillar", 7))).rows.tolist()[1:])
    cut = [[0, 1, 2, 3, 4], [5, 6]]
    assert not D.check_axioms(d).core_pass and D.is_splitting(d, cut) == (True, None)
    refusal = re.escape(f"relation table fails D1..D4: {D.check_axioms(d).as_dict()}")
    with pytest.raises(D.NotRepresentable, match=f"^{refusal}$"):
        D.is_true_edge_splitting(d, cut)
    with pytest.raises(D.NotRepresentable, match=f"^{refusal}$"):
        D.detect_petaled(d, 3)


def test_true_edge_two_element_has_singletons():
    # both sectors of the unique 2-element splitting are singletons, which
    # the no-singleton reading rejects
    assert not D.is_true_edge_splitting(DSet(2), [{0}, {1}])


def test_density_witnesses_cat4(catalogue):
    assert D.density_witnesses(catalogue["CAT4"].dset, 0, 1, 2, 3) == []


def test_density_witnesses_cat5x(catalogue):
    d = catalogue["CAT5X"].dset
    expected = [
        v
        for v in range(d.n)
        if d.holds(v, 1, 3, 4)
        and d.holds(0, v, 3, 4)
        and d.holds(0, 1, v, 4)
        and d.holds(0, 1, 3, v)
    ]
    got = D.density_witnesses(d, 0, 1, 3, 4)
    assert got == expected
    assert 5 in got


def test_density_witnesses_degenerate_quad(catalogue):
    assert D.density_witnesses(catalogue["FLW4"].dset, 0, 0, 1, 2) == []


def test_density_witnesses_follow_d6_on_random_tables():
    # The least premise without a density witness is check_axioms' D6 witness.
    rng = random.Random(29)
    for _ in range(600):
        d = F.random_table(rng, rng.randint(4, 7))
        t = D.relation_table(d)
        bare = (q for q in itertools.product(range(d.n), repeat=4) if t[q] and not D.density_witnesses(d, *q))
        assert next(bare, None) == D.check_axioms(d).d6.witness, d.positives


def test_density_requires_premise(catalogue):
    with pytest.raises(InputError):
        D.density_witnesses(catalogue["FLW4"].dset, 0, 1, 2, 3)
