"""Acceptance gate: one test per release criterion.

Each test gathers violations across its whole search space first, then
records a single pass/fail line for the run summary before asserting, so
the terminal report always shows the verdict for every criterion.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

import dsets as D
from dsets import SequenceWindow, Splitting, TreeSpec
from dsets.core import relation_table

import _families as F
import _oracles as O
from conftest import record_criterion


def _all_subsets(elems):
    for r in range(len(elems) + 1):
        yield from itertools.combinations(elems, r)


def _cellsets(splittings):
    return {frozenset(s.sectors) for s in splittings}


# ---------------------------------------------------------------------------
# 1. core axioms on tree-derived relations


def _random_tree_specs(count):
    specs = []
    for i in range(count):
        kind = ("caterpillar", "star", "d_regular_random", "d_regular_random")[i % 4]
        if kind == "d_regular_random" and i % 4 == 3:
            spec = TreeSpec(kind, leaves=10 + 2 * (i % 2), degree=4, seed=i)
        elif kind == "d_regular_random":
            spec = TreeSpec(kind, leaves=9 + i % 4, degree=3, seed=i)
        else:
            spec = TreeSpec(kind, leaves=9 + i % 4, seed=i)
        specs.append(spec)
    return specs


def test_criterion_1_tree_relations_pass_core_axioms(trees_by_k):
    bad = []
    checked = 0
    for k, trees in trees_by_k.items():
        for t in trees:
            checked += 1
            if not D.check_axioms(D.d_from_tree(t)).core_pass:
                bad.append(f"enumerated {k}-leaf tree")
    for spec in _random_tree_specs(200):
        checked += 1
        if not D.check_axioms(D.d_from_tree(D.gen_random(spec))).core_pass:
            bad.append(f"{spec.kind} seed {spec.seed}")
    record_criterion(
        1, "tree-derived relations satisfy the core axioms", not bad,
        f"{checked} trees",
    )
    assert not bad, bad[:5]


# ---------------------------------------------------------------------------
# 2. reconstruction round trip


def test_criterion_2_reconstruction_round_trip(trees_by_k):
    bad = []
    checked = 0
    for k in range(1, 8):
        for t in trees_by_k[k]:
            checked += 1
            d = D.d_from_tree(t)
            rebuilt = D.tree_from_dset(d)
            if not D.are_isomorphic_trees(rebuilt, t):
                bad.append(f"{k}-leaf shape mismatch")
                continue
            if D.d_from_tree(rebuilt).positives != d.positives:
                bad.append(f"{k}-leaf relation drift")
    record_criterion(
        2, "tree reconstruction round-trips", not bad, f"{checked} trees"
    )
    assert not bad, bad[:5]


# ---------------------------------------------------------------------------
# 3. splittings match tree features


def test_criterion_3_splitting_correspondence(trees_by_k):
    bad = []
    checked = 0
    for k in range(1, 7):
        for t in trees_by_k[k]:
            checked += 1
            d = D.d_from_tree(t)
            corr = D.splittings_from_tree(t)
            if len(corr.node_splittings) != len(t.internal_nodes()):
                bad.append(f"{k}-leaf node count")
            if len(corr.edge_splittings) != len(t.edges):
                bad.append(f"{k}-leaf edge count")
            read_off = {frozenset(s.sectors) for s in corr.all_splittings()}
            if len(read_off) != len(corr.all_splittings()):
                bad.append(f"{k}-leaf feature collision")
            brute = O.brute_splittings(d)
            if read_off != brute:
                bad.append(f"{k}-leaf read-off vs brute")
            if _cellsets(D.enumerate_splittings(d)) != brute:
                bad.append(f"{k}-leaf enumerate vs brute")
    record_criterion(
        3, "splittings are exactly the tree nodes and edges", not bad,
        f"{checked} trees",
    )
    assert not bad, bad[:5]


# ---------------------------------------------------------------------------
# 4. one-point extension


def test_criterion_4_extension_induces_input(trees_by_k):
    bad = []
    checked = 0
    for k in range(1, 7):
        for t in trees_by_k[k]:
            d = D.d_from_tree(t)
            for s in D.enumerate_splittings(d):
                checked += 1
                grown = D.extend_by_point(d, s)
                if not D.check_axioms(grown).core_pass:
                    bad.append(f"{k}-leaf axiom break")
                    continue
                if D.induced_splitting(grown, range(d.n), d.n) != s:
                    bad.append(f"{k}-leaf induced mismatch")
    record_criterion(
        4, "one-point extension induces its splitting back", not bad,
        f"{checked} extensions",
    )
    assert not bad, bad[:5]


# ---------------------------------------------------------------------------
# 5. lemma battery


def _battery_transitivity(d, table, out):
    n = d.n
    for a in range(n):
        for b in range(n):
            m = table[a, b].astype(int)
            reachable = (m @ m) > 0
            if (reachable & ~table[a, b]).any():
                out.append(f"transitivity n={n}")
                return


def _battery_node_sectors(splittings, out):
    nodes = [s for s in splittings if s.kind == "node"]
    for s1, s2 in itertools.combinations(nodes, 2):
        if set(s1.sectors) & set(s2.sectors):
            out.append("shared node sector")


def _battery_sector_pairs(d, splittings, out):
    ground = d.elements
    for s1, s2 in itertools.combinations_with_replacement(splittings, 2):
        for x in s1.sectors:
            for y in s2.sectors:
                if not (x <= y or y <= x or not (x & y) or (x | y) == ground):
                    out.append(f"incomparable sectors n={d.n}")
                    return


def _battery_avoiding_sector(d, splittings, out):
    if d.n < 2:
        return
    for c in sorted(d.elements):
        holding = [sec for s in splittings for sec in s.sectors if c in sec]
        if any(len(sec) == 1 for sec in holding):
            continue
        rest = sorted(d.elements - {c})
        for a in _all_subsets(rest):
            if not any(sec.isdisjoint(a) for sec in holding):
                out.append(f"no avoiding sector n={d.n} c={c}")
                return


def _battery_one_sector(d, splittings, out):
    for c1, c2 in itertools.permutations(splittings, 2):
        qualifying = [
            y
            for y in c2.sectors
            if sum(1 for x in c1.sectors if x <= y) >= len(c1.sectors) - 1
        ]
        if len(qualifying) != 1:
            out.append(f"one-sector count {len(qualifying)} n={d.n}")
            continue
        if D.one_sector(d, c1, c2) != qualifying[0]:
            out.append(f"one-sector value n={d.n}")
        if D.one_sector(d, c1, c2) | D.one_sector(d, c2, c1) != d.elements:
            out.append(f"one-sector union n={d.n}")


def _battery_sector_indifference(d, table, splittings, out):
    elems = sorted(d.elements)
    for s in splittings:
        for a in _all_subsets(elems):
            if not a:
                continue
            covered = frozenset().union(*(sec for sec in s.sectors if sec & set(a)))
            outside = sorted(d.elements - covered)
            if len(outside) < 2:
                continue
            rows = table[np.ix_(outside, a, a, a)].reshape(len(outside), -1)
            if not (rows == rows[0]).all():
                out.append(f"sector indifference n={d.n}")
                return


def _battery_qftp(d, table, rng, out):
    elems = sorted(d.elements)
    for a in _all_subsets(elems):
        if len(a) < 3:
            continue
        for e in d.elements - set(a):
            qb = D.qftp_base(d, a, e)
            triples = list(itertools.product(a, repeat=3))
            if len(triples) > 125:
                triples = rng.sample(triples, 60)
            for x, y, z in triples:
                if qb.predict(x, y, z) != bool(table[e, x, y, z]):
                    out.append(f"qftp prediction n={d.n}")
                    return


def _battery_extend_order(d, splittings, rng, out):
    elems = sorted(d.elements)
    for s in splittings:
        if s.kind != "node":
            continue
        candidates = [tuple(e for e in elems if e != drop) for drop in elems]
        if d.n > 4:
            for _ in range(4):
                size = rng.randrange(3, d.n)
                candidates.append(tuple(sorted(rng.sample(elems, size))))
        for a in candidates:
            met = sum(1 for sec in s.sectors if sec & set(a))
            if met < 3 or len(a) == d.n:
                continue
            restricted = Splitting(
                [sec & set(a) for sec in s.sectors if sec & set(a)]
            )
            missing = [e for e in elems if e not in a]
            if len(missing) <= 3:
                orders = list(itertools.permutations(missing))
            else:
                orders = []
                for _ in range(6):
                    shuffled = missing[:]
                    rng.shuffle(shuffled)
                    orders.append(tuple(shuffled))
            for order in orders:
                got = D.extend_splitting(d, a, restricted, order=order)
                if got != s:
                    out.append(f"extend order n={d.n}")
                    return


def test_criterion_5_lemma_battery(trees_by_k):
    bad = []
    checked = 0
    rng = random.Random(20260822)
    for k in range(1, 8):
        for t in trees_by_k[k]:
            checked += 1
            d = D.d_from_tree(t)
            table = relation_table(d)
            splittings = D.enumerate_splittings(d)
            _battery_transitivity(d, table, bad)
            _battery_node_sectors(splittings, bad)
            _battery_sector_pairs(d, splittings, bad)
            _battery_avoiding_sector(d, splittings, bad)
            _battery_one_sector(d, splittings, bad)
            _battery_sector_indifference(d, table, splittings, bad)
            _battery_qftp(d, table, rng, bad)
            _battery_extend_order(d, splittings, rng, bad)
    record_criterion(
        5, "splitting and type lemma battery", not bad, f"{checked} structures"
    )
    assert not bad, bad[:8]


# ---------------------------------------------------------------------------
# 6. window trichotomy


def test_criterion_6_window_trichotomy(trees_by_k):
    bad = []
    checked = 0
    for k in range(5, 9):
        for t in trees_by_k[k]:
            d = D.d_from_tree(t)
            elems = sorted(d.elements)
            for window in itertools.permutations(elems, 5):
                checked += 1
                invariant, _ = O.order_invariant(d, window)
                got = D.classify_window(d, SequenceWindow([(e,) for e in window]))
                if invariant:
                    if got.label not in ("petaled", "monotonic"):
                        bad.append(f"{got.label} on invariant window n={d.n}")
                else:
                    if got.label != "not_indiscernible" or got.witness is None:
                        bad.append(f"missing witness n={d.n}")
                if len(bad) > 8:
                    record_criterion(6, "window trichotomy", False, "aborted")
                    assert not bad, bad[:8]
    record_criterion(
        6,
        "order-invariant windows are petaled or monotonic, others witnessed",
        not bad,
        f"{checked} windows",
    )
    assert not bad, bad[:8]


# ---------------------------------------------------------------------------
# 7. hull membership governs weak indiscernibility


def test_criterion_7_hull_families():
    bad = []
    checked = 0
    for length in range(5, 9):
        for d, window, extra in F.h3_instances(length):
            checked += 1
            seq = SequenceWindow([(e,) for e in window])
            col = D.hull_window(d, seq).columns[0]
            if extra not in col.h3 or extra not in col.hull:
                bad.append(f"h3 membership len={length}")
            if D.weakly_indiscernible_over(d, seq, [extra])[0]:
                bad.append(f"h3 indiscernible len={length}")
        for d, window, extra in F.h2_instances(length):
            checked += 1
            seq = SequenceWindow([(e,) for e in window])
            col = D.hull_window(d, seq).columns[0]
            if extra not in col.h2 or extra not in col.hull:
                bad.append(f"h2 membership len={length}")
            if D.weakly_indiscernible_over(d, seq, [extra])[0]:
                bad.append(f"h2 indiscernible len={length}")
        for d, window, extras in F.frontier_instances(length):
            checked += 1
            seq = SequenceWindow([(e,) for e in window])
            result = D.hull_window(d, seq)
            left, right = D.frontiers(d, seq)
            if set(extras) & result.hull:
                bad.append(f"frontier absorbed len={length}")
            if not set(extras) <= set(left | right):
                bad.append(f"frontier missing len={length}")
            for b in extras:
                if not D.weakly_indiscernible_over(d, seq, [b])[0]:
                    bad.append(f"frontier discernible len={length}")
            if not D.weakly_indiscernible_over(d, seq, extras)[0]:
                bad.append(f"frontier joint len={length}")
    record_criterion(
        7,
        "hull membership decides weak indiscernibility on attachment families",
        not bad,
        f"{checked} instances",
    )
    assert not bad, bad[:8]


# ---------------------------------------------------------------------------
# 8. mutual indiscernibility implies disjoint hulls


def test_criterion_8_disjoint_hulls():
    bad = []
    mutual = 0
    for seed in range(100):
        d, w1, w2 = F.window_pair(seed)
        s1 = SequenceWindow([(e,) for e in w1])
        s2 = SequenceWindow([(e,) for e in w2])
        ok, _ = D.mutually_indiscernible(d, s1, s2)
        if not ok:
            continue
        mutual += 1
        if D.hull_window(d, s1).hull & D.hull_window(d, s2).hull:
            bad.append(f"overlap at seed {seed}")
    if mutual < 20:
        bad.append(f"only {mutual} mutual pairs; sample uninformative")
    record_criterion(
        8,
        "mutually indiscernible windows have disjoint hulls",
        not bad,
        f"{mutual}/100 pairs mutual",
    )
    assert not bad, bad[:8]


# ---------------------------------------------------------------------------
# 9. non-extendability witnesses


def _brute_stuck(d, m, stuck):
    taken = set(m.values())
    for y in sorted(d.elements - taken):
        ok, _ = D.check_partial_iso(d, d, {**m, stuck: y})
        if ok:
            return False
    return True


def test_criterion_9_nonextendable_witnesses():
    bad = []
    for seed in range(50):
        d = F.starved_fixture(seed)
        result = D.nonextendable_witness(d)
        if result is None:
            bad.append(f"starved {seed}: none")
            continue
        m, stuck = result
        if stuck in m or not D.check_partial_iso(d, d, m)[0]:
            bad.append(f"starved {seed}: invalid map")
        elif not _brute_stuck(d, m, stuck):
            bad.append(f"starved {seed}: extendable")
    for seed in range(20):
        d = F.irregular_fixture(seed)
        result = D.nonextendable_witness(d)
        if result is None:
            bad.append(f"irregular {seed}: none")
            continue
        m, stuck = result
        if stuck in m or not D.check_partial_iso(d, d, m)[0]:
            bad.append(f"irregular {seed}: invalid map")
        elif not _brute_stuck(d, m, stuck):
            bad.append(f"irregular {seed}: extendable")
    for seed in range(50):
        if D.nonextendable_witness(F.regular_fixture(seed)) is not None:
            bad.append(f"regular {seed}: spurious witness")
    record_criterion(
        9,
        "non-extendability witnesses verify, absent on uniform regular input",
        not bad,
        "50 starved + 20 irregular + 50 regular",
    )
    assert not bad, bad[:8]
