"""Generated fixture families for the hull, mutual-indiscernibility, and
non-extendability acceptance tests.

Trees are built here from scratch as caterpillar load lists so the
construction under test is not also the construction being tested: leaf
node ids equal element ids, internal spine nodes are numbered upward from
the element count.
"""

from __future__ import annotations

import itertools
import random

import dsets as D


def spine_tree(loads):
    """Caterpillar from a list of per-node element groups."""
    elems = [e for group in loads for e in group]
    base = len(elems)
    internal = list(range(base, base + len(loads)))
    edges = [(internal[i], internal[i + 1]) for i in range(len(loads) - 1)]
    for node, group in zip(internal, loads):
        edges.extend((node, e) for e in group)
    return D.LeafTree(internal + elems, edges, {e: e for e in elems})


def monotone_loads(length):
    """Window elements 0..length-1 in spine order, doubled-up ends."""
    if length < 5:
        raise ValueError("spine windows start at length 5")
    middle = [[i] for i in range(2, length - 2)]
    return [[0, 1]] + middle + [[length - 2, length - 1]]


def h3_instances(length):
    """Caterpillars with one extra leaf on a subdivided spine edge.

    The extra element sits strictly between two window positions with at
    least two window elements on each side, so its hull membership has
    interior witnesses.  Yields (dset, window, extra).
    """
    base = monotone_loads(length)
    for gap in range(len(base) - 1):
        loads = base[: gap + 1] + [[length]] + base[gap + 1 :]
        tree = spine_tree(loads)
        yield D.d_from_tree(tree), tuple(range(length)), length


def h2_instances(length):
    """Caterpillars with one extra leaf sharing a spine node.

    The extra element is indiscernible from its node-mate in any triple,
    which puts it in the hull with an interior witness at every spine
    position.  Yields (dset, window, extra).
    """
    base = monotone_loads(length)
    for pos in range(len(base)):
        loads = [list(group) for group in base]
        loads[pos].append(length)
        tree = spine_tree(loads)
        yield D.d_from_tree(tree), tuple(range(length)), length


def frontier_instances(length):
    """Caterpillars extended past one or both window ends.

    The window runs through singleton spine nodes on the extended side;
    a doubled group there would put the added pair into the hull instead
    (its node-mate kills every relation on the witness quadruple).  The
    added leaves land in the frontier, outside the hull.  Yields
    (dset, window, extras) with extras the added element ids.
    """
    left = (
        [[length, length + 1]]
        + [[i] for i in range(length - 2)]
        + [[length - 2, length - 1]]
    )
    right = [[0, 1]] + [[i] for i in range(2, length)] + [[length, length + 1]]
    both = (
        [[length, length + 1]]
        + [[i] for i in range(length)]
        + [[length + 2, length + 3]]
    )
    for loads, extras in (
        (left, (length, length + 1)),
        (right, (length, length + 1)),
        (both, (length, length + 1, length + 2, length + 3)),
    ):
        tree = spine_tree(loads)
        yield D.d_from_tree(tree), tuple(range(length)), extras


def window_pair(seed):
    """A seeded (dset, window, window) triple for the disjoint-hull test.

    Five layouts rotate with the seed: far-apart spine segments and twin
    flower arms tend to give mutually indiscernible pairs; interleaved,
    shared, and overlapping layouts tend not to.  The test only consumes
    the implication, so either outcome is informative.
    """
    rng = random.Random(seed)
    mode = seed % 5
    if mode == 0:
        span = rng.randrange(10, 13)
        loads = [[i] for i in range(span)]
        loads[0] = [0, span]
        loads[-1] = [span - 1, span + 1]
        tree = spine_tree(loads)
        s1 = tuple(range(5))
        s2 = tuple(range(span - 5, span))
    elif mode == 1:
        p = rng.randrange(5, 7)
        q = rng.randrange(5, 7)
        elems = list(range(p + q))
        base = len(elems)
        edges = [(base, base + 1)]
        edges += [(base, e) for e in elems[:p]]
        edges += [(base + 1, e) for e in elems[p:]]
        tree = D.LeafTree([base, base + 1] + elems, edges, {e: e for e in elems})
        s1 = tuple(elems[:5])
        s2 = tuple(elems[p : p + 5])
    elif mode == 2:
        span = 10 + (seed % 2)
        loads = [[i] for i in range(span)]
        loads[0] = [0, span]
        loads[-1] = [span - 1, span + 1]
        tree = spine_tree(loads)
        s1 = tuple(range(0, 10, 2))
        s2 = tuple(range(1, 10, 2))
    elif mode == 3:
        length = rng.randrange(5, 8)
        tree = spine_tree(monotone_loads(length))
        s1 = s2 = tuple(range(length))
    else:
        petals = rng.randrange(8, 11)
        tree = spine_tree([list(range(petals))])
        s1 = tuple(range(5))
        s2 = tuple(range(3, 8))
    return D.d_from_tree(tree), s1, s2


def starved_fixture(seed):
    """Caterpillar with one far-end element given a color of its own.

    Every sector on the other side misses that color, which forces the
    starved-sector witness construction.  Returns a colored DSet.
    """
    rng = random.Random(seed)
    wide_left = rng.randrange(2, 4)
    wide_right = rng.randrange(2, 4)
    middle = rng.randrange(0, 4)
    loads = [list(range(wide_left))]
    nxt = wide_left
    for _ in range(middle):
        loads.append([nxt])
        nxt += 1
    loads.append(list(range(nxt, nxt + wide_right)))
    if seed % 2:
        loads.reverse()
        loads = [sorted(g) for g in loads]
    tree = spine_tree([sorted(g) for g in loads])
    d = D.d_from_tree(tree)
    odd_one = loads[-1][-1]
    return d.recolor([1 if e == odd_one else 0 for e in range(d.n)])


def irregular_fixture(seed):
    """Uniformly colored tree with internal nodes of two different degrees,
    which forces the unequal-splitting witness construction."""
    rng = random.Random(seed)
    wide = rng.randrange(3, 6)
    loads = [[0, 1]]
    nxt = 2
    if seed % 2:
        loads.append([nxt])
        nxt += 1
    loads.append(list(range(nxt, nxt + wide)))
    return D.d_from_tree(spine_tree(loads))


def regular_fixture(seed):
    """Uniformly colored d-regular random tree; neither witness
    construction applies."""
    degree = 3 + seed % 2
    hubs = 1 + seed % 4
    leaves = hubs * (degree - 2) + 2
    spec = D.TreeSpec(kind="d_regular_random", leaves=leaves, degree=degree, seed=seed)
    return D.d_from_tree(D.gen_random(spec))


def seeded_tree_dset(rng, leaves, kind=None, degree=3):
    """D-set of a caterpillar, star or random `degree`-regular tree with the
    given leaf count, its element labels permuted by rng; rng picks the
    kind unless one is given."""
    kind = kind or rng.choice(("caterpillar", "star", "d_regular_random"))
    degree = degree if kind == "d_regular_random" else None
    tree = D.gen_random(D.TreeSpec(kind, leaves, degree, seed=rng.randrange(1000)))
    perm = list(range(leaves))
    rng.shuffle(perm)
    return D.relabel(D.d_from_tree(tree), dict(enumerate(perm)))


def renumbered_trees(seed):
    """Caterpillar, star and random 3- and 4-regular tree D-sets with 16,
    32 and 64 leaves, their labels permuted by a seeded rng."""
    rng = random.Random(seed)
    shapes = (("caterpillar", None), ("star", None), ("d_regular_random", 3), ("d_regular_random", 4))
    return [
        seeded_tree_dset(rng, leaves, kind, degree)
        for leaves in (16, 32, 64)
        for kind, degree in shapes
    ]


def random_table(rng, n):
    """A table on n elements with a random set of positive quads; at these
    densities it almost never passes D1..D4."""
    density = rng.choice((0.1, 0.3, 0.6))
    quads = [
        q
        for a, b, c, e in itertools.combinations(range(n), 4)
        for q in ((a, b, c, e), (a, c, b, e), (a, e, b, c))
        if rng.random() < density
    ]
    return D.DSet.build(n, quads)


def failing_tables(seed, count):
    """count seeded random tables on 5-8 elements that fail D1..D4, each
    with a window of 4 or 5 distinct elements, a subset of at least three
    elements and an element outside it: (dset, window, subset, element)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = random_table(rng, rng.randint(5, 8))
        if D.check_axioms(d).core_pass:
            continue
        window = rng.sample(range(d.n), rng.randint(4, 5))
        e, *subset = rng.sample(range(d.n), rng.randint(4, d.n))
        out.append((d, window, sorted(subset), e))
    return out
