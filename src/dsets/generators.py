"""Named fixtures, exhaustive tree enumeration, and seeded families.

Everything here is deterministic: fixtures have stable ids (leaf node ids
equal element ids, internal ids counted upward from the element count),
enumeration emits one representative per isomorphism class, relabelled in
flat code order (`core._coded`), and random kinds are pure functions of a seed.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from typing import Iterator, Optional

from ._gates import InputError, _flag, _natural
from .core import DSet, _coded, _require_dset
from .splittings import enumerate_splittings
from .trees import LeafTree, _graft, canonical_form, d_from_tree

ENUM_LEAF_CAP = 8


@dataclass(frozen=True)
class Fixture:
    """A named tree together with its leaf relation."""

    name: str
    tree: LeafTree
    dset: DSet
    description: str


def _loaded_tree(links: list[tuple[int, int]], loads: list[list[int]]) -> LeafTree:
    """The tree whose internal nodes i, j are joined for each (i, j) in links
    and where internal node i carries the elements loads[i].  Element e is
    node e, and internal node i is node n + i for n elements in all."""
    n = sum(map(len, loads))
    edges = [(n + u, n + v) for u, v in links]
    edges += [(e, n + i) for i, group in enumerate(loads) for e in group]
    return LeafTree(range(n + len(loads)), edges, {e: e for e in range(n)})


def _spine(loads: list[list[int]]) -> LeafTree:
    """Caterpillar-style tree: internal nodes on a path, a star for one load."""
    return _loaded_tree([(i, i + 1) for i in range(len(loads) - 1)], loads)


# Name -> (the loads of a spine tree; description).
_CATALOGUE: dict[str, tuple[list[list[int]], str]] = {
    "STAR4": ([[0, 1, 2, 3]], "star with 4 leaves"),
    "CAT4": ([[0, 1], [2, 3]], "two spine nodes, two leaves each"),
    "CAT4E": ([[0, 1, 4], [2, 3]], "CAT4 plus a fifth leaf on the first spine node"),
    "CAT4M": ([[0, 1], [4], [2, 3]], "CAT4 with the spine edge subdivided, new node carrying a leaf"),
    "CAT5": ([[0, 1], [2], [3, 4]], "three spine nodes carrying 2+1+2 leaves"),
    "CAT5X": ([[0, 1], [5], [2], [3, 4]], "CAT5 with a subdividing node carrying leaf x=5"),
    "CAT5Y": ([[0, 1, 5], [2], [3, 4]], "CAT5 with an extra leaf y=5 on the first spine node"),
    # A node before the spine carries y1=5, y2=6; each a_i sits one step
    # further right, so every sector reaching {y1, y2} meets the window in
    # an initial segment.
    "CAT5L": ([[5, 6], [0], [1], [2], [3, 4]], "caterpillar with a two-leaf node past the left end"),
    "CAT5R": ([[0, 1], [2], [3], [4], [5, 6]], "caterpillar with a two-leaf node past the right end"),
    "CAT6": ([[0, 1], [2], [3, 4]], "letter-named 2+1+2 caterpillar"),
    # One degree-3 and one degree-4 internal node, so node splittings of
    # different sizes coexist and regularity fails.
    "MIX": ([[0, 1], [2, 3, 4]], "degree-3 and degree-4 spine nodes side by side"),
}

_FLW_RE = re.compile(r"^FLW(\d+)$")


def fixture_names() -> list[str]:
    return sorted(_CATALOGUE) + ["FLWk (k >= 3)"]


def gen_fixture(name: str) -> Fixture:
    """Look up a named fixture; FLWk builds a k-leaf star on demand."""
    tree, description = _fixture_tree(name)
    return Fixture(name, tree, d_from_tree(tree), description)


def _fixture_tree(name: str) -> tuple[LeafTree, str]:
    """A named fixture's tree and description, building no relation."""
    if not isinstance(name, str):
        raise InputError(f"fixture names are strings, got {name!r}")
    m = _FLW_RE.match(name)
    if m:
        k = int(m.group(1))
        if k < 3:
            raise InputError("a flower needs at least 3 leaves")
        if k > 64:
            raise InputError("flower size capped at 64")
        return _spine([list(range(k))]), f"star with {k} leaves"
    if name not in _CATALOGUE:
        known = ", ".join(fixture_names())
        raise InputError(f"unknown fixture {name!r}; known: {known}")
    loads, description = _CATALOGUE[name]
    return _spine(loads), description


# _SHAPES[k]: one canonically relabelled tree per shape with k leaves, in
# shape-code order; grown one leaf count at a time and kept.
_SHAPES: list[tuple[LeafTree, ...]] = [
    (),
    (LeafTree([0], [], {0: 0}),),
    (LeafTree([0, 1], [(0, 1)], {0: 0, 1: 1}),),
]


def _shapes(leaves: int) -> tuple[LeafTree, ...]:
    while len(_SHAPES) <= leaves:
        found: dict[tuple, LeafTree] = {}
        for smaller in _SHAPES[-1]:
            # Every way to add one leaf: widen an internal node or split an edge.
            for feature in smaller.internal_nodes() + list(smaller.edges):
                candidate = _graft(smaller, feature)
                found.setdefault(canonical_form(candidate, [0] * candidate.n_elements), candidate)
        _SHAPES.append(tuple(_canonical_relabel(found[key]) for key in sorted(found)))
    return _SHAPES[leaves]


def enum_trees(leaves: int, allow_large: bool = False) -> Iterator[LeafTree]:
    """One canonically labeled tree per isomorphism class with that many leaves.

    Internal nodes all have degree at least three, so the count grows fast;
    past 8 leaves the cap must be lifted explicitly.
    """
    if _natural(leaves, "'leaves' must be a non-negative integer, got {!r}") < 1:
        raise InputError("leaf count must be positive")
    if not _flag(allow_large, "allow_large") and leaves > ENUM_LEAF_CAP:
        raise InputError(f"enumeration beyond {ENUM_LEAF_CAP} leaves needs allow_large=True")
    yield from _shapes(leaves)


def _canonical_relabel(t: LeafTree) -> LeafTree:
    """Rename nodes by a center-rooted canonical traversal.

    Leaves take 0..k-1 in visit order and double as their own node ids;
    internal nodes continue from k.
    """
    adj, labeled = t.adjacency(), set(t.leaf_map())
    root, parent, rank, _, code = _coded(adj, {u: ("leaf",) if u in labeled else ("node",) for u in adj})

    next_leaf, next_internal = itertools.count(0), itertools.count(t.n_elements)
    mapping: dict[int, int] = {}
    stack = [root]  # preorder: each node's children in (code, id) order
    while stack:
        u = stack.pop()
        mapping[u] = next(next_leaf) if u in labeled else next(next_internal)
        stack += sorted((v for v in adj[u] if v != parent[u]), key=lambda v: (code(rank[v]), v), reverse=True)
    return LeafTree(
        sorted(mapping.values()),
        [(mapping[u], mapping[v]) for u, v in t.edges],
        {mapping[u]: mapping[u] for u in labeled},
    )


@dataclass(frozen=True)
class TreeSpec:
    """Parameters of one generated tree."""

    kind: str
    leaves: int
    degree: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in ("star", "caterpillar", "d_regular_random", "enumerated"):
            raise InputError(f"unknown tree kind {self.kind!r}")
        if _natural(self.leaves, "'leaves' must be a non-negative integer, got {!r}") < 1:
            raise InputError("leaf count must be positive")
        if self.degree is not None:
            _natural(self.degree, "'degree' must be a non-negative integer, got {!r}")
        _natural(self.seed, "'seed' must be an integer, got {!r}", low=None)


def _caterpillar(leaves: int) -> LeafTree:
    if leaves == 3:
        return _spine([[0, 1, 2]])
    return _spine([[0, 1]] + [[i + 1] for i in range(1, leaves - 3)] + [[leaves - 2, leaves - 1]])


def _d_regular(leaves: int, degree: int, rng: random.Random) -> LeafTree:
    if degree < 3:
        raise InputError("regular degree must be at least 3")
    if leaves < degree or (leaves - 2) % (degree - 2) != 0:
        raise InputError(f"no {degree}-regular tree exists with {leaves} leaves")
    j = (leaves - 2) // (degree - 2)
    # Random internal skeleton, capped at the target degree; node u then
    # carries the next degree - deg[u] elements.
    deg = [0] * j
    skeleton: list[tuple[int, int]] = []
    for i in range(1, j):
        parent = rng.choice([u for u in range(i) if deg[u] < degree])
        skeleton.append((parent, i))
        deg[parent] += 1
        deg[i] += 1
    ends = itertools.accumulate(degree - k for k in deg)
    return _loaded_tree(skeleton, [list(range(end - degree + k, end)) for k, end in zip(deg, ends)])


def gen_random(spec: TreeSpec) -> LeafTree:
    """Build the tree a spec describes, deterministically under its seed."""
    if not isinstance(spec, TreeSpec):
        raise InputError(f"expected a TreeSpec, got {spec!r}")
    rng = random.Random(int(spec.seed))
    if spec.kind == "star":
        if spec.leaves < 3:
            raise InputError("a star needs at least 3 leaves")
        return _spine([list(range(spec.leaves))])
    if spec.kind == "caterpillar":
        if spec.leaves < 3:
            raise InputError("a caterpillar needs at least 3 leaves")
        return _caterpillar(spec.leaves)
    if spec.kind == "d_regular_random":
        if spec.degree is None:
            raise InputError("d_regular_random needs a degree")
        return _d_regular(spec.leaves, spec.degree, rng)
    shapes = list(enum_trees(spec.leaves))
    return shapes[rng.randrange(len(shapes))]


def color_uniform(d: DSet) -> DSet:
    _require_dset(d)
    return d.recolor([0] * d.n)


def color_round_robin(d: DSet, n_colors: int) -> DSet:
    _require_dset(d)
    if _natural(n_colors, "'n_colors' must be a non-negative integer, got {!r}") < 1:
        raise InputError("need at least one color")
    return d.recolor([i % n_colors for i in range(d.n)])


def color_sector_avoiding(d: DSet) -> DSet:
    """Two-coloring that starves one whole sector of color 1.

    The first non-singleton sector of the canonically first splitting is
    painted 0 throughout, the least element outside it becomes the only
    color-1 element; a homogeneity color-hitting check then fails at that
    sector.
    """
    _require_dset(d)
    if d.n < 2:
        raise InputError("nothing to starve in a one-element D-set")
    for splitting in enumerate_splittings(d):
        for sec in splitting.sectors:
            if len(sec) < 2:
                continue
            colors = [0] * d.n
            colors[min(d.elements - sec)] = 1
            return d.recolor(colors)
    raise InputError("no splitting offers a sector worth starving")
