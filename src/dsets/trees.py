"""Trees whose leaves carry D-set elements.

Finite D-sets satisfying D1..D4 are exactly the leaf systems of finite
trees in which every internal node has degree at least three.  This module
holds the tree type, the two directions of that correspondence, and the
Splitting type with the splittings read off from internal nodes and edges.

Every traversal is core's breadth-first walk, `_walk`: connectivity, the
canonical forms (`core._coded`), and `core._below`, the elements below
each node from element 0's leaf, which `core._record` numbers.  d_from_tree
keeps that record on its result and reads the relation off its leaf
distances, on a grid of leaf pairs in lexicographic order, so its rows
come out canonical and sorted.  The tree of a D-set is the rebuild
that certifies D1..D4; `_correspondence` reads splittings off its record
through one sector layout, in which each sector is a side of an edge.

Outside input always takes the checking constructors, `LeafTree(...)`,
`Splitting(...)` and their `from_json`.  `_trusted` on each class stores
parts already normalised (sorted tuples; frozensets of ints ordered by least
element) and checks nothing: only parts built from a certified rebuild, a
tree or ids `_require_ids` has checked may take it.  A tree argument that is
no LeafTree is refused by one check, `_require_tree`; `_gates` holds the
input checks that need no class of the package (JSON, collections, numbers).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np

from ._gates import InputError, _DECIMAL, _decoded, _flag, _listed, _natural, _refused
from .core import DSet, NotRepresentable, _adjacency, _below, _kept, _record, _require_ids
from .core import _coded, _tree_record, _walk, check_axioms


@dataclass(frozen=True)
class LeafTree:
    """Finite tree with element ids on its leaves.

    nodes and edges are stored sorted, edges as (min, max) pairs.  leaves
    maps node id to element id; labeled nodes must have degree <= 1,
    unlabeled nodes degree >= 3, and the labels must be exactly 0..k-1 for
    k leaves.  Ids are integers, bools excluded; node ids may be negative.
    Everything is validated at construction, except through _trusted.
    """

    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    leaves: tuple[tuple[int, int], ...]  # (node id, element id), sorted by node

    def __init__(
        self,
        nodes: Iterable[int],
        edges: Iterable[tuple[int, int]],
        leaves: Mapping[int, int] | Iterable[tuple[int, int]],
    ) -> None:
        with _refused("tree nodes, edges and leaves must be collections"):
            nodes, edges = list(nodes), [tuple(e) for e in edges]
            leaf_items = [tuple(p) for p in (leaves.items() if isinstance(leaves, Mapping) else leaves)]
        for v in itertools.chain(nodes, *edges, *leaf_items):
            if type(v) is not int:  # plain ints, nearly every id, pass at once
                _natural(v, "tree ids must be integers, got {!r}", low=None)
        if any(len(pair) != 2 for pair in itertools.chain(edges, leaf_items)):
            raise InputError("tree edges and leaves must be pairs of ids")
        node_tuple = tuple(sorted(set(map(int, nodes))))
        edge_set = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise InputError(f"self-loop at node {u}")
            edge_set.add((min(u, v), max(u, v)))
        leaf_tuple = tuple(sorted((int(a), int(b)) for a, b in leaf_items))
        vars(self).update(nodes=node_tuple, edges=tuple(sorted(edge_set)), leaves=leaf_tuple)
        self._validate()

    @classmethod
    def _trusted(cls, nodes: tuple, edges: tuple, leaves: tuple) -> "LeafTree":
        """The tree of these parts as given, unchecked (see the module docstring)."""
        t = object.__new__(cls)
        vars(t).update(nodes=nodes, edges=edges, leaves=leaves)
        return t

    def _validate(self) -> None:
        node_set = set(self.nodes)
        for u, v in self.edges:
            if u not in node_set or v not in node_set:
                raise InputError(f"edge ({u},{v}) mentions an unknown node")
        if len(self.edges) != max(0, len(self.nodes) - 1):
            raise InputError("a tree on k nodes needs exactly k-1 edges")
        adj = self.adjacency()
        if self.nodes and len(_walk(adj, self.nodes[0])[0]) != len(self.nodes):
            raise InputError("tree is not connected")
        labeled = [u for u, _ in self.leaves]
        label_set = set(labeled)
        if len(label_set) != len(labeled):
            raise InputError("a node may carry at most one element label")
        for u in labeled:
            if u not in node_set:
                raise InputError(f"label on unknown node {u}")
        elems = sorted(e for _, e in self.leaves)
        if elems != list(range(len(elems))):
            raise InputError("leaf labels must be exactly 0..k-1")
        for u in self.nodes:
            if u in label_set:
                if len(adj[u]) > 1:
                    raise InputError(f"labeled node {u} has degree {len(adj[u])}")
            elif len(adj[u]) < 3:
                raise InputError(f"internal node {u} has degree {len(adj[u])} < 3")

    def adjacency(self) -> dict[int, list[int]]:
        """Each node's neighbours, sorted, since the edges are."""
        return _adjacency(self.nodes, self.edges)

    def degrees(self) -> dict[int, int]:
        return {u: len(vs) for u, vs in self.adjacency().items()}

    def leaf_map(self) -> dict[int, int]:
        """Node id -> element id."""
        return dict(self.leaves)

    @property
    def n_elements(self) -> int:
        return len(self.leaves)

    def internal_nodes(self) -> list[int]:
        labeled = {u for u, _ in self.leaves}
        return [u for u in self.nodes if u not in labeled]

    def to_json(self) -> str:
        payload = {
            "nodes": list(self.nodes),
            "edges": [list(e) for e in self.edges],
            "leaves": {str(u): e for u, e in self.leaves},
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "LeafTree":
        payload = _decoded(text)
        if not isinstance(payload, dict):
            raise InputError("tree JSON must be an object")
        nodes, edges, leaves = payload.get("nodes", []), payload.get("edges", []), payload.get("leaves", {})
        if not isinstance(nodes, list) or not isinstance(edges, list):
            raise InputError("tree 'nodes' and 'edges' must be lists")
        if not all(isinstance(e, list) and len(e) == 2 for e in edges):
            raise InputError("every tree edge must be a 2-element list")
        if not isinstance(leaves, dict) or not all(_DECIMAL.fullmatch(k) for k in leaves):
            raise InputError("tree 'leaves' must map decimal node ids to element ids")
        return cls(nodes, edges, {int(k): v for k, v in leaves.items()})


def _require_tree(t) -> None:
    """Refuse anything but a LeafTree where a tree belongs: the one check,
    as core._require_dset is for a structure."""
    if not isinstance(t, LeafTree):
        raise InputError(f"expected a LeafTree, got {t!r}")


def d_from_tree(t: LeafTree) -> DSet:
    """Leaf relation of a tree: D(wx;yz) iff the two leaf paths are disjoint.

    Read off the leaf distances of the tree's `_record`, kept on the result
    so that it starts certified, by Buneman's four-point condition: for
    pairs a < b and c < e with a < c, the row (a, b, c, e) holds exactly
    when d(a,b) + d(c,e) < d(a,c) + d(b,e), which pairs sharing an element
    fail.  Evaluated on the grid of pairs in lexicographic order, a block
    of grid rows at a time, its true cells in row-major order are the
    canonical rows, sorted.  Elements inherit the leaf labels; the result
    is monochromatic.
    """
    _require_tree(t)
    n = t.n_elements
    if n < 2:
        return DSet._from_rows(n, np.empty((0, 4), dtype=np.int64))
    record = _record(t.adjacency(), t.leaf_map(), n)
    # int16 holds every element id and every sum of two leaf distances (at
    # most 2n - 2) at any n whose pair grid fits in memory.
    dist = record[2].astype(np.int16)
    a, b = (v.astype(np.int16) for v in np.triu_indices(n, 1))
    pair = dist[a, b]
    rows = [np.empty((0, 4), dtype=np.int16)]
    step = 1 + (1 << 18) // max(len(a), 1)  # about 2**18 cells, a few MB, per block
    for i0 in range(0, len(a), step):  # against the pairs that start after a[i0]
        i, j = slice(i0, i0 + step), slice(np.searchsorted(a, a[i0], "right"), None)
        ai, bi, aj, bj = a[i], b[i], a[j], b[j]
        grid = pair[i, None] + pair[j] < dist[ai].take(aj, axis=1) + dist[bi].take(bj, axis=1)
        grid &= ai[:, None] < aj
        cells = np.flatnonzero(grid)  # the columns overwrite them: two index arrays, as np.nonzero's
        r, c = np.divmod(cells, grid.shape[1], out=(np.empty_like(cells), cells))
        rows.append(np.stack([ai[r], bi[r], aj[c], bj[c]], axis=1))
    d = DSet._from_rows(n, np.concatenate(rows, dtype=np.int64))
    d._analyses["_rebuild"] = record
    return d


@_kept
def tree_from_dset(d: DSet) -> LeafTree:
    """The unique tree whose leaf relation is d: the rooted-cluster rebuild
    that certifies D1..D4 (see the core module docstring).  Leaf node ids
    are element ids; internal ids run from d.n upward in the order that
    adding the elements by increasing id would create the nodes.

    Raises NotRepresentable when d fails D1..D4.  The tree is kept on d.
    """
    report = check_axioms(d)
    if not report.core_pass:
        raise NotRepresentable(f"relation table fails D1..D4: {report.as_dict()}")
    parent = _tree_record(d)[0].tolist()
    edges = tuple(sorted([(a, b) if a < b else (b, a) for a, b in enumerate(parent[1:], 1)]))
    return LeafTree._trusted(tuple(range(len(parent))), edges, tuple((e, e) for e in range(d.n)))


@dataclass(frozen=True)
class Splitting:
    """Partition of element ids into at least two sectors.

    Sectors are stored as frozensets in the order of their least elements,
    so equal partitions compare equal structurally.  A splitting with
    exactly two sectors is an edge splitting, any other a node splitting;
    the ground set need not be a whole D-set (induced splittings live on
    subsets).
    """

    sectors: tuple[frozenset[int], ...]

    def __init__(self, sectors: Iterable[Iterable[int]]) -> None:
        with _refused("sectors must be lists of element ids"):
            sectors = [tuple(s) for s in sectors]  # each sector read once
            normalized = list(map(frozenset, sectors))
        if not all(normalized):
            raise InputError("empty sector")
        # Each id is checked as given: an id given twice may hide a bool or a
        # float behind an equal int.  Numpy integers pass and become ints.
        normalized = [frozenset(_require_ids(s)) for s in sectors]
        if len(frozenset().union(*normalized)) != sum(map(len, normalized)):
            raise InputError("sectors overlap")
        # Disjoint sectors have distinct minima, which settle the order.
        normalized.sort(key=min)
        object.__setattr__(self, "sectors", tuple(normalized))

    @classmethod
    def _trusted(cls, sectors: tuple[frozenset[int], ...]) -> "Splitting":
        """The splitting of these sectors as given, unchecked (see the module docstring)."""
        s = object.__new__(cls)
        s.__dict__["sectors"] = sectors
        return s

    @property
    def kind(self) -> str:
        return "edge" if len(self.sectors) == 2 else "node"

    @property
    def ground(self) -> frozenset[int]:
        return frozenset().union(*self.sectors)

    def sector_of(self, a: int) -> frozenset[int]:
        for sec in self.sectors:
            if a in sec:
                return sec
        raise InputError(f"element {a} not covered by this splitting")

    def same_sector(self, a: int, b: int) -> bool:
        return self.sector_of(a) is self.sector_of(b)

    def as_sorted_lists(self) -> list[list[int]]:
        return [sorted(sec) for sec in self.sectors]

    def to_json(self) -> str:
        return json.dumps({"sectors": self.as_sorted_lists()}, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Splitting":
        payload = _decoded(text)
        if isinstance(payload, dict) and "sectors" in payload:
            return cls(payload["sectors"])
        # bare list form, as emitted by the splittings CLI payload
        if isinstance(payload, list):
            return cls(payload)
        raise InputError("splitting JSON must be an object with a 'sectors' key or a bare list of sectors")


@dataclass(frozen=True)
class TreeCorrespondence:
    """Splittings of a tree-derived D-set, indexed by their tree feature.

    node_splittings maps each internal node to the partition of elements
    given by the components of the tree minus that node; edge_splittings
    does the same for edges, always a two-sector partition.  ordered holds
    all of them in canonical order, by their sorted sector lists.
    """

    node_splittings: tuple[tuple[int, Splitting], ...]
    edge_splittings: tuple[tuple[tuple[int, int], Splitting], ...]
    ordered: tuple[Splitting, ...]


def splittings_from_tree(t: LeafTree) -> TreeCorrespondence:
    """Read every splitting off the tree, keyed by t's own internal node ids
    and edges, from one _below walk (see _correspondence)."""
    _require_tree(t)
    if not t.nodes:
        return TreeCorrespondence((), (), ())
    return _correspondence(*_below(t.adjacency(), t.leaf_map(), t.n_elements))


def _correspondence(ids, parent: np.ndarray, below: np.ndarray) -> TreeCorrespondence:
    """The splittings of a tree rooted at element 0's leaf, given by rows with
    the root first: ids[i] is row i's node id, parent[i] its parent's row
    and below[i] the elements under its edge to that parent (row 0 unread).

    Every sector is one side of one edge, laid out in numpy: a feature (the
    edges by row, then the internal nodes) has the outside of its top row
    first, then that row's inside (an edge) or its children's by least
    element (a node), so no sector needs a sort.  Each side is frozen once,
    an outside as the full set less its inside.  ordered comes from one
    argsort of each feature's first two sectors as byte strings that compare
    as their sorted lists: 1 held, 2 not, 0 past the largest, so a prefix
    sorts first.
    """
    rows, n = below.shape
    if rows < 2:
        return TreeCorrespondence((), (), ())
    up, edge = parent[1:], np.arange(1, rows)
    kids = np.bincount(up, minlength=rows)
    inner = kids[1:].nonzero()[0] + 1
    child = np.lexsort((below[1:].argmax(axis=1), up))[kids[0] :] + 1  # by internal node, then least element
    stop = kids[inner].cumsum()  # where each internal node's children end in child
    at = np.concatenate([edge, inner, edge, child[stop - kids[inner]]])  # each feature's top row, then first inside
    features, side = len(at) // 2, below[at]
    side[:features] ^= True  # the outsides
    held = np.arange(n - 1, -1, -1) >= side[:, ::-1].argmax(axis=1)[:, None]  # up to the largest
    key = (held.view(np.uint8) << 1) - side.view(np.uint8)
    order = np.argsort(np.hstack((key[:features], key[features:])).view(f"S{2 * n}")[:, 0]).tolist()

    r, cols = below[1:].nonzero()
    cols, ends = cols.tolist(), r.searchsorted(edge).tolist()  # where each row's elements end
    inside = [frozenset(range(n)), *[frozenset(cols[a:b]) for a, b in zip([0, *ends], ends)]]  # row 0: all
    outside, kid_sides = list(map(inside[0].__sub__, inside)), list(map(inside.__getitem__, child.tolist()))
    nodes = [(outside[u], *kid_sides[a:b]) for u, a, b in zip(inner.tolist(), [0, *stop.tolist()], stop.tolist())]
    split = list(map(Splitting._trusted, [*zip(outside[1:], inside[1:]), *nodes]))  # edges then nodes
    pairs = [(a, b) if a < b else (b, a) for a, b in zip(map(ids.__getitem__, up.tolist()), ids[1:])]
    edges = tuple(sorted(zip(pairs, split)))
    nodes = tuple(sorted(zip(map(ids.__getitem__, inner.tolist()), split[rows - 1 :])))
    ordered = tuple(map(split.__getitem__, order))
    return TreeCorrespondence(nodes, edges, ordered)


def _graft(t: LeafTree, feature) -> LeafTree:
    """t with one more leaf, element t.n_elements, on new nodes numbered past
    the largest: hung from an internal node, or from a node splitting an
    edge (a sorted pair).  Trusted, since only the edges need sorting."""
    top = max(t.nodes)
    if isinstance(feature, tuple):
        u, v = feature
        new = (top + 1, top + 2)
        edges = [e for e in t.edges if e != feature] + [(u, top + 1), (v, top + 1), new]
    else:
        new, edges = (top + 1,), [*t.edges, (feature, top + 1)]
    return LeafTree._trusted((*t.nodes, *new), tuple(sorted(edges)), (*t.leaves, (new[-1], t.n_elements)))


def canonical_form(t: LeafTree, leaf_tokens: Optional[Iterable] = None) -> tuple:
    """Order-free encoding of the tree, equal exactly for isomorphic trees.

    With leaf_tokens None each leaf is encoded by its element id, so two
    trees get the same form exactly when a graph isomorphism matching the
    labels exists.  Passing a sequence of hashable, comparable tokens indexed
    by element id (a color tuple, or a constant) coarsens the leaf encoding
    accordingly; all-equal tokens give plain shape isomorphism.

    The tree is rooted at its center; for an edge center the two rootings
    are tried and the smaller encoding kept.
    """
    _require_tree(t)
    tokens = range(t.n_elements) if leaf_tokens is None else _listed(leaf_tokens, "leaf_tokens", t.n_elements)
    if not t.nodes:
        return ("empty",)
    adj = t.adjacency()
    with _refused("leaf_tokens must be hashable and comparable"):
        root, _, rank, keys, _ = _coded(adj, dict.fromkeys(adj, ("i",)) | {u: ("leaf", tokens[e]) for u, e in t.leaves})
    code, stack = [], [rank[root]]
    while stack:  # the least center's flat code, built once: a rank stands for its token, its children and ()
        r = stack.pop()
        if type(r) is int:
            stack += ((), *keys[r][:0:-1], keys[r][0])
        else:
            code.append(r)
    return tuple(code)


def are_isomorphic_trees(t1: LeafTree, t2: LeafTree, respect_labels: bool = True) -> bool:
    _require_tree(t1)
    _require_tree(t2)
    if _flag(respect_labels, "respect_labels"):
        return canonical_form(t1) == canonical_form(t2)
    return canonical_form(t1, [0] * t1.n_elements) == canonical_form(t2, [0] * t2.n_elements)


def export_dot(t: LeafTree, colors: Optional[Iterable[int]] = None) -> str:
    """Deterministic DOT rendering; byte-identical across runs.

    Leaves are boxes labeled with their element id, and carry a color
    attribute when a color sequence (indexed by element id) is given.
    """
    _require_tree(t)
    color_list = None if colors is None else _listed(colors, "colors", t.n_elements)
    leaf_of = t.leaf_map()
    lines = ["graph dset_tree {"]
    for u in t.nodes:
        if u in leaf_of:
            e = leaf_of[u]
            attrs = [f'label="e{e}"', "shape=box"]
            if color_list is not None:
                attrs.append(f'color_index="{color_list[e]}"')
            lines.append(f"  n{u} [{', '.join(attrs)}];")
        else:
            lines.append(f"  n{u} [shape=point];")
    for u, v in t.edges:
        lines.append(f"  n{u} -- n{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
