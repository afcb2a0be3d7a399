"""Trees whose leaves carry D-set elements.

Finite D-sets satisfying D1..D4 are exactly the leaf systems of finite
trees in which every internal node has degree at least three.  This module
holds the tree type, the two directions of that correspondence, and the
Splitting type with the splittings read off from internal nodes and edges.

Every traversal is core's breadth-first walk, `_walk`: connectivity, the
canonical codes (`core._rooted`), and the elements below each node, from
which both the splittings and the leaf distances are read (one walk from
element 0's leaf, then the one matmul that `core._rebuild` also uses).
The relation is read off a grid of leaf pairs in lexicographic order, so
its rows come out canonical and sorted.  The tree of a D-set is the
rooted-cluster rebuild that `core` certifies D1..D4 with.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np

from .core import DSet, InputError, NotRepresentable, _centers, _distances, _kept, _require_ids, _rooted
from .core import _tree_parents, _walk, check_axioms


@dataclass(frozen=True)
class LeafTree:
    """Finite tree with element ids on its leaves.

    nodes and edges are stored sorted, edges as (min, max) pairs.  leaves
    maps node id to element id; labeled nodes must have degree <= 1,
    unlabeled nodes degree >= 3, and the labels must be exactly 0..k-1 for
    k leaves.  Ids are integers, bools excluded; node ids may be negative.
    Everything is validated at construction.
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
        nodes, edges = list(nodes), [tuple(e) for e in edges]
        leaf_items = list(leaves.items() if isinstance(leaves, Mapping) else leaves)
        for v in itertools.chain(nodes, *edges, *leaf_items):
            if type(v) is not int and (isinstance(v, bool) or not isinstance(v, (int, np.integer))):
                raise InputError(f"tree ids must be integers, got {v!r}")
        node_tuple = tuple(sorted(set(map(int, nodes))))
        edge_set = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise InputError(f"self-loop at node {u}")
            edge_set.add((min(u, v), max(u, v)))
        leaf_tuple = tuple(sorted((int(a), int(b)) for a, b in leaf_items))
        object.__setattr__(self, "nodes", node_tuple)
        object.__setattr__(self, "edges", tuple(sorted(edge_set)))
        object.__setattr__(self, "leaves", leaf_tuple)
        self._validate()

    def _validate(self) -> None:
        node_set = set(self.nodes)
        for u, v in self.edges:
            if u not in node_set or v not in node_set:
                raise InputError(f"edge ({u},{v}) mentions an unknown node")
        if len(self.edges) != max(0, len(self.nodes) - 1):
            raise InputError("a tree on k nodes needs exactly k-1 edges")
        if self.nodes and len(_walk(self.adjacency(), self.nodes[0])[0]) != len(self.nodes):
            raise InputError("tree is not connected")
        labeled = [u for u, _ in self.leaves]
        if len(set(labeled)) != len(labeled):
            raise InputError("a node may carry at most one element label")
        for u in labeled:
            if u not in node_set:
                raise InputError(f"label on unknown node {u}")
        elems = sorted(e for _, e in self.leaves)
        if elems != list(range(len(elems))):
            raise InputError("leaf labels must be exactly 0..k-1")
        degree = self.degrees()
        label_set = set(labeled)
        for u in self.nodes:
            if u in label_set:
                if degree[u] > 1:
                    raise InputError(f"labeled node {u} has degree {degree[u]}")
            elif degree[u] < 3:
                raise InputError(f"internal node {u} has degree {degree[u]} < 3")

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {u: [] for u in self.nodes}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for u in adj:
            adj[u].sort()
        return adj

    def degrees(self) -> dict[int, int]:
        deg = {u: 0 for u in self.nodes}
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def leaf_map(self) -> dict[int, int]:
        """Node id -> element id."""
        return dict(self.leaves)

    def element_node(self) -> dict[int, int]:
        """Element id -> node id."""
        return {e: u for u, e in self.leaves}

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
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise InputError("tree JSON must be an object")
        nodes = payload.get("nodes", [])
        edges = payload.get("edges", [])
        leaves = payload.get("leaves", {})
        if not isinstance(nodes, list) or not isinstance(edges, list):
            raise InputError("tree 'nodes' and 'edges' must be lists")
        if not all(isinstance(e, list) and len(e) == 2 for e in edges):
            raise InputError("every tree edge must be a 2-element list")
        if not isinstance(leaves, dict) or not all(_DECIMAL.fullmatch(k) for k in leaves):
            raise InputError("tree 'leaves' must map decimal node ids to element ids")
        return cls(nodes, edges, {int(k): v for k, v in leaves.items()})


_DECIMAL = re.compile(r"0|-?[1-9][0-9]*")


def _below(t: LeafTree, adj) -> tuple[list[int], dict, dict[int, set[int]]]:
    """One walk from element 0's leaf: visit order, parents, and the elements
    below each node (below its edge to its parent; all of them at the root)."""
    order, parent = _walk(adj, t.element_node()[0])
    leaf_of = t.leaf_map()
    below: dict[int, set[int]] = {u: set() for u in order}
    for u in reversed(order):
        if u in leaf_of:
            below[u].add(leaf_of[u])
        if parent[u] is not None:
            below[parent[u]] |= below[u]
    return order, parent, below


def _leaf_distances(t: LeafTree) -> np.ndarray:
    """Edge count between every two leaves, indexed by element id: the
    elements below each node's edge to its parent, through core._distances."""
    n = t.n_elements
    if n < 2:
        return np.zeros((n, n), dtype=np.int64)
    order, _, below = _below(t, t.adjacency())
    marks = np.zeros((len(order), n), dtype=bool)
    for i, u in enumerate(order[1:], 1):  # the root has no edge to a parent
        marks[i, list(below[u])] = True
    return _distances(marks)


def d_from_tree(t: LeafTree) -> DSet:
    """Leaf relation of a tree: D(wx;yz) iff the two leaf paths are disjoint.

    Read off the leaf distances (one walk and one matmul, shared with the
    certifying rebuild in core) by Buneman's four-point condition: for
    pairs a < b and c < e with a < c, the row (a, b, c, e) holds exactly
    when d(a,b) + d(c,e) < d(a,c) + d(b,e), which pairs sharing an element
    fail.  Evaluated on the grid of pairs in lexicographic order, a block
    of grid rows at a time, its true cells in row-major order are the
    canonical rows, sorted.  Elements inherit the leaf labels; the result
    is monochromatic.
    """
    n = t.n_elements
    # int16 holds every element id and every sum of two leaf distances (at
    # most 2n - 2) at any n whose pair grid fits in memory.
    dist = _leaf_distances(t).astype(np.int16)
    a, b = (v.astype(np.int16) for v in np.triu_indices(n, 1))
    pair = dist[a, b]
    rows = [np.empty((0, 4), dtype=np.int16)]
    step = 1 + (1 << 18) // max(len(a), 1)  # about 2**18 cells, a few MB, per block
    for i0 in range(0, len(a), step):  # against the pairs that start after a[i0]
        i, j = slice(i0, i0 + step), slice(np.searchsorted(a, a[i0], "right"), None)
        ai, bi, aj, bj = a[i], b[i], a[j], b[j]
        grid = pair[i, None] + pair[j] < dist[ai].take(aj, axis=1) + dist[bi].take(bj, axis=1)
        grid &= ai[:, None] < aj
        r, c = np.nonzero(grid)
        rows.append(np.stack([ai[r], bi[r], aj[c], bj[c]], axis=1))
    return DSet._from_rows(n, np.concatenate(rows, dtype=np.int64))


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
    parent = _tree_parents(d)
    return LeafTree(range(len(parent)), enumerate(parent[1:], 1), {e: e for e in range(d.n)})


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
        try:
            sectors = list(sectors)
            try:
                size = sum(map(len, sectors))
            except TypeError:  # a sector with no length, such as a generator: read it once
                sectors = [tuple(s) for s in sectors]
                size = sum(map(len, sectors))
            normalized = list(map(frozenset, sectors))
        except TypeError as exc:
            raise InputError(f"sectors must be lists of element ids: {exc}") from exc
        if not all(normalized):
            raise InputError("empty sector")
        ground = frozenset().union(*normalized)
        if len(ground) != size or not set(map(type, ground)) <= {int}:
            # An id given twice may hide a bool or a float behind an equal int,
            # so each id is checked as given; numpy integers pass and become ints.
            normalized = [frozenset(_require_ids(s)) for s in sectors]
            if len(frozenset().union(*normalized)) != sum(map(len, normalized)):
                raise InputError("sectors overlap")
        # Disjoint sectors have distinct minima, which settle the order.
        normalized.sort(key=min)
        object.__setattr__(self, "sectors", tuple(normalized))

    @property
    def kind(self) -> str:
        return "edge" if len(self.sectors) == 2 else "node"

    @property
    def ground(self) -> frozenset[int]:
        return frozenset().union(*self.sectors) if self.sectors else frozenset()

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
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON: {exc}") from exc
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
    does the same for edges, always a two-sector partition.
    """

    node_splittings: tuple[tuple[int, Splitting], ...]
    edge_splittings: tuple[tuple[tuple[int, int], Splitting], ...]

    def all_splittings(self) -> list[Splitting]:
        return [s for _, s in self.node_splittings + self.edge_splittings]


def splittings_from_tree(t: LeafTree) -> TreeCorrespondence:
    """Read every splitting off the tree.

    Removing an internal node of degree k leaves k components and hence a
    k-sector splitting; removing an edge leaves two.  One walk gives the
    elements below each node; the component across an edge is then the
    part below the far end, or everything outside the near end's part.
    """
    if not t.nodes:
        return TreeCorrespondence((), ())
    adj = t.adjacency()
    order, parent, below = _below(t, adj)
    everything = below[order[0]]

    def side(u: int, v: int) -> set[int]:
        """Elements on v's side of the edge uv."""
        return below[v] if parent[v] == u else everything - below[u]

    node_entries = tuple((mu, Splitting([side(mu, v) for v in adj[mu]])) for mu in t.internal_nodes())
    edge_entries = tuple(((u, v), Splitting([side(v, u), side(u, v)])) for u, v in t.edges)
    return TreeCorrespondence(node_entries, edge_entries)


def canonical_form(t: LeafTree, leaf_tokens: Optional[Iterable] = None) -> tuple:
    """Order-free encoding of the tree, equal exactly for isomorphic trees.

    With leaf_tokens None each leaf is encoded by its element id, so two
    trees get the same form exactly when a graph isomorphism matching the
    labels exists.  Passing a sequence indexed by element id (for example
    a color tuple, or a constant) coarsens the leaf encoding accordingly;
    all-equal tokens give plain shape isomorphism.

    The tree is rooted at its center; for an edge center the two rootings
    are tried and the smaller encoding kept.
    """
    if not t.nodes:
        return ("empty",)
    tokens = range(t.n_elements) if leaf_tokens is None else list(leaf_tokens)
    leaf_of, adj = t.leaf_map(), t.adjacency()

    def token(u: int) -> tuple:
        return ("leaf", tokens[leaf_of[u]]) if u in leaf_of else ("i",)

    root, _, code = _rooted(adj, _centers(adj), token)
    return code[root]


def are_isomorphic_trees(t1: LeafTree, t2: LeafTree, respect_labels: bool = True) -> bool:
    if respect_labels:
        return canonical_form(t1) == canonical_form(t2)
    return canonical_form(t1, [0] * t1.n_elements) == canonical_form(t2, [0] * t2.n_elements)


def export_dot(t: LeafTree, colors: Optional[Iterable[int]] = None) -> str:
    """Deterministic DOT rendering; byte-identical across runs.

    Leaves are boxes labeled with their element id, and carry a color
    attribute when a color sequence (indexed by element id) is given.
    """
    color_list = list(colors) if colors is not None else None
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
