"""Independent answers for checking the library's outputs.

Everything here works on a plain tree (an adjacency map and a node ->
element map) and on leaf distances, never on the library's relation tables, so a
check built from it does not share code with what it checks.  In a tree
the paths wx and yz are node-disjoint exactly when
d(w,x) + d(y,z) < d(w,y) + d(x,z) (Buneman's four-point condition); that
single comparison also gives the forced values of the degenerate entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class PlainTree:
    """Tree as an adjacency map plus the element carried by each leaf node."""

    adj: dict[int, list[int]]
    leaf_of: dict[int, int]  # node -> element

    @classmethod
    def from_leaf_tree(cls, t) -> "PlainTree":
        return cls({u: list(vs) for u, vs in t.adjacency().items()}, dict(t.leaves))

    @property
    def n(self) -> int:
        return len(self.leaf_of)

    def node_of(self) -> dict[int, int]:
        return {e: u for u, e in self.leaf_of.items()}

    def internal_nodes(self) -> list[int]:
        return sorted(u for u in self.adj if u not in self.leaf_of)

    def edges(self) -> list[tuple[int, int]]:
        return sorted((u, v) for u in self.adj for v in self.adj[u] if u < v)

    def _bfs(self, start: int, banned: frozenset = frozenset()) -> dict[int, int]:
        dist = {start: 0}
        order = [start]
        for u in order:
            for v in self.adj[u]:
                if v not in dist and v not in banned:
                    dist[v] = dist[u] + 1
                    order.append(v)
        return dist

    def distances(self) -> np.ndarray:
        """Leaf-to-leaf edge counts, indexed by element id."""
        n = self.n
        out = np.zeros((n, n), dtype=np.int16)  # small, so an n^4 table stays a few MB
        node_of = self.node_of()
        for e in range(n):
            dist = self._bfs(node_of[e])
            for f in range(n):
                out[e, f] = dist[node_of[f]]
        return out

    def _elements_from(self, start: int, banned: frozenset) -> frozenset[int]:
        return frozenset(self.leaf_of[u] for u in self._bfs(start, banned) if u in self.leaf_of)

    def features(self) -> list[tuple[object, list[frozenset[int]]]]:
        """Every splitting as (feature, sectors): internal nodes, then edges."""
        out: list[tuple[object, list[frozenset[int]]]] = []
        for u in self.internal_nodes():
            out.append((u, [self._elements_from(v, frozenset({u})) for v in self.adj[u]]))
        for u, v in self.edges():
            out.append(((u, v), [self._elements_from(u, frozenset({v})), self._elements_from(v, frozenset({u}))]))
        return out

    def attach(self, feature) -> "PlainTree":
        """A new leaf carrying element n, hung on an internal node or an edge."""
        adj = {u: list(vs) for u, vs in self.adj.items()}
        leaf_of = dict(self.leaf_of)
        fresh = max(adj) + 1
        if isinstance(feature, tuple):
            u, v = feature
            mid = fresh + 1
            adj[u].remove(v)
            adj[v].remove(u)
            adj[u].append(mid)
            adj[v].append(mid)
            adj[mid] = [u, v, fresh]
            adj[fresh] = [mid]
        else:
            adj[feature].append(fresh)
            adj[fresh] = [feature]
        leaf_of[fresh] = self.n
        return PlainTree(adj, leaf_of)

    def spine(self) -> list[int]:
        """Elements hanging off a longest path in path order: a monotonic sequence.

        The two ends of the path are leaves; every internal node on it
        contributes the least element of one branch leaving the path.
        """
        def farthest_leaf(dist: dict[int, int]) -> int:
            return max(self.leaf_of, key=lambda u: (dist[u], -u))

        far = farthest_leaf(self._bfs(self.node_of()[0]))
        dist = self._bfs(far)
        path = [farthest_leaf(dist)]
        while path[-1] != far:
            path.append(next(v for v in self.adj[path[-1]] if dist[v] == dist[path[-1]] - 1))
        on_path = frozenset(path)
        seq = [self.leaf_of[path[0]]]
        for u in path[1:-1]:
            branch = min(v for v in self.adj[u] if v not in on_path)
            seq.append(min(self._elements_from(branch, frozenset({u}))))
        seq.append(self.leaf_of[path[-1]])
        return seq

    def petals(self) -> list[int]:
        """One element from each branch at a node of largest degree: a petaled set."""
        hub = max(self.internal_nodes(), key=lambda u: (len(self.adj[u]), -u))
        return sorted(min(self._elements_from(v, frozenset({hub}))) for v in self.adj[hub])


def four_point_table(dist: np.ndarray) -> np.ndarray:
    """Boolean T[w,x,y,z] = D(wx;yz) from leaf distances, degenerate entries included."""
    wx = dist[:, :, None, None]
    yz = dist[None, None, :, :]
    wy = dist[:, None, :, None]
    xz = dist[None, :, None, :]
    return (wx + yz) < (wy + xz)


def positive_quads(table: np.ndarray) -> frozenset[tuple[int, int, int, int]]:
    """Canonical quads of four distinct elements on which the table holds."""
    w, x, y, z = np.nonzero(table)
    keep = (w < x) & (y < z) & (w < y) & (x != y) & (x != z)
    return frozenset(zip(*(v[keep].tolist() for v in (w, x, y, z))))


def extends(table: np.ndarray, colors, pairs: dict[int, int]) -> bool:
    """Whether the map preserves colors and every relation value on its domain."""
    dom = sorted(pairs)
    img = [pairs[a] for a in dom]
    if any(colors[a] != colors[b] for a, b in zip(dom, img)):
        return False
    return bool(np.array_equal(table[np.ix_(dom, dom, dom, dom)], table[np.ix_(img, img, img, img)]))
