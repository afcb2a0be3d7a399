"""Independent oracles the tests trust over the library.

Everything here is written directly from the definitions and shares no
code with the package: paths are plain BFS over the edge list, splittings
come from filtering raw set partitions, order invariance from scanning
index quadruples, the axioms from boolean masks over a relation table,
trees from inserting one element at a time, and shape counts from gluing
leaves onto Pruefer-coded skeletons.  Expected values are frozen into
tests only after one of these oracles produced them.
"""

from __future__ import annotations

import bisect
import itertools
import json
from collections import deque
from functools import lru_cache

import numpy as np


# ---------------------------------------------------------------------------
# path disjointness on trees


def path_nodes(edges, start, goal):
    """All nodes on the unique start..goal path, endpoints included."""
    if start == goal:
        return frozenset({start})
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    parent = {start: None}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        if u == goal:
            break
        for nb in adj.get(u, ()):
            if nb not in parent:
                parent[nb] = u
                queue.append(nb)
    if goal not in parent:
        raise AssertionError(f"no path {start}..{goal}: not a tree?")
    out = set()
    v = goal
    while v is not None:
        out.add(v)
        v = parent[v]
    return frozenset(out)


def holds_oracle(tree, w, x, y, z):
    """Truth of D(wx;yz) on a leaf tree, from scratch.

    Degenerate rules restated independently: intersecting pairs are false,
    disjoint pairs with a doubled member are true; otherwise the two leaf
    paths must be node-disjoint.
    """
    if w in (y, z) or x in (y, z):
        return False
    if w == x or y == z:
        return True
    at = {e: u for u, e in tree.leaves}
    first = path_nodes(tree.edges, at[w], at[x])
    second = path_nodes(tree.edges, at[y], at[z])
    return not (first & second)


def canon_oracle(w, x, y, z):
    first, second = sorted([sorted((w, x)), sorted((y, z))])
    return (*first, *second)


def positives_oracle(tree):
    """Canonical positive quads of a leaf tree via the path oracle.

    Each leaf-to-leaf path is found once and shared by every quad using it;
    four distinct leaves are positive when their two paths are disjoint.
    """
    at = {e: u for u, e in tree.leaves}
    elems = sorted(at)
    path = {}
    for a, b in itertools.combinations(elems, 2):
        path[a, b] = path[b, a] = path_nodes(tree.edges, at[a], at[b])
    out = set()
    for a, b, c, d in itertools.combinations(elems, 4):
        for w, x, y, z in ((a, b, c, d), (a, c, b, d), (a, d, b, c)):
            if path[w, x].isdisjoint(path[y, z]):
                out.add(canon_oracle(w, x, y, z))
    return frozenset(out)


def leaf_distance_oracle(tree):
    """Edge count between every two leaves, indexed by element id: one
    breadth-first search over the edge list from every leaf."""
    adj = {u: [] for u in tree.nodes}
    for u, v in tree.edges:
        adj[u].append(v)
        adj[v].append(u)
    at = [u for _, u in sorted((e, u) for u, e in tree.leaves)]
    dist = np.zeros((len(at), len(at)), dtype=np.int64)
    for e, start in enumerate(at):
        depth = {start: 0}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in depth:
                    depth[v] = depth[u] + 1
                    queue.append(v)
        dist[e] = [depth[u] for u in at]
    return dist


# ---------------------------------------------------------------------------
# relation JSON decoded by json.loads and scalar checks


def dset_json_oracle(text):
    """What DSet.from_json(text) gives: ("ok", the structure's to_json text)
    or ("error", the InputError message), from json.loads and one scalar
    check after another in the order the library makes them."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return "error", f"invalid JSON: {exc}"
    if not isinstance(payload, dict) or "n" not in payload:
        return "error", "D-set JSON must be an object with an 'n' field"
    n = payload["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        return "error", "'n' must be a non-negative integer"
    raw_colors = payload.get("colors", {})
    if not isinstance(raw_colors, dict):
        return "error", "'colors' must map element ids to color ids"
    colors = [0] * n
    for key, value in raw_colors.items():
        try:
            e = int(key)
        except ValueError:
            return "error", f"bad element id {key!r} in colors"
        if not 0 <= e < n:
            return "error", f"color for unknown element {e}"
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            return "error", f"bad color {value!r} for element {e}"
        colors[e] = value
    quads = payload.get("positives", [])
    if not isinstance(quads, list):
        return "error", "'positives' must be a list of 4-element lists"
    for item in quads:
        if not (isinstance(item, list) and len(item) == 4):
            return "error", f"positive entry {item!r} must be a 4-element list"
        if any(not isinstance(v, int) or not 0 <= v < n for v in item):
            return "error", f"positive entry {item!r} has ids outside 0..{n - 1}"
    seen = set()
    for q in quads:
        if len(set(q)) != 4:
            return "error", f"quad {tuple(q)} must have four distinct elements"
        for v in q:
            if isinstance(v, bool):
                return "error", f"element ids must be non-negative integers, got {v!r}"
        canon = canon_oracle(*q)
        if canon in seen:
            return "error", f"duplicate quad {tuple(q)} (canonical {canon})"
        seen.add(canon)
    head = {"colors": {str(e): c for e, c in enumerate(colors)}, "n": n}
    head["positives"] = [list(q) for q in sorted(seen)]
    return "ok", json.dumps(head, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# splittings read off a tree by removing a node or an edge


def _component_elements(tree, start, banned_node=None, banned_edge=None):
    """Elements on the leaves reachable from start without entering
    banned_node or crossing banned_edge."""
    adj = {}
    for u, v in tree.edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    leaf_of = dict(tree.leaves)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for nb in adj.get(u, ()):
            if nb in seen or nb == banned_node or {u, nb} == set(banned_edge or ()):
                continue
            seen.add(nb)
            stack.append(nb)
    return frozenset(leaf_of[u] for u in seen if u in leaf_of)


def tree_splittings_oracle(tree):
    """(node entries, edge entries) as (feature, set of sectors) lists:
    every unlabeled node in id order with the components of the tree minus
    that node, then every edge in sorted order with its two sides."""
    labeled = {u for u, _ in tree.leaves}
    nodes = [
        (mu, {_component_elements(tree, nb, banned_node=mu)
              for u, v in tree.edges if mu in (u, v) for nb in (u, v) if nb != mu})
        for mu in sorted(tree.nodes) if mu not in labeled
    ]
    edges = [
        ((u, v), {_component_elements(tree, u, banned_edge=(u, v)),
                  _component_elements(tree, v, banned_edge=(u, v))})
        for u, v in sorted(tree.edges)
    ]
    return nodes, edges


def frontiers_oracle(tree, col):
    """(left, right) frontiers of a monotonic column of at least 5 rows on
    tree's D-set, read off the definition: the sectors of
    tree_splittings_oracle meeting the window in an initial (final) segment
    of 2..m-2 rows, intersected, with the window removed; empty when no
    sector qualifies."""
    col = list(col)
    m, window = len(col), set(col)
    nodes, edges = tree_splittings_oracle(tree)
    sectors = [set(sec) for _, secs in nodes + edges for sec in secs]
    out = []
    for segments in ([set(col[:t]) for t in range(2, m - 1)], [set(col[m - t:]) for t in range(2, m - 1)]):
        family = [sec for sec in sectors if sec & window in segments]
        out.append(frozenset(set.intersection(*family) - window) if family else frozenset())
    return tuple(out)


# ---------------------------------------------------------------------------
# branch and complementary elements from holds


def branch_oracle(d, a, b, c):
    """All x other than a with D(bc;ax), in id order."""
    return [x for x in range(d.n) if x != a and d.holds(b, c, a, x)]


def complementary_oracle(d, sectors, sector, a):
    """The least b in the sector with no c in it and no x outside it (in
    the union of the sectors) satisfying D(ab;cx); None when there is none."""
    outside = sorted(set().union(*sectors) - set(sector))
    for b in sorted(sector):
        if not any(d.holds(a, b, c, x) for c in sector for x in outside):
            return b
    return None


def induced_classes_oracle(table, subset, e):
    """The classes of "some x in the subset has D(ab;ex)" on the subset, as
    a set of frozensets, when that relation is reflexive, symmetric and
    transitive there, checked pair by pair and triple by triple; None when
    it is not.  table is a nested list T[w][x][y][z]."""
    sub = sorted(subset)
    rel = {(a, b): any(table[a][b][e][x] for x in sub) for a in sub for b in sub}
    if not all(rel[a, a] for a in sub):
        return None
    if any(rel[a, b] != rel[b, a] for a in sub for b in sub):
        return None
    if any(rel[a, b] and rel[b, c] and not rel[a, c] for a in sub for b in sub for c in sub):
        return None
    return {frozenset(b for b in sub if rel[a, b]) for a in sub}


# ---------------------------------------------------------------------------
# splittings by brute force


def splitting_ok(d, cells, holds=None):
    """Conditions on a partition, straight from the definition.

    (1) any two elements of one cell are separated from any two elements
    outside it; (2) no quadruple drawn from four different cells is
    related.  Elements inside a quantifier may coincide.  holds defaults
    to d.holds.
    """
    holds = holds or d.holds
    cells = [frozenset(c) for c in cells]
    if len(cells) < 2:
        return False, {"kind": "too_few"}
    universe = sorted(d.elements)
    if sorted(v for c in cells for v in c) != universe:
        return False, {"kind": "not_a_partition"}
    for cell in cells:
        rest = [v for v in universe if v not in cell]
        for a, b in itertools.combinations_with_replacement(sorted(cell), 2):
            for c, e in itertools.combinations_with_replacement(rest, 2):
                if not holds(a, b, c, e):
                    return False, {"kind": "unseparated", "quad": (a, b, c, e)}
    for four_cells in itertools.combinations(cells, 4):
        for w, x, y, z in itertools.product(*(sorted(c) for c in four_cells)):
            for quad in ((w, x, y, z), (w, y, x, z), (w, z, x, y)):
                if holds(*quad):
                    return False, {"kind": "four_sector", "quad": quad}
    return True, None


def set_partitions(items):
    """All partitions of items into nonempty cells, no code shared with
    the library's enumerator."""
    items = list(items)
    if not items:
        yield []
        return
    head, *tail = items
    for part in set_partitions(tail):
        for i in range(len(part)):
            yield part[:i] + [part[i] | {head}] + part[i + 1 :]
        yield part + [{head}]


def brute_splittings(d):
    """Every partition of the elements that passes splitting_ok, as a set
    of frozen sector families."""
    table = dense_table(d).tolist()
    found = set()
    for part in set_partitions(sorted(d.elements)):
        if len(part) < 2:
            continue
        ok, _ = splitting_ok(d, part, lambda w, x, y, z: table[w][x][y][z])
        if ok:
            found.add(frozenset(frozenset(c) for c in part))
    return found


def splitting_witness_oracle(d, sectors):
    """is_splitting's verdict and witness from a scalar loop over the
    sectors of a partition of d's elements, in the order given (at least
    two): each sector's pairs a <= b against outside pairs c <= dd, then
    each combination of four sectors over the product of their sorted
    elements."""
    sectors = [sorted(sec) for sec in sectors]
    elements = sorted(v for sec in sectors for v in sec)
    for inside in sectors:
        outside = [v for v in elements if v not in inside]
        for a, b in itertools.combinations_with_replacement(inside, 2):
            for c, dd in itertools.combinations_with_replacement(outside, 2):
                if not d.holds(a, b, c, dd):
                    return False, {"kind": "separation_fails", "pair": [a, b], "other": [c, dd]}
    for secs in itertools.combinations(sectors, 4):
        for a, b, c, dd in itertools.product(*secs):
            if d.holds(a, b, c, dd) or d.holds(a, c, b, dd) or d.holds(a, dd, b, c):
                return False, {"kind": "four_sector_relation", "elements": [a, b, c, dd]}
    return True, None


# ---------------------------------------------------------------------------
# D3 and D6 as boolean sweeps over w-slices


def _first_index(mask):
    """Lexicographically least index where mask holds, or None."""
    if not mask.any():
        return None
    return [int(v) for v in np.unravel_index(int(mask.argmax()), mask.shape)]


def d3_d6_oracle(table):
    """check_axioms' D3 and D6 verdicts, as dicts, from one boolean
    [x,y,z,v] array per w, swept in order of w.

    D3: D(wx;yz) with neither D(vx;yz) nor D(wx;yv); witness (w,x,y,z,v).
    D6: D(wx;yz) with no v giving D(vx;yz), D(wv;yz) and D(wx;vz);
    witness (w,x,y,z), not applicable below two elements.
    """
    n = table.shape[0]
    v_first = table.transpose(1, 2, 3, 0)  # [x,y,z,v] -> D(vx;yz)
    d3 = d6 = {"status": "pass"}
    for w in range(n):
        tw = table[w]
        bad = tw[..., None] & ~(v_first | tw[:, :, None, :])
        found = _first_index(bad)
        if found is not None:
            d3 = {"status": "fail", "witness": [w] + found}
            break
    if n < 2:
        return d3, {"status": "not_applicable"}
    for w in range(n):
        tw = table[w]
        found_v = v_first & tw.transpose(1, 2, 0)[None] & tw.transpose(0, 2, 1)[:, None]
        found = _first_index(tw & ~found_v.any(axis=-1))
        if found is not None:
            d6 = {"status": "fail", "witness": [w] + found}
            break
    return d3, d6


def axioms_oracle(table):
    """check_axioms(d).as_dict() from boolean masks over d's relation table,
    swept exhaustively: each failing axiom reports the least index of its
    mask.

    D1: D(wx;yz) without D(xw;yz) and D(yz;wx).  D2: D(wx;yz) and D(wy;xz).
    D4: w != y, x != y and not D(wx;yy).  D5 (three or more elements):
    distinct w, x, y with no z other than y giving D(wx;yz).  D3 and D6 as
    in d3_d6_oracle.
    """
    n = table.shape[0]
    w, x, y = np.indices((n, n, n), sparse=True)
    diag = table[:, :, np.arange(n), np.arange(n)]  # [w,x,y] -> D(wx;yy)

    def verdict(mask):
        found = _first_index(mask)
        return {"status": "pass"} if found is None else {"status": "fail", "witness": found}

    out = {
        "d1": verdict(table & ~(table.transpose(1, 0, 2, 3) & table.transpose(2, 3, 0, 1))),
        "d2": verdict(table & table.transpose(0, 2, 1, 3)),
        "d4": verdict((w != y) & (x != y) & ~diag),
    }
    others = table.sum(axis=3) - diag  # z != y with D(wx;yz)
    if n < 3:
        out["d5"] = {"status": "not_applicable"}
    else:
        out["d5"] = verdict((w != x) & (w != y) & (x != y) & (others == 0))
    out["d3"], out["d6"] = d3_d6_oracle(table)
    out = {key: out[key] for key in ("d1", "d2", "d3", "d4", "d5", "d6")}
    out["core_pass"] = all(out[key]["status"] == "pass" for key in ("d1", "d2", "d3", "d4"))
    return out


# ---------------------------------------------------------------------------
# reconstruction by inserting the elements one at a time


def insertion_tree_oracle(table):
    """LeafTree.to_json() of the tree with relation table `table`.

    Elements go in by increasing id onto the edge 0-1.  Element e groups
    the elements before it: a and b share a sector when some x among them
    has D(ab;ex).  With two sectors e subdivides the one edge joining their
    hulls by a fresh internal node; with more it hangs off the one node no
    hull covers.  Internal ids are handed out from n upward.  For tables
    that pass D1..D4 only.
    """
    n = table.shape[0]
    if n < 2:
        nodes, edges = list(range(n)), set()
    else:
        nodes, edges = {0, 1}, {(0, 1)}
    fresh = n
    for e in range(2, n):
        sub = list(range(e))
        related = table[np.ix_(sub, sub, [e], sub)].any(axis=(2, 3))
        sectors = []
        for a in sub:
            home = next((sec for sec in sectors if related[a, sec[0]]), None)
            if home is None:
                sectors.append([a])
            else:
                home.append(a)
        hulls = [_hull(edges, sec) for sec in sectors]
        covered = set().union(*hulls)
        if len(sectors) == 2:
            crossing = [
                (u, v) for u, v in sorted(edges)
                if (u in hulls[0]) != (v in hulls[0]) and u in covered and v in covered
            ]
            assert len(crossing) == 1, crossing
            (u, v), m = crossing[0], fresh
            fresh += 1
            edges -= {(u, v)}
            edges |= {(min(u, m), m), (min(v, m), m), (e, m)}
            nodes |= {m, e}
        else:
            free = [u for u in sorted(nodes) if u not in covered]
            assert len(free) == 1, free
            edges.add((min(e, free[0]), max(e, free[0])))
            nodes.add(e)
    payload = {
        "nodes": sorted(nodes),
        "edges": [list(edge) for edge in sorted(edges)],
        "leaves": {str(e): e for e in range(n)},
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _hull(edges, leaves):
    """Nodes on the paths from the least of the leaves to the others."""
    root, *rest = sorted(leaves)
    out = {root}
    for leaf in rest:
        out |= path_nodes(edges, root, leaf)
    return out


# ---------------------------------------------------------------------------
# type bases against the relation table


def type_base_mismatch(qb, table):
    """The first place a node or edge type base disagrees with the relation
    table, as a dict, or None.

    The base's answer for D(e x; y z) is rebuilt on the whole subset grid
    at once from its case split: false when x is y or z, or when y and z
    lie in different sectors; true when x lies in another sector than y
    and z; otherwise D(s x; y z) for s the least base element outside x's
    sector.  Then shares_sector must agree with the splitting on every pair.
    """
    e = qb.element
    elems = np.array(qb.subset)
    actual = table[e][np.ix_(elems, elems, elems)]
    sectors = qb.splitting.sectors
    sec_id = np.array([next(i for i, sec in enumerate(sectors) if a in sec) for a in qb.subset])
    x_sec, y_sec, z_sec = np.ix_(sec_id, sec_id, sec_id)
    x_el, y_el, z_el = np.ix_(elems, elems, elems)
    clash = (x_el == y_el) | (x_el == z_el)
    same_yz = y_sec == z_sec
    stand_in = np.array(
        [min(b for b in qb.base if b not in sectors[i]) for i in sec_id]
    )[:, None, None]
    substituted = table[stand_in, x_el, y_el, z_el]
    interior = same_yz & (x_sec == y_sec) & ~clash
    pred = np.where(interior, substituted, same_yz & (x_sec != y_sec) & ~clash)
    if not np.array_equal(pred, actual):
        i, j, k = np.argwhere(pred != actual)[0]
        return {"kind": "atom", "triple": [int(elems[i]), int(elems[j]), int(elems[k])]}
    for i, j in itertools.combinations(range(len(elems)), 2):
        if qb.shares_sector(int(elems[i]), int(elems[j])) != (sec_id[i] == sec_id[j]):
            return {"kind": "shares_sector", "pair": [int(elems[i]), int(elems[j])]}
    return None


# ---------------------------------------------------------------------------
# partial isomorphisms, extended and stuck, one atom at a time


def partial_iso_oracle(t, colors, m):
    """Whether m keeps colors and every atom over its domain, for a table t
    of D(wx;yz) and the elements' colors."""
    return all(colors[a] == colors[b] for a, b in m.items()) and all(
        t[q] == t[tuple(m[v] for v in q)] for q in itertools.product(m, repeat=4)
    )


def extend_oracle(t, colors, m, x):
    """The y, in id order, outside m's range with x's color and D(y m(a);
    m(b) m(c)) equal to D(x a; b c) for all a, b, c in m's domain."""
    dom = sorted(m)
    return [
        y for y in range(len(colors))
        if y not in m.values() and colors[y] == colors[x]
        and all(t[y, m[a], m[b], m[c]] == t[x, a, b, c] for a, b, c in itertools.product(dom, repeat=3))
    ]


def nonextendable_oracle(t, colors, splittings):
    """The first stuck partial isomorphism (map, element) of two scans, or
    None; splittings are sector lists in the order to try them.

    First, for each sector of two or more elements and each color it misses
    (colors in id order): the swap {a1: a2, a2: a1, a3: a3} of same-colored
    a1, a2 in the sector (pairs in order), for each b0 of the missing color
    and each a3 with D(b0 a1; a2 a3), stuck when b0 has no image.  Then,
    for node splittings big and small with more sectors in big, and each
    color: the least element of that color in each sector of big, mapped
    onto small's, stuck on big's next one."""
    n = len(colors)
    for sectors in splittings:
        for sec in (sec for sec in sectors if len(sec) >= 2):
            for color in sorted(set(colors) - {colors[a] for a in sec}):
                for a1, a2 in itertools.permutations(sorted(sec), 2):
                    for b0 in (b for b in range(n) if colors[b] == color and colors[a1] == colors[a2]):
                        for a3 in range(n):
                            m = {a1: a2, a2: a1, a3: a3}
                            if a3 not in (b0, a1, a2) and t[b0, a1, a2, a3] and not extend_oracle(t, colors, m, b0):
                                return m, b0
    nodes = [sectors for sectors in splittings if len(sectors) > 2]
    for big, small in itertools.permutations(nodes, 2):
        for color in sorted(set(colors)) if len(big) > len(small) else ():
            least = [[min((v for v in sec if colors[v] == color), default=None) for sec in s] for s in (big, small)]
            reps = [v for v in least[0] if v is not None]
            if len(reps) <= len(small) or None in least[1]:
                continue
            m = dict(zip(reps, least[1]))
            if partial_iso_oracle(t, colors, m) and not extend_oracle(t, colors, m, reps[len(small)]):
                return m, reps[len(small)]
    return None


# ---------------------------------------------------------------------------
# least isomorphism by permutation search


def dense_table(d):
    """T[w,x,y,z] = D(wx;yz) from d's positive quads, closed under D1, and
    the truth values forced by repeated elements."""
    w, x, y, z = np.ix_(*[np.arange(d.n)] * 4)
    table = ((w == x) | (y == z)) & (w != y) & (w != z) & (x != y) & (x != z)
    for a, b, c, e in d.positives:
        for left, right in (((a, b), (c, e)), ((c, e), (a, b))):
            for p in (left, left[::-1]):
                for q in (right, right[::-1]):
                    table[p + q] = True
    return table


def least_bijection_oracle(d1, d2, respect_colors):
    """The first permutation m of d2's elements, in lexicographic order, with
    T1[w,x,y,z] == T2[m(w),m(x),m(y),m(z)] everywhere (and d1's colors
    carried onto d2's when asked), as {e: m(e)}; None if there is none."""
    if d1.n != d2.n:
        return None
    t1, t2 = dense_table(d1), dense_table(d2)
    # A bijection that keeps the relation keeps, for each element e, the
    # multiset of true-cell counts of the pairs (e, x); comparing those
    # first skips most permutations cheaply.
    keys1, keys2 = (
        [(c if respect_colors else 0, sorted(row)) for c, row in zip(d.colors, t.sum(axis=(2, 3)).tolist())]
        for d, t in ((d1, t1), (d2, t2))
    )
    for images in itertools.permutations(range(d1.n)):
        if any(keys1[e] != keys2[f] for e, f in enumerate(images)):
            continue
        if np.array_equal(t1, t2[np.ix_(*[images] * 4)]):
            return dict(enumerate(images))
    return None


# ---------------------------------------------------------------------------
# order invariance of parameter-free windows


def quad_pattern(d, a, b, c, e):
    """The three pairing truth values of an ordered element quadruple."""
    return (d.holds(a, b, c, e), d.holds(a, c, b, e), d.holds(a, e, b, c))


def order_invariant(d, window):
    """Whether all increasing index quadruples of an all-distinct window
    share one pairing pattern.  Returns (verdict, witness or None)."""
    window = tuple(window)
    seen = None
    for quad in itertools.combinations(window, 4):
        pat = quad_pattern(d, *quad)
        if seen is None:
            seen = (quad, pat)
        elif pat != seen[1]:
            return False, {"first": seen, "second": (quad, pat)}
    return True, None


def classify_oracle(d, col):
    """classify_window's label and witness, as a dict, from a scalar scan of
    the index quadruples of a singleton window in increasing order."""
    col = list(col)
    if len(set(col)) == 1:
        return {"label": "constant"}
    for j, v in enumerate(col):
        if v in col[:j]:
            witness = {"kind": "repeat", "indices": [col.index(v), j], "element": v}
            return {"label": "not_indiscernible", "witness": witness}
    quads = list(itertools.combinations(range(len(col)), 4))
    patterns = [list(quad_pattern(d, *(col[i] for i in q))) for q in quads]
    for q, pat in zip(quads, patterns):
        if pat != patterns[0]:
            witness = {
                "kind": "order",
                "quad_a": list(quads[0]),
                "pattern_a": patterns[0],
                "quad_b": list(q),
                "pattern_b": pat,
            }
            return {"label": "not_indiscernible", "witness": witness}
    if patterns[0] == [False, False, False]:
        return {"label": "petaled"}
    if patterns[0] == [True, False, False]:
        return {"label": "monotonic"}
    witness = {"kind": "forbidden_pattern", "quad": list(quads[0]), "pattern": patterns[0]}
    return {"label": "not_indiscernible", "witness": witness}


# ---------------------------------------------------------------------------
# weak indiscernibility over parameters


def weak_oracle(d, rows, params):
    """weakly_indiscernible_over's verdict and witness from a scalar scan.

    Slot layouts (1 = window slot) run in product order, skipping the pure
    ones; within a layout, fillings run in product order, window slots over
    (column, row) column-major and parameter slots over the sorted
    parameters.  The witness is the first filling whose atom differs from
    the first filling with the same key: slot kinds, parameters, columns
    and the order/equality pattern of the window rows.
    """
    rows = [tuple(r) for r in rows]
    params = sorted(set(params))
    if not params:
        return True, None
    m, k = len(rows), len(rows[0])
    cells = [(c, r) for c in range(k) for r in range(m)]
    for layout in itertools.product((0, 1), repeat=4):
        if not 0 < sum(layout) < 4:
            continue
        seen = {}
        for filling in itertools.product(*(cells if flag else params for flag in layout)):
            key, window_rows, slots = [], [], []
            for flag, item in zip(layout, filling):
                if flag:
                    c, r = item
                    key.append(("col", c))
                    window_rows.append(r)
                    slots.append({"kind": "window", "column": c, "row": r, "id": rows[r][c]})
                else:
                    key.append(("param", item))
                    slots.append({"kind": "param", "id": item})
            for a, b in itertools.combinations(window_rows, 2):
                key.append((a > b) - (a < b))
            args = [slot["id"] for slot in slots]
            atom = {"slots": slots, "args": args, "value": d.holds(*args)}
            first = seen.setdefault(tuple(key), atom)
            if first["value"] != atom["value"]:
                return False, {"kind": "order_type", "first": first, "second": atom}
    return True, None


# ---------------------------------------------------------------------------
# tree shape counting via skeletons


def _prufer_trees(n):
    """Edge lists of all labeled trees on nodes 0..n-1."""
    if n == 1:
        yield []
        return
    if n == 2:
        yield [(0, 1)]
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        edges = []
        work = list(seq)
        avail = sorted(i for i in range(n) if degree[i] == 1)
        for v in work:
            leaf = avail.pop(0)
            edges.append((leaf, v))
            degree[v] -= 1
            if degree[v] == 1:
                bisect.insort(avail, v)
        edges.append((avail[0], avail[1]))
        yield edges


def _shape_code(edges, leaf_nodes, root):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)

    def code(u, parent):
        kids = sorted(code(v, u) for v in adj.get(u, ()) if v != parent)
        token = "L" if u in leaf_nodes else "N"
        return token + "(" + "".join(kids) + ")"

    return code(root, None)


def shape_key(edges, leaf_nodes, nodes):
    """Rooting-independent canonical code: minimum over all roots."""
    return min(_shape_code(edges, leaf_nodes, r) for r in nodes)


@lru_cache(maxsize=None)
def _skeletons(j):
    """One Pruefer skeleton on j internal nodes per shape, by shape_key."""
    found = {}
    for edges in _prufer_trees(j):
        found.setdefault(shape_key(edges, frozenset(), tuple(range(j))), edges)
    return list(found.values())


@lru_cache(maxsize=None)
def count_shapes(k):
    """Isomorphism classes of k-leaf trees with no binary internal nodes,
    counted by attaching leaves to one Pruefer skeleton of internal nodes
    per skeleton shape (isomorphic skeletons give the same trees) and
    deduplicating on a canonical code."""
    if k <= 0:
        return 0
    if k in (1, 2):
        return 1
    codes = set()
    for j in range(1, k - 1):
        for skel_edges in _skeletons(j):
            degree = [0] * j
            for u, v in skel_edges:
                degree[u] += 1
                degree[v] += 1
            minima = [max(0, 3 - degree[i]) for i in range(j)]
            spare = k - sum(minima)
            if spare < 0:
                continue
            for extra in _compositions(spare, j):
                counts = [minima[i] + extra[i] for i in range(j)]
                edges = list(skel_edges)
                leaf_nodes = set()
                nxt = j
                for host, cnt in enumerate(counts):
                    for _ in range(cnt):
                        edges.append((host, nxt))
                        leaf_nodes.add(nxt)
                        nxt += 1
                nodes = tuple(range(nxt))
                codes.add(shape_key(edges, frozenset(leaf_nodes), nodes))
    return len(codes)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head, *rest)
