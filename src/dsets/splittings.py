"""Splittings of a D-set and the operations that move between them.

A splitting partitions the elements the way an internal tree node (or an
edge) separates the leaves: pairs inside one sector are separated from
everything outside, and elements of four different sectors are never in
relation.  Everything downstream of the tree correspondence (extension
moves, homogeneity probes, hulls) speaks in splittings rather than raw
quadruples.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import DSet, InputError, InvariantViolation, check_axioms, relation_table
from .core import _canonical_rows, _first_true, _kept, _require_core, _require_ids, _sort_rows


@dataclass(frozen=True)
class Splitting:
    """Partition of element ids into at least two sectors.

    Sectors are stored as frozensets, sorted by (min element, size, sorted
    content) so equal partitions compare equal structurally.  A splitting
    with exactly two sectors is an edge splitting, any other a node
    splitting; the ground set need not be a whole D-set (induced
    splittings live on subsets).
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
            _require_ids(itertools.chain.from_iterable(sectors))
            normalized = [frozenset(map(int, s)) for s in sectors]
            if len(frozenset().union(*normalized)) != sum(map(len, normalized)):
                raise InputError("sectors overlap")
        # Disjoint sectors have distinct minima, which settle the order.
        normalized.sort(key=min)
        object.__setattr__(self, "sectors", tuple(normalized))

    @classmethod
    def build(cls, sectors: Iterable[Iterable[int]]) -> "Splitting":
        return cls(sectors)

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
        return json.dumps(
            {"sectors": self.as_sorted_lists()}, sort_keys=True, separators=(",", ":")
        )

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
        raise InputError(
            "splitting JSON must be an object with a 'sectors' key "
            "or a bare list of sectors"
        )


def is_splitting(
    d: DSet, candidate: Splitting | Iterable[Iterable[int]]
) -> tuple[bool, Optional[dict]]:
    """Check the two defining conditions over d, returning a witness on failure.

    Accepts a Splitting or raw cells; overlapping or empty cells raise.
    Separation: whenever a, b lie in a common sector and c, d (not
    necessarily distinct, not necessarily sharing a sector) lie outside it,
    D(ab;cd) holds.  Four sectors: elements of four pairwise different
    sectors are never in relation, in any pairing.
    """
    if not isinstance(candidate, Splitting):
        candidate = Splitting.build(candidate)
    if candidate.ground != d.elements:
        return False, {
            "kind": "ground_mismatch",
            "expected": sorted(d.elements),
            "got": sorted(candidate.ground),
        }
    if len(candidate.sectors) < 2:
        return False, {"kind": "too_few_sectors", "count": len(candidate.sectors)}
    t = relation_table(d)
    sectors = [sorted(sec) for sec in candidate.sectors]
    for inside in sectors:
        outside = sorted(d.elements.difference(inside))
        # [a, b, c, dd] over a <= b inside and c <= dd outside, in loop order.
        fails = ~t[np.ix_(inside, inside, outside, outside)]
        fails &= np.tri(len(inside), dtype=bool).T[:, :, None, None] & np.tri(len(outside), dtype=bool).T
        found = _first_true(fails)
        if found is not None:
            i, j, p, q = found
            return False, {
                "kind": "separation_fails",
                "pair": [inside[i], inside[j]],
                "other": [outside[p], outside[q]],
            }
    if len(sectors) < 4:
        return True, None
    # Four elements from four sectors, sector combination by sector
    # combination and then in id order within each: the first related one
    # is least in (the sectors of a, b, c, dd in order, then a, b, c, dd).
    lab = np.empty(d.n, dtype=np.int64)
    for i, sec in enumerate(sectors):
        lab[sec] = i
    a, b, c, dd = np.ix_(*[lab] * 4)
    bad = (t | t.transpose(0, 2, 1, 3) | t.transpose(0, 2, 3, 1)) & (a < b) & (b < c) & (c < dd)
    if bad.any():
        found = np.nonzero(bad)
        k = np.lexsort(found[::-1] + tuple(lab[v] for v in found[::-1]))[0]
        return False, {"kind": "four_sector_relation", "elements": [int(v[k]) for v in found]}
    return True, None


def _set_partitions(elems: Sequence[int]):
    """Every partition of elems into nonempty blocks."""
    if not elems:
        yield []
        return
    first, rest = elems[0], elems[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _brute_force_splittings(d: DSet) -> list[Splitting]:
    elems = sorted(d.elements)
    found = []
    for part in _set_partitions(elems):
        if len(part) < 2:
            continue
        cand = Splitting.build(part)
        ok, _ = is_splitting(d, cand)
        if ok:
            found.append(cand)
    return found


def enumerate_splittings(d: DSet, method: str = "auto") -> list[Splitting]:
    """All splittings of d, deduplicated and sorted canonically.

    method "brute" filters every partition, Bell(n) of them, so it is
    capped at 10 elements (InputError above that, as for backtracking
    isomorphism); "tree" reads them off the reconstructed tree (requires
    D1..D4) and keeps the result on d; "auto" picks brute force for a
    table of n <= 6 that fails D1..D4 and the tree route otherwise.  Each
    call returns a fresh list.  The two routes agree on every D-set.
    """
    if method not in ("auto", "brute", "tree"):
        raise InputError(f"unknown method {method!r}")
    if method == "auto":
        method = "brute" if d.n <= 6 and not check_axioms(d).core_pass else "tree"
    if method == "brute":
        if d.n > 10:
            raise InputError(f"brute-force splittings capped at 10 elements, got {d.n}")
        return _sorted_splittings(_brute_force_splittings(d))
    return list(_tree_splittings(d))


def _sorted_splittings(found: Iterable[Splitting]) -> list[Splitting]:
    return sorted(set(found), key=lambda s: s.as_sorted_lists())


@_kept
def _tree_splittings(d: DSet) -> tuple[Splitting, ...]:
    """The splittings read off d's reconstructed tree, kept on d."""
    from .trees import splittings_from_tree, tree_from_dset

    return tuple(_sorted_splittings(splittings_from_tree(tree_from_dset(d)).all_splittings()))


def branch(d: DSet, a: int, b: int, c: int) -> list[int]:
    """The branch of a over {b, c}: all x other than a with D(bc;ax)."""
    if len({a, b, c}) != 3:
        raise InputError("branch needs three distinct elements")
    for v in (a, b, c):
        if isinstance(v, bool) or v not in d.elements:
            raise InputError(f"unknown element {v}")
    return [int(x) for x in np.flatnonzero(relation_table(d)[b, c, a]) if x != a]


def induced_splitting(d: DSet, subset: Iterable[int], e: int) -> Splitting:
    """How an outside element e groups the subset, seen from e.

    a and b land in one sector exactly when some x in the subset separates
    the pair ab from ex.  For a tree this is the splitting at the node or
    edge where the path from e enters the subset's hull.  The grouping is
    defensively checked to be an equivalence with at least two classes;
    failures mean d is not a D-set on the subset plus e and are reported
    as input errors.
    """
    _require_ids([e])
    sub = sorted(set(int(v) for v in _require_ids(subset)))
    if e in sub:
        raise InputError(f"element {e} must lie outside the subset")
    if len(sub) < 2:
        raise InputError("need at least two elements to induce a splitting")
    known = d.elements
    for a in sub + [e]:
        if a not in known:
            raise InputError(f"unknown element {a}")

    # related[i][j]: some x in the subset has D(sub[i] sub[j]; e x).
    related = relation_table(d)[:, :, e, :][np.ix_(sub, sub, sub)].any(axis=-1).tolist()
    index = {a: i for i, a in enumerate(sub)}
    classes: list[set[int]] = []
    for a in sub:
        placed = None
        for cls in classes:
            rep = next(iter(cls))
            if related[index[a]][index[rep]]:
                if placed is not None:
                    raise InputError(
                        f"grouping induced by {e} is not an equivalence on {sub}"
                    )
                cls.add(a)
                placed = cls
        if placed is None:
            classes.append({a})
    for cls in classes:
        members = sorted(cls)
        for a, b in itertools.combinations(members, 2):
            if not related[index[a]][index[b]]:
                raise InputError(
                    f"grouping induced by {e} is not transitive at {a},{b}"
                )
    if len(classes) < 2:
        raise InputError(f"grouping induced by {e} on {sub} has a single class")
    return Splitting.build(classes)


def complementary(d: DSet, s: Splitting, sector: Iterable[int], a: int) -> int:
    """The least b in the sector such that ab is never across-separated.

    b is complementary to a when no c in the sector and no x outside it
    (within the splitting's ground set) satisfy D(ab;cx).  At least one b
    always exists for valid input; for a singleton sector it is a itself.
    """
    sec = frozenset(int(v) for v in sector)
    if sec not in s.sectors:
        raise InputError("sector does not belong to the splitting")
    if isinstance(a, bool) or a not in sec:
        raise InputError(f"element {a} not in the given sector")
    for v in sorted(s.ground):
        if not 0 <= v < d.n:
            raise InputError(f"element {v} out of range 0..{d.n - 1}")
    inside, outside = sorted(sec), sorted(s.ground - sec)
    # [b, c, x]: D(ab;cx) for b, c inside and x outside.
    separated = relation_table(d)[a][np.ix_(inside, inside, outside)].any(axis=(1, 2))
    if not separated.all():
        return inside[int(np.argmin(separated))]
    raise InvariantViolation(f"no complementary element for {a} in sector {inside}")


def extend_by_point(d: DSet, s: Splitting) -> DSet:
    """Grow d by one fresh element e positioned exactly at the splitting.

    The fresh element gets id d.n and color 0.  New relation values follow
    two regimes: a pair a, b from different sectors is never separated
    from a pair containing e; a pair a, b inside one sector S gets
    D(ab;ce) the value of D(ab;c x0) for x0 the least element outside S.
    The input must pass D1..D4 (InputError otherwise); the result then
    passes D1..D4 and induces s back on the old elements.
    """
    ok, witness = is_splitting(d, s)
    if not ok:
        raise InputError(f"not a splitting of the input: {witness}")
    if d.n < 2:
        raise InputError("need at least two elements to extend")
    _require_core(d)
    e = d.n
    t = relation_table(d)
    grown = [d.rows]
    for sec in s.sectors:
        a, b = np.array(list(itertools.combinations(sorted(sec), 2)), dtype=np.int64).reshape(-1, 2).T
        # [pair, c] -> D(ab; c x0), false for c in {a, b}
        p, c = np.nonzero(t[a, b, :, min(d.elements - sec)])
        grown.append(_canonical_rows(np.stack([a[p], b[p], c, np.full(len(c), e)], axis=1)))
    rows = _sort_rows(np.concatenate(grown), e + 1)[0]
    return DSet._from_rows(e + 1, rows, d.colors + (0,))


def _suitable(d: DSet, sector: frozenset[int], x: int, ground: frozenset[int]) -> bool:
    """x fits `sector` inside `ground`: every a in the sector separates ax
    from every pair outside the sector."""
    rest = sorted(ground - sector)
    return bool(relation_table(d)[np.ix_(sorted(sector), [x], rest, rest)].all())


def extend_splitting(
    d: DSet,
    subset: Iterable[int],
    s: Splitting,
    policy: str = "least",
    order: Optional[Sequence[int]] = None,
) -> Splitting:
    """Grow a splitting of a subset to one of the whole D-set.

    Remaining elements are absorbed in increasing id order (`order`
    overrides; it exists so order independence can be exercised).  Each
    new x joins the unique sector it is suitable for, or opens a singleton
    sector when it suits none.  Two suitable sectors can only happen while
    the splitting has exactly two sectors; the tie is resolved by policy:
    "least" joins the suitable sector holding the least id, "other" the
    other suitable sector, "new" opens a singleton between them.  Two
    suitable sectors among three or more signal corrupt input.
    """
    if policy not in ("least", "other", "new"):
        raise InputError(f"unknown policy {policy!r}")
    sub = frozenset(int(v) for v in _require_ids(subset))
    if s.ground != sub:
        raise InputError("splitting does not cover the given subset")
    if not sub <= d.elements:
        raise InputError("subset reaches outside the D-set")
    missing = sorted(d.elements - sub)
    if order is not None:
        order_list = [int(v) for v in _require_ids(order)]
        if sorted(order_list) != missing:
            raise InputError("order must enumerate exactly the uncovered elements")
    else:
        order_list = missing

    sectors = [set(sec) for sec in s.sectors]
    ground = set(sub)
    for x in order_list:
        frozen = [frozenset(sec) for sec in sectors]
        fits = sorted(
            (i for i, sec in enumerate(frozen) if _suitable(d, sec, x, frozenset(ground))),
            key=lambda i: min(frozen[i]),
        )
        if len(fits) == 1:
            sectors[fits[0]].add(x)
        elif not fits:
            sectors.append({x})
        elif len(frozen) > 2:
            raise InputError(
                f"element {x} fits two sectors of a many-sector splitting"
            )
        elif policy == "least":
            sectors[fits[0]].add(x)
        elif policy == "other":
            sectors[fits[1]].add(x)
        else:
            sectors.append({x})
        ground.add(x)
    return Splitting.build(sectors)


def one_sector(d: DSet, c1: Splitting, c2: Splitting) -> frozenset[int]:
    """The sector of c2 containing all but one sector of c1.

    For two different splittings of one D-set exactly one such sector
    exists; anything else signals corrupt input.
    """
    if c1 == c2:
        raise InputError("the two splittings must differ")
    wanted = len(c1.sectors) - 1
    hits = []
    for sec in c2.sectors:
        inside = sum(1 for t in c1.sectors if t <= sec)
        if inside >= wanted:
            hits.append(sec)
    if len(hits) != 1:
        raise InvariantViolation(
            f"expected exactly one swallowing sector, found {len(hits)}"
        )
    return hits[0]


def is_regular(d: DSet) -> tuple[bool, Optional[int]]:
    """Whether all node splittings have the same number of sectors.

    Returns (True, count) with the common count, (True, None) when there
    is no node splitting at all, (False, None) otherwise.
    """
    counts = {
        len(s.sectors) for s in enumerate_splittings(d) if len(s.sectors) > 2
    }
    if not counts:
        return True, None
    if len(counts) == 1:
        return True, counts.pop()
    return False, None


def is_true_edge_splitting(d: DSet, p: Splitting | Iterable[Iterable[int]]) -> bool:
    """Two non-singleton sectors and no node splitting refining p.

    A node splitting refines p when each of its sectors lies inside one of
    p's two.  On D-sets of finite trees every edge has an incident node
    whose splitting refines the edge's, so this is False throughout; the
    notion only bites in infinite settings.
    """
    if not isinstance(p, Splitting):
        p = Splitting.build(p)
    ok, _ = is_splitting(d, p)
    if not ok:
        return False
    if len(p.sectors) != 2:
        return False
    if any(len(sec) == 1 for sec in p.sectors):
        return False
    for other in enumerate_splittings(d):
        if len(other.sectors) <= 2:
            continue
        if all(any(t <= sec for sec in p.sectors) for t in other.sectors):
            return False
    return True


def density_witnesses(d: DSet, w: int, x: int, y: int, z: int) -> list[int]:
    """All v that witness density (D6) for the quad wx|yz.

    Requires D(wx;yz) to hold; a witness v satisfies D(vx;yz), D(wv;yz)
    and D(wx;vz) simultaneously.
    """
    if not d.holds(w, x, y, z):
        raise InputError(f"D({w}{x};{y}{z}) does not hold")
    t = relation_table(d)
    return np.flatnonzero(t[:, x, y, z] & t[w, :, y, z] & t[w, x, :, z]).tolist()
