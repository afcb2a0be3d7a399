"""Splittings of a D-set and the operations that move between them.

A splitting partitions the elements the way an internal tree node (or an
edge) separates the leaves: pairs inside one sector are separated from
everything outside, and elements of four different sectors are never in
relation.  Everything downstream of the tree correspondence (extension
moves, homogeneity probes, hulls) speaks in splittings rather than raw
quadruples.  The Splitting type lives in trees, which reads splittings off
a tree; every D-set takes that route unless brute force is asked for.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import trees
from .core import DSet, InputError, InvariantViolation, _atoms, _first_true, _grid, _kept, _require_core
from .core import _require_dset, _require_ids, _tree_record, check_axioms
from .trees import Splitting

SplittingLike = Union[Splitting, Iterable[Iterable[int]]]


def _as_splitting(s: SplittingLike) -> Splitting:
    """s itself if it is a Splitting, else the Splitting of its sectors."""
    return s if isinstance(s, Splitting) else Splitting(s)


def _subset_outside(d: DSet, subset: Iterable[int], *outside: int) -> tuple[list[int], list[int]]:
    """The subset, sorted, and the `outside` ids, once all are elements of d
    and the two are disjoint."""
    outside = _require_ids(outside, d)
    sub = sorted(set(_require_ids(subset, d)))
    for e in outside:
        if e in sub:
            raise InputError(f"element {e} must lie outside the subset")
    return sub, outside


def is_splitting(d: DSet, candidate: SplittingLike) -> tuple[bool, Optional[dict]]:
    """Check the two defining conditions over d, returning a witness on failure.

    Accepts a Splitting or raw cells; overlapping or empty cells raise.
    Separation: whenever a, b lie in a common sector and c, d (not
    necessarily distinct, not necessarily sharing a sector) lie outside it,
    D(ab;cd) holds.  Four sectors: elements of four pairwise different
    sectors are never in relation, in any pairing.
    """
    _require_dset(d)
    candidate = _as_splitting(candidate)
    if candidate.ground != d.elements:
        return False, {"kind": "ground_mismatch", "expected": sorted(d.elements), "got": sorted(candidate.ground)}
    if len(candidate.sectors) < 2:
        return False, {"kind": "too_few_sectors", "count": len(candidate.sectors)}
    sectors = [sorted(sec) for sec in candidate.sectors]
    for inside in sectors:
        outside = sorted(d.elements.difference(inside))
        # [a, b, c, dd] over a <= b inside and c <= dd outside, in loop order.
        fails = ~_atoms(d, *_grid(inside, inside, outside, outside))
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
    t = _atoms(d, *[slice(None)] * 4)
    a, b, c, dd = _grid(*[lab] * 4)
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


@_kept
def _brute_force_splittings(d: DSet) -> tuple[Splitting, ...]:
    """The partitions of d's elements into two or more sectors that pass
    is_splitting, sorted canonically and kept on d."""
    parts = (part for part in _set_partitions(list(range(d.n))) if len(part) > 1)
    cands = (Splitting._trusted(tuple(sorted(map(frozenset, part), key=min))) for part in parts)
    return tuple(sorted((s for s in cands if is_splitting(d, s)[0]), key=Splitting.as_sorted_lists))


def enumerate_splittings(d: DSet, method: str = "auto") -> list[Splitting]:
    """All splittings of d, deduplicated and sorted canonically.

    method "brute" filters every partition, Bell(n) of them, so it is
    capped at 10 elements (InputError above that, as for backtracking
    isomorphism); "tree" reads them off the reconstructed tree (requires
    D1..D4, else NotRepresentable); "auto" picks brute force for a table of
    n <= 6 that fails D1..D4 and the tree route otherwise.  Each route keeps
    its result on d; each call returns a fresh list.  The routes agree on D-sets.
    """
    _require_dset(d)
    if method not in ("auto", "brute", "tree"):
        raise InputError(f"unknown method {method!r}")
    if method == "auto":
        method = "brute" if d.n <= 6 and not check_axioms(d).core_pass else "tree"
    if method == "brute":
        if d.n > 10:
            raise InputError(f"brute-force splittings capped at 10 elements, got {d.n}")
        return list(_brute_force_splittings(d))
    return list(_tree_splittings(d).ordered)


@_kept
def _tree_splittings(d: DSet) -> trees.TreeCorrespondence:
    """The splittings read off d's reconstructed tree with their nodes and
    edges, kept on d for enumerate_splittings and extend_by_point: read off
    the kept record, once tree_from_dset has refused a d failing D1..D4."""
    return trees._correspondence(trees.tree_from_dset(d).nodes, *_tree_record(d)[:2])


def branch(d: DSet, a: int, b: int, c: int) -> list[int]:
    """The branch of a over {b, c}: all x other than a with D(bc;ax)."""
    a, b, c = _require_ids((a, b, c), d)
    if len({a, b, c}) != 3:
        raise InputError("branch needs three distinct elements")
    return [x for x in np.flatnonzero(_atoms(d, b, c, a, slice(None))).tolist() if x != a]


def induced_splitting(d: DSet, subset: Iterable[int], e: int) -> Splitting:
    """How an outside element e groups the subset, seen from e.

    a and b land in one sector exactly when some x in the subset separates
    the pair ab from ex.  For a tree this is the splitting at the node or
    edge where the path from e enters the subset's hull.  One test over the
    whole grouping checks that it is an equivalence with at least two
    classes; failures mean d is not a D-set on the subset plus e and are
    reported as input errors.
    """
    sub, (e,) = _subset_outside(d, subset, e)
    if len(sub) < 2:
        raise InputError("need at least two elements to induce a splitting")
    return _induced(d, sub, e)


def _induced(d: DSet, sub: list[int], e: int) -> Splitting:
    """induced_splitting of a checked, sorted subset of two or more ids and a checked e outside it."""
    # related[i, j]: some x in the subset has D(sub[i] sub[j]; e x).  It is an
    # equivalence exactly when two elements are related just when their least
    # related elements agree; those least elements then name the classes.
    related = _atoms(d, *_grid(sub, sub, [e], sub))[:, :, 0].any(axis=-1)
    least = related.argmax(axis=1)
    if not (related == (least[:, None] == least)).all():
        raise InputError(f"grouping induced by {e} is not an equivalence on {sub}")
    classes: dict[int, list[int]] = {}
    for a, k in zip(sub, least.tolist()):
        classes.setdefault(k, []).append(a)
    if len(classes) < 2:
        raise InputError(f"grouping induced by {e} on {sub} has a single class")
    # sub is sorted, so each class first appears at its least element.
    return Splitting._trusted(tuple(map(frozenset, classes.values())))


def complementary(d: DSet, s: SplittingLike, sector: Iterable[int], a: int) -> int:
    """The least b in the sector such that ab is never across-separated.

    b is complementary to a when no c in the sector and no x outside it
    (within the splitting's ground set) satisfy D(ab;cx).  At least one b
    always exists for valid input; for a singleton sector it is a itself.
    """
    s = _as_splitting(s)
    sec = frozenset(_require_ids(sector, d))
    if sec not in s.sectors:
        raise InputError("sector does not belong to the splitting")
    (a,) = _require_ids([a], d)
    if a not in sec:
        raise InputError(f"element {a} not in the given sector")
    return _complementary(d, a, sorted(sec), _require_ids(sorted(s.ground - sec), d))


def _complementary(d: DSet, a: int, inside: list[int], outside: list[int]) -> int:
    """complementary's b for a in the sorted sector `inside`, `outside` the rest of the ground, sorted; unchecked."""
    # [b, c, x]: D(ab;cx) for b, c inside and x outside.
    separated = _atoms(d, a, *_grid(inside, inside, outside)).any(axis=(1, 2))
    if not separated.all():
        return inside[int(np.argmin(separated))]
    raise InvariantViolation(f"no complementary element for {a} in sector {inside}")


def extend_by_point(d: DSet, s: SplittingLike) -> DSet:
    """Grow d by one fresh element e positioned exactly at the splitting.

    The fresh element gets id d.n and color 0.  The input must pass D1..D4
    (InputError otherwise).  s is looked up in d's kept tree
    correspondence; a miss runs is_splitting, then the D1..D4 gate, to name
    the fault.  The result is read off d's tree with e grafted at s's
    feature: a new leaf on s's node, or on a new node subdividing s's edge.
    It keeps that tree, and so passes D1..D4 and induces s back on the old
    elements.
    """
    s = _as_splitting(s)
    found = _tree_splittings(d) if check_axioms(d).core_pass else trees.TreeCorrespondence((), (), ())
    feature = {split: f for f, split in found.node_splittings + found.edge_splittings}.get(s)
    if feature is None:
        ok, witness = is_splitting(d, s)
        if not ok:
            raise InputError(f"not a splitting of the input: {witness}")
        _require_core(d)
        raise InvariantViolation(f"splitting {s.as_sorted_lists()} is no feature of the tree")
    return trees.d_from_tree(trees._graft(trees.tree_from_dset(d), feature)).recolor(d.colors + (0,))


def _suitable(d: DSet, sector: set[int], x: int, ground: set[int]) -> bool:
    """x fits `sector` inside `ground`: every a in the sector separates ax
    from every pair outside the sector."""
    rest = sorted(ground - sector)
    return bool(_atoms(d, *_grid(sorted(sector), [x], rest, rest)).all())


def extend_splitting(
    d: DSet, subset: Iterable[int], s: SplittingLike, order: Optional[Sequence[int]] = None
) -> Splitting:
    """Grow a splitting of a subset to one of the whole D-set.

    Remaining elements are absorbed in increasing id order (`order`
    overrides; it exists so order independence can be exercised).  Each
    new x joins the unique sector it is suitable for, or opens a singleton
    sector when it suits none.  Two suitable sectors can only happen while
    the splitting has exactly two sectors; x then joins the one holding
    the least id.  Two suitable sectors among three or more signal corrupt
    input.
    """
    sub, s = frozenset(_require_ids(subset, d)), _as_splitting(s)
    if s.ground != sub:
        raise InputError("splitting does not cover the given subset")
    missing = sorted(d.elements - sub)
    if order is not None:
        order_list = _require_ids(order, d)
        if sorted(order_list) != missing:
            raise InputError("order must enumerate exactly the uncovered elements")
    else:
        order_list = missing

    sectors = [set(sec) for sec in s.sectors]
    ground = set(sub)
    for x in order_list:
        fits = sorted((sec for sec in sectors if _suitable(d, sec, x, ground)), key=min)
        if not fits:
            sectors.append({x})
        elif len(fits) == 1 or len(sectors) <= 2:
            fits[0].add(x)
        else:
            raise InputError(f"element {x} fits two sectors of a many-sector splitting")
        ground.add(x)
    return Splitting._trusted(tuple(sorted(map(frozenset, sectors), key=min)))


def one_sector(d: DSet, c1: SplittingLike, c2: SplittingLike) -> frozenset[int]:
    """The sector of c2 containing all but one sector of c1.

    For two different splittings of one D-set exactly one such sector
    exists; any other pair is refused as bad input.
    """
    _require_dset(d)
    c1, c2 = _as_splitting(c1), _as_splitting(c2)
    if c1 == c2:
        raise InputError("the two splittings must differ")
    hits = [sec for sec in c2.sectors if sum(t <= sec for t in c1.sectors) >= len(c1.sectors) - 1]
    if len(hits) != 1:
        raise InputError(f"expected exactly one swallowing sector, found {len(hits)}")
    return hits[0]


def is_regular(d: DSet) -> tuple[bool, Optional[int]]:
    """Whether all node splittings have the same number of sectors.

    Returns (True, count) with the common count, (True, None) when there
    is no node splitting at all, (False, None) otherwise.
    """
    counts = {len(s.sectors) for s in enumerate_splittings(d) if len(s.sectors) > 2}
    if len(counts) > 1:
        return False, None
    return True, next(iter(counts), None)


def is_true_edge_splitting(d: DSet, p: SplittingLike) -> bool:
    """Two non-singleton sectors and no node splitting refining p.

    A node splitting refines p when each of its sectors lies inside one of
    p's two.  Each edge of a D-set's finite tree has an incident node whose
    splitting refines the edge's, so a D-set answers False unsearched; the
    notion only bites in infinite settings.  Other tables are searched
    through enumerate_splittings, which raises NotRepresentable above 6 elements.
    """
    p = _as_splitting(p)
    if check_axioms(d).core_pass or not is_splitting(d, p)[0] or len(p.sectors) != 2 or min(map(len, p.sectors)) == 1:
        return False
    nodes = (other for other in enumerate_splittings(d) if len(other.sectors) > 2)
    return not any(all(any(t <= sec for sec in p.sectors) for t in other.sectors) for other in nodes)


def density_witnesses(d: DSet, w: int, x: int, y: int, z: int) -> list[int]:
    """All v that witness density (D6) for the quad wx|yz.

    Requires D(wx;yz) to hold; a witness v satisfies D(vx;yz), D(wv;yz)
    and D(wx;vz) simultaneously.
    """
    if not _atoms(d, *_require_ids((w, x, y, z), d)):
        raise InputError(f"D({w}{x};{y}{z}) does not hold")
    v = slice(None)
    return np.flatnonzero(_atoms(d, v, x, y, z) & _atoms(d, w, v, y, z) & _atoms(d, w, x, v, z)).tolist()
