"""Quantifier-free types over a subset and partial isomorphism machinery.

The type of an outside element e over a set A is pinned down by at most
three elements of A: the induced splitting decides a node or an edge
case, a small base is read off, and every atom D(ex;yz) is recovered from
the base by a three-way case split.  On top of that sit the validator and
one-step extender for partial isomorphisms, a report of the conditions a
colored D-set must meet to be homogeneous, and the two counterexample
constructions that produce non-extendable partial isomorphisms when those
conditions fail.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

import numpy as np

from .core import DSet, InputError, InvariantViolation, check_axioms, relation_table
from .splittings import (
    Splitting,
    complementary,
    density_witnesses,
    enumerate_splittings,
    induced_splitting,
    is_regular,
)

PairsLike = Union[Mapping[int, int], Iterable[tuple[int, int]]]


def _as_map(m: PairsLike) -> dict[int, int]:
    if isinstance(m, Mapping):
        items = [(int(a), int(b)) for a, b in m.items()]
    else:
        items = [(int(a), int(b)) for a, b in m]
    out: dict[int, int] = {}
    for a, b in items:
        if a in out and out[a] != b:
            raise InputError(f"element {a} mapped twice")
        out[a] = b
    if len(set(out.values())) != len(out):
        raise InputError("map is not injective")
    return out


@dataclass(frozen=True)
class QftpBase:
    """Base of the quantifier-free type of `element` over `subset`.

    case "node" or "edge" carries the induced splitting and a base of at
    most three subset elements; case "small" (subset of size < 3) stores
    the atom table outright.  predict() answers D(e x; y z) for subset
    x, y, z from the base alone; construction verifies the prediction
    against the real relation on every triple, so a constructed instance
    is trustworthy.

    Two bases compare equal exactly when the types agree: the case, the
    induced splitting and the base are all determined by the type.
    """

    dset: DSet
    subset: tuple[int, ...]
    element: int
    case: str
    base: tuple[int, ...]
    splitting: Optional[Splitting]
    atoms: Optional[frozenset] = None

    def predict(self, x: int, y: int, z: int) -> bool:
        """Predicted value of D(e x; y z) for subset elements x, y, z."""
        for v in (x, y, z):
            if v not in self.subset:
                raise InputError(f"element {v} outside the subset")
        if self.case == "small":
            return (x, y, z) in self.atoms  # type: ignore[operator]
        if x == y or x == z:
            return False
        s = self.splitting
        assert s is not None
        if not s.same_sector(y, z):
            return False
        if not s.same_sector(x, y):
            return True
        stand_in = min(b for b in self.base if b not in s.sector_of(x))
        return self.dset.holds(stand_in, x, y, z)

    def shares_sector(self, x: int, y: int) -> bool:
        """Base-only share-a-sector predicate (node case) or side test (edge)."""
        if self.case == "small":
            raise InputError("no splitting in the small case")
        if self.case == "node":
            a, b, c = self.base
            return (
                self.dset.holds(x, y, a, b)
                or self.dset.holds(x, y, a, c)
                or self.dset.holds(x, y, b, c)
            )
        p, q, r = self.base
        return self.dset.holds(p, q, r, x) == self.dset.holds(p, q, r, y)


def _verify_base(qb: QftpBase) -> None:
    d, e = qb.dset, qb.element
    elems = np.array(qb.subset)
    k = len(elems)
    t = relation_table(d)
    actual = t[e][np.ix_(elems, elems, elems)]
    s = qb.splitting
    assert s is not None
    sec_index = {sec: i for i, sec in enumerate(s.sectors)}
    sec_id = np.array([sec_index[s.sector_of(int(a))] for a in elems])
    x_sec = sec_id[:, None, None]
    y_sec = sec_id[None, :, None]
    z_sec = sec_id[None, None, :]
    x_el = elems[:, None, None]
    y_el = elems[None, :, None]
    z_el = elems[None, None, :]
    clash = (x_el == y_el) | (x_el == z_el)
    same_yz = y_sec == z_sec
    pred = same_yz & (x_sec != y_sec) & ~clash
    stand_in = np.array(
        [
            min(b for b in qb.base if b not in s.sector_of(int(a)))
            for a in elems
        ]
    )
    substituted = t[
        stand_in[:, None, None],
        np.broadcast_to(x_el, actual.shape),
        np.broadcast_to(y_el, actual.shape),
        np.broadcast_to(z_el, actual.shape),
    ]
    interior = same_yz & (x_sec == y_sec) & ~clash
    pred = np.where(interior, substituted, pred)
    if not np.array_equal(pred, actual):
        bad = np.argwhere(pred != actual)[0]
        raise InvariantViolation(
            f"type base fails to reproduce D(e,{elems[bad[0]]};"
            f"{elems[bad[1]]},{elems[bad[2]]})"
        )
    for x, y in itertools.combinations(sorted(int(v) for v in elems), 2):
        if qb.shares_sector(x, y) != s.same_sector(x, y):
            raise InvariantViolation(
                f"share-sector predicate disagrees with the splitting at {x},{y}"
            )


def qftp_base(d: DSet, subset: Iterable[int], e: int) -> QftpBase:
    """Type base of e over the subset.

    Subsets of size at least 3 go through the induced splitting: three or
    more sectors give the node case with the least elements of the three
    least sectors as base; two sectors give the edge case with base
    (p, q, r) for p the least element of the sector holding the subset
    minimum, q its complementary element there, r the least element of the
    other sector.  Smaller subsets are tabulated directly.  The returned
    scheme is verified to reproduce every atom D(e x; y z) exactly.
    """
    sub = tuple(sorted(set(int(v) for v in subset)))
    if e in sub:
        raise InputError(f"element {e} must lie outside the subset")
    for a in sub + (e,):
        if a not in d.elements:
            raise InputError(f"unknown element {a}")
    if len(sub) < 3:
        found = np.argwhere(relation_table(d)[e][np.ix_(sub, sub, sub)]).tolist()
        atoms = frozenset((sub[i], sub[j], sub[k]) for i, j, k in found)
        return QftpBase(d, sub, e, "small", (), None, atoms)
    s = induced_splitting(d, sub, e)
    if len(s.sectors) > 2:
        base = tuple(min(sec) for sec in s.sectors[:3])
        qb = QftpBase(d, sub, e, "node", base, s)
    else:
        first, second = s.sectors
        p = min(first)
        q = complementary(d, s, first, p)
        r = min(second)
        qb = QftpBase(d, sub, e, "edge", (p, q, r), s)
    _verify_base(qb)
    return qb


def same_qftp(d: DSet, subset: Iterable[int], e1: int, e2: int) -> bool:
    """Whether e1 and e2 have the same quantifier-free type over the subset.

    The type of e over A is its atom slice: the truth values of D(e x; y z)
    for x, y, z in A.  On a D-set every other atom over A plus e follows
    from these by pair symmetry or is forced by the degenerate rules.
    """
    sub = tuple(sorted(set(int(v) for v in subset)))
    for e in (e1, e2):
        if e in sub:
            raise InputError(f"element {e} must lie outside the subset")
        if e not in d.elements:
            raise InputError(f"unknown element {e}")
    t = relation_table(d)
    grid = np.ix_(sub, sub, sub)
    return bool(np.array_equal(t[e1][grid], t[e2][grid]))


def check_partial_iso(
    d1: DSet, d2: DSet, m: PairsLike
) -> tuple[bool, Optional[dict]]:
    """Validate a partial isomorphism candidate between two D-sets.

    Checks colors first, then every quadruple truth value over the domain
    against its image; the witness names the first violation.  Degenerate
    quadruples are preserved by any injective map and are skipped.
    """
    pairs = _as_map(m)
    for a, b in sorted(pairs.items()):
        if a not in d1.elements:
            raise InputError(f"unknown domain element {a}")
        if b not in d2.elements:
            raise InputError(f"unknown image element {b}")
    for a, b in sorted(pairs.items()):
        if d1.colors[a] != d2.colors[b]:
            return False, {"kind": "color", "element": a, "image": b}
    dom = np.array(sorted(pairs), dtype=int)
    if dom.size >= 4:
        img = np.array([pairs[int(a)] for a in dom], dtype=int)
        t1 = relation_table(d1)[np.ix_(dom, dom, dom, dom)]
        t2 = relation_table(d2)[np.ix_(img, img, img, img)]
        if not np.array_equal(t1, t2):
            i, j, k, l = np.argwhere(t1 != t2)[0]
            quad = [int(dom[i]), int(dom[j]), int(dom[k]), int(dom[l])]
            return False, {
                "kind": "quad",
                "quad": quad,
                "image": [pairs[v] for v in quad],
            }
    return True, None


def extend_partial_iso(d: DSet, m: PairsLike, x: int) -> list[int]:
    """All y that extend the partial isomorphism m by x -> y, sorted.

    A candidate y must be outside the current range, share x's color, and
    give the image of x's atom slice over the domain: D(y m(a); m(b) m(c))
    equals D(x a; b c) for all a, b, c in the domain.
    """
    pairs = _as_map(m)
    ok, witness = check_partial_iso(d, d, pairs)
    if not ok:
        raise InputError(f"not a partial isomorphism: {witness}")
    if x in pairs:
        raise InputError(f"element {x} already mapped")
    if x not in d.elements:
        raise InputError(f"unknown element {x}")
    dom = sorted(pairs)
    img = [pairs[a] for a in dom]
    t = relation_table(d)
    x_slice = t[x][np.ix_(dom, dom, dom)]
    img_grid = np.ix_(img, img, img)
    return [
        y
        for y in sorted(d.elements - set(img))
        if d.colors[y] == d.colors[x] and np.array_equal(x_slice, t[y][img_grid])
    ]


def homogeneity_conditions(d: DSet, min_sector_size: int = 2) -> dict:
    """Report the three homogeneity preconditions for a colored D-set.

    Regularity: all node splittings share one sector count.  Density:
    every stored positive quad has a density witness (finite tree-derived
    relations fail this whenever a positive quad exists; that is a fact to
    report, not an error).  Color hitting: every sector of every splitting
    of size at least min_sector_size meets every color class.  The size
    threshold stands in for "infinite sector", with non-singleton (2) as
    the default reading.
    """
    report_axioms = check_axioms(d)
    if not report_axioms.core_pass:
        raise InputError("input fails D1..D4")
    reg, count = is_regular(d)
    dense = True
    dense_witness = None
    for quad in d.rows:
        if not density_witnesses(d, *quad):
            dense = False
            dense_witness = quad.tolist()
            break
    hitting = True
    hitting_witness = None
    colors_present = sorted(set(d.colors))
    for s in enumerate_splittings(d):
        for sec in s.sectors:
            if len(sec) < min_sector_size:
                continue
            sector_colors = {d.colors[a] for a in sec}
            for color in colors_present:
                if color not in sector_colors:
                    hitting = False
                    hitting_witness = {
                        "sector": sorted(sec),
                        "color": color,
                        "splitting": s.as_sorted_lists(),
                    }
                    break
            if not hitting:
                break
        if not hitting:
            break
    return {
        "regular": {"verdict": reg, "sector_count": count},
        "dense": {
            "verdict": dense,
            "witness": dense_witness,
            "positive_quads": len(d.rows),
        },
        "color_hitting": {
            "verdict": hitting,
            "witness": hitting_witness,
            "min_sector_size": min_sector_size,
        },
    }


def nonextendable_witness(d: DSet) -> Optional[tuple[dict[int, int], int]]:
    """A verified non-extendable partial isomorphism, if one is forced.

    Two constructions are tried in order.  A color-starved sector (some
    sector with at least two elements missing a color present elsewhere)
    yields a swap of two same-colored sector elements plus a fixed third
    element, stuck on the starved color.  Node splittings of two different
    sizes yield a map from representatives of the larger splitting's
    sectors onto the smaller's, stuck on the representative of the extra
    sector.  Every candidate is verified by brute force before being
    returned; None means neither construction produced a verified witness.
    """
    report_axioms = check_axioms(d)
    if not report_axioms.core_pass:
        raise InputError("input fails D1..D4")
    splits = enumerate_splittings(d)
    colors_present = sorted(set(d.colors))
    all_elems = sorted(d.elements)

    for s in splits:
        for sec in s.sectors:
            if len(sec) < 2:
                continue
            sector_colors = {d.colors[a] for a in sec}
            for color in colors_present:
                if color in sector_colors:
                    continue
                starved = [b for b in all_elems if d.colors[b] == color]
                members = sorted(sec)
                for a1, a2 in itertools.permutations(members, 2):
                    if d.colors[a1] != d.colors[a2]:
                        continue
                    for b0 in starved:
                        for a3 in all_elems:
                            if a3 in (b0, a1, a2):
                                continue
                            if not d.holds(b0, a1, a2, a3):
                                continue
                            m = {a1: a2, a2: a1, a3: a3}
                            ok, _ = check_partial_iso(d, d, m)
                            if not ok:
                                continue
                            if not extend_partial_iso(d, m, b0):
                                return m, b0

    node_splits = [s for s in splits if len(s.sectors) > 2]
    for big, small in itertools.permutations(node_splits, 2):
        if len(big.sectors) <= len(small.sectors):
            continue
        n = len(small.sectors)
        for color in colors_present:
            big_reps: list[int] = []
            for sec in big.sectors:
                colored = [v for v in sorted(sec) if d.colors[v] == color]
                if colored:
                    big_reps.append(colored[0])
                if len(big_reps) == n + 1:
                    break
            if len(big_reps) < n + 1:
                continue
            small_reps: list[int] = []
            for sec in small.sectors:
                colored = [v for v in sorted(sec) if d.colors[v] == color]
                if not colored:
                    break
                small_reps.append(colored[0])
            if len(small_reps) < n:
                continue
            m = dict(zip(big_reps[:n], small_reps))
            stuck = big_reps[n]
            if stuck in m:
                continue
            ok, _ = check_partial_iso(d, d, m)
            if not ok:
                continue
            if not extend_partial_iso(d, m, stuck):
                return m, stuck
    return None
