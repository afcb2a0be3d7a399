"""Quantifier-free types over a subset and partial isomorphism machinery.

The type of an outside element e over a set A is pinned down by at most
three elements of A: the induced splitting decides a node or an edge
case, a small base is read off, and every atom D(ex;yz) is recovered from
the base by a three-way case split.  On top of that sit the validator and
one-step extender for partial isomorphisms, a report of the conditions a
colored D-set must meet to be homogeneous, and the two counterexample
constructions that produce non-extendable partial isomorphisms when those
conditions fail; these two read the certified tree's leaf distances.

These are theorems about D-sets, so five entry points require D1..D4 and
raise InputError("input fails D1..D4") up front on any other table:
`qftp_base`, `homogeneity_conditions` and `nonextendable_witness` here,
`splittings.extend_by_point` and `indiscernibles.hull_window`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Union

import numpy as np

from ._gates import InputError, _natural, _refused
from .core import DSet, _atoms, _grid, _require_core, _require_ids, _tree_record
from .splittings import _complementary, _induced, _subset_outside, enumerate_splittings, is_regular
from .trees import Splitting

PairsLike = Union[Mapping[int, int], Iterable[tuple[int, int]]]


def _as_map(m: PairsLike) -> dict[int, int]:
    with _refused("a map must be a mapping or a sequence of pairs"):  # m, or an entry, is not iterable
        items = [_require_ids(tuple(p)) for p in (m.items() if isinstance(m, Mapping) else m)]
    out: dict[int, int] = {}
    for pair in items:
        if len(pair) != 2:
            raise InputError(f"map entries must be pairs, got {pair}")
        a, b = pair
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
    x, y, z from the base alone; qftp_base builds instances only on
    D-sets, where that and shares_sector are exact.

    Two bases compare equal exactly when the types agree: the case, the
    induced splitting and the base are all determined by the type.
    """

    dset: DSet
    subset: tuple[int, ...]
    element: int = field(compare=False)
    case: str
    base: tuple[int, ...]
    splitting: Optional[Splitting]
    atoms: Optional[frozenset] = None

    def _check_members(self, *vs: int) -> None:
        for v in _require_ids(vs):
            if v not in self.subset:
                raise InputError(f"element {v} outside the subset")

    def predict(self, x: int, y: int, z: int) -> bool:
        """Predicted value of D(e x; y z) for subset elements x, y, z."""
        self._check_members(x, y, z)
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
        return bool(_atoms(self.dset, stand_in, x, y, z))

    def shares_sector(self, x: int, y: int) -> bool:
        """Base-only share-a-sector test (node case) or side test (edge) on x, y."""
        if self.case == "small":
            raise InputError("no splitting in the small case")
        self._check_members(x, y)
        if self.case == "node":
            a, b, c = self.base
            return bool(_atoms(self.dset, x, y, [a, a, b], [b, c, c]).any())
        p, q, r = self.base
        same = _atoms(self.dset, p, q, r, [x, y])
        return bool(same[0] == same[1])


def qftp_base(d: DSet, subset: Iterable[int], e: int) -> QftpBase:
    """Type base of e over the subset.

    Requires d to pass D1..D4 and raises InputError("input fails D1..D4")
    otherwise, as do homogeneity_conditions, nonextendable_witness,
    splittings.extend_by_point and indiscernibles.hull_window.  Subsets of
    size at least 3 go through the induced splitting: three or more
    sectors give the node case with the least elements of the three least
    sectors as base; two sectors give the edge case with base (p, q, r)
    for p the least element of the sector holding the subset minimum, q
    its complementary element there, r the least element of the other
    sector.  Smaller subsets are tabulated directly.  On a D-set the base
    reproduces every atom D(e x; y z) exactly.
    """
    _require_core(d)
    sub, (e,) = _subset_outside(d, subset, e)
    sub = tuple(sub)
    if len(sub) < 3:
        found = np.argwhere(_atoms(d, e, *_grid(sub, sub, sub))).tolist()
        atoms = frozenset((sub[i], sub[j], sub[k]) for i, j, k in found)
        return QftpBase(d, sub, e, "small", (), None, atoms)
    s = _induced(d, list(sub), e)
    if len(s.sectors) > 2:
        base = tuple(min(sec) for sec in s.sectors[:3])
        return QftpBase(d, sub, e, "node", base, s)
    first, second = map(sorted, s.sectors)
    return QftpBase(d, sub, e, "edge", (first[0], _complementary(d, first[0], first, second), second[0]), s)


def same_qftp(d: DSet, subset: Iterable[int], e1: int, e2: int) -> bool:
    """Whether e1 and e2 have the same quantifier-free type over the subset.

    The type of e over A is its atom slice: the truth values of D(e x; y z)
    for x, y, z in A.  On a D-set every other atom over A plus e follows
    from these by pair symmetry or is forced by the degenerate rules.
    """
    sub, pair = _subset_outside(d, subset, e1, e2)
    first, second = _atoms(d, *_grid(pair, sub, sub, sub))
    return bool(np.array_equal(first, second))


def check_partial_iso(d1: DSet, d2: DSet, m: PairsLike) -> tuple[bool, Optional[dict]]:
    """Validate a partial isomorphism candidate between two D-sets.

    Checks colors first, then every quadruple truth value over the domain
    against its image; the witness names the first violation.  Degenerate
    quadruples are preserved by any injective map and are skipped.
    """
    return _iso_fault(d1, d2, _as_map(m))


def _iso_fault(d1: DSet, d2: DSet, pairs: dict[int, int]) -> tuple[bool, Optional[dict]]:
    """check_partial_iso of the map _as_map read."""
    _require_ids(sorted(pairs), d1)
    _require_ids(sorted(pairs.values()), d2)
    for a, b in sorted(pairs.items()):
        if d1.colors[a] != d2.colors[b]:
            return False, {"kind": "color", "element": a, "image": b}
    dom = sorted(pairs)
    if len(dom) >= 4:
        img = [pairs[a] for a in dom]
        t1 = _atoms(d1, *_grid(dom, dom, dom, dom))
        t2 = _atoms(d2, *_grid(img, img, img, img))
        if not np.array_equal(t1, t2):
            quad = [dom[i] for i in np.argwhere(t1 != t2)[0].tolist()]
            return False, {"kind": "quad", "quad": quad, "image": [pairs[v] for v in quad]}
    return True, None


def extend_partial_iso(d: DSet, m: PairsLike, x: int) -> list[int]:
    """All y that extend the partial isomorphism m by x -> y, sorted.

    A candidate y must be outside the current range, share x's color, and
    give the image of x's atom slice over the domain: D(y m(a); m(b) m(c))
    equals D(x a; b c) for all a, b, c in the domain.
    """
    pairs = _as_map(m)
    ok, witness = _iso_fault(d, d, pairs)
    if not ok:
        raise InputError(f"not a partial isomorphism: {witness}")
    return _extensions(d, pairs, x)


def _extensions(d: DSet, pairs: dict[int, int], x: int) -> list[int]:
    """extend_partial_iso of a map that _as_map read and _iso_fault passed."""
    (x,) = _require_ids([x], d)
    if x in pairs:
        raise InputError(f"element {x} already mapped")
    dom = sorted(pairs)
    img, color = [pairs[a] for a in dom], d.colors[x]
    used = set(img)
    ys = np.array([y for y, c in enumerate(d.colors) if c == color and y not in used], dtype=np.intp)
    # [candidate, a, b, c]: D(y m(a); m(b) m(c)) against x's slice D(x a; b c).
    fits = _atoms(d, *_grid(ys, img, img, img)) == _atoms(d, x, *_grid(dom, dom, dom))
    return ys[fits.all(axis=(1, 2, 3))].tolist()


def _starved_sectors(d: DSet, splits: Iterable[Splitting], min_size: int) -> Iterator[tuple]:
    """(splitting, sector, color) for each sector of at least min_size
    elements and each color of d that it misses, in splitting, sector and
    color order."""
    colors_present = sorted(set(d.colors))
    for s in splits:
        for sec in s.sectors:
            if len(sec) >= min_size:
                sector_colors = {d.colors[a] for a in sec}
                for color in colors_present:
                    if color not in sector_colors:
                        yield s, sec, color


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
    _require_core(d)
    min_sector_size = _natural(min_sector_size, "'min_sector_size' must be a non-negative integer, got {!r}")
    reg, count = is_regular(d)
    # The density witnesses of wx|yz attach strictly inside the path joining the
    # paths of wx and yz, (d(w,y) + d(x,z) - d(w,x) - d(y,z)) / 2 edges: none if 1.
    dist, rows = _tree_record(d)[2], map(np.ndarray.tolist, d.rows)
    lacking = ([w, x, y, z] for w, x, y, z in rows if dist[w, y] + dist[x, z] < dist[w, x] + dist[y, z] + 4)
    dense_witness = next(lacking, None)
    hitting_witness = None
    for s, sec, color in _starved_sectors(d, enumerate_splittings(d), min_sector_size):
        hitting_witness = {"sector": sorted(sec), "color": color, "splitting": s.as_sorted_lists()}
        break
    return {
        "regular": {"verdict": reg, "sector_count": count},
        "dense": {
            "verdict": dense_witness is None,
            "witness": dense_witness,
            "positive_quads": len(d.rows),
        },
        "color_hitting": {
            "verdict": hitting_witness is None,
            "witness": hitting_witness,
            "min_sector_size": min_sector_size,
        },
    }


def nonextendable_witness(d: DSet) -> Optional[tuple[dict[int, int], int]]:
    """A non-extendable partial isomorphism, if one is forced.

    Two constructions are tried in order.  A color-starved sector (some
    sector with at least two elements missing a color present elsewhere)
    yields a swap of two same-colored sector elements plus a fixed third
    element, stuck on the least element of the starved color.  Node
    splittings of two different sizes yield a map from representatives of
    the larger splitting's sectors onto the smaller's, stuck on the
    representative of the extra sector.  None means neither applies.
    """
    _require_core(d)
    splits, dist = enumerate_splittings(d), _tree_record(d)[2]

    # Each map below respects colors and has every atom false on both sides
    # (three elements, or one per sector of a node splitting), so it is a
    # partial isomorphism without a check of its own.
    for s, sec, color in _starved_sectors(d, splits, 2):
        # All of S's outside enters S at one place, so D(b a1; a2 a3) is one
        # value for every b outside S and, by D2, puts a3 in S.  An image y of
        # b0 lies outside S: D(y a2; a1 a3) = D(b0 a2; a1 a3) is false by D2.
        b0 = d.colors.index(color)
        for a1, a2 in itertools.permutations(sorted(sec), 2):
            if d.colors[a1] != d.colors[a2]:
                continue
            a3 = [a for a in np.flatnonzero(dist[b0, a1] + dist[a2] < dist[b0, a2] + dist[a1]).tolist() if a != a2]
            if a3:
                return {a1: a2, a2: a1, a3[0]: a3[0]}, b0

    # An image y of the stuck rep shares small's sector with some rep r, so
    # D(y r; r' r'') holds; the stuck rep's atom meets four sectors of big.
    node_splits = [s for s in splits if len(s.sectors) > 2]
    for big, small in itertools.permutations(node_splits, 2):
        if len(big.sectors) <= len(small.sectors):
            continue
        n = len(small.sectors)
        for color in sorted(set(d.colors)):
            # The least element of this color in each sector, or None.
            big_reps, small_reps = (
                [min((v for v in sec if d.colors[v] == color), default=None) for sec in t.sectors]
                for t in (big, small)
            )
            big_reps = [v for v in big_reps if v is not None]
            if len(big_reps) < n + 1 or None in small_reps:
                continue
            return dict(zip(big_reps[:n], small_reps)), big_reps[n]
    return None
