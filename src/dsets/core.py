"""Finite D-sets as explicit relation tables.

A D-set is a set Omega together with a quaternary relation D(wx;yz), read
"the pair w,x is separated from the pair y,z".  The finite ones are exactly
the systems of leaves of finite trees without binary internal nodes, with
D(wx;yz) holding when the path from w to x is disjoint from the path from
y to z.  This module stores the relation explicitly and checks the axioms:

  D1  D(wx;yz) implies D(xw;yz) and D(yz;wx)           (pair symmetry)
  D2  D(wx;yz) implies not D(wy;xz)                     (exclusivity)
  D3  D(wx;yz) implies, for all v, D(vx;yz) or D(wx;yv) (spread)
  D4  w != y and x != y imply D(wx;yy)                  (degenerate truth)
  D5  three distinct w,x,y admit z != y with D(wx;yz)   (propriety, |Omega| >= 3)
  D6  D(wx;yz) admits v with D(vx;yz), D(wv;yz)
      and D(wx;vz)                                      (density, |Omega| >= 2)

Quadruples with a repeated element are never stored.  Their truth value is
forced: D(wx;yz) is false whenever {w,x} and {y,z} intersect as sets, and
true whenever the two pairs are disjoint and at least one of them is a
doubled element.  Only quadruples of four distinct elements are kept, one
canonical representative per D1-symmetry orbit.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np

Quad = tuple[int, int, int, int]


class InputError(ValueError):
    """Malformed data: bad ids, bad JSON shape, inconsistent tables."""


class NotRepresentable(ValueError):
    """The relation table is not the leaf relation of any tree."""


class InvariantViolation(RuntimeError):
    """An internal consistency check failed on data that claimed to be valid."""


def normalize_quad(w: int, x: int, y: int, z: int) -> Quad:
    """Canonical representative of the D1 orbit of (w,x,y,z).

    Sorts inside each pair and then orders the two pairs lexicographically,
    so the result r satisfies r[0] <= r[1], r[2] <= r[3], (r[0], r[1]) <=
    (r[2], r[3]).  Ids must be non-negative integers.
    """
    for v in (w, x, y, z):
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < 0:
            raise InputError(f"element ids must be non-negative integers, got {v!r}")
    a, b = (w, x) if w <= x else (x, w)
    c, d = (y, z) if y <= z else (z, y)
    if (a, b) <= (c, d):
        return (int(a), int(b), int(c), int(d))
    return (int(c), int(d), int(a), int(b))


@dataclass(frozen=True)
class DSet:
    """Immutable finite D-set over elements 0..n-1.

    positives holds canonical quadruples of four distinct elements only.
    colors is a total map, one color id per element; a fresh DSet is
    monochromatic.  Use DSet.build for unnormalized input.  The relation
    table, axiom report and reconstructed tree are computed on first
    request and kept on the instance.
    """

    n: int
    positives: frozenset[Quad] = frozenset()
    colors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        self._finish_init()
        quads = list(self.positives)
        rows = _int_rows(quads)
        if rows is not None:
            bad = (
                (rows < 0).any(axis=1)
                | (rows != _canonical_rows(rows)).any(axis=1)
                | ~_distinct_rows(rows)
                | (rows >= self.n).any(axis=1)
            )
            quads = quads[: int(bad.argmax()) + 1] if bad.any() else []
        _scan_stored_quads(quads, self.n)  # raises at the first bad quad

    def _finish_init(self) -> None:
        """Check n and colors and start the analyses kept on this instance."""
        if self.n < 0:
            raise InputError("element count must be >= 0")
        if not self.colors:
            object.__setattr__(self, "colors", (0,) * self.n)
        if len(self.colors) != self.n:
            raise InputError("colors must assign one color to every element")
        if any(c < 0 for c in self.colors):
            raise InputError("color ids must be non-negative")
        # Not a field, so the kept analyses (see _kept) stay out of
        # equality, hashing, repr and JSON.
        object.__setattr__(self, "_analyses", {})

    @classmethod
    def _from_rows(cls, n: int, rows: np.ndarray, colors: tuple[int, ...] = ()) -> "DSet":
        """Construct from a (k, 4) array of canonical quads of four distinct
        non-negative ids, without scanning them a second time."""
        if len(rows) and rows.max() >= n:
            # Raise the range error at the first stored quad, in the order a
            # set filled row by row gives.
            return cls(n, frozenset(set(zip(*rows.T.tolist()))), colors)
        d = object.__new__(cls)
        object.__setattr__(d, "n", n)
        object.__setattr__(d, "positives", _quad_set(rows))
        object.__setattr__(d, "colors", colors)
        d._finish_init()
        return d

    @classmethod
    def build(
        cls,
        n: int,
        quads: Iterable[tuple[int, int, int, int]] = (),
        colors: Optional[Iterable[int]] = None,
    ) -> "DSet":
        """Canonicalize quads and construct.  Rejects repeated-element quads
        and duplicates that collapse to the same canonical representative."""
        quads = list(quads)
        return cls._build(n, quads, _int_rows(quads), colors)

    @classmethod
    def _build(
        cls, n: int, quads: list, rows: Optional[np.ndarray], colors: Optional[Iterable[int]]
    ) -> "DSet":
        """build, given rows = _int_rows(quads)."""
        color_tuple = tuple(colors) if colors is not None else (0,) * n
        if rows is None:
            return cls(n, frozenset(_scan_input_quads(quads)), color_tuple)
        canon = _canonical_rows(rows)
        bad = ~_distinct_rows(rows) | (rows < 0).any(axis=1) | _repeated_rows(canon)
        if bad.any():
            _scan_input_quads(quads[: int(bad.argmax()) + 1])
        return cls._from_rows(n, canon, color_tuple)

    @property
    def elements(self) -> frozenset[int]:
        return frozenset(range(self.n))

    def holds(self, w: int, x: int, y: int, z: int) -> bool:
        """Truth of D(wx;yz), including the forced degenerate values."""
        for v in (w, x, y, z):
            if not 0 <= v < self.n:
                raise InputError(f"element {v} out of range 0..{self.n - 1}")
        if w in (y, z) or x in (y, z):
            return False
        if w == x or y == z:
            return True
        return normalize_quad(w, x, y, z) in self.positives

    def recolor(self, colors: Iterable[int] | Mapping[int, int]) -> "DSet":
        """Same relation, new colors: a per-element sequence or a total map."""
        if isinstance(colors, Mapping):
            missing = self.elements - set(colors)
            if missing:
                raise InputError(f"coloring misses elements {sorted(missing)}")
            seq = tuple(int(colors[e]) for e in range(self.n))
        else:
            seq = tuple(int(c) for c in colors)
        return DSet(n=self.n, positives=self.positives, colors=seq)

    def color_classes(self) -> dict[int, frozenset[int]]:
        """Nonempty color classes, keyed by color id."""
        out: dict[int, set[int]] = {}
        for e, c in enumerate(self.colors):
            out.setdefault(c, set()).add(e)
        return {c: frozenset(s) for c, s in sorted(out.items())}

    def to_json(self) -> str:
        rows = _positive_rows(self)
        payload = {
            "n": self.n,
            "colors": {str(e): c for e, c in enumerate(self.colors)},
            "positives": rows[np.lexsort(rows.T[::-1])].tolist(),  # lexicographic
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "DSet":
        return cls._from_payload(cls._decode_json(text))

    @staticmethod
    def _decode_json(text: str) -> dict:
        """from_json's first step: parse the JSON and check that it is an
        object with a non-negative integer 'n', building nothing n-long."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON: {exc}") from exc
        if not isinstance(payload, dict) or "n" not in payload:
            raise InputError("D-set JSON must be an object with an 'n' field")
        n = payload["n"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise InputError("'n' must be a non-negative integer")
        return payload

    @classmethod
    def _from_payload(cls, payload: dict) -> "DSet":
        """from_json's second step: validate the rest of a decoded payload
        and construct."""
        n = payload["n"]
        raw_colors = payload.get("colors", {})
        if not isinstance(raw_colors, dict):
            raise InputError("'colors' must map element ids to color ids")
        colors = [0] * n
        for key, value in raw_colors.items():
            try:
                e = int(key)
            except ValueError as exc:
                raise InputError(f"bad element id {key!r} in colors") from exc
            if not 0 <= e < n:
                raise InputError(f"color for unknown element {e}")
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise InputError(f"bad color {value!r} for element {e}")
            colors[e] = value
        quads = payload.get("positives", [])
        if not isinstance(quads, list):
            raise InputError("'positives' must be a list of 4-element lists")
        rows = _int_rows(quads)
        if rows is None or ((rows < 0) | (rows >= n)).any():
            for item in quads:
                if not (isinstance(item, list) and len(item) == 4):
                    raise InputError(f"positive entry {item!r} must be a 4-element list")
                if any(not isinstance(v, int) or not 0 <= v < n for v in item):
                    raise InputError(f"positive entry {item!r} has ids outside 0..{n - 1}")
        return cls._build(n, quads, rows, colors)


def _int_rows(quads: list) -> Optional[np.ndarray]:
    """The quads as one (k, 4) int64 array, or None unless every quad is a
    tuple or list of four integer ids (bools excluded)."""
    if not set(map(type, quads)) <= {tuple, list} or not set(map(len, quads)) <= {4}:
        return None
    flat = list(itertools.chain.from_iterable(quads))
    for t in set(map(type, flat)):
        if t is bool or not issubclass(t, (int, np.signedinteger)):
            return None
    try:
        return np.array(flat, dtype=np.int64).reshape(-1, 4)
    except OverflowError:
        return None


def _positive_rows(d: DSet) -> np.ndarray:
    """The stored quads of d as a (k, 4) array."""
    flat = itertools.chain.from_iterable(d.positives)
    return np.fromiter(flat, dtype=np.intp, count=4 * len(d.positives)).reshape(-1, 4)


def _quad_set(rows: np.ndarray) -> frozenset[Quad]:
    """The rows of a (k, 4) array as a frozenset of int tuples."""
    return frozenset(zip(*rows.T.tolist()))


def _canonical_rows(rows: np.ndarray) -> np.ndarray:
    """normalize_quad applied to every row of a (k, 4) array."""
    a, b = np.minimum(rows[:, 0], rows[:, 1]), np.maximum(rows[:, 0], rows[:, 1])
    c, e = np.minimum(rows[:, 2], rows[:, 3]), np.maximum(rows[:, 2], rows[:, 3])
    first = ((a < c) | ((a == c) & (b <= e)))[:, None]
    return np.where(first, np.stack([a, b, c, e], axis=1), np.stack([c, e, a, b], axis=1))


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """Rows whose four ids are pairwise different."""
    ok = np.ones(len(rows), dtype=bool)
    for i, j in itertools.combinations(range(4), 2):
        ok &= rows[:, i] != rows[:, j]
    return ok


def _repeated_rows(rows: np.ndarray) -> np.ndarray:
    """Rows equal to an earlier row."""
    order = np.lexsort(rows.T[::-1])  # stable: equal rows keep input order
    ordered = rows[order]
    repeated = np.zeros(len(rows), dtype=bool)
    repeated[order[1:][(ordered[1:] == ordered[:-1]).all(axis=1)]] = True
    return repeated


def _scan_input_quads(quads: list) -> set[Quad]:
    """Canonical forms of build's input quads, raising at the first bad one."""
    seen: set[Quad] = set()
    for q in quads:
        if len(set(q)) != 4:
            raise InputError(f"quad {tuple(q)} must have four distinct elements")
        canon = normalize_quad(*q)
        if canon in seen:
            raise InputError(f"duplicate quad {tuple(q)} (canonical {canon})")
        seen.add(canon)
    return seen


def _scan_stored_quads(quads: list, n: int) -> None:
    """Raise at the first stored quad that is not canonical, repeats an
    element or leaves 0..n-1."""
    for q in quads:
        if q != normalize_quad(*q):
            raise InputError(f"stored quad {q} is not canonical")
        if len(set(q)) != 4:
            raise InputError(f"stored quad {q} repeats an element")
        if max(q) >= n:
            raise InputError(f"quad {q} exceeds element range 0..{n - 1}")


def _kept(analysis):
    """Run analysis(d) once per DSet instance and keep the result on it.

    The returned function takes the analysis's name and docstring but no
    __wrapped__, so unwrapping it cannot bypass the kept result.
    """

    def kept(d: DSet):
        analyses = d._analyses
        if analysis not in analyses:
            analyses[analysis] = analysis(d)
        return analyses[analysis]

    functools.update_wrapper(kept, analysis)
    del kept.__wrapped__
    return kept


@_kept
def relation_table(d: DSet) -> np.ndarray:
    """Dense boolean table T[w,x,y,z] = D(wx;yz), degenerate values included.

    Read-only; built once per structure and kept on it, since every
    exhaustive check wants it.
    """
    n = d.n
    table = np.zeros((n, n, n, n), dtype=bool)
    w, x, y, z = np.indices((n, n, n, n), sparse=True)
    disjoint = (w != y) & (w != z) & (x != y) & (x != z)
    table |= disjoint & ((w == x) | (y == z))
    a, b, c, e = _positive_rows(d).T
    for p, q in ((a, b), (b, a)):
        for r, s in ((c, e), (e, c)):
            table[p, q, r, s] = True
            table[r, s, p, q] = True
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class AxiomVerdict:
    status: str  # "pass", "fail", or "not_applicable"
    witness: Optional[tuple[int, ...]] = None

    @property
    def ok(self) -> bool:
        return self.status != "fail"


@dataclass(frozen=True)
class AxiomReport:
    d1: AxiomVerdict
    d2: AxiomVerdict
    d3: AxiomVerdict
    d4: AxiomVerdict
    d5: AxiomVerdict
    d6: AxiomVerdict

    @property
    def core_pass(self) -> bool:
        """True when D1 through D4 all pass."""
        return all(v.status == "pass" for v in (self.d1, self.d2, self.d3, self.d4))

    @property
    def proper(self) -> bool:
        return self.d5.status == "pass"

    @property
    def dense(self) -> bool:
        return self.d6.status == "pass"

    def as_dict(self) -> dict:
        out = {}
        for name in ("d1", "d2", "d3", "d4", "d5", "d6"):
            verdict: AxiomVerdict = getattr(self, name)
            entry: dict = {"status": verdict.status}
            if verdict.witness is not None:
                entry["witness"] = list(verdict.witness)
            out[name] = entry
        out["core_pass"] = self.core_pass
        return out


def _first_true(mask: np.ndarray) -> Optional[tuple[int, ...]]:
    """Lexicographically least index where mask holds, or None."""
    if not mask.any():
        return None
    flat = int(np.argmax(mask.reshape(-1)))
    return tuple(int(v) for v in np.unravel_index(flat, mask.shape))


@_kept
def check_axioms(d: DSet) -> AxiomReport:
    """Exhaustively evaluate D1..D6 over every tuple of elements.

    Each failing axiom reports its lexicographically least witness: the
    offending (w,x,y,z) for D1/D2, (w,x,y,z,v) for D3, (w,x,y) for D4 and
    D5, and the witnessless premise (w,x,y,z) for D6.  D5 needs at least
    three elements and D6 at least two; below that they are reported as
    not applicable rather than passed.  The report is kept on d, so every
    later call returns the same object.
    """
    n = d.n
    t = relation_table(d)

    if n == 0:
        passed = AxiomVerdict("pass")
        na = AxiomVerdict("not_applicable")
        return AxiomReport(passed, passed, passed, passed, na, na)

    bad1 = (t & ~t.transpose(1, 0, 2, 3)) | (t & ~t.transpose(2, 3, 0, 1))
    d1 = _verdict_from_mask(bad1)

    bad2 = t & t.transpose(0, 2, 1, 3)
    d2 = _verdict_from_mask(bad2)

    # D3 and D6 quantify a fifth element v.  Both are swept one w at a time
    # over [x,y,z,v] slices, so memory stays O(n^4).
    v_first = np.ascontiguousarray(np.moveaxis(t, 0, -1))  # [x,y,z,v] -> D(vx;yz)

    def bad3(w: int) -> np.ndarray:  # D(wx;yz) but neither D(vx;yz) nor D(wx;yv)
        tw = t[w]
        return tw[..., None] & ~(v_first | tw[:, :, None, :])

    d3 = _sweep(n, bad3)

    ar = np.arange(n)
    diag_yy = t[:, :, ar, ar]  # [w,x,y] -> D(wx;yy)
    w3, x3, y3 = np.indices((n, n, n), sparse=True)
    bad4 = ((w3 != y3) & (x3 != y3)) & ~diag_yy
    d4 = _verdict_from_mask(bad4)

    if n < 3:
        d5 = AxiomVerdict("not_applicable")
    else:
        off_diag = t.copy()
        off_diag[:, :, ar, ar] = False  # drop z == y before projecting
        exists_z = off_diag.any(axis=3)
        distinct3 = (w3 != x3) & (w3 != y3) & (x3 != y3)
        bad5 = distinct3 & ~exists_z
        d5 = _verdict_from_mask(bad5)

    def bad6(w: int) -> np.ndarray:  # D(wx;yz) but no v with D(vx;yz), D(wv;yz), D(wx;vz)
        tw = t[w]
        found = v_first & tw.transpose(1, 2, 0)[None] & tw.transpose(0, 2, 1)[:, None]
        return tw & ~found.any(axis=-1)

    d6 = AxiomVerdict("not_applicable") if n < 2 else _sweep(n, bad6)

    return AxiomReport(d1, d2, d3, d4, d5, d6)


def _sweep(n: int, bad_at) -> AxiomVerdict:
    """Verdict from the slices bad_at(0), bad_at(1), ... in order: the
    first slice with a failure holds the lexicographically least witness."""
    for w in range(n):
        witness = _first_true(bad_at(w))
        if witness is not None:
            return AxiomVerdict("fail", (w,) + witness)
    return AxiomVerdict("pass")


def _verdict_from_mask(bad: np.ndarray) -> AxiomVerdict:
    witness = _first_true(bad)
    if witness is None:
        return AxiomVerdict("pass")
    return AxiomVerdict("fail", witness)


def substructure(d: DSet, subset: Iterable[int]) -> tuple[DSet, dict[int, int]]:
    """Restrict to a subset of elements, re-densifying ids.

    Returns the restricted D-set together with the order-preserving map
    from old ids to new ids.
    """
    chosen = sorted(set(subset))
    for e in chosen:
        if not 0 <= e < d.n:
            raise InputError(f"element {e} out of range 0..{d.n - 1}")
    remap = {old: new for new, old in enumerate(chosen)}
    keep = set(chosen)
    quads = []
    for q in d.positives:
        if keep.issuperset(q):
            quads.append(tuple(remap[v] for v in q))
    colors = tuple(d.colors[e] for e in chosen)
    return DSet.build(len(chosen), quads, colors), remap


def relabel(d: DSet, mapping: Mapping[int, int]) -> DSet:
    """Apply a bijection of 0..n-1 to every element, keeping colors attached."""
    if sorted(mapping) != list(range(d.n)) or sorted(mapping.values()) != list(range(d.n)):
        raise InputError("relabeling must be a bijection of the element range")
    quads = [tuple(mapping[v] for v in q) for q in d.positives]
    colors = [0] * d.n
    for old, new in mapping.items():
        colors[new] = d.colors[old]
    return DSet.build(d.n, quads, colors)


def are_isomorphic(
    d1: DSet,
    d2: DSet,
    respect_colors: bool = True,
    max_n: int = 10,
) -> Optional[dict[int, int]]:
    """Find a relation-preserving bijection, or None.

    Tables that satisfy D1..D4 are compared through canonical forms of
    their trees first, which settles existence quickly; the bijection
    itself is then recovered by backtracking and is the lexicographically
    least one (element 0 gets the least feasible image, and so on).
    Arbitrary tables fall back to pure backtracking, capped at max_n
    elements; raise the cap explicitly for bigger instances.
    """
    if d1.n != d2.n:
        return None
    if respect_colors and sorted(d1.colors) != sorted(d2.colors):
        return None
    if d1.n == 0:
        return {}

    core1 = check_axioms(d1).core_pass
    core2 = check_axioms(d2).core_pass
    if core1 != core2:
        return None
    if core1 and core2:
        from .trees import canonical_form, tree_from_dset

        t1 = tree_from_dset(d1)
        t2 = tree_from_dset(d2)
        tokens1 = d1.colors if respect_colors else None
        tokens2 = d2.colors if respect_colors else None
        if canonical_form(t1, leaf_tokens=tokens1) != canonical_form(t2, leaf_tokens=tokens2):
            return None
    elif d1.n > max_n:
        raise InputError(
            f"backtracking isomorphism capped at {max_n} elements for tables "
            "that fail D1..D4; pass max_n to override"
        )

    return _backtrack_bijection(d1, d2, respect_colors)


def _backtrack_bijection(d1: DSet, d2: DSet, respect_colors: bool) -> Optional[dict[int, int]]:
    n = d1.n
    t1 = relation_table(d1)
    t2 = relation_table(d2)
    image = [-1] * n
    used = [False] * n

    def compatible(e: int, f: int) -> bool:
        if respect_colors and d1.colors[e] != d2.colors[f]:
            return False
        fixed = [(a, image[a]) for a in range(e)]
        for a, fa in fixed:
            for b, fb in fixed:
                for c, fc in fixed:
                    if t1[a, b, c, e] != t2[fa, fb, fc, f]:
                        return False
                    if t1[a, b, e, c] != t2[fa, fb, f, fc]:
                        return False
                    if t1[a, e, b, c] != t2[fa, f, fb, fc]:
                        return False
                    if t1[e, a, b, c] != t2[f, fa, fb, fc]:
                        return False
        return True

    def place(e: int) -> bool:
        if e == n:
            return True
        for f in range(n):
            if not used[f] and compatible(e, f):
                image[e] = f
                used[f] = True
                if place(e + 1):
                    return True
                image[e] = -1
                used[f] = False
        return False

    if place(0):
        return {e: image[e] for e in range(n)}
    return None
