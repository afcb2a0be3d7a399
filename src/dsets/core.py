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

What is stored: each DSet holds its relation once, as a read-only (k, 4)
int array of those canonical quadruples in lexicographic order (`rows`).
What is derived from it, on first request and then kept on the structure:
the `positives` frozenset, the dense relation table, the axiom report and
the tree with its leaf distances.  `_atoms` is the one reader of atoms
D(wx;yz), over broadcastable id arrays (`_grid` lays id lists out on their
own axes, as np.ix_ does), from the kept table: every read
of the relation goes through it, `holds` included, except the D2, D3, D5
and D6 sweep of check_axioms, which reads the table itself.

Certification: D1..D4 are proved by rebuilding the tree.  Rooted at
element 0, the cluster {c >= 1 : not D(ab;c0)} of elements a, b >= 1 is
the set of leaves below the node where their paths to 0 meet; the rows
that start with 0 give every cluster.  The distinct clusters are the
nodes, each one's parent its smallest strict superset.  The rows are that
tree's relation, so D1..D4 hold, when each passes the four-point condition
on the tree's own leaf distances and they number C(n,4) less the quads
with their four leaves in four branches at one node.  The tree is kept
with its leaf distances d: D(wx;yz) iff d(w,x) + d(y,z) < d(w,y) + d(x,z),
degenerate values included.  D5 then fails at the least (0, x, y) with
d(0,x) + 2 = d(0,y) + d(x,y), and D6 at (0, 0, 1, z), z the least with
d(1,z) + 2 = d(0,1) + d(0,z).  Below four elements, or when a test
fails, D2, D3, D5 and D6 are swept over the table one w at a time by
`_sweep`, D3 and D6 with their fifth element packed into uint64 words,
one packed layout read through D1's images; D1 and D4 hold by storage.
d_from_tree, relabel and extend_by_point know their result's tree and store
its rebuild (`_record`); a structure read from JSON certifies from its rows.
Either way the nodes are numbered by `_numbered`, the one home of that rule.

Trees, as adjacency lists (`_adjacency`): `_walk` is the one breadth-first
walk.  `_below` walks a tree in hand from element 0's leaf into parent
indices and a bool `below` matrix, which `_record` numbers as `_rebuild`
numbers its clusters; `_tree_record` is the one guarded reader of the
record (parent, below, dist).  `_rootings` walks a tree once per center;
`_ranks`, interned integer ranks, is the one subtree code.  `_coded` orders
ranks as flat AHU codes for canonical forms and tree enumeration.
are_isomorphic ranks each walk of two certified trees once, into ranks both
trees share, and re-ranks one root path per individualised element.
A structure argument that is no DSet is refused by one check, `_require_dset`;
every input check that needs no class of the package lives in `_gates`.

Relation JSON: to_json writes {"colors":{...},"n":N,"positives":[[a,b,c,d],
...]} with sorted keys, no whitespace and the rows in order, _BLOCK = 8,192
quads at a time from a token table kept per id count.  from_json reads it
back in blocks of about as many quads, each checked on its bytes: deleting
the digits must leave '[,,,],' repeated, and 4k runs of digits must fill the
id places, each at most as wide as n - 1 and read by shifted multiply-adds.
Any other spelling of the same object, or a wider id, goes through
json.loads, with the same checks and messages.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

import numpy as np

from ._gates import InputError, _DECIMAL, _check_count, _decoded, _flag, _listed, _natural

Quad = tuple[int, int, int, int]
Colors = Union[Iterable[int], Mapping[int, int]]  # per element, or element -> color


class NotRepresentable(ValueError):
    """The relation table is not the leaf relation of any tree."""


class InvariantViolation(RuntimeError):
    """An internal consistency check failed on data that claimed to be valid."""


_UNBOUND = object()  # _require_ids without a structure: ids of no range


def _require_dset(d) -> None:
    """Refuse anything but a DSet where a structure belongs: the one check,
    run by _require_ids given a structure, by every kept analysis and by
    the entry points that read a structure before either."""
    if not isinstance(d, DSet):
        raise InputError(f"expected a DSet, got {d!r}")


def _require_ids(ids: Iterable, d=_UNBOUND) -> list[int]:
    """The ids as a list of Python ints: the one check of element ids.
    Given a structure d, first refuses it unless it is a DSet.  Raises
    InputError when ids is not iterable, at the first bool or non-integer
    and, given d, at the first id outside 0..d.n-1, checking in order."""
    if d is not _UNBOUND:
        _require_dset(d)
    ids = _listed(ids, "element ids")
    for v in ids:
        if type(v) is not int:  # plain ints, nearly every id, pass at once
            _natural(v, "element ids must be non-negative integers, got {!r}", low=None)
        if d is not _UNBOUND and not 0 <= v < d.n:
            raise InputError(f"element {v} out of range 0..{d.n - 1}")
    return list(map(int, ids))


def normalize_quad(w: int, x: int, y: int, z: int) -> Quad:
    """Canonical representative of the D1 orbit of (w,x,y,z).

    Sorts inside each pair and then orders the two pairs lexicographically,
    so the result r satisfies r[0] <= r[1], r[2] <= r[3], (r[0], r[1]) <=
    (r[2], r[3]).  Ids must be non-negative integers.
    """
    w, x, y, z = (_natural(v, "element ids must be non-negative integers, got {!r}") for v in (w, x, y, z))
    a, b = (w, x) if w <= x else (x, w)
    c, d = (y, z) if y <= z else (z, y)
    return (a, b, c, d) if (a, b) <= (c, d) else (c, d, a, b)


def _kept(analysis):
    """Run analysis(d) once per DSet instance and keep it there by name; a
    constructor that knows the result may store it there instead.  Every
    kept analysis reads the relation alone, so recolor hands them on, and
    refuses a d that is no DSet.  The returned function takes the
    analysis's name and docstring but no __wrapped__, so unwrapping it
    cannot bypass the kept result.
    """

    name = analysis.__name__

    def kept(d: DSet):
        _require_dset(d)
        analyses = d._analyses
        if name not in analyses:
            analyses[name] = analysis(d)
        return analyses[name]

    functools.update_wrapper(kept, analysis)
    del kept.__wrapped__
    return kept


@dataclass(frozen=True, init=False, eq=False, repr=False)
class DSet:
    """Immutable finite D-set over elements 0..n-1.

    Stored: n, colors (one color id per element; a fresh DSet is
    monochromatic) and `rows`, the relation as a read-only (k, 4) int array
    of canonical quads of four distinct elements in lexicographic order,
    sorted by the key ((a*n + b)*n + c)*n + d, or by np.lexsort once n**4
    overflows int64.  Equality, hashing and repr read these three.  Derived
    on first request and kept: `positives` (the quads as a frozenset), the
    relation table, the axiom report and the tree.  Use DSet.build for
    unnormalized input.
    """

    n: int
    rows: np.ndarray
    colors: tuple[int, ...]

    def __init__(
        self, n: int, positives: Iterable[Quad] = frozenset(), colors: Colors = ()
    ) -> None:
        self._start(n, colors)
        n, quads = self.n, _listed(positives, "positive quads")
        rows = _int_rows(quads, n)
        if rows is None or not _distinct_canonical(rows.T).all():
            _scan_stored_quads(quads, n)  # raises at the first bad quad
            rows = np.array(quads, dtype=np.int64).reshape(-1, 4)  # valid, in another shape
        rows, repeats = _sort_rows(rows, n)
        self._store(rows[np.concatenate([[True], ~repeats])] if repeats.any() else rows)

    def _start(self, n: int, colors: Colors) -> None:
        """Check n and colors (per element, all 0 if empty, or a map that
        covers every element) and start the analyses kept on this instance."""
        n = _check_count(_natural(n))
        object.__setattr__(self, "n", n)
        if isinstance(colors, Mapping):
            missing = self.elements - set(_require_ids(colors, self))
            if missing:
                raise InputError(f"coloring misses elements {sorted(missing)}")
            colors = [colors[e] for e in range(n)]
        colors = tuple(_listed(colors, "colors")) or (0,) * n
        if len(colors) != n:
            raise InputError("colors must assign one color to every element")
        colors = tuple(_natural(c, "bad color {!r} for element {}", e) for e, c in enumerate(colors))
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "_analyses", {})

    def _store(self, rows: np.ndarray) -> None:
        rows = np.ascontiguousarray(rows)
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        same = (self.n, self.colors) == (other.n, other.colors)
        return same and np.array_equal(self.rows, other.rows)

    def __hash__(self) -> int:
        return hash((self.n, self.rows.tobytes(), self.colors))

    def __repr__(self) -> str:
        quads = ", ".join(map(str, map(tuple, self.rows.tolist())))
        return f"DSet(n={self.n}, positives=frozenset([{quads}]), colors={self.colors!r})"

    @property
    @_kept
    def positives(self) -> frozenset[Quad]:
        """The stored quads as a frozenset of tuples, built on first read."""
        return frozenset(zip(*self.rows.T.tolist()))

    @classmethod
    def _from_rows(cls, n: int, rows: np.ndarray, colors: Colors = ()) -> "DSet":
        """Construct from a C-contiguous (k, 4) int64 array of canonical quads
        of four distinct ids in 0..n-1, strictly increasing in lexicographic
        order, without checking or sorting them again."""
        d = object.__new__(cls)
        d._start(n, colors)
        d._store(rows)
        return d

    @classmethod
    def build(
        cls,
        n: int,
        quads: Iterable[tuple[int, int, int, int]] = (),
        colors: Optional[Colors] = None,
    ) -> "DSet":
        """Canonicalize quads and construct.  Rejects repeated-element quads
        and duplicates that collapse to the same canonical representative."""
        n, quads = _natural(n), _listed(quads, "positive quads")
        _check_count(n)
        return cls._build(n, quads, _int_rows(quads, n), colors)

    @classmethod
    def _build(
        cls, n: int, quads: Optional[list], rows: Optional[np.ndarray], colors: Optional[Colors]
    ) -> "DSet":
        """build, given n in range and rows = _int_rows(quads, n).  quads
        may be None, standing for rows.tolist(), when rows is not None."""
        colors = () if colors is None else colors
        if rows is None:
            # Raises at the first bad input quad, else at the first stored
            # quad out of range.
            return cls(n, frozenset(_scan_input_quads(quads)), colors)
        canon, repeats = _sort_rows(_canonical_rows(rows), n)
        if repeats.any() or not _distinct_canonical(canon.T).all():
            # Raises at the first bad quad.
            _scan_input_quads(rows.tolist() if quads is None else quads)
        return cls._from_rows(n, canon, colors)

    @property
    def elements(self) -> frozenset[int]:
        return frozenset(range(self.n))

    def holds(self, w: int, x: int, y: int, z: int) -> bool:
        """Truth of D(wx;yz), including the forced degenerate values."""
        return bool(_atoms(self, *_require_ids((w, x, y, z), self)))

    def recolor(self, colors: Colors) -> "DSet":
        """Same relation, new colors: a per-element sequence or a total map.
        The result shares the analyses kept on this structure."""
        d = DSet._from_rows(self.n, self.rows, colors)
        object.__setattr__(d, "_analyses", self._analyses)
        return d

    def to_json(self) -> str:
        head = {"colors": {str(e): c for e, c in enumerate(self.colors)}, "n": self.n}
        text = json.dumps(head, sort_keys=True, separators=(",", ":"))
        return "".join([text[:-1], _POSITIVES, *_quad_text(self.rows), "]}"])

    @classmethod
    def from_json(cls, text: str) -> "DSet":
        return cls._from_payload(cls._decode_json(text))

    @staticmethod
    def _decode_json(text: str) -> dict:
        """from_json's first step: parse the JSON and check that it is an
        object with a non-negative integer 'n', building nothing n-long.
        to_json's own spelling is read by _read_own_spelling; any other goes
        through json.loads."""
        payload = _read_own_spelling(text) or _decoded(text)  # a payload read is never empty
        if not isinstance(payload, dict) or "n" not in payload:
            raise InputError("D-set JSON must be an object with an 'n' field")
        _natural(payload["n"])
        return payload

    @classmethod
    def _from_payload(cls, payload: dict) -> "DSet":
        """from_json's second step: validate the rest of a decoded payload
        and construct."""
        n = _check_count(payload["n"])
        raw_colors = payload.get("colors", {})
        if not isinstance(raw_colors, dict):
            raise InputError("'colors' must map element ids to color ids")
        colors = [0] * n
        for key, value in raw_colors.items():
            if not _DECIMAL.fullmatch(key):
                raise InputError(f"bad element id {key!r} in colors")
            e = int(key)
            if not 0 <= e < n:
                raise InputError(f"color for unknown element {e}")
            colors[e] = _natural(value, "bad color {!r} for element {}", e)
        quads = payload.get("positives", [])
        if isinstance(quads, np.ndarray):  # stored rows, checked as they were read
            return cls._from_rows(n, quads, colors)
        if not isinstance(quads, list):
            raise InputError("'positives' must be a list of 4-element lists")
        rows = _int_rows(quads, n)
        if rows is None:
            for item in quads:
                if not (isinstance(item, list) and len(item) == 4):
                    raise InputError(f"positive entry {item!r} must be a 4-element list")
                if any(not isinstance(v, int) or not 0 <= v < n for v in item):
                    raise InputError(f"positive entry {item!r} has ids outside 0..{n - 1}")
        return cls._build(n, quads, rows, colors)


def _int_rows(quads: list, n: int) -> Optional[np.ndarray]:
    """The quads as one (k, 4) int64 array, or None unless every quad is a
    tuple or list of four integer ids in 0..n-1 (bools excluded)."""
    if not set(map(type, quads)) <= {tuple, list} or not set(map(len, quads)) <= {4}:
        return None
    flat = list(itertools.chain.from_iterable(quads))
    for t in set(map(type, flat)):
        if t is bool or not issubclass(t, (int, np.signedinteger)):
            return None
    try:
        rows = np.array(flat, dtype=np.int64).reshape(-1, 4)
    except OverflowError:
        return None
    return rows if not len(rows) or (rows.min() >= 0 and rows.max() < n) else None


_POSITIVES = ',"positives":['
_SKELETON = np.frombuffer(b"[,,,],", dtype=np.uint8)  # one quad's non-digit bytes
# Quads per block of relation JSON: of 2,048 to 16,384, the fastest at 32 to 64 leaves.
_BLOCK = 8192


@functools.lru_cache(maxsize=8)
def _tokens(count: int) -> np.ndarray:
    """Each id below count as one read-only void token, its decimal digits
    right-aligned after zero bytes: _quad_text's table, kept per count."""
    ids, powers = np.arange(count)[:, None], 10 ** np.arange(len(str(count - 1)))[::-1]
    digits = np.where((ids >= powers) | (powers == 1), ids // powers % 10 + 48, 0)
    tokens = digits.astype(np.uint8).view(np.dtype((np.void, len(powers))))[:, 0]
    tokens.flags.writeable = False
    return tokens


def _quad_text(rows: np.ndarray) -> list[str]:
    """'[a,b,c,d],...' for a (k, 4) array of ids >= 0, in parts of _BLOCK
    quads: each quad's ids are gathered into one reused fixed-width record
    from the tokens, and the zero bytes are dropped."""
    if not len(rows):
        return []
    tokens = _tokens(int(rows.max()) + 1)
    record = np.zeros((min(len(rows), _BLOCK), 5, tokens.itemsize + 1), dtype=np.uint8)
    record[:, :4, 0], record[:, 4, :2] = _SKELETON[:4], _SKELETON[4:]
    slots = record[:, :4, 1:].view(tokens.dtype)[..., 0]
    parts = []
    for start in range(0, len(rows), _BLOCK):
        block = rows[start : start + _BLOCK]
        slots[: len(block)] = tokens[block]
        parts.append(record[: len(block)].tobytes().translate(None, b"\0").decode("ascii"))
    parts[-1] = parts[-1][:-1]
    return parts


def _read_own_spelling(text) -> Optional[dict]:
    """The payload of a text in to_json's spelling, a JSON object ending in
    ,"positives":[...]} (then JSON whitespace), as json.loads gives it; None
    for any other text, or one with an id longer than n - 1, which json.loads
    reads to the same payload.  json.loads decodes the head; the quads are
    read in blocks of about _BLOCK, cut at quad boundaries, each block's ids
    kept in _quad_ids' narrow dtype and joined into one (k, 4) int64 array,
    kept if they are the stored rows of an n-element DSet, else as lists."""
    if not isinstance(text, str):
        return None
    end = len(text.rstrip(" \t\n\r"))
    at = text.find(_POSITIVES, 0, end)  # the head is short; a second marker fails the quads
    if at < 0 or text[end - 2 : end] != "]}" or not text.isascii():
        return None
    try:
        payload = json.loads(text[:at] + "}")  # a dict: the text decoded ends in '}'
    except (json.JSONDecodeError, RecursionError):
        return None
    n = payload["n"] if isinstance(payload.get("n"), int) else -1  # any bad n fails later
    width = min(len(str(max(n - 1, 0))), 18)
    start, end = at + len(_POSITIVES), end - 2
    blocks, last, stored = [], -1, n <= 1 << 16  # ids of 16 bits make 64-bit row keys
    while start < end:
        cut = text.find("],[", start + _BLOCK * (6 + 4 * width), end) + 1 or end
        ids = _quad_ids(text[start:cut].encode("ascii"), width)
        if ids is None:
            return None
        key = ids.T.astype(">u2").view(">u8")[:, 0]  # a row's ids as big-endian words, in row order
        stored = stored and int(ids.max()) < n and int(key[0]) > last
        stored = stored and (key[1:] > key[:-1]).all() and _distinct_canonical(ids).all()
        blocks.append(ids.T)
        start, last = cut + 1, int(key[-1])
    rows = np.concatenate(blocks or [np.empty((0, 4), np.int64)], dtype=np.int64)
    payload["positives"] = rows if stored else rows.tolist()
    return payload


def _quad_ids(raw: bytes, width: int) -> Optional[np.ndarray]:
    """The ids of b'[a,b,c,d],...,[a,b,c,d]' as a (4, k) array, or None
    unless the non-digit bytes are b'[,,,],' repeated less the last comma
    and every id is 1 to width (at most 18) digits without a leading zero."""
    skeleton = raw.translate(None, b"0123456789")
    k = (len(skeleton) + 1) // 6
    digit = np.frombuffer(raw, dtype=np.uint8) - 48  # wraps: other bytes are >= 10
    run = digit < 10
    ends = np.flatnonzero(run[:-1] > run[1:])  # the last digit of each run but a final one
    # With no digit before a '[' or after a ']', each of 4k runs fills one id's place.
    if skeleton != (b"[,,,]," * k)[:-1] or len(ends) != 4 * k or (
        run[:-1] & (digit[1:] == ord("[") - 48) | run[1:] & (digit[:-1] == ord("]") - 48)
    ).any():
        return None
    # Each run's last width digits as one number, at every byte: the digit s
    # places before counts when the s bytes from it on are digits.
    digit = digit.astype(np.min_scalar_type(10**width - 1), copy=False)
    value, chain = digit.copy(), run
    for s in range(1, width):
        if s > 1:
            chain = chain[:-1] & run[s - 1 :]  # chain[j]: the s bytes from j on are digits
        value[s:] += digit[:-s] * chain[: len(run) - s] * 10**s
    ids = value[ends].reshape(k, 4).T  # its transpose, the rows, is C-contiguous
    # A leading zero, a run of more than width digits or a final run leaves
    # the ids' widths short of the digit bytes.
    if ids.size + sum(int(np.count_nonzero(ids >= 10**s)) for s in range(1, width)) != len(raw) - len(skeleton):
        return None
    return ids


def _canonical_rows(rows: np.ndarray) -> np.ndarray:
    """normalize_quad applied to every row of a (k, 4) array; rows itself
    when they are all canonical already."""
    w, x, y, z = rows.T.copy()
    if (((w < y) | ((w == y) & (x <= z))) & (w <= x) & (y <= z)).all():
        return rows
    a, b = np.minimum(w, x), np.maximum(w, x)
    c, e = np.minimum(y, z), np.maximum(y, z)
    first = (a < c) | ((a == c) & (b <= e))
    return np.where(first, [a, b, c, e], [c, e, a, b]).T


def _distinct_canonical(quads: np.ndarray) -> np.ndarray:
    """Which quads of a (4, k) array of ids are canonical, of 4 distinct ids."""
    w, x, y, z = quads
    return (w < x) & (y < z) & (w < y) & (x != y) & (x != z)


_KEYED_N = 55_108  # the largest n with n**4 - 1 in int64


def _sort_rows(rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ids in 0..n-1 in lexicographic order, and a mask of the
    sorted rows that equal the row before them."""
    rows = rows.astype(np.int64, copy=False)
    if n > _KEYED_N:
        ordered = rows[np.lexsort(rows.T[::-1])]
        return ordered, (ordered[1:] == ordered[:-1]).all(axis=1)
    key = ((rows[:, 0] * n + rows[:, 1]) * n + rows[:, 2]) * n + rows[:, 3]
    increasing = key[1:] > key[:-1]
    if increasing.all():  # in order already, as to_json writes them
        return rows, ~increasing
    order = np.argsort(key)
    key = key[order]
    return rows[order], key[1:] == key[:-1]


def _scan_input_quads(quads: list) -> set[Quad]:
    """Canonical forms of build's input quads, raising at the first bad one."""
    seen: set[Quad] = set()
    for q in quads:
        if not isinstance(q, (tuple, list)):
            raise InputError(f"positive entry {q!r} must be a 4-element list")
        if len(q) != 4 or any(q.count(v) > 1 for v in q):  # ids need not be hashable
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
        if not isinstance(q, (tuple, list)) or len(q) != 4:
            raise InputError(f"positive entry {q!r} must be a 4-element list")
        q = tuple(q)
        if q != normalize_quad(*q):
            raise InputError(f"stored quad {q} is not canonical")
        if len(set(q)) != 4:
            raise InputError(f"stored quad {q} repeats an element")
        if max(q) >= n:
            raise InputError(f"quad {q} exceeds element range 0..{n - 1}")


def _atoms(d: DSet, w, x, y, z) -> np.ndarray:
    """D(wx;yz) over element ids, broadcastable arrays of them or slices,
    degenerate values included: the one reader of the relation outside
    check_axioms' sweep.  A read that uses only ids and slices is a view of
    the table, with no copy.  Ids are not checked.  Reads the table kept on
    d, calling relation_table only to build it."""
    table = d._analyses.get("relation_table")
    if table is None:
        table = relation_table(d)
    return table[w, x, y, z]


def _grid(*ids) -> tuple[np.ndarray, ...]:
    """np.ix_ of id sequences (lists, tuples or int arrays) without its dtype
    checks: each sequence as an intp array along its own axis of the grid."""
    axes = len(ids) - 1
    return tuple(np.asarray(v, np.intp).reshape((1,) * i + (-1,) + (1,) * (axes - i)) for i, v in enumerate(ids))


@_kept
def relation_table(d: DSet) -> np.ndarray:
    """Dense boolean table T[w,x,y,z] = D(wx;yz), degenerate values included.

    Read-only; built once per structure and kept on it, since every
    exhaustive check wants it.
    """
    n = d.n
    table = np.zeros((n, n, n, n), dtype=bool)
    # Degenerate values: D(ww;yz) and D(wx;yy) hold when the pairs are disjoint.
    ar = np.arange(n)
    apart = (ar[:, None, None] != ar[:, None]) & (ar[:, None, None] != ar)  # [w,y,z]: w not in {y,z}
    table[ar, ar] = apart
    table[:, :, ar, ar] = apart.transpose(1, 2, 0)
    a, b, c, e = d.rows.T
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
    """Evaluate D1..D6 over every tuple of elements.

    Each failing axiom reports its lexicographically least witness: the
    offending (w,x,y,z) for D1/D2, (w,x,y,z,v) for D3, (w,x,y) for D4 and
    D5, and the witnessless premise (w,x,y,z) for D6.  D5 needs at least
    three elements and D6 at least two; below that they are reported as
    not applicable rather than passed.  Rows that certify as a tree's
    relation are answered from that tree, without a table (see the module
    docstring).  The report is kept on d, so later calls return it.
    """
    n = d.n
    passed = AxiomVerdict("pass")
    rebuilt = _rebuild(d) if n >= 4 else None
    if rebuilt is not None:
        dist = rebuilt[2]
        # D5: the least (0, x, y) whose paths meet next to y; D6: (0, 0, 1, z),
        # z the least whose path to 1 leaves 0's at 0's neighbour.
        d5 = AxiomVerdict("fail", (0, *_first_true(dist[0, :, None] + 2 == dist[0] + dist)))
        d6 = AxiomVerdict("fail", (0, 0, 1, int(np.argmax(dist[1] + 2 == dist[0, 1] + dist[0]))))
        return AxiomReport(passed, passed, passed, passed, d5, d6)

    if n == 0:
        na = AxiomVerdict("not_applicable")
        return AxiomReport(passed, passed, passed, passed, na, na)
    t = relation_table(d)

    d2 = _sweep(n, lambda w: t[w] & t[w].transpose(1, 0, 2))

    # D3 and D6 quantify a fifth element v.  Its axis is packed into uint64
    # words, and both are swept one w at a time, so memory stays O(n^3).
    # A[x,y,z] = bits of D(vx;yz), packed once: by D1, D(wx;yv) = A[y,w,x]
    # (P2[w,x,y], a view), D(wv;yz) = A[w,y,z] and D(wx;vz) = A[z,w,x].
    full = _pack(np.ones(n, dtype=bool))
    a = _pack(t.transpose(1, 2, 3, 0))
    p2 = a.transpose(1, 2, 0, 3)

    def bad3(w: int) -> np.ndarray:  # D(wx;yz) but neither D(vx;yz) nor D(wx;yv)
        return t[w] & ((a | p2[w][:, :, None]) != full).any(axis=-1)

    d3 = _sweep(n, bad3)
    if d3.witness is not None:  # the least v with neither D(vx;yz) nor D(wx;yv)
        w, x, y, z = d3.witness
        d3 = AxiomVerdict("fail", (w, x, y, z, int(np.argmin(t[:, x, y, z] | t[w, x, y]))))

    # D5 fails where z == y is the only z with D(wx;yz), if even that.
    ar = np.arange(n)
    w3, x3, y3 = np.indices((n, n, n), sparse=True)
    lone = np.count_nonzero(t, axis=3) <= t[:, :, ar, ar]
    bad5 = (w3 != x3) & (w3 != y3) & (x3 != y3) & lone
    d5 = AxiomVerdict("not_applicable") if n < 3 else _sweep(n, bad5.__getitem__)

    def bad6(w: int) -> np.ndarray:  # D(wx;yz) but no v with D(vx;yz), D(wv;yz), D(wx;vz)
        return t[w] & ~(a & a[w][None] & p2[w][:, None]).any(axis=-1)

    d6 = AxiomVerdict("not_applicable") if n < 2 else _sweep(n, bad6)

    return AxiomReport(passed, d2, d3, passed, d5, d6)


def _require_core(d: DSet) -> None:
    """Refuse d unless it passes D1..D4, the precondition of type bases,
    hulls, the homogeneity report, its witnesses and one-point extension."""
    if not check_axioms(d).core_pass:
        raise InputError("input fails D1..D4")


@_kept
def _rebuild(d: DSet) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """d's tree rooted at element 0, certified as in the module docstring,
    or None: the distinct clusters and their parents, numbered by
    _numbered once they pass, and the leaf distances.  n >= 2."""
    n, rows = d.n, d.rows
    head = rows[: np.searchsorted(rows[:, 0], 1)]  # rows (0, c, a, b): D(ab;c0)
    inside = np.broadcast_to(np.arange(n) > 0, (n, n, n)).copy()
    inside[head[:, 2], head[:, 3], head[:, 1]] = False
    sets = np.concatenate([np.eye(n, dtype=bool)[1:], inside[np.triu_indices(n, 1)]])
    sets = sets[np.unique((bits := np.packbits(sets, axis=1)).view(f"V{bits.shape[1]}")[:, 0], return_index=True)[1]]

    # up[i]: the smallest set strictly containing set i; top: none does.
    size = sets.sum(axis=1)
    contains = (sets.astype(np.int64) @ sets.T == size[:, None]) & (size > size[:, None])
    up = np.where(contains, size, n).argmin(axis=1)
    top = ~contains.any(axis=1)
    child = np.flatnonzero(~top)
    inner = np.flatnonzero(size > 1)
    # Children partition their set iff their sizes add up to its own; then
    # each node has two or more, and one set is on top.
    kid_size = np.bincount(up[child], weights=size[child], minlength=len(sets))[inner]
    if (kid_size != size[inner]).any():
        return None

    dist = _distances(sets)  # the rows of below but element 0's, which is empty
    # One flat int16 table read at w * n + x, the ids in the narrowest dtype that holds n * n:
    # int16 holds each sum of two leaf distances (at most 2n - 2) at any n whose n^3 `inside` fits.
    flat = dist.astype(np.int16).ravel()
    w, x, y, z = rows.T.astype(np.min_scalar_type(n * n))
    w *= n
    if not (flat.take(w + x) + flat.take(y * n + z) < flat.take(w + y) + flat.take(x * n + z)).all():
        return None
    # Quads in four branches at a node: e4 of its branch sizes, by Newton.
    p1, p2, p3, p4 = (
        np.bincount(up[child], size[child] ** k, len(sets))[inner].astype(np.int64)
        + (n - size[inner]) ** k  # the branch towards 0
        for k in range(1, 5)
    )
    e2 = (p1 * p1 - p2) // 2
    e3 = (e2 * p1 - p1 * p2 + p3) // 3
    e4 = (e3 * p1 - e2 * p2 + p1 * p3 - p4) // 4
    if len(rows) != math.comb(n, 4) - int(e4.sum()):
        return None
    return (*_numbered(sets, up, top), dist)


def _numbered(sets: np.ndarray, up: np.ndarray, top: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """parent (-1 for node 0) and below by node id of the tree rooted at
    element 0 whose other nodes hold sets[i], under row up[i] or node 0 if
    top[i]: leaves are element ids, internal nodes n, n+1, ... by the second
    least of their children's least elements, the one numbering rule."""
    n, size = sets.shape[1], sets.sum(axis=1)
    child, inner = np.flatnonzero(~top), np.flatnonzero(size > 1)
    least = sets.argmax(axis=1)
    by_up = child[np.lexsort((least[child], up[child]))]
    second = least[by_up[np.searchsorted(up[by_up], inner) + 1]]
    ids = least.copy()
    ids[inner[np.argsort(second)]] = n + np.arange(len(inner))
    parent = np.full(n + len(inner), -1)
    parent[ids] = np.where(top, 0, ids[up])
    below = np.zeros((len(parent), n), dtype=bool)
    below[ids] = sets
    return parent, below


def _distances(below: np.ndarray) -> np.ndarray:
    """Leaf distances of a tree whose below[u, e] says leaf e is under the
    edge from node u to its parent (the root's row is empty): depth_i +
    depth_j - 2 * shared[i, j], shared counting the edges on both paths to
    the root.  Counts far below 2**24 keep the float32 product exact."""
    shared = below.T.astype(np.float32) @ below.astype(np.float32)
    depth = shared.diagonal()
    return (depth[:, None] + depth - 2 * shared).astype(np.int64)


def _record(adj, leaf_of: dict, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_rebuild's parent, below and dist for a tree in hand, given as
    adjacency lists and its node -> element map (n >= 1 elements): the rows
    of one _below walk from element 0's leaf, numbered by _numbered."""
    _, parent, below = _below(adj, leaf_of, n)
    parent, below = _numbered(below[1:], parent[1:] - 1, parent[1:] == 0)
    return parent, below, _distances(below)


def _tree_record(d: DSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(parent, below, dist) of d's certified tree, nodes as in _rebuild
    (parent -1 for the root, element 0), for every n; d must pass D1..D4."""
    n = d.n
    rebuilt = _rebuild(d) if n >= 2 else (np.full(n, -1), np.zeros((n, n), dtype=bool), np.zeros((n, n), dtype=np.int64))
    if rebuilt is None:
        raise InvariantViolation("D1..D4 hold but the rooted clusters form no tree")
    return rebuilt


def _walk(adj, root: int) -> tuple[list[int], dict]:
    """Breadth-first walk of a tree from root: visit order and parents,
    None for the root.  Every traversal of a tree goes through here."""
    order = [root]
    parent = {root: None}
    for u in order:
        for v in adj[u]:
            if v not in parent:
                parent[v] = u
                order.append(v)
    return order, parent


def _adjacency(nodes: Iterable[int], edges: Iterable[tuple[int, int]]) -> dict[int, list[int]]:
    """Each node's neighbours, in the order of the edges."""
    adj: dict[int, list[int]] = {u: [] for u in nodes}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _below(adj, leaf_of: dict, n: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """One walk from element 0's leaf: visit order, each node's parent as an
    index into it (-1 at the root), and below[i, e], whether element e is
    under the edge from order[i] to its parent (at the root, every element),
    gathered as Python int bitmasks, one OR per edge, and unpacked once."""
    order, parent = _walk(adj, next(u for u, e in leaf_of.items() if e == 0))
    index = {u: i for i, u in enumerate(order)}
    up = [-1] + [index[parent[u]] for u in order[1:]]
    bits = [0] * len(order)
    for u, e in leaf_of.items():
        bits[index[u]] = 1 << e
    for i in range(len(order) - 1, 0, -1):
        bits[up[i]] |= bits[i]
    raw = np.frombuffer(b"".join(b.to_bytes(n // 8 + 1, "little") for b in bits), dtype=np.uint8)
    below = np.unpackbits(raw.reshape(len(order), -1), axis=1, count=n, bitorder="little")
    return order, np.array(up), below.astype(bool)


def _rootings(adj) -> list[tuple[list[int], dict]]:
    """_walk from each center, the middle one or two nodes of a longest path
    (unique in a tree), in id order: every code of the tree reads these."""
    far = _walk(adj, next(iter(adj)))[0][-1]
    order, parent = _walk(adj, far)
    path = [order[-1]]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return [_walk(adj, c) for c in sorted(path[(len(path) - 1) // 2 : len(path) // 2 + 1])]


def _ranks(nodes: Iterable[int], parent: dict, adj, tokens, intern: dict, rank: dict) -> dict[int, int]:
    """Interned AHU ranks of nodes, each after its children (a walk reversed,
    or a path up to the root), set in rank: a node's rank numbers (tokens[u],
    *sorted child ranks) in intern, equal exactly for isomorphic subtrees."""
    for u in nodes:
        rank[u] = intern.setdefault((tokens[u], *sorted([rank[v] for v in adj[u] if v != parent[u]])), len(intern))
    return rank


def _coded(adj, tokens) -> tuple:
    """The walks of _rootings ranked into one intern and ordered as flat AHU
    codes: a node's token, its children's codes sorted, then ().  Tokens are
    non-empty tuples, so () sorts first: the first differing token or child
    decides, else the key with fewer children.  Keys list children first, so
    one pass sorts each key's children.  Returns the least center by code,
    then id; its parents and ranks; the keys by rank; and code, a sort key."""
    intern: dict = {}
    rooted = [(order[0], p, _ranks(order[::-1], p, adj, tokens, intern, {})) for order, p in _rootings(adj)]
    keys = list(intern)

    def compare(a: int, b: int) -> int:
        while a != b:
            ka, kb = keys[a], keys[b]
            for i, (x, y) in enumerate(zip(ka, kb)):
                if x != y:
                    break
            else:  # one key's children begin the other's
                return len(ka) - len(kb)
            if i == 0:  # the tokens differ
                return -1 if x < y else 1
            a, b = x, y
        return 0

    code = functools.cmp_to_key(compare)
    for r, key in enumerate(keys):
        if len(key) == 3:  # two children: the one comparison sorted would make
            keys[r] = (key[0], key[2], key[1]) if compare(key[2], key[1]) < 0 else key
        elif len(key) > 3:
            keys[r] = (key[0], *sorted(key[1:], key=code))
    root, parent, rank = min(rooted, key=lambda c: (code(c[2][c[0]]), c[0]))
    return root, parent, rank, keys, code


def _pack(bits: np.ndarray) -> np.ndarray:
    """Boolean array packed along its last axis into little-endian uint64
    words: bit i of the last axis is bit i % 64 of word i // 64."""
    n = bits.shape[-1]
    padded = np.zeros(bits.shape[:-1] + (-(-n // 64) * 64,), dtype=bool)
    padded[..., :n] = bits
    words = np.packbits(padded, bitorder="little").view("<u8")
    return words.reshape(bits.shape[:-1] + (-1,))


def _sweep(n: int, bad_at) -> AxiomVerdict:
    """Verdict from the slices bad_at(0), bad_at(1), ... in order: the
    first slice with a failure holds the lexicographically least witness."""
    for w in range(n):
        witness = _first_true(bad_at(w))
        if witness is not None:
            return AxiomVerdict("fail", (w,) + witness)
    return AxiomVerdict("pass")


def substructure(d: DSet, subset: Iterable[int]) -> tuple[DSet, dict[int, int]]:
    """Restrict to a subset of elements, re-densifying ids.

    Returns the restricted D-set together with the order-preserving map
    from old ids to new ids.
    """
    chosen = sorted(set(_require_ids(subset, d)))
    remap = {old: new for new, old in enumerate(chosen)}
    index = np.full(d.n, -1, dtype=np.int64)
    index[chosen] = np.arange(len(chosen))
    rows = index[d.rows]  # order-preserving, so still canonical and sorted
    colors = tuple(d.colors[e] for e in chosen)
    return DSet._from_rows(len(chosen), rows[(rows >= 0).all(axis=1)], colors), remap


def relabel(d: DSet, mapping: Mapping[int, int]) -> DSet:
    """Apply a bijection of 0..n-1 to every element, keeping colors attached."""
    if not isinstance(mapping, Mapping):
        raise InputError("relabeling must be a mapping from old to new ids")
    olds, news = _require_ids(mapping, d), _require_ids(mapping.values(), d)
    if sorted(olds) != list(range(d.n)) or sorted(news) != list(range(d.n)):
        raise InputError("relabeling must be a bijection of the element range")
    image = np.empty(d.n, dtype=np.int64)
    image[olds] = news
    colors = [0] * d.n
    for old, new in zip(olds, news):
        colors[new] = d.colors[old]
    out = DSet._from_rows(d.n, _sort_rows(_canonical_rows(image[d.rows]), d.n)[0], colors)
    record = d._analyses.get("_rebuild")
    if record is not None:  # the same tree, leaf u now carrying element image[u]
        adj = _adjacency(range(len(record[0])), enumerate(record[0][1:].tolist(), 1))
        out._analyses["_rebuild"] = _record(adj, dict(enumerate(image.tolist())), d.n)
    return out


def are_isomorphic(
    d1: DSet,
    d2: DSet,
    respect_colors: bool = True,
    max_n: int = 10,
) -> Optional[dict[int, int]]:
    """The lexicographically least relation-preserving bijection (element 0
    gets the least feasible image, and so on), or None.

    Tables that satisfy D1..D4 are compared through their certified trees'
    interned ranks (_ranks) at each center.  The bijection is then built
    greedily by individualisation: e takes the least unused f whose ranks up
    to some root read as e's do up to the first tree's first root, exactly
    when an isomorphism matching the tokens sends e to f; both then get the
    token (color, e + 1), and only their root paths are ranked again.
    Tables that fail D1..D4 fall back to backtracking, capped at max_n
    elements; raise the cap explicitly for bigger instances.
    """
    _require_dset(d1)
    _require_dset(d2)
    respect_colors = _flag(respect_colors, "respect_colors")
    _natural(max_n, "'max_n' must be a non-negative integer, got {!r}")
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
    if not core1:
        if d1.n > max_n:
            raise InputError(
                f"backtracking isomorphism capped at {max_n} elements for tables "
                "that fail D1..D4; pass max_n to override"
            )
        return _backtrack_bijection(d1, d2, respect_colors)

    n, intern = d1.n, {}
    trees = []  # per tree: its adjacency, its nodes' tokens, and per center (parent, rank)
    for d in (d1, d2):
        parents = _tree_record(d)[0].tolist()
        adj = _adjacency(range(len(parents)), enumerate(parents[1:], 1))
        tokens = [(c if respect_colors else 0, 0) for c in d.colors] + [None] * (len(parents) - n)
        trees.append((adj, tokens, [(p, _ranks(order[::-1], p, adj, tokens, intern, {})) for order, p in _rootings(adj)]))
    (_, tokens1, roots1), (_, tokens2, roots2) = trees

    def up(parent: dict, u: int):  # u, then each node above it
        while u is not None:
            yield u
            u = parent[u]

    def path(rooting, u: int) -> list[int]:  # the ranks up from u, the root's last
        parent, rank = rooting
        return [rank[v] for v in up(parent, u)]

    if sorted(path(r, 0)[-1] for r in roots1) != sorted(path(r, 0)[-1] for r in roots2):
        return None
    image = {}
    for e, (color, _) in enumerate(tokens1[:n]):
        target = path(roots1[0], e)
        f = next((f for f in range(n) if tokens2[f] == tokens1[e] and any(path(r, f) == target for r in roots2)), None)
        if f is None:
            raise InvariantViolation("equal canonical forms but no individualised image")
        image[e] = f
        tokens1[e] = tokens2[f] = (color, e + 1)
        for leaf, (adj, tokens, rootings) in zip((e, f), trees):
            for parent, rank in rootings:  # ranked again up one path
                _ranks(up(parent, leaf), parent, adj, tokens, intern, rank)
    return image


def _backtrack_bijection(d1: DSet, d2: DSet, respect_colors: bool) -> Optional[dict[int, int]]:
    n = d1.n
    image = [-1] * n

    def compatible(e: int, f: int) -> bool:
        if respect_colors and d1.colors[e] != d2.colors[f]:
            return False
        # The placed elements already agree, and by D1 every tuple with e
        # has an image with e first, so this compares the tuples (e, x, y, z).
        placed, images = list(range(e + 1)), image[:e] + [f]
        return np.array_equal(_atoms(d1, e, *_grid(*[placed] * 3)), _atoms(d2, f, *_grid(*[images] * 3)))

    def place(e: int) -> bool:
        if e == n:
            return True
        for f in range(n):
            if f not in image[:e] and compatible(e, f):
                image[e] = f
                if place(e + 1):
                    return True
                image[e] = -1
        return False

    return dict(enumerate(image)) if place(0) else None
