"""Finite windows of would-be indiscernible sequences.

A window is a finite list of same-arity tuples read in list order.  One
column reader, `_classify`, sorts a column into constant, petaled or
monotonic for classification and hulls alike, its index quads in their
pairings read from a block kept per window length (`_block`: up to 2**12
quads, 4..19 rows, 1.6 MB in all); frontier sets come from one pass over
the sectors; weak indiscernibility over a parameter set compares each
relation atom with the first atom of its order type, all atoms read in one
gather over a layout kept per window shape (up to 2**16 atoms, for at most
32 shapes), one slot layout per D1 orbit.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from ._gates import InputError, _natural, _refused
from .core import DSet, _atoms, _require_core, _require_dset, _require_ids
from .splittings import enumerate_splittings


@dataclass(frozen=True)
class SequenceWindow:
    """Ordered rows of element tuples; row order is the index order."""

    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: Iterable[Sequence[int]]) -> None:
        with _refused("window rows must be a sequence of sequences"):  # rows, or a row, is not iterable
            packed = tuple(tuple(_require_ids(tuple(row))) for row in rows)
        if not packed:
            raise InputError("window must hold at least one row")
        arity = len(packed[0])
        if arity < 1:
            raise InputError("window rows must be nonempty tuples")
        if any(len(row) != arity for row in packed):
            raise InputError("window rows must share one arity")
        object.__setattr__(self, "rows", packed)

    @property
    def arity(self) -> int:
        return len(self.rows[0])

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.arity)]

    def elements(self) -> frozenset[int]:
        return frozenset(v for row in self.rows for v in row)

    def to_json(self) -> str:
        return json.dumps({"rows": [list(row) for row in self.rows]})

    @classmethod
    def from_json(cls, text: str) -> "SequenceWindow":
        with _refused("bad window payload", json.JSONDecodeError, RecursionError, KeyError):
            rows = [tuple(row) for row in json.loads(text)["rows"]]  # TypeError if rows or a row is not iterable
        return cls(rows)


def _require_window(*windows) -> None:
    """Refuse anything but a SequenceWindow where a window belongs: the one
    check, run by every entry point that takes a window."""
    for s in windows:
        if not isinstance(s, SequenceWindow):
            raise InputError(f"expected a SequenceWindow, got {s!r}")


@dataclass(frozen=True)
class WindowClass:
    """Verdict of the singleton-window trichotomy.

    label is one of constant / petaled / monotonic / not_indiscernible; the
    witness explains the last case.
    """

    label: str
    witness: Optional[dict] = None

    def as_dict(self) -> dict:
        out: dict = {"label": self.label}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


# Slots of an index quad (a, b, c, e) in its three pairings ab|ce, ac|be, ae|bc.
_PAIRINGS = np.array([[0, 1, 2, 3], [0, 2, 1, 3], [0, 3, 1, 2]])
# The label of each pairing pattern an indiscernible class allows.
_LABELS = {(False, False, False): "petaled", (True, False, False): "monotonic"}
# Window blocks are kept for each length of at most _KEEP_QUADS index quads,
# 4..19 rows: 1,604,640 bytes in all.  A longer window builds its own per call.
_KEEP_QUADS = 2**12
_BLOCKS: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _block(m: int) -> tuple[np.ndarray, np.ndarray]:
    """An m-row window's index quads in their three pairings [slot, pairing,
    quad], pairing 0 being the quads themselves, and its index triples
    [slot, triple], both in combinations order: read-only, kept per length."""
    if m in _BLOCKS:
        return _BLOCKS[m]
    quads, triples = (np.array(list(itertools.combinations(range(m), k)), np.intp).reshape(-1, k).T for k in (4, 3))
    block = quads[_PAIRINGS.T], triples.copy()
    for array in block:
        array.flags.writeable = False
    if quads.shape[1] <= _KEEP_QUADS:
        _BLOCKS[m] = block
    return block


def classify_window(d: DSet, s: SequenceWindow) -> WindowClass:
    """Sort a singleton window into the indiscernibility trichotomy.

    A window that is not constant must be all-distinct with every index
    quad showing one shared pairing pattern: all-false means petaled, the
    outer pairing alone means monotonic.  Anything else is returned as
    not_indiscernible with a witness of the offending quad(s).
    """
    _require_window(s)
    if s.arity != 1:
        raise InputError("classification works on singleton windows")
    return _classify(d, s.column(0))


def _classify(d: DSet, col: Sequence[int]) -> WindowClass:
    """classify_window's verdict on one column of a window: the one reader
    of a column, for classify_window and hull_window alike."""
    if len(col) < 4:
        raise InputError("window too short to classify (need at least 4 rows)")
    col = _require_ids(col, d)
    if len(set(col)) == 1:
        return WindowClass("constant")
    first: dict[int, int] = {}
    for i, v in enumerate(col):
        if first.setdefault(v, i) != i:
            return WindowClass("not_indiscernible", {"kind": "repeat", "indices": [first[v], i], "element": v})

    pairings = _block(len(col))[0]
    quads, patterns = pairings[:, 0], _atoms(d, *np.array(col)[pairings])  # [slot, quad], [pairing, quad]
    pattern, q = patterns[:, 0].tolist(), int((patterns != patterns[:, :1]).any(axis=0).argmax())
    if q:  # the first quad whose pattern differs from quad 0's
        witness = {"kind": "order", "quad_a": quads[:, 0].tolist(), "pattern_a": pattern}
        witness.update(quad_b=quads[:, q].tolist(), pattern_b=patterns[:, q].tolist())
        return WindowClass("not_indiscernible", witness)
    label = _LABELS.get(tuple(pattern))
    if label is not None:
        return WindowClass(label)
    witness = {"kind": "forbidden_pattern", "quad": quads[:, 0].tolist(), "pattern": pattern}
    return WindowClass("not_indiscernible", witness)


@dataclass(frozen=True)
class ColumnHull:
    """Hull data for one window column."""

    column: int
    klass: WindowClass
    hull: frozenset[int]
    h1: frozenset[int] = frozenset()
    h2: frozenset[int] = frozenset()
    h3: frozenset[int] = frozenset()
    sector_union: frozenset[int] = frozenset()
    left: frozenset[int] = frozenset()
    right: frozenset[int] = frozenset()

    def as_dict(self) -> dict:
        out: dict = {"column": self.column, "class": self.klass.as_dict()}
        for name in ("hull", "h1", "h2", "h3", "sector_union", "left", "right"):
            out[name] = sorted(getattr(self, name))
        return out


@dataclass(frozen=True)
class HullResult:
    """Union of the per-column hulls of a window."""

    columns: tuple[ColumnHull, ...]
    hull: frozenset[int] = field(default=frozenset())

    def as_dict(self) -> dict:
        return {"hull": sorted(self.hull), "columns": [c.as_dict() for c in self.columns]}


def _monotonic_parts(d: DSet, col: Sequence[int]) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    others = np.array(sorted(d.elements.difference(col)), dtype=np.int64)
    x = others[:, None]  # [outside element, index triple or quad of col]
    pairings, triples = _block(len(col))
    a, b, c = (col := np.array(col))[triples]
    h1 = _atoms(d, a, c, b, x).any(axis=1)
    h2 = ~(_atoms(d, a, b, c, x) | _atoms(d, a, c, b, x) | _atoms(d, a, x, b, c)).all(axis=1)
    a, b, c, e = col[pairings[:, 0]]
    h3 = (_atoms(d, a, x, c, e) & _atoms(d, a, b, x, e)).any(axis=1)
    return tuple(frozenset(others[h].tolist()) for h in (h1, h2, h3))


def _petaled_sectors(d: DSet, col: Sequence[int]) -> frozenset[int]:
    # Four or more elements with every pairing false meet at one node, whose
    # splitting alone gives each its own sector: take the sectors they meet.
    met = ([sec for sec in s.sectors if not sec.isdisjoint(col)] for s in enumerate_splittings(d))
    return frozenset().union(*next(m for m in met if len(m) == len(col)))


def hull_window(d: DSet, s: SequenceWindow) -> HullResult:
    """Discernible hull of a window: union over its columns.

    Requires d to pass D1..D4 and raises InputError("input fails D1..D4")
    otherwise, as do homtypes.qftp_base, homtypes.homogeneity_conditions,
    homtypes.nonextendable_witness and splittings.extend_by_point.
    Constant columns contribute nothing.  A petaled column takes the sectors
    it meets of its one separating splitting.  A monotonic column takes its
    elements and the three witnessed side sets, and reports its frontiers.
    """
    _require_window(s)
    _require_core(d)
    hulls: list[ColumnHull] = []
    for j, col in enumerate(s.columns()):
        klass = _classify(d, col)
        if klass.label == "not_indiscernible":
            raise InputError(f"column {j} is not indiscernible: {klass.witness}")
        if klass.label == "constant":
            hulls.append(ColumnHull(j, klass, frozenset()))
        elif klass.label == "petaled":
            union = _petaled_sectors(d, col)
            hulls.append(ColumnHull(j, klass, union, sector_union=union))
        else:
            if len(col) < 5:
                raise InputError("monotonic hull needs a window of at least 5 rows")
            h1, h2, h3 = _monotonic_parts(d, col)
            left, right = _frontiers(d, col)
            hull = frozenset(col) | h1 | h2 | h3
            hulls.append(ColumnHull(j, klass, hull, h1, h2, h3, frozenset(), left, right))
    return HullResult(tuple(hulls), frozenset().union(*(c.hull for c in hulls)))


def frontiers(d: DSet, s: SequenceWindow) -> tuple[frozenset[int], frozenset[int]]:
    """Left and right frontier of a monotonic singleton window.

    A sector qualifies on the left when it meets the window in an initial
    segment of length at least 2 missing at least 2 rows; the frontier is
    the intersection of all qualifying sectors with the window elements
    removed, empty when nothing qualifies.  The right side mirrors this
    with final segments.
    """
    klass = classify_window(d, s)
    if klass.label != "monotonic":
        raise InputError(f"frontiers need a monotonic window, got {klass.label}")
    if len(s) < 5:
        raise InputError("frontiers need a window of at least 5 rows")
    return _frontiers(d, s.column(0))


def _frontiers(d: DSet, col: Sequence[int]) -> tuple[frozenset[int], frozenset[int]]:
    """frontiers of a monotonic column of at least 5 rows, unchecked, from
    one pass over the sectors: each sector's meet with the window is taken
    once and, if it has 2..m-2 rows, looked up in the initial (final) segments."""
    m, window = len(col), frozenset(col)
    sectors = (sec for splitting in enumerate_splittings(d) for sec in splitting.sectors)
    met = [(sec, meet) for sec in sectors if 1 < len(meet := sec & window) < m - 1]

    def frontier(segments: set[frozenset[int]]) -> frozenset[int]:
        family = [sec for sec, meet in met if meet in segments]
        return frozenset.intersection(*family) - window if family else frozenset()

    ts = range(2, m - 1)
    return frontier({frozenset(col[:t]) for t in ts}), frontier({frozenset(col[-t:]) for t in ts})


def _slot_layouts(m: int, k: int, nb: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per slot layout in scan order, the fillings of m rows of arity k over
    nb params: slots, (F, 4) indices into [window cells column-major...,
    sorted params...], and first_of, each filling's first with its key.
    A layout marks window slots 1.  D1's slot permutations keep atom values
    and key classes, so of the 14 mixed layouts only each orbit's first in
    product order is read: it holds a witness exactly when the others do."""
    km = k * m
    for pattern in ((0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 1)):
        shape = tuple(km if flag else nb for flag in pattern)
        index = np.indices(shape).reshape(4, -1)
        # Key of a filling: each slot's parameter or column, then the
        # order/equality pattern of its window rows.
        key = np.zeros(index.shape[1], dtype=np.int64)
        rows = []
        for flag, size, idx in zip(pattern, shape, index):
            if flag:
                key = key * k + idx // m
                rows.append(idx % m)
            else:
                key = key * size + idx
        for r1, r2 in itertools.combinations(rows, 2):
            key = key * 3 + np.sign(r1 - r2) + 1
        _, first, group = np.unique(key, return_index=True, return_inverse=True)
        yield index.T + km * (1 - np.array(pattern)), first[group]


# Kept layouts: at most this many fillings (12 bytes each), 32 shapes.
_KEEP_FILLINGS = 2**16


@functools.lru_cache(maxsize=32)
def _layout(m: int, k: int, nb: int) -> tuple[np.ndarray, np.ndarray]:
    """A shape's k*m * nb * (k*m + nb)**2 fillings in one read-only block:
    int16 slots and int32 first_of, indexing the whole block."""
    slots, first_of, start = [], [], 0
    for layout_slots, layout_first in _slot_layouts(m, k, nb):
        slots.append(layout_slots)
        first_of.append(start + layout_first)
        start += len(layout_first)
    out = np.concatenate(slots).astype(np.int16), np.concatenate(first_of).astype(np.int32)
    for array in out:
        array.flags.writeable = False
    return out


def weakly_indiscernible_over(d: DSet, s: SequenceWindow, params: Iterable[int]) -> tuple[bool, Optional[dict]]:
    """Order-invariance of every relation atom mixing the window with params.

    Each atom fills the four slots with parameters and window entries, the
    window entries addressed by (column, row).  Two fillings with the same
    slot layout, the same parameters and columns, and the same
    order/equality pattern of their row indices must agree.  Slot layouts
    are taken in product order and, within one, fillings in product order
    of their slots; the witness pair is the first filling whose value
    differs from the first filling with its key, together with that first
    filling.  An empty parameter set is vacuously invariant.  A parameter
    that is also a window entry tells that entry's row apart by equality, a
    true verdict of False: on CAT5 over [0], D(00;00) at row 0 is False and
    D(00;11) at row 1 True.

    The fillings and their keys depend only on the window's shape (rows,
    arity, parameter count), and the 4 layouts of _slot_layouts hold
    k*m * nb * (k*m + nb)**2 of them.  A shape of up to 2**16 fillings has
    them built once and kept, for at most 32 shapes, and a call reads all
    its atoms in one gather.  A larger shape builds them for the call, one
    slot layout at a time, and stops at the first layout with a witness.
    """
    _require_window(s)
    if len(s) < 5:
        raise InputError("weak indiscernibility needs a window of at least 5 rows")
    b_list = sorted(set(_require_ids(params, d)))
    _require_ids(sorted(s.elements()), d)
    if not b_list:
        return True, None

    m, k, nb = len(s), s.arity, len(b_list)
    fillings = k * m * nb * (k * m + nb) ** 2
    blocks = [_layout(m, k, nb)] if fillings <= _KEEP_FILLINGS else _slot_layouts(m, k, nb)
    # Window slots range over (column, row) pairs column-major.
    ids = np.array([s.rows[r][c] for c in range(k) for r in range(m)] + b_list, dtype=np.intp)
    for slots, first_of in blocks:
        args = ids[slots]
        values = _atoms(d, *args.T)
        differs = values != values[first_of]
        j = int(differs.argmax())
        if not differs[j]:
            continue

        def atom(f: int) -> dict:
            out: list[dict] = []
            for slot, v in zip(slots[f].tolist(), args[f].tolist()):
                if slot < k * m:
                    c, r = divmod(slot, m)
                    out.append({"kind": "window", "column": c, "row": r, "id": v})
                else:
                    out.append({"kind": "param", "id": v})
            return {"slots": out, "args": args[f].tolist(), "value": bool(values[f])}

        return False, {"kind": "order_type", "first": atom(int(first_of[j])), "second": atom(j)}
    return True, None


def mutually_indiscernible(d: DSet, s1: SequenceWindow, s2: SequenceWindow) -> tuple[bool, Optional[dict]]:
    """Each window weakly indiscernible over the other's elements."""
    _require_window(s1, s2)
    if len(s1) < 5 or len(s2) < 5:
        raise InputError("mutual indiscernibility needs windows of at least 5 rows")
    for direction, s, other in (("first_over_second", s1, s2), ("second_over_first", s2, s1)):
        ok, witness = weakly_indiscernible_over(d, s, other.elements())
        if not ok:
            return False, {"direction": direction, **witness}
    return True, None


def detect_petaled(d: DSet, k: int) -> Optional[SequenceWindow]:
    """Least k-tuple of elements pairwise separated by one splitting; a table
    of more than 6 elements failing D1..D4 raises NotRepresentable."""
    _require_dset(d)
    if isinstance(k, (int, np.integer)) and k < 3:
        raise InputError("petaled detection needs k of at least 3")
    k = _natural(k, "'k' must be a non-negative integer, got {!r}")
    if d.n < k:
        return None
    # Sectors are ordered by least element, so the least k elements one
    # splitting separates are the least elements of its first k sectors.
    least = [[min(sec) for sec in sp.sectors[:k]] for sp in enumerate_splittings(d) if len(sp.sectors) >= k]
    return SequenceWindow([(v,) for v in min(least)]) if least else None
