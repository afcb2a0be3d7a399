"""Finite windows of would-be indiscernible sequences.

A window is a finite list of same-arity tuples read in list order.  The
operations here classify singleton windows (constant, petaled, monotonic),
compute discernible hulls and frontier sets, and decide weak indiscernibility
over a parameter set by comparing each relation atom with the first atom of
its order type, all atoms read in one gather over a layout kept per window
shape (up to 2**16 atoms, for at most 32 shapes).
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import DSet, InputError, _atoms, _require_core, _require_ids
from .splittings import enumerate_splittings, extend_splitting
from .trees import Splitting


@dataclass(frozen=True)
class SequenceWindow:
    """Ordered rows of element tuples; row order is the index order."""

    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: Iterable[Sequence[int]]) -> None:
        try:
            packed = tuple(tuple(_require_ids(tuple(row))) for row in rows)
        except TypeError as exc:  # rows, or one of them, is not iterable
            raise InputError(f"window rows must be a sequence of sequences: {exc}") from exc
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
        try:
            payload = json.loads(text)
            rows = [tuple(row) for row in payload["rows"]]  # TypeError if rows or a row is not iterable
        except (json.JSONDecodeError, TypeError, KeyError) as exc:
            raise InputError(f"bad window payload: {exc}") from exc
        return cls(rows)


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


def classify_window(d: DSet, s: SequenceWindow) -> WindowClass:
    """Sort a singleton window into the indiscernibility trichotomy.

    A window that is not constant must be all-distinct with every index
    quad showing one shared pairing pattern: all-false means petaled, the
    outer pairing alone means monotonic.  Anything else is returned as
    not_indiscernible with a witness of the offending quad(s).
    """
    if s.arity != 1:
        raise InputError("classification works on singleton windows")
    if len(s) < 4:
        raise InputError("window too short to classify (need at least 4 rows)")
    col = _require_ids(s.column(0), d)
    if len(set(col)) == 1:
        return WindowClass("constant")
    if len(set(col)) < len(col):
        seen: dict[int, int] = {}
        for i, v in enumerate(col):
            if v in seen:
                return WindowClass(
                    "not_indiscernible",
                    {"kind": "repeat", "indices": [seen[v], i], "element": v},
                )
            seen[v] = i

    quads = np.array(list(itertools.combinations(range(len(col)), 4)), dtype=np.intp)
    args = np.array(col)[quads][:, _PAIRINGS]  # [quad, pairing, slot]
    patterns = _atoms(d, *np.moveaxis(args, -1, 0)).tolist()
    first_pattern = patterns[0]
    for q, pattern in enumerate(patterns):
        if pattern != first_pattern:
            return WindowClass(
                "not_indiscernible",
                {
                    "kind": "order",
                    "quad_a": quads[0].tolist(),
                    "pattern_a": first_pattern,
                    "quad_b": quads[q].tolist(),
                    "pattern_b": pattern,
                },
            )
    if first_pattern == [False, False, False]:
        return WindowClass("petaled")
    if first_pattern == [True, False, False]:
        return WindowClass("monotonic")
    return WindowClass(
        "not_indiscernible",
        {
            "kind": "forbidden_pattern",
            "quad": quads[0].tolist(),
            "pattern": first_pattern,
        },
    )


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
        return {
            "column": self.column,
            "class": self.klass.as_dict(),
            "hull": sorted(self.hull),
            "h1": sorted(self.h1),
            "h2": sorted(self.h2),
            "h3": sorted(self.h3),
            "sector_union": sorted(self.sector_union),
            "left": sorted(self.left),
            "right": sorted(self.right),
        }


@dataclass(frozen=True)
class HullResult:
    """Union of the per-column hulls of a window."""

    columns: tuple[ColumnHull, ...]
    hull: frozenset[int] = field(default=frozenset())

    def as_dict(self) -> dict:
        return {
            "hull": sorted(self.hull),
            "columns": [c.as_dict() for c in self.columns],
        }


def _monotonic_parts(
    d: DSet, col: Sequence[int]
) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    others = np.array(sorted(d.elements.difference(col)), dtype=np.int64)
    x = others[:, None]  # [outside element, index triple or quad of col]
    a, b, c = np.array(list(itertools.combinations(col, 3)), dtype=np.int64).reshape(-1, 3).T
    h1 = _atoms(d, a, c, b, x).any(axis=1)
    h2 = ~(_atoms(d, a, b, c, x) | _atoms(d, a, c, b, x) | _atoms(d, a, x, b, c)).all(axis=1)
    a, b, c, e = np.array(list(itertools.combinations(col, 4)), dtype=np.int64).reshape(-1, 4).T
    h3 = (_atoms(d, a, x, c, e) & _atoms(d, a, b, x, e)).any(axis=1)
    return tuple(frozenset(others[h].tolist()) for h in (h1, h2, h3))


def _petaled_sectors(d: DSet, col: Sequence[int]) -> frozenset[int]:
    partial = Splitting([{v} for v in col])
    full = extend_splitting(d, partial.ground, partial)
    return frozenset().union(*(sec for sec in full.sectors if sec & partial.ground))


def hull_window(d: DSet, s: SequenceWindow) -> HullResult:
    """Discernible hull of a window: union over its columns.

    Requires d to pass D1..D4 and raises InputError("input fails D1..D4")
    otherwise, as do homtypes.qftp_base, homtypes.homogeneity_conditions,
    homtypes.nonextendable_witness and splittings.extend_by_point.
    Constant columns contribute nothing.  A petaled column grows its
    singletons into a full node splitting and takes every sector the column
    meets.  A monotonic column takes its own elements plus the three
    witnessed side sets, and also reports the frontier pair.
    """
    _require_core(d)
    hulls: list[ColumnHull] = []
    for j, col in enumerate(s.columns()):
        window = SequenceWindow([(v,) for v in col])
        klass = classify_window(d, window)
        if klass.label == "not_indiscernible":
            raise InputError(
                f"column {j} is not indiscernible: {klass.witness}"
            )
        if klass.label == "constant":
            hulls.append(ColumnHull(j, klass, frozenset()))
            continue
        if klass.label == "petaled":
            union = _petaled_sectors(d, col)
            hulls.append(ColumnHull(j, klass, union, sector_union=union))
            continue
        if len(col) < 5:
            raise InputError("monotonic hull needs a window of at least 5 rows")
        h1, h2, h3 = _monotonic_parts(d, col)
        left, right = frontiers(d, window)
        hull = frozenset(col) | h1 | h2 | h3
        hulls.append(ColumnHull(j, klass, hull, h1, h2, h3, frozenset(), left, right))
    total = frozenset().union(*(c.hull for c in hulls)) if hulls else frozenset()
    return HullResult(tuple(hulls), total)


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
    col = s.column(0)
    if len(col) < 5:
        raise InputError("frontiers need a window of at least 5 rows")
    m = len(col)
    initials = [frozenset(col[: t + 1]) for t in range(1, m - 2)]
    finals = [frozenset(col[t:]) for t in range(2, m - 1)]
    col_set = frozenset(col)

    left_family: list[frozenset[int]] = []
    right_family: list[frozenset[int]] = []
    for splitting in enumerate_splittings(d):
        for sec in splitting.sectors:
            met = sec & col_set
            if met in initials:
                left_family.append(sec)
            if met in finals:
                right_family.append(sec)

    def core(family: list[frozenset[int]]) -> frozenset[int]:
        if not family:
            return frozenset()
        acc = family[0]
        for sec in family[1:]:
            acc &= sec
        return acc - col_set

    return core(left_family), core(right_family)


def _pattern_iter() -> list[tuple[int, ...]]:
    # 1 marks a window slot; pure-parameter and pure-window atoms are out.
    return [p for p in itertools.product((0, 1), repeat=4) if 0 < sum(p) < 4]


def _slot_layouts(m: int, k: int, nb: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per slot layout in scan order, the fillings of m rows of arity k over
    nb params: slots, (F, 4) indices into [window cells column-major...,
    sorted params...], and first_of, each filling's first with its key."""
    km = k * m
    for pattern in _pattern_iter():
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
    """Every slot layout of a shape in one read-only block: int16 slots and
    int32 first_of, indexing the whole block."""
    slots, first_of, start = [], [], 0
    for layout_slots, layout_first in _slot_layouts(m, k, nb):
        slots.append(layout_slots)
        first_of.append(start + layout_first)
        start += len(layout_first)
    out = np.concatenate(slots).astype(np.int16), np.concatenate(first_of).astype(np.int32)
    for array in out:
        array.flags.writeable = False
    return out


def weakly_indiscernible_over(
    d: DSet, s: SequenceWindow, params: Iterable[int]
) -> tuple[bool, Optional[dict]]:
    """Order-invariance of every relation atom mixing the window with params.

    Each atom fills the four slots with parameters and window entries, the
    window entries addressed by (column, row).  Two fillings with the same
    slot layout, the same parameters and columns, and the same
    order/equality pattern of their row indices must agree.  Slot layouts
    are taken in product order and, within one, fillings in product order
    of their slots; the witness pair is the first filling whose value
    differs from the first filling with its key, together with that first
    filling.  An empty parameter set is vacuously invariant.

    The fillings and their keys depend only on the window's shape (rows,
    arity, parameter count).  A shape of up to 2**16 fillings has them
    built once and kept, for at most 32 shapes, and a call reads all its
    atoms in one gather.  A larger shape builds them for the call, one slot
    layout at a time, and stops at the first layout with a witness.
    """
    if len(s) < 5:
        raise InputError("weak indiscernibility needs a window of at least 5 rows")
    b_list = sorted(set(_require_ids(params, d)))
    _require_ids(sorted(s.elements()), d)
    if not b_list:
        return True, None

    m, k, nb = len(s), s.arity, len(b_list)
    fillings = (k * m + nb) ** 4 - (k * m) ** 4 - nb**4
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


def mutually_indiscernible(
    d: DSet, s1: SequenceWindow, s2: SequenceWindow
) -> tuple[bool, Optional[dict]]:
    """Each window weakly indiscernible over the other's elements."""
    if len(s1) < 5 or len(s2) < 5:
        raise InputError("mutual indiscernibility needs windows of at least 5 rows")
    ok, witness = weakly_indiscernible_over(d, s1, s2.elements())
    if not ok:
        assert witness is not None
        return False, {"direction": "first_over_second", **witness}
    ok, witness = weakly_indiscernible_over(d, s2, s1.elements())
    if not ok:
        assert witness is not None
        return False, {"direction": "second_over_first", **witness}
    return True, None


def detect_petaled(d: DSet, k: int) -> Optional[SequenceWindow]:
    """Least k-tuple of elements pairwise separated by one node splitting."""
    if k < 3:
        raise InputError("petaled detection needs k of at least 3")
    if d.n < k:
        return None
    # Fewer than k sectors cannot separate k elements.
    wide = [sp for sp in enumerate_splittings(d) if len(sp.sectors) >= k]
    if not wide:
        return None
    for combo in itertools.combinations(range(d.n), k):
        for sp in wide:
            sectors = {sp.sector_of(v) for v in combo}
            if len(sectors) == len(combo):
                return SequenceWindow([(v,) for v in combo])
    return None
