"""Spans and memory peaks around the library's public functions, from outside.

Tracing replaces each public function of the dsets modules with a wrapper
in every dsets namespace that binds it, so module-level `from .core import
...` names and the lazy imports inside functions all reach the wrapper and
calls between layers are seen without editing the library.  DSet.holds is
only counted, and in the memory pass, not the span pass: it runs hundreds of
thousands of times per structure and even a counter around it would swamp
the self times of the functions it sits inside.

Both tracers refuse to install when a function they are asked to report is
not found, so a renamed or moved function fails the run instead of reading
as 0 calls.
"""

from __future__ import annotations

import importlib
import inspect
import time
import tracemalloc
from collections import Counter, defaultdict

LIBRARY_MODULES = ("core", "trees", "splittings", "homtypes", "indiscernibles", "generators")
BINDING_MODULES = LIBRARY_MODULES + ("cli", "")
# Called per stored quad; a span here would cost more than the work.
UNWRAPPED = frozenset({"core.normalize_quad"})
# Reported for the inputs the run generates in set-up; every other function
# only for calls inside the timed operations.
SETUP_LAYERS = ("generators.",)


def _module(short: str):
    return importlib.import_module("dsets" + ("." + short if short else ""))


def _public_functions() -> dict[str, object]:
    """'module.function' -> function, for every public function a library module defines."""
    out = {}
    for short in LIBRARY_MODULES:
        mod = _module(short)
        for name, obj in vars(mod).items():
            if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            key = f"{short}.{name}"
            if key not in UNWRAPPED:
                out[key] = obj
    return out


def _require(found, required) -> None:
    missing = sorted(set(required) - set(found))
    if missing:
        raise LookupError(f"no dsets function to trace for {', '.join(missing)}")


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, value)

    def rebind(self, originals: dict[str, object], make) -> None:
        """Replace each original in every binding namespace by make(key, original)."""
        wrappers = {id(f): make(key, f) for key, f in originals.items()}
        for short in BINDING_MODULES:
            mod = _module(short)
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self.set(mod, name, wrappers[id(obj)])

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class SpanTracer:
    """Records one span per wrapped call: name, start, end, parent span, operation."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.op = -1  # index of the running operation; -1 during set-up
        self.op_kinds: list[str] = []  # kind of each operation, by index
        self._stack: list[int] = []
        self._patches = _Patches()

    def install(self, required: tuple[str, ...] = ()) -> None:
        """Wrap every public function; raise if one of `required` is not among them."""
        functions = _public_functions()
        dset = _module("core").DSet
        _require(list(functions) + ["core.from_json"], required)
        self._patches.rebind(functions, self._span)
        self._patches.set(dset, "from_json", classmethod(self._span("core.from_json", dset.__dict__["from_json"].__func__)))

    def uninstall(self) -> None:
        self._patches.undo()

    def _span(self, key: str, f):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return f(*args, **kwargs)
            index = len(spans)
            spans.append((key, 0.0, 0.0, stack[-1] if stack else -1, self.op))
            stack.append(index)
            start = clock()
            try:
                return f(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (key, start, end, spans[index][3], self.op)

        wrapper.__wrapped__ = f
        return wrapper

    def totals(self) -> tuple[Counter, dict[str, float]]:
        """Calls and self time per function, inside the operations (set-up
        too for SETUP_LAYERS); self time is a span's duration minus the
        durations of its direct children."""
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for key, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (key, start, end, _, op), inner in zip(self.spans, child_time):
            if op >= 0 or key.startswith(SETUP_LAYERS):
                calls[key] += 1
                self_s[key] += (end - start) - inner
        return calls, dict(self_s)

    def calls_per_op(self, names: tuple[str, ...]) -> dict[str, dict[str, float]]:
        """Mean calls of each named function per operation, by operation kind."""
        per_kind: dict[str, Counter] = defaultdict(Counter)
        ops_of_kind = Counter(self.op_kinds)
        for key, _, _, _, op in self.spans:
            if key in names and op >= 0:
                per_kind[self.op_kinds[op]][key] += 1
        return {
            kind: {name: per_kind[kind][name] / count for name in names}
            for kind, count in sorted(ops_of_kind.items())
        }


class PeakTracker:
    """Peak traced allocation inside chosen functions, nested calls included,
    and the number of DSet.holds calls."""

    def __init__(self, keys: tuple[str, ...]) -> None:
        self.keys = keys
        self.enabled = False
        self.peak_bytes: dict[str, int] = {k: 0 for k in keys}
        self.holds_calls = 0
        self._stack: list[list[int]] = []  # [base, floor] per open call
        self._patches = _Patches()

    def install(self) -> None:
        originals = {k: f for k, f in _public_functions().items() if k in self.keys}
        _require(originals, self.keys)
        self._patches.rebind(originals, self._tracked)
        dset = _module("core").DSet
        self._patches.set(dset, "holds", self._counted(dset.__dict__["holds"]))

    def uninstall(self) -> None:
        self._patches.undo()
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    def _tracked(self, key: str, f):
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return f(*args, **kwargs)
            if not stack:
                tracemalloc.start()
            else:
                # reset_peak below forgets the caller's peak so far; keep it.
                stack[-1][1] = max(stack[-1][1], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            frame = [tracemalloc.get_traced_memory()[0], 0]
            stack.append(frame)
            try:
                return f(*args, **kwargs)
            finally:
                peak = max(tracemalloc.get_traced_memory()[1], frame[1])
                stack.pop()
                self.peak_bytes[key] = max(self.peak_bytes[key], peak - frame[0])
                if stack:
                    stack[-1][1] = max(stack[-1][1], peak)
                else:
                    tracemalloc.stop()

        wrapper.__wrapped__ = f
        return wrapper

    def _counted(self, f):
        def holds(*args):
            if self.enabled:
                self.holds_calls += 1
            return f(*args)

        return holds
