"""The line budget of `src/dsets`, counted by `_lines.py`."""

from __future__ import annotations

import _lines


def test_tracked_lines_stay_at_or_below_the_ceiling():
    gates, tracked = _lines.count()
    assert gates > 0
    assert tracked <= _lines.CEILING, f"{tracked} tracked lines exceed the ceiling of {_lines.CEILING}"


def test_module_counts_add_up_to_the_tracked_total():
    lines = _lines.modules()
    gates, tracked = _lines.count()
    assert lines[_lines.GATES] == gates
    assert sum(lines.values()) == gates + tracked
