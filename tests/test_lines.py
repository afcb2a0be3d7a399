"""The line budget of `src/dsets`, counted by `_lines.py`."""

from __future__ import annotations

import _lines


def test_tracked_lines_stay_at_or_below_the_ceiling():
    gates, tracked = _lines.count()
    assert gates > 0
    assert tracked <= _lines.CEILING, f"{tracked} tracked lines exceed the ceiling of {_lines.CEILING}"
