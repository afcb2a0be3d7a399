"""The tracked line count of `src/dsets`: `wc -l` of every module except
`_gates.py`, the home of the input checks, held at or below CEILING by
tier-1 (`test_lines.py`) and printed by CI's "Tracked line count" step:

    python tests/_lines.py

prints each module's lines (`_gates.py` among them), then the tracked
total and the ceiling.  A change may lower CEILING to its own tracked
total, and never raises it.
"""

from __future__ import annotations

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dsets"
GATES = "_gates.py"
CEILING = 3157


def modules() -> dict[str, int]:
    """Lines of each module of src/dsets, as wc -l counts them, by file name."""
    return {path.name: path.read_bytes().count(b"\n") for path in sorted(SRC.glob("*.py"))}


def count() -> tuple[int, int]:
    """(lines of _gates.py, lines of every other module), as wc -l counts them."""
    lines = modules()
    gates = lines.pop(GATES)
    return gates, sum(lines.values())


if __name__ == "__main__":
    for name, lines in modules().items():
        print(f"{name}: {lines}")
    print(f"tracked (every module but {GATES}): {count()[1]}", f"ceiling: {CEILING}", sep="\n")
