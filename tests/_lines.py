"""The tracked line count of `src/dsets`: `wc -l` of every module except
`_gates.py`, the home of the input checks, held at or below CEILING by
tier-1 (`test_lines.py`) and printed by CI's "Tracked line count" step:

    python tests/_lines.py

prints the lines of `_gates.py`, the tracked total and the ceiling.  A
change may lower CEILING to its own tracked total, and never raises it.
"""

from __future__ import annotations

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dsets"
GATES = "_gates.py"
CEILING = 3165


def count() -> tuple[int, int]:
    """(lines of _gates.py, lines of every other module), as wc -l counts them."""
    lines = {path.name: path.read_bytes().count(b"\n") for path in SRC.glob("*.py")}
    gates = lines.pop(GATES)
    return gates, sum(lines.values())


if __name__ == "__main__":
    gates, tracked = count()
    print(f"{GATES}: {gates}", f"tracked (all other modules): {tracked}", f"ceiling: {CEILING}", sep="\n")
