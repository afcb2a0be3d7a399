"""The CLI contract as one corpus: each case of `cli_corpus.json` run through
`dsets.cli.main` in process (tier-1, `test_corpus.py`) or through the `dsets`
executable on PATH (CI's console-script step):

    python tests/_corpus.py

prints each failing case and exits 1 if there is one.

A case is one JSON object, one line of the file:
- "id": its name, and its test id in tier-1;
- "argv": the command line after `dsets`;
- "stdin" (optional): the text itself, or a source {"argv": [...]}, which is
  the stdout of that command line (its own "stdin" read the same way) with
  any positive quads listed under "drop" removed;
- "files" (optional): {name: text or source}, each written in turn to a
  fresh directory that the command and its sources run in, so that their
  argv names them (a structure by its path, a --splitting or --map file);
- "exit": the expected exit code;
- "stdout": the expected stdout, or "sha256": its digest when it is longer
  than SHORT bytes.
Stderr is checked only to hold no traceback.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CORPUS = Path(__file__).with_name("cli_corpus.json")
SHORT = 1000  # bytes of stdout pinned, and reported, as themselves


class _SourceFailed(Exception):
    pass


def load() -> list:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def invoke(argv, stdin: str = "") -> tuple:
    """(exit code, stdout, stderr) of `dsets.cli.main(argv)` in this process,
    with stdin as its standard input."""
    from dsets.cli import main

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, err
    try:
        code = main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def invoke_executable(argv, stdin: str = "") -> tuple:
    """The same through the `dsets` executable on PATH."""
    proc = subprocess.run(["dsets", *argv], input=stdin.encode(), capture_output=True)
    return proc.returncode, proc.stdout.decode(errors="surrogateescape"), proc.stderr.decode(errors="replace")


def _text(source, call) -> str:
    """source itself if text, else the stdout of its argv."""
    if isinstance(source, str):
        return source
    code, out, err = call(source["argv"], _text(source.get("stdin", ""), call))
    if code != 0 or "Traceback" in err:
        raise _SourceFailed(f"source {source['argv']} exited {code}\n{err}")
    if "drop" in source:
        payload = json.loads(out)
        for quad in source["drop"]:
            payload["positives"].remove(quad)
        out = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return out


def failure(case: dict, call=invoke):
    """None if the case holds when run by `call`, else a report that names it
    with its actual exit code, the sha256 of its stdout and, when short, the
    stdout as a JSON string."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, source in case.get("files", {}).items():
                Path(name).write_text(_text(source, call), encoding="utf-8")
            code, out, err = call(case["argv"], _text(case.get("stdin", ""), call))
        except _SourceFailed as exc:
            return f"{case['id']}: {exc}"
        finally:
            os.chdir(here)
    data = out.encode(errors="surrogateescape")
    digest = hashlib.sha256(data).hexdigest()
    same = (data == case["stdout"].encode()) if "stdout" in case else (digest == case["sha256"])
    if code == case["exit"] and same and "Traceback" not in err:
        return None
    shown = json.dumps(out) if len(data) <= SHORT else f"({len(data)} bytes)"
    report = f"{case['id']}: exit {code}, sha256 {digest}, stdout {shown}"
    return report + (f"\n{err}" if "Traceback" in err else "")


def main() -> int:
    cases = load()
    failures = [report for report in (failure(case, invoke_executable) for case in cases) if report]
    print(*failures, f"{len(cases) - len(failures)} of {len(cases)} cases hold", sep="\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
