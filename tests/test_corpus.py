"""The CLI contract: every case of cli_corpus.json through `cli.main` in
process, and the runner's own reports on planted wrong cases."""

from __future__ import annotations

import hashlib

import pytest

import _corpus

CASES = _corpus.load()


@pytest.mark.parametrize("case", CASES, ids=[case["id"] for case in CASES])
def test_case_holds(case):
    report = _corpus.failure(case)
    assert report is None, report


def test_cases_are_named_once_and_pin_short_outputs_as_bytes():
    assert len({case["id"] for case in CASES}) == len(CASES)
    for case in CASES:
        assert ("stdout" in case) != ("sha256" in case), case["id"]
        assert len(case.get("stdout", "").encode()) <= _corpus.SHORT, case["id"]


_GEN = {"id": "planted", "argv": ["gen", "--fixture", "CAT4", "--as", "tree"]}


@pytest.mark.parametrize("plant", ("exit", "byte", "newline", "digest"))
def test_runner_names_a_planted_wrong_case_with_its_exit_and_digest(plant):
    code, out, _ = _corpus.invoke(_GEN["argv"])
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert _corpus.failure(dict(_GEN, exit=code, stdout=out)) is None
    assert _corpus.failure(dict(_GEN, exit=code, sha256=digest)) is None
    wrong = {
        "exit": dict(_GEN, exit=1, stdout=out),
        "byte": dict(_GEN, exit=code, stdout=out.replace("4", "5", 1)),
        "newline": dict(_GEN, exit=code, stdout=out.removesuffix("\n")),
        "digest": dict(_GEN, exit=code, sha256=hashlib.sha256(out.encode() + b" ").hexdigest()),
    }[plant]
    report = _corpus.failure(wrong)
    assert report is not None
    assert report.startswith(f"planted: exit {code}, sha256 {digest}, stdout ")
