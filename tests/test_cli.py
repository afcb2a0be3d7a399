"""End-to-end command line behavior, run in process except one real pipe."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

import dsets as D
from dsets import Splitting

import _corpus
import _families as F


@pytest.fixture
def run():
    """(exit code, stdout, stderr) of `cli.main(argv)` with the given stdin, in process."""
    return _corpus.invoke


def _payload(out):
    return json.loads(out)


# ---------------------------------------------------------------------------
# check


def test_check_passes_flower(run, catalogue):
    code, out, err = run(["check", "-"], catalogue["FLW4"].dset.to_json())
    assert code == 0
    assert _payload(out)["core_pass"] is True
    assert "d1 pass" in err


def test_check_flags_broken_input(run):
    broken = D.DSet.build(4, [(0, 1, 2, 3), (0, 2, 1, 3)])
    code, out, _ = run(["check", "-"], broken.to_json())
    assert code == 1
    assert _payload(out)["core_pass"] is False


def test_check_rejects_malformed_json(run):
    code, out, _ = run(["check", "-"], "{this is not json")
    assert code == 2
    assert _payload(out)["error"]["kind"] == "input"


@pytest.mark.parametrize(
    "argv, what",
    (
        (["check", "-"], "invalid JSON"),
        (["from-tree", "-"], "invalid JSON"),
        (["extend", "{cat5}", "--splitting", "-"], "invalid JSON"),
        (["probe", "{cat5}", "--map", "-", "--add", "1"], "invalid map JSON"),
    ),
    ids=["check", "from-tree", "extend-splitting", "probe-map"],
)
def test_json_nested_too_deep_is_an_input_error(run, catalogue, tmp_path, argv, what):
    # json.loads gives up on it with RecursionError, refused as malformed JSON is.
    cat5 = tmp_path / "cat5.json"
    cat5.write_text(catalogue["CAT5"].dset.to_json())
    code, out, _ = run([a.format(cat5=cat5) for a in argv], "[" * 100_000 + "]" * 100_000)
    assert code == 2
    error = _payload(out)["error"]
    assert error["kind"] == "input" and error["message"].startswith(f"{what}: maximum recursion depth"), error


@pytest.mark.parametrize(
    "payload",
    (
        {"n": True},
        {"n": 4, "positives": 5},
        {"n": 4, "positives": None},
        {"n": 4, "colors": {"0": True}},
    ),
)
def test_check_rejects_mistyped_payload(run, payload):
    code, out, _ = run(["check", "-"], json.dumps(payload))
    assert code == 2
    assert _payload(out)["error"]["kind"] == "input"


def test_unexpected_failure_is_an_internal_error(run, monkeypatch):
    def broken(d):
        raise RuntimeError("boom")

    monkeypatch.setattr("dsets.cli.check_axioms", broken)
    code, out, _ = run(["check", "-"], D.DSet(4).to_json())
    assert code == 2
    assert _payload(out)["error"] == {"kind": "internal", "message": "RuntimeError: boom"}


@pytest.mark.parametrize(
    "argv, message",
    (
        ([], "the following arguments are required: command"),
        (["check", "--bogus"], "unrecognized arguments: --bogus"),
        (["check", "--max-n", "abc"], "argument --max-n: invalid int value: 'abc'"),
        (["classify"], "the following arguments are required: --seq"),
        (["probe", "--add", "x"], "argument --add: invalid int value: 'x'"),
    ),
    ids=["no_command", "unknown_option", "bad_int", "missing_option", "bad_int_sub"],
)
def test_usage_errors_are_input_errors(run, argv, message):
    code, out, _ = run(argv)
    assert code == 2
    assert out == json.dumps({"error": {"kind": "input", "message": message}}, separators=(",", ":")) + "\n"


def test_usage_error_exit_code_from_a_process():
    proc = subprocess.run([sys.executable, "-m", "dsets", "check", "--max-n", "abc"],
                          capture_output=True, text=True, stdin=subprocess.DEVNULL)
    assert proc.returncode == 2
    assert _payload(proc.stdout)["error"]["kind"] == "input"


_SPELLINGS = ("1_6", "+4", "\u0662", "04")  # int() reads these as 16, 4, 2 and 4


@pytest.mark.parametrize("bad", _SPELLINGS)
@pytest.mark.parametrize(
    "argv, name",
    (
        (["check", "-", "--max-n", "{}"], "max_n"),
        (["gen", "--fixture", "CAT5", "--max-n", "{}"], "max_n"),
        (["gen", "--list", "--max-n", "{}"], "max_n"),
        (["homreport", "-", "--min-sector-size", "{}"], "min_sector_size"),
        (["gen", "--spec", "kind=d_regular_random,leaves={},degree=3"], "leaves"),
        (["gen", "--spec", "kind=d_regular_random,leaves=10,degree={}"], "degree"),
    ),
    ids=["max_n", "max_n_fixture", "max_n_list", "min_sector_size", "leaves", "degree"],
)
def test_numbers_not_spelt_as_plain_decimals_are_refused(run, catalogue, argv, name, bad):
    code, out, _ = run([a.format(bad) for a in argv], catalogue["CAT5"].dset.to_json())
    assert code == 2
    message = f"'{name}' must be a non-negative integer, got {bad!r}"
    assert _payload(out) == {"error": {"kind": "input", "message": message}}


@pytest.mark.parametrize("bad", _SPELLINGS)
def test_spec_seeds_not_spelt_as_plain_decimals_are_refused(run, bad):
    code, out, _ = run(["gen", "--spec", f"kind=d_regular_random,leaves=10,degree=3,seed={bad}"])
    assert code == 2
    assert _payload(out) == {"error": {"kind": "input", "message": f"'seed' must be an integer, got {bad!r}"}}


def test_plain_decimals_keep_their_reading(run):
    # A negative seed, and a bound with blanks around it, as int() reads them.
    assert run(["gen", "--spec", "kind=d_regular_random,leaves=10,degree=3,seed=-2"])[0] == 0
    assert run(["gen", "--fixture", "CAT5", "--max-n", " 5 "])[0] == 0


def test_help_still_exits_zero(run):
    with pytest.raises(SystemExit) as exc:
        run(["check", "-h"])
    assert exc.value.code == 0


def test_max_n_guard(run, catalogue):
    code, out, _ = run(["check", "-", "--max-n", "10"], catalogue["FLW12"].dset.to_json())
    assert code == 2
    assert "exceeds" in _payload(out)["error"]["message"]


@pytest.mark.parametrize(
    "text",
    [json.dumps({"n": 10_000_000}), '{"colors":{},"n":10000000,"positives":[]}'],
    ids=["loads", "own_spelling"],  # the second is to_json's spelling, read on its bytes
)
def test_max_n_guard_allocates_nothing_n_long(run, text):
    tracemalloc.start()
    try:
        code, out, _ = run(["check", "-"], text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert _payload(out)["error"] == {
        "kind": "input",
        "message": "10000000 elements exceeds the --max-n bound of 16",
    }
    assert peak < 5_000_000


def test_quiet_silences_stderr(run, catalogue):
    _, _, err = run(["check", "-", "--quiet"], catalogue["FLW4"].dset.to_json())
    assert err == ""


# ---------------------------------------------------------------------------
# from-tree / to-tree


def test_from_tree_emits_leaf_relation(run, catalogue):
    code, out, _ = run(["from-tree", "-"], catalogue["CAT4"].tree.to_json())
    assert code == 0
    assert D.DSet.from_json(out).positives == catalogue["CAT4"].dset.positives


@pytest.mark.parametrize(
    "change",
    (
        {"leaves": [[0, 0], [1, 1]]},
        {"leaves": {"0": 0, "1": 1.9}},
        {"leaves": {"0": 0, "1": "1"}},
        {"leaves": {"0": 0, "01": 1}},
        {"nodes": [0, 1.5]},
        {"nodes": "01"},
        {"edges": [[0, True]]},
        {"edges": [[0, 1, 1]]},
        {"edges": {"0": 1}},
    ),
)
def test_from_tree_rejects_malformed_payload(run, change):
    payload = {"nodes": [0, 1], "edges": [[0, 1]], "leaves": {"0": 0, "1": 1}} | change
    code, out, _ = run(["from-tree", "-"], json.dumps(payload))
    assert code == 2
    assert _payload(out)["error"]["kind"] == "input"


def test_to_tree_reconstructs(run, catalogue):
    code, out, _ = run(["to-tree", "-"], catalogue["FLW4"].dset.to_json())
    assert code == 0
    tree = D.LeafTree.from_json(out)
    assert len(tree.internal_nodes()) == 1


def test_to_tree_refuses_broken_relation(run):
    broken = D.DSet.build(4, [(0, 1, 2, 3), (0, 2, 1, 3)])
    code, out, _ = run(["to-tree", "-"], broken.to_json())
    assert code == 1
    assert _payload(out)["representable"] is False


# ---------------------------------------------------------------------------
# splittings / extend


def test_splittings_count(run, catalogue):
    code, out, _ = run(["splittings", "-"], catalogue["CAT4"].dset.to_json())
    assert code == 0
    assert _payload(out)["count"] == 7


def test_splittings_methods_agree(run, catalogue):
    source = catalogue["CAT5"].dset.to_json()
    _, brute, _ = run(["splittings", "-", "--method", "brute"], source)
    _, tree, _ = run(["splittings", "-", "--method", "tree"], source)
    assert sorted(_payload(brute)["splittings"]) == sorted(_payload(tree)["splittings"])


def test_splittings_brute_refuses_more_than_ten_elements(run, catalogue):
    code, out, _ = run(["splittings", "-", "--method", "brute"], catalogue["FLW12"].dset.to_json())
    assert code == 2
    assert _payload(out) == {
        "error": {"kind": "input", "message": "brute-force splittings capped at 10 elements, got 12"}
    }


def test_extend_attaches_element(run, catalogue, tmp_path):
    sfile = tmp_path / "cut.json"
    sfile.write_text(Splitting([{0, 1}, {2, 3}]).to_json())
    code, out, _ = run(
        ["extend", "-", "--splitting", str(sfile)], catalogue["CAT4"].dset.to_json()
    )
    assert code == 0
    assert D.DSet.from_json(out).positives == catalogue["CAT4M"].dset.positives


@pytest.mark.parametrize(
    "splitting, message",
    (
        ({"sectors": 5}, "sectors must be lists of element ids: 'int' object is not iterable"),
        ({"sectors": [[0, "a"], [2, 3, 4]]}, "element ids must be non-negative integers, got 'a'"),
        ([[0, 1.5], [2, 3, 4]], "element ids must be non-negative integers, got 1.5"),
        ([[0, True], [2, 3, 4]], "element ids must be non-negative integers, got True"),
        ([[0, 1.0], [2, 3, 4]], "element ids must be non-negative integers, got 1.0"),
    ),
    ids=["sectors_int", "str_id", "fraction", "bool", "float"],
)
def test_extend_rejects_ids_that_are_not_integers(run, catalogue, tmp_path, splitting, message):
    sfile = tmp_path / "cut.json"
    sfile.write_text(json.dumps(splitting))
    code, out, _ = run(["extend", "-", "--splitting", str(sfile)], catalogue["CAT5"].dset.to_json())
    assert code == 2
    assert _payload(out) == {"error": {"kind": "input", "message": message}}


# ---------------------------------------------------------------------------
# classify / hull / indisc


def test_classify_monotonic(run, catalogue):
    code, out, _ = run(
        ["classify", "-", "--seq", "0,1,2,3,4"], catalogue["CAT5"].dset.to_json()
    )
    assert code == 0
    assert _payload(out)["label"] == "monotonic"


def test_classify_scrambled_exits_one(run, catalogue):
    code, out, _ = run(
        ["classify", "-", "--seq", "0,2,1,3"], catalogue["CAT5"].dset.to_json()
    )
    assert code == 1
    assert _payload(out)["witness"]["kind"] == "forbidden_pattern"


def test_classify_names_an_unknown_element(run, catalogue):
    code, out, _ = run(
        ["classify", "-", "--seq", "0,1,2,9"], catalogue["CAT5"].dset.to_json()
    )
    assert code == 2
    assert out == '{"error":{"kind":"input","message":"element 9 out of range 0..4"}}\n'


# A command line that puts `bad` where one element id of FLW12 belongs.
_ID_ARGS = {
    "classify": lambda bad, mfile: ["classify", "-", "--seq", f"0,1,2,{bad}"],
    "hull": lambda bad, mfile: ["hull", "-", "--seq", f"0,1,2,{bad}"],
    "indisc_seq": lambda bad, mfile: ["indisc", "-", "--seq", f"0,1,2,3,{bad}", "--over", "5"],
    "indisc_over": lambda bad, mfile: ["indisc", "-", "--seq", "0,1,2,3,4", "--over", f"5,{bad}"],
    "probe": lambda bad, mfile: ["probe", "-", "--map", mfile, "--add", bad],
}


@pytest.mark.parametrize("bad", ("1_0", "+4", "\u0664", "04"))
@pytest.mark.parametrize("command", sorted(_ID_ARGS))
def test_ids_not_spelt_as_plain_decimals_are_refused(run, catalogue, tmp_path, command, bad):
    # int() reads these as 10, 4, 4 and 4; the id gate refuses each as given.
    mfile = tmp_path / "map.json"
    mfile.write_text(json.dumps({"0": 0}))
    code, out, _ = run(_ID_ARGS[command](bad, str(mfile)), catalogue["FLW12"].dset.to_json())
    assert code == 2
    assert _payload(out) == {"error": {"kind": "input", "message": f"element ids must be non-negative integers, got {bad!r}"}}


@pytest.mark.parametrize("command", sorted(_ID_ARGS))
def test_ids_keep_whitespace_around_them_and_skip_empty_parts(run, catalogue, tmp_path, command):
    mfile = tmp_path / "map.json"
    mfile.write_text(json.dumps({"0": 0}))
    text = catalogue["FLW12"].dset.to_json()
    plain = run(_ID_ARGS[command]("4", str(mfile)), text)
    assert run(_ID_ARGS[command](" 4 ", str(mfile)), text) == plain
    if command != "probe":  # --add takes one id, not a list
        assert run(_ID_ARGS[command](", 4,,", str(mfile)), text) == plain


def test_hull_reports_interior(run, catalogue):
    code, out, _ = run(
        ["hull", "-", "--seq", "0,1,2,3,4"], catalogue["CAT5X"].dset.to_json()
    )
    assert code == 0
    payload = _payload(out)
    assert payload["hull"] == [0, 1, 2, 3, 4, 5]
    assert payload["columns"][0]["h3"] == [5]


def test_hull_refuses_tables_failing_core_axioms(run):
    refused = {"error": {"kind": "input", "message": "input fails D1..D4"}}
    for d, window, _, _ in F.failing_tables(5, 300):
        code, out, _ = run(["hull", "-", "--seq", ",".join(map(str, window))], d.to_json())
        assert (code, _payload(out)) == (2, refused), window


def test_indisc_discernible_exits_one(run, catalogue):
    code, out, _ = run(
        ["indisc", "-", "--seq", "0,1,2,3,4", "--over", "5"],
        catalogue["CAT5X"].dset.to_json(),
    )
    assert code == 1
    payload = _payload(out)
    assert payload["weakly_indiscernible"] is False
    assert payload["witness"]["kind"] == "order_type"


def test_indisc_frontier_exits_zero(run, catalogue):
    code, out, _ = run(
        ["indisc", "-", "--seq", "0,1,2,3,4", "--over", "5,6"],
        catalogue["CAT5L"].dset.to_json(),
    )
    assert code == 0
    assert _payload(out)["weakly_indiscernible"] is True


# ---------------------------------------------------------------------------
# probe / homreport


def test_probe_forced_candidate(run, catalogue, tmp_path):
    mfile = tmp_path / "map.json"
    mfile.write_text(json.dumps({"0": 0, "1": 1, "2": 2}))
    code, out, _ = run(
        ["probe", "-", "--map", str(mfile), "--add", "3"],
        catalogue["CAT4"].dset.to_json(),
    )
    assert code == 0
    assert _payload(out)["candidates"] == [3]


def test_probe_stuck_exits_one(run, catalogue, tmp_path):
    tinted = catalogue["CAT4"].dset.recolor((0, 0, 0, 1))
    mfile = tmp_path / "map.json"
    mfile.write_text(json.dumps({"2": 0, "0": 2, "1": 1}))
    code, out, _ = run(["probe", "-", "--map", str(mfile), "--add", "3"], tinted.to_json())
    assert code == 1
    assert _payload(out)["candidates"] == []


def test_probe_rejects_non_iso_map(run, catalogue, tmp_path):
    mfile = tmp_path / "map.json"
    mfile.write_text(json.dumps({"0": 0, "1": 2, "2": 1, "3": 3}))
    code, out, _ = run(
        ["probe", "-", "--map", str(mfile), "--add", "0"],
        catalogue["CAT4"].dset.to_json(),
    )
    assert code == 1
    assert _payload(out)["partial_iso"] is False


@pytest.mark.parametrize(
    "pairs, bad",
    (({"0": True}, "True"), ({"0": 1.0}, "1.0"), ([[0, 1.0]], "1.0"), ([[True, 0]], "True"),
     ({"map": [[0, 0], ["1", 1]]}, "'1'")),
    ids=["bool_value", "float_value", "float_value_list", "bool_key_list", "str_key_list"],
)
def test_probe_rejects_ids_that_are_not_integers(run, catalogue, tmp_path, pairs, bad):
    mfile = tmp_path / "map.json"
    mfile.write_text(json.dumps(pairs))
    code, out, _ = run(["probe", "-", "--map", str(mfile), "--add", "3"], catalogue["CAT5"].dset.to_json())
    assert code == 2
    assert _payload(out) == {"error": {"kind": "input", "message": f"element ids must be non-negative integers, got {bad}"}}


@pytest.mark.parametrize("key", ("1_0", "+2", " 3 ", "\u0663"))
def test_probe_refuses_map_keys_that_are_not_plain_decimals(run, catalogue, tmp_path, key):
    # int() reads these keys as 10, 2, 3 and 3; the id gate refuses them as given.
    mfile = tmp_path / "map.json"
    mfile.write_text(json.dumps({"0": 0, key: 2}))
    code, out, _ = run(["probe", "-", "--map", str(mfile), "--add", "3"], catalogue["FLW12"].dset.to_json())
    assert code == 2
    assert _payload(out) == {"error": {"kind": "input", "message": f"element ids must be non-negative integers, got {key!r}"}}


def test_probe_refuses_an_element_mapped_twice_as_the_library_does(run, catalogue, tmp_path):
    d, pairs = catalogue["MIX"].dset, [[0, 1], [0, 0], [2, 2]]
    with pytest.raises(D.InputError) as refused:
        D.check_partial_iso(d, d, pairs)
    mfile = tmp_path / "map.json"
    mfile.write_text(json.dumps(pairs))
    code, out, _ = run(["probe", "-", "--map", str(mfile), "--add", "3"], d.to_json())
    assert code == 2
    assert _payload(out) == {"error": {"kind": "input", "message": str(refused.value)}}
    assert str(refused.value) == "element 0 mapped twice"


def test_probe_reads_the_list_form_of_a_map(run, catalogue, tmp_path):
    mfile = tmp_path / "map.json"
    mfile.write_text(json.dumps({"map": [[0, 0], [1, 1], [2, 2]]}))
    code, out, _ = run(["probe", "-", "--map", str(mfile), "--add", "3"], catalogue["CAT4"].dset.to_json())
    assert code == 0
    assert _payload(out)["map"] == [[0, 0], [1, 1], [2, 2]]


def test_homreport_flower_all_good(run, catalogue):
    code, out, _ = run(["homreport", "-"], catalogue["FLW5"].dset.to_json())
    assert code == 0
    assert _payload(out)["nonextendable"]["found"] is False


def test_homreport_caterpillar_flags_density(run, catalogue):
    code, out, _ = run(["homreport", "-"], catalogue["CAT4"].dset.to_json())
    assert code == 1
    assert _payload(out)["conditions"]["dense"]["verdict"] is False


# ---------------------------------------------------------------------------
# gen


def test_gen_list(run):
    code, out, _ = run(["gen", "--list"])
    assert code == 0
    assert _payload(out)["fixtures"] == D.fixture_names()


def test_gen_fixture_as_tree(run, catalogue):
    code, out, _ = run(["gen", "--fixture", "CAT4", "--as", "tree"])
    assert code == 0
    tree = D.LeafTree.from_json(out)
    assert D.are_isomorphic_trees(tree, catalogue["CAT4"].tree)


def test_gen_spec_with_coloring(run):
    code, out, _ = run(
        ["gen", "--spec", "kind=star,leaves=5", "--coloring", "round_robin:2"]
    )
    assert code == 0
    assert D.DSet.from_json(out).colors == (0, 1, 0, 1, 0)


@pytest.mark.parametrize("bad", ("1_0", "+2", "\u0662", "x", ""))
def test_gen_round_robin_count_is_read_as_a_plain_decimal(run, bad):
    # int() reads the first three as 10, 2 and 2; the count check refuses each as given.
    code, out, _ = run(["gen", "--fixture", "CAT4", "--coloring", f"round_robin:{bad}"])
    assert code == 2
    assert _payload(out) == {"error": {"kind": "input", "message": f"'n_colors' must be a non-negative integer, got {bad!r}"}}


def test_gen_needs_exactly_one_source(run):
    code, out, _ = run(["gen", "--fixture", "CAT4", "--spec", "kind=star,leaves=4"])
    assert code == 2
    code, out, _ = run(["gen"])
    assert code == 2


def test_gen_tree_output_rejects_coloring(run):
    code, out, _ = run(
        ["gen", "--fixture", "CAT4", "--as", "tree", "--coloring", "uniform"]
    )
    assert code == 2


def test_gen_spec_respects_max_n(run):
    code, out, _ = run(["gen", "--spec", "kind=star,leaves=20", "--max-n", "12"])
    assert code == 2


@pytest.mark.parametrize("as_what", ("dset", "tree"))
def test_gen_fixture_respects_max_n(run, as_what):
    code, out, _ = run(["gen", "--fixture", "FLW30", "--as", as_what])
    assert code == 2
    assert _payload(out)["error"] == {"kind": "input", "message": "30 leaves exceeds the --max-n bound of 16"}
    code, out, _ = run(["gen", "--fixture", "FLW30", "--as", as_what, "--max-n", "30"])
    assert code == 0
    fixture = D.gen_fixture("FLW30")
    assert _payload(out) == json.loads((fixture.tree if as_what == "tree" else fixture.dset).to_json())


def _counted_d_from_tree(monkeypatch):
    """The trees d_from_tree is called on from here on, where cli and gen_fixture look it up."""
    calls, real = [], D.trees.d_from_tree

    def counted(tree):
        calls.append(tree)
        return real(tree)

    for home in (D, D.generators):
        monkeypatch.setattr(home, "d_from_tree", counted)
    return calls


@pytest.mark.parametrize(
    "argv, code",
    (
        (["--fixture", "FLW64", "--as", "tree", "--max-n", "64"], 0),
        (["--spec", "kind=d_regular_random,leaves=96,degree=3,seed=1", "--as", "tree", "--max-n", "96"], 0),
        (["--fixture", "FLW64", "--max-n", "4"], 2),
        (["--fixture", "FLW64", "--as", "tree", "--max-n", "4"], 2),
        (["--fixture", "CAT5"], 0),
        (["--spec", "kind=star,leaves=5"], 0),
    ),
    ids=("fixture_tree", "spec_tree", "fixture_refused", "fixture_tree_refused", "fixture_dset", "spec_dset"),
)
def test_gen_builds_a_relation_only_to_write_it(run, monkeypatch, argv, code):
    calls = _counted_d_from_tree(monkeypatch)
    assert run(["gen", *argv])[0] == code
    assert len(calls) == (code == 0 and "tree" not in argv)


def test_splittings_and_homreport_write_as_they_did(run, catalogue):
    # sha256 of each exit code and stdout, concatenated: `splittings` on every
    # member of F.splitting_structures, and `homreport` on each of its
    # F.colorings (round robin over three alone above 17 elements).
    outs = []
    for d in F.splitting_structures(catalogue.values()):
        texts = [c.to_json() for c in F.colorings(d)]
        homreports = texts if d.n <= 17 else texts[2:3]
        for command, text in [("splittings", texts[0])] + [("homreport", t) for t in homreports]:
            code, out, _ = run([command, "-", "--max-n", "65", "--quiet"], text)
            outs.append(f"{code}:{out}")
    assert len(outs) == 166
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == (
        "5cdcd0f44336d1d2e70bacc76858ba6297c13e51061ed25ce5f40583dfed8f5d"
    )


# ---------------------------------------------------------------------------
# export-dot


def test_export_dot_stdout(run, catalogue):
    code, out, _ = run(["export-dot", "-"], catalogue["CAT4"].tree.to_json())
    assert code == 0
    assert out.count(" -- ") == 5
    assert out.count("shape=point") == 2


def test_export_dot_from_dset_with_colors(run, catalogue):
    tinted = catalogue["CAT4"].dset.recolor((0, 0, 0, 1))
    code, out, _ = run(["export-dot", "-", "--from-dset"], tinted.to_json())
    assert code == 0
    assert out.count('color_index="0"') == 3
    assert out.count('color_index="1"') == 1


def test_export_dot_deterministic(run, catalogue):
    source = catalogue["CAT5"].tree.to_json()
    _, first, _ = run(["export-dot", "-"], source)
    _, second, _ = run(["export-dot", "-"], source)
    assert first == second


def test_export_dot_output_dir(run, catalogue, tmp_path, monkeypatch):
    monkeypatch.setenv("DSETS_OUTDIR", str(tmp_path))
    code, out, _ = run(
        ["export-dot", "-", "--output", "cat4.dot"], catalogue["CAT4"].tree.to_json()
    )
    assert code == 0
    written = tmp_path / "cat4.dot"
    assert written.exists()
    assert _payload(out)["written"] == str(written)


def test_export_dot_unwritable_output(run, catalogue, tmp_path):
    target = tmp_path / "missing" / "x.dot"
    code, out, _ = run(
        ["export-dot", "-", "--output", str(target)], catalogue["CAT4"].tree.to_json()
    )
    assert code == 2
    assert _payload(out)["error"]["kind"] == "io"


# ---------------------------------------------------------------------------
# real pipe


def test_gen_pipes_into_to_tree():
    cmd = (
        f"{sys.executable} -m dsets gen --fixture CAT4 --quiet"
        f" | {sys.executable} -m dsets to-tree --quiet"
    )
    proc = subprocess.run(cmd, shell=True, capture_output=True, text=True)
    assert proc.returncode == 0
    tree = D.LeafTree.from_json(proc.stdout)
    assert len(tree.nodes) == 6


# ---------------------------------------------------------------------------
# closed output


def _dsets(argv):
    return [sys.executable, "-m", "dsets", *argv]


# One valid command line of each subcommand over CAT5: its D-set on stdin, or
# its tree where the command reads a tree.
_CLOSED = {
    "check": ["check"],
    "from-tree": ["from-tree"],
    "to-tree": ["to-tree"],
    "splittings": ["splittings"],
    "extend": ["extend", "--splitting", "{cut}"],
    "classify": ["classify", "--seq", "0,1,2,3,4"],
    "hull": ["hull", "--seq", "0,1,2,3,4"],
    "indisc": ["indisc", "--seq", "0,1,2", "--over", "3"],
    "probe": ["probe", "--map", "{map}", "--add", "3"],
    "homreport": ["homreport"],
    "gen": ["gen", "--fixture", "CAT5"],
    "export-dot": ["export-dot"],
    "error": ["check", "--max-n", "1_6"],  # an error object has nowhere to go either
}


@pytest.mark.parametrize("command", sorted(_CLOSED))
def test_a_closed_output_exits_two_without_a_traceback(catalogue, tmp_path, command):
    (tmp_path / "cut.json").write_text(Splitting([{0, 1}, {2, 3, 4}]).to_json())
    (tmp_path / "map.json").write_text(json.dumps({"0": 0}))
    argv = [a.format(cut=tmp_path / "cut.json", map=tmp_path / "map.json") for a in _CLOSED[command]]
    fixture = catalogue["CAT5"]
    source = fixture.tree.to_json() if command in ("from-tree", "export-dot") else fixture.dset.to_json()
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the command writes
    try:
        proc = subprocess.run(_dsets(argv), input=source, stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert proc.stderr == ""


def test_a_stdout_closed_before_start_up_exits_two():
    proc = subprocess.run(f"{sys.executable} -m dsets gen --fixture CAT5 >&-", shell=True,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (2, "")


def test_a_reader_that_closes_early_ends_a_long_write_with_exit_two():
    # 40 leaves make about 1.2 MB of JSON, more than a pipe holds.
    argv = ["gen", "--spec", "kind=d_regular_random,leaves=40,degree=3,seed=1", "--max-n", "40"]
    proc = subprocess.Popen(_dsets(argv), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL)
    assert proc.stdout.read(5) == b'{"col'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 2
    assert err == ""


# ---------------------------------------------------------------------------
# seeded fuzz


_JUNK = (True, False, None, 1.5, 2.0, -1, 0, 7, 10**30, "3", "1_0", "+1", "\u0662", "04", "", [], [[0]], {"0": 0})
_NUMBERS = ("1_6", "+4", "\u0662", "04", "-1", "x", "", " 3 ", "1e3", "0x1", "99999999999999999999", "2", "0")


def _mutated(rng, value):
    """value with one seeded change at a random depth: a key dropped,
    respelt or retyped, an entry dropped or retyped, or the value replaced."""
    if isinstance(value, (dict, list)) and value and rng.random() < 0.85:
        out = dict(value) if isinstance(value, dict) else list(value)
        at = rng.choice(sorted(out) if isinstance(out, dict) else range(len(out)))
        r = rng.random()
        if r < 0.2:
            del out[at]
        elif r < 0.3 and isinstance(out, dict):
            out[rng.choice(_NUMBERS)] = out.pop(at)
        elif r < 0.55:
            out[at] = rng.choice(_JUNK)
        else:
            out[at] = _mutated(rng, out[at])
        return out
    return rng.choice(_JUNK)


def _text(rng, payload) -> str:
    text = json.dumps(_mutated(rng, payload) if rng.random() < 0.8 else payload)
    return text[: rng.randrange(len(text) + 1)] if rng.random() < 0.1 else text


def _number(rng, plain: str) -> str:
    return rng.choice(_NUMBERS) if rng.random() < 0.3 else plain


def _ids(rng, plain: str) -> str:
    parts = plain.split(",")
    if rng.random() < 0.4:
        parts[rng.randrange(len(parts))] = rng.choice(_NUMBERS + ("5", "9", "12"))
    return ",".join(parts)


def _fuzz_case(rng, catalogue, tmp_path):
    """One seeded command line and its stdin, each number and payload
    possibly mutated."""
    fixture = catalogue[rng.choice(("CAT5", "CAT5L", "MIX", "FLW5", "CAT4"))]
    dset, tree = json.loads(fixture.dset.to_json()), json.loads(fixture.tree.to_json())
    cut = tmp_path / "cut.json"
    cut.write_text(_text(rng, {"sectors": [[0, 1], [2, 3, 4]]}))
    mfile = tmp_path / "map.json"
    mfile.write_text(_text(rng, rng.choice(({"0": 0, "1": 1}, [[0, 0], [2, 2]], {"map": [[1, 1]]}))))
    spec = (f"kind={rng.choice(('star', 'caterpillar', 'd_regular_random', 'enumerated', 'zigzag'))},"
            f"leaves={_number(rng, '6')},degree={_number(rng, '4')},seed={_number(rng, '1')}")
    argv = rng.choice((
        ["check"], ["to-tree"], ["splittings"], ["extend", "--splitting", str(cut)],
        ["homreport", "--min-sector-size", _number(rng, "2")],
        ["classify", "--seq", _ids(rng, "0,1,2,3")], ["hull", "--seq", _ids(rng, "0,1,2,3")],
        ["indisc", "--seq", _ids(rng, "0,1,2,3,4"), "--over", _ids(rng, "5,6")],
        ["probe", "--map", str(mfile), "--add", _number(rng, "3")],
        ["from-tree"], ["export-dot"], ["export-dot", "--from-dset"], ["export-dot", "--output", "t.dot"],
        ["gen", "--spec", spec], ["gen", "--fixture", "CAT5", "--coloring", f"round_robin:{_number(rng, '2')}"],
        ["gen", "--list"],
    ))
    if rng.random() < 0.2:
        argv += ["--max-n", _number(rng, "8")]
    payload = tree if argv[0] == "from-tree" or argv[:2] in (["export-dot"], ["export-dot", "--output"]) else dset
    return argv, _text(rng, payload)


def test_seeded_fuzz_keeps_the_cli_contract(run, catalogue, tmp_path, monkeypatch):
    """Mutated payloads and number spellings for every command: exit 0, 1 or
    2, one JSON object (or DOT) on stdout, an error object exactly on exit 2,
    and never an internal error."""
    monkeypatch.setenv("DSETS_OUTDIR", str(tmp_path))
    rng = random.Random(2026)
    for _ in range(500):
        argv, stdin = _fuzz_case(rng, catalogue, tmp_path)
        code, out, _ = run(argv, stdin)
        case = (argv, stdin)
        assert code in (0, 1, 2), case
        if argv[0] == "export-dot" and code == 0 and "--output" not in argv:
            assert out.startswith("graph dset_tree {\n") and out.endswith("}\n"), case
            continue
        payload = _payload(out)
        assert isinstance(payload, dict), case
        assert ("error" in payload) == (code == 2), case
        assert payload.get("error", {}).get("kind") != "internal", (case, payload)
