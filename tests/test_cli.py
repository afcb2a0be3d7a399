"""End-to-end command line behavior, run in process except one real pipe."""

from __future__ import annotations

import io
import json
import subprocess
import sys
import tracemalloc

import pytest

import dsets as D
from dsets import Splitting
from dsets.cli import main

import _families as F


@pytest.fixture
def run(monkeypatch, capsys):
    def invoke(argv, stdin=""):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


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
