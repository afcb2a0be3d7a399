"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

Every metric BENCHMARK.json names is emitted with its unit on every
workload, the independent answers the checks use agree with the library,
and a wrong answer from the library is counted as failed, never passed.
Workload sizes are shrunk here so that a pass takes seconds.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import dsets as D  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from oracle import PlainTree, four_point_table, positive_quads  # noqa: E402
from spans import PeakTracker, SpanTracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload while keeping each of its operation kinds."""
    monkeypatch.setattr(workloads, "ROUNDTRIP_REPEATS", {16: 1, 24: 0, 32: 0, 40: 0})
    monkeypatch.setattr(workloads, "SESSION_MAIN", (
        ("d_regular_random", 10, 3, "round_robin:2"),
        ("caterpillar", 10, None, "sector_avoiding"),
        ("star", 8, None, "round_robin:3"),
    ))
    monkeypatch.setattr(workloads, "SESSION_WIDE", (("caterpillar", 12, None, "round_robin:2"),))
    monkeypatch.setattr(workloads, "ISO_N", 6)
    monkeypatch.setattr(workloads, "QUERIES_PER_KIND", 1)
    monkeypatch.setattr(workloads, "CLI_SMALL_N", 8)
    monkeypatch.setattr(workloads, "CLI_LINE_N", 9)
    monkeypatch.setattr(workloads, "CLI_MID_N", 10)
    monkeypatch.setattr(workloads, "CLI_BIG", ((12, 3),))
    # Fresh set-up interpreters would not see the shrunk sizes.
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def one_pass(name: str, tmp_path: Path):
    args = argparse.Namespace(workload=name, seed=7, seconds=0, trace=0)
    return run.untraced(args, 0.0, tmp_path)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_end_to_end_metric_has_its_unit(name, small, tmp_path):
    metrics, attempted, failed, failures = one_pass(name, tmp_path)
    assert failures == [] and failed == 0 and attempted > 0
    assert {k: v["unit"] for k, v in metrics.items()} == declared("end_to_end")
    assert all(isinstance(v["value"], float) for v in metrics.values())


def test_traced_run_reports_every_layer_metric():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "session", "--seed", "3", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("per_layer")
    assert result["metrics"]["homtypes.homogeneity_conditions.calls"]["value"] > 0


def test_setup_is_timed_in_a_fresh_interpreter():
    args = argparse.Namespace(workload="roundtrip", seed=7, seconds=0, trace=0)
    assert run._run_child(args, "setup")["setup_s"] > 0


def test_cli_times_and_holds_come_from_untraced_passes(small, tmp_path):
    holds, check_axioms = D.DSet.holds, D.check_axioms
    args = argparse.Namespace(workload="cli", seed=7, child="plain")
    plain = run.child(args, 0.0, tmp_path)
    assert set(plain["main_ms"]) == set(run.CLI_COMMANDS) and plain["failed"] == 0
    args = argparse.Namespace(workload="session", seed=7, child="memory")
    memory = run.child(args, 0.0, tmp_path)
    assert memory["holds_calls"] > 0 and memory["failed"] == 0
    assert memory["peak_mb"]["core.relation_table"] > 0
    assert D.DSet.holds is holds and D.check_axioms is check_axioms


def test_setup_spans_count_only_for_generators(small):
    wl = workloads.Session(5)
    tracer = SpanTracer()
    tracer.install()
    try:
        tracer.op, tracer.enabled = -1, True
        wl.setup()
    finally:
        tracer.enabled = False
        tracer.uninstall()
    traced_keys = {key for key, *_ in tracer.spans}
    assert "trees.d_from_tree" in traced_keys  # set-up calls it, but outside any operation
    calls, _ = tracer.totals()
    assert calls["generators.gen_random"] > 0
    assert all(key.startswith("generators.") for key in calls)


def test_a_missing_layer_function_fails_the_trace():
    with pytest.raises(LookupError, match="core.no_such_function"):
        SpanTracer().install(required=run.LAYER_FUNCTIONS + ("core.no_such_function",))
    with pytest.raises(LookupError, match="core.no_such_function"):
        PeakTracker(("core.check_axioms", "core.no_such_function")).install()
    assert not hasattr(D.check_axioms, "__wrapped__")


def test_roundtrip_reconstructs_twice_per_structure(small, tmp_path):
    wl = workloads.Roundtrip(5)
    wl.setup()
    tracer = SpanTracer()
    tracer.install()
    try:
        passes = run.run_passes(wl, 0, single_pass=True, tracer=tracer)
    finally:
        tracer.uninstall()
    calls, self_s = tracer.totals()
    structures = len(passes[0])
    assert calls["trees.tree_from_dset"] == 2 * structures
    assert calls["splittings.enumerate_splittings"] == structures
    assert all(t >= 0 for t in self_s.values())
    assert not hasattr(D.tree_from_dset, "__wrapped__")


TREES = [
    ("caterpillar", 9, None),
    ("star", 7, None),
    ("d_regular_random", 10, 3),
    ("d_regular_random", 10, 4),
]


@pytest.mark.parametrize("kind,n,degree", TREES)
def test_oracle_agrees_with_library(kind, n, degree):
    import random

    t = workloads._relabelled_tree(kind, n, degree, random.Random(11))
    d = D.d_from_tree(t)
    plain = PlainTree.from_leaf_tree(t)
    table = four_point_table(plain.distances())
    assert (table == D.relation_table(d)).all()
    assert positive_quads(table) == d.positives
    features = plain.features()
    assert sorted(sorted(map(sorted, s)) for _, s in features) == sorted(
        sorted(map(sorted, s.sectors)) for s in D.enumerate_splittings(d)
    )
    for feature, sectors in features:
        grown = D.extend_by_point(d, D.Splitting(sectors))
        assert grown.positives == positive_quads(four_point_table(plain.attach(feature).distances()))
    if kind == "star":
        window = plain.petals()
        label = "petaled"
    else:
        window = plain.spine()
        label = "monotonic"
    assert D.classify_window(d, D.SequenceWindow([(v,) for v in window])).label == label


def _corrupt(monkeypatch, name: str, wrong) -> None:
    original = getattr(D, name)
    monkeypatch.setattr(D, name, lambda *args, **kwargs: wrong(original(*args, **kwargs)))


def _swap_two_labels(t):
    leaves = dict(t.leaves)
    a, b = [u for u, e in leaves.items() if e in (0, 1)]
    leaves[a], leaves[b] = leaves[b], leaves[a]
    return D.LeafTree(t.nodes, t.edges, leaves)


CORRUPTIONS = {
    "roundtrip": ("tree_from_dset", _swap_two_labels, "pipeline"),
    "session": ("same_qftp", lambda same: not same, "same_qftp"),
    # Reaches the in-process expectation, so the CLI's own answer now disagrees.
    "cli": ("enumerate_splittings", lambda ss: ss[:-1], "splittings"),
}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_wrong_answers_count_as_failed(name, small, tmp_path, monkeypatch):
    function, wrong, kind = CORRUPTIONS[name]
    _corrupt(monkeypatch, function, wrong)
    metrics, attempted, failed, failures = one_pass(name, tmp_path)
    assert failed > 0 and len(failures) == failed
    assert all(line.startswith(kind) for line in failures)
    assert set(metrics) == set(declared("end_to_end"))


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "session", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
