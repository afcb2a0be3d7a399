"""The benchmark's workloads: inputs made from a seed, timed operations, checks.

Each workload turns the seed into inputs in `setup`, hands the harness the
operations of one pass at a time in `ops`, and judges every answer against
an expectation the library did not produce by the same route.  Library
calls go through the `dsets` namespaces at call time, so a traced run sees
them through its wrappers.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import dsets as D
import dsets.cli
from oracle import PlainTree, extends, four_point_table, positive_quads

# Size ladder shared by every workload: an input of n elements falls in the
# first rung at least n.  It stops at 40: at 48 the axiom check alone took
# 620 MB and a roundtrip about 8 s per structure on a 2-core, 8 GB machine.
LADDER = (16, 24, 32, 40)


def rung(n: int) -> int:
    return next((r for r in LADDER if n <= r), LADDER[-1])


@dataclass
class Op:
    """One timed call.  `is_op` puts its latency in the op percentiles,
    `is_report` in the report median; `report_part` picks a report time out
    of a larger answer instead."""

    kind: str
    n: int
    run: Callable[[], object]
    check: Callable[[object], bool]
    is_op: bool = True
    is_report: bool = False
    report_part: Optional[Callable[[object], float]] = None


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def _relabelled_tree(kind: str, n: int, degree: Optional[int], rng: random.Random):
    """Family member with its element labels shuffled, so no two inputs coincide."""
    t = D.gen_random(D.TreeSpec(kind, n, degree, seed=rng.randrange(2**31)))
    perm = list(range(n))
    rng.shuffle(perm)
    return D.LeafTree(t.nodes, t.edges, {u: perm[e] for u, e in t.leaves})


def _color(d, scheme: str):
    if scheme == "sector_avoiding":
        return D.color_sector_avoiding(d)
    if scheme.startswith("round_robin:"):
        return D.color_round_robin(d, int(scheme.split(":")[1]))
    return D.color_uniform(d)


# ---------------------------------------------------------------- roundtrip

ROUNDTRIP_FAMILIES = (("caterpillar", None), ("star", None), ("d_regular_random", 3), ("d_regular_random", 4))
# Structures per family and rung in one pass.  n = 16 repeats so that its
# rung is not one sub-second reading, and so that the op and report medians
# fall inside the n = 16 cluster of times and the 90th percentile inside the
# n = 32 one, rather than on the edge between two rungs.
ROUNDTRIP_REPEATS = {16: 10, 24: 1, 32: 1, 40: 1}


class Roundtrip:
    """tree -> d_from_tree -> JSON round trip -> check_axioms -> tree_from_dset
    -> enumerate_splittings, once per structure."""

    name = "roundtrip"
    defer_checks = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._first: list = []

    def _trees(self, index: int) -> list:
        rng = _rng(self.seed, "roundtrip", index)
        trees = [
            _relabelled_tree(kind, n, degree, rng)
            for n in LADDER
            for _ in range(ROUNDTRIP_REPEATS[n])
            for kind, degree in ROUNDTRIP_FAMILIES
        ]
        # Interleaved, each rung's time is spread over the pass instead of
        # sitting in one stretch that a busy neighbour might cover whole.
        rng.shuffle(trees)
        return trees

    def setup(self) -> None:
        self._first = self._trees(0)

    def ops(self, index: int) -> list[Op]:
        trees = self._first if index == 0 else self._trees(index)
        return [self._pipeline(t) for t in trees]

    @staticmethod
    def _pipeline(t) -> Op:
        def run():
            d = D.d_from_tree(t)
            d2 = D.DSet.from_json(d.to_json())
            report = D.check_axioms(d2)
            start = time.perf_counter()
            t2 = D.tree_from_dset(d2)
            splittings = D.enumerate_splittings(d2)
            return d, d2, report, t2, splittings, time.perf_counter() - start

        def check(out) -> bool:
            d, d2, report, t2, splittings, _ = out
            return (
                d2 == d
                and report.core_pass
                and D.canonical_form(t2) == D.canonical_form(t)
                and len(splittings) == len(t.internal_nodes()) + len(t.edges)
            )

        return Op("pipeline", t.n_elements, run, check, report_part=lambda out: out[-1])


# ------------------------------------------------------------------ session

# (kind, n, degree, coloring): the structures every report runs on.
SESSION_MAIN = (
    ("d_regular_random", 16, 4, "round_robin:2"),
    ("d_regular_random", 22, 3, "round_robin:2"),
    ("caterpillar", 24, None, "sector_avoiding"),
    ("star", 20, None, "round_robin:3"),
)
# Larger structures that only take pointwise queries: reports there cost
# seconds each and would crowd out everything else in the stream.
SESSION_WIDE = (
    ("caterpillar", 32, None, "round_robin:2"),
    ("d_regular_random", 40, 3, "round_robin:2"),
)
# Backtracking cost varies several-fold between relabellings, so every pass
# draws fresh pairs and no single draw dominates a run.
ISO_N = 8
ISO_PER_PASS = 6
QUERY_KINDS = ("extend_partial_iso", "qftp_base", "same_qftp", "branch", "classify_window", "weakly_indiscernible_over")
QUERIES_PER_KIND = 5


@dataclass(eq=False)
class Structure:
    """A session structure with what the checks need to know about it."""

    d: object
    plain: PlainTree
    sequence: list[int]  # monotonic spine or petaled set, in window order
    label: str
    starved: bool = False  # colored to force a non-extendable witness
    symmetric: bool = False  # a star: every color-preserving injection is a partial isomorphism
    grown: Optional["Structure"] = None
    _table: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.d.n

    @property
    def table(self) -> np.ndarray:
        if self._table is None:
            self._table = four_point_table(self.plain.distances())
        return self._table


def _structure(kind, n, degree, scheme, rng) -> Structure:
    t = _relabelled_tree(kind, n, degree, rng)
    d = _color(D.d_from_tree(t), scheme)
    plain = PlainTree.from_leaf_tree(t)
    if kind == "star":
        return Structure(d, plain, plain.petals(), "petaled", symmetric=True)
    return Structure(d, plain, plain.spine(), "monotonic", starved=scheme == "sector_avoiding")


def _window(s: Structure, rng: random.Random, low: int, high: int) -> list[int]:
    length = rng.randint(low, min(high, len(s.sequence)))
    if s.label == "petaled":
        return rng.sample(s.sequence, length)
    start = rng.randrange(len(s.sequence) - length + 1)
    window = s.sequence[start : start + length]
    return window[::-1] if rng.random() < 0.5 else window


def _singleton_window(ids):
    return D.SequenceWindow([(v,) for v in ids])


class Session:
    """One research session: a seeded stream of queries and reports on a few
    colored structures, growing some of them along the way."""

    name = "session"
    defer_checks = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        rng = _rng(self.seed, "session")
        self.main = [_structure(*spec, rng) for spec in SESSION_MAIN]
        self.wide = [_structure(*spec, rng) for spec in SESSION_WIDE]

    def ops(self, index: int) -> list[Op]:
        rng = _rng(self.seed, "session", index)
        ops: list[Op] = []
        grown = [s.grown for s in self.main if s.grown is not None]
        for s in self.main + grown + self.wide:
            for kind in QUERY_KINDS:
                for _ in range(QUERIES_PER_KIND):
                    ops.append(getattr(self, "_q_" + kind)(s, rng))
        for s in self.main:
            ops += [self._homogeneity(s), self._nonextendable(s), self._splittings(s), self._hull(s, rng)]
            if s.label == "monotonic":
                ops.append(self._frontiers(s, rng))
            ops.append(self._extend(s, rng))
        for _ in range(ISO_PER_PASS):
            a = _color(D.d_from_tree(_relabelled_tree("d_regular_random", ISO_N, 3, rng)), "round_robin:2")
            perm = list(range(ISO_N))
            rng.shuffle(perm)
            ops.append(self._isomorphic(a, D.relabel(a, dict(enumerate(perm))), expect=True))
        other = _relabelled_tree("star", ISO_N, None, rng)  # a shape no cubic tree has
        ops.append(self._isomorphic(a, _color(D.d_from_tree(other), "round_robin:2"), expect=False))
        rng.shuffle(ops)
        return ops

    # Pointwise queries.

    @staticmethod
    def _q_extend_partial_iso(s: Structure, rng) -> Op:
        d, colors = s.d, s.d.colors
        picked = rng.sample(range(s.n), rng.randint(3, 6))
        x, dom = picked[0], picked[1:]
        if s.symmetric:
            free = list(range(s.n))
            rng.shuffle(free)
            m = {}
            for a in dom:
                m[a] = next(v for v in free if colors[v] == colors[a] and v not in m.values())
        else:
            m = {a: a for a in dom}

        def check(cands) -> bool:
            image = set(m.values())
            expected = [y for y in range(s.n) if y not in image and extends(s.table, colors, {**m, x: y})]
            return cands == expected and all(D.check_partial_iso(d, d, {**m, x: y})[0] for y in cands)

        return Op("extend_partial_iso", s.n, lambda: D.extend_partial_iso(d, m, x), check)

    @staticmethod
    def _q_qftp_base(s: Structure, rng) -> Op:
        picked = rng.sample(range(s.n), rng.randint(4, 8))
        e, subset = picked[0], sorted(picked[1:])

        def check(qb) -> bool:
            return qb.element == e and list(qb.subset) == subset and all(
                qb.predict(x, y, z) == s.table[e, x, y, z] for x in subset for y in subset for z in subset
            )

        return Op("qftp_base", s.n, lambda: D.qftp_base(s.d, subset, e), check)

    @staticmethod
    def _q_same_qftp(s: Structure, rng) -> Op:
        picked = rng.sample(range(s.n), rng.randint(4, 9))
        e1, e2, subset = picked[0], picked[1], sorted(picked[2:])

        def check(same) -> bool:
            grid = np.ix_(subset, subset, subset)
            return same == bool(np.array_equal(s.table[e1][grid], s.table[e2][grid]))

        return Op("same_qftp", s.n, lambda: D.same_qftp(s.d, subset, e1, e2), check)

    @staticmethod
    def _q_branch(s: Structure, rng) -> Op:
        a, b, c = rng.sample(range(s.n), 3)

        def check(out) -> bool:
            return out == [x for x in range(s.n) if x != a and s.table[b, c, a, x]]

        return Op("branch", s.n, lambda: D.branch(s.d, a, b, c), check)

    @staticmethod
    def _q_classify_window(s: Structure, rng) -> Op:
        window = _singleton_window(_window(s, rng, 4, 8))
        return Op("classify_window", s.n, lambda: D.classify_window(s.d, window), lambda out: out.label == s.label)

    @staticmethod
    def _q_weakly_indiscernible_over(s: Structure, rng) -> Op:
        ids = _window(s, rng, 5, 7)
        params = rng.sample([v for v in range(s.n) if v not in ids], rng.randint(1, 3))
        window = _singleton_window(ids)

        def check(out) -> bool:
            ok, witness = out
            if ok:
                return witness is None
            first, second = witness["first"], witness["second"]
            return (
                first["value"] != second["value"]
                and all(bool(s.table[tuple(w["args"])]) == w["value"] for w in (first, second))
            )

        return Op("weakly_indiscernible_over", s.n, lambda: D.weakly_indiscernible_over(s.d, window, params), check)

    # Structure-wide reports.

    @staticmethod
    def _report(kind: str, n: int, run, check) -> Op:
        return Op(kind, n, run, check, is_op=False, is_report=True)

    def _homogeneity(self, s: Structure) -> Op:
        def check(out) -> bool:
            degrees = {len(s.plain.adj[u]) for u in s.plain.internal_nodes()}
            regular = len(degrees) <= 1
            present = set(s.d.colors)
            hitting = all(
                present <= {s.d.colors[a] for a in sector}
                for _, sectors in s.plain.features()
                for sector in sectors
                if len(sector) >= 2
            )
            positives = len(positive_quads(s.table))
            return (
                out["regular"]["verdict"] == regular
                and out["regular"]["sector_count"] == (degrees.pop() if regular and degrees else None)
                and out["dense"]["verdict"] == (positives == 0)
                and out["dense"]["positive_quads"] == positives
                and out["color_hitting"]["verdict"] == hitting
            )

        return self._report("homogeneity_conditions", s.n, lambda: D.homogeneity_conditions(s.d), check)

    def _nonextendable(self, s: Structure) -> Op:
        def check(out) -> bool:
            if out is None:
                return not s.starved
            m, stuck = out
            colors = s.d.colors
            image = set(m.values())
            return extends(s.table, colors, m) and not any(
                extends(s.table, colors, {**m, stuck: y}) for y in range(s.n) if y not in image
            )

        return self._report("nonextendable_witness", s.n, lambda: D.nonextendable_witness(s.d), check)

    def _splittings(self, s: Structure) -> Op:
        def check(out) -> bool:
            return sorted(sorted(map(sorted, sp.sectors)) for sp in out) == sorted(
                sorted(map(sorted, sectors)) for _, sectors in s.plain.features()
            )

        return self._report("enumerate_splittings", s.n, lambda: D.enumerate_splittings(s.d), check)

    def _hull(self, s: Structure, rng) -> Op:
        ids = _window(s, rng, 5, 8)
        window = _singleton_window(ids)

        def check(out) -> bool:
            return out.columns[0].klass.label == s.label and set(ids) <= out.hull

        return self._report("hull_window", s.n, lambda: D.hull_window(s.d, window), check)

    def _frontiers(self, s: Structure, rng) -> Op:
        ids = _window(s, rng, 5, 8)
        window = _singleton_window(ids)

        def check(out) -> bool:
            left, right = out
            return not (left | right) & set(ids) and left <= set(range(s.n)) and right <= set(range(s.n))

        return self._report("frontiers", s.n, lambda: D.frontiers(s.d, window), check)

    def _extend(self, s: Structure, rng) -> Op:
        feature, sectors = rng.choice(s.plain.features())
        splitting = D.Splitting(sectors)

        def check(out) -> bool:
            grown = Structure(out, s.plain.attach(feature), s.sequence, s.label)
            ok = (
                out.n == s.n + 1
                and out.colors == s.d.colors + (0,)
                and out.positives == positive_quads(grown.table)
            )
            if ok:
                s.grown = grown
            return ok

        return self._report("extend_by_point", s.n, lambda: D.extend_by_point(s.d, splitting), check)

    def _isomorphic(self, a, b, expect: bool) -> Op:
        def check(m) -> bool:
            return m is None if not expect else m is not None and D.relabel(a, m) == b

        return self._report("are_isomorphic", a.n, lambda: D.are_isomorphic(a, b), check)


# ---------------------------------------------------------------------- cli


CLI_SMALL_N = 16  # under the CLI's default --max-n
CLI_LINE_N = 12
CLI_MID_N = 24
# (n, degree): only the axiom check and the tree-to-relation command, the
# two that stay within seconds at these sizes.
CLI_BIG = ((32, 4), (40, 3))


@dataclass
class Command:
    argv: list[str]
    stdin: str
    n: int
    expected: Callable[[], tuple[int, object]]  # exit code and parsed stdout


class Cli:
    """A closed loop of `python -m dsets` commands, one process at a time."""

    name = "cli"
    defer_checks = True  # checks compute answers in-process; keep them off the timed calls' caches and clock
    REPORTS = ("homreport",)

    def __init__(self, seed: int, workdir: Path, root: Path, in_process: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.root = root
        self.in_process = in_process
        self._answers: dict[int, tuple[int, object]] = {}

    def setup(self) -> None:
        rng = _rng(self.seed, "cli")
        small = _relabelled_tree("d_regular_random", CLI_SMALL_N, 3, rng)
        small_d = _color(D.d_from_tree(small), "round_robin:2")
        line = _relabelled_tree("caterpillar", CLI_LINE_N, None, rng)
        line_d = D.d_from_tree(line)
        spine = PlainTree.from_leaf_tree(line).spine()
        mid_d = D.d_from_tree(_relabelled_tree("caterpillar", CLI_MID_N, None, rng))
        big = [_relabelled_tree("d_regular_random", n, degree, rng) for n, degree in CLI_BIG]

        sectors = rng.choice(PlainTree.from_leaf_tree(small).features())[1]
        splitting_file = self.workdir / "splitting.json"
        splitting_file.write_text(D.Splitting(sectors).to_json())
        dom = rng.sample(range(CLI_SMALL_N), 4)
        add = rng.choice([v for v in range(CLI_SMALL_N) if v not in dom])
        pairs = {a: a for a in dom}
        map_file = self.workdir / "map.json"
        map_file.write_text(json.dumps({str(a): b for a, b in pairs.items()}))
        start = rng.randrange(len(spine) - 7)
        seq = spine[start : start + rng.randint(5, 7)]
        over = rng.sample([v for v in range(CLI_LINE_N) if v not in seq], 2)
        ids = ",".join(map(str, seq))

        def c(argv, stdin, n, expected) -> Command:
            return Command(argv + ["--quiet"], stdin, n, expected)

        small_json, small_tree, line_json = small_d.to_json(), small.to_json(), line_d.to_json()
        self.commands = [
            c(["check"], small_json, CLI_SMALL_N, lambda: self._check(small_d)),
            c(["to-tree"], small_json, CLI_SMALL_N, lambda: (0, json.loads(D.tree_from_dset(small_d).to_json()))),
            c(["from-tree"], small_tree, CLI_SMALL_N, lambda: (0, json.loads(D.d_from_tree(small).to_json()))),
            c(["splittings"], small_json, CLI_SMALL_N, lambda: self._splittings(small_d)),
            c(["homreport"], small_json, CLI_SMALL_N, lambda: self._homreport(small_d)),
            c(["splittings"], line_json, CLI_LINE_N, lambda: self._splittings(line_d)),
            c(["homreport"], line_json, CLI_LINE_N, lambda: self._homreport(line_d)),
            c(["classify", "--seq", ids], line_json, CLI_LINE_N, lambda: self._classify(line_d, seq)),
            c(["hull", "--seq", ids], line_json, CLI_LINE_N,
              lambda: (0, D.hull_window(line_d, _singleton_window(seq)).as_dict())),
            c(["indisc", "--seq", ids, "--over", ",".join(map(str, over))], line_json, CLI_LINE_N,
              lambda: self._indisc(line_d, seq, over)),
            c(["probe", "--map", str(map_file), "--add", str(add)], small_json, CLI_SMALL_N,
              lambda: self._probe(small_d, pairs, add)),
            c(["extend", "--splitting", str(splitting_file)], small_json, CLI_SMALL_N,
              lambda: (0, json.loads(D.extend_by_point(small_d, D.Splitting(sectors)).to_json()))),
            c(["export-dot", "--output", "tree.dot"], small_tree, CLI_SMALL_N, lambda: self._export(small)),
        ]
        # Beyond the default --max-n of 16 the bound is raised explicitly.
        mid_json, max_mid = mid_d.to_json(), ["--max-n", str(CLI_MID_N)]
        self.commands += [
            c(["check"] + max_mid, mid_json, CLI_MID_N, lambda: self._check(mid_d)),
            c(["homreport"] + max_mid, mid_json, CLI_MID_N, lambda: self._homreport(mid_d)),
        ]
        for t in big:
            d, n = D.d_from_tree(t), t.n_elements
            max_big = ["--max-n", str(n)]
            self.commands += [
                c(["check"] + max_big, d.to_json(), n, lambda d=d: self._check(d)),
                c(["from-tree"] + max_big, t.to_json(), n, lambda t=t: (0, json.loads(D.d_from_tree(t).to_json()))),
            ]
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"), DSETS_OUTDIR=str(self.workdir))

    # In-process answers, shaped like the CLI's payloads.

    @staticmethod
    def _check(d):
        report = D.check_axioms(d)
        return (0 if report.core_pass else 1), report.as_dict()

    @staticmethod
    def _splittings(d):
        ss = D.enumerate_splittings(d)
        return 0, {"count": len(ss), "splittings": [s.as_sorted_lists() for s in ss]}

    @staticmethod
    def _homreport(d):
        conditions = D.homogeneity_conditions(d, min_sector_size=2)
        found = D.nonextendable_witness(d)
        payload = {
            "conditions": conditions,
            "nonextendable": {
                "found": found is not None,
                "map": sorted(found[0].items()) if found else None,
                "stuck": found[1] if found else None,
            },
        }
        good = all(conditions[k]["verdict"] for k in ("regular", "dense", "color_hitting")) and found is None
        return (0 if good else 1), json.loads(json.dumps(payload))

    @staticmethod
    def _classify(d, seq):
        verdict = D.classify_window(d, _singleton_window(seq))
        return (1 if verdict.label == "not_indiscernible" else 0), verdict.as_dict()

    @staticmethod
    def _indisc(d, seq, over):
        ok, witness = D.weakly_indiscernible_over(d, _singleton_window(seq), over)
        return (0 if ok else 1), json.loads(json.dumps({"weakly_indiscernible": ok, "witness": witness}))

    @staticmethod
    def _probe(d, pairs, add):
        candidates = D.extend_partial_iso(d, pairs, add)
        payload = {"partial_iso": True, "element": add, "candidates": candidates, "map": sorted(pairs.items())}
        return (0 if candidates else 1), json.loads(json.dumps(payload))

    def _export(self, t):
        path = str(self.workdir / "tree.dot")
        return 0, {"written": path, "text": D.export_dot(t)}

    def ops(self, index: int) -> list[Op]:
        ops = [self._op(i, cmd) for i, cmd in enumerate(self.commands)]
        _rng(self.seed, "cli", index).shuffle(ops)
        return ops

    def _op(self, i: int, cmd: Command) -> Op:
        run = self._in_process if self.in_process else self._subprocess
        report = cmd.argv[0] in self.REPORTS

        def check(out) -> bool:
            if i not in self._answers:
                self._answers[i] = cmd.expected()
            code, payload = self._answers[i]
            got_code, stdout = out
            got = json.loads(stdout)
            if cmd.argv[0] == "export-dot":
                got["text"] = Path(got["written"]).read_text()
            return got_code == code and got == payload

        return Op(cmd.argv[0], cmd.n, lambda: run(cmd), check, is_report=report)

    def _subprocess(self, cmd: Command) -> tuple[int, str]:
        done = subprocess.run(
            [sys.executable, "-m", "dsets", *cmd.argv],
            input=cmd.stdin,
            capture_output=True,
            text=True,
            env=self.env,
            cwd=self.root,
            timeout=120,
        )
        return done.returncode, done.stdout

    def _in_process(self, cmd: Command) -> tuple[int, str]:
        saved = sys.stdin, sys.stdout, os.environ.get("DSETS_OUTDIR")
        sys.stdin, sys.stdout = io.StringIO(cmd.stdin), io.StringIO()
        os.environ["DSETS_OUTDIR"] = str(self.workdir)
        try:
            code = dsets.cli.main(cmd.argv)
            return code, sys.stdout.getvalue()
        finally:
            sys.stdin, sys.stdout = saved[0], saved[1]
            if saved[2] is None:
                os.environ.pop("DSETS_OUTDIR", None)
            else:
                os.environ["DSETS_OUTDIR"] = saved[2]
