"""Benchmark of the dsets library and CLI.

    python3 perfbench/run.py --workload roundtrip|session|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src`.
An untraced run (`--trace 0`) times the set-up here and in fresh
interpreters, times whole passes over the workload's operations in this
process and reports the end-to-end metrics.  A traced
run (`--trace 1`) starts three fresh interpreters, each making one pass:
one untraced, one with spans around every public library function, one
measuring allocation peaks with tracemalloc; it reports the per-layer
metrics.  Every answer is checked; the last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

THREAD_PINS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("roundtrip", "session", "cli")
CHILD_MODES = ("plain", "spans", "memory")
SETUP_REPEATS = 5  # fresh interpreters, this one included
STARTUP_REPEATS = 5

# Per-layer functions reported with calls and self time.
LAYER_FUNCTIONS = (
    "core.relation_table", "core.check_axioms", "core.from_json", "core.are_isomorphic",
    "trees.d_from_tree", "trees.tree_from_dset", "trees.splittings_from_tree", "trees.canonical_form",
    "splittings.enumerate_splittings", "splittings.induced_splitting", "splittings.is_splitting",
    "splittings.extend_by_point", "splittings.extend_splitting",
    "homtypes.extend_partial_iso", "homtypes.check_partial_iso", "homtypes.qftp_base", "homtypes.same_qftp",
    "homtypes.homogeneity_conditions", "homtypes.nonextendable_witness",
    "indiscernibles.classify_window", "indiscernibles.hull_window", "indiscernibles.frontiers",
    "indiscernibles.weakly_indiscernible_over",
    "generators.gen_random", "generators.color_uniform", "generators.color_round_robin",
    "generators.color_sector_avoiding",
)
PEAK_FUNCTIONS = ("core.check_axioms", "core.relation_table")
CLI_COMMANDS = (
    "check", "to-tree", "from-tree", "splittings", "homreport", "classify",
    "hull", "indisc", "probe", "extend", "export-dot",
)
# Functions whose repeat calls per operation the traced summary lists.
REPEAT_FUNCTIONS = ("trees.tree_from_dset", "splittings.enumerate_splittings", "core.check_axioms")


def end_to_end_units() -> dict[str, str]:
    units = {
        "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
        "report_p50_ms": "ms", "peak_rss_mb": "MB",
    }
    units.update({f"n{r}_s": "s" for r in (16, 24, 32, 40)})
    return units


def per_layer_units() -> dict[str, str]:
    units = {}
    for key in LAYER_FUNCTIONS:
        units[f"{key}.calls"] = "count"
        units[f"{key}.self_s"] = "s"
    units["core.holds.calls"] = "count"
    units.update({f"{key}.peak_mb": "MB" for key in PEAK_FUNCTIONS})
    units["cli.interpreter_ms"] = "ms"
    units["cli.import_ms"] = "ms"
    units.update({f"cli.main_ms.{c}": "ms" for c in CLI_COMMANDS})
    units["trace.overhead_s"] = "s"
    return units


@dataclass(slots=True)
class Record:
    """One timed operation: its kind, input size, start, duration and verdict."""

    kind: str
    n: int
    start: float
    seconds: float
    is_op: bool
    report_s: Optional[float]
    ok: bool = False

    def scaled(self, factor: float) -> "Record":
        report_s = None if self.report_s is None else self.report_s * factor
        return Record(self.kind, self.n, self.start, self.seconds * factor, self.is_op, report_s, self.ok)


def make_workload(name: str, seed: int, workdir: Path, in_process: bool = False):
    import workloads

    if name == "roundtrip":
        return workloads.Roundtrip(seed)
    if name == "session":
        return workloads.Session(seed)
    return workloads.Cli(seed, workdir, ROOT, in_process=in_process)


def run_passes(wl, seconds: float, single_pass: bool, tracer=None, failures=None, speed=None) -> list[list[Record]]:
    """Timed passes until the next one would end past `seconds` (at least one).

    The tracer, when given, is on for the operations and off for the checks.
    The speed probe, when given, samples its kernel between operations.
    Workloads that defer their checks have them all run after the last pass.
    """
    clock = time.perf_counter
    passes: list[list[Record]] = []
    op_kinds: list[str] = []
    deferred: list = []
    started = clock()
    index = 0
    while True:
        records = []
        for op in wl.ops(index):
            if tracer is not None:
                tracer.op = len(op_kinds)
                tracer.enabled = True
            op_kinds.append(op.kind)
            if speed is not None:
                speed.sample_if_due()
            t0 = clock()
            try:
                out, error = op.run(), None
            except Exception as exc:  # a failing operation is counted, not fatal
                out, error = None, exc
            elapsed = clock() - t0
            if tracer is not None:
                tracer.enabled = False
            record = Record(op.kind, op.n, t0, elapsed, op.is_op, elapsed if op.is_report else None)
            records.append(record)
            if error is not None:
                _note(failures, op, f"raised {error!r}")
                continue
            if op.report_part is not None:
                record.report_s = op.report_part(out)
            if wl.defer_checks:
                deferred.append((record, op, out))
            else:
                _check(record, op, out, failures)
        passes.append(records)
        index += 1
        if speed is not None:
            speed.sample()
        gc.collect()  # leave no garbage of this pass to be collected inside the next one's timings
        last = sum(r.seconds for r in records)
        if single_pass or clock() - started + last > seconds:
            break
    for item in deferred:
        _check(*item, failures)
    if tracer is not None:
        tracer.op_kinds = op_kinds
    return passes


def _check(record, op, out, failures) -> None:
    try:
        record.ok = bool(op.check(out))
    except Exception as exc:  # a check that cannot read the answer fails it
        _note(failures, op, f"check raised {exc!r}")
        return
    if not record.ok:
        _note(failures, op, "wrong answer")


def _note(failures, op, what: str) -> None:
    if failures is not None:
        failures.append(f"{op.kind} n={op.n}: {what}")


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile, q in (0, 1)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def end_to_end(passes: list[list[Record]], setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics and the sample count behind each."""
    from workloads import LADDER, rung

    records = [r for p in passes for r in p]
    op_times = [r.seconds for r in records if r.is_op]
    reports = [r.report_s for r in records if r.report_s is not None]
    busy = sum(r.seconds for r in records)
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(sum(r.seconds for r in p) for p in passes),
        "ops_per_s": len(records) / busy,
        "op_p50_ms": 1e3 * statistics.median(op_times),
        "op_p90_ms": 1e3 * quantile(op_times, 0.9),
        "report_p50_ms": 1e3 * statistics.median(reports),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {"setup_s": SETUP_REPEATS, "wall_s": len(passes), "ops_per_s": len(records),
               "op_p50_ms": len(op_times), "op_p90_ms": len(op_times), "report_p50_ms": len(reports),
               "peak_rss_mb": 1}
    for r in LADDER:
        values[f"n{r}_s"] = statistics.median(sum((x.seconds for x in p if rung(x.n) == r), 0.0) for p in passes)
        samples[f"n{r}_s"] = sum(1 for x in records if rung(x.n) == r)
    return values, samples


def setup_time(wl, import_s: float, args, repeats: int, speed) -> tuple[float, float]:
    """Median cold set-up time (`import dsets` plus input generation) and the
    speed factor over the set-ups.  This interpreter gives one sample and
    fresh ones the rest, so that every sample starts with the library's
    caches empty."""
    begin = time.perf_counter()
    speed.sample()
    t0 = time.perf_counter()
    wl.setup()
    times = [import_s + time.perf_counter() - t0]
    for _ in range(repeats - 1):
        speed.sample()
        times.append(_run_child(args, "setup")["setup_s"])
    speed.sample()
    return statistics.median(times), speed.factor(begin, time.perf_counter())


def untraced(args, import_s: float, workdir: Path) -> tuple[dict, int, int, list[str]]:
    from speed import Speed

    wl = make_workload(args.workload, args.seed, workdir)
    speed = Speed()
    setup_s, setup_factor = setup_time(wl, import_s, args, SETUP_REPEATS, speed)
    failures: list[str] = []
    passes = run_passes(wl, args.seconds, single_pass=False, failures=failures, speed=speed)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024
    raw, samples = end_to_end(passes, setup_s, rss_mb)
    normalised = [[r.scaled(speed.factor(r.start, r.start + r.seconds)) for r in p] for p in passes]
    values, _ = end_to_end(normalised, setup_s * setup_factor, rss_mb)
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for r in p if not r.ok)
    units = end_to_end_units()
    print(f"# {args.workload}: {len(passes)} pass(es), {attempted} operations; "
          f"kernel median {1e3 * statistics.median(speed.seconds):.3f} ms over {len(speed.seconds)} samples")
    print(f"#   {'metric':<14} {'normalised':>12} {'raw':>12} unit   samples")
    for name, value in values.items():
        print(f"#   {name:<14} {value:>12.4f} {raw[name]:>12.4f} {units[name]:<6} {samples[name]}")
    print(f"#   {'fail_share':<14} {failed / attempted:>12.4f} {'':>12} {'1':<6} ops_attempted={attempted}")
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, attempted, failed, failures


def child(args, import_s: float, workdir: Path) -> dict:
    """Work done in a fresh interpreter: a cold set-up, or one pass in one of
    the three traced-run modes."""
    wl = make_workload(args.workload, args.seed, workdir, in_process=args.child != "setup")
    if args.child == "setup":
        t0 = time.perf_counter()
        wl.setup()
        return {"setup_s": import_s + time.perf_counter() - t0}
    from speed import Speed

    speed = Speed()
    failures: list[str] = []
    out: dict = {}
    if args.child == "spans":
        from spans import SpanTracer

        tracer = SpanTracer()
        tracer.install(required=LAYER_FUNCTIONS)
        tracer.op, tracer.enabled = -1, True
        wl.setup()
        tracer.enabled = False
        passes = run_passes(wl, 0, single_pass=True, tracer=tracer, failures=failures, speed=speed)
        calls, self_s = tracer.totals()
        out["calls"] = dict(calls)
        out["self_s"] = self_s
        out["per_op"] = tracer.calls_per_op(REPEAT_FUNCTIONS)
    elif args.child == "memory":
        from spans import PeakTracker

        tracker = PeakTracker(PEAK_FUNCTIONS)
        tracker.install()
        wl.setup()
        passes = run_passes(wl, 0, single_pass=True, tracer=tracker, failures=failures, speed=speed)
        tracker.uninstall()
        out["peak_mb"] = {k: v / 2**20 for k, v in tracker.peak_bytes.items()}
        out["holds_calls"] = tracker.holds_calls
    else:
        wl.setup()
        passes = run_passes(wl, 0, single_pass=True, failures=failures, speed=speed)
        if args.workload == "cli":
            by_command: dict[str, list[float]] = {}
            for r in passes[0]:
                by_command.setdefault(r.kind, []).append(1e3 * r.seconds)
            out["main_ms"] = {c: statistics.median(v) for c, v in by_command.items()}
    # Normalised like the end-to-end times, so that the overhead is not
    # mostly the machine's change of speed between the two passes.
    out["wall_s"] = sum(r.seconds * speed.factor(r.start, r.start + r.seconds) for r in passes[0])
    out["raw_wall_s"] = sum(r.seconds for r in passes[0])
    out["ops"] = len(passes[0])
    out["failed"] = sum(1 for r in passes[0] if not r.ok)
    out["failures"] = failures[:20]
    return out


def startup_ms() -> tuple[float, float]:
    """Median bare-interpreter start and in-process `import dsets` time."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    bare, imports = [], []
    probe = "import time; t = time.perf_counter(); import dsets; print(time.perf_counter() - t)"
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env, cwd=ROOT, timeout=60)
        bare.append(1e3 * (time.perf_counter() - t0))
        done = subprocess.run([sys.executable, "-c", probe], check=True, env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        imports.append(1e3 * float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(bare), statistics.median(imports)


def _run_child(args, mode: str) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--child", mode]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"child '{mode}' exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def traced(args) -> tuple[dict, int, int, list[str]]:
    results = {mode: _run_child(args, mode) for mode in CHILD_MODES}
    spans, plain, memory = results["spans"], results["plain"], results["memory"]
    values: dict[str, float] = {}
    for key in LAYER_FUNCTIONS:
        values[f"{key}.calls"] = spans["calls"].get(key, 0)
        values[f"{key}.self_s"] = spans["self_s"].get(key, 0.0)
    values["core.holds.calls"] = memory["holds_calls"]
    for key in PEAK_FUNCTIONS:
        values[f"{key}.peak_mb"] = memory["peak_mb"][key]
    values["cli.interpreter_ms"], values["cli.import_ms"] = startup_ms()
    for c in CLI_COMMANDS:
        values[f"cli.main_ms.{c}"] = plain.get("main_ms", {}).get(c, 0.0)
    values["trace.overhead_s"] = spans["wall_s"] - plain["wall_s"]
    units = per_layer_units()
    print(f"# {args.workload} traced: {spans['ops']} operations per pass; "
          f"untraced pass {plain['wall_s']:.4f} s, traced {spans['wall_s']:.4f} s normalised "
          f"({plain['raw_wall_s']:.4f} s, {spans['raw_wall_s']:.4f} s raw)")
    print("# calls per operation, by operation kind:")
    for kind, counts in spans["per_op"].items():
        print(f"#   {kind:<28} " + "  ".join(f"{k.split('.')[1]}={v:.2f}" for k, v in counts.items()))
    for name, value in values.items():
        print(f"#   {name:<46} {value:>14.6f} {units[name]}")
    attempted = sum(r["ops"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    failures = [f for r in results.values() for f in r["failures"]]
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, attempted, failed, failures


def environment() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=CHILD_MODES + ("setup",), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # One core for this process and every process it starts: the reference
    # kernel then times the core the measured work runs on, and the
    # scheduler never moves a run between cores mid-operation.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.environ.update(THREAD_PINS)
    src = ROOT / "src"
    if not (src / "dsets" / "__init__.py").is_file():
        print(f"perfbench: no dsets package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import dsets

    import_s = time.perf_counter() - t0
    if Path(dsets.__file__).resolve().parent != src / "dsets":
        print(f"perfbench: imported dsets from {dsets.__file__}, not {src}", file=sys.stderr)
        return 2

    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=Path(__file__).resolve().parent))
    try:
        if args.child:
            print(json.dumps(child(args, import_s, workdir)))
            return 0
        if args.trace:
            metrics, attempted, failed, failures = traced(args)
        else:
            metrics, attempted, failed, failures = untraced(args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("# environment: " + json.dumps(environment(), sort_keys=True))
    for line in failures[:20]:
        print(f"# FAILED {line}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
