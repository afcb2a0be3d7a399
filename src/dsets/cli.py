"""Command line front end.

Every subcommand reads JSON (a file argument, or stdin via "-"), writes one
deterministic JSON object to stdout, and prints a one-line summary to
stderr unless --quiet.  Exit codes: 0 success or true verdict, 1 false
verdict (a witness is in the output), 2 bad input, an unwritable output or
an internal failure (a machine-readable error object is in the output).
Library functions are reached through the lazy `dsets` namespace, so a
command loads only the modules it calls.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

import dsets as D

from .core import (
    DSet,
    InputError,
    InvariantViolation,
    NotRepresentable,
    _require_ids,
    check_axioms,
)

OUTDIR_ENV = "DSETS_OUTDIR"


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(args, payload: str, summary: str) -> None:
    print(payload)
    if not args.quiet:
        print(summary, file=sys.stderr)


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _check_max_n(args, count: int, noun: str) -> None:
    if count > args.max_n:
        raise InputError(f"{count} {noun} exceeds the --max-n bound of {args.max_n}")


def _load_dset(args) -> DSet:
    # Refuse an oversized n before anything n-long is built.
    payload = DSet._decode_json(_read_source(args.source))
    _check_max_n(args, payload["n"], "elements")
    return DSet._from_payload(payload)


def _load_tree(args) -> D.LeafTree:
    t = D.LeafTree.from_json(_read_source(args.source))
    _check_max_n(args, t.n_elements, "leaves")
    return t


def _parse_ids(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise InputError(f"bad id list {text!r}: {exc}") from exc


def _singleton_window(ids: Sequence[int]) -> D.SequenceWindow:
    return D.SequenceWindow([(v,) for v in ids])


def _resolve_output(path: str) -> str:
    base = os.environ.get(OUTDIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def cmd_check(args) -> int:
    d = _load_dset(args)
    report = check_axioms(d)
    payload = report.as_dict()
    verdicts = [
        f"{name} {entry['status']}"
        for name, entry in payload.items()
        if isinstance(entry, dict)
    ]
    _emit(args, _dump(payload), "; ".join(verdicts))
    return 0 if report.core_pass else 1


def cmd_from_tree(args) -> int:
    t = _load_tree(args)
    d = D.d_from_tree(t)
    _emit(args, d.to_json(), f"{d.n} elements, {len(d.rows)} positive quads")
    return 0


def cmd_to_tree(args) -> int:
    d = _load_dset(args)
    report = check_axioms(d)
    if not report.core_pass:
        _emit(
            args,
            _dump({"representable": False, "witness": report.as_dict()}),
            "not representable: a core axiom fails",
        )
        return 1
    t = D.tree_from_dset(d)
    _emit(
        args,
        t.to_json(),
        f"{len(t.nodes)} nodes, {len(t.internal_nodes())} internal",
    )
    return 0


def cmd_splittings(args) -> int:
    d = _load_dset(args)
    ss = D.enumerate_splittings(d, method=args.method)
    payload = {
        "count": len(ss),
        "splittings": [s.as_sorted_lists() for s in ss],
    }
    _emit(args, _dump(payload), f"{len(ss)} splittings")
    return 0


def cmd_extend(args) -> int:
    d = _load_dset(args)
    s = D.Splitting.from_json(_read_source(args.splitting))
    out = D.extend_by_point(d, s)
    _emit(args, out.to_json(), f"element {d.n} attached; now {out.n} elements")
    return 0


def cmd_classify(args) -> int:
    d = _load_dset(args)
    window = _singleton_window(_parse_ids(args.seq))
    verdict = D.classify_window(d, window)
    _emit(args, _dump(verdict.as_dict()), verdict.label)
    return 0 if verdict.label != "not_indiscernible" else 1


def cmd_hull(args) -> int:
    d = _load_dset(args)
    window = _singleton_window(_parse_ids(args.seq))
    result = D.hull_window(d, window)
    _emit(args, _dump(result.as_dict()), f"hull of {len(result.hull)} elements")
    return 0


def cmd_indisc(args) -> int:
    d = _load_dset(args)
    window = _singleton_window(_parse_ids(args.seq))
    over = _parse_ids(args.over)
    ok, witness = D.weakly_indiscernible_over(d, window, over)
    _emit(
        args,
        _dump({"weakly_indiscernible": ok, "witness": witness}),
        "weakly indiscernible" if ok else "discernible; witness emitted",
    )
    return 0 if ok else 1


def _parse_map(text: str) -> dict[int, int]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid map JSON: {exc}") from exc
    if isinstance(payload, dict) and "map" in payload:
        payload = payload["map"]
    try:
        if isinstance(payload, dict):
            pairs = [(int(k), v) for k, v in payload.items()]
        else:
            pairs = [(k, v) for k, v in payload]
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed map payload: {exc}") from exc
    _require_ids(v for pair in pairs for v in pair)
    return dict(pairs)


def cmd_probe(args) -> int:
    d = _load_dset(args)
    pairs = _parse_map(_read_source(args.map))
    ok, witness = D.check_partial_iso(d, d, pairs)
    if not ok:
        _emit(
            args,
            _dump({"partial_iso": False, "witness": witness, "candidates": None}),
            "map is not a partial isomorphism",
        )
        return 1
    candidates = D.extend_partial_iso(d, pairs, args.add)
    payload = {
        "partial_iso": True,
        "element": args.add,
        "candidates": candidates,
        "map": sorted(pairs.items()),
    }
    summary = (
        f"{len(candidates)} candidate images for {args.add}"
        if candidates
        else f"stuck: no image for {args.add}"
    )
    _emit(args, _dump(payload), summary)
    return 0 if candidates else 1


def cmd_homreport(args) -> int:
    d = _load_dset(args)
    conditions = D.homogeneity_conditions(d, min_sector_size=args.min_sector_size)
    found = D.nonextendable_witness(d)
    payload = {
        "conditions": conditions,
        "nonextendable": {
            "found": found is not None,
            "map": sorted(found[0].items()) if found else None,
            "stuck": found[1] if found else None,
        },
    }
    all_good = (
        conditions["regular"]["verdict"]
        and conditions["dense"]["verdict"]
        and conditions["color_hitting"]["verdict"]
        and found is None
    )
    _emit(
        args,
        _dump(payload),
        "all homogeneity conditions hold" if all_good else "conditions violated",
    )
    return 0 if all_good else 1


def _parse_spec(text: str) -> D.TreeSpec:
    fields: dict[str, object] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise InputError(f"spec entries look like key=value, got {part!r}")
        key, value = part.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key == "kind":
            fields["kind"] = value
        elif key in ("leaves", "degree", "seed"):
            try:
                fields[key] = int(value)
            except ValueError as exc:
                raise InputError(f"{key} must be an integer, got {value!r}") from exc
        else:
            raise InputError(f"unknown spec key {key!r}")
    if "kind" not in fields or "leaves" not in fields:
        raise InputError("spec needs at least kind=... and leaves=...")
    return D.TreeSpec(**fields)  # type: ignore[arg-type]


def _apply_coloring(d: DSet, scheme: Optional[str]) -> DSet:
    if scheme is None:
        return d
    if scheme == "uniform":
        return D.color_uniform(d)
    if scheme.startswith("round_robin:"):
        try:
            n_colors = int(scheme.split(":", 1)[1])
        except ValueError as exc:
            raise InputError(f"bad coloring {scheme!r}") from exc
        return D.color_round_robin(d, n_colors)
    if scheme == "sector_avoiding":
        return D.color_sector_avoiding(d)
    raise InputError(
        f"unknown coloring {scheme!r}; try uniform, round_robin:N, sector_avoiding"
    )


def cmd_gen(args) -> int:
    if args.list:
        _emit(args, _dump({"fixtures": D.fixture_names()}), "fixture catalogue")
        return 0
    if (args.fixture is None) == (args.spec is None):
        raise InputError("gen needs exactly one of --fixture or --spec")
    if args.fixture is not None:
        fixture = D.gen_fixture(args.fixture)
        tree, d, label = fixture.tree, fixture.dset, args.fixture
    else:
        spec = _parse_spec(args.spec)
        _check_max_n(args, spec.leaves, "leaves")
        tree = D.gen_random(spec)
        d, label = D.d_from_tree(tree), spec.kind
    if args.as_what == "tree":
        if args.coloring is not None:
            raise InputError("colorings apply to the D-set output, not the tree")
        _emit(args, tree.to_json(), f"{label}: tree with {tree.n_elements} leaves")
        return 0
    d = _apply_coloring(d, args.coloring)
    _emit(args, d.to_json(), f"{label}: {d.n} elements")
    return 0


def cmd_export_dot(args) -> int:
    if args.from_dset:
        d = _load_dset(args)
        report = check_axioms(d)
        if not report.core_pass:
            raise InputError("cannot draw: input fails D1..D4")
        tree = D.tree_from_dset(d)
        colors: Optional[Sequence[int]] = d.colors
    else:
        tree = _load_tree(args)
        colors = None
    text = D.export_dot(tree, colors=colors)
    if args.output:
        path = _resolve_output(args.output)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        _emit(args, _dump({"written": path}), f"DOT written to {path}")
    else:
        print(text, end="")
        if not args.quiet:
            print("DOT on stdout", file=sys.stderr)
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error is bad input: kind `input`, exit 2, like any other."""

    def error(self, message: str):
        raise InputError(message)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--quiet", action="store_true", help="suppress the stderr summary"
    )
    common.add_argument(
        "--max-n",
        type=int,
        default=16,
        help="refuse inputs with more elements than this (default 16)",
    )

    parser = _Parser(
        prog="dsets",
        description="Inspect finite D-sets, their trees, splittings and windows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, source: bool = True):
        p = sub.add_parser(name, parents=[common], help=help_text)
        if source:
            p.add_argument(
                "source",
                nargs="?",
                default="-",
                help="input JSON file, - for stdin (default)",
            )
        p.set_defaults(handler=handler)
        return p

    add("check", cmd_check, "run the axiom battery on a D-set")
    add("from-tree", cmd_from_tree, "leaf relation of a tree")
    add("to-tree", cmd_to_tree, "reconstruct the tree of a D-set")
    p = add("splittings", cmd_splittings, "enumerate all splittings")
    auto = "auto (default): brute force for a table of at most 6 elements failing D1..D4, else tree"
    p.add_argument("--method", choices=("auto", "brute", "tree"), default="auto", help=auto)
    p = add("extend", cmd_extend, "attach a new element along a splitting")
    p.add_argument("--splitting", required=True, help="splitting JSON file")
    p = add("classify", cmd_classify, "classify a window of elements")
    p.add_argument("--seq", required=True, help="comma-separated element ids")
    p = add("hull", cmd_hull, "discernible hull of a window")
    p.add_argument("--seq", required=True, help="comma-separated element ids")
    p = add("indisc", cmd_indisc, "weak indiscernibility over parameters")
    p.add_argument("--seq", required=True, help="comma-separated element ids")
    p.add_argument("--over", required=True, help="comma-separated parameter ids")
    p = add("probe", cmd_probe, "try to extend a partial isomorphism")
    p.add_argument("--map", required=True, help="JSON map file, - for stdin")
    p.add_argument("--add", required=True, type=int, help="element to cover")
    p = add("homreport", cmd_homreport, "homogeneity conditions and witnesses")
    p.add_argument("--min-sector-size", type=int, default=2)
    p = add("gen", cmd_gen, "emit a fixture or generated family member", source=False)
    p.add_argument("--fixture", help="catalogue name, e.g. CAT5 or FLW6")
    p.add_argument("--spec", help="kind=...,leaves=...[,degree=...][,seed=...]")
    p.add_argument(
        "--coloring", help="uniform, round_robin:N, or sector_avoiding"
    )
    p.add_argument(
        "--as",
        dest="as_what",
        choices=("dset", "tree"),
        default="dset",
        help="output schema (default dset)",
    )
    p.add_argument("--list", action="store_true", help="list fixture names")
    p = add("export-dot", cmd_export_dot, "render a tree to DOT")
    p.add_argument("--from-dset", action="store_true", help="input is a D-set")
    p.add_argument("--output", help=f"write here (relative paths join ${OUTDIR_ENV})")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except InputError as exc:
        print(_dump({"error": {"kind": "input", "message": str(exc)}}))
        return 2
    except NotRepresentable as exc:
        print(_dump({"error": {"kind": "not_representable", "message": str(exc)}}))
        return 2
    except InvariantViolation as exc:
        print(_dump({"error": {"kind": "invariant", "message": str(exc)}}))
        return 2
    except OSError as exc:
        print(_dump({"error": {"kind": "io", "message": str(exc)}}))
        return 2
    except Exception as exc:  # last resort: no input may end in a traceback
        message = f"{type(exc).__name__}: {exc}"
        print(_dump({"error": {"kind": "internal", "message": message}}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
