"""Command line front end.

Every subcommand reads JSON (a file argument, or stdin via "-") and returns
(payload, summary, exit code); `main` alone writes one deterministic JSON
object (or DOT text) to stdout, then the summary to stderr unless --quiet.
Exit codes: 0 success or true verdict, 1 false verdict (a witness is in the
output), 2 bad input, an unwritable output or an internal failure (a
machine-readable error object is in the output).  Every number on the
command line is read by one rule, `_decimal`.  Library functions are reached
through the lazy `dsets` namespace, so a command loads only the modules it calls.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

import dsets as D

from ._gates import InputError, _DECIMAL, _natural, _refused
from .core import DSet, InvariantViolation, NotRepresentable, check_axioms

OUTDIR_ENV = "DSETS_OUTDIR"


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with _refused(f"cannot read {path}", OSError), open(path, "r", encoding="utf-8") as fh:
        return fh.read()


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


def _decimal(text: str):
    """text as an int if spelt as a plain decimal, else as given, for the
    library's id gate or count check to refuse: how every number on the
    command line is read."""
    return int(text) if _DECIMAL.fullmatch(text) else text


def _parse_ids(text: str) -> list:
    return [_decimal(part.strip()) for part in text.split(",") if part.strip() != ""]


def _number(text: str):
    """A number option's value, stripped, as _decimal reads it; what int()
    refuses is a usage error, as with type=int."""
    try:
        int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    return _decimal(text.strip())


def _singleton_window(ids: Sequence[int]) -> D.SequenceWindow:
    return D.SequenceWindow([(v,) for v in ids])


def cmd_check(args) -> tuple:
    d = _load_dset(args)
    report = check_axioms(d)
    payload = report.as_dict()
    verdicts = [f"{name} {entry['status']}" for name, entry in payload.items() if isinstance(entry, dict)]
    return payload, "; ".join(verdicts), 0 if report.core_pass else 1


def cmd_from_tree(args) -> tuple:
    t = _load_tree(args)
    d = D.d_from_tree(t)
    return d.to_json(), f"{d.n} elements, {len(d.rows)} positive quads", 0


def cmd_to_tree(args) -> tuple:
    d = _load_dset(args)
    report = check_axioms(d)
    if not report.core_pass:
        payload = {"representable": False, "witness": report.as_dict()}
        return payload, "not representable: a core axiom fails", 1
    t = D.tree_from_dset(d)
    return t.to_json(), f"{len(t.nodes)} nodes, {len(t.internal_nodes())} internal", 0


def cmd_splittings(args) -> tuple:
    d = _load_dset(args)
    ss = D.enumerate_splittings(d, method=args.method)
    payload = {"count": len(ss), "splittings": [s.as_sorted_lists() for s in ss]}
    return payload, f"{len(ss)} splittings", 0


def cmd_extend(args) -> tuple:
    d = _load_dset(args)
    s = D.Splitting.from_json(_read_source(args.splitting))
    out = D.extend_by_point(d, s)
    return out.to_json(), f"element {d.n} attached; now {out.n} elements", 0


def cmd_classify(args) -> tuple:
    d = _load_dset(args)
    window = _singleton_window(_parse_ids(args.seq))
    verdict = D.classify_window(d, window)
    return verdict.as_dict(), verdict.label, 0 if verdict.label != "not_indiscernible" else 1


def cmd_hull(args) -> tuple:
    d = _load_dset(args)
    window = _singleton_window(_parse_ids(args.seq))
    result = D.hull_window(d, window)
    return result.as_dict(), f"hull of {len(result.hull)} elements", 0


def cmd_indisc(args) -> tuple:
    d = _load_dset(args)
    window = _singleton_window(_parse_ids(args.seq))
    over = _parse_ids(args.over)
    ok, witness = D.weakly_indiscernible_over(d, window, over)
    summary = "weakly indiscernible" if ok else "discernible; witness emitted"
    return {"weakly_indiscernible": ok, "witness": witness}, summary, 0 if ok else 1


def _parse_map(text: str) -> list[tuple]:
    """The pairs of a JSON map, as given; check_partial_iso reads them."""
    with _refused("invalid map JSON", json.JSONDecodeError, RecursionError):
        payload = json.loads(text)
    if isinstance(payload, dict) and "map" in payload:
        payload = payload["map"]
    with _refused("malformed map payload", ValueError):
        if isinstance(payload, dict):
            return [(_decimal(k), v) for k, v in payload.items()]
        return [(k, v) for k, v in payload]


def cmd_probe(args) -> tuple:
    d = _load_dset(args)
    pairs = _parse_map(_read_source(args.map))
    ok, witness = D.check_partial_iso(d, d, pairs)
    if not ok:
        payload = {"partial_iso": False, "witness": witness, "candidates": None}
        return payload, "map is not a partial isomorphism", 1
    candidates = D.extend_partial_iso(d, pairs, args.add)
    payload = {
        "partial_iso": True,
        "element": args.add,
        "candidates": candidates,
        "map": sorted(dict(pairs).items()),
    }
    summary = (
        f"{len(candidates)} candidate images for {args.add}"
        if candidates
        else f"stuck: no image for {args.add}"
    )
    return payload, summary, 0 if candidates else 1


def cmd_homreport(args) -> tuple:
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
    all_good = found is None and all(conditions[k]["verdict"] for k in ("regular", "dense", "color_hitting"))
    summary = "all homogeneity conditions hold" if all_good else "conditions violated"
    return payload, summary, 0 if all_good else 1


def _parse_spec(text: str) -> D.TreeSpec:
    """The spec's fields, each number as _decimal reads it; TreeSpec checks them."""
    fields: dict[str, object] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise InputError(f"spec entries look like key=value, got {part!r}")
        key, value = (side.strip() for side in part.split("=", 1))
        if key not in ("kind", "leaves", "degree", "seed"):
            raise InputError(f"unknown spec key {key!r}")
        fields[key] = value if key == "kind" else _decimal(value)
    if "kind" not in fields or "leaves" not in fields:
        raise InputError("spec needs at least kind=... and leaves=...")
    return D.TreeSpec(**fields)  # type: ignore[arg-type]


def _apply_coloring(d: DSet, scheme: Optional[str]) -> DSet:
    if scheme is None:
        return d
    if scheme == "uniform":
        return D.color_uniform(d)
    if scheme.startswith("round_robin:"):
        return D.color_round_robin(d, _decimal(scheme.split(":", 1)[1]))
    if scheme == "sector_avoiding":
        return D.color_sector_avoiding(d)
    raise InputError(
        f"unknown coloring {scheme!r}; try uniform, round_robin:N, sector_avoiding"
    )


def cmd_gen(args) -> tuple:
    if args.list:
        return {"fixtures": D.fixture_names()}, "fixture catalogue", 0
    if (args.fixture is None) == (args.spec is None):
        raise InputError("gen needs exactly one of --fixture or --spec")
    # The tree alone first, held to --max-n; its relation only for --as dset.
    if args.fixture is not None:
        tree, label = D.generators._fixture_tree(args.fixture)[0], args.fixture
        _check_max_n(args, tree.n_elements, "leaves")
    else:
        spec = _parse_spec(args.spec)
        _check_max_n(args, spec.leaves, "leaves")
        tree, label = D.gen_random(spec), spec.kind
    if args.as_what == "tree":
        if args.coloring is not None:
            raise InputError("colorings apply to the D-set output, not the tree")
        return tree.to_json(), f"{label}: tree with {tree.n_elements} leaves", 0
    d = _apply_coloring(D.d_from_tree(tree), args.coloring)
    return d.to_json(), f"{label}: {d.n} elements", 0


def cmd_export_dot(args) -> tuple:
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
    if not args.output:
        return text, "DOT on stdout", 0
    # An absolute path, or an unset or empty $DSETS_OUTDIR, is taken as it is.
    path = os.path.join(os.environ.get(OUTDIR_ENV) or "", args.output)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return {"written": path}, f"DOT written to {path}", 0


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
        type=_number,
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
    p.add_argument("--add", required=True, type=_number, help="element to cover")
    p = add("homreport", cmd_homreport, "homogeneity conditions and witnesses")
    p.add_argument("--min-sector-size", type=_number, default=2)
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


# The error kind of each expected exception type; any other is "internal".
_ERROR_KINDS = {
    InputError: "input",
    NotRepresentable: "not_representable",
    InvariantViolation: "invariant",
    OSError: "io",
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _natural(args.max_n, "'max_n' must be a non-negative integer, got {!r}")
        payload, summary, code = args.handler(args)
        text = payload if isinstance(payload, str) else _dump(payload)
        note = "" if args.quiet else summary + "\n"
    except Exception as exc:  # no input may end in a traceback
        kind = next((_ERROR_KINDS[t] for t in type(exc).__mro__ if t in _ERROR_KINDS), "internal")
        message = f"{type(exc).__name__}: {exc}" if kind == "internal" else str(exc)
        text, note, code = _dump({"error": {"kind": kind, "message": message}}), "", 2
    if sys.stdout is None:  # descriptor 1 was closed before start-up
        return 2
    try:
        sys.stdout.write(text.removesuffix("\n"))
        # The line end gets a write of its own: a write cut short by a reader
        # that goes away returns without an error, and only the next one fails.
        sys.stdout.write("\n")
        sys.stdout.flush()
        if note:  # --quiet leaves stderr untouched, even a closed one
            sys.stderr.write(note)
    except OSError:  # an unwritable output, such as a pipe whose reader is gone
        # Point the descriptor at devnull, so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
