"""The lazy package namespace: what `import dsets` and each command load.

Module sets are read in fresh interpreters, so that the imports of this test
session do not count.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import dsets as D

SRC = os.path.dirname(os.path.dirname(D.__file__))

# `__all__` before the namespace became lazy, spelled out so that a name
# dropped from the export table fails here.
ALL = [
    "AxiomReport", "AxiomVerdict", "ColumnHull", "DSet", "Fixture", "HullResult",
    "InputError", "InvariantViolation", "LeafTree", "NotRepresentable", "QftpBase",
    "SequenceWindow", "Splitting", "TreeCorrespondence", "TreeSpec", "WindowClass",
    "are_isomorphic", "are_isomorphic_trees", "branch", "canonical_form", "check_axioms",
    "check_partial_iso", "classify_window", "color_round_robin", "color_sector_avoiding",
    "color_uniform", "complementary", "d_from_tree", "density_witnesses", "detect_petaled",
    "enum_trees", "enumerate_splittings", "export_dot", "extend_by_point",
    "extend_partial_iso", "extend_splitting", "fixture_names", "frontiers", "gen_fixture",
    "gen_random", "homogeneity_conditions", "hull_window", "induced_splitting",
    "is_regular", "is_splitting", "is_true_edge_splitting", "mutually_indiscernible",
    "nonextendable_witness", "normalize_quad", "one_sector", "qftp_base", "relabel",
    "relation_table", "same_qftp", "splittings_from_tree", "substructure",
    "tree_from_dset", "weakly_indiscernible_over",
]

BASE = {"dsets", "dsets._gates", "dsets.cli", "dsets.core"}

# The import order of the library: each module imports only modules before it.
ORDER = ("_gates", "core", "trees", "splittings", "homtypes", "indiscernibles", "generators", "cli")
# The dsets modules that importing each one alone loads, besides the package.
LOADS = {
    "_gates": {"_gates"},
    "core": {"_gates", "core"},
    "trees": {"_gates", "core", "trees"},
    "splittings": {"_gates", "core", "trees", "splittings"},
    "homtypes": {"_gates", "core", "trees", "splittings", "homtypes"},
    "indiscernibles": {"_gates", "core", "trees", "splittings", "indiscernibles"},
    "generators": {"_gates", "core", "trees", "splittings", "generators"},
    "cli": {"_gates", "core", "cli"},
}


def _python(*args: str, stdin: str = "") -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], input=stdin, capture_output=True, text=True, env=env)


def _loaded_after(code: str) -> set[str]:
    """The dsets modules, and numpy if loaded, after running `code` in a fresh interpreter."""
    proc = _python("-c", code + "\nimport json, sys; print(json.dumps("
                   "[m for m in sys.modules if m.split('.')[0] == 'dsets' or m == 'numpy']))")
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_dsets_loads_no_submodule_and_not_numpy():
    assert _loaded_after("import dsets") == {"dsets"}


@pytest.mark.parametrize("module", ORDER)
def test_each_module_loads_only_modules_before_it(module):
    assert LOADS[module] <= set(ORDER[: ORDER.index(module) + 1])
    loaded = _loaded_after(f"import dsets.{module}") - {"numpy"}
    assert loaded == {"dsets"} | {f"dsets.{m}" for m in LOADS[module]}


def test_check_process_loads_only_core(catalogue):
    # `python -m dsets check` run as the interpreter runs it, then sys.modules
    # read: -X importtime would not list a module the lazy namespace loads.
    text = catalogue["CAT5"].dset.to_json()
    loaded = _loaded_after("\n".join((
        "import io, json, runpy, sys",
        f"sys.argv, sys.stdin, sys.stdout = ['dsets', 'check', '--quiet'], io.StringIO({text!r}), io.StringIO()",
        "try:",
        "    runpy.run_module('dsets', run_name='__main__')",
        "except SystemExit as stop:",
        "    assert stop.code == 0, stop.code",
        "out, sys.stdout = sys.stdout.getvalue(), sys.__stdout__",
        "assert json.loads(out)['core_pass'] is True",
    )))
    assert loaded - {"numpy"} == BASE


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, catalogue):
    """Files for every command, on 12 elements: above 6, splittings take the tree route."""
    where = tmp_path_factory.mktemp("inputs")
    files = {
        "flw": catalogue["FLW12"].dset.to_json(),
        "tree": catalogue["FLW12"].tree.to_json(),
        "cut": json.dumps({"sectors": [[0], list(range(1, 12))]}),
        "map": json.dumps({"0": 0, "1": 1, "2": 2}),
    }
    for name, text in files.items():
        (where / f"{name}.json").write_text(text)
    return {name: str(where / f"{name}.json") for name in files}


# argv, and the library modules beyond core and _gates that the command loads on these
# inputs: its own module and the modules that one imports.
COMMANDS = {
    "check": (["check", "{flw}"], set()),
    "from-tree": (["from-tree", "{tree}"], {"trees"}),
    "to-tree": (["to-tree", "{flw}"], {"trees"}),
    "export-dot": (["export-dot", "{tree}"], {"trees"}),
    "splittings": (["splittings", "{flw}"], LOADS["splittings"] - LOADS["core"]),
    "extend": (["extend", "{flw}", "--splitting", "{cut}"], LOADS["splittings"] - LOADS["core"]),
    "probe": (["probe", "{flw}", "--map", "{map}", "--add", "3"], LOADS["homtypes"] - LOADS["core"]),
    "homreport": (["homreport", "{flw}"], LOADS["homtypes"] - LOADS["core"]),
    "classify": (["classify", "{flw}", "--seq", "0,1,2,3,4"], LOADS["indiscernibles"] - LOADS["core"]),
    "hull": (["hull", "{flw}", "--seq", "0,1,2,3,4"], LOADS["indiscernibles"] - LOADS["core"]),
    "indisc": (["indisc", "{flw}", "--seq", "0,1,2,3,4", "--over", "5"], LOADS["indiscernibles"] - LOADS["core"]),
    "gen": (["gen", "--fixture", "CAT5"], LOADS["generators"] - LOADS["core"]),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_loads_only_its_modules(inputs, command):
    argv, extra = COMMANDS[command]
    argv = [arg.format(**inputs) for arg in argv + ["--quiet"]]
    loaded = _loaded_after(f"from dsets.cli import main\nassert main({argv!r}) in (0, 1)") - {"numpy"}
    assert loaded == BASE | {f"dsets.{m}" for m in extra}


def test_every_name_is_its_home_modules_object():
    assert D.__all__ == ALL
    homes = {name: home for home, names in D._EXPORTS.items() for name in names}
    assert sorted(homes) == ALL
    for name, home in homes.items():
        assert getattr(D, name) is getattr(importlib.import_module("dsets." + home), name), name
    for home in D._EXPORTS:
        assert getattr(D, home) is importlib.import_module("dsets." + home)
    namespace: dict = {}
    exec("from dsets import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ALL)


def test_dir_covers_all_and_unknown_names_raise():
    assert set(ALL) <= set(dir(D))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        D.no_such_name  # noqa: B018
    assert not hasattr(D, "_no_such_private")


def _calls(tree: ast.AST):
    """(enclosing top-level function or class, or None; call node) for every call in a module."""
    for top in tree.body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                yield name, node


def _sources() -> dict[str, ast.Module]:
    """The parsed source of every module of the package, by module name."""
    trees = {}
    for name in sorted(os.listdir(os.path.join(SRC, "dsets"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "dsets", name), encoding="utf-8") as fh:
                trees[name[:-3]] = ast.parse(fh.read())
    return trees


def test_no_function_imports_a_module():
    # Every import is at module top, so the order above is the whole story.
    inner = [
        (module, func.name, node.lineno)
        for module, tree in _sources().items()
        for func in ast.walk(tree) if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert inner == []


def test_gates_import_nothing_from_the_package():
    # _gates holds every input check that needs no package class, so any module may use it.
    imports = [node for node in ast.walk(_sources()["_gates"]) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    for node in imports:
        names = [node.module or ""] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
        assert getattr(node, "level", 0) == 0, ast.dump(node)
        assert all(name.split(".")[0] != "dsets" for name in names), ast.dump(node)


def test_input_error_is_one_class():
    from dsets import _gates, core

    assert D.InputError is core.InputError is _gates.InputError


def test_only_core_reads_the_relation_table():
    # Every atom D(wx;yz) is read through core._atoms, so that a structure
    # can answer atoms another way by changing that one function.
    trees = _sources()
    named = {
        module for module, tree in trees.items() for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "relation_table")
        or (isinstance(node, ast.Attribute) and node.attr == "relation_table")
        or (isinstance(node, ast.alias) and "relation_table" in (node.name, node.asname))
    }
    assert named == {"core"}
    callers = {top for top, call in _calls(trees["core"]) if getattr(call.func, "id", None) == "relation_table"}
    assert callers == {"_atoms", "check_axioms"}
    holds = [module for module, tree in trees.items() for _, call in _calls(tree) if getattr(call.func, "attr", None) == "holds"]
    assert holds == []
