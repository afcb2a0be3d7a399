"""Finite D-sets: axioms, trees, splittings, types, and indiscernibles.

Names resolve on first use: `import dsets` loads none of the modules below
(nor numpy), and `dsets.X` or `from dsets import X` imports X's home module
then.  Each name is the object its home module defines.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "AxiomReport", "AxiomVerdict", "DSet", "InputError", "InvariantViolation",
        "NotRepresentable", "are_isomorphic", "check_axioms", "normalize_quad",
        "relabel", "relation_table", "substructure",
    ),
    "generators": (
        "Fixture", "TreeSpec", "color_round_robin", "color_sector_avoiding",
        "color_uniform", "enum_trees", "fixture_names", "gen_fixture", "gen_random",
    ),
    "homtypes": (
        "QftpBase", "check_partial_iso", "extend_partial_iso", "homogeneity_conditions",
        "nonextendable_witness", "qftp_base", "same_qftp",
    ),
    "indiscernibles": (
        "ColumnHull", "HullResult", "SequenceWindow", "WindowClass", "classify_window",
        "detect_petaled", "frontiers", "hull_window", "mutually_indiscernible",
        "weakly_indiscernible_over",
    ),
    "splittings": (
        "Splitting", "branch", "complementary", "density_witnesses",
        "enumerate_splittings", "extend_by_point", "extend_splitting",
        "induced_splitting", "is_regular", "is_splitting", "is_true_edge_splitting",
        "one_sector",
    ),
    "trees": (
        "LeafTree", "TreeCorrespondence", "are_isomorphic_trees", "canonical_form",
        "d_from_tree", "export_dot", "splittings_from_tree", "tree_from_dset",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_EXPORTS))
