"""Cayley graphs over S_n with star-plus-adjacent generator sets, internally
disjoint path structures on vertex triples, and the packing bound they certify.

The public names below are imported from their home modules on first
access (PEP 562), so ``import tripaths`` loads no submodule and a
``verify`` run loads only the modules it checks with.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it binds
_HOMES = {
    "certify": (
        "CaseTrace",
        "Certificate",
        "emit",
        "load",
        "load_text",
        "make_certificate",
        "save",
        "verify_certificate",
    ),
    "construct": ("build_structure",),
    "errors": (
        "CertificateError",
        "ConstructionFailed",
        "DegreeMismatch",
        "DegreeOutOfRange",
        "DegreeTooSmall",
        "DuplicateVertices",
        "InsufficientConnectivity",
        "InvalidPermutation",
        "InvalidStructure",
        "OracleScaleExceeded",
        "RankOutOfRange",
        "SameCopy",
        "SchemaError",
        "TripathsError",
        "VersionMismatch",
        "WrongFamily",
    ),
    "flows": (
        "CutResult",
        "StepCounter",
        "disjoint_set_paths",
        "k_fan",
        "local_connectivity",
        "max_internally_disjoint_paths",
        "min_vertex_cut",
        "shortest_path",
        "vertex_connectivity",
    ),
    "graphs": (
        "AdjacencyView",
        "CayleyGraph",
        "Path",
        "View",
        "build",
        "common_neighbors",
        "copy_of",
        "copy_union",
        "cross_edges",
        "delete_copies",
        "full_view",
        "outside_neighbors",
        "spanning_intra_view",
        "to_dot",
        "to_edgelist",
    ),
    "lemmas": ("LemmaRow", "run_lemma_suite"),
    "pairing": (
        "LowerBoundReport",
        "optimal_split",
        "pair_structure",
        "pi3_lower",
        "sample_triples",
    ),
    "perms": (
        "Family",
        "Permutation",
        "Transposition",
        "apply_generator",
        "compose",
        "generator_set",
        "identity",
        "inverse",
        "parse_family",
        "parse_permutation",
        "permutation_text",
        "rank",
        "unrank",
    ),
    "tripod": ("TripodFailure", "solve_tripod"),
    "verification": (
        "OmegaPathSet",
        "StructureTarget",
        "TripodStructure",
        "UpperBoundReport",
        "check_disjoint_set_paths",
        "check_fan",
        "check_internally_disjoint",
        "check_omega_path_set",
        "check_tripod",
        "formula_value",
        "max_triple_common_neighbors",
        "pairing_capacity",
        "pi3_upper",
        "standard_target",
    ),
}

_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _HOME_OF.keys())
