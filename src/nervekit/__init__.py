"""Exact computation with truncated simplicial sets, simplicial categories,
their nerves, and the comparison maps between them.

``import nervekit`` loads the modules holding a function that a traced
benchmark run wraps (``bench/trace_child.py`` ``TRACED``), and these
hold what every verb runs plus those functions, whose bodies load on
first call. Every other public name loads its module on first use
(``_LAZY``): the readers, validators, gadgets, classification, Segal
and uniqueness checks, and the constructions only some verbs build.
"""

from ._lazy import lazy
from .bisset import diagonal
from .cat import (
    FiniteCategory,
    RelativeSimplicialCategory,
    SimplicialCategory,
    comparison_functor,
    compose_functors,
    cyclic_group_category,
    grid_collapse,
    nerve_cat,
)
from .generators import build_example, example_names
from .homology import homology, induced_chain_iso, smith_normal_form
from .nerves import classifying_space, coherent_nerve, comparison_map, consistency_check, levelwise_nerve
from .reporting import CheckReport, ValidationReport, Violation
from .serialize import SchemaError, canonical_json, digest, save
from .sset import (
    SimplicialMap,
    SimplicialSet,
    TruncationError,
    act_table,
    enumerate_maps,
    validate_map,
)
from .verify import horn_check

__version__ = "0.1.0"

# Public names no verb but the ones using them needs, by the module
# defining them; each loads on first use (PEP 562), so a process that
# never asks for them does not compile them.
_LAZY = {
    name: module
    for module, names in {
        "axioms": "validate_bisset validate_functor validate_relative "
        "validate_simplicial_category validate_sset",
        "bisimplicial": "BisimplicialSet",
        "classification": "classification_comparison classification_diagram theta_cell_value",
        "comparison": "comparison_cell",
        "components": "from_level_labels pi0",
        "discrete": "discrete_simplicial_category level_category poset_category",
        "functors": "SimplicialFunctor functors_equal",
        "groups": "HomologyReport",
        "gadgets": "coherent_path_category enumerate_simplicial_functors path_functor "
        "poset_nerve simplex_power_category simplex_power_transform",
        "horns": "horn standard_simplex",
        "maps": "compose_maps",
        "marked": "MarkedBisimplicialSet MarkedSimplicialSet diagonal_marked levelwise_nerve_marked",
        "posets": "FinitePoset path_poset",
        "schema": "load",
        "segal": "fiber_check segal_column_check",
        "spaces": "ProductSset act materialize product subcomplex vertices",
        "uniqueness": "uniqueness_report uniqueness_search",
    }.items()
    for name in names.split()
}
__getattr__ = lazy(__name__, _LAZY)
