"""Exact computation with truncated simplicial sets, simplicial categories,
their nerves, and the comparison maps between them.

The names of the modules that only some verbs run load on first use
(see ``_LAZY``): the document readers (`nervekit.schema`), the
whole-object validators (`nervekit.axioms`), the cosimplicial gadgets
and the functor search (`nervekit.gadgets`), the classification
diagram and theta, the Segal and fiber checks, and the uniqueness
search.
"""

from .bisset import (
    BisimplicialSet,
    MarkedBisimplicialSet,
    diagonal,
    diagonal_marked,
)
from .cat import (
    FiniteCategory,
    RelativeSimplicialCategory,
    SimplicialCategory,
    SimplicialFunctor,
    comparison_functor,
    compose_functors,
    cyclic_group_category,
    discrete_simplicial_category,
    functors_equal,
    grid_collapse,
    level_category,
    nerve_cat,
    path_poset,
    poset_category,
)
from .generators import build_example, example_names
from .homology import HomologyReport, homology, induced_chain_iso, smith_normal_form
from .nerves import (
    classifying_space,
    coherent_nerve,
    comparison_cell,
    comparison_map,
    consistency_check,
    levelwise_nerve,
    levelwise_nerve_marked,
)
from .reporting import CheckReport, ValidationReport, Violation
from .serialize import SchemaError, canonical_json, digest, save
from .sset import (
    FinitePoset,
    MarkedSimplicialSet,
    ProductSset,
    SimplicialMap,
    SimplicialSet,
    TruncationError,
    act,
    act_table,
    compose_maps,
    enumerate_maps,
    horn,
    materialize,
    poset_nerve,
    product,
    standard_simplex,
    subcomplex,
    validate_map,
    vertices,
)
from .verify import horn_check, pi0

__version__ = "0.1.0"

# Public names of the modules no verb but the one using them needs;
# each loads on first use (PEP 562), so a process that never asks for
# them does not compile them.
_LAZY = {
    "validate_bisset": "axioms",
    "validate_category": "axioms",
    "validate_functor": "axioms",
    "validate_relative": "axioms",
    "validate_simplicial_category": "axioms",
    "validate_sset": "axioms",
    "classification_comparison": "classification",
    "classification_diagram": "classification",
    "theta_cell_value": "classification",
    "coherent_path_category": "gadgets",
    "enumerate_simplicial_functors": "gadgets",
    "path_functor": "gadgets",
    "simplex_power_category": "gadgets",
    "simplex_power_transform": "gadgets",
    "load": "schema",
    "fiber_check": "segal",
    "segal_column_check": "segal",
    "uniqueness_report": "uniqueness",
    "uniqueness_search": "uniqueness",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
