"""Exact computation with truncated simplicial sets, simplicial categories,
their nerves, and the comparison maps between them."""

from .bisset import (
    BisimplicialSet,
    MarkedBisimplicialSet,
    diagonal,
    diagonal_marked,
    validate_bisset,
)
from .cat import (
    FiniteCategory,
    RelativeSimplicialCategory,
    SimplicialCategory,
    SimplicialFunctor,
    coherent_path_category,
    comparison_functor,
    compose_functors,
    cyclic_group_category,
    discrete_simplicial_category,
    enumerate_simplicial_functors,
    functors_equal,
    grid_collapse,
    level_category,
    nerve_cat,
    path_functor,
    path_poset,
    poset_category,
    simplex_power_category,
    simplex_power_transform,
    validate_category,
    validate_functor,
    validate_relative,
    validate_simplicial_category,
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
from .serialize import SchemaError, canonical_json, digest, load, save
from .sset import (
    FinitePoset,
    MarkedSimplicialSet,
    ProductSset,
    SimplicialMap,
    SimplicialSet,
    TruncationError,
    act,
    act_table,
    boundary_simplex,
    compose_maps,
    enumerate_maps,
    horn,
    identity_map,
    materialize,
    poset_nerve,
    product,
    standard_simplex,
    subcomplex,
    validate_map,
    validate_sset,
    vertices,
    yoneda_map,
)
from .verify import horn_check, pi0

__version__ = "0.1.0"

# Public names of the modules no verb but the one using them needs;
# each loads on first use (PEP 562), so a process that never asks for
# them does not compile them.
_LAZY = {
    "classification_comparison": "classification",
    "classification_diagram": "classification",
    "theta_cell_value": "classification",
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
