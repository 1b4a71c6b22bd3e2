"""Exact computation with truncated simplicial sets, simplicial categories,
their nerves, and the comparison maps between them."""

from .bisset import (
    BisimplicialSet,
    MarkedBisimplicialSet,
    bisset_from_columns,
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
from .generators import ExampleSpec, build_example, example_names
from .homology import HomologyReport, homology, induced_chain_iso, smith_normal_form
from .nerves import (
    classification_comparison,
    classification_diagram,
    classifying_space,
    coherent_nerve,
    comparison_cell,
    comparison_map,
    consistency_check,
    levelwise_nerve,
    levelwise_nerve_marked,
    theta_cell_value,
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
from .verify import (
    fiber_check,
    horn_check,
    pi0,
    segal_column_check,
    uniqueness_report,
    uniqueness_search,
)

__version__ = "0.1.0"
