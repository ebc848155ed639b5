"""Exact GV-type existence bounds for asymmetric quantum codes, with
enumeration-based verification of the underlying counting identities and a
randomized witness search."""

from .asymptotic import (
    FrontierPoint,
    css_asymptotic_feasible,
    css_rate1_interval,
    entropy_hq,
    hq_inverse,
    stab_asymptotic_feasible,
    stab_frontier,
)
from .bounds import (
    BoundReport,
    CssBoundQuery,
    StabBoundQuery,
    ball_sum,
    best_css_params,
    css_gv_lhs,
    gaussian_binomial,
    max_k_stab,
    stab_gv_lhs,
)
from .codesearch import (
    DistancePair,
    EnumerationReport,
    IsotropicCode,
    NestedPair,
    SearchHit,
    css_distances,
    enumerate_nested_pairs,
    gv_witness_search,
    iter_subspaces,
    load_code_file,
    random_isotropic_code,
    random_nested_pair,
    stab_detects_profile,
    write_code_file,
)
from .fields import GF, Subspace, weight

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CssBoundQuery",
    "DistancePair",
    "EnumerationReport",
    "FrontierPoint",
    "GF",
    "IsotropicCode",
    "NestedPair",
    "SearchHit",
    "StabBoundQuery",
    "Subspace",
    "ball_sum",
    "best_css_params",
    "css_asymptotic_feasible",
    "css_distances",
    "css_gv_lhs",
    "css_rate1_interval",
    "entropy_hq",
    "enumerate_nested_pairs",
    "gaussian_binomial",
    "gv_witness_search",
    "hq_inverse",
    "iter_subspaces",
    "load_code_file",
    "max_k_stab",
    "random_isotropic_code",
    "random_nested_pair",
    "stab_asymptotic_feasible",
    "stab_detects_profile",
    "stab_frontier",
    "stab_gv_lhs",
    "weight",
    "write_code_file",
]
