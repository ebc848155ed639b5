"""Exact GV-type existence bounds for asymmetric quantum codes, with
enumeration-based verification of the underlying counting identities and a
randomized witness search.

``_PUBLIC`` maps each submodule to the public names it defines, and each
name is declared there once; ``__all__`` is read off it.  Nothing is
imported up front: a submodule is loaded the first time one of its names,
or the submodule itself, is asked for (PEP 562).  So a command that only
evaluates a bound loads ``bounds`` and never compiles the code search, and
``distances``, which evaluates no bound, never compiles ``bounds``.
"""

__version__ = "0.1.0"

_PUBLIC = {
    "asymptotic": ("FrontierPoint", "css_asymptotic_feasible", "css_rate1_interval", "entropy_hq",
                   "hq_inverse", "stab_asymptotic_feasible", "stab_frontier"),
    "bounds": ("BoundReport", "CssBoundQuery", "StabBoundQuery", "ball_sum", "best_css_params",
               "css_gv_lhs", "gaussian_binomial", "max_k_stab", "stab_gv_lhs"),
    "codesearch": ("DistancePair", "EnumerationReport", "IsotropicCode", "NestedPair", "SearchHit",
                   "css_distances", "enumerate_nested_pairs", "gv_witness_search", "iter_subspaces",
                   "load_code_file", "random_isotropic_code", "random_nested_pair",
                   "stab_detects_profile", "write_code_file"),
    "errors": (),
    "fields": ("GF", "Subspace"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name, name)   # the submodule that defines name, or name itself
    if module not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")   # binds it here and, unlike importlib, shows in -X importtime
    loaded = globals()[module]
    return loaded if module == name else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
