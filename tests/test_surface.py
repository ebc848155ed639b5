"""The package's public names, and the names the benchmark's tracer patches.

A removal from ``aqgv.__all__`` has to edit the list below, so it is
deliberate.  The traced benchmark run wraps module attributes and
Subspace methods by name; ``perfbench/tracing.py`` is loaded here and its
hooks installed and removed on the live package, so deleting a name it
patches fails here rather than in the benchmark.  The benchmark's reference
code, which checks every benchmark output, has its own tests; they run here
too, as the standalone script they are.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import aqgv

PUBLIC_NAMES = [
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

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_public_surface_is_pinned():
    assert sorted(aqgv.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(aqgv, name) is not None, name


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def attributes(owners):
    return {(owner, attr): value for owner in owners for attr, value in vars(owner).items()}


@pytest.mark.parametrize("workload", ["witness", "lemma", "tables"])
def test_trace_hooks_attach_and_detach(workload):
    tracing = load_tracing()
    owners = (aqgv.codesearch, aqgv.bounds, aqgv.asymptotic, aqgv.fields.Subspace)
    before = attributes(owners)
    remove = tracing.instrument(SimpleNamespace(name=workload, aq=aqgv), tracing.Tracer())
    try:
        patched = {key for key, value in attributes(owners).items() if before.get(key) is not value}
    finally:
        remove()
    assert (aqgv.codesearch, "stab_detects_profile") in patched
    assert patched <= before.keys(), "the tracer added an attribute"
    after = attributes(owners)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before), "an attribute was not restored"


def test_benchmark_reference_self_tests_pass():
    script = TRACING.parent / "test_reference.py"
    proc = subprocess.run([sys.executable, "-B", str(script)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
