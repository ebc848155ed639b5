"""The package's public names, and the names the benchmark's tracer patches.

A removal from ``aqgv.__all__`` has to edit the list below, so it is
deliberate.  The package loads a submodule only when one of its names, or
the submodule itself, is first asked for.  The traced benchmark run wraps module attributes and
Subspace methods by name; ``perfbench/tracing.py`` is loaded here and its
hooks installed and removed on the live package, so deleting a name it
patches fails here rather than in the benchmark.  The benchmark's reference
code, which checks every benchmark output, has its own tests; they run here
too, as the standalone script they are.  And ``codesearch`` does no GF(p)
arithmetic and reads no packed layout: those stay behind ``fields``.  The
value classes behave as frozen, compared-by-field values, whose slots only
the base's ``_set`` writes, and no module imports ``dataclasses``, whose
import takes ``inspect`` and ``ast`` into every cold command.
"""

import ast
import copy
import importlib.util
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import aqgv
from aqgv._value import Value
from aqgv.cli import CommandResult

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
    "write_code_file",
]

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_public_surface_is_pinned():
    assert sorted(aqgv.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(aqgv, name) is not None, name


def test_names_and_submodules_load_on_first_use():
    assert not hasattr(aqgv, "nope")
    with pytest.raises(AttributeError, match="'nope'"):
        aqgv.nope
    assert set(aqgv.__all__) <= set(dir(aqgv))
    namespace = {}
    exec("from aqgv import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(aqgv.__all__)
    # in a fresh interpreter, the package alone loads none of the four, and each resolves
    script = ("import importlib, sys; aq = importlib.import_module('aqgv'); "
              "names = ('asymptotic', 'bounds', 'codesearch', 'fields'); "
              "print([f'aqgv.{m}' in sys.modules for m in names], [getattr(aq, m).__name__ for m in names])")
    proc = subprocess.run([sys.executable, "-B", "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(TRACING.parent.parent / "src")), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("[False, False, False, False] "
                           "['aqgv.asymptotic', 'aqgv.bounds', 'aqgv.codesearch', 'aqgv.fields']\n")


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


def test_codesearch_leaves_field_arithmetic_and_packed_layout_to_fields():
    # no reduction mod p, no modular inverse by pow, no bit offsets read off
    # a Packing, and no symplectic product of its own
    tree = ast.parse(Path(aqgv.codesearch.__file__).read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod):
            found.append(("%", node.lineno))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "pow":
            found.append(("pow(", node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr == "width":
            found.append((".width", node.lineno))
        elif isinstance(node, ast.Name) and node.id in ("symplectic_twist", "mul"):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.alias) and node.name in ("symplectic_twist", "mul"):
            found.append((node.name, node.lineno))
    assert found == []


F2 = aqgv.GF(2)
PAIR = aqgv.NestedPair(aqgv.Subspace(F2, 2, [[1, 0], [0, 1]]), aqgv.Subspace(F2, 2, [[1, 1]]))
PAIR_REPR = ("NestedPair(c1=Subspace(field=GF(p=2), ambient_dim=2, basis=((1, 0), (0, 1))), "
             "c2=Subspace(field=GF(p=2), ambient_dim=2, basis=((1, 1),)))")
VALUES = [   # class, its fields in order, repr, hashable
    (aqgv.GF, dict(p=3), "GF(p=3)", True),
    (aqgv.Subspace, dict(field=F2, ambient_dim=3, basis=((1, 0, 1),)),
     "Subspace(field=GF(p=2), ambient_dim=3, basis=((1, 0, 1),))", True),
    (aqgv.CssBoundQuery, dict(q=2, n=12, k1=7, k2=5, dx=2, dz=2),
     "CssBoundQuery(q=2, n=12, k1=7, k2=5, dx=2, dz=2)", True),
    (aqgv.StabBoundQuery, dict(q=2, n=10, k=3, dx=2, dz=2), "StabBoundQuery(q=2, n=10, k=3, dx=2, dz=2)", True),
    (aqgv.BoundReport, dict(lhs=Fraction(1, 2), terms=(Fraction(1, 4), Fraction(1, 4))),
     "BoundReport(lhs=Fraction(1, 2), terms=(Fraction(1, 4), Fraction(1, 4)))", True),
    (aqgv.FrontierPoint, dict(delta_x=0.1, delta_z_max=0.25, r=0.5),
     "FrontierPoint(delta_x=0.1, delta_z_max=0.25, r=0.5)", True),
    (aqgv.NestedPair, dict(c1=PAIR.c1, c2=PAIR.c2), PAIR_REPR, True),
    (aqgv.IsotropicCode, dict(c=aqgv.Subspace(F2, 2, [[1, 0]])),
     "IsotropicCode(c=Subspace(field=GF(p=2), ambient_dim=2, basis=((1, 0),)))", True),
    (aqgv.DistancePair, dict(dx=2, dz=None), "DistancePair(dx=2, dz=None)", True),
    (aqgv.EnumerationReport, dict(q=2, n=1, k1=1, k2=0, total_pairs=1, per_error_x={(1,): 1},
                                  per_error_z={(1,): 0}),
     "EnumerationReport(q=2, n=1, k1=1, k2=0, total_pairs=1, per_error_x={(1,): 1}, per_error_z={(1,): 0})",
     False),
    (aqgv.SearchHit, dict(code=PAIR, distances=aqgv.DistancePair(2, 1), trial_index=4),
     f"SearchHit(code={PAIR_REPR}, distances=DistancePair(dx=2, dz=1), trial_index=4)", True),
    (CommandResult, dict(status="ok", payload={"lhs": "1/2"}, exit_code=0),
     "CommandResult(status='ok', payload={'lhs': '1/2'}, exit_code=0)", False),
]


@pytest.mark.parametrize("cls, fields, shown, hashable", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_classes_construct_compare_show_copy_and_freeze(cls, fields, shown, hashable):
    args = list(fields.values())
    value = cls(**fields)
    assert cls(*args) == value and not cls(*args) != value
    assert repr(value) == shown
    with pytest.raises(TypeError):
        cls(*args[:-1])
    with pytest.raises(TypeError):
        cls(*args, nope=1)
    with pytest.raises(TypeError):
        cls(*args, **{next(iter(fields)): args[0]})
    # equal only to a value of its own class: not to its fields, nor to a subclass's value
    twin = type("Twin", (cls,), {"__slots__": ()})
    assert value != tuple(args) and value != twin(*args) and twin(*args) != value
    if hashable:
        assert hash(value) == hash(cls(*args))
    else:
        with pytest.raises(TypeError):
            hash(value)
    for copied in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is cls and copied == value and repr(copied) == shown
    name = next(reversed(fields))
    with pytest.raises(AttributeError):
        setattr(value, name, args[-1])
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert value == cls(*args)


def test_no_module_imports_dataclasses():
    found = []
    for path in sorted(Path(aqgv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [(path.name, alias.name) for alias in node.names if alias.name.split(".")[0] == "dataclasses"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses":
                found.append((path.name, node.module))
    assert found == []


def test_only_the_value_base_writes_a_frozen_slot():
    # each constructor sets its slots by Value._set, and != is Python's inverse of Value.__eq__
    found = []
    for path in sorted(Path(aqgv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"):
                found.append((path.name, node.lineno))
    assert [name for name, _ in found] == ["_value.py"], found
    assert "__ne__" not in Value.__dict__
