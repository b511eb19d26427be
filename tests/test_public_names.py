"""Every public function and class in ``src/btkit`` has a caller outside
the tests: its own module, another btkit module, or the benchmark harness
in ``perfbench/``.  A name only the tests use is a test oracle, and it
belongs under ``tests/``.  The names the package itself exports resolve,
on first use, to the objects of their home modules."""

import ast
import glob
import importlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def _names_used(tree):
    """Every name the code refers to: plain names, attributes, imported
    names, and strings (the harness looks some names up by string)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = {path: _parse(path) for path in sorted(
        glob.glob(os.path.join(ROOT, "src", "btkit", "*.py")))
        if os.path.basename(path) != "__init__.py"}
    callers = set()
    for path in glob.glob(os.path.join(ROOT, "perfbench", "*.py")):
        callers |= _names_used(_parse(path))
    for tree in modules.values():
        callers |= _names_used(tree)
    # a definition is not a use: FunctionDef and ClassDef carry their name
    # as a plain string, not as a Name node
    unused = ["%s.%s" % (os.path.basename(path)[:-3], node.name)
              for path, tree in modules.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and node.name not in callers]
    assert unused == []


# the names `btkit` exports, by home module
EXPORTS = {
    "algebra": ["AlgebraElement", "BasisIndex", "E", "E_arc", "E_of_partition",
                "F", "L", "T", "gamma", "gamma_inverse", "inverse_T", "one",
                "steinberg", "verify_relations"],
    "domains": ["SYMBOLIC", "PrimeDomain", "RationalDomain"],
    "partitions": ["SetPartition", "arc_partition", "bell_number",
                   "enumerate_partitions", "generator_partition"],
    "permutations": ["Permutation", "enumerate_permutations"],
    "quotient": ["IdealBasis", "build_ideal", "catalan_number",
                 "enumerate_F_reduced", "spanning_check",
                 "verify_ideal_closure", "verify_presentations"],
    "scalars": ["Scalar", "parse_scalar"],
    "tensor": ["classical_jimbo_check", "represent", "representation_rank",
               "verify_relations_in_rep"],
    "trace": ["TraceFunctional", "factorization_condition", "solve_trace"],
}


def test_package_exports_resolve_lazily_to_their_home_modules():
    import btkit

    names = [name for group in EXPORTS.values() for name in group]
    assert len(names) == 40
    assert sorted(btkit.__all__) == sorted(names)
    assert set(names) <= set(dir(btkit))
    for module, group in EXPORTS.items():
        home = importlib.import_module("btkit." + module)
        for name in group:
            scope = {}
            exec("from btkit import %s" % name, scope)
            assert scope[name] is getattr(home, name), name
    with pytest.raises(AttributeError):
        btkit.no_such_name
    with pytest.raises(ImportError):
        exec("from btkit import no_such_name", {})
    # in a fresh interpreter, importing the package and listing it load no
    # submodule
    code = ("import sys, btkit\ndir(btkit)\n"
            "print(' '.join(m for m in sys.modules if m.startswith('btkit.')))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, cwd=os.path.join(ROOT, "src"))
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []
