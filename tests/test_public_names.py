"""Every public function and class in ``src/btkit`` has a caller outside
the tests: its own module, another btkit module, or the benchmark harness
in ``perfbench/``.  A name only the tests use is a test oracle, and it
belongs under ``tests/``.  Importing the package loads none of its
modules."""

import ast
import glob
import os
import subprocess
import sys

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


def test_importing_the_package_loads_no_submodule():
    # in a fresh interpreter, importing the package and listing it load no
    # submodule
    code = ("import sys, btkit\ndir(btkit)\n"
            "print(' '.join(m for m in sys.modules if m.startswith('btkit.')))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, cwd=os.path.join(ROOT, "src"))
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []
