"""A cold start pays only for what its verb uses.

classify answers from the coupling pattern alone and calls no matrix
function, so a fresh interpreter that imports chronograph and classifies a
problem imports no scipy module.  scipy is imported where it is called:
every import of scipy in src/chronograph sits inside a function body of
matfun or oracle, never at the top of a module or in a class body, where it
would run when chronograph is imported.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import chronograph
from chronograph import scenarios

SRC = pathlib.Path(chronograph.__file__).parent
IMPORT_TIME = "<import time>"

CHILD = """
import contextlib, io, json, sys
import chronograph
from chronograph import cli
with contextlib.redirect_stdout(io.StringIO()):
    if sys.argv[1] == "classify":
        code = cli.main(["classify", sys.argv[2]])
    else:
        code = chronograph.run_solve(sys.argv[2], sys.argv[3])
print(json.dumps([code, sorted(name for name in sys.modules
                               if name.partition(".")[0] == "scipy")]))
"""


def _is_scipy(name):
    return name == "scipy" or name.startswith("scipy.")


def scipy_imports(tree):
    """(where, module) of each import of scipy in the tree, in source
    order: an import or from-import statement, or an import_module or
    __import__ call on a string.  where is the dotted path of the enclosing
    function, or IMPORT_TIME for a statement that runs when the module is
    imported (at the top level or in a class body)."""
    def visit(node, scope, in_function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            scope = scope + (getattr(node, "name", "<lambda>"),)
            in_function = True
        elif isinstance(node, ast.ClassDef):
            scope = scope + (node.name,)
        where = ".".join(scope) if in_function else IMPORT_TIME
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_scipy(alias.name):
                    yield where, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and _is_scipy(node.module or ""):
            yield where, node.module
        elif isinstance(node, ast.Call) and node.args \
                and isinstance(node.args[0], ast.Constant) \
                and isinstance(node.args[0].value, str) \
                and _is_scipy(node.args[0].value):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(
                fn, "attr", None)
            if name in ("import_module", "__import__"):
                yield where, node.args[0].value
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope, in_function)

    return list(visit(tree, (), False))


def imports_by_module():
    return {path.stem: found for path in sorted(SRC.glob("*.py"))
            if (found := set(scipy_imports(ast.parse(
                path.read_text(encoding="utf-8")))))}


def test_scipy_is_imported_only_inside_functions_of_matfun_and_oracle():
    assert imports_by_module() == {
        "matfun": {("expm", "scipy.linalg"),
                   ("solve_linear", "scipy.linalg"),
                   ("block_matrix", "scipy.sparse"),
                   ("factorize", "scipy.linalg"),
                   ("factorize", "scipy.sparse.linalg"),
                   ("lanczos_sigma_max", "scipy.sparse.linalg")},
        "oracle": {("cn_solve", "scipy.linalg")}}


def test_the_lint_sees_every_way_of_importing_scipy():
    tree = ast.parse(
        "import numpy, scipy.linalg as la\n"
        "from scipy import sparse\n"
        "if True:\n"
        "    import scipy\n"
        "from .scipy import x\n"
        "import scipyx\n"
        "class C:\n"
        "    from scipy.linalg import expm\n"
        "    def f(self):\n"
        "        import scipy.sparse.linalg\n"
        "        return importlib.import_module('scipy.fft')\n"
        "def g():\n"
        "    h = lambda: __import__('scipy')\n"
        "    return h\n")
    assert scipy_imports(tree) == [
        (IMPORT_TIME, "scipy.linalg"), (IMPORT_TIME, "scipy"),
        (IMPORT_TIME, "scipy"), (IMPORT_TIME, "scipy.linalg"),
        ("C.f", "scipy.sparse.linalg"), ("C.f", "scipy.fft"),
        ("g.<lambda>", "scipy")]


@pytest.fixture
def preset_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(scenarios.build_scenario("periodic")))
    return str(path)


def run_cold(*args):
    """[exit code, the scipy modules loaded] of one request in a fresh
    interpreter that imports chronograph from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    child = subprocess.run([sys.executable, "-c", CHILD, *args], env=env,
                           check=True, capture_output=True, text=True)
    return json.loads(child.stdout)


def test_a_cold_classify_imports_no_scipy(preset_file):
    assert run_cold("classify", preset_file) == [0, []]


def test_a_cold_solve_imports_scipy_linalg_where_it_is_called(preset_file,
                                                              tmp_path):
    code, loaded = run_cold("solve", preset_file, str(tmp_path))
    assert code == 0
    assert "scipy.linalg" in loaded
