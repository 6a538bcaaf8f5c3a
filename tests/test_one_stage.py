"""One function takes the matrix exponentials of a solve.

solver._exponentials is the exponential stage: it takes e^{a_j A_j} for the
boundary operator and (e^{hA}, phi1(hA), phi2(hA)) for the edge
recurrences.  Outside matfun no other function of src/chronograph names
expm or expm_phi12 (matfun's, scipy's or any other), so a second
exponential path cannot grow beside it unnoticed, and the Crank-Nicolson
reference in oracle shares no code with the exponential path.
"""

import ast
import pathlib

import chronograph

SRC = pathlib.Path(chronograph.__file__).parent
NAMES = {"expm", "expm_phi12"}


def exponential_uses(tree):
    """(enclosing function or class path, name) of each place the tree
    names expm or expm_phi12, as a name, an attribute or an imported
    name; "<module>" outside every function and class."""
    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = scope + (node.name,)
        where = ".".join(scope) or "<module>"
        if isinstance(node, ast.Name) and node.id in NAMES:
            yield where, node.id
        elif isinstance(node, ast.Attribute) and node.attr in NAMES:
            yield where, node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name.rpartition(".")[2] in NAMES:
                    yield where, alias.name
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    return set(visit(tree, ()))


def uses_by_module():
    return {path.stem: exponential_uses(ast.parse(
        path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py")) if path.stem != "matfun"}


def test_only_the_exponential_stage_names_expm_outside_matfun():
    uses = uses_by_module()
    assert {module: found for module, found in uses.items() if found} == {
        "solver": {("_exponentials", "expm"),
                   ("_exponentials", "expm_phi12")}}


def test_the_lint_sees_every_way_of_naming_an_exponential():
    tree = ast.parse(
        "from scipy.linalg import expm\n"
        "import chronograph.matfun.expm_phi12\n"
        "class C:\n"
        "    def f(self):\n"
        "        return scipy.linalg.expm(self.A)\n"
        "def g(fn=expm_phi12):\n"
        "    return fn\n")
    assert exponential_uses(tree) == {
        ("<module>", "expm"), ("<module>", "chronograph.matfun.expm_phi12"),
        ("C.f", "expm"), ("g", "expm_phi12")}
