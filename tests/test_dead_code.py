"""Every top-level function and class in src/chronograph is used.

A definition counts as used when some module of the package refers to its
name (as a name or an attribute) outside its own body, or when the package
exports it through chronograph.__all__.  The few that stay on purpose are
listed with their reason.
"""

import ast
import collections
import pathlib

import chronograph

SRC = pathlib.Path(chronograph.__file__).parent

KEPT = {
    "oracle.brute_force_triangularizable":
        "a shipped test oracle: the acceptance tests check the classifier "
        "against this exhaustive search",
    "matfun.solve_linear":
        "named by perfbench's tracer until the benchmark reads an "
        "in-package trace (ROADMAP item 2)",
}


def _references(node):
    """Names referred to anywhere inside node."""
    out = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def unused_definitions():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((_references(t) for t in trees.values()),
                     collections.Counter())
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            outside = everywhere[node.name] - _references(node)[node.name]
            if outside == 0 and node.name not in chronograph.__all__:
                unused.append(f"{module}.{node.name}")
    return unused


def test_every_top_level_definition_is_used():
    assert sorted(set(unused_definitions()) - set(KEPT)) == []


def test_every_kept_definition_is_still_there_and_unused():
    assert sorted(KEPT) == sorted(set(unused_definitions()) & set(KEPT))
