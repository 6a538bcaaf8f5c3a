"""Every top-level function and class in src/chronograph, and every method
and property of its classes, is used.

A definition counts as used when some module of the package refers to its
name (as a name or an attribute) outside its own body, or, for a top-level
definition, when the package exports it through chronograph.__all__: an
exported class still has to use each of its members.  Dunder methods, which
Python itself calls, are not checked.  The few definitions that stay on
purpose are listed with their reason.
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(tree):
    """(qualified name, node, exportable) of every top-level function and
    class and of every non-dunder method and property of a top-level
    class."""
    for node in tree.body:
        if not isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            continue
        yield node.name, node, True
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, FUNCTIONS) and not (
                        member.name.startswith("__")
                        and member.name.endswith("__")):
                    yield f"{node.name}.{member.name}", member, False


def unused_definitions():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((_references(t) for t in trees.values()),
                     collections.Counter())
    unused = []
    for module, tree in trees.items():
        for qualified, node, exportable in _definitions(tree):
            outside = everywhere[node.name] - _references(node)[node.name]
            exported = exportable and node.name in chronograph.__all__
            if outside == 0 and not exported:
                unused.append(f"{module}.{qualified}")
    return unused


def _unused_at_depth(depth):
    """Unused definitions named module.name (depth 1) or
    module.Class.member (depth 2), less the kept ones."""
    return sorted(name for name in set(unused_definitions()) - set(KEPT)
                  if name.count(".") == depth)


def test_every_top_level_definition_is_used():
    assert _unused_at_depth(1) == []


def test_every_class_member_is_used():
    assert _unused_at_depth(2) == []


def test_every_kept_definition_is_still_there_and_unused():
    assert sorted(KEPT) == sorted(set(unused_definitions()) & set(KEPT))
