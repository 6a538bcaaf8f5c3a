"""One module decides whether a block operator is held dense or sparse.

matfun.block_matrix applies the rule, with the threshold
matfun.DENSE_BOUNDARY_MAX, and matfun alone imports scipy.sparse.  No other
module of src/chronograph names the threshold or imports scipy.sparse, so a
second rule cannot grow beside it unnoticed.
"""

import ast
import pathlib

import chronograph

SRC = pathlib.Path(chronograph.__file__).parent


def _is_sparse_module(name):
    return name == "scipy.sparse" or name.startswith("scipy.sparse.")


def rule_uses(tree):
    """(line, what) of each place the tree names DENSE_BOUNDARY_MAX, as a
    name, an attribute or an imported name, or imports scipy.sparse."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "DENSE_BOUNDARY_MAX" \
                or isinstance(node, ast.Attribute) \
                and node.attr == "DENSE_BOUNDARY_MAX":
            yield node.lineno, "DENSE_BOUNDARY_MAX"
        elif isinstance(node, ast.Import):
            if any(_is_sparse_module(a.name) for a in node.names):
                yield node.lineno, "scipy.sparse"
        elif isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
            if "DENSE_BOUNDARY_MAX" in names:
                yield node.lineno, "DENSE_BOUNDARY_MAX"
            if _is_sparse_module(node.module or "") or (
                    node.module == "scipy" and "sparse" in names):
                yield node.lineno, "scipy.sparse"


def uses_by_module():
    return {path.stem: sorted(set(rule_uses(ast.parse(
        path.read_text(encoding="utf-8")))))
        for path in sorted(SRC.glob("*.py"))}


def test_only_matfun_names_the_threshold_or_imports_scipy_sparse():
    uses = uses_by_module()
    assert {module: found for module, found in uses.items()
            if found and module != "matfun"} == {}
    assert {what for _, what in uses["matfun"]} \
        == {"DENSE_BOUNDARY_MAX", "scipy.sparse"}
