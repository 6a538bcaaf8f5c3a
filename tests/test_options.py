"""The number of settable options in src/chronograph stays where it is.

An option is a parameter with a default (lambdas excluded), a dataclass
field with a default, or a command-line `--` flag, counted over the AST of
every module of the package.  A change that adds or removes one edits
OPTION_COUNT below and says why.
"""

import ast
import pathlib

import chronograph

SRC = pathlib.Path(chronograph.__file__).parent

OPTION_COUNT = 30

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else \
            getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def options():
    """'module:line name' of every settable option, sorted."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            where = f"{path.stem}:{getattr(node, 'lineno', 0):04d}"
            if isinstance(node, FUNCTIONS):
                args = node.args
                positional = args.posonlyargs + args.args
                for arg in positional[len(positional) - len(args.defaults):]:
                    out.append(f"{where} {node.name}({arg.arg})")
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out.append(f"{where} {node.name}({arg.arg})")
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for item in node.body:
                    if (isinstance(item, ast.AnnAssign)
                            and item.value is not None):
                        out.append(f"{where} {node.name}.{item.target.id}")
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "add_argument" and node.args
                  and isinstance(node.args[0], ast.Constant)
                  and str(node.args[0].value).startswith("--")):
                out.append(f"{where} {node.args[0].value}")
    return sorted(out)


def test_option_count_is_pinned():
    found = options()
    assert len(found) == OPTION_COUNT, "\n".join(found)
