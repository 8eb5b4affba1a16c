"""No function or method in src/akasim that nothing in the package calls.

A module-level function or a class method is dead when its name appears
nowhere else in src/akasim, as a name, an attribute or an import, and the
package does not export it.  Names in a module's `__all__` strings do not
count as uses: only `akasim.__all__` is the public surface.
"""

import ast
from pathlib import Path

import akasim

SRC = Path(akasim.__file__).parent

# qualified name -> why it stays although nothing in the package calls it
ALLOWED = {
    "SimState.to_record": "writes the documented card snapshot format",
    "SimState.from_record": "reads the documented card snapshot format",
    "iter_vector_records": "reads the documented test-vector file format",
}


def _definitions(tree):
    """(qualified name, name) of every module-level function and class method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.name


def _uses(tree):
    """Every identifier the module reads, binds or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name


def _dead_names():
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    uses = {name for tree in trees for name in _uses(tree)}
    dead = []
    for tree in trees:
        for qualified, name in _definitions(tree):
            # dunders are called by the interpreter, not by name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in akasim.__all__ or qualified in ALLOWED:
                continue
            if name not in uses:
                dead.append(qualified)
    return dead


def test_every_function_has_a_caller_in_the_package():
    assert _dead_names() == []


def test_allowlist_names_live_definitions():
    defined = {
        qualified
        for path in SRC.glob("*.py")
        for qualified, _ in _definitions(ast.parse(path.read_text()))
    }
    assert set(ALLOWED) <= defined
