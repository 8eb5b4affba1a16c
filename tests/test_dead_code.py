"""No function or method in src/akasim that nothing in the package calls.

A module-level function or a class method is dead when its name appears
nowhere else in src/akasim, as a name, an attribute or an import, and the
package does not export it.  A method whose name is also a data attribute
somewhere in the package (a NamedTuple field, a `__slots__` entry or a
`self.x =` target) counts as used only where it is called, `obj.name(...)`,
since a bare read `obj.name` may be that attribute; a `@property` counts on
any read.  Names in a module's `__all__` strings do not count as uses: only
`akasim.__all__` is the public surface.
"""

import ast
from pathlib import Path

import pytest

import akasim

SRC = Path(akasim.__file__).parent
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _name(node) -> str | None:
    """The identifier a Name or an Attribute ends in."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _definitions(tree):
    """(qualified name, name, is a method but no property) of every
    module-level function and class method."""
    for node in tree.body:
        if isinstance(node, _FUNCTIONS):
            yield node.name, node.name, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _FUNCTIONS):
                    is_property = "property" in map(_name, item.decorator_list)
                    yield f"{node.name}.{item.name}", item.name, not is_property


def _uses(tree):
    """Every identifier the module reads, binds or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name


def _calls(tree):
    """Every attribute the module calls, `obj.name(...)`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            yield node.func.attr


def _data_attributes(tree):
    """NamedTuple fields, `__slots__` entries and `self.x =` targets."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and "NamedTuple" in map(_name, node.bases):
            yield from (stmt.target.id for stmt in node.body if isinstance(stmt, ast.AnnAssign))
        elif isinstance(node, ast.Call) and _name(node.func) == "NamedTuple" and len(node.args) > 1:
            # NamedTuple("Name", [("field", type), ...])
            yield from (field.elts[0].value for field in node.args[1].elts)
        elif isinstance(node, ast.Assign) and "__slots__" in map(_name, node.targets):
            yield from (entry.value for entry in getattr(node.value, "elts", ()))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and _name(node.value) == "self"
        ):
            yield node.attr


def dead_names(sources, exported=()) -> list[str]:
    """Qualified names of the functions and methods in `sources` nothing uses."""
    trees = [ast.parse(source) for source in sources]
    uses = {name for tree in trees for name in _uses(tree)}
    calls = {name for tree in trees for name in _calls(tree)}
    data = {name for tree in trees for name in _data_attributes(tree)}
    dead = []
    for tree in trees:
        for qualified, name, is_method in _definitions(tree):
            # dunders are called by the interpreter, not by name
            if name.startswith("__") and name.endswith("__") or name in exported:
                continue
            if name not in (calls if is_method and name in data else uses):
                dead.append(qualified)
    return dead


def test_every_function_has_a_caller_in_the_package():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert dead_names(sources, akasim.__all__) == []


_FIELD = "class B(NamedTuple):\n    pending_length: int\n\nx = B(1).pending_length\n"
_METHOD = "class A:\n    def pending_length(self):\n        return 2\n"


@pytest.mark.parametrize(
    "sources, dead",
    [
        # a read of a same-named field does not keep a method alive; a call does
        ([_METHOD, _FIELD], ["A.pending_length"]),
        ([_METHOD, _FIELD, "y = A().pending_length()\n"], []),
        ([_METHOD, "y = A().pending_length\n"], []),
        ([_METHOD, "B = NamedTuple('B', [('pending_length', int)])\nx = B(1).pending_length\n"],
         ["A.pending_length"]),
        ([_METHOD, "class C:\n    __slots__ = ('pending_length',)\nx = C().pending_length\n"],
         ["A.pending_length"]),
        ([_METHOD, "class C:\n    def __init__(self):\n        self.pending_length = 0\n"
          "x = C().pending_length\n"], ["A.pending_length"]),
        # any read keeps a property alive
        (["class A:\n    @property\n    def pending_length(self):\n        pass\n", _FIELD], []),
        # module-level functions: any mention but the definition, or an export
        (["def f():\n    pass\n"], ["f"]),
        (["def f():\n    pass\n\nhandlers = [f]\n"], []),
    ],
)
def test_dead_names_finds(sources, dead):
    assert dead_names(sources) == dead


def test_exported_names_are_not_dead():
    assert dead_names(["def f():\n    pass\n"], exported=["f"]) == []
