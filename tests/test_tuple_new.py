"""Every `_tuple_new(Cls, (...))` in src/akasim builds a whole NamedTuple.

`_tuple_new` is `tuple.__new__`: it skips the `__new__` that NamedTuple
generates, so it fills no defaults and checks no field count, and it skips
a `__new__` the class wrote itself (`StkCommand`'s refuses a CLOSE_CHANNEL
with no channel).  A literal with one item too few or too many would fail
only when a field is read.  These tests parse the package and check each
call against the class it names: the fields must be a tuple literal with
exactly `len(Cls._fields)` items, and no class in `Cls`'s MRO may define a
`__new__` of its own.
"""

import ast
import importlib
from pathlib import Path
from typing import NamedTuple

import pytest

from akasim.sim_card import StkCommand

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "akasim"
MODULES = sorted(PACKAGE.glob("*.py"))


def tuple_new_calls(source: str) -> list[tuple[int, str | None, int | None]]:
    """(line, class name, item count) of every `_tuple_new(...)` call.  The
    name is None unless the class is a plain name; the count is None unless
    the fields are one tuple literal with no starred item."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != "_tuple_new":
            continue
        args = node.args
        name = args[0].id if args and isinstance(args[0], ast.Name) else None
        fields = args[1] if len(args) == 2 and not node.keywords else None
        count = None
        if isinstance(fields, ast.Tuple) and not any(isinstance(e, ast.Starred) for e in fields.elts):
            count = len(fields.elts)
        hits.append((node.lineno, name, count))
    return sorted(hits)


def writes_own_new(cls: type) -> bool:
    """Whether a class in `cls`'s MRO defines a `__new__` other than the one
    NamedTuple generates, which sits in the class dict next to `_fields`."""
    return any(
        "__new__" in vars(base) and "_fields" not in vars(base)
        for base in cls.__mro__
        if base not in (tuple, object)
    )


@pytest.mark.parametrize(
    "source, found",
    [
        ("x = _tuple_new(P, (1, 2))", [(1, "P", 2)]),
        ("def f(a):\n    return cs._tuple_new(P, (a,))", [(2, "P", 1)]),
        ("x = _tuple_new(P, ())", [(1, "P", 0)]),
        ("x = _tuple_new(cls, (1,))", [(1, "cls", 1)]),
        ("x = _tuple_new(mod.P, (1,))", [(1, None, 1)]),
        ("x = _tuple_new(P, args)", [(1, "P", None)]),
        ("x = _tuple_new(P, (*args, 1))", [(1, "P", None)]),
        ("x = _tuple_new(P, [1, 2])", [(1, "P", None)]),
        ("x = _tuple_new(P)", [(1, "P", None)]),
        ("_tuple_new = tuple.__new__\nx = P(1, 2)", []),
    ],
)
def test_tuple_new_calls_finds(source, found):
    assert tuple_new_calls(source) == found


class _Plain(NamedTuple):
    a: int


class _Checked(NamedTuple("_Checked", [("a", int)])):
    __slots__ = ()

    def __new__(cls, a):
        return super().__new__(cls, a)


class _CheckedChild(_Checked):
    __slots__ = ()


def test_writes_own_new_finds():
    assert not writes_own_new(_Plain)
    assert writes_own_new(_Checked)
    assert writes_own_new(_CheckedChild)
    assert writes_own_new(StkCommand)


def test_every_call_builds_a_whole_namedtuple_without_a_new_of_its_own():
    problems, checked = [], 0
    for path in MODULES:
        module = importlib.import_module("akasim" if path.stem == "__init__" else f"akasim.{path.stem}")
        for line, name, count in tuple_new_calls(path.read_text()):
            where = f"{path.name}:{line}"
            cls = getattr(module, name, None) if name else None
            if not (isinstance(cls, type) and issubclass(cls, tuple) and hasattr(cls, "_fields")):
                problems.append(f"{where}: {name!r} is not a NamedTuple class of the module")
            elif count != len(cls._fields):
                problems.append(f"{where}: {count} items for the {len(cls._fields)} fields of {name}")
            elif writes_own_new(cls):
                problems.append(f"{where}: {name} has a __new__ of its own")
            checked += 1
    assert problems == []
    assert checked == 10
