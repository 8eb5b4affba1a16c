"""Function bodies read enum members through module-level names.

On CPython 3.11 `enum.EnumType` defines `__getattr__`, so every
`SimStatus.NORMAL`-style read takes the interpreter's slow attribute hook
path, even though the member is found without calling `__getattr__`.  Each
module binds the members it needs to private names once, at module level;
these tests keep it that way.
"""

import ast
import enum
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "akasim"
MODULES = sorted(PACKAGE.glob("*.py"))


def _is_enum_base(base: ast.expr) -> bool:
    return (isinstance(base, ast.Attribute) and base.attr == "Enum") or (
        isinstance(base, ast.Name) and base.id == "Enum"
    )


def _package_enums() -> dict[str, set[str]]:
    """Every enum.Enum subclass the package defines: class name -> member names."""
    enums = {}
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(map(_is_enum_base, node.bases)):
                enums[node.name] = {
                    target.id
                    for stmt in node.body
                    if isinstance(stmt, ast.Assign)
                    for target in stmt.targets
                    if isinstance(target, ast.Name)
                }
    return enums


ENUMS = _package_enums()


def _class_name(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """The package enum `node` names: `Cls`, an alias of it, or `mod.Cls`."""
    if isinstance(node, ast.Name):
        name = aliases.get(node.id, node.id)
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return None
    return name if name in ENUMS else None


def _function_bodies(tree: ast.Module):
    """The statements and expressions that run on every call: bodies of
    functions and lambdas, without their default arguments or decorators."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from node.body
        elif isinstance(node, ast.Lambda):
            yield node.body


def member_reads(source: str) -> list[str]:
    """`line: Cls.MEMBER` for every enum member a function body reads off its class."""
    tree = ast.parse(source)
    aliases = {
        alias.asname: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.asname
    }
    hits = set()
    for body in _function_bodies(tree):
        for node in ast.walk(body):
            if isinstance(node, ast.Attribute):
                cls = _class_name(node.value, aliases)
                if cls is not None and node.attr in ENUMS[cls]:
                    hits.add((node.lineno, node.col_offset, f"{cls}.{node.attr}"))
    return [f"{line}: {name}" for line, _, name in sorted(hits)]


def test_the_package_defines_enums():
    assert {"StepKind", "SimStatus", "CipherAlgId", "RejectReason"} <= ENUMS.keys()
    assert ENUMS["TeardownPhase"] == {
        "IDLE",
        "AWAIT_FETCH_1",
        "AWAIT_CHANNEL_STATUS",
        "AWAIT_FETCH_2",
        "AWAIT_CLOSE_RESULT",
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_member_read_in_a_function_body(path):
    assert member_reads(path.read_text()) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("def f(k):\n    return k is StepKind.ASSERT", ["2: StepKind.ASSERT"]),
        ("def f():\n    return cs.CipherAlgId.NONE", ["2: CipherAlgId.NONE"]),
        ("from .x import SimMode as M\ndef f():\n    return M.LEGACY", ["3: SimMode.LEGACY"]),
        ("f = lambda: Verdict.REJECTED", ["1: Verdict.REJECTED"]),
        ("def f(xs):\n    return [x for x in xs if x is SimStatus.NORMAL]", ["2: SimStatus.NORMAL"]),
        ("class C:\n    def m(self):\n        return RandSource.REPLAYED", ["3: RandSource.REPLAYED"]),
        # exempt: defaults, class bodies, module level, and non-members
        ("def f(p=TeardownPhase.IDLE):\n    return p", []),
        ("class C:\n    x = AttackKind.BBK_REPLAY", []),
        ("_NONE = cs.CipherAlgId.NONE\ndef f():\n    return _NONE", []),
        ("def f(alg):\n    return CipherAlgId.tag_byte, alg.NONE", []),
    ],
)
def test_member_reads_finds(source, found):
    assert member_reads(source) == found


def _module_bindings():
    """(module, names, class name) for every module-level binding of members:
    `_A, _B = Cls` binds them all, `_A = Cls.A` one."""
    for path in MODULES:
        for stmt in ast.parse(path.read_text()).body:
            if not isinstance(stmt, ast.Assign):
                continue
            target, value = stmt.targets[0], stmt.value
            if isinstance(target, ast.Tuple) and (cls := _class_name(value, {})):
                yield path.stem, [name.id for name in target.elts], cls
            elif isinstance(value, ast.Attribute) and (cls := _class_name(value.value, {})):
                if value.attr in ENUMS[cls]:
                    yield path.stem, [target.id], cls


def test_bound_names_match_their_members():
    """Unpacking binds members in definition order: each `_NAME` must be `Cls.NAME`."""
    modules = {
        path.stem: importlib.import_module(f"akasim.{path.stem}")
        for path in MODULES
        if path.stem != "__init__"
    }
    classes = {
        value.__name__: value
        for module in modules.values()
        for value in vars(module).values()
        if isinstance(value, enum.EnumType) and value.__name__ in ENUMS
    }
    bindings = list(_module_bindings())
    assert len(bindings) >= 10
    for stem, names, cls_name in bindings:
        cls = classes[cls_name]
        if len(names) > 1:
            assert names == [f"_{member.name}" for member in cls], (stem, cls_name)
        for name in names:
            assert getattr(modules[stem], name) is cls[name[1:]], (stem, name)
