"""The paper's transparency claim, checked on the source.

Only the AuC and the SIM change: the phone and the serving network run the
same code for a legacy and an upgraded card.  So `mobile_equipment` and the
methods of `ServingNetwork` must not name the subscription mode
(`SimMode`, `_LEGACY`, `_ENHANCED`), the challenge builder (`auth_core`),
the card's network key (`ka`) or an ordering key carried beside the
triple (`sqn_hint`).

A subscriber is enhanced exactly when its card and AuC record hold a Ka,
so no function outside the config loader (`harness`) and the AuC's
`HomeNetwork.provision` names the mode at all.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "akasim"
MODE_NAMES = {"SimMode", "_LEGACY", "_ENHANCED"}
FORBIDDEN = MODE_NAMES | {"auth_core", "ka", "sqn_hint"}
# the config loader parses the mode and provisioning turns it into a Ka
MODE_READERS = {"harness", "network_side.HomeNetwork.provision"}


def _identifiers(node: ast.AST) -> list[str]:
    """The identifiers one node spells: a name, an attribute, an import's
    module or alias, a parameter, a keyword, a definition, or a string that
    `getattr` could take."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [*node.name.split("."), node.asname]
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")
    if isinstance(node, (ast.arg, ast.keyword)):
        return [node.arg]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    return []


def forbidden_names(tree: ast.AST, names: set[str] = FORBIDDEN) -> list[str]:
    """`line: name` for every identifier in `names` under `tree`."""
    hits = {
        (node.lineno, name)
        for node in ast.walk(tree)
        if hasattr(node, "lineno")
        for name in _identifiers(node)
        if name in names
    }
    return [f"{line}: {name}" for line, name in sorted(hits)]


def _module(name: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{name}.py").read_text())


def _class(tree: ast.Module, name: str) -> ast.ClassDef:
    (node,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name]
    return node


@pytest.mark.parametrize(
    "source, found",
    [
        ("def f(card):\n    return card.ka", ["2: ka"]),
        ("def f(t):\n    return t.sqn_hint", ["2: sqn_hint"]),
        ("def f(mode):\n    return mode is _LEGACY or mode is _ENHANCED", ["2: _ENHANCED", "2: _LEGACY"]),
        ("def f(mode: SimMode):\n    pass", ["1: SimMode"]),
        ("from .auth_core import AuthTriple", ["1: auth_core"]),
        ("from . import auth_core as ac", ["1: auth_core"]),
        ("import akasim.auth_core", ["1: auth_core"]),
        ("from .sim_card import SimMode as Mode", ["1: SimMode"]),
        ("def f(ka):\n    pass", ["1: ka"]),
        ("f(ka=1)", ["1: ka"]),
        ("x = getattr(state, 'ka')", ["1: ka"]),
        ("class C:\n    def m(self, t):\n        return t.sqn_hint", ["3: sqn_hint"]),
        # not hits: the fields every triple has, and look-alikes
        ("def f(t):\n    return t.rand, t.xres, t.kc", []),
        ("kappa = ka_x = 1\nx = 'ka-ching'", []),
        ("from .sim_card import SimCard, SimStatus", []),
    ],
)
def test_forbidden_names_finds(source, found):
    assert forbidden_names(ast.parse(source)) == found


def test_the_home_network_does_name_them():
    # the finder sees the AuC's mode-dependent code in the same module
    found = {hit.split(": ")[1] for hit in forbidden_names(_class(_module("network_side"), "HomeNetwork"))}
    assert {"_LEGACY", "auth_core", "ka"} <= found


def test_the_phone_names_no_card_upgrade():
    assert forbidden_names(_module("mobile_equipment")) == []


def test_the_serving_network_names_no_card_upgrade():
    assert forbidden_names(_class(_module("network_side"), "ServingNetwork")) == []


def _functions(module: str):
    """(qualified name, node) for each function and method of a module."""
    for node in _module(module).body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef):
                    yield f"{module}.{node.name}.{method.name}", method


def test_only_the_loader_and_provisioning_name_the_mode():
    found = [
        f"{name} {hit}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem not in MODE_READERS
        for name, function in _functions(path.stem)
        if name not in MODE_READERS
        for hit in forbidden_names(function, MODE_NAMES)
    ]
    assert found == []
