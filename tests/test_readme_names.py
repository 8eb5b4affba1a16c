"""Every private name and every CapWords name README.md cites in backticks
is defined in src/akasim.

README describes the private cores and the public classes by name, so a
rename or a deletion that leaves it behind fails here.  A cited private
name is `_name` or `qualifier._name`, where the qualifier is a module of
the package or a class it defines; a bare name may be defined in any
module.  Dunders are the interpreter's names, not the package's, and are
skipped.  A cited CapWords name (a capital, a small letter and at least one
more character: `Key128`, `None`, but not the key symbol `Ka`) follows the
same rules, and may also be a builtin; one qualified by a module outside
the package (`typing.NamedTuple`) is skipped.
"""

import ast
import builtins
import re
from pathlib import Path

import pytest

import akasim

SRC = Path(akasim.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"
_CITED = re.compile(r"`(?:[\w.]*?(\w+)\.)?(_(?!_)\w*)`")
_CITED_CAPWORDS = re.compile(r"`(?:[\w.]*?(\w+)\.)?([A-Z][a-z]\w+)`")


def cited_names(text: str, pattern=_CITED) -> list[tuple[str | None, str]]:
    """(qualifier or None, name) of every backticked name in the text that
    `pattern` matches: private names by default."""
    return [(qualifier or None, name) for qualifier, name in pattern.findall(text)]


def _bound(body):
    """The names a module or class body binds: functions, classes, assignments."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id


def definitions(sources: dict[str, str]) -> dict[str, set[str]]:
    """Scope -> names bound there, for each module stem and each class."""
    scopes = {}
    for stem, source in sources.items():
        tree = ast.parse(source)
        scopes[stem] = set(_bound(tree.body))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                scopes.setdefault(node.name, set()).update(_bound(node.body))
    return scopes


def unresolved(text: str, sources: dict[str, str]) -> list[str]:
    scopes = definitions(sources)
    anywhere = set().union(*scopes.values())
    return [
        f"{qualifier}.{name}" if qualifier else name
        for qualifier, name in cited_names(text)
        if name not in (scopes.get(qualifier, set()) if qualifier else anywhere)
    ]


def unresolved_capwords(text: str, sources: dict[str, str]) -> list[str]:
    scopes = definitions(sources)
    bare = set().union(*scopes.values(), dir(builtins))
    missing = []
    for qualifier, name in cited_names(text, _CITED_CAPWORDS):
        if qualifier is None:
            if name not in bare:
                missing.append(name)
        # a qualifier that is no scope of the package is another module
        elif qualifier in scopes and name not in scopes[qualifier]:
            missing.append(f"{qualifier}.{name}")
    return missing


def _package_sources():
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_readme_cites_only_defined_private_names():
    text = README.read_text()
    assert cited_names(text), "README cites no private name: the pattern is broken"
    assert unresolved(text, _package_sources()) == []


def test_readme_cites_only_defined_capwords_names():
    text = README.read_text()
    assert cited_names(text, _CITED_CAPWORDS), "README cites no CapWords name: the pattern is broken"
    assert unresolved_capwords(text, _package_sources()) == []


@pytest.mark.parametrize(
    "text, cited",
    [
        ("`_f1`, `cs._xor` and `akasim.auth_core._triples`",
         [(None, "_f1"), ("cs", "_xor"), ("auth_core", "_triples")]),
        ("`__slots__`, `Cls.__getattr__`, `public`, `_a` `b._c`",
         [(None, "_a"), ("b", "_c")]),
        ("`f(_x)` and `_x y`", []),
    ],
)
def test_cited_names_finds(text, cited):
    assert cited_names(text) == cited


_MOD = "_TABLE = 1\n_a, (_b, c) = 1, (2, 3)\n\ndef _f():\n    _local = 1\n\nclass K:\n    _slot: int = 0\n    def _m(self):\n        pass\n"


@pytest.mark.parametrize(
    "text, missing",
    [
        ("`_TABLE` `_a` `_b` `_f` `mod._f` `K._m` `K._slot`", []),
        # a local is not a definition; the qualifier must be the defining scope
        ("`_local` `other._f` `K._f` `mod._m`", ["_local", "other._f", "K._f", "mod._m"]),
    ],
)
def test_unresolved_finds(text, missing):
    assert unresolved(text, {"mod": _MOD}) == missing


@pytest.mark.parametrize(
    "text, cited",
    [
        ("`Key128`, `cs.CipherAlgId` and `typing.NamedTuple`",
         [(None, "Key128"), ("cs", "CipherAlgId"), ("typing", "NamedTuple")]),
        # key symbols, constants, members, calls and private names are not cited
        ("`Ka`, `NONE`, `A5_3`, `SimStatus.NORMAL`, `Box()`, `_Box`", []),
    ],
)
def test_cited_capwords_finds(text, cited):
    assert cited_names(text, _CITED_CAPWORDS) == cited


_CLASSES = "class Box:\n    class Lid:\n        pass\n\nTable = dict\n"


@pytest.mark.parametrize(
    "text, missing",
    [
        ("`Box` `Lid` `Box.Lid` `mod.Box` `mod.Table` `ValueError` `None` `typing.NamedTuple`", []),
        # the qualifier must be the defining scope; another module is not checked
        ("`Crate` `mod.Crate` `Box.Crate` `mod.Lid` `other.Crate`",
         ["Crate", "mod.Crate", "Box.Crate", "mod.Lid"]),
    ],
)
def test_unresolved_capwords_finds(text, missing):
    assert unresolved_capwords(text, {"mod": _CLASSES}) == missing
