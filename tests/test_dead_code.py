"""No function or method in src/akasim that nothing in the package calls,
no stored field and no returned value that nothing in the package reads,
no parameter default that no call in the package overrides, and no
NamedTuple field default that every construction in the package overrides.

A module-level function or a class method is dead when its name appears
nowhere else in src/akasim, as a name, an attribute or an import, and the
package does not export it.  A method whose name is also a data attribute
somewhere in the package (a NamedTuple field, a `__slots__` entry or a
`self.x =` target) counts as used only where it is called, `obj.name(...)`,
since a bare read `obj.name` may be that attribute; a `@property` counts on
any read.  Names in a module's `__all__` strings do not count as uses: only
`akasim.__all__` is the public surface.

A NamedTuple field or a `__slots__` entry is unread when no attribute load
of its name, no `getattr` string and no tuple unpacking whose targets are
exactly its class's fields, in order, appears anywhere in src/akasim, and
the package does not export its class.  Like the function rule, this one
matches by name: a read of a same-named field of another class counts.

A function or method that returns a value (a `return` in its own body with
a value other than None) has an unread return when it is used, and every
use of its name in src/akasim is a call that is either a statement, which
discards the value, or unpacked into a tuple with `_` at one position that
every such unpacking shares.  Any other use reads it: a call whose value
goes anywhere else, or the name passed or stored uncalled.  Calls match by
name, like the other rules.  Names in `akasim.__all__` and the methods of
the classes it exports are exempt.

A parameter default is unset when no call in src/akasim passes that
parameter, by position or by keyword.  A call that unpacks `*` or `**`
arguments may pass any parameter.  Calls match by name, like the other
rules, and a class's name calls its `__init__` and `__new__`.  Names in
`akasim.__all__`, the methods of the classes it exports and the console
script that pyproject.toml names are exempt: callers outside the package
may set their defaults.

A NamedTuple field default is unused when every construction of its class
in src/akasim gives that field: a `_tuple_new(Class, ...)` call, which
gives every field, or a call of the class's name that passes the field by
position or by keyword.  A call that unpacks `*` or `**` arguments, and a
read of the class's `_field_defaults`, rely on every default.  Calls match
by name, like the other rules, and classes in `akasim.__all__` are exempt.
"""

import ast
import tomllib
from pathlib import Path

import pytest

import akasim

SRC = Path(akasim.__file__).parent
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _name(node) -> str | None:
    """The identifier a Name or an Attribute ends in."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _definitions(tree):
    """(qualified name, definition, is a method but no property) of every
    module-level function and class method."""
    for node in tree.body:
        if isinstance(node, _FUNCTIONS):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _FUNCTIONS):
                    is_property = "property" in map(_name, item.decorator_list)
                    yield f"{node.name}.{item.name}", item, not is_property


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


def _fields(tree):
    """(class name, field names) of every NamedTuple, in class or functional
    form, and of every class body that assigns `__slots__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            if "NamedTuple" in map(_name, node.bases):
                yield node.name, tuple(
                    stmt.target.id for stmt in node.body if isinstance(stmt, ast.AnnAssign)
                )
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and "__slots__" in map(_name, stmt.targets):
                    yield node.name, tuple(entry.value for entry in getattr(stmt.value, "elts", ()))
        elif isinstance(node, ast.Call) and _name(node.func) == "NamedTuple" and len(node.args) > 1:
            # NamedTuple("Name", [("field", type), ...])
            yield node.args[0].value, tuple(field.elts[0].value for field in node.args[1].elts)


def _data_attributes(tree):
    """NamedTuple fields, `__slots__` entries and `self.x =` targets."""
    for _, fields in _fields(tree):
        yield from fields
    for node in ast.walk(tree):
        if (
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
        for qualified, function, is_method in _definitions(tree):
            name = function.name
            # dunders are called by the interpreter, not by name
            if name.startswith("__") and name.endswith("__") or name in exported:
                continue
            if name not in (calls if is_method and name in data else uses):
                dead.append(qualified)
    return dead


def _reads(tree):
    """Every attribute name the module loads or hands to `getattr` as a
    string, and the target names of every tuple unpacking, as a tuple."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (
            isinstance(node, ast.Call)
            and _name(node.func) == "getattr"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            yield node.args[1].value
        elif (
            isinstance(node, ast.Tuple)
            and isinstance(node.ctx, ast.Store)
            and all(isinstance(target, ast.Name) for target in node.elts)
        ):
            yield tuple(target.id for target in node.elts)


def unread_fields(sources, exported=()) -> list[str]:
    """`Class.field` for each field in `sources` that nothing reads."""
    trees = [ast.parse(source) for source in sources]
    reads = {read for tree in trees for read in _reads(tree)}
    unread = []
    for tree in trees:
        for cls, fields in _fields(tree):
            if cls not in exported and fields not in reads:
                unread.extend(f"{cls}.{field}" for field in fields if field not in reads)
    return unread


def _returns_value(node) -> bool:
    """Whether a `return` with a value other than None is in the body of
    `node`, outside the functions and classes nested in it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Return):
            value = child.value
            if value is not None and not (isinstance(value, ast.Constant) and value.value is None):
                return True
        elif not isinstance(child, (*_FUNCTIONS, ast.Lambda, ast.ClassDef)) and _returns_value(child):
            return True
    return False


def _return_uses(tree):
    """(name, positions left unread) for every use of a name the module
    loads: None for a call made as a statement, which leaves the whole value
    unread; the positions of the `_` targets for a call unpacked into a
    tuple; no position for any other call or load."""
    unread = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr):
            unread[id(node.value)] = None
        elif (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Tuple)
            and not any(isinstance(target, ast.Starred) for target in node.targets[0].elts)
        ):
            unread[id(node.value)] = frozenset(
                i for i, target in enumerate(node.targets[0].elts)
                if isinstance(target, ast.Name) and target.id == "_"
            )
    callees = set()
    # ast.walk visits a call before its callee, so the callee is known by then
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callees.add(id(node.func))
            yield _name(node.func), unread.get(id(node), frozenset())
        elif (
            isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)
            and id(node) not in callees
        ):
            yield _name(node), frozenset()


def unread_returns(sources, exported=()) -> list[str]:
    """Qualified names of the functions and methods in `sources` whose
    returned value, or some position of it, no use reads."""
    trees = [ast.parse(source) for source in sources]
    uses = {}
    for tree in trees:
        for name, positions in _return_uses(tree):
            uses.setdefault(name, []).append(positions)
    unread = []
    for tree in trees:
        for qualified, function, _ in _definitions(tree):
            name = function.name
            if (
                name.startswith("__") and name.endswith("__")
                or qualified.partition(".")[0] in exported
                or name not in uses
                or not _returns_value(function)
            ):
                continue
            # a discarded call (None) leaves every position unread
            unpacked = [positions for positions in uses[name] if positions is not None]
            if not unpacked or frozenset.intersection(*unpacked):
                unread.append(qualified)
    return unread


# the dunders a call of the class's own name reaches
_CONSTRUCTORS = ("__init__", "__new__")


def _defaults(function, is_method):
    """(parameter, position a call passes it at, or None if only a keyword
    can) of every parameter of `function` that has a default."""
    args = function.args
    positional = args.posonlyargs + args.args
    # a call through an object or the class passes self or cls itself
    bound = is_method and "staticmethod" not in map(_name, function.decorator_list)
    first = len(positional) - len(args.defaults)
    for position, arg in enumerate(positional[first:], first - bound):
        yield arg.arg, position
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(tree):
    """(callee name, positional count, keyword names) of every call; the
    count is None for a call that unpacks `*` or `**` arguments."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            keywords = {keyword.arg for keyword in node.keywords}
            if None in keywords or any(isinstance(arg, ast.Starred) for arg in node.args):
                yield _name(node.func), None, keywords
            else:
                yield _name(node.func), len(node.args), keywords


def unset_defaults(sources, exported=()) -> list[str]:
    """`qualified(parameter)` for each parameter default in `sources` that
    no call overrides."""
    trees = [ast.parse(source) for source in sources]
    calls = {}
    for tree in trees:
        for name, count, keywords in _passes(tree):
            calls.setdefault(name, []).append((count, keywords))
    unset = []
    for tree in trees:
        for qualified, function, _ in _definitions(tree):
            owner, dot, name = qualified.rpartition(".")
            if qualified.partition(".")[0] in exported:
                continue
            if name in _CONSTRUCTORS:
                name = owner
            elif name.startswith("__") and name.endswith("__"):
                continue
            sites = calls.get(name, [])
            for param, position in _defaults(function, is_method=bool(dot)):
                if not any(
                    count is None or param in keywords or position is not None and position < count
                    for count, keywords in sites
                ):
                    unset.append(f"{qualified}({param})")
    return unset


def _field_defaults(tree):
    """(class name, [(field, position)] of its fields with a default) of
    every NamedTuple in class form."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and "NamedTuple" in map(_name, node.bases):
            fields = [stmt for stmt in node.body if isinstance(stmt, ast.AnnAssign)]
            yield node.name, [
                (stmt.target.id, position)
                for position, stmt in enumerate(fields)
                if stmt.value is not None
            ]


def _constructions(tree):
    """(class name, positional count, keyword names) of every call and every
    `_tuple_new(Class, ...)`, whose count is unbounded; the count is None for
    a call that unpacks `*` or `**` and for a read of `_field_defaults`."""
    yield from _passes(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func) == "_tuple_new" and node.args:
            yield _name(node.args[0]), float("inf"), set()
        elif isinstance(node, ast.Attribute) and node.attr == "_field_defaults":
            yield _name(node.value), None, set()


def unused_field_defaults(sources, exported=()) -> list[str]:
    """`Class.field` for each NamedTuple field default in `sources` that
    every construction of its class overrides."""
    trees = [ast.parse(source) for source in sources]
    sites = {}
    for tree in trees:
        for name, count, keywords in _constructions(tree):
            sites.setdefault(name, []).append((count, keywords))
    unused = []
    for tree in trees:
        for cls, defaults in _field_defaults(tree):
            if cls in exported:
                continue
            for field, position in defaults:
                if all(
                    count is not None and (position < count or field in keywords)
                    for count, keywords in sites.get(cls, [])
                ):
                    unused.append(f"{cls}.{field}")
    return unused


def _package_sources():
    return [path.read_text() for path in sorted(SRC.glob("*.py"))]


def _console_scripts():
    """The function name of each console script pyproject.toml names."""
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    return [target.rpartition(":")[2] for target in scripts.values()]


def test_every_function_has_a_caller_in_the_package():
    assert dead_names(_package_sources(), akasim.__all__) == []


def test_every_field_has_a_reader_in_the_package():
    assert unread_fields(_package_sources(), akasim.__all__) == []


def test_every_return_has_a_reader_in_the_package():
    assert unread_returns(_package_sources(), akasim.__all__) == []


def test_every_default_is_overridden_in_the_package():
    assert unset_defaults(_package_sources(), [*akasim.__all__, *_console_scripts()]) == []


def test_every_field_default_is_relied_on_in_the_package():
    assert unused_field_defaults(_package_sources(), akasim.__all__) == []

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


_PAIR = "class P(NamedTuple):\n    a: int\n    b: int\n"


@pytest.mark.parametrize(
    "sources, unread",
    [
        # a class field is flagged; writing it is not reading it
        ([_PAIR], ["P.a", "P.b"]),
        ([_PAIR, "p = P(1, 2)\np.a = 3\n"], ["P.a", "P.b"]),
        # an attribute read clears that field only
        ([_PAIR, "x = p.a\n"], ["P.b"]),
        # an unpacking clears every field only when its targets are the fields, in order
        ([_PAIR, "a, b = p\n"], []),
        ([_PAIR, "for a, b in ps:\n    pass\n"], []),
        ([_PAIR, "a, c = p\n"], ["P.a", "P.b"]),
        ([_PAIR, "b, a = p\n"], ["P.a", "P.b"]),
        # a getattr string clears it
        ([_PAIR, "x = getattr(p, 'b')\n"], ["P.a"]),
        # the functional form, alone and as a base class
        (["P = NamedTuple('P', [('a', int)])\n"], ["P.a"]),
        (["class S(NamedTuple('S', [('a', int)])):\n    __slots__ = ()\n"], ["S.a"]),
        (["class S(NamedTuple('S', [('a', int)])):\n    __slots__ = ()\n", "x = s.a\n"], []),
        # a __slots__ entry is flagged, and cleared by a read
        (["class C:\n    __slots__ = ('a', 'b')\n"], ["C.a", "C.b"]),
        (["class C:\n    __slots__ = ('a', 'b')\n", "x = c.a + c.b\n"], []),
    ],
)
def test_unread_fields_finds(sources, unread):
    assert unread_fields(sources) == unread


def test_exported_classes_are_exempt():
    assert unread_fields([_PAIR, "class C:\n    __slots__ = ('a',)\n"], exported=["P", "C"]) == []


_RETURNS = "def f():\n    return 1, 2\n"


@pytest.mark.parametrize(
    "sources, unread",
    [
        # a call made as a statement discards the value; any other call reads it
        ([_RETURNS, "f()\n"], ["f"]),
        ([_RETURNS, "f()\nx = f()\n"], []),
        ([_RETURNS, "print(f())\n"], []),
        # an unpacking leaves its `_` positions unread; the sites must share one
        ([_RETURNS, "a, _ = f()\n"], ["f"]),
        ([_RETURNS, "a, _ = f()\nf()\n"], ["f"]),
        ([_RETURNS, "a, _ = f()\n_, b = f()\n"], []),
        ([_RETURNS, "a, _ = f()\na, b = f()\n"], []),
        ([_RETURNS, "a, *_ = f()\n"], []),
        # passing or storing the function by name reads it
        ([_RETURNS, "f()\nhandlers = [f]\n"], []),
        ([_RETURNS, "f()\ng(f)\n"], []),
        # methods match by name, through any object
        (["class A:\n    def m(self):\n        return 1\n", "a.m()\n"], ["A.m"]),
        (["class A:\n    def m(self):\n        return 1\n", "a.m()\nx = b.m()\n"], []),
        # no value: none returned, a bare return, return None, or only a nested one
        (["def f():\n    pass\n", "f()\n"], []),
        (["def f(x):\n    if x:\n        return\n    return None\n", "f(1)\n"], []),
        (["def f():\n    def g():\n        return 1\n    return\n", "f()\n"], []),
        (["def f(x):\n    if x:\n        return None\n    return x\n", "f(1)\n"], ["f"]),
        # unused functions are dead_names' to report, and dunders the interpreter's
        ([_RETURNS], []),
        (["class A:\n    def __len__(self):\n        return 1\n", "a.__len__()\n"], []),
    ],
)
def test_unread_returns_finds(sources, unread):
    assert unread_returns(sources) == unread


def test_exported_functions_and_classes_are_exempt_from_unread_returns():
    sources = [_RETURNS, "class A:\n    def m(self):\n        return 1\n", "f()\na.m()\n"]
    assert unread_returns(sources) == ["f", "A.m"]
    assert unread_returns(sources, exported=["f", "A"]) == []


_DEFAULTS = "def f(a, b=1, *, c=2):\n    pass\n"
_METHOD_DEFAULT = "class A:\n    def m(self, b=1):\n        pass\n"


@pytest.mark.parametrize(
    "sources, unset",
    [
        # a default no call passes is flagged, positional and keyword-only alike
        ([_DEFAULTS, "f(1)\n"], ["f(b)", "f(c)"]),
        ([_DEFAULTS], ["f(b)", "f(c)"]),
        # a call passes a parameter by position or by keyword
        ([_DEFAULTS, "f(1, 2)\n"], ["f(c)"]),
        ([_DEFAULTS, "f(1, b=2, c=3)\n"], []),
        ([_DEFAULTS, "f(1)\nf(1, 2, c=3)\n"], []),
        # only a keyword passes a keyword-only parameter
        (["def f(*args, c=2):\n    pass\n", "f(1, 2, 3)\n"], ["f(c)"]),
        # a call that unpacks `*` or `**` may pass any parameter
        ([_DEFAULTS, "f(*xs)\n"], []),
        ([_DEFAULTS, "f(1, **kw)\n"], []),
        # a method's self is passed by the call's object, not by position
        ([_METHOD_DEFAULT, "a.m()\n"], ["A.m(b)"]),
        ([_METHOD_DEFAULT, "a.m(2)\n"], []),
        (["class A:\n    @staticmethod\n    def m(a, b=1):\n        pass\n", "A.m(1)\n"], ["A.m(b)"]),
        (["class A:\n    @staticmethod\n    def m(a, b=1):\n        pass\n", "A.m(1, 2)\n"], []),
        # methods match by name, through any object
        ([_METHOD_DEFAULT, "a.m()\nb.m(b=2)\n"], []),
        # the class's name calls __init__ and __new__; other dunders are exempt
        (["class A:\n    def __init__(self, b=1):\n        pass\n", "A()\n"], ["A.__init__(b)"]),
        (["class A:\n    def __init__(self, b=1):\n        pass\n", "A(2)\n"], []),
        (["class A:\n    def __new__(cls, b=1):\n        pass\n", "A()\n"], ["A.__new__(b)"]),
        (["class A:\n    def __eq__(self, other=None):\n        pass\n"], []),
        # a parameter with no default is not this rule's
        (["def f(a):\n    pass\n", "f(1)\n"], []),
    ],
)
def test_unset_defaults_finds(sources, unset):
    assert unset_defaults(sources) == unset


def test_exported_functions_classes_and_console_scripts_keep_their_defaults():
    sources = [_DEFAULTS, _METHOD_DEFAULT, "def main(argv=None):\n    pass\n"]
    assert unset_defaults(sources) == ["f(b)", "f(c)", "A.m(b)", "main(argv)"]
    assert unset_defaults(sources, exported=["f", "A", "main"]) == []
    assert _console_scripts() == ["main"]


_TUPLE_DEFAULTS = "class T(NamedTuple):\n    a: int\n    b: int = 1\n    c: int = 2\n"


@pytest.mark.parametrize(
    "sources, unused",
    [
        # no construction relies on a default: each is flagged
        ([_TUPLE_DEFAULTS], ["T.b", "T.c"]),
        # a full `_tuple_new` tuple gives every field
        ([_TUPLE_DEFAULTS, "t = _tuple_new(T, (0, 1, 2))\n"], ["T.b", "T.c"]),
        # a call gives a field by position or by keyword, and relies on the rest
        ([_TUPLE_DEFAULTS, "t = T(0)\n"], []),
        ([_TUPLE_DEFAULTS, "t = T(0, 1)\n"], ["T.b"]),
        ([_TUPLE_DEFAULTS, "t = T(0, c=3)\n"], ["T.c"]),
        ([_TUPLE_DEFAULTS, "t = T(0, 1, 2)\nu = _tuple_new(T, (0, 1, 2))\n"], ["T.b", "T.c"]),
        # one construction that relies on a default keeps it
        ([_TUPLE_DEFAULTS, "t = _tuple_new(T, (0, 1, 2))\nu = T(0, 1)\n"], ["T.b"]),
        # a `*` or `**` call, or a read of the defaults, relies on every default
        ([_TUPLE_DEFAULTS, "t = T(*xs)\n"], []),
        ([_TUPLE_DEFAULTS, "t = T(0, 1, 2)\nu = T(0, **kw)\n"], []),
        ([_TUPLE_DEFAULTS, "keys = T._field_defaults.keys()\n"], []),
        # a field without a default is not this rule's
        (["class T(NamedTuple):\n    a: int\n", "t = _tuple_new(T, (0,))\n"], []),
    ],
)
def test_unused_field_defaults_finds(sources, unused):
    assert unused_field_defaults(sources) == unused


def test_exported_classes_keep_their_field_defaults():
    assert unused_field_defaults([_TUPLE_DEFAULTS], exported=["T"]) == []
