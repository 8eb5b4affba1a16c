"""Fuzz targets for the inputs the CLI and the vector record reader accept.

Every input either works or fails with its documented error: `akasim run`
returns 0, 2, 3 or 64, `akasim check-vectors` returns 0, 1 or 64, neither
raises, and `parse_vector_line` raises nothing but `MalformedInputError`.
"""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from akasim import cli
from akasim.crypto_suite import _is_int, parse_vector_line
from akasim.errors import MalformedInputError
from akasim.harness import StepKind
from akasim.network_side import MAX_BATCH

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = [path.read_text() for path in sorted(CONFIGS.glob("*.json"))]


class _Object(list):
    """A JSON object as its [key, value] pairs, so a key can appear twice."""


def _load(text: str):
    return json.loads(text, object_pairs_hook=lambda pairs: _Object(map(list, pairs)))


def _dump(node) -> str:
    if isinstance(node, _Object):
        return "{" + ",".join(json.dumps(key) + ":" + _dump(value) for key, value in node) + "}"
    if isinstance(node, list):
        return "[" + ",".join(_dump(value) for value in node) + "]"
    return json.dumps(node)


def _slots(node):
    """Every (container, index) in the tree, for objects and arrays alike."""
    if isinstance(node, list):
        for index, item in enumerate(node):
            yield node, index
            yield from _slots(item[1] if isinstance(node, _Object) else item)


def _get(container, index):
    return container[index][1] if isinstance(container, _Object) else container[index]


def _set(container, index, value):
    if isinstance(container, _Object):
        container[index][1] = value
    else:
        container[index] = value


# ints at and just past every edge the loader knows; the caps themselves
# are loaded and run, the values above them are refused before allocation
_EDGE_INTS = [0, 1, -1, MAX_BATCH, MAX_BATCH + 1, 2**31, 2**48 - 1, 2**48, 2**64 - 1, 2**64, -(2**64)]
_OTHER_VALUES = [None, True, False, 0, -1, 1.5, "", "x", "ENHANCED", "001010000000001", [], _Object()]
_OPS = [kind.value for kind in StepKind]
_MUTATIONS = ("drop", "retype", "duplicate", "edge", "swap", "op")


def _mutate(data, tree) -> None:
    kind = data.draw(st.sampled_from(_MUTATIONS))
    slots = list(_slots(tree))
    if kind == "edge":
        slots = [(c, i) for c, i in slots if _is_int(_get(c, i))]
    elif kind == "swap":
        slots = [(c, i) for c, i in slots if i + 1 < len(c)]
    elif kind == "op":
        slots = [(c, i) for c, i in slots if isinstance(c, _Object) and c[i][0] == "op"]
    if not slots:
        return
    container, index = data.draw(st.sampled_from(slots))
    if kind == "drop":
        del container[index]
    elif kind == "retype":
        _set(container, index, copy.deepcopy(data.draw(st.sampled_from(_OTHER_VALUES))))
    elif kind == "duplicate":
        container.insert(index + 1, copy.deepcopy(container[index]))
    elif kind == "edge":
        _set(container, index, data.draw(st.sampled_from(_EDGE_INTS)))
    elif kind == "swap":
        container[index], container[index + 1] = container[index + 1], container[index]
    else:
        _set(container, index, data.draw(st.sampled_from(_OPS)))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), text=st.sampled_from(SHIPPED), summary=st.booleans())
def test_mutated_shipped_config_exits_with_a_documented_code(workdir, data, text, summary):
    tree = _load(text)
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, tree)
    config = workdir / "config.json"
    config.write_text(_dump(tree))
    argv = ["run", "--config", str(config), "--trace-out", str(workdir / "trace")]
    assert cli.main(argv + ["--summary-json"] * summary) in (0, 2, 3, 64)


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000, '{"seed": ' + "7" * 5000 + "}"],
    ids=["nested_100k", "int_5000_digits"],
)
def test_config_json_the_decoder_refuses_exits_64(workdir, capsys, text):
    config = workdir / "undecodable.json"
    config.write_text(text)
    assert cli.main(["run", "--config", str(config)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


_HEX = "0123456789abcdef"
_VECTOR_FIELDS = {
    "op": ["f1_mac", "a5_keystream", "derive_subscriber_keys", "f9_mac", "F1_MAC", ""],
    # a5_keystream's cipher tag and keystream length
    "tag": ["a1", "a2", "a3", "a4", "00", "ff", "a"],
    "length": ["00000000", "00000010", "00010000", "7fffffff", "ffffffff", "ffffffffff"],
}
_VECTOR_MUTATIONS = ("flip", "drop", "duplicate", "op", "tag", "length", "line")


@pytest.fixture(scope="module")
def vector_lines(workdir):
    path = workdir / "generated.txt"
    assert cli.main(["gen-vectors", "--out", str(path), "--seed", "7", "--count", "2"]) == 0
    return path.read_text().splitlines()


def _mutate_record(data, lines: list[str]) -> None:
    kind = data.draw(st.sampled_from(_VECTOR_MUTATIONS))
    indices = range(len(lines))
    if kind in ("tag", "length"):
        indices = [i for i in indices if lines[i].startswith("a5_keystream ")]
    if not indices:
        return
    index = data.draw(st.sampled_from(indices))
    if kind == "line":
        if data.draw(st.booleans()):
            lines.insert(index, lines[index])
        else:
            del lines[index]
        return
    fields = lines[index].split(" ")
    at = data.draw(st.integers(0, len(fields) - 1))
    if kind == "flip":
        chars = list(fields[at])
        if chars:
            char = data.draw(st.sampled_from(_HEX + "G "))
            chars[data.draw(st.integers(0, len(chars) - 1))] = char
        fields[at] = "".join(chars)
    elif kind == "drop":
        del fields[at]
    elif kind == "duplicate":
        fields.insert(at, fields[at])
    else:
        # the op leads a record; an a5_keystream record's tag and length
        # are its first and fourth inputs
        at = {"op": 0, "tag": 1, "length": 4}[kind]
        if at < len(fields):
            fields[at] = data.draw(st.sampled_from(_VECTOR_FIELDS[kind]))
    lines[index] = " ".join(fields)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_vector_file_exits_0_1_or_64(workdir, vector_lines, data):
    lines = list(vector_lines)
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate_record(data, lines)
    path = workdir / "vectors.txt"
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["check-vectors", "--vectors", str(path)]) in (0, 1, 64)


_VECTOR_TOKENS = st.sampled_from(
    ["f1_mac", "a5_keystream", "->", "#", "00", "0f" * 8, "AB", "zz", "٠", " ", "\t", "-", ">", ""]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_VECTOR_TOKENS, max_size=8).map(" ".join) | st.text())
def test_vector_line_parses_or_is_malformed(line):
    try:
        record = parse_vector_line(line)
    except MalformedInputError:
        return
    if record is not None:
        op, inputs, output = record
        assert op and "->" not in op
        assert all(set(field) <= set(_HEX) for field in inputs + [output])
