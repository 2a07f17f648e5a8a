"""The JSON document writer against the stdlib call it stands for.

Every JSON document the CLI writes is `document_text(doc)`, which must be
byte for byte `json.dumps(doc, indent=2, sort_keys=True) + "\\n"` of the
document with each `Records` list expanded into its dicts. It is one
writer on every Python version, so the checks below test the same code on
each. They need no pytest, so an interpreter without it runs them too:

    PYTHONPATH=src python3 tests/test_document_text.py
"""

import enum
import json
import random
import sys
import tempfile
from pathlib import Path
from unittest import mock

from watchtriage import cli, document, policy, simulator
from watchtriage.document import Records, document_text


class Colour(str, enum.Enum):
    RED = "red"


class Level(enum.IntEnum):
    HIGH = 3


class Record(dict):
    pass


class Rows(list):
    pass


VALUES = {
    "empty object": {},
    "empty list": [],
    "empty tuple": (),
    "nested empties": {"a": {}, "b": [], "c": [{}, [], [[]], ()], "d": {"e": {}}},
    "tuples": ("a", (1, (2, "b")), {"t": (True, None)}),
    "non-ASCII text": {"ssid": "카페_5G", "é": ["ü", "\U0001f600", " ﻿"]},
    "control characters": ["\x00\x01\x08\t\n\x0b\x0c\r\x1f\x7f", {"\x00key\n": "\x1b[0m"}],
    "quotes and backslashes": {'"quoted"': '"', "back\\slash": "\\\\", "/": "a/b\\/c\\\"d"},
    "bools and null": [True, False, None, {"t": True, "f": False, "n": None}],
    "large ints": [0, -1, -(2**63), -(10**40), 2**64, 10**30],
    "floats": [0.0, -0.0, 1.5, -2.25, 0.1, 1e-300, 1e300, 5e-324, 123456789.0,
               float("nan"), float("inf"), float("-inf")],
    "str enum": {"kind": Colour.RED, "kinds": [Colour.RED], Colour.RED: "as a key"},
    "int enum": {"level": Level.HIGH, "levels": [Level.HIGH, Level.HIGH]},
    "key order": {"b": 1, "a": {"d": 2, "c": 3}, "B": 0, "": -1, "ä": 4, "aa": [{"z": 1, "y": 2}]},
    "deep nesting": [[[[{"x": [1, {"y": [[], {"z": {"w": "deep"}}]}]}]]]],
    "one key at many depths": {"k": {"k": {"k": [{"k": "v"}, {"k": {}}]}}},
    "one key set in two insertion orders": [{"a": 1, "b": [2], "c": "x"}, {"c": "y", "a": 3, "b": []}],
    "one key tuple at two depths": [{"a": 1, "b": {"a": 2, "b": {"a": [{"a": 3, "b": 4}], "b": None}}}],
    "str-enum key beside its plain str key": [
        {Colour.RED: 1, "b": 2}, {"red": "x", "b": 3}, {"red": 4}, {Colour.RED: 5}],
    "bools and ints under one shape": [
        {"n": 1, "b": True}, {"n": True, "b": 1}, {"n": 0, "b": False}, {"n": False, "b": 0}],
    "dict and list subclasses": Record(b=Rows([1, Record(), Rows(), Record(z=Rows(["r"]))]), a=Record(b=2, a=1)),
    "records of str and int columns": Records(
        ("b", "a", "%s key", "é"),
        [["x", "é\n", '"q"'], [1, -2, 10**30], ["%s", "%%", "100%"], ["\x00\x1f|\\", "\U0001f600", ""]]),
    "records with mixed columns": Records(
        ("n", "v", "e"),
        [[None, "s", 1], [True, 1.5, {"k": [1, Records(("z",), [[1, 2]])]}], [Colour.RED, Level.HIGH, 0]]),
    "records of bools beside ints": Records(("t", "i"), [(True, False), (1, 0)]),
    "one key tuple's column as int, str, bool and int enum in turn": [
        Records(("n", "s"), [[1, -2, 10**19], ["a", "%d"]]),
        Records(("n", "s"), [["1", "%d"], ["a", "b"]]),
        Records(("n", "s"), [[True, False], ["a", "b"]]),
        Records(("n", "s"), [[Level.HIGH, Level.HIGH], ["a", "b"]]),
        Records(("n", "s"), [[-(10**20) + 1], ["c"]]),
        {"n": 1, "s": "d"},
    ],
    "empty records": {"r": Records(("a", "b"), [[], []]), "s": [Records(("a",), [()])]},
    "records beside dicts of their keys": {
        "d": [{"a": 1, "b": "x"}], "r": Records(("b", "a"), [["y"], [2]]), "t": [[Records(("a", "b"), [[3], [4]])]]},
    "top-level records": Records(("k",), [["v", "w"]]),
    "top-level string": "text",
    "top-level int": -7,
    "top-level float": 2.5,
    "top-level null": None,
    "top-level bool": True,
}


def expanded(obj):
    """`obj` in its fully expanded dict form: each `Records` list replaced
    by its dicts, at any depth."""
    if isinstance(obj, Records):
        obj = list(obj)
    if isinstance(obj, dict):
        return {key: expanded(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [expanded(value) for value in obj]
    return obj


def stdlib_text(obj) -> str:
    """The stdlib's indented dump of `obj` in its fully expanded dict form."""
    return json.dumps(expanded(obj), indent=2, sort_keys=True) + "\n"


def test_writer_matches_the_stdlib_on_every_kind_of_value():
    for name, value in VALUES.items():
        assert document_text(value) == stdlib_text(value), name


def test_writer_rejects_a_key_that_is_not_a_string():
    for value in ({1: "a"}, {"a": [{None: 1}]}):
        try:
            document_text(value)
        except TypeError:
            continue
        raise AssertionError(f"no TypeError for {value!r}")


def test_writer_raises_recursion_error_on_a_document_that_contains_itself():
    looped_dict, looped_list = {"a": 1}, [1]
    looped_dict["self"] = [looped_dict]
    looped_list.append({"self": looped_list})
    for value in (looped_dict, looped_list):
        try:
            document_text(value)
        except RecursionError:
            continue
        raise AssertionError("no RecursionError for a document that contains itself")


def random_int(rng: random.Random) -> int:
    """Most often a small int, else one of 19 or 20 digits, of either sign."""
    if rng.random() < 0.7:
        return rng.randrange(-3, 3)
    return rng.choice((1, -1)) * rng.randrange(10**18, 10**20)


def random_document(rng: random.Random, depth: int = 0):
    """A random JSON value; its dicts draw from four keys, so that dicts
    with one key set, in one or another insertion order, recur at many
    depths."""
    roll = rng.random()
    if depth < 4 and roll < 0.1:
        keys = tuple(rng.sample(["a", "b", "é", "%s"], rng.randrange(1, 5)))
        rows = rng.randrange(4)
        columns = [[random_document(rng, depth + 2) for _ in range(rows)] if rng.random() < 0.5
                   else [rng.choice(["", "x", "é\n", "%"]) if kind is str else random_int(rng)
                         for _ in range(rows)] for kind in rng.choices((str, int), k=len(keys))]
        return Records(keys, columns)
    if depth < 4 and roll < 0.3:
        keys = rng.sample(["a", "b", "é", Colour.RED], rng.randrange(5))
        return (Record if rng.random() < 0.1 else dict)((key, random_document(rng, depth + 1)) for key in keys)
    if depth < 4 and roll < 0.45:
        items = [random_document(rng, depth + 1) for _ in range(rng.randrange(4))]
        return rng.choice((list, tuple, Rows))(items)
    return rng.choice((
        random_int(rng), rng.random() < 0.5, None, rng.choice(["", "x", "é\n", "\"q\""]),
        rng.choice([0.5, -0.0, float("inf")]), Level.HIGH, Colour.RED,
    ))


def test_writer_matches_the_stdlib_on_random_documents():
    rng = random.Random(20231019)
    for _ in range(3000):
        value = random_document(rng)
        assert document_text(value) == stdlib_text(value), repr(value)


def test_writer_keeps_no_state_between_documents():
    # One key tuple at two depths, written in both orders in turn.
    shallow = [{"a": 1, "b": "x"}]
    deep = {"a": [{"a": 2, "b": None}], "b": {"b": True, "a": {}}}
    for value in (shallow, deep, shallow, deep):
        assert document_text(value) == stdlib_text(value)


def test_writer_rejects_what_the_stdlib_rejects():
    for value in ({"a": object()}, [b"bytes"], {"s": {1, 2}}, Records(("a", "b"), [["x"], [object()]])):
        try:
            document_text(value)
        except TypeError as exc:
            assert "is not JSON serializable" in str(exc)
            continue
        raise AssertionError(f"no TypeError for {value!r}")


def test_document_text_never_hands_a_document_to_the_indenting_encoder():
    # On every Python version the writer makes the text, the stdlib's
    # indented dump all the same; it calls `json.dumps` only for a lone
    # value it does not write inline, such as a float.
    names = ("key order", "records with mixed columns", "records of bools beside ints", "floats")
    expected = {name: stdlib_text(VALUES[name]) for name in names}
    with mock.patch.object(json, "dumps", wraps=json.dumps) as dumps:
        for name in names:
            assert document_text(VALUES[name]) == expected[name], name
    assert dumps.called and not any(call.kwargs for call in dumps.call_args_list)


def cli_outputs(commands, writer) -> dict[str, bytes]:
    """Every file the CLI writes under `tmp/<name>` for each command of
    `commands(tmp)`, by path, with `writer` making its JSON document, which
    each command writes exactly one of."""
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(document, "document_text", wraps=writer) as spy:
        for name, argv in commands(Path(tmp)).items():
            root = Path(tmp) / name
            root.mkdir(exist_ok=True)
            spy.reset_mock()
            assert cli.main(argv) in (0, 1), name
            assert spy.call_count == 1, name
            outputs.update((str(p.relative_to(tmp)), p.read_bytes()) for p in sorted(root.rglob("*")) if p.is_file())
    return outputs


def generate_commands(tmp: Path) -> dict:
    """`generate` for every preset and seeds 0-19, and `parse`, `correlate`
    and `report --format json` on each preset's bundle."""
    commands = {}
    for preset in sorted(simulator.PRESETS):
        bundle = tmp / f"generate-{preset}"
        host = ["--host-artifacts", str(bundle / "host_artifacts")] if simulator.PRESETS[preset]().host_side else []
        commands[bundle.name] = ["generate", "--preset", preset, "--out", str(bundle)]
        for command, extra in (("parse", []), ("correlate", host), ("report", [*host, "--format", "json"])):
            out = tmp / f"{command}-{preset}" / "out.json"
            commands[out.parent.name] = [command, "--bundle", str(bundle), *extra, "--out", str(out)]
    for seed in range(20):
        commands[f"generate-seed{seed}"] = ["generate", "--seed", str(seed), "--out", str(tmp / f"generate-seed{seed}")]
    return commands


def audit_commands(tmp: Path) -> dict:
    """`audit --format json` on a JSON inventory and on a directory of manifests."""
    inventory = tmp / "inventory.json"
    inventory.write_text(json.dumps([
        {"package": "com.watch.ok", "uses_features": [policy.WATCH_FEATURE], "declared_abis": ["armeabi-v7a"]},
        {"package": "com.watch.x86", "uses_features": [policy.WATCH_FEATURE], "declared_abis": ["x86_64"]},
        {"package": "com.phone.카메라", "uses_features": ["android.hardware.camera"]},
        {"package": 'com.phone."quoted"\\app', "declared_abis": []},
    ]), encoding="utf-8")
    manifests = tmp / "manifests"
    manifests.mkdir()
    (manifests / "broken.xml").write_text("<manifest", encoding="utf-8")
    (manifests / "watch.xml").write_text(
        f'<manifest package="com.watch.xml"><uses-feature name="{policy.WATCH_FEATURE}"/></manifest>',
        encoding="utf-8")
    return {
        name: ["audit", "--manifests", str(source), "--device-abi", "armeabi-v7a", "--format", "json",
               "--out", str(tmp / name / "audit.json")]
        for name, source in (("audit-inventory", inventory), ("audit-directory", manifests))
    }


def test_cli_json_outputs_match_the_stdlib():
    for commands in (generate_commands, audit_commands):
        written = cli_outputs(commands, document_text)
        expected = cli_outputs(commands, stdlib_text)
        assert written.keys() == expected.keys()
        assert any(name.endswith(".json") for name in written)
        for name in written:
            assert written[name] == expected[name], name


if __name__ == "__main__":
    tests = [(name, f) for name, f in sorted(globals().items()) if name.startswith("test_") and callable(f)]
    for name, test in tests:
        test()
        print(f"ok {name}")
    print(f"{len(tests)} passed under Python {sys.version.split()[0]}")
