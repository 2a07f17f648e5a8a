"""Seeded single-edit mutations of the preset bundles through the CLI.

Each case damages one file of a generated preset bundle (a raw dump, a host
artifact or manifest.json) by one edit and runs `verify`, `parse`,
`correlate` and `report --format json` on it in process. An edited dump no
longer matches its digest, so the analysis commands stop at the integrity
check; the case then seals the edit and runs them again, so the parsers
read it. Whatever the damage, no exception may escape `cli.main`, every
exit code is 0, 1 or 2, and every fourth case is run twice and must repeat
its exit code, stdout and stderr exactly.

Growth cases lengthen one number of each input kind to more digits than
any number field holds, sealing a grown dump: the line or entry that holds
it must be dropped with a warning, and every output must be the same
whatever the interpreter's integer digit limit.
"""

import contextlib
import io
import json
import random
import re
import shutil
import sys

import pytest

from tests.conftest import reseal
from watchtriage import simulator
from watchtriage.cli import main

MUTATIONS = 200
RERUN_EVERY = 4
NON_ASCII_DIGITS = ("٣", "３", "੩")  # Arabic-Indic, fullwidth and Gurmukhi three


def _insert(text: bytes):
    return lambda data, rng: _spliced(data, rng.randrange(len(data) + 1), 0, text)


def _spliced(data: bytes, at: int, drop: int, text: bytes) -> bytes:
    return data[:at] + text + data[at + drop:]


def _bit_flip(data, rng):
    at = rng.randrange(len(data))
    return _spliced(data, at, 1, bytes([data[at] ^ 1 << rng.randrange(8)]))


def _truncate(data, rng):
    return data[:rng.randrange(len(data))]


def _delete_line(data, rng):
    lines = data.splitlines(keepends=True)
    del lines[rng.randrange(len(lines))]
    return b"".join(lines)


def _double_line(data, rng):
    lines = data.splitlines(keepends=True)
    i = rng.randrange(len(lines))
    return b"".join(lines[:i + 1] + lines[i:])


def _nest(data, rng):
    # At a line start, so a one-line JSON file opens 100,000 nested lists.
    starts = [0] + [i + 1 for i, byte in enumerate(data[:-1]) if byte == 0x0A]
    return _spliced(data, rng.choice(starts), 0, b"[" * 100_000)


def _non_ascii_digit(data, rng):
    digits = [i for i, byte in enumerate(data) if 0x30 <= byte <= 0x39]
    return _spliced(data, rng.choice(digits), 1, rng.choice(NON_ASCII_DIGITS).encode())


EDITS = {
    "bit-flip": _bit_flip,
    "truncate": _truncate,
    "delete-line": _delete_line,
    "double-line": _double_line,
    "non-ascii-digit": _non_ascii_digit,
    "insert-cr": _insert(b"\r"),
    "insert-vt": _insert(b"\x0b"),
    "insert-quote": _insert(b'"'),
    "insert-brackets": _nest,
}


@pytest.fixture(scope="module")
def presets(tmp_path_factory):
    root = tmp_path_factory.mktemp("presets")
    with contextlib.redirect_stdout(io.StringIO()):
        for name in simulator.PRESETS:
            assert main(["generate", "--preset", name, "--out", str(root / name)]) == 0
    return root


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("seed", range(MUTATIONS))
def test_one_edit_never_escapes_the_cli(seed, presets):
    rng = random.Random(seed)
    preset = sorted(simulator.PRESETS)[seed % len(simulator.PRESETS)]
    edit = sorted(EDITS)[seed // len(simulator.PRESETS) % len(EDITS)]
    bundle = presets / preset
    target = rng.choice(sorted(p for p in bundle.rglob("*") if p.is_file() and p.name != "scenario.json"))
    intact, manifest = target.read_bytes(), (bundle / "manifest.json").read_bytes()
    target.write_bytes(EDITS[edit](intact, rng))
    host = ["--host-artifacts", str(bundle / "host_artifacts")] if (bundle / "host_artifacts").is_dir() else []
    argvs = (
        ["verify", "--bundle", str(bundle)],
        ["parse", "--bundle", str(bundle)],
        ["correlate", "--bundle", str(bundle), *host],
        ["report", "--bundle", str(bundle), *host, "--format", "json"],
    )
    try:
        for argv in argvs:
            first = _run(argv)
            assert first[0] in (0, 1, 2), (edit, target.name, argv[0], first)
            if target.parent.name == "raw" and argv[0] != "verify":  # every edit changes the dump's digest
                assert first[0] == 1 and not first[1] and "integrity failure: " in first[2], (edit, target.name, argv[0])
            if seed % RERUN_EVERY == 0:
                assert _run(argv) == first, (edit, target.name, argv[0])
        if target.parent.name == "raw":
            reseal(bundle)
            for argv in argvs[1:]:
                first = _run(argv)
                assert first[0] in (0, 1, 2), (edit, target.name, "sealed", argv[0], first)
                if seed % RERUN_EVERY == 0:
                    assert _run(argv) == first, (edit, target.name, "sealed", argv[0])
    finally:
        target.write_bytes(intact)  # every case shares the preset bundles
        (bundle / "manifest.json").write_bytes(manifest)


GROWTH_DIGITS = (20, 4301, 5000)
DIGIT_LIMITS = (0, 4300)  # unlimited, and the interpreter's default
# Input kind -> (bundle, file, the number whose digits grow, the dump source
# or host file a warning names). "text" is the case-study preset's bundle;
# "jsonl" the same bundle with its dumps in the JSON-lines form.
GROWTH_SITES = {
    "usagestats count": ("text", "raw/usagestats.txt", rb"totalCount=([0-9]+)", "usagestats"),
    "usagestats time": ("text", "raw/usagestats.txt", rb' time="([0-9]+)-', "usagestats"),
    "netstats st": ("text", "raw/netstats.txt", rb"st=([0-9]+)", "netstats"),
    "netstats counter": ("text", "raw/netstats.txt", rb"rb=([0-9]+)", "netstats"),
    "netstats duration": ("text", "raw/netstats.txt", rb"bucketDuration=([0-9]+)", "netstats"),
    "network_stack time": ("text", "raw/network_stack.txt", rb' time="([0-9]+)-', "network_stack"),
    "jsonl usagestats at": ("jsonl", "raw/usagestats.txt", rb'"at": ([0-9]+)', "usagestats"),
    "jsonl usagestats count": ("jsonl", "raw/usagestats.txt", rb'"use_count": ([0-9]+)', "usagestats"),
    "jsonl netstats counter": ("jsonl", "raw/netstats.txt", rb'"tb": ([0-9]+)', "netstats"),
    "jsonl network_stack at": ("jsonl", "raw/network_stack.txt", rb'"lease", "at": ([0-9]+)', "network_stack"),
    "filezilla port": ("text", "host_artifacts/recentservers.xml", rb"<Port>([0-9]+)</Port>", "recentservers.xml"),
    "known_hosts port": ("text", "host_artifacts/known_hosts", rb"\]:([0-9]+) ", "known_hosts"),
}
RECORDS = {
    "usagestats": lambda doc: len(doc["usagestats"]["events"]) + len(doc["usagestats"]["aggregates"]),
    "netstats": lambda doc: len(doc["netstats"]),
    "network_stack": lambda doc: len(doc["network_stack"]["leases"]),
}


@pytest.fixture(scope="module")
def growth_bundles(presets, tmp_path_factory):
    """The case-study bundle as text dumps, and as JSON-lines dumps written
    from its own parse document."""
    root = tmp_path_factory.mktemp("growth")
    text, jsonl = root / "text", root / "jsonl"
    shutil.copytree(presets / "case-study", text)
    shutil.copytree(text, jsonl)
    doc = json.loads(_run(["parse", "--bundle", str(text)])[1])
    usage, stack = doc["usagestats"], doc["network_stack"]
    boot = stack["boot_epoch_marker"]
    rows = {
        "usagestats": [{"record": "event", "at": e["at"], "package": e["package"], "event_type": e["event_type"]}
                       for e in usage["events"]]
        + [{"record": "aggregate", "window": a["window"], "package": a["package"], "last_used": a["last_used"],
            "use_count": a["use_count"]} for a in usage["aggregates"]],
        "netstats": [{k: r[k] for k in ("network_id", "st", "rb", "rp", "tb", "tp")} for r in doc["netstats"]],
        "network_stack": ([] if boot is None else [{"record": "boot", "at": boot}])
        + [{"record": "lease", **lease} for lease in stack["leases"]],
    }
    for name, dump in rows.items():
        (jsonl / "raw" / f"{name}.txt").write_text("".join(json.dumps(row) + "\n" for row in dump))
    reseal(jsonl)
    assert json.loads(_run(["parse", "--bundle", str(jsonl)])[1])["warnings"] == doc["warnings"] == []
    return {"text": text, "jsonl": jsonl}


def _outputs(bundle):
    """(exit code, stdout, stderr) of `parse` and of `correlate` with the
    bundle's host artifacts, under each digit limit."""
    argvs = (["parse", "--bundle", str(bundle)],
             ["correlate", "--bundle", str(bundle), "--host-artifacts", str(bundle / "host_artifacts")])
    if not hasattr(sys, "set_int_max_str_digits"):  # before 3.10.7 there is no limit, so one behaviour
        return [[_run(argv) for argv in argvs]] * len(DIGIT_LIMITS)
    limit = sys.get_int_max_str_digits()
    try:
        runs = []
        for digits in DIGIT_LIMITS:
            sys.set_int_max_str_digits(digits)
            runs.append([_run(argv) for argv in argvs])
    finally:
        sys.set_int_max_str_digits(limit)
    return runs


@pytest.mark.parametrize("digits", GROWTH_DIGITS)
@pytest.mark.parametrize("site", sorted(GROWTH_SITES))
def test_a_grown_number_drops_its_line_whatever_the_digit_limit(site, digits, growth_bundles):
    form, name, field, source = GROWTH_SITES[site]
    bundle = growth_bundles[form]
    target = bundle / name
    intact, manifest = target.read_bytes(), (bundle / "manifest.json").read_bytes()
    (before_parse, before_correlate), _ = _outputs(bundle)
    m = re.search(field, intact)
    assert m, site
    run = m.group(1)
    target.write_bytes(intact[:m.start(1)] + b"1" * (digits - len(run)) + run + intact[m.end(1):])
    try:
        if source in RECORDS:
            reseal(bundle)
        runs = _outputs(bundle)
    finally:
        target.write_bytes(intact)
        (bundle / "manifest.json").write_bytes(manifest)
    assert runs[0] == runs[1], site  # the same bytes under each digit limit
    (code, out, _), (correlate_code, correlate_out, _) = runs[0]
    assert code == before_parse[0] == 0 and correlate_code in (0, 1), site
    if source in RECORDS:
        doc, before = json.loads(out), json.loads(before_parse[1])
        line = intact[:m.start()].count(b"\n") + 1
        assert [w for w in doc["warnings"] if w.startswith(f"{source}: line {line}: ")], site
        assert RECORDS[source](doc) < RECORDS[source](before), site
    else:
        warnings = json.loads(correlate_out)["warnings"]
        new = [w for w in warnings if w not in json.loads(before_correlate[1])["warnings"]]
        assert len(new) == 1 and source in new[0] and new[0].endswith("skipped"), (site, new)
