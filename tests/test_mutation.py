"""Seeded single-edit mutations of the preset bundles through the CLI.

Each case damages one file of a generated preset bundle (a raw dump, a host
artifact or manifest.json) by one edit and runs `verify`, `parse`,
`correlate` and `report --format json` on it in process. Whatever the
damage, no exception may escape `cli.main`, every exit code is 0, 1 or 2,
and every fourth case is run twice and must repeat its exit code, stdout
and stderr exactly.
"""

import contextlib
import io
import random

import pytest

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
    intact = target.read_bytes()
    target.write_bytes(EDITS[edit](intact, rng))
    host = ["--host-artifacts", str(bundle / "host_artifacts")] if (bundle / "host_artifacts").is_dir() else []
    try:
        for argv in (
            ["verify", "--bundle", str(bundle)],
            ["parse", "--bundle", str(bundle)],
            ["correlate", "--bundle", str(bundle), *host],
            ["report", "--bundle", str(bundle), *host, "--format", "json"],
        ):
            first = _run(argv)
            assert first[0] in (0, 1, 2), (edit, target.name, argv[0], first)
            if seed % RERUN_EVERY == 0:
                assert _run(argv) == first, (edit, target.name, argv[0])
    finally:
        target.write_bytes(intact)  # every case shares the preset bundles
