"""Byte-identity of the user-facing outputs on the five presets.

The findings JSON and both report formats are the behavioural contract: a
refactor behind them must leave every byte alone. Each digest below is the
sha256 of the output as the CLI writes it, with the preset's host artifacts
and the default display zone. A change that means to alter these outputs
updates the digests in the same commit and says why.
"""

import hashlib
import os

import pytest

from watchtriage import simulator
from watchtriage.cli import ENV_PREFIX, main

OUTPUTS = {
    "correlate": ["correlate"],
    "report.md": ["report", "--format", "md", "--display-zone", "Asia/Seoul"],
    "report.json": ["report", "--format", "json", "--display-zone", "Asia/Seoul"],
}

GOLDEN = {
    "ambiguous": {
        "correlate": "943d0ea3d97e51abf15845a4a3905e67c81702d2273151a800ba7ee408edb35a",
        "report.md": "70f7bc0bea1b36ad66a191f814b6547ef3ad305f28946ab51b022be1e9a6bfdb",
        "report.json": "309a82bd1fe0b50856d8ef383db25db83f594fa26849f32c6ca9fd9879d2c41a",
    },
    "camera": {
        "correlate": "78b1d0337b72435cfe40c5ae63cdfdaf0d84eddb44d7ffe2af8bc5b2e05b8bdf",
        "report.md": "cdf97784ed0b58ca9e1600524b928fb36bbcacb4e47f9c747da3fb969996ec7a",
        "report.json": "1e7d8e950bb743e67bcee43f2814a8309aa3d915e7921fa7fa1d87b0ed8fd869",
    },
    "case-study": {
        "correlate": "8b8eb347c147266ba783b9bc6b2f51e5d1a2069779719582af74e8a85d59a940",
        "report.md": "c308e0fd349cf7de644c84f34537bc59e649852432c48d5cba18b5617b901a4c",
        "report.json": "4857b8e6003c3cb23e2ed70688bb87245341b55ce3d7ed7c06d3c84f44ba0163",
    },
    "ftp": {
        "correlate": "9784f380acd7a2be4c2930281a0e7795ac3f6a2e250de07352cc0fbe384fbf94",
        "report.md": "fba3ef3ab9e7940231a8f65ff785255f9687c9c8fcaea2bff11026947f6427eb",
        "report.json": "cb749bd7d6069c640880f43bd7656784e7b1c79d56c6f7c46f48b2ceacdbce4c",
    },
    "sftp": {
        "correlate": "1d50df09aa64bbd9c77d27696f1a2d5396896e3bd1fa3eea2f3221dab0b2ce3d",
        "report.md": "a968d7e3ac98b9463ad81eba1c5f5ecd402fa0adafc61c3c0452ec961b8af3fb",
        "report.json": "0adc81027791c7f9b42e459fac945d2cfe2d242d03b817b07704e0c01df408c4",
    },
}


def output_digests(preset, tmp_path):
    bundle = tmp_path / preset
    assert main(["generate", "--preset", preset, "--out", str(bundle)]) == 0
    host = bundle / "host_artifacts"
    host_args = ["--host-artifacts", str(host)] if host.is_dir() else []
    digests = {}
    for name, command in OUTPUTS.items():
        out = tmp_path / f"{preset}.{name}"
        assert main([*command, "--bundle", str(bundle), *host_args, "--out", str(out)]) in (0, 1)
        digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("preset", sorted(simulator.PRESETS))
def test_outputs_are_byte_identical(preset, tmp_path, monkeypatch):
    for name in list(os.environ):
        if name.startswith(ENV_PREFIX):
            monkeypatch.delenv(name)
    assert output_digests(preset, tmp_path) == GOLDEN[preset]
