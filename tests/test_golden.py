"""Byte-identity of the user-facing outputs on the five presets.

The parse JSON, the findings JSON and both report formats are the
behavioural contract: a refactor behind them must leave every byte alone.
Each digest below is the sha256 of the output as the CLI writes it, with the
preset's host artifacts (except for `parse`, which reads the bundle alone).
The reports are rendered in the default display zone and in
America/New_York, so a rendering path that ignores the zone fails here. A
change that means to alter these outputs updates the digests in the same
commit and says why.
"""

import hashlib

import pytest

from watchtriage import simulator
from watchtriage.cli import main

OUTPUTS = {
    "parse": ["parse"],
    "correlate": ["correlate"],
    "report.md": ["report", "--format", "md", "--display-zone", "Asia/Seoul"],
    "report.json": ["report", "--format", "json", "--display-zone", "Asia/Seoul"],
    "report.md.new_york": ["report", "--format", "md", "--display-zone", "America/New_York"],
    "report.json.new_york": ["report", "--format", "json", "--display-zone", "America/New_York"],
}

GOLDEN = {
    "ambiguous": {
        "parse": "8ddd834ffca3b6eebfa604439de42a930396b91a83025b9019ce1689ae5c067e",
        "correlate": "943d0ea3d97e51abf15845a4a3905e67c81702d2273151a800ba7ee408edb35a",
        "report.md": "70f7bc0bea1b36ad66a191f814b6547ef3ad305f28946ab51b022be1e9a6bfdb",
        "report.json": "309a82bd1fe0b50856d8ef383db25db83f594fa26849f32c6ca9fd9879d2c41a",
        "report.md.new_york": "8cbeeadd8f684fa792ec3ce299ab78736f88db69cd6cd85d45667e43113ac106",
        "report.json.new_york": "8f795c9a9b02fe6a1d690b432a127f022ee5369815a0d4148e45c3ace5fd06d4",
    },
    "camera": {
        "parse": "6c5068e82d7d1169716d51225bcb64df73d3ad9c3488207049173016f6adbc69",
        "correlate": "78b1d0337b72435cfe40c5ae63cdfdaf0d84eddb44d7ffe2af8bc5b2e05b8bdf",
        "report.md": "cdf97784ed0b58ca9e1600524b928fb36bbcacb4e47f9c747da3fb969996ec7a",
        "report.json": "1e7d8e950bb743e67bcee43f2814a8309aa3d915e7921fa7fa1d87b0ed8fd869",
        "report.md.new_york": "97ba9722a3c72d760ba634460ddd840ff2543c840f1685f87c91717ec441c618",
        "report.json.new_york": "cbc66afde7b4b320f40f17ebd83d8e6c164c88fef90e1d144d91255ace9c4e22",
    },
    "case-study": {
        "parse": "c3cd90d9a6b1048ce683fbe8e1c913bf9396a0dd03b53ae93b090287025f3e76",
        "correlate": "8b8eb347c147266ba783b9bc6b2f51e5d1a2069779719582af74e8a85d59a940",
        "report.md": "c308e0fd349cf7de644c84f34537bc59e649852432c48d5cba18b5617b901a4c",
        "report.json": "4857b8e6003c3cb23e2ed70688bb87245341b55ce3d7ed7c06d3c84f44ba0163",
        "report.md.new_york": "2a6000e5ca1b3a8598e13b1c632f58a11fb781d1b986e1245a59392f1dabd5fe",
        "report.json.new_york": "f525f6550739d8fe21335d7386e056bb663033ff606635aa54c3145a3a44e824",
    },
    "ftp": {
        "parse": "dc79d68a3fc20078f903933a25072fedb9e75810e47471a28bbe438993ab191d",
        "correlate": "9784f380acd7a2be4c2930281a0e7795ac3f6a2e250de07352cc0fbe384fbf94",
        "report.md": "fba3ef3ab9e7940231a8f65ff785255f9687c9c8fcaea2bff11026947f6427eb",
        "report.json": "cb749bd7d6069c640880f43bd7656784e7b1c79d56c6f7c46f48b2ceacdbce4c",
        "report.md.new_york": "95313bfd41eb66a036a844b2fa0254d1b77ac1aae1b46a6bc1b78cddc470a0aa",
        "report.json.new_york": "1445c5f44096c465e8b7b0cc005ac229dd2222967a2ac328270bf793e869766e",
    },
    "sftp": {
        "parse": "8dc992891690ba6cb4ac9e15c265696cd3fa2569de65e8a163b2c482e9bfda90",
        "correlate": "1d50df09aa64bbd9c77d27696f1a2d5396896e3bd1fa3eea2f3221dab0b2ce3d",
        "report.md": "a968d7e3ac98b9463ad81eba1c5f5ecd402fa0adafc61c3c0452ec961b8af3fb",
        "report.json": "0adc81027791c7f9b42e459fac945d2cfe2d242d03b817b07704e0c01df408c4",
        "report.md.new_york": "1c5a6b24e21064ef38267a17f15de349554fd1ec3a06fa518fe8463b0bb369c4",
        "report.json.new_york": "42e93a8d78f897bb15b9f02c94c584da3ab50d02ada3118d10bffa28a2593690",
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
        extra = host_args if command[0] != "parse" else []  # parse reads the bundle alone
        assert main([*command, "--bundle", str(bundle), *extra, "--out", str(out)]) in (0, 1)
        digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("preset", sorted(simulator.PRESETS))
def test_outputs_are_byte_identical(preset, tmp_path):
    assert output_digests(preset, tmp_path) == GOLDEN[preset]
