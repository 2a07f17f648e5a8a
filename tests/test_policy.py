import json

import pytest

from watchtriage.evidence import DeviceProfile
from watchtriage.policy import (
    WATCH_FEATURE,
    ManifestInfo,
    VerdictKind,
    audit_inventory,
    check_abi,
    combine_verdict,
    load_inventory,
    parse_manifest,
    verdict_to_dict,
    verdicts_table,
)

WATCH_MANIFEST = """\
<manifest xmlns:android="http://schemas.android.com/apk/res/android"
          package="com.samsung.android.watch.weather">
  <uses-feature android:name="android.hardware.type.watch" />
  <uses-feature android:name="android.hardware.sensor.heartrate" />
  <application android:label="Weather" />
</manifest>
"""

PHONE_MANIFEST = """\
<manifest xmlns:android="http://schemas.android.com/apk/res/android"
          package="net.xnano.android.sshserver">
  <uses-feature android:name="android.hardware.wifi" />
  <application android:label="SSH Server" />
</manifest>
"""


class TestParseManifest:
    def test_watch_feature_collected(self):
        info = parse_manifest(WATCH_MANIFEST)
        assert info.package == "com.samsung.android.watch.weather"
        assert WATCH_FEATURE in info.uses_features

    def test_no_features_is_empty_list(self):
        info = parse_manifest('<manifest package="com.bare"/>')
        assert info.uses_features == ()

    def test_missing_package_fatal(self):
        with pytest.raises(ValueError, match="no package attribute"):
            parse_manifest("<manifest><uses-feature/></manifest>")

    def test_malformed_xml_fatal_with_location(self):
        with pytest.raises(ValueError, match="XML syntax error") as exc:
            parse_manifest("<manifest package='x'>\n<oops\n</manifest>")
        assert "line" in str(exc.value)

    def test_aapt_dump_form(self):
        text = (
            "package: name='net.xnano.android.sshserver' versionCode='70'\n"
            "uses-feature: name='android.hardware.wifi'\n"
            "native-code: 'armeabi-v7a' 'arm64-v8a'\n"
        )
        info = parse_manifest(text)
        assert info.package == "net.xnano.android.sshserver"
        assert info.declared_abis == ("armeabi-v7a", "arm64-v8a")

    def test_round_trip_of_random_feature_lists(self):
        import random

        rng = random.Random(5)
        pool = [f"android.hardware.feat{i}" for i in range(20)]
        for _ in range(10):
            features = rng.sample(pool, rng.randint(0, 8))
            xml = (
                '<manifest xmlns:android="http://schemas.android.com/apk/res/android" package="com.t">'
                + "".join(f'<uses-feature android:name="{f}"/>' for f in features)
                + "</manifest>"
            )
            assert list(parse_manifest(xml).uses_features) == features


class TestCheckWatchPolicy:
    """The feature check alone: no device ABI to weigh."""

    def test_watch_feature_present_is_compliant(self):
        verdict = combine_verdict(parse_manifest(WATCH_MANIFEST), None)
        assert verdict.verdict == VerdictKind.COMPLIANT
        assert verdict.watch_feature_present

    def test_phone_manifest_flagged_sideloaded(self):
        verdict = combine_verdict(parse_manifest(PHONE_MANIFEST), None)
        assert verdict.verdict == VerdictKind.SIDELOADED_PHONE_APP
        assert not verdict.watch_feature_present

    def test_empty_feature_list_flagged(self):
        verdict = combine_verdict(ManifestInfo("com.bare"), None)
        assert verdict.verdict == VerdictKind.SIDELOADED_PHONE_APP

    def test_unrelated_features_never_change_outcome(self):
        base = ManifestInfo("com.app", (WATCH_FEATURE,))
        noisy = ManifestInfo("com.app", (WATCH_FEATURE, "a.b.c", "d.e.f", "g.h.i"))
        assert combine_verdict(base, None).verdict == combine_verdict(noisy, None).verdict == VerdictKind.COMPLIANT


class TestCheckAbi:
    def test_64bit_only_apk_on_32bit_watch_incompatible(self):
        assert not check_abi(["arm64-v8a"], "armeabi-v7a").compatible

    def test_matching_abi_compatible(self):
        assert check_abi(["armeabi-v7a"], "armeabi-v7a").compatible

    def test_universal_apk_compatible_anywhere(self):
        assert check_abi([], "armeabi-v7a").compatible
        assert check_abi([], "anything").compatible

    def test_armeabi_runs_on_v7a(self):
        assert check_abi(["armeabi"], "armeabi-v7a").compatible

    def test_v7a_does_not_run_on_armeabi(self):
        assert not check_abi(["armeabi-v7a"], "armeabi").compatible

    @pytest.mark.parametrize("abi", ["armeabi", "armeabi-v7a", "arm64-v8a"])
    def test_reflexive(self, abi):
        assert check_abi([abi], abi).compatible

    def test_unknown_abi_warned_and_incompatible(self):
        result = check_abi(["x86_64"], "armeabi-v7a")
        assert not result.compatible
        assert any("x86_64" in w for w in result.warnings)

    def test_unknown_device_abi_warned(self):
        result = check_abi(["armeabi-v7a"], "riscv64")
        assert not result.compatible
        assert any("riscv64" in w for w in result.warnings)

    def test_mixed_abis_compatible_if_any_executes(self):
        assert check_abi(["arm64-v8a", "armeabi-v7a"], "armeabi-v7a").compatible


DEVICE = DeviceProfile(model_number="SM-R910", android_version="11", cpu_abi="armeabi-v7a")


class TestAuditInventory:
    def test_watch_and_phone_apps(self):
        verdicts = audit_inventory(
            [parse_manifest(WATCH_MANIFEST), parse_manifest(PHONE_MANIFEST)], DEVICE
        )
        by_pkg = {v.package: v.verdict for v in verdicts}
        assert by_pkg["com.samsung.android.watch.weather"] == VerdictKind.COMPLIANT
        assert by_pkg["net.xnano.android.sshserver"] == VerdictKind.SIDELOADED_PHONE_APP

    def test_empty_inventory(self):
        assert audit_inventory([], DEVICE) == []

    def test_abi_incompatible_dominates(self):
        info = ManifestInfo("com.kakaopay.app", (), ("arm64-v8a",))
        verdicts = audit_inventory([info], DEVICE)
        assert verdicts[0].verdict == VerdictKind.ABI_INCOMPATIBLE
        assert verdicts[0].abi_compatible is False

    def test_output_length_equals_input_length(self):
        infos = [ManifestInfo(f"com.app{i}") for i in range(7)]
        assert len(audit_inventory(infos, DEVICE)) == 7

    def test_sorted_by_severity_then_package(self):
        infos = [
            ManifestInfo("z.compliant", (WATCH_FEATURE,)),
            ManifestInfo("a.sideloaded"),
            ManifestInfo("m.badabi", (WATCH_FEATURE,), ("arm64-v8a",)),
        ]
        verdicts = audit_inventory(infos, DEVICE)
        assert [v.package for v in verdicts] == ["m.badabi", "a.sideloaded", "z.compliant"]

    @pytest.mark.parametrize(
        "feature,abis,expected",
        [
            (True, ("armeabi-v7a",), VerdictKind.COMPLIANT),
            (True, ("arm64-v8a",), VerdictKind.ABI_INCOMPATIBLE),
            (True, (), VerdictKind.COMPLIANT),
            (False, ("armeabi-v7a",), VerdictKind.SIDELOADED_PHONE_APP),
            (False, ("arm64-v8a",), VerdictKind.ABI_INCOMPATIBLE),
            (False, (), VerdictKind.SIDELOADED_PHONE_APP),
        ],
    )
    def test_feature_abi_truth_table(self, feature, abis, expected):
        features = (WATCH_FEATURE,) if feature else ()
        verdict = combine_verdict(ManifestInfo("com.t", features, abis), "armeabi-v7a")
        assert verdict.verdict == expected
        # enum invariants
        if verdict.verdict == VerdictKind.SIDELOADED_PHONE_APP:
            assert not verdict.watch_feature_present
        if verdict.verdict == VerdictKind.ABI_INCOMPATIBLE:
            assert verdict.abi_compatible is False

    def test_no_device_abi_leaves_abi_unknown(self):
        verdict = combine_verdict(ManifestInfo("com.t", (WATCH_FEATURE,), ("armeabi-v7a",)), None)
        assert verdict.abi_compatible is None
        assert verdict.verdict == VerdictKind.COMPLIANT


class TestInventoryIO:
    def test_json_inventory(self, tmp_path):
        path = tmp_path / "inventory.json"
        path.write_text(json.dumps([
            {"package": "com.a", "uses_features": [WATCH_FEATURE]},
            {"package": "com.b", "declared_abis": ["arm64-v8a"]},
        ]))
        manifests, failures = load_inventory(path)
        assert [m.package for m in manifests] == ["com.a", "com.b"]
        assert failures == []

    def test_directory_of_manifests_with_one_broken(self, tmp_path):
        (tmp_path / "watch.xml").write_text(WATCH_MANIFEST)
        (tmp_path / "phone.xml").write_text(PHONE_MANIFEST)
        (tmp_path / "broken.xml").write_text("<manifest package='x'")
        (tmp_path / "latin1.txt").write_bytes("package: name='com.caf\xe9'\n".encode("latin-1"))
        manifests, failures = load_inventory(tmp_path)
        assert len(manifests) == 2
        assert [(f.package, f.verdict) for f in failures] == [
            ("broken.xml", VerdictKind.UNKNOWN), ("latin1.txt", VerdictKind.UNKNOWN)]
        assert "can't decode byte 0xe9" in failures[1].rationale

    def test_directory_walk_order_suffixes_and_a_directory_named_like_a_manifest(self, tmp_path, capsys):
        from watchtriage.cli import main

        (tmp_path / "B.XML").write_text('<manifest package="com.upper"/>')
        (tmp_path / "a.txt").write_text("package: name='com.lower'\n")
        (tmp_path / "..xml").write_text('<manifest package="com.dots"/>')  # suffix ".xml"
        (tmp_path / ".xml").write_text("<manifest")  # a hidden name with no suffix: skipped
        (tmp_path / "notes.json").write_text('{"package": "com.json"}')  # skipped
        (tmp_path / "bad.xml").write_text("<manifest package='x'")
        manifests, failures = load_inventory(tmp_path)
        # Byte order of the names, so "..xml" and "B.XML" come before "a.txt".
        assert [m.package for m in manifests] == ["com.dots", "com.upper", "com.lower"]
        assert [(f.package, f.verdict) for f in failures] == [("bad.xml", VerdictKind.UNKNOWN)]
        assert failures[0].rationale.startswith("unparseable manifest: XML syntax error at line 1, column 0")

        (tmp_path / "d.xml").mkdir()
        with pytest.raises(IsADirectoryError):
            load_inventory(tmp_path)
        assert main(["audit", "--manifests", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.rstrip().endswith(f"{tmp_path / 'd.xml'}'")

    def test_table_render_contains_every_package(self):
        verdicts = audit_inventory(
            [parse_manifest(WATCH_MANIFEST), parse_manifest(PHONE_MANIFEST)], DEVICE
        )
        table = verdicts_table(verdicts)
        assert "com.samsung.android.watch.weather" in table
        assert "sideloaded_phone_app" in table

    def test_line_break_in_a_package_forges_no_table_row(self, tmp_path):
        # An XML character reference and a carriage return inside an aapt
        # name='...' put a line break in the package; the table writes it
        # as "\n" or "\r", and the JSON verdict keeps the raw text. Only
        # "\n" ends an evidence line, so the file read keeps the "\r".
        (tmp_path / "forged.xml").write_text('<manifest package="com.a&#10;com.fake.row  compliant"/>')
        (tmp_path / "forged.txt").write_bytes(b"package: name='com.b\rcom.fake.row  compliant'\n")
        manifests, failures = load_inventory(tmp_path)
        assert failures == []
        verdicts = audit_inventory(manifests, DEVICE)
        assert [v.package for v in verdicts] == ["com.a\ncom.fake.row  compliant", "com.b\rcom.fake.row  compliant"]
        lines = verdicts_table(verdicts).splitlines()
        assert len(lines) == len(verdicts) + 1
        assert [line.split()[0] for line in lines[1:]] == ["com.a\\ncom.fake.row", "com.b\\rcom.fake.row"]
        assert [verdict_to_dict(v)["package"] for v in verdicts] == [v.package for v in verdicts]
