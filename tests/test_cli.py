import argparse
import dataclasses
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

from watchtriage import acquisition, cli, correlate, dumpsys, policy, report, simulator
from watchtriage.cli import main
from tests.test_acquisition import GALAXY_WATCH5_TRANSCRIPTS
from tests.test_policy import PHONE_MANIFEST, WATCH_MANIFEST


def run(argv):
    return main(argv)


def slug(command):
    return re.sub(r"[^A-Za-z0-9.]+", "_", command)


def tree(root):
    """Every file under root, by relative path, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.fixture
def acquire_with_plan(tmp_path, monkeypatch):
    """Runs `acquire --plan` with the given plan text on canned transcripts.

    Returns the exit status, having checked that a failed run executed no
    step and left no bundle directory.
    """
    executed = []  # the command list of every executor the run built
    fake_executor = acquisition.FakeExecutor

    def recording_executor(*args, **kwargs):
        executor = fake_executor(*args, **kwargs)
        executed.append(executor.executed)
        return executor

    monkeypatch.setattr(acquisition, "FakeExecutor", recording_executor)
    transcripts = tmp_path / "transcripts"
    transcripts.mkdir()
    for command, payload in GALAXY_WATCH5_TRANSCRIPTS.items():
        (transcripts / f"{slug(command)}.txt").write_bytes(payload)

    def acquire(plan_text):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(plan_text)
        out = tmp_path / "bundle"
        status = run(["acquire", "--plan", str(plan_path), "--transcripts", str(transcripts), "--out", str(out)])
        if status != 0:
            assert not any(executed) and not out.exists()
        return status

    return acquire


@pytest.fixture
def case_bundle(tmp_path):
    out = tmp_path / "case"
    assert run(["generate", "--preset", "case-study", "--out", str(out)]) == 0
    return out


class TestGenerate:
    def test_writes_bundle_host_artifacts_and_ground_truth(self, case_bundle):
        assert (case_bundle / "manifest.json").is_file()
        assert (case_bundle / "raw" / "usagestats.txt").is_file()
        assert (case_bundle / "raw" / "netstats.txt").is_file()
        assert (case_bundle / "raw" / "network_stack.txt").is_file()
        assert (case_bundle / "scenario.json").is_file()
        assert (case_bundle / "host_artifacts" / "recentservers.xml").is_file()
        assert (case_bundle / "host_artifacts" / "known_hosts").is_file()

    def test_random_seeded_generation_is_reproducible(self, tmp_path):
        digests = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["generate", "--seed", "7", "--out", str(out)]) == 0
            digests.append(json.loads((out / "manifest.json").read_text())["bundle_manifest_digest"])
        assert digests[0] == digests[1]

    def test_existing_non_empty_out_is_refused_before_writing(self, tmp_path, capsys):
        out = tmp_path / "e"
        assert run(["generate", "--preset", "ftp", "--out", str(out)]) == 0
        before = tree(out)
        assert (out / "host_artifacts" / "recentservers.xml").is_file()
        # A random scenario has no host side; writing it here would leave the ftp one's behind.
        assert run(["generate", "--seed", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: output directory exists and is not empty: {out}\n"
        assert tree(out) == before
        # A file in the way is refused too; an existing empty directory is used.
        assert run(["generate", "--seed", "0", "--out", str(out / "manifest.json")]) == 2
        (tmp_path / "empty").mkdir()
        assert run(["generate", "--seed", "0", "--out", str(tmp_path / "empty")]) == 0

    def test_scenario_file_input(self, tmp_path, case_bundle):
        scenario_file = case_bundle / "scenario.json"
        out = tmp_path / "again"
        assert run(["generate", "--scenario", str(scenario_file), "--out", str(out)]) == 0
        d1 = json.loads((case_bundle / "manifest.json").read_text())["bundle_manifest_digest"]
        d2 = json.loads((out / "manifest.json").read_text())["bundle_manifest_digest"]
        assert d1 == d2


class TestCorrelate:
    def test_case_study_yields_three_findings_and_detection_exit(self, case_bundle, tmp_path, capsys):
        out_file = tmp_path / "findings.json"
        status = run([
            "correlate",
            "--bundle", str(case_bundle),
            "--host-artifacts", str(case_bundle / "host_artifacts"),
            "--out", str(out_file),
        ])
        assert status == 1  # detections present
        doc = json.loads(out_file.read_text())
        assert doc["finding_count"] == 3
        patterns = sorted(f["pattern"] for f in doc["findings"])
        assert patterns == ["ftp_server_exfil", "sftp_server_exfil", "unclassified_transfer"]
        for f in doc["findings"]:
            assert f["evidence_digests"]

    def test_without_host_artifacts_no_corroboration(self, case_bundle, capsys):
        status = run(["correlate", "--bundle", str(case_bundle)])
        assert status == 1
        doc = json.loads(capsys.readouterr().out)
        assert all(f["confidence"] != "corroborated" for f in doc["findings"])

    def test_missing_bundle_dir_is_usage_error(self, tmp_path, capsys):
        status = run(["correlate", "--bundle", str(tmp_path / "nope")])
        assert status == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("duration", [1800, 7200])
    def test_bucket_duration_comes_from_the_dump(self, tmp_path, capsys, duration):
        out = tmp_path / "bundle"
        assert run(["generate", "--preset", "ftp", "--bucket-seconds", str(duration), "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["correlate", "--bundle", str(out)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["bucket_seconds"] == duration
        assert {b["st"] % duration for f in doc["findings"] for b in f["session"]["buckets"]} == {0}

    def test_dump_stating_two_bucket_durations_exits_2(self, case_bundle, capsys):
        netstats = case_bundle / "raw" / "netstats.txt"
        text = netstats.read_text()
        assert text.count("bucketDuration=3600") == 3
        netstats.write_text(text.replace("bucketDuration=3600", "bucketDuration=1800", 1))
        assert run(["correlate", "--bundle", str(case_bundle)]) == 2
        err = capsys.readouterr().err
        assert "1800 s" in err and "3600 s" in err

    def test_empty_scenario_exits_zero_and_reports_no_detections(self, tmp_path, capsys):
        scenario = tmp_path / "empty.json"
        scenario.write_text(json.dumps({"capture_time": 1683809100}))
        out = tmp_path / "bundle"
        assert run(["generate", "--scenario", str(scenario), "--out", str(out)]) == 0
        assert run(["correlate", "--bundle", str(out)]) == 0
        capsys.readouterr()
        assert run(["report", "--bundle", str(out)]) == 0
        assert "No detections" in capsys.readouterr().out


class TestVerify:
    def test_untampered_bundle_passes(self, case_bundle, capsys):
        assert run(["verify", "--bundle", str(case_bundle)]) == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_byte_flip_detected(self, case_bundle, capsys):
        raw_path = case_bundle / "raw" / "netstats.txt"
        data = bytearray(raw_path.read_bytes())
        data[len(data) // 2] ^= 0x01
        raw_path.write_bytes(bytes(data))
        assert run(["verify", "--bundle", str(case_bundle)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "netstats" in out

    def test_deleted_raw_file_is_an_integrity_failure(self, tmp_path, capsys):
        bundle = tmp_path / "ftp"
        assert run(["generate", "--preset", "ftp", "--out", str(bundle)]) == 0
        (bundle / "raw" / "netstats.txt").unlink()
        capsys.readouterr()
        assert run(["verify", "--bundle", str(bundle)]) == 1
        out = capsys.readouterr().out
        assert re.search(r"^MISSING +netstats:synthetic:\d+", out, re.M) and "overall: FAIL" in out
        # The commands that read the dumps cannot run without it.
        for command in ("parse", "correlate", "report"):
            assert run([command, "--bundle", str(bundle)]) == 2
            assert "bundle raw files missing for items: netstats:synthetic:" in capsys.readouterr().err


class TestParse:
    def test_structured_json_output(self, case_bundle, capsys):
        assert run(["parse", "--bundle", str(case_bundle)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["usagestats"]["capture_time"] == 1683809100
        packages = {e["package"] for e in doc["usagestats"]["events"]}
        assert "com.corproxy.files" in packages
        assert any(r["network_id"] == "outgoingowl" for r in doc["netstats"])
        assert any(l["private_ip"] == "172.30.1.76" for l in doc["network_stack"]["leases"])


class TestReportCommand:
    def test_markdown_report(self, case_bundle, capsys):
        status = run([
            "report", "--bundle", str(case_bundle),
            "--host-artifacts", str(case_bundle / "host_artifacts"),
        ])
        assert status == 0
        md = capsys.readouterr().out
        assert "# Smartwatch exfiltration triage report" in md
        assert "ftp_server_exfil (corroborated)" in md
        assert "## Limitations" in md

    def test_json_report_deterministic(self, case_bundle, tmp_path):
        outputs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert run([
                "report", "--bundle", str(case_bundle), "--format", "json", "--out", str(out),
            ]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestAudit:
    def test_inventory_with_violations_exits_1(self, tmp_path, capsys):
        manifests = tmp_path / "manifests"
        manifests.mkdir()
        (manifests / "watch.xml").write_text(WATCH_MANIFEST)
        (manifests / "phone.xml").write_text(PHONE_MANIFEST)
        status = run(["audit", "--manifests", str(manifests), "--device-abi", "armeabi-v7a"])
        assert status == 1
        table = capsys.readouterr().out
        assert "sideloaded_phone_app" in table

    def test_compliant_inventory_exits_0(self, tmp_path, capsys):
        manifests = tmp_path / "manifests"
        manifests.mkdir()
        (manifests / "watch.xml").write_text(WATCH_MANIFEST)
        assert run(["audit", "--manifests", str(manifests), "--device-abi", "armeabi-v7a"]) == 0

    def test_json_format(self, tmp_path, capsys):
        inventory = tmp_path / "inventory.json"
        inventory.write_text(json.dumps([
            {"package": "com.kakaopay.app", "declared_abis": ["arm64-v8a"]},
        ]))
        status = run(["audit", "--manifests", str(inventory), "--device-abi", "armeabi-v7a",
                      "--format", "json"])
        assert status == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc[0]["verdict"] == "abi_incompatible"


class TestAcquire:
    def test_transcript_acquisition_builds_verifiable_bundle(self, tmp_path, capsys):
        transcripts = tmp_path / "transcripts"
        transcripts.mkdir()
        for command, payload in GALAXY_WATCH5_TRANSCRIPTS.items():
            (transcripts / f"{slug(command)}.txt").write_bytes(payload)
        out = tmp_path / "bundle"
        status = run([
            "acquire", "--transcripts", str(transcripts),
            "--out", str(out), "--clock-start", "1683766560",
        ])
        assert status == 0
        assert run(["verify", "--bundle", str(out)]) == 0

    def test_acquired_bundle_feeds_correlate_and_audit(self, tmp_path, capsys):
        transcripts = tmp_path / "transcripts"
        transcripts.mkdir()
        for command, payload in GALAXY_WATCH5_TRANSCRIPTS.items():
            (transcripts / f"{slug(command)}.txt").write_bytes(payload)
        bundle = tmp_path / "bundle"
        assert run([
            "acquire", "--transcripts", str(transcripts),
            "--out", str(bundle), "--clock-start", "1683766560",
        ]) == 0
        capsys.readouterr()

        assert run(["correlate", "--bundle", str(bundle)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["findings"][0]["pattern"] == "ftp_server_exfil"
        assert doc["findings"][0]["confidence"] == "consistent"  # no host artifacts given

        # device ABI taken from the acquired bundle's getprop output
        inventory = tmp_path / "inventory.json"
        inventory.write_text(json.dumps([
            {"package": "com.kakaopay.app", "declared_abis": ["arm64-v8a"]},
        ]))
        assert run(["audit", "--manifests", str(inventory), "--bundle", str(bundle),
                    "--format", "json"]) == 1
        verdicts = json.loads(capsys.readouterr().out)
        assert verdicts[0]["verdict"] == "abi_incompatible"

    def test_existing_non_empty_out_is_refused_before_any_step(self, tmp_path, monkeypatch, capsys):
        transcripts = tmp_path / "transcripts"
        transcripts.mkdir()
        for command, payload in GALAXY_WATCH5_TRANSCRIPTS.items():
            (transcripts / f"{slug(command)}.txt").write_bytes(payload)
        out = tmp_path / "bundle"
        out.mkdir()
        (out / "notes.txt").write_text("earlier case")
        monkeypatch.setattr(acquisition, "FakeExecutor", lambda *a, **k: pytest.fail("a step ran"))
        assert run(["acquire", "--transcripts", str(transcripts), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: output directory exists and is not empty: {out}\n"
        assert tree(out) == {Path("notes.txt"): b"earlier case"}

    def test_missing_transcript_recorded_as_failure(self, tmp_path, capsys):
        transcripts = tmp_path / "transcripts"
        transcripts.mkdir()
        for command, payload in GALAXY_WATCH5_TRANSCRIPTS.items():
            if command == "dumpsys netstats":
                continue
            (transcripts / f"{slug(command)}.txt").write_bytes(payload)
        out = tmp_path / "bundle"
        status = run([
            "acquire", "--transcripts", str(transcripts),
            "--out", str(out), "--clock-start", "1683766560",
        ])
        assert status == 1
        err = capsys.readouterr().err
        assert "netstats" in err


class TestUsageErrors:
    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["correlate", "--no-such-flag"])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_malformed_inventory_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "inventory.json"
        bad.write_text("not json at all")
        status = run(["audit", "--manifests", str(bad), "--device-abi", "armeabi-v7a"])
        assert status == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_rules_file_exits_2(self, case_bundle, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([{"pattern": "bogus_pattern"}]))
        status = run(["correlate", "--bundle", str(case_bundle), "--rules", str(rules)])
        assert status == 2
        assert "bogus_pattern" in capsys.readouterr().err

    def test_rules_entry_missing_pattern_exits_2(self, case_bundle, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([{"package_markers": ["com.x"]}]))
        status = run(["correlate", "--bundle", str(case_bundle), "--rules", str(rules)])
        assert status == 2
        assert "rule #1" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["5", "null", '{"pattern": "ftp_server_exfil"}'])
    def test_rules_file_that_is_not_a_list_exits_2_naming_it(self, text, case_bundle, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_text(text)
        status = run(["correlate", "--bundle", str(case_bundle), "--rules", str(rules)])
        assert status == 2
        assert f"{rules}: expected a JSON list of rules" in capsys.readouterr().err

    def test_rules_markers_given_as_one_string_exit_2_naming_the_rule(self, case_bundle, tmp_path, capsys):
        # Read as characters, the string would match no package and hide the finding.
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([{"pattern": "ftp_server_exfil", "package_markers": "com.corproxy.files"}]))
        status = run(["correlate", "--bundle", str(case_bundle), "--rules", str(rules)])
        assert status == 2
        err = capsys.readouterr().err
        assert f"{rules}: rule #1" in err and "package_markers must be a list of strings" in err

    @pytest.mark.parametrize("text", ["5", "null", '{"package": "com.x"}'])
    def test_inventory_that_is_not_a_list_exits_2_naming_it(self, text, tmp_path, capsys):
        inventory = tmp_path / "inventory.json"
        inventory.write_text(text)
        status = run(["audit", "--manifests", str(inventory), "--device-abi", "armeabi-v7a"])
        assert status == 2
        assert f"{inventory}: expected a JSON list of inventory entries" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        # Read as characters, a watch app's feature would audit as a sideloaded phone app.
        ("uses_features", "android.hardware.type.watch", "uses_features must be a list of strings"),
        ("declared_abis", "armeabi-v7a", "declared_abis must be a list of strings"),
        # A number among string packages broke the audit's sort with a traceback.
        ("package", 5, "package must be a non-empty string"),
    ])
    def test_inventory_field_of_the_wrong_type_exits_2_naming_the_entry(self, field, value, message, tmp_path,
                                                                        capsys):
        inventory = tmp_path / "inventory.json"
        inventory.write_text(json.dumps([{"package": "com.other.app"}, {"package": "com.watch.app", field: value}]))
        status = run(["audit", "--manifests", str(inventory), "--device-abi", "armeabi-v7a"])
        assert status == 2
        err = capsys.readouterr().err
        assert f"{inventory}: inventory entry #2" in err and message in err

    def test_inventory_entry_missing_package_exits_2(self, tmp_path, capsys):
        inventory = tmp_path / "inventory.json"
        inventory.write_text(json.dumps([{"uses_features": []}]))
        status = run(["audit", "--manifests", str(inventory), "--device-abi", "armeabi-v7a"])
        assert status == 2
        assert "inventory entry #1" in capsys.readouterr().err

    # A bucket size has one source outside the evidence: generate's flag.
    @pytest.mark.parametrize("source", ["flag"])
    @pytest.mark.parametrize("value", ["0", "-5", "abc"])
    def test_bad_bucket_seconds_exits_2(self, value, source, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["generate", "--out", str(tmp_path / "o"), "--bucket-seconds", value])
        assert exc.value.code == 2
        assert "--bucket-seconds" in capsys.readouterr().err
        # Commands that read a bundle take the bucket size from its netstats dump.
        for command in ("parse", "correlate", "report"):
            with pytest.raises(SystemExit) as exc:
                run([command, "--bundle", str(tmp_path), "--bucket-seconds", "1800"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --bucket-seconds 1800" in capsys.readouterr().err

    def test_bad_bucket_seconds_env_does_not_affect_verify(self, case_bundle, monkeypatch, capsys):
        # The variable is not read by any command.
        monkeypatch.setenv("WATCHTRIAGE_BUCKET_SECONDS", "abc")
        assert run(["verify", "--bundle", str(case_bundle)]) == 0
        assert run(["correlate", "--bundle", str(case_bundle)]) == 1
        assert run(["generate", "--preset", "ftp", "--out", str(case_bundle.parent / "ftp")]) == 0

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_unknown_display_zone_exits_2_naming_it(self, source, case_bundle, tmp_path, monkeypatch, capsys):
        transcripts = tmp_path / "transcripts"
        transcripts.mkdir()
        for argv in (
            ["report", "--bundle", str(case_bundle)],
            ["acquire", "--transcripts", str(transcripts), "--out", str(tmp_path / "b")],
        ):
            if source == "flag":
                argv = argv + ["--display-zone", "Mars/Base"]
            else:
                monkeypatch.setenv("WATCHTRIAGE_DISPLAY_ZONE", "Mars/Base")
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 2
            assert "argument --display-zone: invalid zone_name value: 'Mars/Base'" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("name", ["manifest.json", "scenario.json"])
    def test_unknown_zone_in_a_file_exits_2_naming_it(self, name, case_bundle, tmp_path, capsys):
        path = case_bundle / name
        path.write_text(path.read_text().replace('"Asia/Seoul"', '"Mars/Base"'))
        commands = {
            "manifest.json": [[c, "--bundle", str(case_bundle)] for c in ("parse", "correlate", "report")],
            "scenario.json": [["generate", "--scenario", str(path), "--out", str(tmp_path / "b")]],
        }
        for argv in commands[name]:
            assert run(argv) == 2
            assert "display_zone: unknown time zone 'Mars/Base'" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("break_manifest", [
        lambda doc: doc["manifest"]["items"].__setitem__(0, "x"),
        lambda doc: doc["manifest"].__setitem__("items", {"0": doc["manifest"]["items"][0]}),
        lambda doc: doc.__setitem__("manifest", [doc["manifest"]]),
        lambda doc: doc["manifest"]["items"][0].pop("raw_bytes_digest"),
        lambda doc: [doc],
        lambda doc: b"not json",
        lambda doc: json.dumps(doc).encode().replace(b'"synthetic', b'"synth\xe9tic'),
        lambda doc: doc.__setitem__("failures", {"label": "netstats", "detail": "exit status 1"}),
        lambda doc: doc.__setitem__("clock_offset_seconds", "5"),
        lambda doc: doc.__setitem__("hash_algorithm", "md7"),
    ], ids=["item-is-a-string", "items-not-a-list", "manifest-is-a-list", "missing-raw-bytes-digest",
            "top-level-not-an-object", "not-json", "not-utf-8", "failures-not-a-list",
            "clock-offset-a-string", "unknown-hash-algorithm"])
    def test_malformed_manifest_exits_2_naming_it(self, break_manifest, case_bundle, capsys):
        path = case_bundle / "manifest.json"
        doc = json.loads(path.read_text())
        broken = break_manifest(doc) or doc
        path.write_bytes(broken if isinstance(broken, bytes) else json.dumps(broken).encode())
        for command in ("verify", "parse", "correlate", "report"):
            assert run([command, "--bundle", str(case_bundle)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "manifest.json: malformed manifest" in err

    @pytest.mark.parametrize("label", ["a/b", "", ".", ".."])
    def test_bad_plan_label_exits_2_before_any_step_runs(self, label, acquire_with_plan, capsys):
        plan = dataclasses.asdict(acquisition.default_plan())
        plan["steps"][1]["label"] = label
        assert acquire_with_plan(json.dumps(plan)) == 2
        assert f"plan step label {label!r} is not a single plain file name" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"steps": ["x"]}',
        "[]",
        json.dumps({"steps": [{"label": "netstats", "volatility_rank": 0, "source_kind": "netstats"}]}),
        "not json",
    ], ids=["step-not-an-object", "top-level-a-list", "step-without-command", "not-json"])
    def test_malformed_plan_exits_2_naming_it(self, text, acquire_with_plan, tmp_path, capsys):
        assert acquire_with_plan(text) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'plan.json'}") and "malformed plan" in err

    def test_out_path_under_a_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "sub"
        assert run(["generate", "--seed", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 20] Not a directory: ") and str(out) in err

    def test_out_path_that_is_a_directory_exits_2(self, case_bundle, capsys):
        assert run(["parse", "--bundle", str(case_bundle), "--out", str(case_bundle)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{case_bundle}'\n"

    def test_scenario_missing_capture_time_exits_2(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"app_sessions": []}))
        status = run(["generate", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
        assert status == 2
        assert "capture_time" in capsys.readouterr().err


# Every option of every subcommand. A new option is a new knob for the
# investigator to get wrong, so adding one changes this table.
CLI_OPTIONS = {
    "acquire": ["--adb-path", "--clock-start", "--display-zone", "--origin", "--out", "--plan",
                "--serial", "--transcripts"],
    "audit": ["--bundle", "--device-abi", "--format", "--manifests", "--out"],
    "correlate": ["--bundle", "--host-artifacts", "--out", "--rules"],
    "generate": ["--bucket-seconds", "--out", "--preset", "--scenario", "--seed"],
    "parse": ["--bundle", "--out"],
    "report": ["--bundle", "--display-zone", "--format", "--host-artifacts", "--out", "--rules"],
    "verify": ["--bundle"],
}


class TestCliSurface:
    @staticmethod
    def subcommands():
        (action,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    def test_subcommands(self):
        assert sorted(self.subcommands()) == sorted(CLI_OPTIONS)

    @pytest.mark.parametrize("command", sorted(CLI_OPTIONS))
    def test_option_strings(self, command):
        parser = self.subcommands()[command]
        options = sorted(o for a in parser._actions for o in a.option_strings if o not in ("-h", "--help"))
        assert options == CLI_OPTIONS[command]


class TestBenchmarkEntryPoints:
    """bench/spans.py wraps named entry points; a rename, or a model change
    that zeroes a per-layer metric, must fail here, not in the benchmark."""

    @pytest.fixture
    def spans(self, monkeypatch):
        path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
        spec = importlib.util.spec_from_file_location("bench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look their module up
        spec.loader.exec_module(spans)
        return spans

    def test_benchmark_can_wrap_and_restore_every_entry_point(self, spans):
        owners = (acquisition, cli, correlate, dumpsys, policy, report, report.ReportDocument, simulator)
        before = [dict(vars(owner)) for owner in owners]
        tracer = spans.Tracer()
        try:
            spans.instrument(tracer)
            assert [dict(vars(owner)) for owner in owners] != before
        finally:
            tracer.restore()
        assert [dict(vars(owner)) for owner in owners] == before

    def test_correlate_and_markdown_report_record_every_layer(self, spans, case_bundle, tmp_path):
        host = ["--host-artifacts", str(case_bundle / "host_artifacts")]
        tracer = spans.Tracer()
        spans.instrument(tracer)
        try:
            assert run(["correlate", "--bundle", str(case_bundle), *host, "--out", str(tmp_path / "f.json")]) == 1
            assert run(["report", "--format", "md", "--bundle", str(case_bundle), *host,
                        "--out", str(tmp_path / "r.md")]) == 0
        finally:
            tracer.restore()
        times = tracer.self_times()
        for name in ("report.render", "report.markdown", "report.digests", "correlate.timeline", "correlate.match"):
            assert times[name] > 0, name
        for name in ("report.timeline_rows", "correlate.sessions"):
            assert tracer.counts[name] > 0, name


class TestPerCommandParser:
    """main builds only the named subcommand's parser; any other first word gets them all."""

    @pytest.mark.parametrize("command", sorted(CLI_OPTIONS))
    def test_single_command_parser_has_the_same_options(self, command):
        (action,) = [a for a in cli.build_parser(command)._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(action.choices) == [command]
        options = sorted(o for a in action.choices[command]._actions for o in a.option_strings
                         if o not in ("-h", "--help"))
        assert options == CLI_OPTIONS[command]

    def test_top_level_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in CLI_OPTIONS:
            assert re.search(rf"^ +{command} +\S", out, re.M), command

    @pytest.mark.parametrize("argv", [["bogus"], ["Verify", "--bundle", "b"], []])
    def test_unknown_or_missing_subcommand_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        if argv:
            assert f"invalid choice: {argv[0]!r}" in err
            assert all(repr(command) in err for command in CLI_OPTIONS)
        else:
            assert "the following arguments are required: command" in err

    def test_environment_default_applies_to_report(self, case_bundle, monkeypatch, capsys):
        monkeypatch.setenv("WATCHTRIAGE_FORMAT", "json")
        assert run(["report", "--bundle", str(case_bundle)]) == 0
        assert json.loads(capsys.readouterr().out)["schema"] == "watchtriage.report/1"
