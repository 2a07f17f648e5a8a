import argparse
import contextlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from watchtriage import acquisition, cli, correlate, dumpsys, evidence, policy, report, simulator
from watchtriage.cli import main
from watchtriage.evidence import MAX_EPOCH, SourceKind, canonical_json_bytes, seal_bundle
from tests.test_acquisition import GALAXY_WATCH5_TRANSCRIPTS
from tests.test_policy import PHONE_MANIFEST, WATCH_MANIFEST


def run(argv):
    return main(argv)


def slug(command):
    return re.sub(r"[^A-Za-z0-9.]+", "_", command)


@contextlib.contextmanager
def int_digit_limit(digits):
    """The interpreter's integer digit limit set to `digits` (0: none), on an
    interpreter that has one (3.10.7 and later)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


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
        plan_path.write_bytes(plan_text if isinstance(plan_text, bytes) else plan_text.encode())
        out = tmp_path / "bundle"
        status = run(["acquire", "--plan", str(plan_path), "--transcripts", str(transcripts), "--out", str(out)])
        if status != 0:
            assert not any(executed) and not out.exists()
        return status

    return acquire


def scenario_json(edit) -> bytes:
    """The ftp preset's scenario file after `edit` changed its dict."""
    data = simulator.scenario_to_dict(simulator.preset_ftp_file_server())
    edit(data)
    return json.dumps(data).encode()


def plan_json(edit) -> bytes:
    """The default plan's file after `edit` changed its dict."""
    data = {"steps": [step._asdict() for step in acquisition.default_plan().steps]}
    edit(data)
    return json.dumps(data).encode()


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

    def test_known_hosts_marker_line_does_not_corroborate(self, tmp_path, capsys):
        # An administrator sets @revoked by hand; no connection ever writes it.
        bundle = tmp_path / "ftp"
        assert run(["generate", "--preset", "ftp", "--out", str(bundle)]) == 0
        hosts = tmp_path / "hosts"
        hosts.mkdir()
        key = "AAAAC3NzaC1lZDI1NTE5AAAAIGtra2tra2tra2tra2tra2tra2tra2tra2tra2tra2tr"
        (hosts / "known_hosts").write_text(f"@revoked 172.30.1.76 ssh-ed25519 {key}\n")
        capsys.readouterr()
        assert run(["correlate", "--bundle", str(bundle), "--host-artifacts", str(hosts)]) == 1
        out, err = capsys.readouterr()
        assert [(f["pattern"], f["confidence"]) for f in json.loads(out)["findings"]] == \
            [("ftp_server_exfil", "consistent")]
        assert f"{hosts / 'known_hosts'}: line 1: @revoked marker line records no connection; skipped" in err

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

    def test_stdout_replaced_by_a_text_only_stream(self, case_bundle, tmp_path):
        out = tmp_path / "parsed.json"
        assert run(["parse", "--bundle", str(case_bundle), "--out", str(out)]) == 0
        stream = io.StringIO()
        with contextlib.redirect_stdout(stream):
            assert run(["parse", "--bundle", str(case_bundle)]) == 0
        assert stream.getvalue() == out.read_text(encoding="utf-8")


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

    @pytest.fixture
    def non_ascii_bundle(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_bytes(scenario_json(lambda d: [w.update(ssid="카페_5G") for w in d["wifi_sessions"]]))
        bundle = tmp_path / "bundle"
        assert run(["generate", "--scenario", str(scenario), "--out", str(bundle)]) == 0
        return bundle

    @staticmethod
    def report_under_an_ascii_locale(bundle, *argv) -> bytes:
        """The stdout of `watchtriage report` in a subprocess under the C locale."""
        env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG"))}
        env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-m", "watchtriage.cli", "report", "--bundle", str(bundle), *argv],
                              env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_out_file_is_utf_8_under_an_ascii_locale(self, non_ascii_bundle, tmp_path):
        out = tmp_path / "r.md"
        self.report_under_an_ascii_locale(non_ascii_bundle, "--out", str(out))
        assert "카페_5G" in out.read_text(encoding="utf-8")

    @pytest.mark.parametrize("fmt", ["md", "json"])
    def test_stdout_is_utf_8_under_an_ascii_locale(self, fmt, non_ascii_bundle, tmp_path):
        out = tmp_path / "r.out"
        self.report_under_an_ascii_locale(non_ascii_bundle, "--format", fmt, "--out", str(out))
        stdout = self.report_under_an_ascii_locale(non_ascii_bundle, "--format", fmt)
        assert stdout == out.read_bytes()
        assert ("카페_5G".encode() if fmt == "md" else b"\\uce74\\ud398_5G") in stdout


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

    def test_executes_exactly_the_plan_commands(self, tmp_path, monkeypatch):
        executors = []
        fake_executor = acquisition.FakeExecutor

        def recording_executor(*args, **kwargs):
            executors.append(fake_executor(*args, **kwargs))
            return executors[-1]

        monkeypatch.setattr(acquisition, "FakeExecutor", recording_executor)
        transcripts = tmp_path / "transcripts"
        transcripts.mkdir()
        for command, payload in GALAXY_WATCH5_TRANSCRIPTS.items():  # `date +%s` among them
            (transcripts / f"{slug(command)}.txt").write_bytes(payload)
        assert run(["acquire", "--transcripts", str(transcripts), "--out", str(tmp_path / "bundle")]) == 0
        (executor,) = executors
        commands = [step.command for step in acquisition.default_plan().steps]
        assert executor.executed == commands
        assert list(executor.transcripts) == commands

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

    def test_clock_start_zero_is_honoured(self, tmp_path, capsys):
        transcripts = tmp_path / "transcripts"
        transcripts.mkdir()
        for command, payload in GALAXY_WATCH5_TRANSCRIPTS.items():
            (transcripts / f"{slug(command)}.txt").write_bytes(payload)
        out = tmp_path / "bundle"
        assert run(["acquire", "--transcripts", str(transcripts), "--out", str(out), "--clock-start", "0"]) == 0
        items = json.loads((out / "manifest.json").read_text())["manifest"]["items"]
        assert [item["collected_at"] for item in items] == list(range(len(items)))

    def test_negative_clock_start_exits_2_before_any_step(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        with pytest.raises(SystemExit) as exc:
            run(["acquire", "--transcripts", str(tmp_path), "--out", str(out), "--clock-start", "-5"])
        assert exc.value.code == 2
        assert "--clock-start: must be >= 0, got -5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["٣", "+5", " 5", "1_000"])
    def test_clock_start_not_in_ascii_digits_exits_2(self, value, tmp_path, capsys):
        out = tmp_path / "bundle"
        with pytest.raises(SystemExit) as exc:
            run(["acquire", "--transcripts", str(tmp_path), "--out", str(out), "--clock-start", value])
        assert exc.value.code == 2
        assert f"--clock-start: invalid _clock_start value: {value!r}" in capsys.readouterr().err
        assert not out.exists()


    def test_every_step_failing_exits_2_and_writes_nothing(self, tmp_path, capsys):
        transcripts = tmp_path / "transcripts"
        transcripts.mkdir()  # no transcript for any step
        out = tmp_path / "bundle"
        assert run(["acquire", "--transcripts", str(transcripts), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: every acquisition step failed; nothing to seal\n"
        assert not out.exists()


# Past MAX_EPOCH in 19 digits, which a number may hold, and in 21, which it may not.
LARGE_EPOCH = 10**18
HUGE_EPOCH = 10**20
# Valid JSON nested far deeper than the interpreter's recursion limit.
DEEP_JSON = "[" * 100_000 + "]" * 100_000


class TestEpochRange:
    """An epoch that some zone cannot render is refused where it is read,
    never at render time, and never as a traceback."""

    def test_scenario_capture_time_past_the_bound_exits_2(self, tmp_path, capsys):
        self.assert_scenario_refused(LARGE_EPOCH, f"capture_time must be between 0 and {MAX_EPOCH}, got {LARGE_EPOCH}",
                                     tmp_path, capsys)

    def test_scenario_capture_time_of_too_many_digits_exits_2(self, tmp_path, capsys):
        self.assert_scenario_refused(HUGE_EPOCH, "an integer of 21 digits; numbers hold at most 19", tmp_path, capsys)

    def assert_scenario_refused(self, epoch, refusal, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"capture_time": epoch}))
        out = tmp_path / "out"
        assert run(["generate", "--scenario", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert refusal in err
        assert not out.exists()

    def test_jsonl_usage_event_past_the_bound_drops_its_line(self, tmp_path, capsys):
        self.assert_event_dropped(LARGE_EPOCH, f"line 1: epoch must be between 0 and {MAX_EPOCH}", tmp_path, capsys)

    def test_jsonl_usage_event_of_too_many_digits_drops_its_line(self, tmp_path, capsys):
        self.assert_event_dropped(HUGE_EPOCH, "line 1: an integer of 21 digits; numbers hold at most 19",
                                  tmp_path, capsys)

    def assert_event_dropped(self, epoch, refusal, tmp_path, capsys):
        bundle = tmp_path / "ftp"
        assert run(["generate", "--preset", "ftp", "--out", str(bundle)]) == 0
        event = {"record": "event", "at": epoch, "package": "com.x", "event_type": "ACTIVITY_RESUMED"}
        (bundle / "raw" / "usagestats.txt").write_text(json.dumps(event) + "\n")
        capsys.readouterr()
        assert run(["parse", "--bundle", str(bundle)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["usagestats"]["events"] == []
        assert [w for w in doc["warnings"] if refusal in w]

    @pytest.mark.parametrize("st", [HUGE_EPOCH, LARGE_EPOCH, 253402300800])
    def test_netstats_bucket_past_the_bound_drops_its_line(self, st, tmp_path, capsys):
        bundle = tmp_path / "ftp"
        assert run(["generate", "--preset", "ftp", "--out", str(bundle)]) == 0
        netstats = bundle / "raw" / "netstats.txt"
        lines = netstats.read_text().splitlines()
        netstats.write_text("\n".join(lines + [f"st={st} rb=1 rp=1 tb=1 tp=1"]) + "\n")
        capsys.readouterr()
        assert run(["report", "--bundle", str(bundle), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        dropped = f"line {len(lines) + 1}: " + (f"epoch must be between 0 and {MAX_EPOCH}, got {st}; dropped"
                                               if st < 10**19 else f"unrecognized: st={st} rb=1 rp=1 tb=1 tp=1")
        assert [w for w in doc["warnings"] if dropped in w]
        assert [f["pattern"] for f in doc["findings"]] == ["ftp_server_exfil"]

    def test_bucket_closing_past_the_bound_exits_2_naming_the_first_in_dump_order(self, tmp_path, capsys):
        # The report anchors a bucket at its close, st + duration, which can
        # pass the bound while st does not.
        bundle = tmp_path / "ftp"
        assert run(["generate", "--preset", "ftp", "--out", str(bundle)]) == 0
        netstats = bundle / "raw" / "netstats.txt"
        late = [MAX_EPOCH - 799, MAX_EPOCH - 1799]
        netstats.write_text(netstats.read_text() + "".join(f"st={st} rb=1 rp=1 tb=1 tp=1\n" for st in late))
        capsys.readouterr()
        assert run(["report", "--bundle", str(bundle)]) == 2
        assert capsys.readouterr().err == (
            f"error: epoch must be between 0 and {MAX_EPOCH}, got {late[0] + 3600}\n"
        )

    @pytest.mark.parametrize("start, status", [(253370764793, 0), (253370764794, 2)])
    def test_clock_start_leaves_room_for_every_plan_step(self, start, status, tmp_path, monkeypatch, capsys):
        # The default plan's 7 steps are stamped start .. start + 6, which must not pass MAX_EPOCH.
        executed = []
        execute = acquisition.FakeExecutor.execute
        monkeypatch.setattr(acquisition.FakeExecutor, "execute",
                            lambda self, command: executed.append(command) or execute(self, command))
        transcripts = tmp_path / "transcripts"
        transcripts.mkdir()
        for command, payload in GALAXY_WATCH5_TRANSCRIPTS.items():
            (transcripts / f"{slug(command)}.txt").write_bytes(payload)
        out = tmp_path / "bundle"
        argv = ["acquire", "--transcripts", str(transcripts), "--out", str(out), "--clock-start", str(start)]
        assert run(argv) == status
        if status == 0:
            items = json.loads((out / "manifest.json").read_text())["manifest"]["items"]
            assert [item["collected_at"] for item in items] == list(range(start, MAX_EPOCH + 1))
            return
        assert capsys.readouterr().err == (
            f"error: --clock-start: must be <= 253370764793 for 7 plan steps stamped one second apart, got {start}\n"
        )
        assert executed == [] and not out.exists()

    def test_clock_start_past_the_bound_exits_2_before_any_step(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        with pytest.raises(SystemExit) as exc:
            run(["acquire", "--transcripts", str(tmp_path), "--out", str(out), "--clock-start", str(LARGE_EPOCH)])
        assert exc.value.code == 2
        assert f"--clock-start: must be <= {MAX_EPOCH}, got {LARGE_EPOCH}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("digits", [20, 5000])
    @pytest.mark.parametrize("argv, name", [
        (["acquire", "--transcripts", "transcripts", "--clock-start"], "_clock_start"),
        (["generate", "--seed"], "_integer"),
    ], ids=["clock-start", "seed"])
    def test_integer_flag_of_too_many_digits_exits_2_whatever_the_digit_limit(
        self, argv, name, digits, tmp_path, capsys
    ):
        # An integer flag holds at most 19 digits, checked before `int` reads
        # it: one exit and one message, unlimited and at the default limit.
        value = "1" * digits
        out = tmp_path / "out"
        results = []
        for limit in (0, 4300):  # unlimited, and the interpreter's default
            with int_digit_limit(limit), pytest.raises(SystemExit) as exc:
                run([*argv, value, "--out", str(out)])
            results.append((exc.value.code, capsys.readouterr().err))
        assert results[0] == results[1]
        code, err = results[0]
        assert code == 2 and err.endswith(f"error: argument {argv[-1]}: invalid {name} value: {value!r}\n")
        assert not out.exists()


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
        assert capsys.readouterr().err.startswith(f"error: {bad}: malformed inventory entries (JSONDecodeError: ")

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
    @pytest.mark.parametrize("value", ["0", "-5", "abc", "٣٦٠٠"])
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

    # A display zone has one source: the flag.
    @pytest.mark.parametrize("source", ["flag"])
    def test_unknown_display_zone_exits_2_naming_it(self, source, case_bundle, tmp_path, capsys):
        transcripts = tmp_path / "transcripts"
        transcripts.mkdir()
        for argv in (
            ["report", "--bundle", str(case_bundle)],
            ["acquire", "--transcripts", str(transcripts), "--out", str(tmp_path / "b")],
        ):
            with pytest.raises(SystemExit) as exc:
                run(argv + ["--display-zone", "Mars/Base"])
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
        lambda doc: doc.__setitem__("hash_algorithm", "md7"),
        lambda doc: doc.__setitem__("hash_algorithm", "sha512"),
        lambda doc: doc["manifest"].__setitem__("hash_algorithm", "md5"),
        lambda doc: doc["manifest"]["items"][0].__setitem__("collected_at", 1683766560.9),
        lambda doc: doc["manifest"]["items"][0].__setitem__("collected_at", "1683766560"),
        lambda doc: doc["manifest"]["items"][0].__setitem__("collected_at", True),
    ], ids=["item-is-a-string", "items-not-a-list", "manifest-is-a-list", "missing-raw-bytes-digest",
            "top-level-not-an-object", "not-json", "not-utf-8", "failures-not-a-list",
            "unknown-hash-algorithm", "other-hash-algorithm", "sealed-hash-algorithm",
            "collected-at-a-float", "collected-at-a-string", "collected-at-true"])
    def test_malformed_manifest_exits_2_naming_it(self, break_manifest, case_bundle, capsys):
        path = case_bundle / "manifest.json"
        doc = json.loads(path.read_text())
        broken = break_manifest(doc) or doc
        path.write_bytes(broken if isinstance(broken, bytes) else json.dumps(broken).encode())
        for command in ("verify", "parse", "correlate", "report"):
            assert run([command, "--bundle", str(case_bundle)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "manifest.json: malformed manifest" in err

    @pytest.mark.parametrize("field, value", [
        ("raw_bytes_digest", []),
        ("raw_bytes_digest", 7),
        ("origin_label", 7),
        ("origin_label", None),
        ("bundle_manifest_digest", []),
        *((name, 5) for name in evidence.DeviceProfile._fields),
        ("cpu_abi", ["arm64-v8a"]),
    ])
    def test_mistyped_manifest_field_exits_2_naming_it(self, field, value, case_bundle, capsys):
        # Unchecked, a list digest reaches the report's digest map, where it
        # is unhashable: a traceback and exit 1, the detections code.
        path = case_bundle / "manifest.json"
        doc = json.loads(path.read_text())
        if field == "bundle_manifest_digest":
            doc[field] = value
        elif field in ("raw_bytes_digest", "origin_label"):
            doc["manifest"]["items"][0][field] = value
        else:
            doc["manifest"]["device"] = {"cpu_abi": "arm64-v8a", field: value}
        path.write_text(json.dumps(doc))
        for command in ("verify", "parse", "correlate", "report"):
            assert run([command, "--bundle", str(case_bundle)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "manifest.json: malformed manifest" in err
            assert f"{field} must be a JSON string, got {value!r}" in err

    @pytest.mark.parametrize("kept, named", [
        (("netstats", "network_stack"), "usagestats"),
        (("usagestats", "network_stack"), "netstats"),
        (("usagestats", "netstats"), "network_stack"),
        (("usagestats",), "netstats"),
        (("network_stack",), "usagestats"),
    ])
    def test_bundle_without_a_dump_kind_exits_2_naming_the_first_missing(self, kept, named, tmp_path, capsys):
        scenario = simulator.preset_case_study()
        dumps = dict(zip(("usagestats", "netstats", "network_stack"), simulator.render_dumps(scenario)))
        captured = [(kind, SourceKind(kind), dumps[kind].encode(), scenario.capture_time)
                    for kind in kept]
        bundle = tmp_path / "bundle"
        acquisition.write_bundle_dir(seal_bundle(captured, "watch", scenario.display_zone), bundle)
        for command in ("parse", "correlate", "report"):
            assert run([command, "--bundle", str(bundle)]) == 2
            assert capsys.readouterr().err == f"error: bundle has no {named} item\n"

    @pytest.mark.parametrize("dump", ["usagestats", "netstats", "network_stack"])
    def test_empty_dump_exits_2_naming_it(self, dump, case_bundle, capsys):
        (case_bundle / "raw" / f"{dump}.txt").write_bytes(b"")
        for command in ("parse", "correlate", "report"):
            assert run([command, "--bundle", str(case_bundle)]) == 2
            assert capsys.readouterr().err == f"error: {dump}: dump text is empty\n"

    @pytest.mark.parametrize("offset", [None, 5, "5"], ids=["null", "whole", "a-string"])
    def test_clock_offset_of_an_earlier_bundle_is_ignored(self, offset, case_bundle, capsys):
        # Bundles written before the offset was dropped carry the key, null in
        # every generated one; the reader ignores it like any key it does not read.
        def outputs():
            assert run(["verify", "--bundle", str(case_bundle)]) == 0
            assert run(["parse", "--bundle", str(case_bundle)]) == 0
            return capsys.readouterr().out

        without = outputs()
        path = case_bundle / "manifest.json"
        doc = json.loads(path.read_text())
        assert "clock_offset_seconds" not in doc
        doc["clock_offset_seconds"] = offset
        path.write_bytes(canonical_json_bytes(doc) + b"\n")
        assert outputs() == without
        assert "overall: PASS" in without

    @pytest.mark.parametrize("label", ["a/b", "", ".", ".."])
    def test_bad_plan_label_exits_2_before_any_step_runs(self, label, acquire_with_plan, capsys):
        plan = {"steps": [step._asdict() for step in acquisition.default_plan().steps]}
        plan["steps"][1]["label"] = label
        assert acquire_with_plan(json.dumps(plan)) == 2
        assert f"plan step label {label!r} is not a single plain file name" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"steps": ["x"]}',
        "[]",
        json.dumps({"steps": [{"label": "netstats", "volatility_rank": 0, "source_kind": "netstats"}]}),
        "not json",
        b'{"steps": [\xff]}',
    ], ids=["step-not-an-object", "top-level-a-list", "step-without-command", "not-json", "not-utf-8"])
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

    # The cases above assert each input's own message; these share one form.
    @pytest.mark.parametrize("kind, content, detail", [
        ("rules", b"not json", "malformed rules (JSONDecodeError: "),
        ("rules", b'[{"pattern": "ftp_server_exfil"}, \xff]', "malformed rules (UnicodeDecodeError: "),
        # int() read 1.9 and true as 1 and accepted "12".
        ("rules", b'[{"pattern": "unclassified_transfer", "min_bytes": 1.9}]',
         "rule #1: malformed rule (TypeError: min_bytes must be a JSON integer, got 1.9)"),
        ("rules", b'[{"pattern": "unclassified_transfer", "min_bytes": true}]',
         "rule #1: malformed rule (TypeError: min_bytes must be a JSON integer, got True)"),
        ("rules", b'[{"pattern": "unclassified_transfer", "min_bytes": "12"}]',
         "rule #1: malformed rule (TypeError: min_bytes must be a JSON integer, got '12')"),
        ("inventory", b'[{"package": "com.x"}, \xff]', "malformed inventory entries (UnicodeDecodeError: "),
        ("scenario", b"[1]", "malformed scenario (TypeError: "),
        ("scenario", b'{"capture_time": 1683809100, "app_sessions": [5]}',
         "app_sessions must be a list of objects, got [5]"),
        ("scenario", scenario_json(lambda d: d.update(reboots=5)), "reboots must be a list of integers, got 5"),
        # IPv4Address(5) is valid, and the lease line `ip=5` was sealed into the bundle.
        ("scenario", scenario_json(lambda d: d["wifi_sessions"][0].update(assigned_ip=5)),
         "assigned_ip must be a JSON string, got 5"),
        ("scenario", scenario_json(lambda d: d.update(capture_time=1683809100.5)),
         "capture_time must be a JSON integer, got 1683809100.5"),
        ("scenario", b"not json", "malformed scenario (JSONDecodeError: "),
        ("scenario", b'{"capture_time": 1683809100, "display_zone": "\xff"}',
         "malformed scenario (UnicodeDecodeError: "),
        # int() read true and 1.9 as 1.
        ("plan", plan_json(lambda d: d["steps"][0].update(volatility_rank=True)),
         "plan step #1: malformed plan step (TypeError: volatility_rank must be a JSON integer, got True)"),
        ("plan", plan_json(lambda d: d["steps"][1].update(volatility_rank=1.9)),
         "plan step #2: malformed plan step (TypeError: volatility_rank must be a JSON integer, got 1.9)"),
        # The plan's own checks ran after the file was read, so their messages named no file.
        ("plan", plan_json(lambda d: d["steps"][1].update(label="a/b")),
         "malformed plan steps (ValueError: plan step label 'a/b' is not a single plain file name)"),
        ("plan", plan_json(lambda d: d["steps"][0].update(volatility_rank=9)),
         "malformed plan steps (ValueError: plan steps must be ordered by ascending volatility rank)"),
        ("plan", plan_json(lambda d: d["steps"][3].update(command="su -c id")),
         "malformed plan steps (ValueError: command requires elevated privileges and is not allowed: 'su -c id')"),
    ], ids=["rules-not-json", "rules-not-utf-8", "rules-min-bytes-a-float", "rules-min-bytes-true",
            "rules-min-bytes-a-string", "inventory-not-utf-8", "scenario-top-level-a-list",
            "scenario-entry-not-an-object", "scenario-reboots-not-a-list", "scenario-assigned-ip-an-int",
            "scenario-capture-time-a-float", "scenario-not-json", "scenario-not-utf-8", "plan-rank-true",
            "plan-rank-a-float", "plan-label-a-path", "plan-misordered", "plan-privileged-command"])
    def test_malformed_json_input_exits_2_naming_it(self, kind, content, detail, case_bundle, tmp_path, capsys):
        path = tmp_path / f"{kind}.json"
        path.write_bytes(content)
        out = tmp_path / "out"
        argv = {
            "rules": ["correlate", "--bundle", str(case_bundle), "--rules", str(path)],
            "inventory": ["audit", "--manifests", str(path), "--device-abi", "armeabi-v7a"],
            "scenario": ["generate", "--scenario", str(path), "--out", str(out)],
            "plan": ["acquire", "--plan", str(path), "--transcripts", str(tmp_path), "--out", str(out)],
        }[kind]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and detail in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["rules", "plan"])
    def test_json_input_nested_past_the_recursion_limit_exits_2_naming_it(self, kind, case_bundle, tmp_path,
                                                                         capsys):
        path = tmp_path / f"{kind}.json"
        path.write_text(DEEP_JSON)
        out = tmp_path / "out"
        argv = {
            "rules": ["correlate", "--bundle", str(case_bundle), "--rules", str(path)],
            "plan": ["acquire", "--plan", str(path), "--transcripts", str(tmp_path), "--out", str(out)],
        }[kind]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: malformed ") and "(RecursionError: maximum recursion depth" in err
        assert not out.exists()

    def test_manifest_key_nested_past_the_recursion_limit_exits_2_naming_it(self, case_bundle, capsys):
        # Read as an integrity failure, it exited 1 with a traceback.
        path = case_bundle / "manifest.json"
        text = path.read_text().rstrip()
        path.write_text(f'{text[:-1]}, "extra": {DEEP_JSON}}}')
        for command in ("verify", "parse"):
            assert run([command, "--bundle", str(case_bundle)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: malformed manifest (RecursionError: "), command

    def test_jsonl_dump_line_nested_past_the_recursion_limit_is_a_line_warning(self, tmp_path, capsys):
        bundle = tmp_path / "ftp"
        assert run(["generate", "--preset", "ftp", "--out", str(bundle)]) == 0
        row = {"network_id": "Cafe", "st": 1683806400, "rb": 1, "rp": 1, "tb": 1, "tp": 1}
        (bundle / "raw" / "netstats.txt").write_text(json.dumps(row) + '\n{"kind":"x","a":' + "[" * 100_000 + "\n")
        capsys.readouterr()
        assert run(["parse", "--bundle", str(bundle)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [r["network_id"] for r in doc["netstats"]] == ["Cafe"]
        assert "netstats: line 2: maximum recursion depth exceeded while decoding a JSON array" in "\n".join(
            doc["warnings"])

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

    def test_environment_configures_nothing(self, case_bundle, tmp_path, monkeypatch, capsys):
        transcripts = tmp_path / "transcripts"
        transcripts.mkdir()
        for command, payload in GALAXY_WATCH5_TRANSCRIPTS.items():
            (transcripts / f"{slug(command)}.txt").write_bytes(payload)
        rules = tmp_path / "rules.json"
        rules.write_text('[{"pattern": "unclassified_transfer"}]')

        def outputs(run_name):
            out = tmp_path / run_name
            results = [(run(argv), capsys.readouterr()) for argv in (
                ["correlate", "--bundle", str(case_bundle)],
                ["report", "--bundle", str(case_bundle)],
                ["acquire", "--transcripts", str(transcripts), "--clock-start", "1683766560", "--out", str(out)],
            )]
            return results, tree(out)

        without = outputs("plain")
        for name, value in {"DISPLAY_ZONE": "Mars/Base", "FORMAT": "json", "RULES": str(rules),
                            "HOST_ARTIFACTS": str(tmp_path / "missing"), "ADB_PATH": "/nonexistent"}.items():
            monkeypatch.setenv(f"WATCHTRIAGE_{name}", value)
        assert outputs("hostile") == without


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
        for name in ("report.render", "report.markdown", "report.digests", "correlate.timeline", "correlate.match",
                     "correlate.corroborate", "host_artifacts.load"):
            assert times[name] > 0, name
        for name in ("report.timeline_rows", "correlate.sessions"):
            assert tracer.counts[name] > 0, name

    def test_parse_records_every_dump_layer(self, spans, case_bundle, tmp_path):
        # The parsers and the timeline build are wrapped on their modules,
        # so they must be called through those module attributes.
        tracer = spans.Tracer()
        spans.instrument(tracer)
        try:
            assert run(["parse", "--bundle", str(case_bundle), "--out", str(tmp_path / "p.json")]) == 0
        finally:
            tracer.restore()
        times = tracer.self_times()
        for name in ("dumpsys.usagestats", "dumpsys.netstats", "dumpsys.network_stack", "correlate.timeline"):
            assert times[name] > 0, name
        assert tracer.counts["dumpsys.lines_in"] > 0


class TestPerCommandParser:
    """main builds one parser for a named command; any other first word gets every subcommand's."""

    @staticmethod
    def full_subparser(command):
        (action,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        return action.choices[command]

    @staticmethod
    def options(parser):
        return sorted(o for a in parser._actions for o in a.option_strings if o not in ("-h", "--help"))

    @pytest.mark.parametrize("command", sorted(CLI_OPTIONS))
    def test_single_command_parser_has_the_same_options(self, command):
        parser = cli.build_parser(command)
        assert not any(isinstance(a, argparse._SubParsersAction) for a in parser._actions)
        assert parser.prog == self.full_subparser(command).prog == f"watchtriage {command}"
        assert self.options(parser) == self.options(self.full_subparser(command)) == CLI_OPTIONS[command]

    @pytest.mark.parametrize("command", sorted(CLI_OPTIONS))
    def test_command_help_is_the_full_parsers(self, command, capsys):
        texts = []
        for parse in (lambda: cli.build_parser().parse_args([command, "-h"]), lambda: run([command, "-h"])):
            with pytest.raises(SystemExit) as exc:
                parse()
            assert exc.value.code == 0
            texts.append(capsys.readouterr())
        assert texts[0].out.startswith(f"usage: watchtriage {command} [-h]")
        assert texts[1] == texts[0]

    def test_unrecognized_option_is_reported_by_the_commands_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--bundle", "b", "--bogus"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "usage: watchtriage verify [-h] --bundle BUNDLE\n"
            "watchtriage verify: error: unrecognized arguments: --bogus\n")

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
