import json

import pytest

from watchtriage.acquisition import (
    AcquisitionPlan,
    AcquisitionStep,
    ExecutorUnreachableError,
    FakeExecutor,
    default_plan,
    load_plan,
    read_bundle_dir,
    run_acquisition,
    write_bundle_dir,
)
from watchtriage.cli import main
from watchtriage.evidence import SourceKind, document_text, seal_bundle, verify_bundle

# Transcript in the shape a Galaxy Watch 5 returns (Android 11, 32-bit ARM).
GALAXY_WATCH5_TRANSCRIPTS = {
    "dumpsys network_stack": b'DUMP OF SERVICE network_stack:\n  time="2023-05-11 01:14:22" iface=wlan0 event=DHCP_ACK ip=172.30.1.76 ssid="KT_GiGA_5G_EFB7"\n',
    "dumpsys netstats": b'DUMP OF SERVICE netstats:\n  Xt stats:\n    ident=[{type=WIFI, networkId="KT_GiGA_5G_EFB7"}]\n        st=1683734400 rb=47185920 rp=33705 tb=1048576 tp=749\n',
    "dumpsys usagestats": b'DUMP OF SERVICE usagestats:\n  Last 24 hour events:\n    time="2023-05-11 01:14:16" type=ACTIVITY_RESUMED package=com.corproxy.files\n',
    "getprop ro.build.version.release": b"11\n",
    "getprop ro.product.cpu.abi": b"armeabi-v7a\n",
    "getprop ro.product.model": b"SM-R910\n",
    "getprop net.hostname": b"heartbl\n",
    "date +%s": b"1683766561\n",
}


class TestDefaultPlan:
    def test_network_stack_strictly_first(self):
        plan = default_plan()
        assert plan.steps[0].command == "dumpsys network_stack"
        dump_steps = [s for s in plan.steps if s.command.startswith("dumpsys")]
        assert dump_steps[0].label == "network_stack"

    def test_contains_required_commands_in_order(self):
        commands = [s.command for s in default_plan().steps]
        required = [
            "dumpsys network_stack",
            "dumpsys netstats",
            "dumpsys usagestats",
            "getprop ro.build.version.release",
            "getprop ro.product.cpu.abi",
        ]
        positions = [commands.index(c) for c in required]
        assert positions == sorted(positions)

    def test_labels_unique(self):
        labels = [s.label for s in default_plan().steps]
        assert len(labels) == len(set(labels))

    def test_plan_file_round_trip(self, tmp_path):
        plan = default_plan()
        path = tmp_path / "plan.json"
        path.write_text(document_text({"steps": [step._asdict() for step in plan.steps]}), encoding="utf-8")
        reloaded = load_plan(path)
        assert [s.command for s in reloaded.steps] == [s.command for s in plan.steps]
        assert [s.volatility_rank for s in reloaded.steps] == [s.volatility_rank for s in plan.steps]

    @pytest.mark.parametrize("label", ["", ".", "..", "a/b", "../../escaped", 7])
    def test_label_that_is_not_a_plain_file_name_rejected(self, label):
        with pytest.raises(ValueError, match="is not a single plain file name"):
            AcquisitionPlan((AcquisitionStep(label, "dumpsys netstats", 0, SourceKind.NETSTATS),))

    def test_misordered_plan_rejected(self):
        with pytest.raises(ValueError):
            AcquisitionPlan(
                (
                    AcquisitionStep("a", "dumpsys netstats", 1, SourceKind.NETSTATS),
                    AcquisitionStep("b", "dumpsys network_stack", 0, SourceKind.NETWORK_STACK),
                )
            )

    @pytest.mark.parametrize("command", ["su -c id", "cat /data/data/com.x/db", "ls; su"])
    def test_privileged_commands_rejected(self, command):
        with pytest.raises(ValueError):
            AcquisitionPlan((AcquisitionStep("bad", command, 0, SourceKind.GETPROP),))


def transcripts_without(command):
    """The Galaxy Watch 5 transcripts but for `command`'s, so that step fails."""
    return {k: v for k, v in GALAXY_WATCH5_TRANSCRIPTS.items() if k != command}


class UnreachableExecutor(FakeExecutor):
    def execute(self, command):
        raise ExecutorUnreachableError("debug bridge unreachable")


class TestRunAcquisition:
    def test_device_profile_from_getprop(self):
        executor = FakeExecutor(GALAXY_WATCH5_TRANSCRIPTS)
        result = run_acquisition(executor, clock=lambda: 1683766560)
        assert result.device.android_version == "11"
        assert result.device.cpu_abi == "armeabi-v7a"
        assert result.device.model_number == "SM-R910"
        assert result.device.adb_host_name == "heartbl"

    def test_raw_bytes_stored_verbatim(self):
        executor = FakeExecutor(GALAXY_WATCH5_TRANSCRIPTS)
        result = run_acquisition(executor, clock=lambda: 1683766560)
        by_label = {result.labels[k]: result.payloads[k] for k in result.payloads}
        assert by_label["netstats"] == GALAXY_WATCH5_TRANSCRIPTS["dumpsys netstats"]
        assert verify_bundle(result, result.payloads).overall_pass

    def test_single_step_failure_recorded_without_aborting(self):
        executor = FakeExecutor(transcripts_without("dumpsys netstats"))
        result = run_acquisition(executor, clock=lambda: 1683766560)
        assert len(result.failures) == 1
        assert result.failures[0].label == "netstats"
        assert result.failures[0].detail.startswith("exit status 127: no transcript")
        assert len(result.items) == len(default_plan().steps) - 1

    def test_no_profile_without_cpu_abi(self):
        executor = FakeExecutor(transcripts_without("getprop ro.product.cpu.abi"))
        result = run_acquisition(executor, clock=lambda: 1683766560)
        assert result.device is None
        assert any(f.label == "cpu_abi" for f in result.failures)

    def test_unreachable_executor_aborts_before_any_step(self):
        executor = UnreachableExecutor(GALAXY_WATCH5_TRANSCRIPTS)
        with pytest.raises(ExecutorUnreachableError):
            run_acquisition(executor, clock=lambda: 0)
        assert executor.executed == []

    def test_identical_transcripts_and_clock_give_identical_digests(self):
        digests = []
        for _ in range(2):
            executor = FakeExecutor(GALAXY_WATCH5_TRANSCRIPTS)
            result = run_acquisition(executor, clock=lambda: 1683766560)
            digests.append(result.bundle_manifest_digest)
        assert digests[0] == digests[1]

    def test_constant_clock_still_yields_unique_item_times(self):
        executor = FakeExecutor(GALAXY_WATCH5_TRANSCRIPTS)
        result = run_acquisition(executor, clock=lambda: 1683766560)
        times = [i.collected_at.epoch for i in result.items]
        assert len(times) == len(set(times))

    def test_volatility_order_of_executed_commands(self):
        executor = FakeExecutor(GALAXY_WATCH5_TRANSCRIPTS)
        run_acquisition(executor, clock=lambda: 0)
        executed_dumps = [c for c in executor.executed if c.startswith("dumpsys")]
        assert executed_dumps[0] == "dumpsys network_stack"


def _bundle_files(bundle_dir):
    """manifest.json and raw/* of a bundle directory, by relative path."""
    paths = [bundle_dir / "manifest.json", *(bundle_dir / "raw").iterdir()]
    return {p.relative_to(bundle_dir): p.read_bytes() for p in paths}


class TestBundleDir:
    def test_write_read_round_trip(self, tmp_path):
        executor = FakeExecutor(transcripts_without("getprop ro.product.model"))
        result = run_acquisition(executor, clock=lambda: 1683766560)
        assert result.failures
        out = write_bundle_dir(result, tmp_path / "bundle")
        loaded = read_bundle_dir(out)
        assert loaded == result  # manifest, payloads, labels, failures and zone
        assert verify_bundle(loaded, loaded.payloads).overall_pass

        # Writing back what was read reproduces the manifest and every raw file.
        generated = tmp_path / "generated"
        assert main(["generate", "--preset", "ftp", "--out", str(generated)]) == 0
        for original in (out, generated):
            copy = write_bundle_dir(read_bundle_dir(original), tmp_path / "copy" / original.name)
            assert _bundle_files(copy) == _bundle_files(original)

    def test_raw_files_on_disk_are_verbatim(self, tmp_path):
        executor = FakeExecutor(GALAXY_WATCH5_TRANSCRIPTS)
        result = run_acquisition(executor, clock=lambda: 1683766560)
        out = write_bundle_dir(result, tmp_path / "bundle")
        raw = (out / "raw" / "usagestats.txt").read_bytes()
        assert raw == GALAXY_WATCH5_TRANSCRIPTS["dumpsys usagestats"]

    @pytest.mark.parametrize("label", ["../../escaped", "../../bundle2/escaped"])
    def test_label_escaping_the_bundle_is_rejected(self, tmp_path, label):
        # A plan refuses such a label; the writer checks it again for bundles sealed without one.
        raw = GALAXY_WATCH5_TRANSCRIPTS["dumpsys netstats"]
        result = seal_bundle([(label, SourceKind.NETSTATS, raw, 1683766560)], "watch", "Asia/Seoul")
        out = tmp_path / "a" / "bundle"
        with pytest.raises(ValueError, match="not a relative path inside the bundle directory"):
            write_bundle_dir(result, out)
        assert list(tmp_path.rglob("*")) == []  # nothing written, inside or out

    def test_repeated_step_label_is_refused_before_anything_is_written(self, tmp_path):
        # Both payloads would go to raw/x.txt, the second over the first.
        captured = [("x", SourceKind.NETSTATS, b"aaa", 1683766560), ("x", SourceKind.USAGESTATS, b"bbb", 1683766560)]
        with pytest.raises(ValueError, match="duplicate step label 'x'"):
            write_bundle_dir(seal_bundle(captured, "watch", "Asia/Seoul"), tmp_path / "bundle")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("rel", ["/etc/hostname", "../outside.txt", "raw/../../outside.txt", None])
    def test_file_entry_outside_the_bundle_is_rejected(self, tmp_path, rel):
        result = run_acquisition(FakeExecutor(GALAXY_WATCH5_TRANSCRIPTS), clock=lambda: 1683766560)
        out = write_bundle_dir(result, tmp_path / "bundle")
        (tmp_path / "outside.txt").write_bytes(GALAXY_WATCH5_TRANSCRIPTS["dumpsys netstats"])
        manifest = json.loads((out / "manifest.json").read_text())
        key = next(k for k, v in manifest["files"].items() if v == "raw/netstats.txt")
        manifest["files"][key] = rel
        (out / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="not a relative path inside the bundle directory"):
            read_bundle_dir(out)

    def test_unknown_hash_algorithm_is_a_malformed_manifest_naming_the_field(self, tmp_path):
        result = run_acquisition(FakeExecutor(GALAXY_WATCH5_TRANSCRIPTS), clock=lambda: 1683766560)
        out = write_bundle_dir(result, tmp_path / "bundle")
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["hash_algorithm"] = "md7"
        (out / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=r"manifest\.json: malformed manifest .*hash_algorithm 'md7'"):
            read_bundle_dir(out)
