"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with `pytest -s tests/test_acceptance.py`).

Volume tolerances use MB = 10**6 bytes throughout.
"""

import time
from contextlib import contextmanager

from watchtriage import simulator
from watchtriage.correlate import AmbiguityFlag, Confidence, FindingPattern
from watchtriage.dumpsys import parse_netstats, parse_network_stack, parse_usagestats
from watchtriage.evidence import SourceKind, Timestamp, seal_bundle, verify_bundle
from watchtriage.policy import WATCH_FEATURE, ManifestInfo, VerdictKind, check_abi, combine_verdict, parse_manifest
from watchtriage.simulator import finding_fingerprint
from tests.conftest import run_pipeline

MB = 10**6
CORPUS_SIZE = 200


@contextmanager
def criterion(num, text):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {num}: {text}")
        raise
    print(f"PASS criterion {num}: {text}")


def within(value, target, tolerance=0.01):
    return abs(value - target) <= tolerance * target


def test_criterion_1_ftp_case_reproduction():
    with criterion(1, "FTP case reproduction (corroborated/consistent, <1s)"):
        started = time.perf_counter()
        scenario = simulator.preset_ftp_file_server()

        result = run_pipeline(scenario, with_host=True)
        findings = result["findings"]
        assert len(findings) == 1
        f = findings[0]
        assert f.pattern == FindingPattern.FTP_SERVER_EXFIL
        assert f.session.packages == ("com.corproxy.files",)
        assert f.session.app_start.render(scenario.display_zone).startswith("2023-05-11 01:14:16")
        assert f.session.network_ids == ("KT_GiGA_5G_EFB7",)
        assert within(f.direction_summary.bytes_in, 47 * MB)
        assert {lease.private_ip for lease in f.session.resolved_leases} == {"172.30.1.76"}
        assert f.confidence == Confidence.CORROBORATED

        withheld = run_pipeline(scenario, with_host=False)["findings"]
        assert len(withheld) == 1
        assert withheld[0].pattern == FindingPattern.FTP_SERVER_EXFIL
        assert withheld[0].confidence == Confidence.CONSISTENT

        assert time.perf_counter() - started < 1.0


def test_criterion_2_sftp_case_reproduction():
    with criterion(2, "SFTP case reproduction (known_hosts corroboration, <1s)"):
        started = time.perf_counter()
        scenario = simulator.preset_sftp_server()
        result = run_pipeline(scenario, with_host=True)
        findings = result["findings"]
        assert len(findings) == 1
        f = findings[0]
        assert f.pattern == FindingPattern.SFTP_SERVER_EXFIL
        assert f.session.packages == ("net.xnano.android.sshserver",)
        assert f.session.app_start.render(scenario.display_zone).startswith("2023-05-11 21:10:06")
        assert f.session.network_ids == ("outgoingowl",)
        assert {lease.private_ip for lease in f.session.resolved_leases} == {"192.162.35.52"}
        assert f.confidence == Confidence.CORROBORATED
        assert any(e.host == "192.162.35.52" and e.port == 2222 for e in f.host_corroboration)
        assert time.perf_counter() - started < 1.0


def test_criterion_3_hidden_camera_reproduction():
    with criterion(3, "hidden camera: in-window 31 MB out + expired 125 MB session"):
        result = run_pipeline(simulator.preset_hidden_camera(), with_host=True)
        findings = result["findings"]

        camera = [f for f in findings if f.pattern == FindingPattern.HIDDEN_CAMERA_CONTROL]
        assert len(camera) == 1
        in_window = camera[0]
        assert in_window.session.packages == ("com.view.ppcs",)
        assert in_window.session.network_ids == ("F818026FNMEN",)
        assert within(in_window.direction_summary.bytes_out, 31 * MB)
        assert in_window.session.app_events  # usage evidence still present

        old = [
            f for f in findings
            if any(b.st.epoch == 1683547200 for b in f.session.buckets)
        ]
        assert len(old) == 1
        expired = old[0]
        assert expired.session.app_events == ()  # no usage event survived
        assert AmbiguityFlag.USAGE_EVIDENCE_EXPIRED in expired.session.ambiguity_flags
        assert within(expired.direction_summary.bytes_out, 125 * MB)
        assert expired.session.network_ids == ("F818026FNMEN",)


def test_criterion_4_same_bucket_ambiguity():
    with criterion(4, "two SSIDs in one bucket start: one flagged session, no corroboration"):
        result = run_pipeline(simulator.preset_same_start_ambiguity(), with_host=True)
        sessions = result["sessions"]
        flagged = [
            s for s in sessions if AmbiguityFlag.MULTI_NETWORK_SAME_BUCKET in s.ambiguity_flags
        ]
        assert len(sessions) == 1
        assert len(flagged) == 1
        assert len({b.network_id for b in flagged[0].buckets}) == 2
        # time-only lease matching must not produce a corroborated grading
        assert flagged[0].resolved_leases == ()
        for f in result["findings"]:
            assert f.confidence != Confidence.CORROBORATED


def test_criterion_5_oracle_equivalence_over_corpus():
    with criterion(5, f"oracle equivalence over {CORPUS_SIZE} seeded scenarios (<60s)"):
        started = time.perf_counter()
        for seed in range(CORPUS_SIZE):
            scenario = simulator.random_scenario(seed)
            findings = run_pipeline(scenario, with_host=True)["findings"]
            mine = sorted(finding_fingerprint(f) for f in findings)
            expected = simulator.oracle_findings(scenario)
            assert mine == expected, f"seed {seed}: pipeline disagrees with oracle"
        assert time.perf_counter() - started < 60.0


def test_criterion_6_round_trip_parsing_over_corpus():
    with criterion(6, f"round-trip parse(render(s)) exact over {CORPUS_SIZE} scenarios"):
        for seed in range(CORPUS_SIZE):
            scenario = simulator.random_scenario(seed)
            usagestats, netstats, network_stack = simulator.render_dumps(scenario)

            report, w1 = parse_usagestats(
                usagestats, Timestamp(scenario.capture_time), scenario.display_zone
            )
            records, w2 = parse_netstats(netstats)
            lease_log, w3 = parse_network_stack(network_stack, scenario.display_zone)
            assert w1 == w2 == w3 == []

            assert [
                (e.package, e.event_type, e.at.epoch) for e in report.events_24h
            ] == simulator.ground_truth_events(scenario)
            assert sorted(
                (r.network_id, r.st.epoch, r.rb, r.rp, r.tb, r.tp) for r in records
            ) == sorted(simulator.ground_truth_records(scenario))
            assert [
                (l.at.epoch, l.private_ip, l.network_id) for l in lease_log.leases
            ] == simulator.ground_truth_leases(scenario)

            # byte conservation to equality
            truth_total = sum(w.bytes_in + w.bytes_out for w in scenario.wifi_sessions)
            assert sum(r.rb + r.tb for r in records) == truth_total


def test_criterion_7_volatility_semantics():
    with criterion(7, "reboot clears pre-reboot leases; only corroboration is lost"):
        checked = 0
        for seed in range(40):
            base = simulator.random_scenario(seed)._replace(reboots=())
            rebooted = base._replace(reboots=(base.capture_time,))

            _, _, network_stack = simulator.render_dumps(rebooted)
            assert "DHCP_ACK" not in network_stack  # zero pre-reboot leases

            def keyed(scenario):
                findings = run_pipeline(scenario, with_host=True)["findings"]
                return {
                    (
                        f.pattern.value,
                        f.session.packages,
                        tuple(sorted((b.network_id, b.st.epoch) for b in f.session.buckets)),
                    ): f
                    for f in findings
                }

            before, after = keyed(base), keyed(rebooted)
            assert before.keys() == after.keys()  # pattern assignment unchanged
            for key, f_before in before.items():
                f_after = after[key]
                if f_before.confidence == Confidence.CORROBORATED:
                    checked += 1
                    assert f_after.confidence in (Confidence.CONSISTENT, Confidence.AMBIGUOUS)
                else:
                    assert f_after.confidence == f_before.confidence
        assert checked > 0  # the corpus exercised corroborated findings


def test_criterion_8_policy_audit():
    with criterion(8, "manifest watch-feature + ABI policy, full truth table"):
        watch_xml = (
            '<manifest xmlns:android="http://schemas.android.com/apk/res/android" '
            'package="com.watch.app"><uses-feature '
            'android:name="android.hardware.type.watch"/></manifest>'
        )
        info = parse_manifest(watch_xml)
        assert combine_verdict(info, "armeabi-v7a").verdict == VerdictKind.COMPLIANT

        phone_xml = '<manifest package="net.xnano.android.sshserver"/>'
        assert (
            combine_verdict(parse_manifest(phone_xml), "armeabi-v7a").verdict
            == VerdictKind.SIDELOADED_PHONE_APP
        )

        assert not check_abi(["arm64-v8a"], "armeabi-v7a").compatible

        table = {
            (True, "ok"): VerdictKind.COMPLIANT,
            (True, "bad"): VerdictKind.ABI_INCOMPATIBLE,
            (True, "universal"): VerdictKind.COMPLIANT,
            (False, "ok"): VerdictKind.SIDELOADED_PHONE_APP,
            (False, "bad"): VerdictKind.ABI_INCOMPATIBLE,
            (False, "universal"): VerdictKind.SIDELOADED_PHONE_APP,
        }
        abis = {"ok": ("armeabi-v7a",), "bad": ("arm64-v8a",), "universal": ()}
        for (feature, abi_case), expected in table.items():
            features = (WATCH_FEATURE,) if feature else ()
            verdict = combine_verdict(ManifestInfo("com.t", features, abis[abi_case]), "armeabi-v7a")
            assert verdict.verdict == expected, (feature, abi_case)


def test_criterion_9_evidence_integrity():
    with criterion(9, "bundle verifies clean; any single byte flip is detected"):
        scenario = simulator.preset_case_study()
        texts = simulator.render_dumps(scenario)
        kinds = (SourceKind.USAGESTATS, SourceKind.NETSTATS, SourceKind.NETWORK_STACK)
        captured = [(kind.value, kind, text.encode(), scenario.capture_time) for kind, text in zip(kinds, texts)]
        bundle = seal_bundle(captured, "synthetic", scenario.display_zone)
        payloads = bundle.payloads
        assert verify_bundle(bundle, payloads).overall_pass

        for item in bundle.items:
            raw = payloads[item.key()]
            for position in (0, len(raw) // 2, len(raw) - 1):
                mutated = bytearray(raw)
                mutated[position] ^= 0x01
                tampered = dict(payloads)
                tampered[item.key()] = bytes(mutated)
                result = verify_bundle(bundle, tampered)
                assert not result.overall_pass
                statuses = {r.item_key: r.status for r in result.results}
                assert statuses[item.key()] == "fail"
                assert all(s == "pass" for k, s in statuses.items() if k != item.key())
