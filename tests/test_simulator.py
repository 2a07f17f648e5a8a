import json
import re

import pytest

from watchtriage import simulator
from watchtriage.cli import main
from watchtriage.simulator import (
    AppSession,
    HostArtifactSpec,
    Scenario,
    WifiSession,
    bucketize_session,
    ground_truth_events,
    ground_truth_leases,
    ground_truth_records,
    load_scenario,
    random_scenario,
    render_dumps,
    render_host_artifacts,
    scenario_from_dict,
    scenario_to_dict,
    validate,
)

CAPTURE = 1683809100

# Values the rendered files cannot carry back, with the field each refusal
# names: a usage-event line splits at whitespace, a quoted SSID ends at '"'
# or a line break, a known_hosts line splits at whitespace and ',', and
# neither XML nor UTF-8 holds a control character or a lone surrogate.
UNCARRIABLE = {
    "package-with-space": (AppSession("com.corproxy.files extra", 100, 200), r"app_sessions\[0\]: package"),
    "package-with-tab": (AppSession("com.corproxy\tfiles", 100, 200), r"app_sessions\[0\]: package"),
    "package-with-surrogate": (AppSession("com.corproxy\ud800", 100, 200), r"app_sessions\[0\]: package"),
    "ssid-with-quote": (WifiSession('Cafe"Net', 100, 200, 0, 0, "10.0.0.1"), r"wifi_sessions\[0\]: ssid"),
    "ssid-with-newline": (WifiSession("Cafe\nNet", 100, 200, 0, 0, "10.0.0.1"), r"wifi_sessions\[0\]: ssid"),
    "ssid-with-surrogate": (WifiSession("Cafe\ud800", 100, 200, 0, 0, "10.0.0.1"), r"wifi_sessions\[0\]: ssid"),
    "host-with-space": (HostArtifactSpec("recentservers", "nas backup", 21), r"host_side\[0\]: host"),
    "host-with-comma": (HostArtifactSpec("known_hosts", "nas,backup", 22), r"host_side\[0\]: host"),
    "host-with-control": (HostArtifactSpec("recentservers", "nas\x01", 21), r"host_side\[0\]: host"),
    "host-with-surrogate": (HostArtifactSpec("recentservers", "nas\ud800", 21), r"host_side\[0\]: host"),
}


def _scenario_with(record) -> Scenario:
    field = {AppSession: "app_sessions", WifiSession: "wifi_sessions", HostArtifactSpec: "host_side"}[type(record)]
    return Scenario(CAPTURE, **{field: (record,)})


class TestValidation:
    def test_inverted_interval_named(self):
        s = Scenario(CAPTURE, app_sessions=(AppSession("com.x", 100, 50),))
        with pytest.raises(ValueError, match="app_sessions\\[0\\]"):
            validate(s)

    def test_bad_ip_named(self):
        s = Scenario(
            CAPTURE,
            wifi_sessions=(WifiSession("net", 100, 200, 0, 0, "999.1.1.1"),),
        )
        with pytest.raises(ValueError, match="wifi_sessions\\[0\\]"):
            validate(s)

    def test_session_past_capture_rejected(self):
        s = Scenario(100, wifi_sessions=(WifiSession("net", 50, 200, 0, 0, "10.0.0.1"),))
        with pytest.raises(ValueError, match="capture_time"):
            validate(s)

    def test_unknown_host_artifact_kind_rejected(self):
        s = Scenario(CAPTURE, host_side=(HostArtifactSpec("registry", "1.2.3.4", 21),))
        with pytest.raises(ValueError, match="host_side\\[0\\]"):
            validate(s)

    @pytest.mark.parametrize("name", sorted(UNCARRIABLE))
    def test_value_the_files_cannot_carry_back_refused(self, name, tmp_path, capsys):
        record, field = UNCARRIABLE[name]
        s = _scenario_with(record)
        with pytest.raises(ValueError, match=field):
            validate(s)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_to_dict(s)))
        assert main(["generate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        assert re.search(field, capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_xml_special_host_round_trips_to_the_oracle(self, pipeline):
        # An unescaped '&' would make recentservers.xml malformed and lose
        # the entry that corroborates the FTP session too.
        ftp = simulator.preset_ftp_file_server()
        s = Scenario(ftp.capture_time, ftp.app_sessions, ftp.wifi_sessions, display_zone=ftp.display_zone,
                     host_side=(HostArtifactSpec("recentservers", "nas&<backup>", 21),
                                HostArtifactSpec("recentservers", "172.30.1.76", 2221)))
        got = sorted(simulator.finding_fingerprint(f) for f in pipeline(s)["findings"])
        assert got == simulator.oracle_findings(s)
        assert [fp[1] for fp in got] == ["corroborated"]


class TestBucketize:
    def test_bytes_conserved_exactly(self):
        w = WifiSession("net", 1683802999, 1683812345, 123_456_789, 987_654_321, "10.0.0.1")
        rows = bucketize_session(w)
        assert sum(r[1] for r in rows) == w.bytes_in
        assert sum(r[3] for r in rows) == w.bytes_out

    def test_bucket_starts_aligned_and_cover_session(self):
        w = WifiSession("net", 1683803000, 1683809000, 1000, 1000, "10.0.0.1")
        rows = bucketize_session(w)
        sts = [r[0] for r in rows]
        assert all(st % 3600 == 0 for st in sts)
        assert sts[0] <= w.start < sts[0] + 3600
        assert sts[-1] <= w.end - 1 < sts[-1] + 3600
        assert sts == sorted(sts)

    def test_custom_duration(self):
        w = WifiSession("net", 100, 500, 400, 0, "10.0.0.1")
        rows = bucketize_session(w, duration=120)
        assert [r[0] for r in rows] == [0, 120, 240, 360, 480]
        assert sum(r[1] for r in rows) == 400

    def test_overlapping_sessions_merge_per_bucket(self):
        s = Scenario(
            CAPTURE,
            wifi_sessions=(
                WifiSession("net", 1683802800, 1683804600, 1000, 0, "10.0.0.1"),
                WifiSession("net", 1683803700, 1683806400, 500, 0, "10.0.0.1"),
            ),
        )
        records = ground_truth_records(s)
        assert len({(ssid, st) for ssid, st, *_ in records}) == len(records)
        assert sum(r[2] for r in records) == 1500


class TestUsageWindow:
    def test_session_ending_24h_plus_1s_before_capture_emits_no_event(self):
        end = CAPTURE - 86401
        s = Scenario(CAPTURE, app_sessions=(AppSession("com.x", end - 600, end),))
        assert ground_truth_events(s) == []
        usagestats, _, _ = render_dumps(s)
        assert "ACTIVITY" not in usagestats
        assert "lastTimeUsed" in usagestats  # survives only as an aggregate

    def test_event_exactly_at_window_edge_is_kept(self):
        end = CAPTURE - 86400
        s = Scenario(CAPTURE, app_sessions=(AppSession("com.x", end - 600, end),))
        events = ground_truth_events(s)
        assert [(p, t) for p, _typ, t in events] == [("com.x", end)]

    def test_straddling_session_keeps_only_in_window_events(self):
        start = CAPTURE - 86500
        end = CAPTURE - 86000
        s = Scenario(CAPTURE, app_sessions=(AppSession("com.x", start, end),))
        events = ground_truth_events(s)
        assert [typ for _p, typ, _t in events] == ["ACTIVITY_PAUSED"]


class TestVolatility:
    def test_reboot_after_all_sessions_clears_leases(self):
        s = Scenario(
            CAPTURE,
            wifi_sessions=(WifiSession("net", 1683700000, 1683701000, 10, 10, "10.0.0.1"),),
            reboots=(1683800000,),
        )
        assert ground_truth_leases(s) == []
        _, _, network_stack = render_dumps(s)
        assert "DHCP_ACK" not in network_stack
        assert "bootTime" in network_stack

    def test_only_pre_reboot_leases_dropped(self):
        s = Scenario(
            CAPTURE,
            wifi_sessions=(
                WifiSession("old", 1683700000, 1683701000, 10, 10, "10.0.0.1"),
                WifiSession("new", 1683801000, 1683802000, 10, 10, "10.0.0.2"),
            ),
            reboots=(1683800000,),
        )
        leases = ground_truth_leases(s)
        assert [ip for _at, ip, _ssid in leases] == ["10.0.0.2"]

    def test_reboot_after_capture_ignored(self):
        s = Scenario(
            100_000,
            wifi_sessions=(WifiSession("net", 50_000, 60_000, 10, 10, "10.0.0.1"),),
            reboots=(200_000,),
        )
        assert len(ground_truth_leases(s)) == 1


class TestRendering:
    def test_byte_stable_for_identical_scenarios(self):
        a = render_dumps(simulator.preset_case_study())
        b = render_dumps(simulator.preset_case_study())
        assert a == b
        assert render_host_artifacts(simulator.preset_case_study()) == render_host_artifacts(
            simulator.preset_case_study()
        )

    def test_lease_ssid_flag_controls_rendering(self):
        s = simulator.preset_ftp_file_server()
        _, _, with_ssid = render_dumps(s)
        assert 'ssid="KT_GiGA_5G_EFB7"' in with_ssid
        bare = s._replace(leases_carry_ssid=False)
        _, _, without_ssid = render_dumps(bare)
        assert "ssid=" not in without_ssid

    def test_empty_host_side_renders_empty_artifacts(self):
        s = Scenario(CAPTURE)
        xml, known_hosts = render_host_artifacts(s)
        assert "<Server>" not in xml
        assert known_hosts == ""

    def test_invalid_scenario_rejected_at_render(self):
        s = Scenario(CAPTURE, app_sessions=(AppSession("", 1, 2),))
        with pytest.raises(ValueError, match=r"app_sessions\[0\]: package must be non-empty"):
            render_dumps(s)


class TestScenarioIO:
    def test_json_round_trip(self, tmp_path):
        s = simulator.preset_case_study()
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_to_dict(s)))
        assert load_scenario(path) == s

    def test_from_dict_validates(self):
        data = scenario_to_dict(simulator.preset_ftp_file_server())
        data["wifi_sessions"][0]["assigned_ip"] = "not-an-ip"
        with pytest.raises(ValueError, match=r"wifi_sessions\[0\]: assigned_ip 'not-an-ip'"):
            scenario_from_dict(data)


class TestRandomScenario:
    def test_same_seed_same_scenario(self):
        assert random_scenario(99) == random_scenario(99)

    def test_different_seeds_differ(self):
        assert random_scenario(1) != random_scenario(2)

    def test_generated_scenarios_valid_and_bounded(self):
        for seed in range(50):
            s = random_scenario(seed)
            validate(s)
            assert len({a.package for a in s.app_sessions}) <= 8
            assert len({w.ssid for w in s.wifi_sessions}) <= 8
            horizon = s.capture_time - 72 * 3600
            for w in s.wifi_sessions:
                assert horizon <= w.start < w.end <= s.capture_time


def test_oracle_neighbour_lookup_finds_every_join(pipeline):
    # One row per way two rows can join or must not: the oracle looks a
    # row's neighbours up by (network, start +- duration) and by start, so a
    # join it missed or made would change these sessions.
    h = CAPTURE // 3600 * 3600 - 10 * 3600
    s = Scenario(
        CAPTURE,
        app_sessions=(
            AppSession(simulator.FTP_PACKAGE, h + 600, h + 1200),
            # Both events in the next bucket: the first at exactly h + 3600.
            AppSession(simulator.SFTP_PACKAGE, h + 3600, h + 4000),
        ),
        wifi_sessions=(
            # cafe and home share start h and the FTP events: one session.
            WifiSession("cafe", h + 300, h + 3000, 30_000_000, 1_000_000, "10.0.0.2"),
            WifiSession("home", h + 1800, h + 3300, 20_000_000, 1_000_000, "10.0.1.2"),
            # cafe one duration on, with the SFTP events instead: its own session.
            WifiSession("cafe", h + 3600, h + 6000, 5_000_000, 1_000_000, "10.0.0.2"),
            # office's two rows, one duration apart and without events: one session.
            WifiSession("office", h + 3 * 3600 + 600, h + 5 * 3600 - 600, 50_000_000, 0, "10.0.2.2"),
            # hotel one duration after office's last row, on another network: apart.
            WifiSession("hotel", h + 5 * 3600 + 60, h + 5 * 3600 + 1800, 15_000_000, 0, "10.0.3.2"),
        ),
        host_side=(HostArtifactSpec("recentservers", "10.0.0.2", 21),),
    )
    fingerprints = simulator.oracle_findings(s)
    assert [(pattern, confidence, flags, packages, [(ssid, st - h) for ssid, st, *_ in buckets], ips)
            for pattern, confidence, flags, packages, _in, _out, buckets, ips, _hosts in fingerprints] == [
        ("ftp_server_exfil", "corroborated", ("multi_network_same_bucket",), (simulator.FTP_PACKAGE,),
         [("cafe", 0), ("home", 0)], ("10.0.0.2", "10.0.1.2")),
        ("sftp_server_exfil", "corroborated", (), (simulator.SFTP_PACKAGE,),
         [("cafe", 3600)], ("10.0.0.2",)),
        ("unclassified_transfer", "ambiguous", ("usage_evidence_expired",), (),
         [("hotel", 5 * 3600)], ("10.0.3.2",)),
        ("unclassified_transfer", "ambiguous", ("usage_evidence_expired",), (),
         [("office", 3 * 3600), ("office", 4 * 3600)], ("10.0.2.2",)),
    ]
    assert sorted(simulator.finding_fingerprint(f) for f in pipeline(s)["findings"]) == fingerprints


def test_case_study_scenario_structure_matches_oracle():
    fingerprints = simulator.oracle_findings(simulator.preset_case_study())
    patterns = sorted(fp[0] for fp in fingerprints)
    assert patterns == ["ftp_server_exfil", "sftp_server_exfil", "unclassified_transfer"]
    confidences = {fp[0]: fp[1] for fp in fingerprints}
    assert confidences["ftp_server_exfil"] == "corroborated"
    assert confidences["sftp_server_exfil"] == "corroborated"
    assert confidences["unclassified_transfer"] == "ambiguous"
