import fnmatch
import json
import random
from bisect import bisect_left
from collections import Counter

import pytest

from watchtriage import simulator
from watchtriage.correlate import (
    DEFAULT_RULES,
    AmbiguityFlag,
    AppNetworkSession,
    Confidence,
    DirectionBias,
    FindingPattern,
    PatternRule,
    Timeline,
    build_timeline,
    findings_document,
    grade_volume,
    match_pattern,
    match_sessions,
    DirectionSummary,
)
from watchtriage.dumpsys import (
    AggregateWindow,
    LeaseEvent,
    LeaseKind,
    NetUsageRecord,
    NetworkStackLog,
    UsageAggregate,
    UsageEvent,
    UsageReport,
    parse_netstats,
)
from watchtriage.evidence import SourceKind, Timestamp, document_text, seal_bundle
from watchtriage.report import attach_evidence_digests, render_report
from watchtriage.simulator import finding_fingerprint
from tests.conftest import run_pipeline
from tests.test_report import bundle_for


def empty_report(capture_epoch=1683809100):
    return UsageReport(Timestamp(capture_epoch), (), ())


def report_timeline(timeline, zone="UTC"):
    """The timeline rows, in their dict form, of the report rendered from
    `timeline`; findings do not enter them."""
    bundle = seal_bundle([("netstats", SourceKind.NETSTATS, b"", 0)], "test", zone)
    return list(render_report([], bundle, timeline, zone).timeline_rows)


class TestBuildTimeline:
    def test_app_start_precedes_covering_traffic_bucket(self, pipeline):
        scenario = simulator.preset_ftp_file_server()
        rows = report_timeline(pipeline(scenario)["timeline"], scenario.display_zone)
        start_idx = next(
            i for i, r in enumerate(rows)
            if r["source"] == SourceKind.USAGESTATS.value and "ACTIVITY_RESUMED com.corproxy.files" in r["event"]
        )
        bucket_idx = next(
            i for i, r in enumerate(rows)
            if r["source"] == SourceKind.NETSTATS.value and "KT_GiGA_5G_EFB7 st=1683734400" in r["event"]
        )
        assert rows[start_idx]["time"].startswith("2023-05-11 01:14:16")
        assert start_idx < bucket_idx

    def test_all_empty_inputs_give_empty_timeline(self):
        timeline = build_timeline(empty_report(), [], NetworkStackLog(()))
        assert report_timeline(timeline) == []
        assert timeline.warnings == ()

    def test_every_source_event_appears_exactly_once(self, pipeline):
        result = pipeline(simulator.preset_case_study())
        sources = Counter(r["source"] for r in report_timeline(result["timeline"]))
        assert sources == {
            SourceKind.USAGESTATS.value: len(result["report"].events_24h),
            SourceKind.NETSTATS.value: len(result["records"]),
            SourceKind.NETWORK_STACK.value: len(result["lease_log"].leases),
        }

    def test_order_matches_ground_truth_chronology(self, pipeline):
        for seed in (2, 9, 21):
            scenario = simulator.random_scenario(seed)
            times = [r["time"] for r in report_timeline(pipeline(scenario)["timeline"])]
            assert times == sorted(times)  # UTC text sorts as the instants do

    @pytest.mark.parametrize("duration", [1800, 3600])
    def test_traffic_buckets_are_anchored_at_window_close(self, pipeline, duration):
        timeline = pipeline(simulator.preset_case_study(), bucket_seconds=duration)["timeline"]
        rows = [r for r in report_timeline(timeline) if r["source"] == SourceKind.NETSTATS.value]
        assert [r["time"] for r in rows] == sorted(
            Timestamp(rec.st.epoch + duration).render("UTC") for rec in timeline.records
        )

    def test_clock_skew_warning(self):
        from watchtriage.dumpsys import parse_network_stack, parse_usagestats

        usage_text = 'time="2023-05-11 09:00:00" type=ACTIVITY_RESUMED package=com.x\n'
        report, _ = parse_usagestats(usage_text, Timestamp(1683766560), "Asia/Seoul")
        lease_text = '{"record": "lease", "at": 100, "private_ip": "10.0.0.1"}'
        lease_log, _ = parse_network_stack(lease_text, "Asia/Seoul")
        timeline = build_timeline(report, [], lease_log)
        assert any("clock skew" in w for w in timeline.warnings)


class TestMatchSessions:
    def test_event_joins_bucket_on_half_open_interval(self, pipeline, bucket_join):
        # Events at st and st+duration-1 join [st, st+duration); an event at
        # st+duration joins the next bucket; one at st-1 joins neither. An
        # SSID-less lease resolves by the same rule.
        capture = 1683809100
        for duration in (1800, 3600, 7200):
            st = (capture - 3 * duration) // duration * duration
            _, joined, leased = bucket_join(st, duration, [st - 1, st, st + duration - 1, st + duration])
            assert joined == leased == [st, st + duration - 1], duration
            s = simulator.Scenario(
                capture_time=capture,
                app_sessions=(
                    simulator.AppSession("com.before", st - 600, st - 1),
                    simulator.AppSession("com.first", st, st + duration - 1),
                    simulator.AppSession("com.second", st + duration, st + 2 * duration - 200),
                ),
                wifi_sessions=(
                    simulator.WifiSession("net", st, st + 2 * duration - 100, 1000, 0, "10.0.0.1"),
                ),
            )
            sessions = pipeline(s, bucket_seconds=duration)["sessions"]
            assert [(sess.packages, [b.st.epoch for b in sess.buckets], [e.at.epoch for e in sess.app_events])
                    for sess in sessions] == [
                (("com.first",), [st], [st, st + duration - 1]),
                (("com.second",), [st + duration], [st + duration, st + 2 * duration - 200]),
            ], duration

    def test_unsorted_events_and_leases_match_like_sorted(self):
        # A timeline built by hand need not keep the parsers' time order.
        timeline = run_pipeline(scaled_scenario(leases_carry_ssid=False))["timeline"]
        rng = random.Random(5)
        events = list(timeline.report.events_24h)
        leases = list(timeline.lease_log.leases)
        rng.shuffle(events)
        rng.shuffle(leases)
        shuffled = Timeline(
            timeline.report._replace(events_24h=tuple(events)),
            timeline.records,
            timeline.lease_log._replace(leases=tuple(leases)),
            timeline.bucket_duration,
        )
        expected = match_sessions(timeline)
        got = match_sessions(shuffled)
        assert any(s.resolved_leases for s in expected)
        assert [(s.buckets, s.ambiguity_flags, s.resolved_leases) for s in got] == [
            (s.buckets, s.ambiguity_flags, s.resolved_leases) for s in expected
        ]
        for mine, theirs in zip(got, expected):
            assert sorted(mine.app_events, key=lambda e: e.at.epoch) == list(mine.app_events)
            assert set(mine.app_events) == set(theirs.app_events)
            assert len(mine.app_events) == len(theirs.app_events)

    @staticmethod
    def netstats_sessions(rows, event_epochs=()):
        """The sessions of JSON-lines netstats `rows` with a `com.p` event at
        each of `event_epochs` and no lease."""
        records, warnings = parse_netstats("".join(json.dumps(row) + "\n" for row in rows))
        assert warnings == []
        events = tuple(UsageEvent(Timestamp(at), "com.p", "ACTIVITY_RESUMED") for at in event_epochs)
        report = empty_report()._replace(events_24h=events)
        return match_sessions(build_timeline(report, records, NetworkStackLog(())))

    def test_duplicate_rows_without_a_neighbour_are_two_sessions(self):
        # Two rows with one network and st, and no bucket one duration away,
        # are a session each; a row at st + 3600 joins all three into one.
        # Pinned as it stands (a FOUND in CHANGES.md asks whether it should).
        st = 1683795600
        rows = [{"network_id": "net", "st": st, "rb": rb, "rp": 1, "tb": 0, "tp": 0} for rb in (10, 20)]
        assert [[b.rb for b in s.buckets] for s in self.netstats_sessions(rows)] == [[10], [20]]
        rows.append({"network_id": "net", "st": st + 3600, "rb": 30, "rp": 1, "tb": 0, "tp": 0})
        assert [[b.rb for b in s.buckets] for s in self.netstats_sessions(rows)] == [[10, 20, 30]]

    def test_run_skips_a_column_of_another_matched_set_between(self):
        # Off the bucket grid, a row at st + 1800 between two rows one
        # duration apart matches other packages; the two still join, as
        # each network and matched set forms its own run.
        st = 1683795600
        rows = [{"network_id": "net", "st": at, "rb": at - st, "rp": 1, "tb": 0, "tp": 0}
                for at in (st, st + 1800, st + 3600)]
        sessions = self.netstats_sessions(rows, (st + 100, st + 5600))
        assert [([b.rb for b in s.buckets], s.packages) for s in sessions] == [
            ([0, 3600], ("com.p",)),
            ([1800], ()),
        ]

    def test_matched_start_continues_through_a_network_other_than_its_first(self):
        # Network b carries traffic at st - 3600 and st, network a only at st,
        # and com.p events fall in both hours. The start st continues b's
        # session through b though a sorts first: one session of three.
        st = 1683795600
        rows = [{"network_id": net, "st": at, "rb": 1, "rp": 1, "tb": 0, "tp": 0}
                for net, at in (("b", st - 3600), ("a", st), ("b", st))]
        sessions = self.netstats_sessions(rows, (st - 600, st + 300))
        assert [([(b.network_id, b.st.epoch) for b in s.buckets], s.packages) for s in sessions] == [
            ([("b", st - 3600), ("a", st), ("b", st)], ("com.p",)),
        ]

    def test_sweep_matches_the_reference_grouping(self):
        # The presets, seeds 0-24 and the 30-day scaled scenario at four
        # bucket sizes, as parsed and with events, leases and records
        # shuffled, against the grouping kept below as
        # reference_match_sessions.
        scenarios = [make() for make in simulator.PRESETS.values()]
        scenarios += [simulator.random_scenario(seed) for seed in range(25)]
        scenarios.append(scaled_scenario(True))
        rng = random.Random(21)
        compared = 0
        for duration in (900, 1800, 3600, 7200):
            for scenario in scenarios:
                timeline = run_pipeline(scenario, bucket_seconds=duration)["timeline"]
                events, leases, records = (list(timeline.report.events_24h), list(timeline.lease_log.leases),
                                           list(timeline.records))
                for part in (events, leases, records):
                    rng.shuffle(part)
                shuffled = Timeline(timeline.report._replace(events_24h=tuple(events)), tuple(records),
                                    timeline.lease_log._replace(leases=tuple(leases)), duration)
                for t in (timeline, shuffled):
                    assert match_sessions(t) == reference_match_sessions(t), (scenario, duration)
                    compared += len(t.records)
        assert compared > 5000

    def test_sweep_matches_the_reference_on_hand_built_timelines(self):
        # Starts off the bucket grid, repeated rows, several networks at one
        # start, SSID-less leases, a boot marker and aggregates: inputs the
        # simulator never writes.
        rng = random.Random(13)
        quirks = 0
        for _ in range(400):
            duration = rng.choice((100, 3600))
            base = 1_000_000
            networks = ["a", "b", "c"][: rng.randint(1, 3)]

            def at():
                return Timestamp(base + rng.randrange(-duration, 14 * duration))

            records = tuple(
                NetUsageRecord(rng.choice(networks), Timestamp(base + rng.randrange(12) * rng.choice((duration, 37))),
                               rng.choice((0, 5)), 0, rng.choice((0, 7)), 0, duration)
                for _ in range(rng.randint(1, 14))
            )
            events = tuple(UsageEvent(at(), rng.choice("pqr"), "ACTIVITY_RESUMED") for _ in range(rng.randint(0, 12)))
            aggregates = tuple(UsageAggregate(AggregateWindow.WEEK, "p", at(), 1) for _ in range(rng.randint(0, 2)))
            leases = tuple(LeaseEvent(at(), "wlan0", f"10.0.0.{k + 1}", LeaseKind.DHCP_ACK,
                                      rng.choice((None, *networks))) for k in range(rng.randint(0, 5)))
            boot = rng.choice((None, at()))
            timeline = Timeline(UsageReport(Timestamp(base + 20 * duration), events, aggregates), records,
                                NetworkStackLog(leases, boot), duration)
            expected = reference_match_sessions(timeline)
            assert match_sessions(timeline) == expected, timeline
            keys = Counter((s.start_epoch, s.network_ids, s.packages) for s in expected)
            quirks += max(keys.values()) > 1
        assert quirks > 50  # repeated rows that stay a session each

    def test_sftp_session_resolves_lease_ip(self, pipeline):
        sessions = pipeline(simulator.preset_sftp_server())["sessions"]
        assert len(sessions) == 1
        session = sessions[0]
        assert session.packages == ("net.xnano.android.sshserver",)
        assert {lease.private_ip for lease in session.resolved_leases} == {"192.162.35.52"}
        assert session.network_ids == ("outgoingowl",)

    def test_expired_traffic_only_session_flagged(self, pipeline):
        sessions = pipeline(simulator.preset_hidden_camera())["sessions"]
        old = next(s for s in sessions if s.buckets[0].st.epoch == 1683547200)
        assert old.app_events == ()
        assert AmbiguityFlag.USAGE_EVIDENCE_EXPIRED in old.ambiguity_flags
        assert grade_volume(old).bytes_out == 125_829_120

    def test_two_networks_sharing_bucket_start_merge_into_one_flagged_session(self, pipeline):
        sessions = pipeline(simulator.preset_same_start_ambiguity())["sessions"]
        assert len(sessions) == 1
        session = sessions[0]
        assert AmbiguityFlag.MULTI_NETWORK_SAME_BUCKET in session.ambiguity_flags
        assert session.network_ids == ("KT_GiGA_5G_EFB7", "outgoingowl")
        assert session.resolved_leases == ()  # time-only lease matching withheld

    def test_sessions_partition_buckets_and_conserve_bytes(self, pipeline):
        for seed in range(25):
            scenario = simulator.random_scenario(seed)
            result = pipeline(scenario)
            sessions, records = result["sessions"], result["records"]
            session_buckets = [b for s in sessions for b in s.buckets]
            assert len(session_buckets) == len(records)
            assert sum(b.rb + b.tb for b in session_buckets) == sum(r.rb + r.tb for r in records)
            total_truth = sum(w.bytes_in + w.bytes_out for w in scenario.wifi_sessions)
            assert sum(grade_volume(s).total for s in sessions) == total_truth

    def test_multi_network_flag_iff_two_networks_with_traffic_share_start(self, pipeline):
        for seed in range(25):
            result = pipeline(simulator.random_scenario(seed))
            records = result["records"]
            starts_with_multi = set()
            by_start = {}
            for r in records:
                if r.has_traffic():
                    by_start.setdefault(r.st.epoch, set()).add(r.network_id)
            starts_with_multi = {st for st, nets in by_start.items() if len(nets) >= 2}
            for session in result["sessions"]:
                expected = any(b.st.epoch in starts_with_multi for b in session.buckets)
                actual = AmbiguityFlag.MULTI_NETWORK_SAME_BUCKET in session.ambiguity_flags
                assert actual == expected

    def test_lease_ssid_match_beats_time_containment(self, pipeline):
        # lease for network A issued outside any bucket window still attaches to A
        s = simulator.Scenario(
            capture_time=1683809100,
            app_sessions=(),
            wifi_sessions=(
                simulator.WifiSession("netA", 1683795600, 1683798000, 20_000_000, 0, "10.0.0.5"),
            ),
        )
        sessions = pipeline(s)["sessions"]
        assert {lease.private_ip for lease in sessions[0].resolved_leases} == {"10.0.0.5"}


class TestGradeVolume:
    def test_ftp_inbound_volume(self, pipeline):
        findings = pipeline(simulator.preset_ftp_file_server())["findings"]
        ftp = next(f for f in findings if f.pattern == FindingPattern.FTP_SERVER_EXFIL)
        assert abs(ftp.direction_summary.bytes_in - 47_000_000) <= 470_000

    def test_camera_outbound_volume(self, pipeline):
        findings = pipeline(simulator.preset_hidden_camera())["findings"]
        camera = next(f for f in findings if f.pattern == FindingPattern.HIDDEN_CAMERA_CONTROL)
        assert abs(camera.direction_summary.bytes_out - 31_000_000) <= 310_000

    def test_all_zero_counters(self, pipeline):
        s = simulator.Scenario(
            capture_time=1683809100,
            wifi_sessions=(simulator.WifiSession("idle", 1683795600, 1683798000, 0, 0, "10.0.0.9"),),
        )
        sessions = pipeline(s)["sessions"]
        summary = grade_volume(sessions[0])
        assert (summary.bytes_in, summary.bytes_out) == (0, 0)


class TestCorroborate:
    def test_sftp_corroborated_by_known_hosts(self, pipeline):
        findings = pipeline(simulator.preset_sftp_server())["findings"]
        assert len(findings) == 1
        f = findings[0]
        assert f.pattern == FindingPattern.SFTP_SERVER_EXFIL
        assert f.confidence == Confidence.CORROBORATED
        assert f.host_corroboration[0].host == "192.162.35.52"

    def test_ftp_corroborated_by_recentservers(self, pipeline):
        findings = pipeline(simulator.preset_ftp_file_server())["findings"]
        assert [f.pattern for f in findings] == [FindingPattern.FTP_SERVER_EXFIL]
        assert findings[0].confidence == Confidence.CORROBORATED

    def test_camera_with_no_host_artifacts_is_consistent(self, pipeline):
        findings = pipeline(simulator.preset_hidden_camera())["findings"]
        camera = next(f for f in findings if f.pattern == FindingPattern.HIDDEN_CAMERA_CONTROL)
        assert camera.confidence == Confidence.CONSISTENT
        assert camera.host_corroboration == ()

    def test_corroboration_requires_exact_ip_string_match(self, pipeline):
        for seed in range(30):
            result = pipeline(simulator.random_scenario(seed))
            for f in result["findings"]:
                if f.confidence == Confidence.CORROBORATED:
                    ips = {lease.private_ip for lease in f.session.resolved_leases}
                    assert f.host_corroboration
                    assert all(e.host in ips for e in f.host_corroboration)

    def test_ambiguous_session_never_corroborated_via_time_only_lease(self, pipeline):
        findings = pipeline(simulator.preset_same_start_ambiguity())["findings"]
        assert len(findings) == 1
        assert findings[0].confidence == Confidence.AMBIGUOUS

    def test_volume_fallback_catches_unknown_apps(self, pipeline):
        s = simulator.Scenario(
            capture_time=1683809100,
            app_sessions=(simulator.AppSession("com.unknown.app", 1683795700, 1683796600),),
            wifi_sessions=(
                simulator.WifiSession("netA", 1683795650, 1683796500, 50_000_000, 0, "10.0.0.5"),
            ),
        )
        findings = pipeline(s)["findings"]
        assert [f.pattern for f in findings] == [FindingPattern.UNCLASSIFIED_TRANSFER]
        assert findings[0].confidence == Confidence.CONSISTENT

    def test_small_unattributed_traffic_yields_no_finding(self, pipeline):
        s = simulator.Scenario(
            capture_time=1683809100,
            wifi_sessions=(
                simulator.WifiSession("netA", 1683795650, 1683796500, 1_000_000, 0, "10.0.0.5"),
            ),
        )
        assert pipeline(s)["findings"] == []

    def test_reboot_removes_only_corroboration(self, pipeline):
        for seed in range(20):
            scenario = simulator.random_scenario(seed)
            scenario = scenario._replace(reboots=())
            rebooted = scenario._replace(reboots=(scenario.capture_time,))

            before = {f_key(f): f for f in pipeline(scenario)["findings"]}
            after = {f_key(f): f for f in pipeline(rebooted)["findings"]}
            assert before.keys() == after.keys()  # pattern assignment unchanged
            for key, f_before in before.items():
                f_after = after[key]
                if f_before.confidence == Confidence.CORROBORATED:
                    assert f_after.confidence in (Confidence.CONSISTENT, Confidence.AMBIGUOUS)
                else:
                    assert f_after.confidence == f_before.confidence

    def test_findings_document_is_deterministic(self, pipeline):
        docs = []
        scenario = simulator.preset_case_study()
        for _ in range(2):
            findings = pipeline(scenario)["findings"]
            doc = findings_document(findings, "digest", 3600, scenario.display_zone)
            docs.append(document_text(doc))
        assert docs[0] == docs[1]


def f_key(finding):
    sess = finding.session
    return (
        finding.pattern.value,
        sess.packages,
        tuple(sorted((b.network_id, b.st.epoch) for b in sess.buckets)),
    )


class TestPatternRules:
    def test_default_markers_map_to_patterns(self):
        big = DirectionSummary(20_000_000, 0)
        assert match_pattern(("com.corproxy.files",), big, DEFAULT_RULES) == FindingPattern.FTP_SERVER_EXFIL
        assert match_pattern(("net.xnano.android.sshserver",), big, DEFAULT_RULES) == FindingPattern.SFTP_SERVER_EXFIL
        assert match_pattern(("com.view.ppcs",), big, DEFAULT_RULES) == FindingPattern.HIDDEN_CAMERA_CONTROL

    def test_marker_match_ignores_volume_threshold(self):
        tiny = DirectionSummary(10, 0)
        assert match_pattern(("com.view.ppcs",), tiny, DEFAULT_RULES) == FindingPattern.HIDDEN_CAMERA_CONTROL
        assert match_pattern(("com.benign",), tiny, DEFAULT_RULES) is None

    def test_glob_markers(self):
        rules = (PatternRule(FindingPattern.FTP_SERVER_EXFIL, ("com.corproxy.*",)),)
        assert match_pattern(("com.corproxy.files",), DirectionSummary(1, 0), rules) \
            == FindingPattern.FTP_SERVER_EXFIL

    def test_markers_match_as_fnmatchcase_on_every_pair(self):
        # Exact markers are a set test and glob markers go to fnmatchcase;
        # the result is the first rule for which fnmatchcase matched some
        # package against some marker.
        def reference(packages, summary, rules):
            for rule in rules:
                if summary.total < rule.min_bytes:
                    continue
                if rule.direction_bias == DirectionBias.INBOUND_HEAVY and summary.bytes_in < summary.bytes_out:
                    continue
                if rule.direction_bias == DirectionBias.OUTBOUND_HEAVY and summary.bytes_out < summary.bytes_in:
                    continue
                if not rule.package_markers or any(
                    fnmatch.fnmatchcase(p, g) for p in packages for g in rule.package_markers
                ):
                    return rule.pattern
            return None

        markers = ["*", "?", "[a-c]*", "[!a]*", "com.[xy]", "[ab]", "a\\b", "a[", "com.x", "com.y", "b", "Com.x",
                   "com.x?"]
        names = ["com.x", "com.y", "Com.x", "a\\b", "ab", "a", "a[", "b", "cx", "", "com.xy", "com.x?", "a[b",
                 "com.[xy]", "[ab]"]
        rng = random.Random(8)
        patterns = list(FindingPattern)
        matched = 0
        for _ in range(3000):
            rules = tuple(
                PatternRule(rng.choice(patterns), tuple(rng.sample(markers, rng.randrange(0, 4))),
                            rng.choice(list(DirectionBias)), rng.choice((0, 0, 50)))
                for _ in range(rng.randrange(1, 4))
            )
            packages = tuple(rng.sample(names, rng.randrange(0, 4)))
            summary = DirectionSummary(rng.randrange(60), rng.randrange(60))
            expected = reference(packages, summary, rules)
            assert match_pattern(packages, summary, rules) == expected, (packages, summary, rules)
            matched += expected is not None
        assert 1000 < matched < 2900

    def test_direction_bias_constrains_match(self):
        rules = (
            PatternRule(FindingPattern.HIDDEN_CAMERA_CONTROL, ("cam.*",), DirectionBias.OUTBOUND_HEAVY),
        )
        assert match_pattern(("cam.app",), DirectionSummary(0, 100), rules) is not None
        assert match_pattern(("cam.app",), DirectionSummary(100, 0), rules) is None

    def test_min_bytes_threshold_respected(self):
        rules = (PatternRule(FindingPattern.UNCLASSIFIED_TRANSFER, (), DirectionBias.ANY, 1000),)
        assert match_pattern((), DirectionSummary(999, 0), rules) is None
        assert match_pattern((), DirectionSummary(1000, 0), rules) == FindingPattern.UNCLASSIFIED_TRANSFER

    def test_rules_loadable_from_json(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps([
            {"pattern": "ftp_server_exfil", "package_markers": ["com.corproxy.files"]},
            {"pattern": "unclassified_transfer", "min_bytes": 5000000},
        ]))
        from watchtriage.correlate import load_rules

        rules = load_rules(path)
        assert rules[0].pattern == FindingPattern.FTP_SERVER_EXFIL
        assert rules[1].min_bytes == 5_000_000

    def test_negative_threshold_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            PatternRule(FindingPattern.UNCLASSIFIED_TRANSFER, (), DirectionBias.ANY, -1)


def scaled_scenario(leases_carry_ssid: bool, seed: int = 4, days: int = 30) -> simulator.Scenario:
    """`days` days (thirty by default) of back-to-back or spaced Wi-Fi
    sessions on five networks with one reboot, dense app use over the last
    day, and the PC keeping two of the networks' IPs."""
    rng = random.Random(seed)
    capture = 1683809100
    ssids = [f"net{i}" for i in range(5)]
    ips = {ssid: f"192.168.{i}.{rng.randrange(2, 250)}" for i, ssid in enumerate(ssids)}
    wifi, t = [], capture - days * 86400
    while t < capture - 2 * 3600:
        end = min(t + rng.randrange(3600, 12 * 3600), capture - 60)
        ssid = rng.choice(ssids)
        bytes_in, bytes_out = rng.randrange(50_000_000), rng.randrange(50_000_000)
        wifi.append(simulator.WifiSession(ssid, t, end, bytes_in, bytes_out, ips[ssid]))
        t = end + rng.choice((0, 0, rng.randrange(600, 3 * 3600)))
    packages = (simulator.FTP_PACKAGE, simulator.SFTP_PACKAGE, simulator.CAMERA_PACKAGE, "com.a", "com.b")
    apps = []
    for i in range(300):
        start = capture - 86400 + i * 280 + rng.randrange(100)
        apps.append(simulator.AppSession(rng.choice(packages), start, start + rng.randrange(60, 900)))
    for i in range(20):  # usage detail expired, aggregates only
        start = capture - (2 + i) * 86400
        apps.append(simulator.AppSession(rng.choice(packages), start, start + 600))
    return simulator.Scenario(
        capture_time=capture,
        app_sessions=tuple(apps),
        wifi_sessions=tuple(wifi),
        reboots=(capture - 12 * 86400,),
        host_side=(
            simulator.HostArtifactSpec("recentservers", ips["net0"], 21),
            simulator.HostArtifactSpec("known_hosts", ips["net1"], 22),
        ),
        leases_carry_ssid=leases_carry_ssid,
    )


class TestOracleEquivalence:
    @pytest.mark.parametrize("days", [30, 120])
    @pytest.mark.parametrize("leases_carry_ssid", [True, False])
    def test_scaled_scenario_matches_oracle(self, leases_carry_ssid, days):
        scenario = scaled_scenario(leases_carry_ssid, days=days)
        result = run_pipeline(scenario)
        assert len(result["records"]) >= 700 * days // 30
        mine = sorted(finding_fingerprint(f) for f in result["findings"])
        assert mine == simulator.oracle_findings(scenario)
        sessions = result["sessions"]
        assert any(AmbiguityFlag.MULTI_NETWORK_SAME_BUCKET in s.ambiguity_flags for s in sessions)
        if not leases_carry_ssid:  # every lease lacks an SSID: resolved by time containment
            assert any(s.resolved_leases for s in sessions)

    def test_presets_match_oracle(self):
        for name, factory in simulator.PRESETS.items():
            scenario = factory()
            findings = run_pipeline(scenario)["findings"]
            mine = sorted(finding_fingerprint(f) for f in findings)
            assert mine == simulator.oracle_findings(scenario), name

    def test_no_traffic_scenario_has_no_findings(self):
        s = simulator.Scenario(capture_time=1683809100)
        assert run_pipeline(s)["findings"] == []
        assert simulator.oracle_findings(s) == []

    @pytest.mark.parametrize("duration", [900, 1800, 7200])
    def test_random_scenarios_match_oracle_at_other_bucket_durations(self, duration):
        for seed in range(0, 200, 5):
            scenario = simulator.random_scenario(seed)
            findings = run_pipeline(scenario, bucket_seconds=duration)["findings"]
            mine = sorted(finding_fingerprint(f) for f in findings)
            assert mine == simulator.oracle_findings(scenario, duration=duration), seed

    def test_non_default_bucket_duration_end_to_end(self):
        scenario = simulator.preset_ftp_file_server()
        result = run_pipeline(scenario, bucket_seconds=1800)
        assert result["timeline"].bucket_duration == 1800  # stated by the dump alone
        mine = sorted(finding_fingerprint(f) for f in result["findings"])
        assert mine == simulator.oracle_findings(scenario, duration=1800)
        # the transfer spans two 30-minute buckets; totals stay conserved
        ftp = [f for f in result["findings"] if f.pattern == FindingPattern.FTP_SERVER_EXFIL]
        assert len(ftp) == 1
        assert len(ftp[0].session.buckets) == 2
        assert ftp[0].direction_summary.bytes_in == 47_185_920


RELATION_ZONES = ("Asia/Seoul", "Asia/Tokyo", "UTC", "America/New_York", "Australia/Lord_Howe")
DISPLAY_ZONES = ("UTC", "Asia/Seoul", "America/New_York", "Australia/Lord_Howe")


class TestMetamorphicRelations:
    """Properties the findings keep when an input that must not matter changes."""

    def test_zone_invariance(self):
        # The same scenario generated in another zone gives the same findings.
        # random_scenario places nothing near a DST change, so this holds in
        # DST zones too.
        graded = 0
        for seed in range(20):
            scenario = simulator.random_scenario(seed)
            outcomes = {}
            for zone in RELATION_ZONES:
                findings = run_pipeline(scenario._replace(display_zone=zone))["findings"]
                outcomes[zone] = sorted(
                    (f.pattern.value, f.confidence.value, tuple(b.st.epoch for b in f.session.buckets)) for f in findings
                )
            for zone in RELATION_ZONES[1:]:
                assert outcomes[zone] == outcomes["Asia/Seoul"], (seed, zone)
            graded += len(outcomes["Asia/Seoul"])
        assert graded >= 20

    def test_display_zone_changes_only_rendered_strings(self):
        # Every epoch, digest, grade, flag and the row order stay the same.
        def unrendered(doc):
            data = json.loads(document_text(doc.data))
            del data["display_zone"]
            for row in data["timeline"]:
                del row["time"]
            for finding in data["findings"]:
                del finding["session"]["app_start_rendered"]
                for event in finding["session"]["app_events"]:
                    del event["rendered"]
            return data

        graded = 0
        scenarios = [make() for make in simulator.PRESETS.values()]
        for scenario in scenarios + [simulator.random_scenario(seed) for seed in range(20)]:
            result = run_pipeline(scenario)
            bundle = bundle_for(scenario)
            findings = attach_evidence_digests(result["findings"], bundle)
            docs = {zone: render_report(findings, bundle, result["timeline"], zone) for zone in DISPLAY_ZONES}
            for zone in DISPLAY_ZONES[1:]:
                assert docs[zone].data["display_zone"] == zone
                assert unrendered(docs[zone]) == unrendered(docs["UTC"]), (scenario, zone)
            graded += len(findings)
        assert graded >= 20

    def test_irrelevant_app_in_hours_without_traffic(self):
        # Sessions of a package no rule names change no finding when they lie
        # in hours no netstats bucket covers. Anywhere else they can: an event
        # in a traffic bucket joins its session (docs/findings-schema.md).
        for seed in range(20):
            scenario = simulator.random_scenario(seed)
            rng = random.Random(seed)
            busy = {st for _ssid, st, *_ in simulator.ground_truth_records(scenario)}
            first = -(-(scenario.capture_time - simulator.USAGE_WINDOW_SECONDS) // 3600) * 3600
            free = [hour for hour in range(first, scenario.capture_time - 3600, 3600) if hour not in busy]
            extra = []
            for hour in rng.sample(free, 3):
                start = hour + rng.randrange(0, 1800)
                extra.append(simulator.AppSession("com.unnamed.stopwatch", start, start + rng.randrange(60, 1800)))
            before = run_pipeline(scenario)
            after = run_pipeline(scenario._replace(app_sessions=scenario.app_sessions + tuple(extra)))
            assert len(after["report"].events_24h) == len(before["report"].events_24h) + 6
            assert sorted(map(finding_fingerprint, after["findings"])) == \
                sorted(map(finding_fingerprint, before["findings"])), seed


def reference_match_sessions(timeline):
    """Session matching as it stood before the sorted sweep: per-track dicts
    of bucket columns and a union-find over records. The sweep must give
    exactly these sessions, in this order."""
    def in_bucket(epochs, st, duration):
        return range(bisect_left(epochs, st), bisect_left(epochs, st + duration))

    duration = timeline.bucket_duration
    records = timeline.records
    if not records:
        return []
    events = sorted(timeline.report.events_24h, key=lambda e: e.at.epoch)
    event_epochs = [e.at.epoch for e in events]
    aggregate_epochs = sorted(a.last_used.epoch for a in timeline.report.aggregates)
    lease_log = timeline.lease_log
    leases = sorted(lease_log.leases, key=lambda l: l.at.epoch)
    lease_epochs = [l.at.epoch for l in leases]
    leases_by_network = {}
    for k, lease in enumerate(leases):
        if lease.network_id is not None:
            leases_by_network.setdefault(lease.network_id, []).append(k)

    event_ranges = [in_bucket(event_epochs, rec.st.epoch, duration) for rec in records]
    matched = [frozenset(events[k].package for k in ks) for ks in event_ranges]
    parent = list(range(len(records)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    by_track = {}
    for i, rec in enumerate(records):
        by_track.setdefault((matched[i], rec.network_id), {}).setdefault(rec.st.epoch, []).append(i)
    for columns in by_track.values():
        starts = sorted(columns)
        for prev, curr in zip(starts, starts[1:]):
            if curr - prev == duration:
                for idx in columns[prev] + columns[curr]:
                    union(columns[prev][0], idx)
    by_shared_start = {}
    for i, rec in enumerate(records):
        if matched[i]:
            by_shared_start.setdefault((matched[i], rec.st.epoch), []).append(i)
    for indices in by_shared_start.values():
        for idx in indices[1:]:
            union(indices[0], idx)
    groups = {}
    for i in range(len(records)):
        groups.setdefault(find(i), []).append(i)

    traffic_networks = {}
    for rec in records:
        if rec.has_traffic():
            traffic_networks.setdefault(rec.st.epoch, set()).add(rec.network_id)
    ambiguous_starts = {st for st, nets in traffic_networks.items() if len(nets) >= 2}

    sessions = []
    for indices in groups.values():
        indices.sort(key=lambda i: (records[i].st.epoch, records[i].network_id, i))
        buckets = tuple(records[i] for i in indices)
        app_events = tuple(events[k] for k in sorted({k for i in indices for k in event_ranges[i]}))
        span_start = min(b.st.epoch for b in buckets)
        span_end = max(b.st.epoch for b in buckets) + duration
        flags = set()
        if any(b.st.epoch in ambiguous_starts for b in buckets):
            flags.add(AmbiguityFlag.MULTI_NETWORK_SAME_BUCKET)
        if not app_events and (any(b.has_traffic() for b in buckets)
                               or in_bucket(aggregate_epochs, span_start, span_end - span_start)):
            flags.add(AmbiguityFlag.USAGE_EVIDENCE_EXPIRED)
        boot = lease_log.boot_epoch_marker
        if boot is not None and span_start < boot.epoch:
            flags.add(AmbiguityFlag.LEASE_LOG_REBOOTED)
        chosen = {k for net in {b.network_id for b in buckets} for k in leases_by_network.get(net, ())}
        if AmbiguityFlag.MULTI_NETWORK_SAME_BUCKET not in flags:
            chosen.update(k for b in buckets for k in in_bucket(lease_epochs, b.st.epoch, duration)
                          if leases[k].network_id is None)
        resolved = tuple(leases[k] for k in sorted(chosen))
        sessions.append(AppNetworkSession(tuple(sorted(matched[indices[0]])), app_events, buckets, resolved,
                                          frozenset(flags)))
    sessions.sort(key=lambda s: (s.start_epoch, s.network_ids, s.packages))
    return sessions
