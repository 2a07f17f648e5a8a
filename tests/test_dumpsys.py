import json

import pytest

from watchtriage import simulator
from watchtriage.dumpsys import (
    AggregateWindow,
    EmptyDumpError,
    LeaseKind,
    ParseError,
    parse_netstats,
    parse_network_stack,
    parse_usagestats,
)
from watchtriage.evidence import Timestamp
from tests.test_evidence import MALFORMED_WALL_TIMES

KST = "Asia/Seoul"

# 2023-05-11 09:56 KST, same capture time as the FTP fixture
CAPTURE = Timestamp(1683766560)

USAGESTATS_FIXTURE = """\
DUMP OF SERVICE usagestats:
  Last 24 hour events:
    time="2023-05-11 01:14:16" type=ACTIVITY_RESUMED package=com.corproxy.files class=com.corproxy.files.MainActivity
    time="2023-05-11 01:14:18" type=FOREGROUND_SERVICE_START package=com.corproxy.files
    time="2023-05-11 01:52:40" type=ACTIVITY_PAUSED package=com.corproxy.files
    time="2023-05-11 02:00:05" type=NOTIFICATION_INTERRUPTION package=com.samsung.android.watch.weather
  Weekly stats:
    package=com.corproxy.files lastTimeUsed="2023-05-11 01:52" totalCount=3
"""


class TestParseUsagestats:
    def test_ftp_app_start_event(self):
        report, warnings = parse_usagestats(USAGESTATS_FIXTURE, CAPTURE, KST)
        assert warnings == []
        first = report.events_24h[0]
        assert first.package == "com.corproxy.files"
        assert first.event_type == "ACTIVITY_RESUMED"
        assert first.at.epoch == 1683735256
        assert first.at.render(KST) == "2023-05-11 01:14:16 +09:00"

    def test_wall_clock_times_are_read_in_the_given_zone(self):
        report, _ = parse_usagestats(USAGESTATS_FIXTURE, Timestamp(1683798000), zone="UTC")
        assert report.events_24h[0].at.epoch == 1683767656  # 01:14:16 UTC, not KST
        assert report.events_24h[0].at.render("UTC") == "2023-05-11 01:14:16 +00:00"

    def test_sshserver_event(self):
        text = (
            "DUMP OF SERVICE usagestats:\n"
            "  Last 24 hour events:\n"
            '    time="2023-05-11 21:10:06" type=ACTIVITY_RESUMED package=net.xnano.android.sshserver\n'
        )
        report, _ = parse_usagestats(text, Timestamp(1683809100), KST)
        event = report.events_24h[0]
        assert event.package == "net.xnano.android.sshserver"
        assert event.at.epoch == 1683807006

    def test_whitespace_only_input_is_fatal(self):
        with pytest.raises(EmptyDumpError):
            parse_usagestats("   \n\t  ", CAPTURE, KST)

    def test_events_sorted_with_stable_ties(self):
        text = (
            "Last 24 hour events:\n"
            '  time="2023-05-11 08:00:00" type=ACTIVITY_RESUMED package=b.second\n'
            '  time="2023-05-11 07:00:00" type=ACTIVITY_RESUMED package=a.first\n'
            '  time="2023-05-11 08:00:00" type=ACTIVITY_PAUSED package=a.first\n'
        )
        report, _ = parse_usagestats(text, CAPTURE, KST)
        assert [e.package for e in report.events_24h] == ["a.first", "b.second", "a.first"]

    def test_unknown_event_type_maps_to_other(self):
        text = 'time="2023-05-11 08:00:00" type=STANDBY_BUCKET_CHANGED package=com.x\n'
        report, _ = parse_usagestats(text, CAPTURE, KST)
        assert [e.event_type for e in report.events_24h] == ["STANDBY_BUCKET_CHANGED"]  # kept verbatim

    def test_event_outside_24h_window_dropped_with_warning(self):
        text = 'time="2023-05-09 01:00:00" type=ACTIVITY_RESUMED package=com.old\n'
        report, warnings = parse_usagestats(text, CAPTURE, KST)
        assert report.events_24h == ()
        assert any("outside the 24h" in w for w in warnings)

    def test_aggregates_have_no_second_precision(self):
        report, _ = parse_usagestats(USAGESTATS_FIXTURE, CAPTURE, KST)
        agg = report.aggregates[0]
        assert agg.window == AggregateWindow.WEEK
        assert agg.package == "com.corproxy.files"
        assert agg.use_count == 3
        assert agg.last_used_precision != "second"
        assert agg.last_used.epoch % 60 == 0

    def test_missing_aggregate_sections_yield_empty_list(self):
        text = 'Last 24 hour events:\n  time="2023-05-11 08:00:00" type=ACTIVITY_RESUMED package=com.x\n'
        report, _ = parse_usagestats(text, CAPTURE, KST)
        assert report.aggregates == ()

    def test_unrecognized_lines_warn_but_never_crash(self):
        text = USAGESTATS_FIXTURE + "  ChooserActivity counts: garbage { nested }\n"
        report, warnings = parse_usagestats(text, CAPTURE, KST)
        assert len(report.events_24h) == 4
        assert any("unrecognized" in w for w in warnings)

    @pytest.mark.parametrize("wall", MALFORMED_WALL_TIMES)
    def test_malformed_event_time_is_a_line_warning(self, wall):
        text = (
            "Last 24 hour events:\n"
            f'  time="{wall}" type=ACTIVITY_RESUMED package=com.bad\n'
            '  time="2023-05-11 08:00:00" type=ACTIVITY_RESUMED package=com.good\n'
        )
        report, warnings = parse_usagestats(text, CAPTURE, KST)
        assert [e.package for e in report.events_24h] == ["com.good"]
        assert warnings == [f"line 2: bad event time (wall time {wall!r} is not YYYY-MM-DD HH:MM:SS)"]

    def test_capture_time_header_fallback(self):
        text = 'capture-time="2023-05-11 09:56:00"\n' + USAGESTATS_FIXTURE
        report, _ = parse_usagestats(text, None, KST)
        assert report.capture_time.epoch == CAPTURE.epoch

    def test_missing_capture_time_is_fatal(self):
        with pytest.raises(ParseError):
            parse_usagestats(USAGESTATS_FIXTURE, None, KST)

    def test_jsonl_form(self):
        text = (
            '{"record": "capture", "at": 1683766560}\n'
            '{"record": "event", "at": 1683735256, "package": "com.corproxy.files", "event_type": "ACTIVITY_RESUMED"}\n'
            '{"record": "aggregate", "window": "week", "package": "com.corproxy.files", "last_used": 1683737520, "use_count": 3}\n'
        )
        report, warnings = parse_usagestats(text, None, KST)
        assert warnings == []
        assert report.events_24h[0].at.epoch == 1683735256
        assert report.aggregates[0].use_count == 3


NETSTATS_FIXTURE = """\
DUMP OF SERVICE netstats:
  Xt stats:
    ident=[{type=WIFI, networkId="KT_GiGA_5G_EFB7"}]
      NetworkStatsHistory: bucketDuration=3600
        st=1683734400 rb=47185920 rp=33705 tb=1048576 tp=749
    ident=[{type=WIFI, networkId="F818026FNMEN"}]
      NetworkStatsHistory: bucketDuration=3600
        st=1683547200 rb=524288 rp=375 tb=125829120 tp=89878
"""


class TestParseNetstats:
    def test_ftp_network_record(self):
        records, warnings = parse_netstats(NETSTATS_FIXTURE)
        assert warnings == []
        first = records[0]
        assert first.network_id == "KT_GiGA_5G_EFB7"
        assert first.rb == 47_185_920
        assert abs(first.rb - 47_000_000) <= 0.01 * 47_000_000

    def test_camera_network_record_st_verbatim(self):
        records, _ = parse_netstats(NETSTATS_FIXTURE)
        second = records[1]
        assert second.network_id == "F818026FNMEN"
        assert second.st.epoch == 1683547200
        assert abs(second.tb - 125_000_000) <= 0.01 * 125_000_000

    def test_st_not_hour_aligned_is_preserved(self):
        text = 'networkId="x"\nst=1683718801 rb=1 rp=1 tb=1 tp=1\n'
        records, _ = parse_netstats(text)
        assert records[0].st.epoch == 1683718801

    def test_all_zero_counters(self):
        text = 'networkId="idle"\nst=0 rb=0 rp=0 tb=0 tp=0\n'
        records, _ = parse_netstats(text)
        r = records[0]
        assert (r.rb, r.rp, r.tb, r.tp) == (0, 0, 0, 0)
        assert not r.has_traffic()

    def test_negative_counter_dropped_with_warning(self):
        text = 'networkId="x"\nst=10 rb=-5 rp=0 tb=0 tp=0\n'
        records, warnings = parse_netstats(text)
        assert records == []
        assert any("negative" in w for w in warnings)

    def test_counter_line_before_network_warns(self):
        text = "st=10 rb=1 rp=1 tb=1 tp=1\n"
        records, warnings = parse_netstats(text)
        assert records == []
        assert any("before any networkId" in w for w in warnings)

    def test_zero_byte_input_fatal(self):
        with pytest.raises(EmptyDumpError):
            parse_netstats("")

    def test_ordering_preserved(self):
        records, _ = parse_netstats(NETSTATS_FIXTURE)
        assert [r.network_id for r in records] == ["KT_GiGA_5G_EFB7", "F818026FNMEN"]

    def test_jsonl_form(self):
        text = (
            '{"network_id": "a", "st": 100, "rb": 1, "rp": 2, "tb": 3, "tp": 4}\n'
            '{"network_id": "a", "st": 1900, "rb": 1, "rp": 2, "tb": 3, "tp": 4, "bucket_duration": 1800}\n'
        )
        records, warnings = parse_netstats(text)
        assert warnings == []
        assert records[0].tb == 3
        assert [r.bucket_duration for r in records] == [3600, 1800]

    def test_bucket_duration_is_the_nearest_stated_above(self):
        text = (
            'networkId="a"\nst=0 rb=1 rp=1 tb=1 tp=1\n'
            "NetworkStatsHistory: bucketDuration=1800\n"
            'st=1800 rb=1 rp=1 tb=1 tp=1\nnetworkId="b"\nst=1800 rb=1 rp=1 tb=1 tp=1\n'
            "NetworkStatsHistory: bucketDuration=7200\nst=7200 rb=1 rp=1 tb=1 tp=1\n"
        )
        records, warnings = parse_netstats(text)
        assert warnings == []
        assert [(r.network_id, r.bucket_duration) for r in records] == [
            ("a", 3600), ("a", 1800), ("b", 1800), ("b", 7200)
        ]

    @pytest.mark.parametrize("value", ["0", "-5", "abc", ""])
    def test_invalid_bucket_duration_warns_and_drops_its_rows(self, value):
        text = (
            f'networkId="a"\nNetworkStatsHistory: bucketDuration={value}\nst=0 rb=1 rp=1 tb=1 tp=1\n'
            "NetworkStatsHistory: bucketDuration=3600\nst=3600 rb=1 rp=1 tb=1 tp=1\n"
        )
        records, warnings = parse_netstats(text)
        assert [r.st.epoch for r in records] == [3600]
        assert warnings == [
            f"line 2: bucketDuration must be a positive whole number of seconds, got {value!r}",
            "line 3: counter line under an invalid bucketDuration; dropped",
        ]
        jsonl = json.dumps({"network_id": "a", "st": 0, "rb": 1, "rp": 1, "tb": 1, "tp": 1,
                            "bucket_duration": value}) + "\n"
        records, warnings = parse_netstats(jsonl)
        assert records == []
        assert warnings == [f"line 1: bucketDuration must be a positive whole number of seconds, got {value!r}"]


NETWORK_STACK_FIXTURE = """\
DUMP OF SERVICE network_stack:
  time="2023-05-11 01:14:22" iface=wlan0 event=DHCP_ACK ip=172.30.1.76 ssid="KT_GiGA_5G_EFB7"
  time="2023-05-11 21:10:12" iface=wlan0 event=DHCP_ACK ip=192.162.35.52 ssid="outgoingowl"
"""


class TestParseNetworkStack:
    def test_lease_ips_extracted(self):
        log, warnings = parse_network_stack(NETWORK_STACK_FIXTURE, KST)
        assert warnings == []
        assert [l.private_ip for l in log.leases] == ["172.30.1.76", "192.162.35.52"]
        assert log.leases[0].network_id == "KT_GiGA_5G_EFB7"
        assert log.leases[0].event_kind == LeaseKind.DHCP_ACK

    def test_lease_without_ssid(self):
        text = 'time="2023-05-11 21:10:12" iface=wlan0 event=DHCP_ACK ip=192.162.35.52\n'
        log, _ = parse_network_stack(text, KST)
        assert log.leases[0].network_id is None

    def test_freshly_rebooted_device_has_no_leases(self):
        text = 'DUMP OF SERVICE network_stack:\n  bootTime="2023-05-11 09:00:00"\n'
        log, _ = parse_network_stack(text, KST)
        assert log.leases == ()
        assert log.boot_epoch_marker is not None

    def test_pre_boot_lease_dropped(self):
        text = (
            'bootTime="2023-05-11 09:00:00"\n'
            'time="2023-05-11 01:14:22" iface=wlan0 event=DHCP_ACK ip=172.30.1.76\n'
            'time="2023-05-11 10:00:00" iface=wlan0 event=DHCP_ACK ip=172.30.1.99\n'
        )
        log, warnings = parse_network_stack(text, KST)
        assert [l.private_ip for l in log.leases] == ["172.30.1.99"]
        assert any("volatile" in w for w in warnings)

    def test_invalid_ip_warns(self):
        text = 'time="2023-05-11 10:00:00" iface=wlan0 event=DHCP_ACK ip=300.1.2.3\n'
        log, warnings = parse_network_stack(text, KST)
        assert log.leases == ()
        assert warnings

    def test_unknown_event_token_maps_to_other(self):
        text = 'time="2023-05-11 10:00:00" iface=wlan0 event=PROVISIONING ip=10.0.0.2\n'
        log, _ = parse_network_stack(text, KST)
        assert log.leases[0].event_kind == LeaseKind.OTHER
        assert log.leases[0].raw_kind == "PROVISIONING"

    def test_empty_input_fatal(self):
        with pytest.raises(EmptyDumpError):
            parse_network_stack(" ", KST)

    def test_jsonl_form(self):
        text = (
            '{"record": "boot", "at": 100}\n'
            '{"record": "lease", "at": 200, "interface": "wlan0", "event_kind": "dhcp_ack",'
            ' "private_ip": "10.0.0.5", "network_id": null}\n'
        )
        log, warnings = parse_network_stack(text, KST)
        assert warnings == []
        assert log.boot_epoch_marker.epoch == 100
        assert log.leases[0].private_ip == "10.0.0.5"


class TestBucketFor:
    """A traffic bucket collects the app events and SSID-less leases in [st, st+duration)."""

    def test_camera_hour_bucket(self, bucket_join):
        # st=1683547200 renders as 21:00 May 8 2023 in the display zone
        st = 1683547200
        bucket, joined, leased = bucket_join(st, 3600, [st, st + 3600])
        assert bucket.st.epoch == st
        assert bucket.st.wall(KST) == "2023-05-08 21:00:00"
        assert joined == leased == [st]

    def test_epoch_zero(self, bucket_join):
        _, joined, leased = bucket_join(0, 3600, [0, 3599, 3600])
        assert joined == leased == [0, 3599]

    @pytest.mark.parametrize("st,duration", [(1683718800, 3600), (17, 60), (123456, 7200)])
    def test_boundary_property(self, bucket_join, st, duration):
        _, joined, leased = bucket_join(st, duration, [st, st + duration])
        assert joined == leased == [st]


def render_jsonl(s: simulator.Scenario, duration: int) -> tuple[str, str, str]:
    """The scenario's dumps in the JSON-lines form of docs/fixture-grammar.md,
    with traffic buckets of `duration` seconds.

    Unlike simulator.render_dumps, it leaves the 24h window, the reboot and
    the sort to the parser: every app event and every lease is written, in
    scenario order.
    """
    def lines(rows):
        return "".join(json.dumps(row) + "\n" for row in rows)

    usage = [{"record": "capture", "at": s.capture_time}]
    for a in s.app_sessions:
        usage.append({"record": "event", "at": a.start, "package": a.package, "event_type": "ACTIVITY_RESUMED"})
        usage.append({"record": "event", "at": a.end, "package": a.package, "event_type": "ACTIVITY_PAUSED"})
    usage += [{"record": "aggregate", "window": w, "package": pkg, "last_used": last, "use_count": n}
              for w, pkg, last, n in simulator.ground_truth_aggregates(s)]
    records = simulator.ground_truth_records(s, duration)
    ssids = dict.fromkeys(ssid for ssid, *_ in records)  # the text dump groups rows by network
    net = [{"network_id": ssid, "st": st, "rb": rb, "rp": rp, "tb": tb, "tp": tp, "bucket_duration": duration}
           for network in ssids for ssid, st, rb, rp, tb, tp in records if ssid == network]
    stack = []
    boot = simulator.last_reboot_before_capture(s)
    if boot is not None:
        stack.append({"record": "boot", "at": boot})
    stack += [{"record": "lease", "at": w.start, "interface": "wlan0", "event_kind": "dhcp_ack",
               "private_ip": w.assigned_ip, "network_id": w.ssid if s.leases_carry_ssid else None}
              for w in s.wifi_sessions]
    return lines(usage), lines(net), lines(stack)


EQUIVALENCE_SCENARIOS = {name: factory() for name, factory in simulator.PRESETS.items()}
# Seeds 10 and 65 have leases from before a reboot, 65 without SSIDs.
EQUIVALENCE_SCENARIOS.update((f"seed-{seed}", simulator.random_scenario(seed)) for seed in (0, 7, 10, 42, 65, 150))


class TestFrontEndEquivalence:
    """Text and JSON-lines dumps of the same evidence parse to the same result."""

    @pytest.mark.parametrize("name", EQUIVALENCE_SCENARIOS)
    def test_both_forms_parse_alike(self, name):
        scenario = EQUIVALENCE_SCENARIOS[name]
        for duration in (3600, 1800):
            parsed = []
            for usagestats, netstats, network_stack in (
                simulator.render_dumps(scenario, duration), render_jsonl(scenario, duration)
            ):
                report, _ = parse_usagestats(usagestats, None, scenario.display_zone)
                records, _ = parse_netstats(netstats)
                log, _ = parse_network_stack(network_stack, scenario.display_zone)
                leases = [(l.at, l.interface, l.private_ip, l.event_kind, l.network_id) for l in log.leases]
                parsed.append((report, records, log.boot_epoch_marker, leases))
            assert parsed[0] == parsed[1]
            assert {r.bucket_duration for r in parsed[0][1]} <= {duration}

    @pytest.mark.parametrize("raw,kind", [
        ("DHCP_ACK", LeaseKind.DHCP_ACK),
        ("dhcp_ack", LeaseKind.DHCP_ACK),
        ("LEASE_RENEW", LeaseKind.LEASE_RENEW),
        ("lease_renew", LeaseKind.LEASE_RENEW),
        ("IF_UP", LeaseKind.INTERFACE_UP),
        ("interface_up", LeaseKind.INTERFACE_UP),
        ("IF_DOWN", LeaseKind.INTERFACE_DOWN),
        ("interface_down", LeaseKind.INTERFACE_DOWN),
        ("PROVISIONING", LeaseKind.OTHER),
    ])
    def test_lease_kind_vocabulary_is_shared(self, raw, kind):
        text = f'time="2023-05-11 10:00:00" iface=wlan0 event={raw} ip=10.0.0.2\n'
        jsonl = json.dumps({"record": "lease", "at": 1683766800, "interface": "wlan0",
                            "event_kind": raw, "private_ip": "10.0.0.2"}) + "\n"
        for dump in (text, jsonl):
            log, warnings = parse_network_stack(dump, KST)
            assert warnings == []
            assert [(l.at.epoch, l.event_kind, l.raw_kind) for l in log.leases] == [(1683766800, kind, raw)]


def test_round_trip_recovers_simulated_events_exactly():
    for seed in (1, 7, 42):
        scenario = simulator.random_scenario(seed)
        usagestats, netstats, network_stack = simulator.render_dumps(scenario)

        report, w1 = parse_usagestats(usagestats, Timestamp(scenario.capture_time), scenario.display_zone)
        assert w1 == []
        parsed_events = [(e.package, e.event_type, e.at.epoch) for e in report.events_24h]
        assert parsed_events == simulator.ground_truth_events(scenario)
        parsed_aggs = [(a.window.value, a.package, a.last_used.epoch, a.use_count) for a in report.aggregates]
        assert sorted(parsed_aggs) == sorted(simulator.ground_truth_aggregates(scenario))

        records, w2 = parse_netstats(netstats)
        assert w2 == []
        parsed_records = [(r.network_id, r.st.epoch, r.rb, r.rp, r.tb, r.tp) for r in records]
        assert sorted(parsed_records) == sorted(simulator.ground_truth_records(scenario))

        log, w3 = parse_network_stack(network_stack, scenario.display_zone)
        assert w3 == []
        parsed_leases = [(l.at.epoch, l.private_ip, l.network_id) for l in log.leases]
        assert parsed_leases == simulator.ground_truth_leases(scenario)


def test_netstats_round_trip_conserves_total_bytes():
    for seed in (3, 11):
        scenario = simulator.random_scenario(seed)
        _, netstats, _ = simulator.render_dumps(scenario)
        records, _ = parse_netstats(netstats)
        parsed_total = sum(r.rb + r.tb for r in records)
        truth_total = sum(w.bytes_in + w.bytes_out for w in scenario.wifi_sessions)
        assert parsed_total == truth_total


def test_tolerates_realistic_dump_scaffolding():
    # lines in the shape real service dumps print, with extra tokens and
    # unrelated sections around the recognized vocabulary
    usage_text = (
        "DUMP OF SERVICE usagestats:\n"
        "Settings version: 5\n"
        "In-memory daily stats\n"
        "  Last 24 hour events:\n"
        '    time="2023-05-11 01:14:16" type=ACTIVITY_RESUMED package=com.corproxy.files '
        "class=com.corproxy.files.ui.MainActivity flags=0x0\n"
        '    time="2023-05-11 01:14:17" type=STANDBY_BUCKET_CHANGED package=com.corproxy.files '
        "standbyBucket=10\n"
        "  ChooserActivity counts:\n"
    )
    report, warnings = parse_usagestats(usage_text, CAPTURE, KST)
    assert [e.event_type for e in report.events_24h] == ["ACTIVITY_RESUMED", "STANDBY_BUCKET_CHANGED"]
    assert any("ChooserActivity" in w or "unrecognized" in w for w in warnings)

    netstats_text = (
        "DUMP OF SERVICE netstats:\n"
        "Active interfaces:\n"
        '  iface=wlan0 ident=[{type=WIFI, subType=COMBINED, networkId="KT_GiGA_5G_EFB7", metered=false}]\n'
        "Dev stats:\n"
        "  Pending bytes: 1656\n"
        '  ident=[{type=WIFI, networkId="KT_GiGA_5G_EFB7"}] uid=-1 set=ALL tag=0x0\n'
        "    NetworkStatsHistory: bucketDuration=3600\n"
        "      st=1683734400 rb=47185920 rp=33705 tb=1048576 tp=749 op=0\n"
    )
    records, _ = parse_netstats(netstats_text)
    assert len(records) == 1
    assert records[0].rb == 47_185_920


@pytest.mark.parametrize("parse", [parse_usagestats, parse_netstats, parse_network_stack])
def test_jsonl_line_that_is_not_an_object_warns(parse):
    text = '{"record": "capture", "at": 1683766560}\n[1, 2]\n'
    zone_args = {parse_usagestats: (None, KST), parse_netstats: (), parse_network_stack: (KST,)}
    _, warnings = parse(text, *zone_args[parse])
    assert "line 2: expected a JSON object, got list" in warnings


def test_parsers_are_total_on_garbage_input():
    # arbitrary non-empty text degrades to warnings, never an exception
    import random
    import string

    rng = random.Random(1234)
    fragments = [
        "time=\"not a date\" type=X package=",
        "st=999999999999999999999999 rb=1 rp=1 tb=1 tp=1",
        'networkId="半角"',
        "ip=1.2.3.4.5 event=DHCP_ACK",
        "{\"record\": \"event\"}",
        "{broken json",
        "NetworkStatsHistory: bucketDuration=-1",
    ]
    for _ in range(40):
        lines = []
        for _ in range(rng.randint(1, 12)):
            if rng.random() < 0.4:
                lines.append(rng.choice(fragments))
            else:
                lines.append("".join(rng.choices(string.printable.strip() + " ", k=rng.randint(1, 60))))
        text = "\n".join(lines) + "\n"
        if not text.strip():
            continue
        if not text.lstrip().startswith("{"):
            parse_usagestats(text, CAPTURE, KST)
        parse_netstats(text)
        parse_network_stack(text, KST)
