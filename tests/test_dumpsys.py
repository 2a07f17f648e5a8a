import json
import random
import re
from collections import defaultdict

import pytest

from watchtriage import dumpsys, evidence, simulator
from watchtriage.correlate import build_timeline, parse_document
from watchtriage.dumpsys import (
    AggregateWindow,
    LeaseKind,
    NetworkStackLog,
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
        with pytest.raises(ValueError, match="dump text is empty"):
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

    @pytest.mark.parametrize("count", ["٣", "3٣"])
    def test_total_count_in_other_digits_is_unrecognized(self, count):
        text = USAGESTATS_FIXTURE.replace("totalCount=3", f"totalCount={count}")
        report, warnings = parse_usagestats(text, CAPTURE, KST)
        assert report.aggregates == ()
        assert warnings == [
            f'line 8: unrecognized: package=com.corproxy.files lastTimeUsed="2023-05-11 01:52" totalCount={count}'
        ]

    def test_aggregates_have_no_second_precision(self):
        report, _ = parse_usagestats(USAGESTATS_FIXTURE, CAPTURE, KST)
        agg = report.aggregates[0]
        assert agg.window == AggregateWindow.WEEK
        assert agg.package == "com.corproxy.files"
        assert agg.use_count == 3
        assert agg.last_used.epoch % 60 == 0
        doc = parse_document(build_timeline(report, [], NetworkStackLog(())), None, KST, [])
        assert [a["precision"] for a in doc["usagestats"]["aggregates"]] == ["minute"]

    def test_missing_aggregate_sections_yield_empty_list(self):
        text = 'Last 24 hour events:\n  time="2023-05-11 08:00:00" type=ACTIVITY_RESUMED package=com.x\n'
        report, _ = parse_usagestats(text, CAPTURE, KST)
        assert report.aggregates == ()

    def test_unknown_stats_header_ends_the_aggregate_window(self):
        text = (
            "Weekly stats:\n"
            '  package=a lastTimeUsed="2023-05-10 09:00" totalCount=3\n'
            "Daily stats:\n"
            '  package=b lastTimeUsed="2023-05-11 09:00" totalCount=1\n'
            "Monthly stats:\n"
            '  package=c lastTimeUsed="2023-05-01 09:00" totalCount=9\n'
        )
        report, warnings = parse_usagestats(text, CAPTURE, KST)
        assert [(a.window, a.package) for a in report.aggregates] == [
            (AggregateWindow.WEEK, "a"), (AggregateWindow.MONTH, "c")
        ]
        assert warnings == [
            "line 3: unrecognized: Daily stats:",
            'line 4: unrecognized: package=b lastTimeUsed="2023-05-11 09:00" totalCount=1',
        ]

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

    @pytest.mark.parametrize("record", [
        'capture-time="2023-05-12 09:56:00"',
        'capture-time="not a time"',
        '{"record": "capture", "at": 1683852960}',
        '{"record": "capture", "at": "not a time"}',
    ], ids=["text-header", "text-header-malformed", "jsonl-record", "jsonl-record-malformed"])
    def test_dump_capture_record_is_skipped_unparsed(self, record):
        # The capture instant is the one passed in; the dump's own is informational.
        jsonl = record.startswith("{")
        body = (
            '{"record": "event", "at": 1683735256, "package": "com.corproxy.files", "event_type": "ACTIVITY_RESUMED"}\n'
            if jsonl else USAGESTATS_FIXTURE
        )
        with_record, w1 = parse_usagestats(record + "\n" + body, CAPTURE, KST)
        without, w2 = parse_usagestats(body, CAPTURE, KST)
        assert with_record == without and w1 == w2 == []
        assert with_record.capture_time == CAPTURE

    def test_jsonl_form(self):
        text = (
            '{"record": "capture", "at": 1683766560}\n'
            '{"record": "event", "at": 1683735256, "package": "com.corproxy.files", "event_type": "ACTIVITY_RESUMED"}\n'
            '{"record": "aggregate", "window": "week", "package": "com.corproxy.files", "last_used": 1683737520, "use_count": 3}\n'
        )
        report, warnings = parse_usagestats(text, CAPTURE, KST)
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

    # Only ASCII digits are digits: Arabic-Indic "٣٦٠٠" is not 3600.
    @pytest.mark.parametrize("value", ["٣٦٠٠", "36٠٠"])
    @pytest.mark.parametrize("field", ["st", "rb", "rp", "tb", "tp"])
    def test_counter_in_other_digits_is_unrecognized(self, field, value):
        line = " ".join(f"{name}={value if name == field else '3600'}" for name in ("st", "rb", "rp", "tb", "tp"))
        records, warnings = parse_netstats(f'networkId="x"\n{line}\n')
        assert records == []
        assert warnings == [f"line 2: unrecognized: {line}"]

    def test_counter_line_before_network_warns(self):
        text = "st=10 rb=1 rp=1 tb=1 tp=1\n"
        records, warnings = parse_netstats(text)
        assert records == []
        assert any("before any networkId" in w for w in warnings)

    def test_zero_byte_input_fatal(self):
        with pytest.raises(ValueError, match="dump text is empty"):
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

    @pytest.mark.parametrize("value", ["0", "-5", "abc", "", "٣٦٠٠"])
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
        # In JSON lines a duration must be a JSON integer: the string is a
        # type error, and a whole number that is not positive keeps the text
        # form's message.
        row = {"network_id": "a", "st": 0, "rb": 1, "rp": 1, "tb": 1, "tp": 1}
        jsonl = [json.dumps({**row, "bucket_duration": value})]
        expected = [f"line 1: bucket_duration must be a JSON integer, got {value!r}"]
        if value in ("0", "-5"):
            jsonl.append(json.dumps({**row, "bucket_duration": int(value)}))
            expected.append(f"line 2: bucketDuration must be a positive whole number of seconds, got {int(value)}")
        records, warnings = parse_netstats("\n".join(jsonl) + "\n")
        assert records == []
        assert warnings == expected


class TestLineKindPrecedence:
    """A text line holding the fields of several kinds is read as one kind,
    as docs/fixture-grammar.md lists them; the event and counter searches
    scan the whole line."""

    @pytest.mark.parametrize("line", [
        'capture-time="2023-05-11 09:00:00" time="2023-05-11 08:00:00" type=A package=p',
        'time="2023-05-11 08:00:00" type=A package=p capture-time="2023-05-11 09:00:00"',
        'DUMP OF SERVICE time="2023-05-11 08:00:00" type=A package=p',
    ], ids=["capture-first", "capture-last", "service-header"])
    def test_usagestats_skip_lines_are_never_events(self, line):
        report, warnings = parse_usagestats(line + "\n", CAPTURE, KST)
        assert (report.events_24h, warnings) == ((), [])

    @pytest.mark.parametrize("line", [
        'junk time="2023-05-11 09:00:03" type=A package=p',
        'time="bad" x time="2023-05-11 09:00:03" type=A package=p',
        'capture-time=unquoted time="2023-05-11 09:00:03" type=A package=p',
    ], ids=["leading-junk", "earlier-bad-time", "unquoted-capture-time"])
    def test_usagestats_event_anywhere_in_a_line(self, line):
        report, warnings = parse_usagestats(line + "\n", CAPTURE, KST)
        assert warnings == []
        assert [(e.at.wall(KST), e.event_type, e.package) for e in report.events_24h] == [
            ("2023-05-11 09:00:03", "A", "p")
        ]

    def test_netstats_counter_line_naming_a_network_only_switches_to_it(self):
        text = 'networkId="a"\nst=0 rb=1 rp=1 tb=1 tp=1 networkId="z"\nst=3600 rb=2 rp=2 tb=2 tp=2\n'
        records, warnings = parse_netstats(text)
        assert warnings == []
        assert [(r.network_id, r.st.epoch, r.rb) for r in records] == [("z", 3600, 2)]

    @pytest.mark.parametrize("line", [
        "st=0 rb=1 rp=1 tb=1 tp=1 stats:",
        "DUMP OF SERVICE st=0 rb=1 rp=1 tb=1 tp=1",
        "NetworkStatsHistory: st=0 rb=1 rp=1 tb=1 tp=1",
    ], ids=["section-header", "service-header", "history-header"])
    def test_netstats_header_lines_are_never_counters(self, line):
        records, warnings = parse_netstats(f'networkId="a"\n{line}\n')
        assert (records, warnings) == ([], [])

    @pytest.mark.parametrize("line", [
        "junk st=0 rb=1 rp=1 tb=1 tp=1",
        "networkId=unquoted st=0 rb=1 rp=1 tb=1 tp=1",
    ], ids=["leading-junk", "unquoted-network-id"])
    def test_netstats_counter_anywhere_in_a_line(self, line):
        records, warnings = parse_netstats(f'networkId="a"\n{line}\n')
        assert warnings == []
        assert [(r.network_id, r.st.epoch, r.rb) for r in records] == [("a", 0, 1)]


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

    @pytest.mark.parametrize("ssid", ["ssid=OfficeNet", 'ssid=Office"Net"', "ssid=", 'extra ssid="OfficeNet"'])
    def test_lease_whose_ssid_is_not_a_quoted_string_is_dropped(self, ssid):
        # Read as SSID-less, it would attach by time alone to a session on any network.
        text = (
            f'time="2023-05-11 21:10:12" iface=wlan0 event=DHCP_ACK ip=192.168.86.26 {ssid}\n'
            'time="2023-05-11 21:10:13" iface=wlan0 event=DHCP_ACK ip=192.168.86.27 ssid=""\n'
        )
        log, warnings = parse_network_stack(text, KST)
        assert [(l.private_ip, l.network_id) for l in log.leases] == [("192.168.86.27", "")]
        assert warnings == ["line 1: lease ssid= is not a quoted string after ip=; dropped"]

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

    def test_empty_input_fatal(self):
        with pytest.raises(ValueError, match="dump text is empty"):
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
    with traffic buckets of `duration` seconds, stated in each row unless it
    is the default.

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
    stated = {} if duration == dumpsys.DEFAULT_BUCKET_SECONDS else {"bucket_duration": duration}
    net = [{"network_id": ssid, "st": st, "rb": rb, "rp": rp, "tb": tb, "tp": tp, **stated}
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
                report, _ = parse_usagestats(usagestats, Timestamp(scenario.capture_time), scenario.display_zone)
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
            assert [(l.at.epoch, l.event_kind) for l in log.leases] == [(1683766800, kind)]


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


@pytest.mark.parametrize("wall, reason", [
    ("2023-02-30 10:00:00", "day is out of range for month"),
    ("2023-01-01 24:00:00", "hour must be in 0..23"),
    ("2023-01-01 10:60:00", "minute must be in 0..59"),
    ("2023-01-01 10:00:60", "second must be in 0..59"),
])
@pytest.mark.parametrize("zone", [KST, "America/New_York"])
def test_invalid_wall_time_warnings_keep_their_text(wall, reason, zone):
    # The warnings go into the parse document word for word.
    usage = (
        "Last 24 hour events:\n"
        f'  time="{wall}" type=ACTIVITY_RESUMED package=com.bad\n'
        "Weekly stats:\n"
        f'  package=com.bad lastTimeUsed="{wall[:16]}" totalCount=3\n'
    )
    report, warnings = parse_usagestats(usage, CAPTURE, zone)
    expected = [f"line 2: bad event time ({reason})"]
    if reason.startswith("second"):  # an aggregate time has no seconds
        assert len(report.aggregates) == 1
    else:
        expected.append(f"line 4: bad aggregate time ({reason})")
    assert report.events_24h == () and warnings == expected
    stack = f'bootTime="{wall}"\ntime="{wall}" iface=wlan0 event=DHCP_ACK ip=10.0.0.2\n'
    log, warnings = parse_network_stack(stack, zone)
    assert log == NetworkStackLog((), None)
    assert warnings == [f"line 1: bad boot time ({reason})", f"line 2: bad lease line ({reason})"]


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
    zone_args = {parse_usagestats: (CAPTURE, KST), parse_netstats: (), parse_network_stack: (KST,)}
    _, warnings = parse(text, *zone_args[parse])
    assert "line 2: expected a JSON object, got list" in warnings


# A valid line, then one whose field has the wrong JSON type, and the
# warning that drops it.
_EVENT = {"record": "event", "at": 1683735256, "package": "com.x", "event_type": "ACTIVITY_RESUMED"}
_AGGREGATE = {"record": "aggregate", "window": "week", "package": "com.x", "last_used": 1683737520, "use_count": 3}
_BUCKET = {"network_id": "a", "st": 1683734400, "rb": 1, "rp": 1, "tb": 1, "tp": 1}
_LEASE = {"record": "lease", "at": 1683735270, "private_ip": "172.30.1.76"}
MISTYPED_FIELDS = [
    (parse_usagestats, _EVENT, "at", 1683735256.9, "at must be a JSON integer, got 1683735256.9"),
    (parse_usagestats, _EVENT, "at", True, "at must be a JSON integer, got True"),
    (parse_usagestats, _EVENT, "package", 5, "package must be a JSON string, got 5"),
    (parse_usagestats, _EVENT, "event_type", None, "event_type must be a JSON string, got None"),
    (parse_usagestats, _AGGREGATE, "last_used", "1683737520", "last_used must be a JSON integer, got '1683737520'"),
    (parse_usagestats, _AGGREGATE, "use_count", 3.0, "use_count must be a JSON integer, got 3.0"),
    (parse_usagestats, _AGGREGATE, "window", ["week"], "window must be a JSON string, got ['week']"),
    (parse_usagestats, _AGGREGATE, "package", {}, "package must be a JSON string, got {}"),
    (parse_netstats, _BUCKET, "network_id", 5, "network_id must be a JSON string, got 5"),
    (parse_netstats, _BUCKET, "network_id", None, "network_id must be a JSON string, got None"),
    (parse_netstats, _BUCKET, "st", 1683734400.5, "st must be a JSON integer, got 1683734400.5"),
    (parse_netstats, _BUCKET, "rb", 1.0, "rb must be a JSON integer, got 1.0"),
    (parse_netstats, _BUCKET, "rp", "5", "rp must be a JSON integer, got '5'"),
    (parse_netstats, _BUCKET, "tb", False, "tb must be a JSON integer, got False"),
    (parse_netstats, _BUCKET, "tp", None, "tp must be a JSON integer, got None"),
    (parse_netstats, _BUCKET, "bucket_duration", "3600", "bucket_duration must be a JSON integer, got '3600'"),
    (parse_network_stack, _LEASE, "at", 1683735270.5, "at must be a JSON integer, got 1683735270.5"),
    (parse_network_stack, _LEASE, "private_ip", 2887647564, "private_ip must be a JSON string, got 2887647564"),
    (parse_network_stack, _LEASE, "interface", 0, "interface must be a JSON string, got 0"),
    (parse_network_stack, _LEASE, "event_kind", 1, "event_kind must be a JSON string, got 1"),
    (parse_network_stack, _LEASE, "network_id", 5, "network_id must be a JSON string or null, got 5"),
    (parse_network_stack, {"record": "boot", "at": 1683700000}, "at", "1683700000",
     "at must be a JSON integer, got '1683700000'"),
]


@pytest.mark.parametrize("parse, valid, key, value, message", MISTYPED_FIELDS,
                         ids=[f"{p.__name__}-{v.get('record', 'bucket')}-{k}-{type(x).__name__}"
                              for p, v, k, x, _ in MISTYPED_FIELDS])
def test_jsonl_field_of_the_wrong_json_type_drops_its_line(parse, valid, key, value, message):
    text = json.dumps(valid) + "\n" + json.dumps({**valid, key: value}) + "\n"
    zone_args = {parse_usagestats: (CAPTURE, KST), parse_netstats: (), parse_network_stack: (KST,)}
    parsed, warnings = parse(text, *zone_args[parse])
    assert warnings == [f"line 2: {message}"]
    kept = {parse_usagestats: lambda r: r.events_24h + r.aggregates, parse_netstats: list,
            parse_network_stack: lambda log: log.leases + ((log.boot_epoch_marker,) if log.boot_epoch_marker else ())}
    assert len(kept[parse](parsed)) == 1


@pytest.mark.parametrize("parse, valid, key", [
    (parse_usagestats, _EVENT, "package"),
    (parse_usagestats, _AGGREGATE, "use_count"),
    (parse_netstats, _BUCKET, "rp"),
    (parse_network_stack, _LEASE, "private_ip"),
    (parse_network_stack, {"record": "boot", "at": 1683700000}, "at"),
], ids=lambda value: value.__name__ if callable(value) else None)
def test_jsonl_record_without_a_field_warns_naming_it(parse, valid, key):
    text = json.dumps(valid) + "\n" + json.dumps({k: v for k, v in valid.items() if k != key}) + "\n"
    zone_args = {parse_usagestats: (CAPTURE, KST), parse_netstats: (), parse_network_stack: (KST,)}
    _, warnings = parse(text, *zone_args[parse])
    assert warnings == [f"line 2: missing field {key!r}"]


# Rows with two faults, their keys in the order `json.dumps` writes them: a
# missing field is named before a mistyped one that precedes it, of two
# mistyped fields the first is named, and a lease's network_id after all.
TWO_FAULTS = [
    (parse_usagestats, {"record": "event", "at": "1683735256", "package": "com.x"}, "missing field 'event_type'"),
    (parse_usagestats, {**_EVENT, "at": 1.5, "package": 5}, "at must be a JSON integer, got 1.5"),
    (parse_usagestats, {**_EVENT, "package": 5, "event_type": None}, "package must be a JSON string, got 5"),
    (parse_usagestats, {"record": "aggregate", "window": 7, "package": "com.x", "last_used": 1683737520},
     "missing field 'use_count'"),
    (parse_usagestats, {**_AGGREGATE, "last_used": "1", "use_count": 3.0}, "last_used must be a JSON integer, got '1'"),
    (parse_netstats, {"network_id": "a", "st": "1683734400", "rb": 1, "tb": 1, "tp": 1}, "missing field 'rp'"),
    (parse_netstats, {**_BUCKET, "rb": "1", "tp": None}, "rb must be a JSON integer, got '1'"),
    (parse_netstats, {**_BUCKET, "tp": 1.0, "bucket_duration": "3600"}, "tp must be a JSON integer, got 1.0"),
    (parse_network_stack, {"record": "lease", "at": 1.5, "interface": "wlan0"}, "missing field 'private_ip'"),
    (parse_network_stack, {**_LEASE, "at": "1", "network_id": 5}, "at must be a JSON integer, got '1'"),
    (parse_network_stack, {**_LEASE, "interface": 0, "event_kind": 1}, "interface must be a JSON string, got 0"),
    (parse_network_stack, {**_LEASE, "event_kind": 1, "network_id": 5}, "event_kind must be a JSON string, got 1"),
]


@pytest.mark.parametrize("parse, row, message", TWO_FAULTS,
                         ids=[f"{p.__name__}-{m.split()[0]}" for p, _, m in TWO_FAULTS])
def test_jsonl_row_with_two_faults_warns_for_the_first_the_record_reads(parse, row, message):
    valid = {parse_usagestats: _EVENT, parse_netstats: _BUCKET, parse_network_stack: _LEASE}[parse]
    text = json.dumps(valid) + "\n" + json.dumps(row) + "\n"
    zone_args = {parse_usagestats: (CAPTURE, KST), parse_netstats: (), parse_network_stack: (KST,)}
    _, warnings = parse(text, *zone_args[parse])
    assert warnings == [f"line 2: {message}"]


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


class TestLineBreaks:
    """Only a newline ends a dump line: any other character `str.splitlines`
    breaks at stays inside its line, so later line numbers stay physical."""

    def test_a_separator_character_does_not_split_a_line(self):
        _, warnings = parse_netstats('networkId="a"\njunk\x1cmore\nbogus line\n')
        assert warnings == ["line 2: unrecognized: junk\x1cmore", "line 3: unrecognized: bogus line"]

    def test_jsonl_string_holding_a_line_separator_is_one_record(self):
        text = json.dumps({**_BUCKET, "network_id": "Cafe\u2028Guest"}, ensure_ascii=False) + "\n"
        assert "\u2028" in text
        records, warnings = parse_netstats(text)
        assert [r.network_id for r in records] == ["Cafe\u2028Guest"] and warnings == []

    @pytest.mark.parametrize("parse, text", [
        (lambda t: parse_usagestats(t, CAPTURE, KST), USAGESTATS_FIXTURE + "bogus line\n"),
        (lambda t: parse_network_stack(t, KST),
         NETWORK_STACK_FIXTURE + 'bogus line\ntime="2023-05-11 99:00:00" iface=wlan0 event=DHCP_ACK ip=10.0.0.9\n'),
    ], ids=["usagestats", "network_stack"])
    def test_cr_cr_lf_endings_read_as_lf(self, parse, text):
        parsed, warnings = parse(text)
        assert len(warnings) >= 1
        assert parse(text.replace("\n", "\r\r\n")) == (parsed, warnings)


class TestScannerPath:
    """A JSON-lines dump is read through json's C scanner, falling back to
    `json.loads` for a line the scanner does not read whole; with the scanner
    made to refuse every line, `json.loads` reads them all, and the records
    and warnings must be the same."""

    VALID = {
        "usagestats": [_EVENT, _AGGREGATE, {**_EVENT, "at": 1683600000}, {"record": "capture", "at": 1683766560},
                       {**_AGGREGATE, "window": "month", "use_count": 0}],
        "netstats": [_BUCKET, {**_BUCKET, "network_id": "b", "bucket_duration": 900}, {**_BUCKET, "rb": 0}],
        "network_stack": [_LEASE, {"record": "boot", "at": 1683700000},
                          {**_LEASE, "network_id": "Cafe", "event_kind": "lease_renew", "interface": "wlan1"}],
    }
    PARSE = {
        "usagestats": lambda text: parse_usagestats(text, CAPTURE, KST),
        "netstats": parse_netstats,
        "network_stack": lambda text: parse_network_stack(text, KST),
    }
    # Each mutation maps a valid line (and the seeded generator) to one that
    # may or may not still be a valid record.
    MUTATIONS = [
        lambda line, rng: "\ufeff" + line,
        lambda line, rng: line + " {}",
        lambda line, rng: line + "x",
        lambda line, rng: line + line,
        lambda line, rng: "{} {}",
        lambda line, rng: "{}x",
        lambda line, rng: rng.choice(["[1, 2]", "[]", "5", "-0.5e3", '"text"', "true", "null"]),
        lambda line, rng: rng.choice(["NaN", "Infinity", "-Infinity"]),
        lambda line, rng: line.replace("1", "NaN", 1) if rng.random() < 0.5 else line.replace("1", "Infinity", 1),
        lambda line, rng: line.replace("1", "1" * rng.choice([30, 400, 5000]), 1),
        lambda line, rng: line[:-1] + ', "' + rng.choice(["rb", "at", "package", "record", "st"]) + '": -1}',
        lambda line, rng: rng.choice(["\x1c", "\u2028", "\x85", "\x0b"]) + line + rng.choice(["\x1d", "\u2029", " "]),
        lambda line, rng: line.replace('": "', '": "\x1c\u2028', 1),
        lambda line, rng: line.replace(", ", rng.choice([",\x1c", ",\u2028", ",\t", ", \r"]), 1),
        lambda line, rng: line[:rng.randrange(1, len(line))],
        lambda line, rng: line.replace('"', "'", 2),
        lambda line, rng: line.replace(": ", ": [", 1),
        lambda line, rng: json.dumps(json.loads(line), ensure_ascii=False).replace("1", "\u0661", 1),
    ]

    def dumps(self, dump, seed):
        rng = random.Random(seed)
        for _ in range(25):
            valid = [json.dumps(obj) for obj in self.VALID[dump]]
            lines = [rng.choice(valid)]  # a leading "{" selects the JSON-lines form
            for _ in range(rng.randint(1, 12)):
                line = rng.choice(valid)
                if rng.random() < 0.7:
                    line = rng.choice(self.MUTATIONS)(line, rng)
                lines.append(line)
            yield "\n".join(lines) + "\n"

    @staticmethod
    def read_with_json_loads_only(monkeypatch):
        def refuse(line, idx):
            raise StopIteration(idx)

        monkeypatch.setattr(dumpsys, "_scan_value", refuse)

    @pytest.mark.parametrize("dump", ["usagestats", "netstats", "network_stack"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scanner_and_json_loads_read_alike(self, monkeypatch, dump, seed):
        texts = list(self.dumps(dump, seed))
        fast = [self.PARSE[dump](text) for text in texts]
        self.read_with_json_loads_only(monkeypatch)
        slow = [self.PARSE[dump](text) for text in texts]
        assert fast == slow
        warnings = [w for _, ws in fast for w in ws]
        assert len(warnings) > len(texts)
        assert any("Unexpected UTF-8 BOM" in w for w in warnings)
        assert any("Extra data" in w for w in warnings)

    def test_every_listed_line_reads_as_json_loads_reads_it(self, monkeypatch):
        lines = [
            "\ufeff" + json.dumps(_BUCKET), json.dumps(_BUCKET) + " {}", "{} {}", "{}x", "[1]", "5", '"s"',
            "NaN", "Infinity", json.dumps(_BUCKET).replace("1,", "NaN,", 1),
            json.dumps({**_BUCKET, "st": 10**400}), json.dumps(_BUCKET).replace("1", "1" * 5000, 1),
            json.dumps(_BUCKET)[:-1] + ', "rb": -1}', json.dumps(_BUCKET)[:-1] + ', "rb": 7}',
            "\x1c" + json.dumps(_BUCKET) + "\u2028",
            json.dumps({**_BUCKET, "network_id": "a\x1cb\u2028c"}, ensure_ascii=False),
            json.dumps(_BUCKET)[:20],
        ]
        text = json.dumps(_BUCKET) + "\n" + "\n".join(lines) + "\n"
        fast = parse_netstats(text)
        self.read_with_json_loads_only(monkeypatch)
        assert parse_netstats(text) == fast
        records, warnings = fast
        assert [r.rb for r in records] == [1, 7, 1, 1]
        assert [r.network_id for r in records][-1] == "a\x1cb\u2028c"
        assert warnings[0] == "line 2: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"
        end = len(json.dumps(_BUCKET)) + 1  # where the second value starts
        assert warnings[1] == f"line 3: Extra data: line 1 column {end + 1} (char {end})"
        assert len(warnings) == len(lines) - 3  # all but the three lines read as records


class TestCommonLinePath:
    """Each dump is read in one `findall`: a dump's common line builds its
    record from the pattern's groups, any other line goes through the
    per-line rules (for a JSON-lines dump, `json.loads`). A "\\x0b" before
    every line keeps each out of the common form while `strip` drops it, and
    a JSON-lines aggregate row, which `_AGGREGATE_ROW` reads from the stripped
    line, is kept from that pattern too; so all go through the per-line
    rules, and the tokenizer's lists must be the same."""

    ZONES = [KST, "America/New_York"]
    # Wall hours in range, in a New York 2023 gap and fold, out of range in
    # both zones, and hours no calendar has.
    HOURS = ["2023-05-11 09", "2023-05-10 23", "2023-03-12 02", "2023-11-05 01", "9999-06-01 10",
             "1970-01-01 00", "2023-02-30 10", "2023-01-01 24"]
    TWO_DIGITS = ["00", "07", "14", "59", "59", "60", "7"]
    # Each tokenizer returns its records as lists by kind, warnings last.
    TOKENIZE = {
        "usagestats": dumpsys._usagestats_text,
        "netstats": lambda text, zone: dumpsys._netstats_text(text),
        "network_stack": dumpsys._network_stack_text,
        "usagestats_jsonl": lambda text, zone: dumpsys._usagestats_jsonl(text),
        "netstats_jsonl": lambda text, zone: dumpsys._netstats_jsonl(text),
    }
    COMMON = {"usagestats": dumpsys._EVENT_LINES, "netstats": dumpsys._COUNTER_LINES,
              "network_stack": dumpsys._LEASE_LINES, "usagestats_jsonl": dumpsys._EVENT_ROWS,
              "netstats_jsonl": dumpsys._COUNTER_ROWS}
    DUMPS = list(TOKENIZE)
    # JSON integers in range, at and past MAX_EPOCH, of 19 and 20 digits, and negative; and
    # the last epoch a common row takes and the first, still in range, that it leaves.
    INTEGERS = [0, 1683735256, 5, evidence.MAX_EPOCH, 10**18, evidence.MAX_EPOCH + 1, 10**19 - 1, 10**19, -1,
                10**11 - 1, 10**11]
    # Strings that `json.dumps` writes as themselves, then ones it escapes or
    # that hold a character no common row takes.
    STRINGS = ["com.x", "A", "", "b c", "x'y", "é", "\\", 'x"y', "\t", "\x7f", "\u2028"]
    MUTATIONS = [
        lambda line, rng: line + "\r",
        lambda line, rng: line + "\r\r",
        lambda line, rng: "\x0b" + line,
        lambda line, rng: rng.choice(["\u3000", "\u2028", "\t"]) + line + rng.choice(["", "\u3000", "\u2028"]),
        lambda line, rng: line.replace(" ", rng.choice(["\u3000", "\u2028", "  "]), 1),
        lambda line, rng: line.replace(rng.choice("0123456789"), rng.choice("\uff10\uff11\uff19"), 1),
        lambda line, rng: "junk " + line,
        lambda line, rng: line.replace('"', "", 1),
        lambda line, rng: line[:rng.randrange(1, len(line))],
    ]

    @classmethod
    def from_groups(cls, dump, text) -> list[bool]:
        """Whether the tokenizer reads each line of `text` from a pattern's
        groups: its common-line pattern's or, for a JSON-lines usagestats
        line that pattern leaves, `_AGGREGATE_ROW`'s on the stripped line."""
        return [any(fields[:-1]) or (dump == "usagestats_jsonl" and bool(dumpsys._AGGREGATE_ROW.fullmatch(
            fields[-1].strip()))) for fields in cls.COMMON[dump].findall(text)]

    def per_line(self, dump, text, zone, monkeypatch):
        """The tokenizer's lists for `text` with every line read by the per-line rules."""
        forced = "\n".join("\x0b" + line for line in text.split("\n"))
        assert not any(any(fields[:-1]) for fields in self.COMMON[dump].findall(forced))
        with monkeypatch.context() as patch:
            patch.setattr(dumpsys, "_AGGREGATE_ROW", re.compile("(?!)"))
            return self.TOKENIZE[dump](forced, zone)

    def wall(self, rng) -> str:
        return f"{rng.choice(self.HOURS)}:{rng.choice(self.TWO_DIGITS)}:{rng.choice(self.TWO_DIGITS)}"

    @staticmethod
    def pick(rng, values):
        """One of `values`, most often one of the first five."""
        return rng.choice(values[:5] if rng.random() < 0.8 else values)

    def line(self, dump, rng) -> str:
        """A common line of `dump` three times in five, else one of its other lines."""
        common = rng.random() < 0.6
        if dump == "usagestats":
            if common:
                package = rng.choice(["com.x", "p.q", "capture-time=", 'capture-time="x"'])
                return f'    time="{self.wall(rng)}" type={rng.choice(["ACTIVITY_RESUMED", "A"])} package={package}'
            return rng.choice([
                f'  package=com.x lastTimeUsed="{self.wall(rng)[:16]}" totalCount={rng.randint(0, 9)}',
                "  Weekly stats:", "  Daily stats:", "Monthly stats:", "Last 24 hour events:",
                'capture-time="2023-05-11 09:56:00"', "DUMP OF SERVICE usagestats:",
            ])
        if dump == "netstats":
            if common:
                st = rng.choice([1683734400, 1683738000, 0, evidence.MAX_EPOCH, evidence.MAX_EPOCH + 1,
                                 10 ** 12, "0001683734400", "9" * 5000, 10 ** 11 - 1, 10 ** 11])
                counters = [-1 if rng.random() < 0.05 else rng.choice([0, 5, 47185920]) for _ in range(4)]
                return "        st={} rb={} rp={} tb={} tp={}".format(st, *counters)
            return rng.choice([
                f'    ident=[{{type=WIFI, networkId="{rng.choice(["a", "b c", ""])}"}}]',
                f"      NetworkStatsHistory: bucketDuration={rng.choice(['3600', '900', '0'])}",
                "  Xt stats:", "DUMP OF SERVICE netstats:",
            ])
        if dump == "network_stack":
            if common:
                return (f'  time="{self.wall(rng)}" iface={rng.choice(["wlan0", "wlan1", "wlan0ssid=1"])} '
                        f'event={rng.choice(["DHCP_ACK", "IF_UP", "X", "ssid=X"])} '
                        f'ip={rng.choice(["10.0.0.2", "10.0.0.3", "300.1.2.3", "10.0.0.4ssid=1"])}'
                        + rng.choice(["", ' ssid="Cafe"', ' ssid=""', " ssid=Cafe", ' ssid="bootTime="']))
            return f'  bootTime="{self.wall(rng)}"'
        if dump == "usagestats_jsonl":
            row = {"record": "event", "at": self.pick(rng, self.INTEGERS), "package": self.pick(rng, self.STRINGS),
                   "event_type": self.pick(rng, self.STRINGS)}
            if common and rng.random() < 0.3:
                row = {"record": "aggregate", "window": self.pick(rng, ["week", "month", "year", "week", "year", "day"]),
                       "package": self.pick(rng, self.STRINGS), "last_used": self.pick(rng, self.INTEGERS),
                       "use_count": self.pick(rng, self.INTEGERS)}
            if not common:
                row = rng.choice([
                    {"record": "capture", "at": 1683766560},
                    {"record": "aggregate", "window": rng.choice(["week", "day"]), "package": "com.x",
                     "last_used": rng.choice(self.INTEGERS), "use_count": rng.choice(self.INTEGERS)},
                    {key: row[key] for key in rng.sample(list(row), rng.randint(1, 4))},
                    {**row, rng.choice(["record", "at", "extra"]): rng.choice([*self.INTEGERS, "event", 1.5, None])},
                ])
        else:
            row = {"network_id": self.pick(rng, self.STRINGS),
                   **{key: self.pick(rng, self.INTEGERS) for key in ("st", "rb", "rp", "tb", "tp")}}
            if common and rng.random() < 0.3:
                row["bucket_duration"] = self.pick(rng, [3600, 900, 1, 10**19 - 1, 3600, 0, 10**19, -1])
            if not common:
                row = rng.choice([
                    {**row, "bucket_duration": rng.choice([3600, 900, 0, -1, "3600"])},
                    {key: row[key] for key in rng.sample(list(row), rng.randint(1, 6))},
                    {**row, rng.choice(["network_id", "st", "rp", "extra"]): rng.choice([5, "5", 1.0, True, None])},
                ])
        if common or rng.random() < 0.5:
            return json.dumps(row)
        return json.dumps(row, separators=rng.choice([(",", ":"), (",  ", ": "), (", ", ":")]), ensure_ascii=False)

    def dumps(self, dump, rng):
        opening = {"usagestats": "Last 24 hour events:", "netstats": 'networkId="a"', "network_stack": "",
                   "usagestats_jsonl": json.dumps(_EVENT), "netstats_jsonl": json.dumps(_BUCKET)}
        for _ in range(30):
            lines = [opening[dump]]
            for _ in range(rng.randint(1, 30)):
                line = self.line(dump, rng) if rng.random() < 0.9 else rng.choice(["", "  ", "\r", "bogus"])
                if len(line) > 1 and rng.random() < 0.3:
                    line = rng.choice(self.MUTATIONS)(line, rng)
                lines.append(line)
            yield "\n".join(lines) + rng.choice(["\n", "\r\n", "\r\r\n", ""])

    @pytest.mark.parametrize("dump", DUMPS)
    @pytest.mark.parametrize("zone", ZONES)
    def test_per_line_rules_read_every_line_alike(self, dump, zone, monkeypatch):
        rng = random.Random(f"{dump}/{zone}")
        common = kept = 0
        for text in self.dumps(dump, rng):
            *records, warnings = self.TOKENIZE[dump](text, zone)
            assert (*records, warnings) == self.per_line(dump, text, zone, monkeypatch), text
            assert all(isinstance(w, str) for w in warnings)
            common += sum(self.from_groups(dump, text))
            kept += sum(map(len, records))
        assert common > 20 and kept > 20


# --- The text parsers as they stood before each tokenizer returned its
# records as lists by kind: generators of tokens (records, boot markers,
# warning strings) grouped by type in `reference_tokenize`, with their own
# copies of the line patterns. The parsers must give exactly these records
# and warnings, in this order. The copies take each count, counter and
# per-line `st` as at most MAX_DIGITS digits, the bound that keeps what a
# dump yields from depending on the interpreter's digit limit.
_D = f"[0-9]{{1,{evidence.MAX_DIGITS}}}"

_REF_QUOTED = r'"([^"]*)"'
_REF_EVENT_RE = re.compile(r'time=' + _REF_QUOTED + r'\s+type=(\S+)\s+package=(\S+)')
_REF_AGGREGATE_RE = re.compile(r'package=(\S+)\s+lastTimeUsed=' + _REF_QUOTED + rf'\s+totalCount=({_D})(?!\S)')
_REF_DURATION_RE = re.compile(r'bucketDuration=(\S*)')
_REF_ST_LINE_RE = re.compile(
    rf'st=({_D})\s+rb=(-?{_D})\s+rp=(-?{_D})\s+tb=(-?{_D})\s+tp=(-?{_D})(?!\S)'
)
_REF_LEASE_RE = re.compile(
    r'time=' + _REF_QUOTED + r'\s+iface=(\S+)\s+event=(\S+)\s+ip=(\S+)(?:\s+ssid=' + _REF_QUOTED + r')?'
)
_REF_WALL_PARTS = r'time="(\d{4}-\d\d-\d\d \d\d):(\d\d):(\d\d)"'
_REF_EVENT_LINES = evidence.line_pattern(_REF_WALL_PARTS + r' type=([!#-~]+) package=([!#-~]+)')
_REF_COUNTER_LINES = evidence.line_pattern(f'st=({_D}) rb=({_D}) rp=({_D}) tb=({_D}) tp=({_D})')
_REF_LEASE_LINES = evidence.line_pattern(
    _REF_WALL_PARTS + r' iface=([!#-<>-~]+) event=([!#-<>-~]+) ip=([0-9.]+)(?: ssid=("[^"\n]*"))?'
)


def reference_tokenize(text, text_form, jsonl_form):
    if not text or not text.strip():
        raise ValueError("dump text is empty")
    tokens = defaultdict(list)
    for token in (jsonl_form if text.lstrip().startswith("{") else text_form)(text):
        tokens[type(token)].append(token)
    return tokens


def reference_usagestats_text(text, zone):
    section = None
    for lineno, (hour, minute, second, event_type, package, line) in evidence.text_lines(text, _REF_EVENT_LINES):
        if not hour:
            if line.startswith("DUMP OF SERVICE") or (
                "capture-time=" in line and dumpsys._quoted(line, "capture-time=") is not None
            ):
                continue
            m = _REF_EVENT_RE.search(line)
            if m is None:
                key = line.lower()
                header = dumpsys._SECTION_HEADERS.get(key)
                if header is not None:
                    section = header
                    continue
                if key.endswith("stats:"):
                    section = None
                else:
                    m = _REF_AGGREGATE_RE.search(line)
                    if m and isinstance(section, AggregateWindow):
                        try:
                            last_used = Timestamp.parse(m.group(2) + ":00", zone)
                        except ValueError as exc:
                            yield f"line {lineno}: bad aggregate time ({exc})"
                            continue
                        yield dumpsys.UsageAggregate(section, m.group(1), last_used, int(m.group(3)))
                        continue
                yield f"line {lineno}: unrecognized: {line[:80]}"
                continue
            wall, event_type, package = m.groups()
        try:
            at = Timestamp.parse(f"{hour}:{minute}:{second}" if hour else wall, zone)
        except ValueError as exc:
            yield f"line {lineno}: bad event time ({exc})"
            continue
        yield dumpsys.UsageEvent(at, package, event_type)


def reference_netstats_text(text):
    current_network = None
    duration = dumpsys.DEFAULT_BUCKET_SECONDS
    for lineno, (st, rb, rp, tb, tp, line) in evidence.text_lines(text, _REF_COUNTER_LINES):
        if not st:
            if line.startswith("DUMP OF SERVICE") or line.endswith("stats:"):
                continue
            if line.startswith("NetworkStatsHistory"):
                m = _REF_DURATION_RE.search(line)
                if m:
                    try:
                        duration = dumpsys.positive_seconds(m.group(1))
                    except ValueError as exc:
                        duration = None
                        yield f"line {lineno}: {exc}"
                continue
            network = dumpsys._quoted(line, "networkId=")
            if network is not None:
                current_network = network
                continue
            m = _REF_ST_LINE_RE.search(line)
            if m is None:
                yield f"line {lineno}: unrecognized: {line[:80]}"
                continue
            st, rb, rp, tb, tp = m.groups()
        if current_network is None:
            yield f"line {lineno}: counter line before any networkId"
            continue
        if duration is None:
            yield f"line {lineno}: counter line under an invalid bucketDuration; dropped"
            continue
        rb, rp, tb, tp = int(rb), int(rp), int(tb), int(tp)
        if min(rb, rp, tb, tp) < 0:
            yield f"line {lineno}: negative counter; dropped"
            continue
        try:
            record = dumpsys.NetUsageRecord(current_network, Timestamp(int(st)), rb, rp, tb, tp, duration)
        except ValueError as exc:
            yield f"line {lineno}: {exc}; dropped"
            continue
        yield record


def reference_network_stack_text(text, zone):
    for lineno, (hour, minute, second, interface, kind, ip, ssid, line) in evidence.text_lines(text, _REF_LEASE_LINES):
        if hour:
            network_id = ssid[1:-1] if ssid else None
        else:
            if line.startswith("DUMP OF SERVICE"):
                continue
            boot = dumpsys._quoted(line, "bootTime=")
            if boot is not None:
                try:
                    yield Timestamp.parse(boot, zone)
                except ValueError as exc:
                    yield f"line {lineno}: bad boot time ({exc})"
                continue
            m = _REF_LEASE_RE.search(line)
            if m is None:
                yield f"line {lineno}: unrecognized: {line[:80]}"
                continue
            wall, interface, kind, ip, network_id = m.groups()
            if network_id is None and "ssid=" in line:
                yield f"line {lineno}: lease ssid= is not a quoted string after ip=; dropped"
                continue
        try:
            at = Timestamp.parse(f"{hour}:{minute}:{second}" if hour else wall, zone)
            lease = dumpsys._lease(at, interface, ip, kind, network_id)
        except ValueError as exc:
            yield f"line {lineno}: bad lease line ({exc})"
            continue
        yield lease


# --- The JSON-lines tokenizers as they stood before the common rows were
# read from a pattern: every line is read by `json.loads`, its integers
# through `bounded_int`, into a dict, and each record is built from that.
# Only the wording of a missing field's warning is the current one.
def reference_mistyped(obj, **kinds):
    """Raise json_field's TypeError for the first field of `obj` whose JSON
    type is not the one `kinds` names."""
    for key, kind in kinds.items():
        if key in obj:
            evidence.json_field(obj, key, kind)


def reference_jsonl(text, record):
    for lineno, line in evidence.text_lines(text):
        try:
            obj = json.loads(line, parse_int=evidence.bounded_int)
            if not isinstance(obj, dict):
                raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
            token = record(obj)
        except KeyError as exc:
            yield f"line {lineno}: missing field {exc}"
        except (RecursionError, TypeError, ValueError) as exc:
            yield f"line {lineno}: {exc}"
        else:
            if token is not None:
                yield token


def reference_usagestats_record(obj):
    kind = obj.get("record")
    if kind == "event":
        at, package, event_type = obj["at"], obj["package"], obj["event_type"]
        reference_mistyped(obj, at=int, package=str, event_type=str)
        return dumpsys.UsageEvent(Timestamp(at), package, event_type)
    if kind == "aggregate":
        window, package = obj["window"], obj["package"]
        last_used, count = obj["last_used"], obj["use_count"]
        reference_mistyped(obj, window=str, package=str, last_used=int, use_count=int)
        return dumpsys.UsageAggregate(AggregateWindow(window), package, Timestamp(last_used), count)
    if kind != "capture":
        raise ValueError(f"unknown record kind {kind!r}")
    return None


def reference_netstats_record(obj):
    network_id, st = obj["network_id"], obj["st"]
    rb, rp, tb, tp = obj["rb"], obj["rp"], obj["tb"], obj["tp"]
    duration = obj.get("bucket_duration", dumpsys.DEFAULT_BUCKET_SECONDS)
    reference_mistyped(obj, network_id=str, st=int, rb=int, rp=int, tb=int, tp=int, bucket_duration=int)
    return dumpsys.NetUsageRecord(network_id, Timestamp(st), rb, rp, tb, tp, dumpsys.positive_seconds(duration))


def reference_network_stack_record(obj):
    kind = obj.get("record")
    if kind == "lease":
        at, ip, network_id = obj["at"], obj["private_ip"], obj.get("network_id")
        interface, event_kind = obj.get("interface", "wlan0"), obj.get("event_kind", "dhcp_ack")
        if not (type(at) is int and type(ip) is type(interface) is type(event_kind) is str
                and (network_id is None or type(network_id) is str)):
            reference_mistyped(obj, at=int, private_ip=str, interface=str, event_kind=str)
            raise TypeError(f"network_id must be a JSON string or null, got {network_id!r}")
        return dumpsys._lease(Timestamp(at), interface, ip, event_kind, network_id)
    if kind == "boot":
        return Timestamp(evidence.json_field(obj, "at", int))
    raise ValueError(f"unknown record kind {kind!r}")


def reference_parse_usagestats(text, capture_time, zone):
    tokens = reference_tokenize(text, lambda t: reference_usagestats_text(t, zone),
                                lambda t: reference_jsonl(t, reference_usagestats_record))
    warnings = tokens[str]
    kept = []
    for ev in tokens[dumpsys.UsageEvent]:
        if not capture_time.epoch - dumpsys.USAGE_WINDOW_SECONDS <= ev.at.epoch <= capture_time.epoch:
            warnings.append(
                f"event for {ev.package} at {ev.at.render(zone)} lies outside the 24h detail window; dropped"
            )
        else:
            kept.append(ev)
    kept.sort(key=lambda ev: ev.at.epoch)
    return dumpsys.UsageReport(capture_time, tuple(kept), tuple(tokens[dumpsys.UsageAggregate])), warnings


def reference_parse_netstats(text):
    tokens = reference_tokenize(text, reference_netstats_text, lambda t: reference_jsonl(t, reference_netstats_record))
    return tokens[dumpsys.NetUsageRecord], tokens[str]


def reference_parse_network_stack(text, zone):
    tokens = reference_tokenize(text, lambda t: reference_network_stack_text(t, zone),
                                lambda t: reference_jsonl(t, reference_network_stack_record))
    warnings, leases = tokens[str], tokens[dumpsys.LeaseEvent]
    boot = tokens[Timestamp][-1] if tokens[Timestamp] else None
    if boot is not None:
        kept = []
        for lease in leases:
            if lease.at.epoch < boot.epoch:
                warnings.append(
                    f"lease at {lease.at.render(zone)} predates boot marker {boot.render(zone)}; dropped "
                    "(log is volatile across reboot)"
                )
            else:
                kept.append(lease)
        leases = kept
    leases.sort(key=lambda lease: lease.at.epoch)
    return NetworkStackLog(tuple(leases), boot), warnings


class TestAgainstTheReferenceParsers:
    """Each parser gives the reference's records, warnings, order and line
    numbers: on mutated dumps, on every preset's and twenty random
    scenarios' dumps in both forms, on aggregate lines in and out of the
    strict form, and on JSON-lines rows at each edge of the common row."""

    PARSERS = {
        "usagestats": (lambda text, capture, zone: parse_usagestats(text, capture, zone),
                       reference_parse_usagestats),
        "netstats": (lambda text, capture, zone: parse_netstats(text),
                     lambda text, capture, zone: reference_parse_netstats(text)),
        "network_stack": (lambda text, capture, zone: parse_network_stack(text, zone),
                          lambda text, capture, zone: reference_parse_network_stack(text, zone)),
    }

    def assert_alike(self, dump, text, capture, zone):
        parse, reference = self.PARSERS[dump]
        try:
            expected = reference(text, capture, zone)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                parse(text, capture, zone)
            return None
        got = parse(text, capture, zone)
        assert got == expected, text
        assert repr(got) == repr(expected)  # the same record types too
        return got

    @pytest.mark.parametrize("dump", TestCommonLinePath.DUMPS)
    @pytest.mark.parametrize("zone", TestCommonLinePath.ZONES)
    def test_mutated_dumps(self, dump, zone):
        rng = random.Random(f"{dump}/{zone}")
        warned = 0
        for text in TestCommonLinePath().dumps(dump, rng):
            # A capture instant inside the mutated times' span, so that some
            # events fall outside the 24 h window and some inside.
            for capture in (CAPTURE, Timestamp(1683852960)):
                got = self.assert_alike(dump.removesuffix("_jsonl"), text, capture, zone)
                warned += bool(got and got[1])
        assert warned > 10

    @pytest.mark.parametrize("name", [*simulator.PRESETS, *(f"seed-{seed}" for seed in range(20))])
    def test_simulated_dumps(self, name):
        scenario = (simulator.PRESETS[name]() if name in simulator.PRESETS
                    else simulator.random_scenario(int(name.removeprefix("seed-"))))
        for duration in (3600, 1800):
            for texts in (simulator.render_dumps(scenario, duration), render_jsonl(scenario, duration)):
                for dump, text in zip(("usagestats", "netstats", "network_stack"), texts):
                    for capture in (scenario.capture_time, scenario.capture_time - 6 * 3600):
                        self.assert_alike(dump, text, Timestamp(max(capture, 0)), scenario.display_zone)

    # Each row form the JSON-lines patterns read, with its integer fields and
    # its string fields, whose values the edge cases below replace.
    EDGE_ROWS = {
        "usagestats": [(_EVENT, ("at",), ("package", "event_type")),
                       (_AGGREGATE, ("last_used", "use_count"), ("package", "window"))],
        "netstats": [(_BUCKET, ("st", "rb"), ("network_id",)),
                     ({**_BUCKET, "bucket_duration": 900}, ("st", "bucket_duration"), ("network_id",))],
    }
    # JSON texts of a value, by whether a field's pattern takes each; the
    # exceptions are the fields that take one otherwise: an epoch takes at
    # most 11 digits.
    INTEGER_EDGES = {"0": True, "9" * 19: True, "1" * 20: False, str(10**11 - 1): True, str(10**11): True,
                     str(evidence.MAX_EPOCH): True, str(evidence.MAX_EPOCH + 1): True, "0123": False, "-0": False,
                     "-1": False, "1.0": False, "1e3": False, "true": False, '"5"': False}
    STRING_EDGES = {r'"\u0041"': False, r'"x\"y"': False, r'"a\/b"': False, '"a\tb"': False, '"a\x7fb"': False,
                    '"é"': False, '""': True, '"month"': True, '"year"': True, '"day"': True, '"Week"': True}
    EDGE_EXCEPTIONS = {("bucket_duration", "0"): False, ("network_id", '""'): False, ("window", '""'): False,
                       ("window", '"day"'): False, ("window", '"Week"'): False,
                       **{(epoch, text): False for epoch in ("at", "last_used", "st") for text in
                          ("9" * 19, str(10**11), str(evidence.MAX_EPOCH), str(evidence.MAX_EPOCH + 1))}}

    @classmethod
    def edge_rows(cls, row, integers, strings):
        """(line, whether it is a common row) for the JSON-lines `row` with
        each integer and string field's value replaced by the JSON text of
        each edge case, and for the whole row in other forms. An aggregate
        row's pattern reads the stripped line, so a tab or "\\r" around it
        keeps it a common row."""
        line, stripped = json.dumps(row), row.get("record") == "aggregate"
        rows = [(line, True)]
        for fields, edges in ((integers, cls.INTEGER_EDGES), (strings, cls.STRING_EDGES)):
            for field in fields:
                rows += [(json.dumps({**row, field: "\0"}).replace(r'"\u0000"', text),
                          cls.EDGE_EXCEPTIONS.get((field, text), common)) for text, common in edges.items()]
        rows += [
            (line[:-1] + f', "{integers[0]}": 5}}', False),  # a repeated key
            (line[:-1] + ', "extra": 1}', False),
            (line[:-1] + ', "bucket_duration": 3600}', "network_id" in row and "bucket_duration" not in row),
            (json.dumps(dict(reversed(row.items()))), False),
            (json.dumps(row, separators=(",", ":")), False),
            (json.dumps({k: v for k, v in row.items() if k != strings[0]}), False),  # a missing field
            ("   " + line, True), ("\t" + line, stripped), (line + "\r", stripped), ("\ufeff" + line, False),
        ]
        return rows

    @pytest.mark.parametrize("dump", ["usagestats", "netstats"])
    def test_jsonl_rows_at_each_edge_of_the_common_row(self, dump, monkeypatch):
        rows = [edge for form in self.EDGE_ROWS[dump] for edge in self.edge_rows(*form)]
        text = "".join(line + "\n" for line, _ in rows)
        paths = TestCommonLinePath()
        assert paths.from_groups(dump + "_jsonl", text) == [common for _, common in rows] + [False]
        assert paths.TOKENIZE[dump + "_jsonl"](text, KST) == paths.per_line(dump + "_jsonl", text, KST, monkeypatch)
        parsed, warnings = self.assert_alike(dump, text, CAPTURE, KST)
        assert len(warnings) > 30
        if dump == "usagestats":
            assert len(parsed.events_24h) > 10 and len(parsed.aggregates) > 20
            assert {a.window for a in parsed.aggregates} == set(AggregateWindow)
        else:
            assert {3600, 900, 10**19 - 1} <= {r.bucket_duration for r in parsed} and len(parsed) > 30

    AGGREGATE_LINES = [
        'package=com.x lastTimeUsed="2023-05-10 09:00" totalCount=3',
        'package=com.x lastTimeUsed="2023-05-10 09:00" totalCount=0',
        'package=com.x  lastTimeUsed="2023-05-10 09:00" totalCount=3',
        'package=com.x lastTimeUsed="2023-05-10 09:00"  totalCount=3',
        'package=com.x\tlastTimeUsed="2023-05-10 09:00" totalCount=3',
        'package=com.x lastTimeUsed="2023-05-10  09:00" totalCount=3',
        'package=com.x lastTimeUsed="2023-05-10 09:00" totalCount=3 extra',
        'package=com.x lastTimeUsed="2023-05-10 09:00" totalCount=3x',
        'package=com.x lastTimeUsed="2023-05-10 09:00" totalCount=３',
        'package=com.x lastTimeUsed="2023-05-1０ 09:00" totalCount=3',
        'package=com.x lastTimeUsed="2023-02-30 09:00" totalCount=3',
        'package=com.x lastTimeUsed="2023-05-10 24:00" totalCount=3',
        'package=com.x lastTimeUsed="2023-05-10 09:60" totalCount=3',
        'package=com.x lastTimeUsed="2023-05-10 09:00:00" totalCount=3',
        'package=com.x lastTimeUsed="2023-03-12 02:30" totalCount=3',
        'package=com.x lastTimeUsed="9999-12-31 23:00" totalCount=3',
        'package=time= lastTimeUsed="2023-05-10 09:00" totalCount=3',
        'package=capture-time= lastTimeUsed="2023-05-10 09:00" totalCount=3',
        'package=time="x" lastTimeUsed="2023-05-10 09:00" totalCount=3',
        'package=com.x lastTimeUsed="2023-05-10 09:00" totalCount=3 time="2023-05-11 08:00:00" type=A package=p',
        'time="2023-05-11 08:00:00" type=A package=p package=com.x lastTimeUsed="2023-05-10 09:00" totalCount=3',
        'package=com.x lastTimeUsed="2023-05-10 09:00" totalCount=3 capture-time="2023-05-11 09:56:00"',
        'package=Weekly lastTimeUsed="2023-05-10 09:00" totalCount=3',
        'package=stats: lastTimeUsed="2023-05-10 09:00" totalCount=3',
        'package=com.x lastTimeUsed="2023-05-10 09:00" totalCount=3 stats:',
        'package=é lastTimeUsed="2023-05-10 09:00" totalCount=3',
        'Package=com.x lastTimeUsed="2023-05-10 09:00" totalCount=3',
        'package=com.x lastTimeUsed="2023-05-10 09:00" totalCount=' + "9" * 30,
    ]
    HEADERS = ["Last 24 hour events:", "Weekly stats:", "Monthly stats:", "Yearly stats:", "Daily stats:",
               "WEEKLY STATS:", "Weekly stats: extra"]

    @pytest.mark.parametrize("zone", TestCommonLinePath.ZONES)
    def test_aggregate_lines_in_and_out_of_the_strict_form(self, zone):
        strict = sum(1 for line in self.AGGREGATE_LINES if dumpsys._AGGREGATE_LINE.fullmatch(line))
        assert 10 < strict < len(self.AGGREGATE_LINES) - 10
        # Each line right under each header, and all of them in a row: a line
        # ending in "stats:" ends the window for the lines after it.
        texts = ["".join(f"{header}\n  {line}\n" for line in self.AGGREGATE_LINES) for header in self.HEADERS]
        texts += [header + "\n" + "".join(f"  {line}\n" for line in self.AGGREGATE_LINES)
                  for header in ("", *self.HEADERS)]
        kept = 0
        for text in texts:
            report, warnings = self.assert_alike("usagestats", text, CAPTURE, zone)
            kept += len(report.aggregates)
        assert kept > 50
