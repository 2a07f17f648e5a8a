import json

import pytest

from watchtriage import correlate, dumpsys, host_artifacts, simulator
from watchtriage.evidence import Timestamp


def run_pipeline(scenario, with_host=True, rules=correlate.DEFAULT_RULES, bucket_seconds=3600):
    """Render a scenario (netstats with `bucket_seconds` buckets), parse it
    back, correlate, and return all stages."""
    usagestats, netstats, network_stack = simulator.render_dumps(scenario, bucket_seconds)
    report, w1 = dumpsys.parse_usagestats(
        usagestats, Timestamp(scenario.capture_time), scenario.display_zone
    )
    records, w2 = dumpsys.parse_netstats(netstats)
    lease_log, w3 = dumpsys.parse_network_stack(network_stack, scenario.display_zone)
    timeline = correlate.build_timeline(report, records, lease_log)
    sessions = correlate.match_sessions(timeline)
    ftp_entries, kh_entries = [], []
    if with_host:
        filezilla_xml, known_hosts = simulator.render_host_artifacts(scenario)
        ftp_entries, _ = host_artifacts.parse_filezilla(filezilla_xml)
        kh_entries, _ = host_artifacts.parse_known_hosts(known_hosts)
    findings = correlate.corroborate(sessions, ftp_entries, kh_entries, rules)
    return {
        "report": report,
        "records": records,
        "lease_log": lease_log,
        "timeline": timeline,
        "sessions": sessions,
        "findings": findings,
        "warnings": w1 + w2 + w3,
    }


@pytest.fixture
def pipeline():
    return run_pipeline


def run_bucket_join(st, duration, probe_epochs):
    """Correlate one traffic bucket [st, st+duration), its duration stated
    only in the dump, with one app event and one SSID-less lease at each of
    probe_epochs; return the bucket, the event epochs that joined it and the
    lease epochs whose IPs it resolved."""
    def dump(rows):
        return "".join(json.dumps(row) + "\n" for row in rows)

    capture = Timestamp(max([st + duration, *probe_epochs]) + 1)
    usage = [{"record": "event", "at": at, "package": f"app.at{at}", "event_type": "ACTIVITY_RESUMED"}
              for at in probe_epochs]
    net = [{"network_id": "net", "st": st, "rb": 1, "rp": 1, "tb": 1, "tp": 1, "bucket_duration": duration}]
    leases = [{"record": "lease", "at": at, "interface": "wlan0", "event_kind": "dhcp_ack",
               "private_ip": f"10.0.{k // 250}.{k % 250 + 1}", "network_id": None}
              for k, at in enumerate(probe_epochs)]
    report, _ = dumpsys.parse_usagestats(dump(usage), capture, "UTC")
    records, _ = dumpsys.parse_netstats(dump(net))
    lease_log, _ = dumpsys.parse_network_stack(dump(leases), "UTC")
    timeline = correlate.build_timeline(report, records, lease_log)
    assert timeline.bucket_duration == duration
    (session,) = correlate.match_sessions(timeline)
    return (
        session.buckets[0],
        [e.at.epoch for e in session.app_events],
        [lease.at.epoch for lease in session.resolved_leases],
    )


@pytest.fixture
def bucket_join():
    return run_bucket_join
