"""Seeded inputs for the benchmark: scenarios, manifest inventories and
acquisition transcripts, with the expectations each is checked against.

Everything here is derived from the seed alone. Expectations come from the
simulator's ground truth and its independent oracle, or are known by
construction (manifest verdicts), never from the code paths being timed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from watchtriage import acquisition, cli, simulator
from watchtriage.simulator import (
    CAMERA_PACKAGE,
    FTP_PACKAGE,
    SFTP_PACKAGE,
    AppSession,
    HostArtifactSpec,
    Scenario,
    WifiSession,
)

ZONE = "Asia/Seoul"  # the only zone simulator.random_scenario generates
CAPTURE = 1683809100  # 2023-05-11 21:45 KST, the paper's case-study dump time
HOUR = 3600
DAY = 86400

RANDOM_BUNDLES = 200
SCALED_DAYS = 30
REDUCED_DAYS = 10
SCALED_APP_SESSIONS = 1000
INVENTORY_APPS = 48
FILLER_PACKAGES = tuple(f"com.wearvendor{i:02d}.app" for i in range(47))
SSIDS = (
    "KT_GiGA_5G_EFB7",
    "outgoingowl",
    "F818026FNMEN",
    "CoffeeBeanGuest",
    "iptime2G",
    "OfficeNet-Sec",
    "SK_WiFiGIGA1",
    "U+NetA1B2",
)

DEVICE_ABI = "armeabi-v7a"
_EXECUTABLE_ON_DEVICE = {"armeabi-v7a", "armeabi"}
WATCH_FEATURE = "android.hardware.type.watch"


# --- casework -----------------------------------------------------------------


def casework_scenarios(seed: int) -> list[tuple[str, Scenario, list[str]]]:
    """The five presets plus RANDOM_BUNDLES seeded random scenarios.

    Returns (bundle id, scenario, `generate` arguments that write it).
    """
    out = [
        (f"preset-{name}", factory(), ["--preset", name])
        for name, factory in sorted(simulator.PRESETS.items())
    ]
    rng = random.Random(seed)
    for _ in range(RANDOM_BUNDLES):
        scenario_seed = rng.randrange(2**31)
        out.append(
            (f"random-{scenario_seed}", simulator.random_scenario(scenario_seed),
             ["--seed", str(scenario_seed)])
        )
    return out


def manifest_inventory(seed: int) -> list[tuple[str, str, str]]:
    """(file name, manifest text, expected verdict) for one watch's apps.

    A mix of decoded XML manifests and aapt badging dumps, plus one
    unparseable file. Verdicts follow from how each file is built: an APK
    whose native code cannot run on the 32-bit device is abi_incompatible,
    otherwise a missing watch feature means sideloaded_phone_app.
    """
    rng = random.Random(seed ^ 0x5EED)
    abi_choices = ((), ("armeabi-v7a",), ("arm64-v8a",), ("arm64-v8a", "armeabi-v7a"), ("armeabi",))
    out = []
    for i in range(INVENTORY_APPS):
        package = f"com.inventory{seed % 1000}.app{i:03d}"
        watch = rng.random() < 0.6
        if rng.random() < 0.5:
            abis: tuple[str, ...] = ()
            feature = (
                f'  <uses-feature android:name="{WATCH_FEATURE}" android:required="true"/>\n'
                if watch else ""
            )
            text = (
                '<?xml version="1.0" encoding="utf-8"?>\n'
                '<manifest xmlns:android="http://schemas.android.com/apk/res/android" '
                f'package="{package}" android:versionCode="{i + 1}">\n'
                '  <uses-permission android:name="android.permission.INTERNET"/>\n'
                f"{feature}"
                '  <application android:label="app"/>\n'
                "</manifest>\n"
            )
            name = f"{package}.xml"
        else:
            abis = rng.choice(abi_choices)
            lines = [
                f"package: name='{package}' versionCode='{i + 1}' versionName='1.{i}'",
                "sdkVersion:'30'",
                "uses-permission: name='android.permission.INTERNET'",
            ]
            if watch:
                lines.append(f"uses-feature: name='{WATCH_FEATURE}'")
            if abis:
                lines.append("native-code: " + " ".join(f"'{a}'" for a in abis))
            text = "\n".join(lines) + "\n"
            name = f"{package}.txt"
        if abis and not _EXECUTABLE_ON_DEVICE.intersection(abis):
            verdict = "abi_incompatible"
        elif not watch:
            verdict = "sideloaded_phone_app"
        else:
            verdict = "compliant"
        out.append((name, text, verdict))
    out.append(("zz-corrupt.xml", "<manifest package='broken'", "unknown"))
    return out


def write_inventory(directory: Path, inventory) -> dict[str, str]:
    """Write the manifest files; return the expected verdict per audit row key.

    The audit names a parsed manifest by its package and an unparseable one
    by its file name.
    """
    directory.mkdir(parents=True)
    expected = {}
    for name, text, verdict in inventory:
        (directory / name).write_text(text)
        key = name if verdict == "unknown" else name.rsplit(".", 1)[0]
        expected[key] = verdict
    return expected


# --- scaled / intake ------------------------------------------------------------


def scaled_scenario(seed: int, days: int = SCALED_DAYS) -> Scenario:
    """A month of a busy watch: sequential Wi-Fi, dense recent app use.

    Wi-Fi sessions are sequential and never overlap (a watch joins one
    network at a time), so two SSIDs share a traffic bucket only at a
    switch. The last day is three sessions on three SSIDs; an FTP, an SFTP
    and a camera incident hour fall wholly inside them, on the networks
    whose IPs the PC kept (FTP, SFTP) or did not (camera). One reboot lies
    inside the span.
    """
    rng = random.Random(seed)
    span_start = CAPTURE - days * DAY
    top = CAPTURE // HOUR * HOUR  # start of the capture's hour
    ips = {ssid: f"192.168.{16 * i + rng.randrange(16)}.{rng.randrange(2, 250)}"
           for i, ssid in enumerate(SSIDS)}
    ftp_net, sftp_net, camera_net = rng.sample(SSIDS, 3)

    def traffic(heavy: bool) -> tuple[int, int]:
        roll = rng.random()
        if heavy or roll < 0.5:
            return rng.randrange(20_000_000, 400_000_000), rng.randrange(1_000_000, 200_000_000)
        if roll < 0.8:
            return rng.randrange(0, 5_000_000), rng.randrange(0, 5_000_000)
        return 0, 0

    wifi: list[WifiSession] = []
    recent_start = top - 23 * HOUR + rng.randrange(0, 600)
    t = span_start + rng.randrange(0, HOUR)
    previous = None
    while True:
        length = rng.randrange(HOUR, 14 * HOUR)
        end = t + length
        if end >= recent_start - HOUR:
            break
        ssid = rng.choice([s for s in SSIDS if s != previous])
        wifi.append(WifiSession(ssid, t, end, *traffic(False), ips[ssid]))
        previous = ssid
        t = end if rng.random() < 0.5 else end + rng.randrange(600, 3 * HOUR)
    # The last day: ftp_net, then sftp_net, then camera_net up to the capture.
    bounds = (recent_start, top - 15 * HOUR + rng.randrange(0, 900),
              top - 7 * HOUR + rng.randrange(0, 900), CAPTURE - 60)
    for ssid, start, end in zip((ftp_net, sftp_net, camera_net), bounds, bounds[1:]):
        wifi.append(WifiSession(ssid, start, end, *traffic(True), ips[ssid]))
    incidents = {
        top - 20 * HOUR: FTP_PACKAGE,  # inside the ftp_net session
        top - 11 * HOUR: SFTP_PACKAGE,  # inside the sftp_net session
        top - 4 * HOUR: CAMERA_PACKAGE,  # inside the camera_net session
    }

    apps: list[AppSession] = []
    first = CAPTURE - DAY + 120
    spacing = (CAPTURE - 120 - first) / SCALED_APP_SESSIONS
    for i in range(SCALED_APP_SESSIONS):
        start = first + int(i * spacing) + rng.randrange(0, max(1, int(spacing) // 3))
        end = start + rng.randrange(3, max(4, int(spacing) // 2))
        package = rng.choice(FILLER_PACKAGES)
        marker = incidents.get(start // HOUR * HOUR)
        if marker and i % 6 == 0:
            package = marker
        apps.append(AppSession(package, start, end))

    reboot = span_start + int(0.55 * days * DAY) + rng.randrange(0, HOUR)
    return Scenario(
        capture_time=CAPTURE,
        app_sessions=tuple(apps),
        wifi_sessions=tuple(wifi),
        reboots=(reboot,),
        host_side=(
            HostArtifactSpec("recentservers", ips[ftp_net], 2221, "ftp"),
            HostArtifactSpec("known_hosts", ips[sftp_net], 2222),
        ),
        display_zone=ZONE,
        leases_carry_ssid=True,
    )


def write_scenario(path: Path, scenario: Scenario):
    path.write_text(json.dumps(simulator.scenario_to_dict(scenario)) + "\n")


def jsonl_dumps(s: Scenario) -> dict[str, str]:
    """The scenario's three dumps in the JSON-lines form of docs/fixture-grammar.md."""
    dumps = lambda rows: "".join(json.dumps(r) + "\n" for r in rows)  # noqa: E731
    usage = [{"record": "capture", "at": s.capture_time}]
    usage += [{"record": "event", "at": t, "package": pkg, "event_type": typ}
              for pkg, typ, t in simulator.ground_truth_events(s)]
    usage += [{"record": "aggregate", "window": w, "package": pkg, "last_used": last, "use_count": n}
              for w, pkg, last, n in simulator.ground_truth_aggregates(s)]
    net = [{"network_id": ssid, "st": st, "rb": rb, "rp": rp, "tb": tb, "tp": tp}
           for ssid, st, rb, rp, tb, tp in simulator.ground_truth_records(s)]
    stack = []
    boot = simulator.last_reboot_before_capture(s)
    if boot is not None:
        stack.append({"record": "boot", "at": boot})
    stack += [{"record": "lease", "at": at, "interface": "wlan0", "event_kind": "dhcp_ack",
               "private_ip": ip, "network_id": ssid}
              for at, ip, ssid in simulator.ground_truth_leases(s)]
    return {"usagestats": dumps(usage), "netstats": dumps(net), "network_stack": dumps(stack)}


def write_transcripts(directory: Path, s: Scenario) -> int:
    """Write a complete offline acquisition; return the dump line count.

    One file per default-plan command, plus `date +%s` for the clock-offset
    probe, under the name `acquire --transcripts` looks up (cli._slug).
    """
    directory.mkdir(parents=True)
    texts = jsonl_dumps(s)
    lines = sum(text.count("\n") for text in texts.values())
    texts.update(android_version="11\n", cpu_abi=DEVICE_ABI + "\n", model="SM-R890\n",
                 host_name="galaxy-watch4\n", date=f"{s.capture_time}\n")
    commands = {step.label: step.command for step in acquisition.default_plan().steps}
    commands["date"] = "date +%s"
    for label, command in commands.items():
        (directory / f"{cli._slug(command)}.txt").write_text(texts[label])
    return lines


def ground_truth_counts(s: Scenario) -> dict:
    """What `parse` must report for the scenario's dumps."""
    per_network: dict[str, list[int]] = {}
    for w in s.wifi_sessions:
        totals = per_network.setdefault(w.ssid, [0, 0])
        totals[0] += w.bytes_in
        totals[1] += w.bytes_out
    return {
        "events": len(simulator.ground_truth_events(s)),
        "aggregates": len(simulator.ground_truth_aggregates(s)),
        "netstats": len(simulator.ground_truth_records(s)),
        "leases": len(simulator.ground_truth_leases(s)),
        "boot": simulator.last_reboot_before_capture(s),
        "bytes_per_network": per_network,
    }


# --- findings ------------------------------------------------------------------


def fingerprints_from_document(doc: dict) -> list[tuple]:
    """The findings JSON in simulator.finding_fingerprint's canonical form."""
    out = []
    for f in doc["findings"]:
        sess = f["session"]
        corroboration = sorted(
            ("ftp_client" if c["kind"] == "ftp_client_entry" else "known_host", c["host"], c["port"])
            for c in f["host_corroboration"]
        )
        out.append((
            f["pattern"],
            f["confidence"],
            tuple(sorted(sess["ambiguity_flags"])),
            tuple(sess["packages"]),
            f["bytes_in"],
            f["bytes_out"],
            tuple(sorted((b["network_id"], b["st"], b["rb"], b["rp"], b["tb"], b["tp"])
                         for b in sess["buckets"])),
            tuple(sorted(sess["resolved_ips"])),
            tuple(corroboration),
        ))
    return sorted(out)
