"""Command-line front door.

Subcommands compose the pipeline:

  acquire    collect dumps from a device (or canned transcripts) into a bundle
  parse      bundle -> structured JSON for the three dump sources
  correlate  bundle [+ host artifacts] -> findings JSON
  audit      manifests -> watch-policy verdicts
  generate   scenario -> synthetic bundle (+ host artifacts + ground truth)
  report     bundle [+ host artifacts] -> markdown/JSON report
  verify     bundle -> per-item integrity pass/fail

Exit codes gate automation: 0 success with nothing detected, 1 completed
with detections or failed integrity/policy, 2 usage or input errors.
Environment variables prefixed WATCHTRIAGE_ supply the defaults of the
matching flags (e.g. WATCHTRIAGE_DISPLAY_ZONE); a flag given on the command
line wins. The bucket duration and the zone that dump times are read in
come from the bundle itself, never from a flag.

Each call builds only the chosen subcommand's parser and imports only the
modules that command uses: `verify` never loads the parsers, correlation,
policy or simulator, which keeps one-shot calls on case-size bundles cheap.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

from . import acquisition
from .evidence import DEFAULT_DISPLAY_ZONE, DeviceProfile, SourceKind, verify_bundle, zone_name
from .host_artifacts import load_host_artifacts, locate_host_artifacts

ENV_PREFIX = "WATCHTRIAGE_"

EXIT_OK = 0
EXIT_DETECTIONS = 1
EXIT_USAGE = 2


def _env(name: str, fallback):
    return os.environ.get(ENV_PREFIX + name, fallback)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _write_output(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _load_bundle_or_fail(path_str: str) -> acquisition.AcquisitionResult:
    """The bundle with every item's raw file present; `verify` alone reads an incomplete one."""
    loaded = acquisition.read_bundle_dir(Path(path_str))
    missing = [key for key in (i.key() for i in loaded.bundle.items) if key not in loaded.payloads]
    if missing:
        raise FileNotFoundError(
            "bundle raw files missing for items: " + ", ".join(missing)
        )
    return loaded


def _payload_for(loaded: acquisition.AcquisitionResult, kind: SourceKind):
    for item in loaded.bundle.items:
        if item.source_kind == kind and item.key() in loaded.payloads:
            return item, loaded.payloads[item.key()]
    return None, None


def _parse_bundle(loaded: acquisition.AcquisitionResult):
    from . import correlate, dumpsys

    zone = loaded.display_zone
    warnings: list[str] = []

    item, raw = _payload_for(loaded, SourceKind.USAGESTATS)
    if raw is None:
        raise FileNotFoundError("bundle has no usagestats item")
    usage_report, w = dumpsys.parse_usagestats(
        raw.decode("utf-8", errors="replace"), item.collected_at, zone
    )
    warnings.extend(f"usagestats: {x}" for x in w)

    _, raw = _payload_for(loaded, SourceKind.NETSTATS)
    if raw is None:
        raise FileNotFoundError("bundle has no netstats item")
    records, w = dumpsys.parse_netstats(raw.decode("utf-8", errors="replace"))
    warnings.extend(f"netstats: {x}" for x in w)

    _, raw = _payload_for(loaded, SourceKind.NETWORK_STACK)
    if raw is None:
        raise FileNotFoundError("bundle has no network_stack item")
    lease_log, w = dumpsys.parse_network_stack(raw.decode("utf-8", errors="replace"), zone)
    warnings.extend(f"network_stack: {x}" for x in w)

    timeline = correlate.build_timeline(usage_report, records, lease_log)
    warnings.extend(timeline.warnings)
    return timeline, warnings


def _correlate_bundle(loaded, args):
    """Findings for a loaded bundle with the --rules and --host-artifacts of `args`."""
    from . import correlate, report

    rules = correlate.load_rules(Path(args.rules)) if args.rules else correlate.DEFAULT_RULES
    timeline, warnings = _parse_bundle(loaded)
    sessions = correlate.match_sessions(timeline)

    ftp_entries, kh_entries, host_items = [], [], []
    if args.host_artifacts:
        root = Path(args.host_artifacts)
        if not root.is_dir():
            raise FileNotFoundError(f"host artifacts directory not found: {root}")
        artifacts = load_host_artifacts(locate_host_artifacts(root))
        ftp_entries = artifacts.ftp_entries
        kh_entries = artifacts.known_host_entries
        host_items = artifacts.items
        warnings.extend(artifacts.warnings)

    findings = correlate.corroborate(sessions, ftp_entries, kh_entries, rules)
    findings = report.attach_evidence_digests(findings, loaded.bundle, host_items)
    return findings, timeline, warnings


def _slug(command: str) -> str:
    return re.sub(r"[^A-Za-z0-9.]+", "_", command)


def _unused_out(out: str) -> Path:
    """The --out directory of a command that writes a bundle. An existing
    non-empty one is refused, so no earlier run's files survive in it."""
    path = Path(out)
    if path.exists() and (not path.is_dir() or any(path.iterdir())):
        raise acquisition.AcquisitionError(f"output directory exists and is not empty: {path}")
    return path


def cmd_acquire(args) -> int:
    out = _unused_out(args.out)
    plan = acquisition.load_plan(Path(args.plan)) if args.plan else acquisition.default_plan()
    if args.transcripts:
        root = Path(args.transcripts)
        if not root.is_dir():
            return _fail(f"transcripts directory not found: {root}")
        transcripts = {}
        for command in [step.command for step in plan.steps] + ["date +%s"]:
            candidate = root / f"{_slug(command)}.txt"
            if candidate.is_file():
                transcripts[command] = candidate.read_bytes()
        executor = acquisition.FakeExecutor(transcripts)
    else:
        executor = acquisition.AdbShellExecutor(serial=args.serial, adb_path=args.adb_path)
    clock = acquisition.SteppingClock(args.clock_start) if args.clock_start else None
    result = acquisition.run_acquisition(
        executor, plan, clock, origin_label=args.origin, display_zone=args.display_zone
    )
    acquisition.write_bundle_dir(result, out)
    print(f"bundle sealed: {result.bundle.bundle_manifest_digest}")
    print(f"items: {len(result.bundle.items)}, failures: {len(result.failures)}")
    for failure in result.failures:
        print(f"  step failed: {failure.label}: {failure.detail}", file=sys.stderr)
    return EXIT_DETECTIONS if result.failures else EXIT_OK


def cmd_parse(args) -> int:
    from . import correlate

    loaded = _load_bundle_or_fail(args.bundle)
    timeline, warnings = _parse_bundle(loaded)
    doc = {
        "bundle_manifest_digest": loaded.bundle.bundle_manifest_digest,
        "usagestats": {
            "capture_time": timeline.report.capture_time.epoch,
            "events": [correlate.event_to_dict(e, loaded.display_zone) for e in timeline.report.events_24h],
            "aggregates": [
                {
                    "window": a.window.value,
                    "package": a.package,
                    "last_used": a.last_used.epoch,
                    "use_count": a.use_count,
                    "precision": a.last_used_precision,
                }
                for a in timeline.report.aggregates
            ],
        },
        "netstats": [
            {"network_id": r.network_id, "st": r.st.epoch, "rb": r.rb, "rp": r.rp, "tb": r.tb, "tp": r.tp}
            for r in timeline.records
        ],
        "network_stack": {
            "boot_epoch_marker": timeline.lease_log.boot_epoch_marker.epoch
            if timeline.lease_log.boot_epoch_marker
            else None,
            "leases": [
                {
                    "at": l.at.epoch,
                    "interface": l.interface,
                    "private_ip": l.private_ip,
                    "event_kind": l.event_kind.value,
                    "network_id": l.network_id,
                }
                for l in timeline.lease_log.leases
            ],
        },
        "warnings": warnings,
    }
    _write_output(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def cmd_correlate(args) -> int:
    from . import correlate

    loaded = _load_bundle_or_fail(args.bundle)
    findings, timeline, warnings = _correlate_bundle(loaded, args)
    doc = correlate.findings_document(
        findings, loaded.bundle.bundle_manifest_digest, timeline.bucket_duration, loaded.display_zone, warnings
    )
    _write_output(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return EXIT_DETECTIONS if findings else EXIT_OK


def cmd_audit(args) -> int:
    from . import policy

    device_abi = args.device_abi
    if args.bundle and not device_abi:
        loaded = _load_bundle_or_fail(args.bundle)
        if loaded.bundle.device:
            device_abi = loaded.bundle.device.cpu_abi
    manifests, failures = policy.load_inventory(Path(args.manifests))
    verdicts = policy.audit_inventory(manifests, DeviceProfile(cpu_abi=device_abi or ""))
    verdicts = sorted(verdicts + failures, key=lambda v: (v.severity, v.package))
    if args.format == "json":
        _write_output(
            json.dumps([policy.verdict_to_dict(v) for v in verdicts], indent=2, sort_keys=True) + "\n",
            args.out,
        )
    else:
        _write_output(policy.verdicts_table(verdicts), args.out)
    flagged = [v for v in verdicts if v.verdict != policy.VerdictKind.COMPLIANT]
    return EXIT_DETECTIONS if flagged else EXIT_OK


def cmd_generate(args) -> int:
    from . import simulator

    out = _unused_out(args.out)
    if args.preset:
        scenario = simulator.PRESETS[args.preset]()
    elif args.scenario:
        scenario_path = Path(args.scenario)
        if not scenario_path.is_file():
            return _fail(f"scenario file not found: {scenario_path}")
        scenario = simulator.load_scenario(scenario_path)
    else:
        scenario = simulator.random_scenario(args.seed)

    dumps = simulator.render_dumps(scenario, args.bucket_seconds)
    kinds = (SourceKind.USAGESTATS, SourceKind.NETSTATS, SourceKind.NETWORK_STACK)
    captured = [(kind.value, kind, text.encode(), scenario.capture_time) for kind, text in zip(kinds, dumps)]
    result = acquisition.seal_acquisition(captured, "synthetic", scenario.display_zone)
    acquisition.write_bundle_dir(result, out)
    (out / "scenario.json").write_text(
        json.dumps(simulator.scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n"
    )
    if scenario.host_side:
        host_dir = out / "host_artifacts"
        host_dir.mkdir(parents=True, exist_ok=True)
        filezilla_xml, known_hosts = simulator.render_host_artifacts(scenario)
        (host_dir / "recentservers.xml").write_text(filezilla_xml)
        if known_hosts:
            (host_dir / "known_hosts").write_text(known_hosts)
    print(f"synthetic bundle written to {out} (digest {result.bundle.bundle_manifest_digest})")
    return EXIT_OK


def cmd_report(args) -> int:
    from . import report

    loaded = _load_bundle_or_fail(args.bundle)
    findings, timeline, warnings = _correlate_bundle(loaded, args)
    doc = report.render_report(findings, loaded.bundle, timeline, args.display_zone, warnings)
    if args.format == "json":
        _write_output(json.dumps(doc.data, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _write_output(doc.to_markdown(), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    loaded = acquisition.read_bundle_dir(Path(args.bundle))
    result = verify_bundle(loaded.bundle, loaded.payloads)
    for item_result in result.results:
        print(f"{item_result.status.upper():8} {item_result.item_key}"
              + (f"  ({item_result.detail})" if item_result.detail else ""))
    print(f"manifest: {'PASS' if result.manifest_ok else 'FAIL'}")
    print(f"overall: {'PASS' if result.overall_pass else 'FAIL'}")
    return EXIT_OK if result.overall_pass else EXIT_DETECTIONS


def _add_common(p):
    p.add_argument("--bundle", required=True, help="bundle directory")
    p.add_argument("--out", help="write output to this file instead of stdout")


def _add_display_zone(p, help_text):
    # A string default goes through `type` only when the flag is absent,
    # so a bad environment value is rejected like a bad flag.
    p.add_argument(
        "--display-zone", type=zone_name, default=_env("DISPLAY_ZONE", DEFAULT_DISPLAY_ZONE), help=help_text
    )


def _acquire_options(p):
    p.add_argument("--serial", help="adb device serial (host:port for wireless)")
    p.add_argument("--adb-path", default=_env("ADB_PATH", "adb"), help="adb binary")
    p.add_argument("--transcripts", help="directory of canned command transcripts (offline mode)")
    p.add_argument("--plan", help="acquisition plan JSON (default: built-in volatility order)")
    p.add_argument("--origin", default="watch", help="origin label recorded on evidence items")
    _add_display_zone(p, "IANA zone recorded in the bundle for reading its dump times")
    p.add_argument("--clock-start", type=int, help="deterministic clock start (testing)")
    p.add_argument("--out", required=True, help="bundle output directory")


def _correlate_options(p):
    _add_common(p)
    p.add_argument("--host-artifacts", default=_env("HOST_ARTIFACTS", None),
                   help="directory of PC-side artifacts (recentservers.xml, known_hosts, ...)")
    p.add_argument("--rules", default=_env("RULES", None), help="pattern rules JSON file")


def _audit_options(p):
    p.add_argument("--manifests", required=True, help="directory of manifests or inventory JSON")
    p.add_argument("--device-abi", help="device CPU ABI (e.g. armeabi-v7a)")
    p.add_argument("--bundle", help="bundle directory to take the device ABI from")
    p.add_argument("--format", choices=["md", "json"], default=_env("FORMAT", "md"))
    p.add_argument("--out")


def _generate_options(p):
    from . import dumpsys, simulator

    group = p.add_mutually_exclusive_group()
    group.add_argument("--preset", choices=sorted(simulator.PRESETS), help="built-in scenario")
    group.add_argument("--scenario", help="scenario JSON file")
    p.add_argument("--seed", type=int, default=0, help="seed for a random scenario")
    p.add_argument(
        "--bucket-seconds",
        type=dumpsys.positive_seconds,
        default=dumpsys.DEFAULT_BUCKET_SECONDS,
        help="traffic bucket duration the netstats dump is rendered with (default 3600)",
    )
    p.add_argument("--out", required=True, help="output directory")


def _report_options(p):
    _add_common(p)
    _add_display_zone(p, "IANA zone for rendering timestamps")
    p.add_argument("--host-artifacts", default=_env("HOST_ARTIFACTS", None))
    p.add_argument("--rules", default=_env("RULES", None))
    p.add_argument("--format", choices=["md", "json"], default=_env("FORMAT", "md"))


def _verify_options(p):
    p.add_argument("--bundle", required=True)


# Subcommand -> (handler, help, function adding its options), in help order.
COMMANDS = {
    "acquire": (cmd_acquire, "collect evidence from a device into a bundle directory", _acquire_options),
    "parse": (cmd_parse, "parse a bundle's dumps into structured JSON", _add_common),
    "correlate": (cmd_correlate, "correlate a bundle into findings JSON", _correlate_options),
    "audit": (cmd_audit, "audit app manifests against the watch-only policy", _audit_options),
    "generate": (cmd_generate, "write a synthetic evidence bundle from a scenario", _generate_options),
    "report": (cmd_report, "render an investigator report from a bundle", _report_options),
    "verify": (cmd_verify, "verify bundle integrity (per-item pass/fail)", _verify_options),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with only `command`'s subparser, or with every
    subcommand's when `command` names none (for top-level help and errors)."""
    parser = argparse.ArgumentParser(
        prog="watchtriage",
        description="Forensic triage for Wear OS smartwatch dump evidence",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in COMMANDS else COMMANDS:
        handler, help_text, add_options = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_options(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (
        OSError,  # missing inputs and output paths the system refuses
        acquisition.AcquisitionError,
        ValueError,  # malformed dumps, rules, inventories, manifests and scenario values
    ) as exc:
        return _fail(str(exc))
    except KeyError as exc:
        return _fail(f"input file is missing a required field: {exc}")


if __name__ == "__main__":
    sys.exit(main())
