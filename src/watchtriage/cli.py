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
with detections or failed integrity/policy, 2 usage or input errors. An
input is rejected by raising ValueError (malformed) or OSError (missing or
unusable), and `main` turns exactly those two into exit 2.
Only the command line configures a run: no shell variable is read, and
every flag's default is a constant. The bucket duration and the zone that
dump times are read in come from the bundle itself, never from a flag.

A named command gets one parser of its own, `watchtriage <command>`, which
reads the words after the name; only a call naming no known command (top-level
help, a missing or unknown command) builds the parser with every subcommand.
Each call imports only the modules its command uses: `verify` never loads the
parsers, correlation, policy, simulator or an XML reader, which keeps one-shot
calls on case-size bundles cheap.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from . import acquisition
from .evidence import (
    DEFAULT_DISPLAY_ZONE, MAX_DIGITS, MAX_EPOCH, DeviceProfile, EvidenceBundle, SourceKind, document_text, seal_bundle,
    verify_bundle, zone_name,
)
from .host_artifacts import HostArtifacts, load_host_artifacts, locate_host_artifacts

EXIT_OK = 0
EXIT_DETECTIONS = 1
EXIT_USAGE = 2


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _write_output(text: str, out: str | None):
    """Write `text` to the file `out`, or to stdout ending in a newline,
    as UTF-8 whatever the locale."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
        return
    if not text.endswith("\n"):
        text += "\n"
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:  # a text-only stream such as io.StringIO takes the text itself
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    buffer.write(text.encode("utf-8"))
    buffer.flush()


def _load_bundle_or_fail(path_str: str) -> EvidenceBundle:
    """The bundle with every item's raw file present; `verify` alone reads an incomplete one."""
    loaded = acquisition.read_bundle_dir(Path(path_str))
    missing = [key for key in (i.key() for i in loaded.items) if key not in loaded.payloads]
    if missing:
        raise FileNotFoundError("bundle raw files missing for items: " + ", ".join(missing))
    return loaded


def _correlate_bundle(loaded, args):
    """Findings for a loaded bundle with the --rules and --host-artifacts of `args`."""
    from . import correlate, report

    rules = correlate.load_rules(Path(args.rules)) if args.rules else correlate.DEFAULT_RULES
    timeline, warnings = correlate.read_timeline(loaded)
    sessions = correlate.match_sessions(timeline)

    artifacts = HostArtifacts([], [], [], [])
    if args.host_artifacts:
        artifacts = load_host_artifacts(locate_host_artifacts(Path(args.host_artifacts)))
        warnings.extend(artifacts.warnings)

    findings = correlate.corroborate(sessions, artifacts.ftp_entries, artifacts.known_host_entries, rules)
    findings = report.attach_evidence_digests(findings, loaded, artifacts.items)
    return findings, timeline, warnings


def _slug(command: str) -> str:
    return re.sub(r"[^A-Za-z0-9.]+", "_", command)


def _unused_out(out: str) -> Path:
    """The --out directory of a command that writes a bundle. An existing
    non-empty one is refused, so no earlier run's files survive in it."""
    path = Path(out)
    if path.exists() and (not path.is_dir() or any(path.iterdir())):
        raise FileExistsError(f"output directory exists and is not empty: {path}")
    return path


def cmd_acquire(args) -> int:
    out = _unused_out(args.out)
    plan = acquisition.load_plan(Path(args.plan)) if args.plan else acquisition.default_plan()
    steps = len(plan.steps)
    if args.clock_start is not None and args.clock_start + steps - 1 > MAX_EPOCH:
        return _fail(f"--clock-start: must be <= {MAX_EPOCH - steps + 1} for {steps} plan steps stamped "
                     f"one second apart, got {args.clock_start}")
    if args.transcripts:
        root = Path(args.transcripts)
        if not root.is_dir():
            return _fail(f"transcripts directory not found: {root}")
        transcripts = {}
        for step in plan.steps:
            candidate = root / f"{_slug(step.command)}.txt"
            if candidate.is_file():
                transcripts[step.command] = candidate.read_bytes()
        executor = acquisition.FakeExecutor(transcripts)
    else:
        executor = acquisition.AdbShellExecutor(serial=args.serial, adb_path=args.adb_path)
    clock = (lambda: args.clock_start) if args.clock_start is not None else None
    bundle = acquisition.run_acquisition(
        executor, plan, clock, origin_label=args.origin, display_zone=args.display_zone
    )
    acquisition.write_bundle_dir(bundle, out)
    print(f"bundle sealed: {bundle.bundle_manifest_digest}")
    print(f"items: {len(bundle.items)}, failures: {len(bundle.failures)}")
    for failure in bundle.failures:
        print(f"  step failed: {failure.label}: {failure.detail}", file=sys.stderr)
    return EXIT_DETECTIONS if bundle.failures else EXIT_OK


def cmd_parse(args) -> int:
    from . import correlate

    loaded = _load_bundle_or_fail(args.bundle)
    timeline, warnings = correlate.read_timeline(loaded)
    doc = correlate.parse_document(timeline, loaded.bundle_manifest_digest, loaded.display_zone, warnings)
    _write_output(document_text(doc), args.out)
    return EXIT_OK


def cmd_correlate(args) -> int:
    from . import correlate

    loaded = _load_bundle_or_fail(args.bundle)
    findings, timeline, warnings = _correlate_bundle(loaded, args)
    doc = correlate.findings_document(
        findings, loaded.bundle_manifest_digest, timeline.bucket_duration, loaded.display_zone, warnings
    )
    _write_output(document_text(doc), args.out)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return EXIT_DETECTIONS if findings else EXIT_OK


def cmd_audit(args) -> int:
    from . import policy

    device_abi = args.device_abi
    if args.bundle and not device_abi:
        loaded = _load_bundle_or_fail(args.bundle)
        if loaded.device:
            device_abi = loaded.device.cpu_abi
    manifests, failures = policy.load_inventory(Path(args.manifests))
    verdicts = policy.audit_inventory(manifests, DeviceProfile(cpu_abi=device_abi or ""))
    verdicts = sorted(verdicts + failures, key=lambda v: (v.severity, v.package))
    if args.format == "json":
        _write_output(document_text([policy.verdict_to_dict(v) for v in verdicts]), args.out)
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
    bundle = seal_bundle(captured, "synthetic", scenario.display_zone)
    acquisition.write_bundle_dir(bundle, out)
    (out / "scenario.json").write_text(document_text(simulator.scenario_to_dict(scenario)), encoding="utf-8")
    if scenario.host_side:
        host_dir = out / "host_artifacts"
        host_dir.mkdir(parents=True, exist_ok=True)
        filezilla_xml, known_hosts = simulator.render_host_artifacts(scenario)
        (host_dir / "recentservers.xml").write_text(filezilla_xml, encoding="utf-8")
        if known_hosts:
            (host_dir / "known_hosts").write_text(known_hosts, encoding="utf-8")
    print(f"synthetic bundle written to {out} (digest {bundle.bundle_manifest_digest})")
    return EXIT_OK


def cmd_report(args) -> int:
    from . import report

    loaded = _load_bundle_or_fail(args.bundle)
    findings, timeline, warnings = _correlate_bundle(loaded, args)
    doc = report.render_report(findings, loaded, timeline, args.display_zone, warnings)
    if args.format == "json":
        _write_output(document_text(doc.data), args.out)
    else:
        _write_output(doc.to_markdown(), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    loaded = acquisition.read_bundle_dir(Path(args.bundle))
    result = verify_bundle(loaded, loaded.payloads)
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
    p.add_argument("--display-zone", type=zone_name, default=DEFAULT_DISPLAY_ZONE, help=help_text)


def _integer(value: str) -> int:
    """An integer flag: an optional `-` and 1 to MAX_DIGITS ASCII digits,
    checked before `int` reads it, so the interpreter's digit limit never
    changes what a flag gives or how it is refused."""
    if not re.fullmatch(f"-?[0-9]{{1,{MAX_DIGITS}}}", value):
        raise ValueError(value)  # argparse: "invalid <type's name> value"
    return int(value)


def _clock_start(value: str) -> int:
    start = _integer(value)
    if start < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    if start > MAX_EPOCH:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_EPOCH}, got {value}")
    return start


def _acquire_options(p):
    p.add_argument("--serial", help="adb device serial (host:port for wireless)")
    p.add_argument("--adb-path", default="adb", help="adb binary")
    p.add_argument("--transcripts", help="directory of canned command transcripts (offline mode)")
    p.add_argument("--plan", help="acquisition plan JSON (default: built-in volatility order)")
    p.add_argument("--origin", default="watch", help="origin label recorded on evidence items")
    _add_display_zone(p, "IANA zone recorded in the bundle for reading its dump times")
    p.add_argument("--clock-start", type=_clock_start, help="deterministic clock start (testing)")
    p.add_argument("--out", required=True, help="bundle output directory")


def _correlate_options(p):
    _add_common(p)
    p.add_argument("--host-artifacts", help="directory of PC-side artifacts (recentservers.xml, known_hosts, ...)")
    p.add_argument("--rules", help="pattern rules JSON file")


def _audit_options(p):
    p.add_argument("--manifests", required=True, help="directory of manifests or inventory JSON")
    p.add_argument("--device-abi", help="device CPU ABI (e.g. armeabi-v7a)")
    p.add_argument("--bundle", help="bundle directory to take the device ABI from")
    p.add_argument("--format", choices=["md", "json"], default="md")
    p.add_argument("--out")


def _generate_options(p):
    from . import dumpsys, simulator

    group = p.add_mutually_exclusive_group()
    group.add_argument("--preset", choices=sorted(simulator.PRESETS), help="built-in scenario")
    group.add_argument("--scenario", help="scenario JSON file")
    p.add_argument("--seed", type=_integer, default=0, help="seed for a random scenario")
    p.add_argument(
        "--bucket-seconds",
        type=dumpsys.positive_seconds,
        default=dumpsys.DEFAULT_BUCKET_SECONDS,
        help="traffic bucket duration the netstats dump is rendered with (default 3600)",
    )
    p.add_argument("--out", required=True, help="output directory")


def _report_options(p):
    _correlate_options(p)
    _add_display_zone(p, "IANA zone for rendering timestamps")
    p.add_argument("--format", choices=["md", "json"], default="md")


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


def _command_parser(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    handler, _help, add_options = COMMANDS[command]
    add_options(parser)
    parser.set_defaults(func=handler, command=command)
    return parser


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of `command` alone, which reads the words after it, or the
    parser with every subcommand's when `command` names none (for top-level
    help and errors)."""
    if command in COMMANDS:
        return _command_parser(argparse.ArgumentParser(prog=f"watchtriage {command}"), command)
    parser = argparse.ArgumentParser(
        prog="watchtriage",
        description="Forensic triage for Wear OS smartwatch dump evidence",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_handler, help_text, _add_options) in COMMANDS.items():
        _command_parser(sub.add_parser(name, help=help_text), name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        args = build_parser(argv[0]).parse_args(argv[1:])
    else:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # a missing or unusable file or tool; malformed input
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
