"""watchtriage: forensic triage for Wear OS smartwatch evidence.

Parses ADB dumpsys outputs (usagestats, netstats, network_stack) and PC-side
connection artifacts (FileZilla XML, OpenSSH known_hosts), correlates them
into confidence-graded exfiltration findings, audits installed apps against
a watch-only policy, and keeps every raw payload in a tamper-evident bundle.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the module that defines it. Names are imported on first
# use, so `import watchtriage.cli` loads only what a command needs.
_EXPORTS = {
    "correlate": ("AmbiguityFlag", "AppNetworkSession", "Confidence", "Finding", "FindingPattern",
                  "PatternRule", "build_timeline", "corroborate", "grade_volume", "match_sessions"),
    "dumpsys": ("LeaseEvent", "NetUsageRecord", "NetworkStackLog", "UsageAggregate", "UsageEvent",
                "UsageReport", "parse_netstats", "parse_network_stack", "parse_usagestats"),
    "evidence": ("DeviceProfile", "EvidenceBundle", "EvidenceItem", "SourceKind", "Timestamp",
                 "seal_bundle", "verify_bundle"),
    "host_artifacts": ("FtpServerEntry", "KnownHostEntry", "parse_filezilla", "parse_known_hosts"),
    "policy": ("ManifestInfo", "PolicyVerdict", "audit_inventory", "check_abi", "parse_manifest"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
