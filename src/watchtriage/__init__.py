"""watchtriage: forensic triage for Wear OS smartwatch evidence.

Parses ADB dumpsys outputs (usagestats, netstats, network_stack) and PC-side
connection artifacts (FileZilla XML, OpenSSH known_hosts), correlates them
into confidence-graded exfiltration findings, audits installed apps against
a watch-only policy, and keeps every raw payload in a tamper-evident bundle.
"""

from .correlate import (
    AmbiguityFlag,
    AppNetworkSession,
    Confidence,
    Finding,
    FindingPattern,
    PatternRule,
    build_timeline,
    corroborate,
    grade_volume,
    match_sessions,
)
from .dumpsys import (
    LeaseEvent,
    NetUsageRecord,
    NetworkStackLog,
    UsageAggregate,
    UsageEvent,
    UsageReport,
    parse_netstats,
    parse_network_stack,
    parse_usagestats,
)
from .evidence import (
    DeviceProfile,
    EvidenceBundle,
    EvidenceItem,
    SourceKind,
    Timestamp,
    seal_bundle,
    verify_bundle,
)
from .host_artifacts import FtpServerEntry, KnownHostEntry, parse_filezilla, parse_known_hosts
from .policy import ManifestInfo, PolicyVerdict, audit_inventory, check_abi, parse_manifest

__version__ = "0.1.0"

__all__ = [
    "AmbiguityFlag",
    "AppNetworkSession",
    "Confidence",
    "DeviceProfile",
    "EvidenceBundle",
    "EvidenceItem",
    "Finding",
    "FindingPattern",
    "FtpServerEntry",
    "KnownHostEntry",
    "LeaseEvent",
    "ManifestInfo",
    "NetUsageRecord",
    "NetworkStackLog",
    "PatternRule",
    "PolicyVerdict",
    "SourceKind",
    "Timestamp",
    "UsageAggregate",
    "UsageEvent",
    "UsageReport",
    "audit_inventory",
    "build_timeline",
    "check_abi",
    "corroborate",
    "grade_volume",
    "match_sessions",
    "parse_filezilla",
    "parse_known_hosts",
    "parse_manifest",
    "parse_netstats",
    "parse_network_stack",
    "parse_usagestats",
    "seal_bundle",
    "verify_bundle",
]
