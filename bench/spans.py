"""Span recording around the calls the CLI makes into each module.

Each wrapper replaces a module attribute that `watchtriage.cli` looks up at
call time (for example `watchtriage.cli.verify_bundle`), records one span
per call and, where the layer does countable work, adds to its counters.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    bundle: str
    child_time: float = 0.0

    @property
    def self_time(self) -> float:
        # Calls are nested and sequential in this one-threaded process, so
        # the children's durations never overlap and their sum is the part
        # of this span they cover.
        return self.end - self.start - self.child_time


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.bundle = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, layer: str, count=None):
        """Replace owner.attr by a span-recording wrapper until restore()."""
        inner = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(Span(layer, 0.0, 0.0, stack[-1] if stack else -1, self.bundle))
            stack.append(index)
            spans[index].start = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = spans[index]
                span.end = end
                if span.parent >= 0:
                    spans[span.parent].child_time += end - span.start
            if count is not None:
                count(self.counts, result, *args, **kwargs)
            return result

        self._patched.append((owner, attr, inner))
        setattr(owner, attr, traced)

    def restore(self):
        for owner, attr, inner in reversed(self._patched):
            setattr(owner, attr, inner)
        self._patched.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def self_times(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.self_time
        return totals


def _count_dump(counts, result, text, *args, **kwargs):
    parsed, warnings = result
    if isinstance(parsed, list):  # netstats records
        records = len(parsed)
    elif hasattr(parsed, "leases"):
        records = len(parsed.leases)
    else:
        records = len(parsed.events_24h) + len(parsed.aggregates)
    counts["dumpsys.lines_in"] += text.count("\n")
    counts["dumpsys.records_out"] += records
    counts["dumpsys.lines_dropped"] += len(warnings)


def _count_match(counts, sessions, timeline, *args, **kwargs):
    counts["correlate.records"] += len(timeline.records)
    counts["correlate.events"] += len(timeline.report.events_24h)
    counts["correlate.sessions"] += len(sessions)


def _count_findings(counts, findings, *args, **kwargs):
    counts["correlate.findings"] += len(findings)


def _count_timeline_rows(counts, doc, *args, **kwargs):
    counts["report.timeline_rows"] += len(doc.timeline_rows)


def _count_hashed(counts, result, bundle, stored_bytes, *args, **kwargs):
    counts["evidence.bytes_hashed"] += sum(len(v) for v in stored_bytes.values())


def _count_host_entries(counts, artifacts, *args, **kwargs):
    counts["host_artifacts.entries"] += len(artifacts.ftp_entries) + len(artifacts.known_host_entries)


def _count_manifests(counts, result, *args, **kwargs):
    manifests, failures = result
    counts["policy.manifests"] += len(manifests) + len(failures)


def instrument(tracer: Tracer):
    """Wrap every layer entry point the CLI calls; tracer.restore() undoes it."""
    from watchtriage import acquisition, cli, correlate, dumpsys, policy, report, simulator

    tracer.wrap(cli, "main", "cli")
    tracer.wrap(acquisition, "run_acquisition", "acquisition.run")
    tracer.wrap(acquisition, "write_bundle_dir", "acquisition.write_bundle")
    tracer.wrap(acquisition, "read_bundle_dir", "acquisition.read_bundle")
    tracer.wrap(cli, "verify_bundle", "evidence.verify", _count_hashed)
    tracer.wrap(dumpsys, "parse_usagestats", "dumpsys.usagestats", _count_dump)
    tracer.wrap(dumpsys, "parse_netstats", "dumpsys.netstats", _count_dump)
    tracer.wrap(dumpsys, "parse_network_stack", "dumpsys.network_stack", _count_dump)
    tracer.wrap(correlate, "build_timeline", "correlate.timeline")
    tracer.wrap(correlate, "match_sessions", "correlate.match", _count_match)
    tracer.wrap(correlate, "corroborate", "correlate.corroborate", _count_findings)
    tracer.wrap(correlate, "findings_document", "correlate.document")
    tracer.wrap(cli, "locate_host_artifacts", "host_artifacts.load")
    tracer.wrap(cli, "load_host_artifacts", "host_artifacts.load", _count_host_entries)
    tracer.wrap(report, "attach_evidence_digests", "report.digests")
    tracer.wrap(report, "render_report", "report.render", _count_timeline_rows)
    tracer.wrap(report.ReportDocument, "to_markdown", "report.markdown")
    tracer.wrap(policy, "load_inventory", "policy.load", _count_manifests)
    tracer.wrap(policy, "audit_inventory", "policy.audit")
    tracer.wrap(simulator, "render_dumps", "simulator.render")
    tracer.wrap(simulator, "render_host_artifacts", "simulator.render")
    tracer.wrap(simulator, "oracle_findings", "simulator.oracle")


# Per-layer metric -> (span name or counter, unit). Time metrics are self
# seconds per bundle taken through the workload's commands; set-up layers
# are per set-up.
LAYER_TIMES = {
    "correlate.match_s": "correlate.match",
    "correlate.timeline_s": "correlate.timeline",
    "correlate.corroborate_s": "correlate.corroborate",
    "correlate.document_s": "correlate.document",
    "dumpsys.usagestats_s": "dumpsys.usagestats",
    "dumpsys.netstats_s": "dumpsys.netstats",
    "dumpsys.network_stack_s": "dumpsys.network_stack",
    "report.digests_s": "report.digests",
    "report.render_s": "report.render",
    "report.markdown_s": "report.markdown",
    "acquisition.run_s": "acquisition.run",
    "acquisition.write_bundle_s": "acquisition.write_bundle",
    "acquisition.read_bundle_s": "acquisition.read_bundle",
    "evidence.verify_s": "evidence.verify",
    "host_artifacts.load_s": "host_artifacts.load",
    "policy.load_s": "policy.load",
    "policy.audit_s": "policy.audit",
    "cli.self_s": "cli",
}
SETUP_TIMES = {
    "simulator.render_s": "simulator.render",
    "simulator.oracle_s": "simulator.oracle",
}
LAYER_COUNTS = (
    "correlate.records",
    "correlate.events",
    "correlate.sessions",
    "correlate.findings",
    "dumpsys.lines_in",
    "dumpsys.records_out",
    "dumpsys.lines_dropped",
    "report.timeline_rows",
    "evidence.bytes_hashed",
    "host_artifacts.entries",
    "policy.manifests",
)
