#!/usr/bin/env python3
"""watchtriage benchmark: one investigator triaging generated evidence.

    python3 bench/run.py --workload casework|scaled|intake --seed N \
        --seconds S --trace 0|1

A closed loop with one client: each command waits for the previous one,
and only one process is busy at any time. Set-up generates the workload's
bundles, host artifacts, manifest inventory or acquisition transcripts from
the seed, together with the expectation every output is checked against.
The timed phase then runs the real commands for `--seconds` seconds:
`watchtriage.cli.main(argv)` in process (in bench/worker.py), interleaved
with `python -m watchtriage.cli` subprocesses (started by bench/spawner.py).
Every time is rescaled to a reference speed by timing a fixed piece of work
next to it, because the shared host's speed drifts (Bench.calibrate).

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics from a
traced phase, plus the tracing overhead against an untraced phase of the
same run. The lines above it give every metric with its unit and sample
count, the findings digest and each failure with its cause.
See bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUPS = 3  # set-ups per run; setup_s is their median
# The reference work's wall time on an unloaded core of a 2-vCPU x86-64
# virtual machine (Python 3.11). Timed seconds are rescaled to that speed.
REFERENCE_S = 0.0105
CALIBRATE_EVERY = 0.1  # seconds of wall time between two timings of the reference
SETUP_REFERENCES = 5  # reference timings before and after each set-up
CLI_SHARE = 0.3  # share of the timed phase's wall time spent in CLI subprocesses
IMPORT_RUNS = 5
DUMPS = ("usagestats", "netstats", "network_stack")


def reference_work():
    """A fixed piece of pure-Python work, about 10 ms: the host's speed gauge.

    It runs in the benchmark's own process, so nothing the program under
    test does can change it.
    """
    counts: dict[int, int] = {}
    for i in range(60_000):
        counts[i % 997] = counts.get(i % 997, 0) + i * i
    return sorted(str(x) for x in range(20_000))


def percentile_95(values):
    """p95, or None unless at least ten samples lie beyond it."""
    if len(values) * 0.05 < 10:
        return None
    return statistics.quantiles(values, n=20)[18]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def dump_lines(bundle: Path) -> int:
    return sum((bundle / "raw" / f"{d}.txt").read_bytes().count(b"\n") for d in DUMPS)


def md_findings(md: str) -> tuple[int, list[tuple[str, str]]]:
    """Finding count and sorted (pattern, confidence) headers of a markdown report."""
    count = None
    headers = []
    for line in md.splitlines():
        if line.startswith("## Findings ("):
            count = int(line[len("## Findings ("):-1])
        elif line.startswith("### "):
            pattern, confidence = line.split(" ")[2:4]
            headers.append((pattern, confidence.strip("()")))
    return count, sorted(headers)


def histogram(fingerprints) -> Counter:
    return Counter(f"{f[0]}/{f[1]}" for f in fingerprints)


class Bench:
    """Runs the commands, times them and checks every result."""

    def __init__(self, args, tracer):
        self.args = args
        self.tracer = tracer
        self.work = WORK / f"{args.workload}-{os.getpid()}"
        # Wall seconds per sample name, each with the index into `refs` of
        # the reference timing taken last before it.
        self.timed: dict[str, list[tuple[float, int]]] = defaultdict(list)
        self.refs: list[float] = []  # the reference work's times, in order
        self.calibrated = float("-inf")
        self.main_lines: list[int] = []  # dump lines of each round's main command
        self.attempted = 0
        self.failed = 0
        self.causes: Counter = Counter()
        self.info: list[str] = []
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("WATCHTRIAGE_")}
        self.env["PYTHONPATH"] = str(SRC)
        self.worker: Helper | None = None  # runs the in-process calls
        self.spawner: Helper | None = None  # starts the CLI subprocesses
        self.peak_rss_kb = 0  # of the worker and the CLI processes
        self.layer_counts: dict[str, float] = defaultdict(float)
        self.span_log: list[tuple] = []
        self.dirs = 0

    def new_dir(self) -> Path:
        """A new directory for one round's outputs; the caller removes it.

        Rewriting one output file in place made ext4 start writeback on
        every call (it forces allocation when a truncated file is written
        again), so rounds timed the disk. A new file removed before
        writeback never reaches it.
        """
        self.dirs += 1
        path = self.work / "out" / str(self.dirs)
        path.mkdir()
        return path

    # -- timing at the reference speed ---------------------------------------

    def calibrate(self, repeats: int = 1):
        """Time the reference work: the median of `repeats` timings.

        The shared host's speed changes by up to 70% from one minute to the
        next, and the program and the reference work slow down together:
        over six scaled runs the median round took 0.44-0.74 s, while its
        ratio to the reference work timed next to it stayed within 2%.
        """
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - start)
        self.refs.append(statistics.median(times))
        self.calibrated = time.perf_counter()

    def record(self, name: str, wall: float):
        self.timed[name].append((wall, len(self.refs) - 1))

    def rescaled(self, name: str) -> list[float]:
        """The samples of `name` in seconds at the reference speed.

        Each is multiplied by REFERENCE_S over the mean of the reference
        timings just before and just after it.
        """
        refs, last = self.refs, len(self.refs) - 1
        return [wall * 2 * REFERENCE_S / (refs[k] + refs[min(k + 1, last)])
                for wall, k in self.timed[name]]

    def wall_p50(self, name: str) -> float:
        return statistics.median(wall for wall, _ in self.timed[name])

    def check(self, ok: bool, cause: str) -> bool:
        """Count one checked operation; a failure is kept with its cause."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.causes[cause] += 1
        return ok

    def call(self, argv: list[str]):
        """Exit code of cli.main(argv) run in this process (set-up and checks)."""
        return worker.call(argv, None)["code"]

    # -- the worker that times in-process calls ------------------------------

    def start_helpers(self, trace: bool, with_cli: bool):
        self.worker = Helper(self.env, "worker.py", "--trace", str(int(trace)))
        if with_cli:
            self.spawner = Helper(self.env, "spawner.py")

    def stop_helpers(self):
        for helper in (self.worker, self.spawner):
            if helper is not None:
                helper.stop()
        self.worker = self.spawner = None

    def warm(self, name: str, argv: list[str], expect: int):
        """Run once in the worker, untimed, so its lazy caches are filled."""
        code = self.worker.request(argv=argv, bundle="warm-up")["code"]
        self.check(code == expect, f"{name} (warm-up): exit {code!r}, expected {expect}")

    def command(self, name: str, argv: list[str], expect: int, bundle: str) -> tuple[bool, float, str]:
        """Time cli.main(argv) in the worker; keep its spans, if traced."""
        reply = self.worker.request(argv=argv, bundle=bundle)
        ok = self.check(reply["code"] == expect, f"{name}: exit {reply['code']!r}, expected {expect}")
        self.record(name, reply["seconds"])
        self.peak_rss_kb = max(self.peak_rss_kb, reply["peak_rss_kb"])
        if "spans" in reply:
            base = len(self.span_log)
            for span_name, start, end, parent, span_bundle, self_time in reply["spans"]:
                self.span_log.append((span_name, start, end, parent + base if parent >= 0 else -1,
                                      span_bundle))
                self.record(f"span {span_name}", self_time)
            for key, value in reply["counts"].items():
                self.layer_counts[key] += value
        return ok, reply["seconds"], reply["stdout"]

    def subprocess(self, name: str, argv: list[str], expect: int) -> tuple[bool, str]:
        """Time `python -m watchtriage.cli`, interpreter start and import included."""
        reply = self.spawner.request(argv=argv)
        self.record(name, reply["seconds"])
        self.peak_rss_kb = max(self.peak_rss_kb, reply["maxrss_kb"])
        ok = self.check(reply["code"] == expect,
                        f"{name}: exit {reply['code']}, expected {expect}: {reply['stderr']}")
        return ok, reply["stdout"]

    # -- phases --------------------------------------------------------------

    def setup(self, workload):
        """Set up SETUPS times, each between two sets of reference timings."""
        digests = []
        for k in range(SETUPS):
            self.info.clear()
            directory = self.work / f"setup{k}"
            self.calibrate(SETUP_REFERENCES)
            start = time.perf_counter()
            digests.append(workload.setup(self, directory))
            self.record("setup", time.perf_counter() - start)
            self.calibrate(SETUP_REFERENCES)
            if k + 1 < SETUPS:
                shutil.rmtree(directory)
        self.check(len(set(digests)) == 1, "set-up: the same seed gave different inputs")

    def loop(self, workload, seconds: float, with_cli: bool, rounds_name: str = "round",
             whole_passes: bool = False) -> int:
        """Closed loop for `seconds`; records each bundle round's in-process time.

        Returns the number of rounds.
        """
        cli_wall = 0.0
        start = time.perf_counter()
        i = 0
        while True:
            now = time.perf_counter()
            done = now - start >= seconds and (cli_wall > 0 or not with_cli)
            if done and (not whole_passes or i % workload.pass_size == 0):
                break
            if now - self.calibrated >= CALIBRATE_EVERY:
                self.calibrate()
                now = time.perf_counter()
            if with_cli and i and cli_wall < CLI_SHARE * (now - start):
                workload.cli(self)
                cli_wall += time.perf_counter() - now
            else:
                self.record(rounds_name, workload.round(self, i))
                i += 1
        self.calibrate()  # the reference timing after the last sample
        return i


class Helper:
    """A child process that answers each JSON request line with one JSON line."""

    def __init__(self, env: dict, script: str, *args: str):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / script), *args], cwd=ROOT, env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def request(self, **request) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"benchmark helper {self.proc.args[1]} exited")
        return json.loads(line)

    def stop(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# --- workloads ---------------------------------------------------------------------


class Casework:
    """Case-size bundles: presets and seeded random scenarios, four commands each."""

    cli_command = "cli_report"
    main_command = "correlate"

    def setup(self, bench: Bench, directory: Path) -> str:
        inventory = scenarios.manifest_inventory(bench.args.seed)
        self.inventory = directory / "inventory"
        self.expected_verdicts = scenarios.write_inventory(self.inventory, inventory)
        self.flagged = any(v != "compliant" for v in self.expected_verdicts.values())
        self.bundles = []
        digest = hashlib.sha256()
        for bundle_id, scenario, generate_args in scenarios.casework_scenarios(bench.args.seed):
            path = directory / bundle_id
            code = bench.call(["generate", *generate_args, "--out", str(path)])
            bench.check(code == 0, f"set-up: generate {bundle_id} exited {code!r}")
            host = ["--host-artifacts", str(path / "host_artifacts")] if scenario.host_side else []
            self.bundles.append({"id": bundle_id, "path": str(path), "host": host,
                                 "lines": dump_lines(path),
                                 "expected": bench.simulator.oracle_findings(scenario)})
            digest.update((path / "manifest.json").read_bytes())
        self.pass_size = len(self.bundles)
        self.last = None
        bench.info.append(
            f"casework inputs: {len(self.bundles)} bundles, {sum(b['lines'] for b in self.bundles)} "
            f"dump lines, {sum(1 for b in self.bundles if b['host'])} with host artifacts; "
            f"{len(inventory)} manifests, {sum(1 for *_, v in inventory if v != 'compliant')} flagged")
        return digest.hexdigest()

    def commands(self, b: dict, out: Path) -> list[tuple[str, list[str], int]]:
        return [
            ("verify", ["verify", "--bundle", b["path"]], 0),
            ("correlate", ["correlate", "--bundle", b["path"], *b["host"],
                           "--out", str(out / "findings.json")], 1 if b["expected"] else 0),
            ("report", ["report", "--bundle", b["path"], *b["host"], "--format", "md",
                        "--out", str(out / "report.md")], 0),
            ("audit", ["audit", "--manifests", str(self.inventory), "--device-abi", scenarios.DEVICE_ABI,
                       "--format", "json", "--out", str(out / "audit.json")], 1 if self.flagged else 0),
        ]

    def warmup(self, bench: Bench):
        self.findings_digest = hashlib.sha256()  # over the coming loop's first pass
        self.hist: Counter = Counter()
        case_study = next(b for b in self.bundles if b["id"] == "preset-case-study")
        out = bench.new_dir()
        for name, argv, expect in self.commands(case_study, out):
            bench.warm(name, argv, expect)
        shutil.rmtree(out)

    def round(self, bench: Bench, i: int) -> float:
        b = self.bundles[i % len(self.bundles)]
        out = bench.new_dir()
        verify, correlate, report, audit = self.commands(b, out)

        ok, t_verify, stdout = bench.command(*verify, b["id"])
        lines = stdout.splitlines()
        bench.check(ok and lines[-1:] == ["overall: PASS"] and all(l.startswith("PASS") for l in lines[:-2]),
                    "verify: bundle did not pass every item")

        _, t_correlate, _ = bench.command(*correlate, b["id"])
        raw = (out / "findings.json").read_bytes()
        got = scenarios.fingerprints_from_document(json.loads(raw))
        bench.check(got == b["expected"], f"correlate: findings differ from the oracle ({b['id']})")
        if i < len(self.bundles):
            self.findings_digest.update(raw)
            self.hist.update(histogram(got))

        _, t_report, _ = bench.command(*report, b["id"])
        md = (out / "report.md").read_text()
        want = sorted((f[0], f[1]) for f in b["expected"])
        bench.check(md_findings(md) == (len(want), want),
                    f"report: findings section differs from the oracle ({b['id']})")
        b["report_sha"] = hashlib.sha256(md.encode()).hexdigest()

        _, t_audit, _ = bench.command(*audit, b["id"])
        verdicts = {v["package"]: v["verdict"] for v in json.loads((out / "audit.json").read_text())}
        bench.check(verdicts == self.expected_verdicts, "audit: verdicts differ from the inventory's")
        shutil.rmtree(out)

        self.last = b
        bench.main_lines.append(b["lines"])
        return t_verify + t_correlate + t_report + t_audit

    def cli(self, bench: Bench):
        b = self.last
        out = bench.new_dir()
        ok, _ = bench.subprocess("cli_report", ["report", "--bundle", b["path"], *b["host"],
                                                   "--format", "md", "--out", str(out / "report.md")], 0)
        bench.check(ok and sha256_file(out / "report.md") == b["report_sha"],
                    f"cli_report: output differs from the in-process report ({b['id']})")
        shutil.rmtree(out)

    def summary(self, rounds: int) -> list[str]:
        if rounds < self.pass_size:
            return ["findings sha256 not reported: the first pass did not complete"]
        return [f"findings sha256 {self.findings_digest.hexdigest()} "
                f"(the {self.pass_size} bundles' findings JSON in order)",
                "findings histogram " + " ".join(f"{k}={v}" for k, v in sorted(self.hist.items()))]


class Scaled:
    """One large bundle, a month of a busy watch: correlate and report repeated."""

    cli_command = "cli_report"
    main_command = "correlate"
    pass_size = 1

    def setup(self, bench: Bench, directory: Path) -> str:
        seed = bench.args.seed
        directory.mkdir(parents=True)
        # The oracle cannot finish at full size, so the same generator is
        # checked against it at reduced size.
        small = scenarios.scaled_scenario(seed, days=scenarios.REDUCED_DAYS)
        scenarios.write_scenario(directory / "reduced.json", small)
        self.reduced = str(directory / "reduced")
        code = bench.call(["generate", "--scenario", str(directory / "reduced.json"), "--out", self.reduced])
        bench.check(code == 0, f"set-up: generate reduced exited {code!r}")
        findings = directory / "reduced.findings.json"
        code = bench.call(["correlate", "--bundle", self.reduced,
                           "--host-artifacts", self.reduced + "/host_artifacts", "--out", str(findings)])
        expected = bench.simulator.oracle_findings(small)
        got = scenarios.fingerprints_from_document(json.loads(findings.read_text()))
        bench.check(code == 1 and got == expected, "set-up: reduced-size findings differ from the oracle")

        self.scenario = scenarios.scaled_scenario(seed)
        scenarios.write_scenario(directory / "scaled.json", self.scenario)
        path = directory / "bundle"
        self.path = str(path)
        self.host = ["--host-artifacts", str(path / "host_artifacts")]
        code = bench.call(["generate", "--scenario", str(directory / "scaled.json"), "--out", self.path])
        bench.check(code == 0, f"set-up: generate scaled exited {code!r}")
        self.truth_rows = Counter(bench.simulator.ground_truth_records(self.scenario))
        self.truth_bytes = scenarios.ground_truth_counts(self.scenario)["bytes_per_network"]
        self.lines = dump_lines(path)
        self.findings_sha = None
        bench.info.append(
            f"scaled inputs: {len(self.scenario.app_sessions)} app sessions, "
            f"{len(self.scenario.wifi_sessions)} Wi-Fi sessions, {len(self.truth_rows)} netstats rows, "
            f"{self.lines} dump lines; reduced-size oracle check: {len(small.wifi_sessions)} Wi-Fi "
            f"sessions, {len(bench.simulator.ground_truth_records(small))} rows, {len(expected)} findings")
        return sha256_file(path / "manifest.json")

    def commands(self, bundle: str, host: list[str], out: Path) -> list[tuple[str, list[str], int]]:
        return [
            ("correlate", ["correlate", "--bundle", bundle, *host, "--out", str(out / "findings.json")], 1),
            ("report", ["report", "--bundle", bundle, *host, "--format", "md",
                        "--out", str(out / "report.md")], 0),
        ]

    def warmup(self, bench: Bench):
        """Check the full-size session invariants once, then warm the worker."""
        if self.findings_sha is None:
            self.check_sessions(bench)
        reduced_host = ["--host-artifacts", self.reduced + "/host_artifacts"]
        out = bench.new_dir()
        for name, argv, expect in self.commands(self.reduced, reduced_host, out):
            bench.warm(name, argv, expect)
        shutil.rmtree(out)

    def check_sessions(self, bench: Bench):
        """Invariants that hold whatever correlate.py does, checked on its sessions."""
        captured = []
        correlate = bench.correlate
        inner = correlate.match_sessions
        correlate.match_sessions = lambda *a, **k: captured.append(inner(*a, **k)) or captured[-1]
        out = bench.new_dir() / "findings.json"
        try:
            code = bench.call(["correlate", "--bundle", self.path, *self.host, "--out", str(out)])
        finally:
            correlate.match_sessions = inner
        bench.check(code == 1, f"correlate (first run): exit {code!r}, expected 1")
        rows = Counter((b.network_id, b.st.epoch, b.rb, b.rp, b.tb, b.tp)
                       for s in (captured[0] if captured else ()) for b in s.buckets)
        bench.check(rows == self.truth_rows,
                    "scaled: the ground-truth rows do not each land in exactly one session")
        totals: dict[str, list[int]] = {}
        for (ssid, _st, rb, _rp, tb, _tp), n in rows.items():
            t = totals.setdefault(ssid, [0, 0])
            t[0] += rb * n
            t[1] += tb * n
        bench.check(totals == self.truth_bytes, "scaled: per-network byte totals are not conserved")

        self.findings_sha = sha256_file(out)
        fingerprints = scenarios.fingerprints_from_document(json.loads(out.read_text()))
        self.headers = sorted((f[0], f[1]) for f in fingerprints)
        self.hist = histogram(fingerprints)
        patterns = {f[0] for f in fingerprints}
        grades = {f[1] for f in fingerprints}
        flags = {flag for f in fingerprints for flag in f[2]}
        bench.check(len(patterns) == 4 and len(grades) == 3 and len(flags) == 3,
                    f"scaled: the bundle lacks a pattern, grade or flag ({patterns}, {grades}, {flags})")
        self.report_sha = None
        shutil.rmtree(out.parent)

    def round(self, bench: Bench, i: int) -> float:
        out = bench.new_dir()
        correlate, report = self.commands(self.path, self.host, out)
        _, t_correlate, _ = bench.command(*correlate, "scaled")
        bench.check(sha256_file(out / "findings.json") == self.findings_sha,
                    "correlate: findings JSON changed between runs on one bundle")
        _, t_report, _ = bench.command(*report, "scaled")
        md = (out / "report.md").read_text()
        sha = hashlib.sha256(md.encode()).hexdigest()
        if self.report_sha is None:
            bench.check(md_findings(md) == (len(self.headers), self.headers),
                        "report: findings section differs from correlate's")
            self.report_sha = sha
        else:
            bench.check(sha == self.report_sha, "report: output changed between runs on one bundle")
        shutil.rmtree(out)
        bench.main_lines.append(self.lines)
        return t_correlate + t_report

    def cli(self, bench: Bench):
        out = bench.new_dir()
        ok, _ = bench.subprocess("cli_report", ["report", "--bundle", self.path, *self.host,
                                                   "--format", "md", "--out", str(out / "report.md")], 0)
        bench.check(ok and sha256_file(out / "report.md") == self.report_sha,
                    "cli_report: output differs from the in-process report")
        shutil.rmtree(out)

    def summary(self, rounds: int) -> list[str]:
        return [f"findings sha256 {self.findings_sha}",
                "findings histogram " + " ".join(f"{k}={v}" for k, v in sorted(self.hist.items()))]


class Intake:
    """The scaled scenario as JSON-lines transcripts: acquire, verify, parse."""

    cli_command = "cli_verify"
    main_command = "parse"
    pass_size = 1

    def setup(self, bench: Bench, directory: Path) -> str:
        scenario = scenarios.scaled_scenario(bench.args.seed)
        self.transcripts = directory / "transcripts"
        self.lines = scenarios.write_transcripts(self.transcripts, scenario)
        self.truth = scenarios.ground_truth_counts(scenario)
        # The usagestats step is the default plan's third, so with the clock
        # started two seconds early its collection time, which closes the
        # 24 h window, is the scenario's capture time.
        self.clock_start = scenario.capture_time - 2
        warm_scenario = bench.simulator.preset_case_study()
        self.warm_transcripts = directory / "warm-transcripts"
        scenarios.write_transcripts(self.warm_transcripts, warm_scenario)
        self.warm_clock_start = warm_scenario.capture_time - 2
        self.parse_sha = None
        self.last = None
        bench.info.append(
            f"intake inputs: {self.lines} JSON-lines dump lines ({self.truth['events']} events, "
            f"{self.truth['aggregates']} aggregates, {self.truth['netstats']} netstats rows, "
            f"{self.truth['leases']} leases)")
        digest = hashlib.sha256()
        for path in sorted(self.transcripts.iterdir()):
            digest.update(path.name.encode() + path.read_bytes())
        return digest.hexdigest()

    def commands(self, transcripts: Path, clock_start: int, bundle: Path) -> list[tuple[str, list[str], int]]:
        return [
            ("acquire", ["acquire", "--transcripts", str(transcripts), "--clock-start", str(clock_start),
                         "--out", str(bundle)], 0),
            ("verify", ["verify", "--bundle", str(bundle)], 0),
            ("parse", ["parse", "--bundle", str(bundle), "--out", str(bundle.parent / "parsed.json")], 0),
        ]

    def warmup(self, bench: Bench):
        out = bench.new_dir()
        for name, argv, expect in self.commands(self.warm_transcripts, self.warm_clock_start, out / "bundle"):
            bench.warm(name, argv, expect)
        shutil.rmtree(out)

    def round(self, bench: Bench, i: int) -> float:
        if self.last is not None:
            shutil.rmtree(self.last.parent)  # kept until now for the CLI verify
        bundle = bench.new_dir() / "bundle"
        acquire, verify, parse = self.commands(self.transcripts, self.clock_start, bundle)
        tag = f"intake-{i}"
        _, t_acquire, out = bench.command(*acquire, tag)
        bench.check("items: 7, failures: 0" in out, "acquire: not every plan step was captured")
        ok, t_verify, out = bench.command(*verify, tag)
        lines = out.splitlines()
        bench.check(ok and len(lines) == 9 and lines[-1] == "overall: PASS"
                    and all(l.startswith("PASS") for l in lines[:7]),
                    "verify: the acquired bundle did not pass every item")
        _, t_parse, _ = bench.command(*parse, tag)
        raw = (bundle.parent / "parsed.json").read_bytes()
        sha = hashlib.sha256(raw).hexdigest()
        if self.parse_sha is None:
            self.check_parse(bench, json.loads(raw))
            self.parse_sha = sha
        else:
            bench.check(sha == self.parse_sha, "parse: output changed between rounds on one input")
        self.last = bundle
        bench.main_lines.append(self.lines)
        return t_acquire + t_verify + t_parse

    def check_parse(self, bench: Bench, doc: dict):
        truth = self.truth
        usage, stack = doc["usagestats"], doc["network_stack"]
        totals: dict[str, list[int]] = {}
        for r in doc["netstats"]:
            t = totals.setdefault(r["network_id"], [0, 0])
            t[0] += r["rb"]
            t[1] += r["tb"]
        got = (len(usage["events"]), len(usage["aggregates"]), len(doc["netstats"]),
               len(stack["leases"]), stack["boot_epoch_marker"], totals, doc["warnings"])
        want = (truth["events"], truth["aggregates"], truth["netstats"], truth["leases"],
                truth["boot"], truth["bytes_per_network"], [])
        bench.check(got == want, "parse: parsed counts differ from the ground truth")

    def cli(self, bench: Bench):
        ok, out = bench.subprocess("cli_verify", ["verify", "--bundle", str(self.last)], 0)
        bench.check(ok and out.rstrip().endswith("overall: PASS"), "cli_verify: bundle did not pass")

    def summary(self, rounds: int) -> list[str]:
        return [f"parse JSON sha256 {self.parse_sha} (intake runs no correlate)"]


WORKLOADS = {"casework": Casework, "scaled": Scaled, "intake": Intake}


# --- reporting ---------------------------------------------------------------------


def end_to_end(bench: Bench, workload) -> dict:
    setup, rounds = bench.rescaled("setup"), bench.rescaled("round")
    cli = bench.rescaled(workload.cli_command)
    lines_per_s = [n / t for n, t in zip(bench.main_lines, bench.rescaled(workload.main_command))]
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "bundle_p50_s": (statistics.median(rounds), "s", len(rounds)),
        "bundles_per_s": (len(rounds) / sum(rounds), "1/s", len(rounds)),
        "dump_lines_per_s": (statistics.median(lines_per_s), "lines/s", len(lines_per_s)),
        "cli_p50_s": (statistics.median(cli), "s", len(cli)),
        # The largest peak resident set of the processes that ran
        # commands: the worker and the CLI subprocesses.
        "peak_rss_mb": (bench.peak_rss_kb / 1024, "MB", len(cli)),
    }
    print(f"host speed: the reference work took {statistics.median(bench.refs) * 1e3:.4g} ms "
          f"(median of {len(bench.refs)} timings; {REFERENCE_S * 1e3:g} ms at the reference speed); "
          "times are rescaled to the reference speed, wall times are as measured")
    print(f"set-up wall {bench.wall_p50('setup'):.6g} s n={len(setup)}")
    for name, (value, unit, n) in metrics.items():
        print(f"metric {name} {value:.6g} {unit} n={n}")
    for command in ("acquire", "verify", "parse", "correlate", "report", "audit", workload.cli_command):
        values = bench.rescaled(command)
        if values:
            print(f"command {command}_p50_s {statistics.median(values):.6g} s "
                  f"(wall {bench.wall_p50(command):.6g} s) n={len(values)}")
            p95 = percentile_95(values)
            if p95 is not None:
                print(f"command {command}_p95_s {p95:.6g} s n={len(values)}")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _n) in metrics.items()}


def per_layer(bench: Bench, setup_layers: dict) -> dict:
    untraced, traced = bench.rescaled("untraced"), bench.rescaled("traced")
    rounds = len(traced)
    counts = bench.layer_counts
    metrics = {name: (sum(bench.rescaled(f"span {span}")) / rounds, "s")
               for name, span in spans.LAYER_TIMES.items()}
    for name in spans.LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0.0) / rounds, "B" if name == "evidence.bytes_hashed" else "count")
    kept, dropped = counts.get("dumpsys.records_out", 0.0), counts.get("dumpsys.lines_dropped", 0.0)
    sessions = counts.get("correlate.sessions", 0.0)
    metrics["dumpsys.kept_ratio"] = (kept / (kept + dropped) if kept + dropped else 0.0, "ratio")
    metrics["correlate.finding_ratio"] = (
        counts.get("correlate.findings", 0.0) / sessions if sessions else 0.0, "ratio")
    metrics["cli.import_s"] = (statistics.median(bench.rescaled("import")), "s")
    metrics.update((name, (value, "s")) for name, value in setup_layers.items())
    mean_untraced, mean_traced = sum(untraced) / len(untraced), sum(traced) / rounds
    metrics["trace.overhead_ratio"] = (mean_traced / mean_untraced - 1, "ratio")
    print(f"tracing overhead {mean_traced / mean_untraced - 1:+.2%}: mean bundle round "
          f"{mean_untraced:.6g} s untraced (n={len(untraced)}), {mean_traced:.6g} s traced (n={rounds})")
    print("layer times are self seconds and counts are totals, per bundle round; "
          "simulator.* are per set-up; times are rescaled to the reference speed")
    for name, (value, unit) in metrics.items():
        print(f"layer {name} {value:.6g} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def time_imports(bench: Bench):
    """Time fresh interpreters that only import watchtriage.cli."""
    for _ in range(IMPORT_RUNS):
        bench.calibrate()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import watchtriage.cli"], cwd=ROOT,
                              env=bench.env, capture_output=True)
        bench.record("import", time.perf_counter() - start)
        bench.check(proc.returncode == 0, "cli.import: importing watchtriage.cli failed")
    bench.calibrate()


def run(bench: Bench, workload) -> dict:
    args = bench.args
    (bench.work / "out").mkdir(parents=True)
    if not args.trace:
        bench.setup(workload)
        bench.start_helpers(trace=False, with_cli=True)
        workload.warmup(bench)
        rounds = bench.loop(workload, args.seconds, with_cli=True)
        bench.stop_helpers()
        for line in bench.info + workload.summary(rounds):
            print(line)
        return end_to_end(bench, workload)

    spans.instrument(bench.tracer)
    try:
        bench.setup(workload)
    finally:
        bench.tracer.restore()
    totals = bench.tracer.self_times()
    scale = REFERENCE_S / statistics.mean(bench.refs)  # the set-ups' reference timings
    setup_layers = {name: totals.get(span, 0.0) * scale / SETUPS for name, span in spans.SETUP_TIMES.items()}
    # Untraced and traced phases alternate, so a drift in the machine's
    # speed does not show up as tracing overhead.
    for trace in (False, True, False, True):
        bench.start_helpers(trace, with_cli=False)
        workload.warmup(bench)
        rounds = bench.loop(workload, args.seconds / 4, with_cli=False,
                            rounds_name="traced" if trace else "untraced", whole_passes=True)
        bench.stop_helpers()
    for line in bench.info + workload.summary(rounds):
        print(line)
    time_imports(bench)
    metrics = per_layer(bench, setup_layers)
    out = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(out, "w") as f:
        for i, (name, start, end, parent, bundle) in enumerate(bench.span_log):
            f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                "parent": parent, "bundle": bundle}) + "\n")
    print(f"{len(bench.span_log)} spans written to {out.relative_to(ROOT)}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "watchtriage" / "cli.py").is_file():
        print(f"error: no watchtriage sources under {SRC}", file=sys.stderr)
        return 2

    global scenarios, spans, worker
    sys.path.insert(0, str(SRC))
    for key in [k for k in os.environ if k.startswith("WATCHTRIAGE_")]:
        del os.environ[key]
    from watchtriage import correlate, simulator
    import scenarios
    import spans
    import worker

    # Only one process is busy at a time, so the benchmark and its children
    # share one CPU, the highest-numbered one it may use, and a run does not
    # depend on where the scheduler puts the long-lived worker: on a 2-CPU
    # virtual machine a fixed loop ran 7-36% slower on CPU 0 than on CPU 1.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    bench = Bench(args, spans.Tracer())
    bench.correlate, bench.simulator = correlate, simulator
    workload = WORKLOADS[args.workload]()
    started = time.perf_counter()
    print(f"watchtriage benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} python={platform.python_version()} nproc={os.cpu_count()} "
          f"cpu={min(os.sched_getaffinity(0))}")
    try:
        metrics = run(bench, workload)
    finally:
        bench.stop_helpers()
        shutil.rmtree(bench.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no spans were kept there
    for cause, n in sorted(bench.causes.items()):
        print(f"FAILED x{n}: {cause}")
    print(f"error_rate {bench.failed / max(bench.attempted, 1):.6g} "
          f"({bench.failed} of {bench.attempted} checked operations failed)")
    print(f"wall {time.perf_counter() - started:.1f} s")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
