"""Live evidence collection through an abstract command executor.

The watches expose ADB only over wireless debugging, so acquisition is a
sequence of shell commands run through a CommandExecutor. The default plan
collects the most reboot-fragile service first (network_stack), then the
other dumps, then device properties. Raw stdout is stored byte-for-byte and
hashed into the evidence bundle by `evidence.seal_bundle`; nothing is
transformed before hashing. The bundle directory is written from, and read
back into, that one `EvidenceBundle`. The PC-side host artifact files are
read here too, each hashed into an `EvidenceItem` as it is parsed.

No step may require elevated privileges: plans containing `su` or paths
under /data/data are rejected outright.

The executor is replaceable by a canned-transcript fake, which is how every
test (and the offline demo) runs; a thin adapter shells out to an external
adb binary for real devices. Timestamps come from the investigator machine's
clock, never the device's.
"""

from __future__ import annotations

import os
import re
import shutil
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Optional, Protocol

from .evidence import (
    DEFAULT_DISPLAY_ZONE,
    DEFAULT_HASH,
    DeviceProfile,
    EvidenceBundle,
    EvidenceItem,
    SourceKind,
    StepFailure,
    Timestamp,
    canonical_json_bytes,
    json_field,
    json_list,
    load_json,
    seal_bundle,
    zone_name,
)

if TYPE_CHECKING:
    from .host_artifacts import FtpServerEntry, KnownHostEntry

Clock = Callable[[], int]


class ExecutorUnreachableError(OSError):
    """The debug bridge could not be reached at all."""


class CommandExecutor(Protocol):
    def execute(self, command: str) -> tuple[int, bytes, bytes]:
        """Run a shell command on the device; (exit_status, stdout, stderr)."""
        ...


class FakeExecutor:
    """Canned-transcript executor for tests and offline demos; a command
    with no transcript fails with exit status 127."""

    def __init__(self, transcripts: Mapping[str, bytes]):
        self.transcripts = dict(transcripts)
        self.executed: list[str] = []

    def execute(self, command: str) -> tuple[int, bytes, bytes]:
        self.executed.append(command)
        if command not in self.transcripts:
            return 127, b"", f"no transcript for {command!r}".encode()
        return 0, self.transcripts[command], b""


class AdbShellExecutor:
    """Thin adapter shelling out to an external adb binary."""

    timeout = 60  # seconds one shell command may take

    def __init__(self, serial: Optional[str] = None, adb_path: str = "adb"):
        self.serial = serial
        self.adb_path = adb_path
        if shutil.which(adb_path) is None:
            raise ExecutorUnreachableError(f"adb binary not found: {adb_path}")

    def execute(self, command: str) -> tuple[int, bytes, bytes]:
        import subprocess  # only a live acquisition pays for it

        argv = [self.adb_path]
        if self.serial:
            argv += ["-s", self.serial]
        argv += ["shell", command]
        try:
            proc = subprocess.run(argv, capture_output=True, timeout=self.timeout)
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise ExecutorUnreachableError(f"adb invocation failed: {exc}") from exc
        return proc.returncode, proc.stdout, proc.stderr


class AcquisitionStep(NamedTuple):
    label: str
    command: str
    volatility_rank: int
    source_kind: SourceKind


class _AcquisitionPlanFields(NamedTuple):
    steps: tuple[AcquisitionStep, ...]


class AcquisitionPlan(_AcquisitionPlanFields):
    __slots__ = ()

    def __new__(cls, steps: tuple[AcquisitionStep, ...]):
        ranks = [s.volatility_rank for s in steps]
        if ranks != sorted(ranks):
            raise ValueError("plan steps must be ordered by ascending volatility rank")
        labels = [s.label for s in steps]
        if len(labels) != len(set(labels)):
            raise ValueError("plan step labels must be unique")
        for step in steps:
            _reject_privileged(step.command)
            label = step.label
            if not isinstance(label, str) or label in ("", os.curdir, os.pardir) or {"/", os.sep} & set(label):
                raise ValueError(f"plan step label {label!r} is not a single plain file name")
        return tuple.__new__(cls, (steps,))


_PRIVILEGED = re.compile(r"(^|[;&|\s])su($|\s)|/data/data")


def _reject_privileged(command: str):
    if _PRIVILEGED.search(command):
        raise ValueError(f"command requires elevated privileges and is not allowed: {command!r}")


def default_plan() -> AcquisitionPlan:
    """Volatility-ordered collection: the reboot-fragile lease log comes first."""
    steps = (
        AcquisitionStep("network_stack", "dumpsys network_stack", 0, SourceKind.NETWORK_STACK),
        AcquisitionStep("netstats", "dumpsys netstats", 1, SourceKind.NETSTATS),
        AcquisitionStep("usagestats", "dumpsys usagestats", 2, SourceKind.USAGESTATS),
        AcquisitionStep("android_version", "getprop ro.build.version.release", 3, SourceKind.GETPROP),
        AcquisitionStep("cpu_abi", "getprop ro.product.cpu.abi", 4, SourceKind.GETPROP),
        AcquisitionStep("model", "getprop ro.product.model", 5, SourceKind.GETPROP),
        AcquisitionStep("host_name", "getprop net.hostname", 6, SourceKind.GETPROP),
    )
    return AcquisitionPlan(steps)


def _plan_step(s: dict) -> AcquisitionStep:
    return AcquisitionStep(
        s["label"], s["command"], json_field(s, "volatility_rank", int), SourceKind(s["source_kind"])
    )


def load_plan(path: Path) -> AcquisitionPlan:
    return load_json(path, "plan steps", _plan_step, entry="plan step", key="steps", collect=AcquisitionPlan)


def run_acquisition(
    executor: CommandExecutor,
    plan: Optional[AcquisitionPlan] = None,
    clock: Optional[Clock] = None,
    origin_label: str = "watch",
    display_zone: str = DEFAULT_DISPLAY_ZONE,
) -> EvidenceBundle:
    """Run every plan step, hashing raw stdout into an evidence bundle.

    A per-step failure (nonzero exit, missing transcript) is recorded and the
    remaining steps still run; only an unreachable executor aborts. Item
    timestamps are forced strictly monotonic so repeated getprop items stay
    distinguishable in the manifest; a constant clock N stamps N, N+1, ...
    """
    import time as _time

    plan = plan or default_plan()
    clock = clock or (lambda: int(_time.time()))

    captured: list[tuple[str, SourceKind, bytes, int]] = []
    failures: list[StepFailure] = []
    last_at = -1

    for i, step in enumerate(plan.steps):
        try:
            status, stdout, stderr = executor.execute(step.command)
        except ExecutorUnreachableError:
            if i == 0:
                raise
            failures.append(StepFailure(step.label, "executor became unreachable"))
            continue
        at = max(clock(), last_at + 1)
        last_at = at
        if status != 0:
            failures.append(
                StepFailure(step.label, f"exit status {status}: {stderr.decode(errors='replace').strip()}")
            )
            continue
        captured.append((step.label, step.source_kind, stdout, at))

    return seal_bundle(captured, origin_label, display_zone, failures)


# --- Bundle directory layout -------------------------------------------------
#
# <out>/manifest.json   canonical manifest + digest + file map + extras
# <out>/raw/<label>.txt exact bytes of each step's stdout
#
# Every file path is relative to <out> and must stay inside it.


def _inside(bundle_dir: Path, rel) -> Path:
    """bundle_dir/rel with `..` resolved, or ValueError unless rel is a
    relative path that stays inside bundle_dir."""
    if isinstance(rel, str) and not os.path.isabs(rel):
        rel = os.path.normpath(rel)
        if rel.split(os.sep)[0] != os.pardir:
            return bundle_dir / rel
    raise ValueError(f"file path {rel!r} is not a relative path inside the bundle directory")


def write_bundle_dir(bundle: EvidenceBundle, out_dir: Path) -> Path:
    out_dir = Path(out_dir)
    files = {key: f"raw/{bundle.labels[key]}.txt" for key in bundle.payloads}
    paths = {key: _inside(out_dir, rel) for key, rel in files.items()}
    (out_dir / "raw").mkdir(parents=True, exist_ok=True)
    for key, raw in bundle.payloads.items():
        paths[key].write_bytes(raw)
    doc = {
        "manifest": bundle.manifest_document(),
        "bundle_manifest_digest": bundle.bundle_manifest_digest,
        "hash_algorithm": DEFAULT_HASH,
        "files": files,
        "failures": [f._asdict() for f in bundle.failures],
        "display_zone": bundle.display_zone,
    }
    (out_dir / "manifest.json").write_bytes(canonical_json_bytes(doc) + b"\n")
    return out_dir


def read_bundle_dir(path: Path) -> EvidenceBundle:
    """Load a bundle directory as written by write_bundle_dir.

    Payloads are read from the file map; an item whose file is absent has
    no payload, which verify_bundle reports as missing.
    """
    path = Path(path)
    if not path.is_dir():
        raise FileNotFoundError(f"bundle directory not found: {path}")
    manifest_path = path / "manifest.json"
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no manifest.json under {path}")
    return load_json(manifest_path, "manifest", partial(_bundle_from_manifest, path))


def _bundle_from_manifest(path: Path, doc: dict) -> EvidenceBundle:
    manifest = doc["manifest"]
    items = tuple(
        EvidenceItem(
            SourceKind(i["source_kind"]),
            Timestamp(json_field(i, "collected_at", int)),
            json_field(i, "raw_bytes_digest", str),
            json_field(i, "origin_label", str, ""),
        )
        for i in manifest["items"]
    )
    device = None
    if fields := manifest.get("device"):
        device = DeviceProfile(**{key: json_field(fields, key, str) for key in fields})
    for copy in (manifest, doc):  # the sealed copy and the top-level one
        if (value := copy.get("hash_algorithm", DEFAULT_HASH)) != DEFAULT_HASH:
            raise ValueError(f"hash_algorithm {value!r}: unsupported hash type {value}")
    digest = json_field(doc, "bundle_manifest_digest", str)
    failures = tuple(StepFailure(**f) for f in json_list(doc, "failures", dict))
    zone = zone_name(doc.get("display_zone", DEFAULT_DISPLAY_ZONE))
    payloads = {}
    labels = {}
    for key, rel in doc.get("files", {}).items():
        file_path = _inside(path, rel)
        if file_path.is_file():
            payloads[key] = file_path.read_bytes()
        labels[key] = Path(rel).stem
    return EvidenceBundle(items, device, digest, payloads, labels, failures, zone)


# --- Host artifact files -----------------------------------------------------
#
# The PC-side files an investigator copies off the machine the watch served,
# read from disk and hashed into evidence items, as a bundle's payloads are.


class HostArtifacts(NamedTuple):
    """Parsed PC-side artifacts plus the digests of the files they came from;
    each is built from four fresh lists."""

    ftp_entries: list[FtpServerEntry]
    known_host_entries: list[KnownHostEntry]
    items: list[EvidenceItem]
    warnings: list[str]


# Recognized file name -> the kind its evidence item is recorded as.
_ARTIFACT_KINDS = {"recentservers.xml": SourceKind.RECENTSERVERS_XML,
                   "filezilla.xml": SourceKind.FILEZILLA_XML,
                   "sitemanager.xml": SourceKind.FILEZILLA_XML,
                   "known_hosts": SourceKind.KNOWN_HOSTS}


def locate_host_artifacts(root: Path) -> list[Path]:
    """Find candidate artifact files under a directory or mounted profile.

    Matches the canonical Windows locations (AppData\\Roaming\\FileZilla\\*.xml,
    .ssh\\known_hosts) as well as the same file names placed directly in the
    directory. FileNotFoundError unless `root` is a directory.
    """
    if not root.is_dir():
        raise FileNotFoundError(f"host artifacts directory not found: {root}")
    return [path for path in sorted(root.rglob("*")) if path.name.lower() in _ARTIFACT_KINDS and path.is_file()]


def load_host_artifacts(paths: Iterable[Path]) -> HostArtifacts:
    """Parse a set of artifact files, hashing each for evidence citation."""
    from .host_artifacts import parse_filezilla, parse_known_hosts  # only a command given host files loads them

    out = HostArtifacts([], [], [], [])
    for path in paths:
        raw = path.read_bytes()
        kind = _ARTIFACT_KINDS.get(path.name.lower())
        if kind is None:
            out.warnings.append(f"{path}: not a recognized host artifact; skipped")
            continue
        text = raw.decode("utf-8", errors="replace")
        if kind is SourceKind.KNOWN_HOSTS:
            entries, warnings = parse_known_hosts(text)
            out.known_host_entries.extend(entries)
        else:
            try:
                entries, warnings = parse_filezilla(text, kind.value)
            except ValueError as exc:
                out.warnings.append(f"{path}: {exc}")
                continue
            out.ftp_entries.extend(entries)
        out.warnings.extend(f"{path}: {w}" for w in warnings)
        out.items.append(EvidenceItem.from_bytes(kind, raw, Timestamp(0), str(path)))
    return out
