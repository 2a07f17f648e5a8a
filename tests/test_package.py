import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import watchtriage
from watchtriage import cli
from watchtriage.acquisition import AcquisitionPlan, default_plan
from watchtriage.correlate import AppNetworkSession, DirectionBias, FindingPattern, PatternRule
from watchtriage.dumpsys import AggregateWindow, LeaseEvent, LeaseKind, NetUsageRecord, UsageAggregate
from watchtriage.evidence import MAX_EPOCH, Timestamp
from watchtriage.host_artifacts import FtpServerEntry, TransferProtocol
from watchtriage.policy import ManifestInfo

# Run in a fresh interpreter: the modules that importing watchtriage.cli and
# running one command added to sys.modules, as JSON on stdout.
LOADED_BY = """
import contextlib, json, sys
before = set(sys.modules)
from watchtriage import cli
with contextlib.redirect_stdout(sys.stderr):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": sorted(set(sys.modules) - before)}))
"""


def modules_loaded_by(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", LOADED_BY, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    reply = json.loads(proc.stdout)
    return reply["code"], set(reply["loaded"])


@pytest.fixture(scope="module")
def ftp_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundles") / "ftp"
    assert cli.main(["generate", "--preset", "ftp", "--out", str(out)]) == 0
    return out


# The modules that hold code `verify` never runs: the time table, the JSON
# writer and the host-artifact parsers.
VERIFY_NEVER_RUNS = {"watchtriage.document", "watchtriage.host_artifacts", "watchtriage.timetable"}


class TestCommandImports:
    def test_verify_loads_no_parser_policy_simulator_or_subprocess(self, ftp_bundle):
        code, loaded = modules_loaded_by(["verify", "--bundle", str(ftp_bundle)])
        assert code == 0
        assert "watchtriage.acquisition" in loaded  # taken before the package was imported
        unused = {f"watchtriage.{m}" for m in ("correlate", "dumpsys", "policy", "report", "simulator")}
        assert not loaded & (unused | VERIFY_NEVER_RUNS | {"subprocess", "base64", "xml.etree.ElementTree"})

    def test_report_loads_neither_policy_nor_simulator(self, ftp_bundle):
        code, loaded = modules_loaded_by(
            ["report", "--bundle", str(ftp_bundle), "--host-artifacts", str(ftp_bundle / "host_artifacts")])
        assert code == 0
        assert "watchtriage.report" in loaded
        assert VERIFY_NEVER_RUNS <= loaded
        assert "xml.etree.ElementTree" in loaded  # for recentservers.xml
        assert not loaded & {"watchtriage.policy", "watchtriage.simulator"}

    @pytest.mark.parametrize("command", ["verify", "parse"])
    def test_command_reading_no_xml_loads_no_xml_reader(self, command, ftp_bundle):
        code, loaded = modules_loaded_by([command, "--bundle", str(ftp_bundle)])
        assert code == 0
        assert "xml.etree.ElementTree" not in loaded

    @pytest.mark.parametrize("command, code", [
        ("verify", 0), ("parse", 0), ("correlate", 1), ("report", 0), ("report-json", 0), ("audit", 1),
        ("acquire", 1), ("generate", 0),
    ])
    def test_analysis_command_loads_neither_dataclasses_nor_inspect(self, command, code, ftp_bundle, tmp_path):
        # Building dataclasses, and importing `dataclasses` with `inspect`,
        # took about a fifth of a one-shot command's wall time; every record
        # in the package is a named tuple.
        bundle = ["--bundle", str(ftp_bundle)]
        host = ["--host-artifacts", str(ftp_bundle / "host_artifacts")]
        (tmp_path / "manifests").mkdir()
        (tmp_path / "manifests" / "phone.txt").write_text("package: name='com.example.phone'\n")
        (tmp_path / "transcripts").mkdir()
        for label in ("network_stack", "netstats", "usagestats"):  # the getprop steps fail: exit 1
            (tmp_path / "transcripts" / f"dumpsys_{label}.txt").write_bytes(
                (ftp_bundle / "raw" / f"{label}.txt").read_bytes())
        argv = {
            "verify": ["verify", *bundle],
            "parse": ["parse", *bundle],
            "correlate": ["correlate", *bundle, *host],
            "report": ["report", *bundle, *host],
            "report-json": ["report", *bundle, *host, "--format", "json"],
            "audit": ["audit", "--manifests", str(tmp_path / "manifests")],
            "acquire": ["acquire", "--transcripts", str(tmp_path / "transcripts"), "--clock-start", "1683809100",
                        "--out", str(tmp_path / "acquired")],
            "generate": ["generate", "--preset", "ftp", "--out", str(tmp_path / "generated")],
        }[command]
        got, loaded = modules_loaded_by(argv)
        assert got == code
        assert not loaded & {"dataclasses", "inspect"}


def test_no_cache_outlives_a_call(ftp_bundle, tmp_path):
    # Every table a command fills belongs to one dump or one document: after
    # a report, no function or method of the package holds a cache.
    out = tmp_path / "report.md"
    assert cli.main(["report", "--bundle", str(ftp_bundle), "--host-artifacts", str(ftp_bundle / "host_artifacts"),
                     "--format", "md", "--out", str(out)]) == 0
    modules = [module for name, module in sys.modules.items() if name.split(".")[0] == "watchtriage"]
    assert len(modules) > 5
    for module in modules:
        for name, value in vars(module).items():
            members = vars(value).items() if isinstance(value, type) else ()
            for where, obj in [(name, value), *((f"{name}.{member}", attr) for member, attr in members)]:
                assert not hasattr(obj, "cache_info"), f"{module.__name__}.{where}"


class TestPackageExports:
    def test_every_public_name_resolves(self):
        for name in watchtriage.__all__:
            assert getattr(watchtriage, name).__name__ == name

    def test_star_import(self):
        namespace = {}
        exec("from watchtriage import *", namespace)
        assert set(watchtriage.__all__) <= set(namespace)

    def test_readme_import(self):
        from watchtriage import (  # noqa: F401
            Timestamp,
            build_timeline,
            corroborate,
            match_sessions,
            parse_netstats,
            parse_network_stack,
            parse_usagestats,
        )

    def test_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            watchtriage.no_such_name  # noqa: B018
        assert not hasattr(watchtriage, "no_such_name")


_AT = Timestamp(0)
_BUCKET = NetUsageRecord("net", _AT, 1, 1, 1, 1)

# Every record that checks its values: (type, every field in order with a
# valid value, how many trailing fields hold their default, and the bad
# values, each a set of fields to change with the ValueError's message).
CHECKED_RECORDS = [
    (Timestamp, {"epoch": 5}, 0, [
        ({"epoch": -1}, "epoch must be between 0 and 253370764799, got -1"),
        ({"epoch": MAX_EPOCH + 1}, "epoch must be between 0 and 253370764799, got 253370764800"),
    ]),
    (NetUsageRecord, {"network_id": "net", "st": _AT, "rb": 1, "rp": 2, "tb": 3, "tp": 4, "bucket_duration": 3600}, 1, [
        ({"rb": -1}, "rb must be >= 0"),
        ({"rp": -2, "tb": -3, "tp": -4}, "rp must be >= 0"),
        ({"tb": -1}, "tb must be >= 0"),
        ({"tb": -1, "tp": -1, "bucket_duration": 900}, "tb must be >= 0"),
        ({"rb": 0, "rp": 0, "tb": 0, "tp": -1}, "tp must be >= 0"),
    ]),
    (LeaseEvent, {"at": _AT, "interface": "wlan0", "private_ip": "10.0.0.2",
                  "event_kind": LeaseKind.DHCP_ACK, "network_id": None}, 1, [
        ({"private_ip": "10.0.0.256"}, "Octet 256 (> 255) not permitted in '10.0.0.256'"),
        ({"private_ip": "10.0.0"}, "Expected 4 octets in '10.0.0'"),
        ({"private_ip": "fe80::1", "network_id": "Cafe"}, "Expected 4 octets in 'fe80::1'"),
    ]),
    (UsageAggregate, {"window": AggregateWindow.WEEK, "package": "app", "last_used": _AT, "use_count": 1}, 0, [
        ({"use_count": -1}, "use_count must be >= 0"),
    ]),
    (FtpServerEntry, {"host": "10.0.0.7", "port": 21, "protocol": TransferProtocol.FTP,
                      "source_file": "recentservers_xml"}, 1, [
        ({"port": 0}, "port out of range: 0"),
    ]),
    (PatternRule, {"pattern": FindingPattern.UNCLASSIFIED_TRANSFER, "package_markers": (),
                   "direction_bias": DirectionBias.ANY, "min_bytes": 0}, 3, [
        ({"min_bytes": -1}, "min_bytes must be >= 0"),
    ]),
    (AppNetworkSession, {"packages": (), "app_events": (), "buckets": (_BUCKET,), "resolved_leases": (),
                         "ambiguity_flags": frozenset()}, 0, [
        ({"buckets": ()}, "session must reference at least one traffic bucket"),
    ]),
    (AcquisitionPlan, {"steps": default_plan().steps}, 0, [
        ({"steps": default_plan().steps[::-1]}, "plan steps must be ordered by ascending volatility rank"),
    ]),
    (ManifestInfo, {"package": "com.example", "uses_features": (), "declared_abis": ()}, 2, [
        ({"package": ""}, "package must be a non-empty string"),
    ]),
]


@pytest.mark.parametrize("record, fields, defaults, bad", CHECKED_RECORDS,
                         ids=[row[0].__name__ for row in CHECKED_RECORDS])
class TestCheckedRecords:
    def test_bad_value_is_refused_by_position_and_by_keyword(self, record, fields, defaults, bad):
        for changed, message in bad:
            values = {**fields, **changed}
            for build in (lambda: record(*values.values()), lambda: record(**values)):
                with pytest.raises(ValueError) as caught:
                    build()
                assert str(caught.value) == message

    def test_every_way_of_building_gives_the_same_record(self, record, fields, defaults, bad):
        made = record._make(fields.values())
        required = dict(list(fields.items())[:len(fields) - defaults])
        built = (record(*fields.values()), record(**fields), record(*required.values()), record(**required))
        for one in built:
            assert type(one) is record and one == made and one._asdict() == fields

    def test_pickle_and_copy_keep_the_record_type(self, record, fields, defaults, bad):
        one = record(**fields)
        for copied in (pickle.loads(pickle.dumps(one)), copy.deepcopy(one), copy.copy(one)):
            assert type(copied) is record and copied == one

    def test_immutable_and_compared_by_value(self, record, fields, defaults, bad):
        one, other = record(*fields.values()), record(**fields)
        assert one == other and hash(one) == hash(other) and len({one, other}) == 1
        for name in (*bad[0][0], "no_such_field"):
            with pytest.raises(AttributeError):
                setattr(one, name, None)
        assert one == other
