import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import watchtriage
from watchtriage import cli

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


class TestCommandImports:
    def test_verify_loads_no_parser_policy_simulator_or_subprocess(self, ftp_bundle):
        code, loaded = modules_loaded_by(["verify", "--bundle", str(ftp_bundle)])
        assert code == 0
        assert "watchtriage.acquisition" in loaded  # taken before the package was imported
        unused = {f"watchtriage.{m}" for m in ("correlate", "dumpsys", "policy", "report", "simulator")}
        assert not loaded & (unused | {"subprocess"})

    def test_report_loads_neither_policy_nor_simulator(self, ftp_bundle):
        code, loaded = modules_loaded_by(
            ["report", "--bundle", str(ftp_bundle), "--host-artifacts", str(ftp_bundle / "host_artifacts")])
        assert code == 0
        assert "watchtriage.report" in loaded
        assert not loaded & {"watchtriage.policy", "watchtriage.simulator"}


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
