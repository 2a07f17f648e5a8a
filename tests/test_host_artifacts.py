import base64

import pytest

from tests.conftest import run_pipeline
from watchtriage import simulator
from watchtriage.correlate import Confidence, corroborate
from watchtriage.host_artifacts import (
    TransferProtocol,
    load_host_artifacts,
    locate_host_artifacts,
    parse_filezilla,
    parse_known_hosts,
)

RECENTSERVERS_XML = """\
<?xml version="1.0" encoding="UTF-8"?>
<FileZilla3 version="3.66.4" platform="windows">
  <RecentServers>
    <Server>
      <Host>172.30.1.76</Host>
      <Port>2221</Port>
      <Protocol>0</Protocol>
      <Type>0</Type>
      <User>watch</User>
      <Logontype>1</Logontype>
    </Server>
    <Server>
      <Host>192.162.35.52</Host>
      <Port>2222</Port>
      <Protocol>1</Protocol>
    </Server>
  </RecentServers>
</FileZilla3>
"""


class TestParseFilezilla:
    def test_recentservers_entries(self):
        entries, warnings = parse_filezilla(RECENTSERVERS_XML)
        assert warnings == []
        assert entries[0].host == "172.30.1.76"
        assert entries[0].port == 2221
        assert entries[0].protocol == TransferProtocol.FTP
        assert entries[1].protocol == TransferProtocol.SFTP

    def test_zero_server_elements(self):
        xml = '<?xml version="1.0"?><FileZilla3><RecentServers/></FileZilla3>'
        entries, warnings = parse_filezilla(xml)
        assert entries == []
        assert warnings == []

    def test_missing_host_skipped_with_warning(self):
        xml = "<FileZilla3><RecentServers><Server><Port>21</Port></Server></RecentServers></FileZilla3>"
        entries, warnings = parse_filezilla(xml)
        assert entries == []
        assert len(warnings) == 1

    def test_malformed_xml_fatal_with_line_number(self):
        with pytest.raises(ValueError, match="XML syntax error") as exc:
            parse_filezilla("<FileZilla3>\n  <RecentServers>\n</FileZilla3>")
        assert "line" in str(exc.value)

    def test_unknown_protocol_code_maps_to_other(self):
        xml = "<F><Server><Host>1.2.3.4</Host><Port>21</Port><Protocol>9</Protocol></Server></F>"
        entries, _ = parse_filezilla(xml)
        assert entries[0].protocol == TransferProtocol.OTHER

    def test_out_of_range_port_skipped(self):
        xml = "<F><Server><Host>1.2.3.4</Host><Port>70000</Port></Server></F>"
        entries, warnings = parse_filezilla(xml)
        assert entries == []
        assert warnings

    def test_port_in_other_digits_skipped(self):
        xml = "<F><Server><Host>1.2.3.4</Host><Port>٢١</Port></Server></F>"
        entries, warnings = parse_filezilla(xml)
        assert entries == []
        assert warnings == ["server element #1 has bad port '٢١'; skipped"]

    def test_round_trip_of_simulated_entries(self):
        scenario = simulator.preset_case_study()
        xml, _ = simulator.render_host_artifacts(scenario)
        entries, warnings = parse_filezilla(xml)
        assert warnings == []
        expected = [(h.host, h.port) for h in scenario.host_side if h.kind == "recentservers"]
        assert [(e.host, e.port) for e in entries] == expected


# The sftp preset's "[192.162.35.52]:2222" line as OpenSSH hashes it
# (HashKnownHosts yes): HMAC-SHA1 of the pattern under a fixed 20-byte salt.
HASHED_LINE = (
    "|1|/Bt/BGtBEqoV4MOo3x5PQOdOItc=|E/ck+VX1XyN5lmlSs2hzwvb+lo0= ssh-ed25519 "
    "AAAAC3NzaC1lZDI1NTE5AAAAIGtra2tra2tra2tra2tra2tra2tra2tra2tra2tra2tr"
)


def _b64key():
    return base64.b64encode(b"\x00\x00\x00\x0bssh-ed25519" + b"\x00\x00\x00\x20" + b"k" * 32).decode()


class TestParseKnownHosts:
    def test_bracketed_pattern_yields_embedded_port(self):
        text = f"[192.162.35.52]:2222 ssh-ed25519 {_b64key()}\n"
        entries, warnings = parse_known_hosts(text)
        assert warnings == []
        entry = entries[0]
        assert (entry.host, entry.port) == ("192.162.35.52", 2222)

    @pytest.mark.parametrize("pattern", ["[192.162.35.52]:٢٢٢٢", "[192.162.35.52]:", "[192.162.35.52]"])
    def test_bracketed_pattern_without_an_ascii_port_skipped(self, pattern):
        entries, warnings = parse_known_hosts(f"{pattern},10.0.0.7 ssh-ed25519 {_b64key()}\n")
        assert [(e.host, e.port) for e in entries] == [("10.0.0.7", 22)]
        assert warnings == [f"line 1: bad [host]:port pattern {pattern!r}; skipped"]

    def test_plain_host_defaults_to_port_22(self):
        entries, _ = parse_known_hosts(f"10.0.0.7 ecdsa-sha2-nistp256 {_b64key()}\n")
        assert entries[0].port == 22
        assert entries[0].host == "10.0.0.7"

    def test_empty_file(self):
        entries, warnings = parse_known_hosts("")
        assert entries == [] and warnings == []

    def test_comments_and_blanks_ignored(self):
        text = f"# comment\n\n10.0.0.7 ssh-rsa {_b64key()}\n"
        entries, _ = parse_known_hosts(text)
        assert len(entries) == 1

    def test_comma_separated_patterns_become_entries(self):
        text = f"alpha,10.0.0.7 ssh-rsa {_b64key()}\n"
        entries, _ = parse_known_hosts(text)
        assert [(e.host, e.port) for e in entries] == [("alpha", 22), ("10.0.0.7", 22)]

    def test_malformed_line_warns_and_skips(self):
        entries, warnings = parse_known_hosts("only-two fields\n")
        assert entries == []
        assert warnings

    def test_bad_base64_key_warns(self):
        entries, warnings = parse_known_hosts("10.0.0.7 ssh-rsa !!!notbase64!!!\n")
        assert entries == []
        assert warnings

    def test_hashed_entry_never_matches_plaintext_query(self):
        # A hashed line for the session's own endpoint names no host, so it
        # is skipped with a warning and corroborates nothing; the same host
        # written in plain text does.
        entries, warnings = parse_known_hosts(f"# hashed\n{HASHED_LINE}\n")
        assert entries == []
        assert warnings == ["line 2: hashed host pattern names no host to match; skipped"]
        plain, _ = parse_known_hosts(f"[192.162.35.52]:2222 ssh-ed25519 {_b64key()}\n")
        sessions = run_pipeline(simulator.preset_sftp_server(), with_host=False)["sessions"]
        assert [f.confidence for f in corroborate(sessions, (), entries)] == [Confidence.CONSISTENT]
        assert [f.confidence for f in corroborate(sessions, (), plain)] == [Confidence.CORROBORATED]

    def test_line_numbers_count_newlines_only(self):
        # A form feed inside a comment is no line break: the bad line below
        # it is still physical line 3.
        text = f"# seen\x0cagain\n10.0.0.7 ssh-rsa {_b64key()}\nonly-two fields\n"
        entries, warnings = parse_known_hosts(text)
        assert [e.host for e in entries] == ["10.0.0.7"]
        assert warnings == ["line 3: fewer than 3 fields; skipped"]

    @pytest.mark.parametrize("gap", ["\x1c", "\x0c", "\x85", "\u2028", "\u3000"])
    def test_fields_split_at_spaces_and_tabs_only(self, gap):
        # OpenSSH splits a line at spaces and tabs; any other whitespace is
        # part of the field it sits in.
        entries, warnings = parse_known_hosts(f"10.0.0.7{gap}pad ssh-ed25519 {_b64key()}\n")
        assert warnings == []
        assert [(e.host, e.port, e.key_type) for e in entries] == [(f"10.0.0.7{gap}pad", 22, "ssh-ed25519")]
        tabbed, warnings = parse_known_hosts(f"10.0.0.7\t \tssh-ed25519\t{_b64key()}\n")
        assert warnings == []
        assert [(e.host, e.key_type) for e in tabbed] == [("10.0.0.7", "ssh-ed25519")]

    @pytest.mark.parametrize("marker", ["@revoked", "@cert-authority"])
    def test_marker_line_skipped_with_warning(self, marker):
        # A marker is set by hand, never by a connection: it corroborates nothing.
        text = f"{marker} 172.30.1.76 ssh-ed25519 {_b64key()}\n10.0.0.7 ssh-rsa {_b64key()}\n"
        entries, warnings = parse_known_hosts(text)
        assert [e.host for e in entries] == ["10.0.0.7"]
        assert warnings == [f"line 1: {marker} marker line records no connection; skipped"]

    def test_round_trip_of_simulated_lines(self):
        scenario = simulator.preset_case_study()
        _, known_hosts = simulator.render_host_artifacts(scenario)
        entries, warnings = parse_known_hosts(known_hosts)
        assert warnings == []
        expected = [(h.host, h.port) for h in scenario.host_side if h.kind == "known_hosts"]
        assert [(e.host, e.port) for e in entries] == expected


class TestScanning:
    def test_locates_canonical_windows_layout(self, tmp_path):
        fz_dir = tmp_path / "Users" / "leaker" / "AppData" / "Roaming" / "FileZilla"
        fz_dir.mkdir(parents=True)
        (fz_dir / "recentservers.xml").write_text(RECENTSERVERS_XML)
        ssh_dir = tmp_path / "Users" / "leaker" / ".ssh"
        ssh_dir.mkdir(parents=True)
        (ssh_dir / "known_hosts").write_text(f"[10.1.2.3]:2222 ssh-ed25519 {_b64key()}\n")
        (tmp_path / "unrelated.txt").write_text("ignore me")

        found = locate_host_artifacts(tmp_path)
        names = sorted(p.name for p in found)
        assert names == ["known_hosts", "recentservers.xml"]

        artifacts = load_host_artifacts(found)
        assert len(artifacts.ftp_entries) == 2
        assert len(artifacts.known_host_entries) == 1
        assert len(artifacts.items) == 2  # one digest per source file

    def test_hashed_known_hosts_file_warns_and_leaves_sftp_consistent(self, tmp_path):
        path = tmp_path / "known_hosts"
        path.write_text(HASHED_LINE + "\n")
        artifacts = load_host_artifacts([path])
        assert artifacts.known_host_entries == []
        assert artifacts.warnings == [f"{path}: line 1: hashed host pattern names no host to match; skipped"]
        assert len(artifacts.items) == 1  # the file is still cited by digest
        sessions = run_pipeline(simulator.preset_sftp_server(), with_host=False)["sessions"]
        findings = corroborate(sessions, artifacts.ftp_entries, artifacts.known_host_entries)
        assert [f.confidence for f in findings] == [Confidence.CONSISTENT]

    def test_flat_directory_layout(self, tmp_path):
        (tmp_path / "recentservers.xml").write_text(RECENTSERVERS_XML)
        found = locate_host_artifacts(tmp_path)
        assert [p.name for p in found] == ["recentservers.xml"]
