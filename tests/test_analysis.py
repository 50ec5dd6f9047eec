"""Tests for the vlint static-analysis suite (``repro.analysis``).

Each rule gets a minimal fixture project that violates it exactly once,
so the assertions pin both the detection and the absence of collateral
findings.  The suite also runs the analyzer over this repository itself
— the clean-tree run is the same invocation CI gates on — and exercises
the suppression comments and the CLI exit codes.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import AnalysisError, Finding, Severity, is_suppressed, run
from repro.analysis.__main__ import main

REPO_ROOT = Path(__file__).resolve().parents[1]


def make_project(tmp_path, files):
    """Write ``{relative path: source}`` under ``tmp_path`` and return it."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return tmp_path


def only_finding(report, rule):
    """The report's single finding, asserting there is exactly one."""
    assert [f.rule for f in report.findings] == [rule], report.render()
    return report.findings[0]


# -- one violating fixture per rule -------------------------------------------
CODEC_FIXTURE = {
    "src/repro/wire/fixture_codec.py": """\
        from dataclasses import dataclass


        @dataclass
        class Point:
            x: int
            y: int


        def write_point(writer, point: Point) -> None:
            writer.u64(point.x)  # forgets point.y


        def read_point(reader):
            return Point(reader.u64(), reader.u64())
        """,
}


def test_codec_rule_flags_unread_field(tmp_path):
    root = make_project(tmp_path, CODEC_FIXTURE)
    finding = only_finding(
        run(root, rules=["codec-completeness"]), "codec-completeness"
    )
    assert "Point" in finding.message
    assert "y" in finding.message
    assert finding.path == "src/repro/wire/fixture_codec.py"


def test_codec_rule_flags_missing_decoder(tmp_path):
    fixture = {
        "src/repro/wire/fixture_codec.py": """\
            from dataclasses import dataclass


            @dataclass
            class Point:
                x: int
                y: int


            def write_point(writer, point: Point) -> None:
                writer.u64(point.x)
                writer.u64(point.y)
            """,
    }
    root = make_project(tmp_path, fixture)
    finding = only_finding(
        run(root, rules=["codec-completeness"]), "codec-completeness"
    )
    assert "never reconstructed by a decoder" in finding.message


LOCK_FIXTURE = {
    "src/repro/cache/fixture_box.py": """\
        import threading


        class Box:
            def __init__(self) -> None:
                self._lock = threading.Lock()
                self._value = 0

            def set(self, value):
                self._value = value

            def get(self):
                with self._lock:
                    return self._value
        """,
}


def test_lock_rule_flags_unlocked_write(tmp_path):
    root = make_project(tmp_path, LOCK_FIXTURE)
    finding = only_finding(run(root, rules=["lock-discipline"]), "lock-discipline")
    assert "Box.set" in finding.message
    assert "self._value" in finding.message
    assert finding.line == 10  # the write inside set(), not the ones in __init__


PICKLE_FIXTURE = {
    "src/repro/parallel/fixture_state.py": """\
        import threading


        class WorkerState:
            def __init__(self) -> None:
                self._guard = threading.Lock()


        POOL_STATE_TYPES = (WorkerState,)
        """,
}


def test_pickle_rule_flags_lock_in_pool_state(tmp_path):
    root = make_project(tmp_path, PICKLE_FIXTURE)
    finding = only_finding(run(root, rules=["pickle-safety"]), "pickle-safety")
    assert "WorkerState._guard" in finding.message
    assert "threading.Lock" in finding.message


def test_pickle_rule_exempts_getstate_owners(tmp_path):
    fixture = {
        "src/repro/parallel/fixture_state.py": """\
            import threading


            class WorkerState:
                def __init__(self) -> None:
                    self._guard = threading.Lock()

                def __getstate__(self):
                    return {}


            POOL_STATE_TYPES = (WorkerState,)
            """,
    }
    root = make_project(tmp_path, fixture)
    assert run(root, rules=["pickle-safety"]).ok


BACKEND_FIXTURE = {
    "src/repro/fixture_backend.py": """\
        from abc import ABC, abstractmethod


        class Base(ABC):
            @abstractmethod
            def op(self, left, right):
                raise NotImplementedError


        class Renamed(Base):
            def op(self, a, b):
                return a
        """,
}


def test_backend_rule_flags_renamed_parameters(tmp_path):
    root = make_project(tmp_path, BACKEND_FIXTURE)
    finding = only_finding(
        run(root, rules=["backend-conformance"]), "backend-conformance"
    )
    assert "Renamed.op" in finding.message
    assert "keyword callers will break" in finding.message


def test_backend_rule_flags_missing_method(tmp_path):
    fixture = {
        "src/repro/fixture_backend.py": """\
            from abc import ABC, abstractmethod


            class Base(ABC):
                @abstractmethod
                def op(self, left, right):
                    raise NotImplementedError


            class Hollow(Base):
                def other(self):
                    return 1
            """,
    }
    root = make_project(tmp_path, fixture)
    finding = only_finding(
        run(root, rules=["backend-conformance"]), "backend-conformance"
    )
    assert "Hollow" in finding.message
    assert "unimplemented" in finding.message
    assert "op" in finding.message


EXPORTS_FIXTURE = {
    "src/repro/__init__.py": """\
        class Thing:
            pass


        __all__ = ["Thing"]
        """,
    "docs/API.md": """\
        ## Public API reference

        ### `repro`

        `Thing` builds things; `Ghost` does not exist.
        """,
}


def test_exports_rule_flags_phantom_documentation(tmp_path):
    root = make_project(tmp_path, EXPORTS_FIXTURE)
    finding = only_finding(run(root, rules=["exports-parity"]), "exports-parity")
    assert "Ghost" in finding.message
    assert finding.path == "docs/API.md"


BLOCKING_FIXTURE = {
    "src/repro/api/fixture_aio.py": """\
        import socket
        import time


        async def handle(conn):
            time.sleep(0.1)
            return conn
        """,
}


def test_blocking_rule_flags_time_sleep_in_coroutine(tmp_path):
    root = make_project(tmp_path, BLOCKING_FIXTURE)
    finding = only_finding(run(root, rules=["async-discipline"]), "async-discipline")
    assert "handle" in finding.message
    assert "time.sleep" in finding.message
    assert finding.line == 6


def test_blocking_rule_flags_socket_and_result_calls(tmp_path):
    fixture = {
        "src/repro/api/fixture_aio.py": """\
            import socket


            class Server:
                async def dial(self, address, future):
                    sock = socket.create_connection(address)
                    return future.result()
            """,
    }
    root = make_project(tmp_path, fixture)
    report = run(root, rules=["async-discipline"])
    messages = [f.message for f in report.findings]
    assert len(messages) == 2, report.render()
    assert any("socket.create_connection" in m for m in messages)
    assert any(".result()" in m for m in messages)
    assert all("Server.dial" in m for m in messages)


def test_blocking_rule_exempts_sync_defs_and_nested_functions(tmp_path):
    fixture = {
        "src/repro/api/fixture_aio.py": """\
            import socket
            import time


            def sync_path(address):
                # blocking is fine off the loop
                return socket.create_connection(address)


            async def dispatch(loop, pool, address):
                def blocking_body():
                    time.sleep(0.1)
                    return socket.create_connection(address)

                return await loop.run_in_executor(pool, blocking_body)
            """,
    }
    root = make_project(tmp_path, fixture)
    assert run(root, rules=["async-discipline"]).ok


FSYNC_FIXTURE = {
    "src/repro/storage/fixture_log.py": """\
        import os


        def install_manifest(tmp, path):
            with open(tmp, "wb") as handle:
                handle.write(b"{}")
            os.replace(tmp, path)
        """,
}


def test_fsync_rule_flags_replace_without_fsync(tmp_path):
    root = make_project(tmp_path, FSYNC_FIXTURE)
    finding = only_finding(run(root, rules=["fsync-discipline"]), "fsync-discipline")
    assert "os.replace" in finding.message
    assert "install_manifest" in finding.message
    assert finding.line == 7


def test_fsync_rule_flags_index_write_before_data_sync(tmp_path):
    fixture = {
        "src/repro/storage/fixture_log.py": """\
            import os


            class Log:
                def append(self, record):
                    self._segment_file.write(record)
                    self._index_file.write(b"entry")
                    self._flush(self._index_file)

                def sneaky(self, record):
                    # syncing the index itself proves nothing about the data
                    self._index_file.flush()
                    self._index_file.write(b"entry")
            """,
    }
    root = make_project(tmp_path, fixture)
    report = run(root, rules=["fsync-discipline"])
    messages = [f.message for f in report.findings]
    assert len(messages) == 2, report.render()
    assert any("Log.append" in m for m in messages)
    assert any("Log.sneaky" in m for m in messages)
    assert all("index entry" in m for m in messages)


def test_fsync_rule_accepts_the_durable_idioms(tmp_path):
    fixture = {
        "src/repro/storage/fixture_log.py": """\
            import os


            def install_manifest(tmp, path):
                with open(tmp, "wb") as handle:
                    handle.write(b"{}")
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, path)


            class Log:
                def append(self, record):
                    self._segment_file.write(record)
                    self._flush(self._segment_file)
                    self._index_file.write(b"entry")
                    self._flush(self._index_file)
            """,
    }
    root = make_project(tmp_path, fixture)
    assert run(root, rules=["fsync-discipline"]).ok


ACCEL_FIXTURE = {
    "src/repro/crypto/fixture_field.py": """\
        import _accelmodule


        def inv(value, modulus):
            return _accelmodule.modinv(value, modulus)
        """,
}


def test_accel_rule_flags_direct_extension_import(tmp_path):
    root = make_project(tmp_path, ACCEL_FIXTURE)
    finding = only_finding(run(root, rules=["accel-dispatch"]), "accel-dispatch")
    assert "_accelmodule" in finding.message
    assert "dispatch" in finding.message
    assert finding.line == 1


def test_accel_rule_flags_provider_and_extension_imports(tmp_path):
    fixture = {
        "src/repro/crypto/fixture_curve.py": """\
            from repro.crypto.accel import native
            from repro.crypto.accel import _accelmodule
            """,
        "src/repro/accumulators/fixture_keys.py": """\
            from repro.crypto.accel.pure import build
            """,
    }
    root = make_project(tmp_path, fixture)
    report = run(root, rules=["accel-dispatch"])
    assert len(report.findings) == 3, report.render()
    assert all(f.rule == "accel-dispatch" for f in report.findings)


def test_accel_rule_accepts_the_seam_and_the_providers(tmp_path):
    fixture = {
        "src/repro/crypto/fixture_field.py": """\
            from repro.crypto.accel import dispatch


            def inv(value, modulus):
                return dispatch.modinv(value, modulus)
            """,
        "src/repro/crypto/accel/native.py": """\
            from repro.crypto.accel import _accelmodule, pure
            """,
        "src/repro/crypto/accel/dispatch.py": """\
            def load():
                from repro.crypto.accel import native, pure
                return (native, pure)
            """,
    }
    root = make_project(tmp_path, fixture)
    assert run(root, rules=["accel-dispatch"]).ok


def test_exports_rule_flags_undocumented_export(tmp_path):
    fixture = dict(EXPORTS_FIXTURE)
    fixture["docs/API.md"] = """\
        ## Public API reference

        ### `repro`

        Nothing documented here.
        """
    root = make_project(tmp_path, fixture)
    finding = only_finding(run(root, rules=["exports-parity"]), "exports-parity")
    assert "Thing" in finding.message
    assert "does not document" in finding.message


# -- suppression ---------------------------------------------------------------
def test_trailing_suppression_comment(tmp_path):
    fixture = {
        "src/repro/cache/fixture_box.py": textwrap.dedent(
            LOCK_FIXTURE["src/repro/cache/fixture_box.py"]
        ).replace(
            "self._value = value",
            "self._value = value  # vlint: disable=lock-discipline -- test",
        ),
    }
    root = make_project(tmp_path, fixture)
    report = run(root, rules=["lock-discipline"])
    assert report.ok
    assert report.suppressed == 1


def test_comment_block_above_suppresses(tmp_path):
    fixture = {
        "src/repro/cache/fixture_box.py": textwrap.dedent(
            LOCK_FIXTURE["src/repro/cache/fixture_box.py"]
        ).replace(
            "        self._value = value",
            "        # benign: single-threaded test fixture\n"
            "        # vlint: disable=all -- fixture\n"
            "        self._value = value",
        ),
    }
    root = make_project(tmp_path, fixture)
    report = run(root, rules=["lock-discipline"])
    assert report.ok
    assert report.suppressed == 1


def test_suppression_is_per_rule():
    finding = Finding(rule="lock-discipline", path="x.py", line=1, message="m")
    assert is_suppressed(finding, ["x = 1  # vlint: disable=lock-discipline"])
    assert is_suppressed(finding, ["x = 1  # vlint: disable=all"])
    assert not is_suppressed(finding, ["x = 1  # vlint: disable=pickle-safety"])
    assert not is_suppressed(finding, ["x = 1"])


# -- the repository itself is clean --------------------------------------------
def test_repo_is_clean():
    report = run(REPO_ROOT)
    assert report.ok, report.render()
    assert len(report.rules) == 8


# -- driver and CLI ------------------------------------------------------------
def test_unknown_rule_raises(tmp_path):
    with pytest.raises(AnalysisError):
        run(tmp_path, rules=["no-such-rule"])


def test_finding_render_and_severity():
    finding = Finding(rule="r", path="src/x.py", line=7, message="broken")
    assert finding.render() == "src/x.py:7: [r] broken"
    assert finding.severity is Severity.ERROR
    assert finding.as_dict()["severity"] == "error"


def test_cli_check_fails_on_violation(tmp_path, capsys):
    root = make_project(tmp_path, LOCK_FIXTURE)
    assert main(["--root", str(root), "--check"]) == 1
    out = capsys.readouterr().out
    assert "[lock-discipline]" in out


def test_cli_without_check_reports_but_passes(tmp_path, capsys):
    root = make_project(tmp_path, LOCK_FIXTURE)
    assert main(["--root", str(root), "--rule", "lock-discipline"]) == 0
    assert "1 finding(s)" in capsys.readouterr().out


def test_cli_check_passes_on_clean_repo(capsys):
    assert main(["--root", str(REPO_ROOT), "--check"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_cli_json_output(tmp_path, capsys):
    root = make_project(tmp_path, LOCK_FIXTURE)
    assert main(["--root", str(root), "--rule", "lock-discipline", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [f["rule"] for f in payload["findings"]] == ["lock-discipline"]
    assert payload["rules"]


def test_cli_single_rule_selection(tmp_path, capsys):
    root = make_project(tmp_path, LOCK_FIXTURE)
    assert main(["--root", str(root), "--rule", "pickle-safety", "--check"]) == 0
    assert "1 rule(s) run" in capsys.readouterr().out


def test_cli_unknown_rule_is_usage_error(tmp_path, capsys):
    assert main(["--root", str(tmp_path), "--rule", "bogus"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    names = capsys.readouterr().out.split()
    assert "lock-discipline" in names
    assert "async-discipline" in names
    assert "fsync-discipline" in names
    assert "accel-dispatch" in names
    assert len(names) == 8
