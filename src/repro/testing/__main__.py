"""Command-line replay driver: ``python -m repro.testing <command>``.

``replay`` re-drives one or more ``.vrec`` recordings, either against a
server it spins up itself from the recording's metadata (the default,
the corpus path) or against an already-running endpoint (``--address
host:port``).  The exit status is 0 only when
every recording produced exactly the mismatch count its metadata
promises (``expect_mismatches``, default 0) — so the forged-VO corpus
*must* mismatch for the run to pass.

``inspect`` prints a recording's metadata and frame inventory.
"""

from __future__ import annotations

import argparse

from repro.testing.corpus import CorpusReplayer, corpus_network
from repro.testing.recorder import load_recording
from repro.testing.replay import ReplayReport, replay_recording
from repro.wire import DIR_REQUEST


def _expected_mismatches(meta: dict[str, str]) -> int:
    return int(meta.get("expect_mismatches", "0"))


def _report_line(path: str, report: ReplayReport, expected: int) -> str:
    verdict = "ok" if len(report.mismatches) == expected else "FAIL"
    return (
        f"{verdict} {path}: {report.requests} request(s), "
        f"{report.responses} response(s), {len(report.mismatches)} "
        f"mismatch(es) (expected {expected}), digest {report.digest[:16]}"
    )


def _cmd_replay(args: argparse.Namespace) -> int:
    failures = 0
    for path in args.recordings:
        recording = load_recording(path)
        expected = _expected_mismatches(recording.meta)
        if args.address is not None:
            host, _sep, port = args.address.rpartition(":")
            net = corpus_network(recording.meta)
            try:
                report = replay_recording(
                    recording, (host, int(port)), net.accumulator.backend
                )
            finally:
                net.close()
        else:
            report = CorpusReplayer().replay(path)
        print(_report_line(path, report, expected), flush=True)
        if len(report.mismatches) != expected:
            failures += 1
            for mismatch in report.mismatches[:3]:
                print(
                    f"  seq {mismatch.seq} channel {mismatch.channel}: "
                    f"expected {len(mismatch.expected)} byte(s), "
                    f"got {len(mismatch.actual)}",
                    flush=True,
                )
    return 1 if failures else 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    for path in args.recordings:
        recording = load_recording(path)
        requests = sum(
            1 for frame in recording.frames if frame.direction == DIR_REQUEST
        )
        channels = {frame.channel for frame in recording.frames}
        nbytes = sum(len(frame.payload) for frame in recording.frames)
        print(f"{path}: label={recording.label!r}")
        for key in sorted(recording.meta):
            print(f"  meta {key} = {recording.meta[key]}")
        print(
            f"  {len(recording.frames)} frame(s): {requests} request(s), "
            f"{len(recording.frames) - requests} response(s) over "
            f"{len(channels)} channel(s), {nbytes} payload byte(s)"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing",
        description="Replay and inspect recorded serving-tier sessions.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    replay = commands.add_parser("replay", help="re-drive recordings, check parity")
    replay.add_argument("recordings", nargs="+", help=".vrec files to replay")
    replay.add_argument(
        "--address",
        default=None,
        metavar="HOST:PORT",
        help="replay against an already-running server instead of serving",
    )
    replay.set_defaults(func=_cmd_replay)

    inspect = commands.add_parser("inspect", help="print metadata and frame counts")
    inspect.add_argument("recordings", nargs="+", help=".vrec files to inspect")
    inspect.set_defaults(func=_cmd_inspect)

    args = parser.parse_args(argv)
    result: int = args.func(args)
    return result


if __name__ == "__main__":
    raise SystemExit(main())
