"""Replay the committed .vrec corpus against live servers.

The corpus under ``tests/corpus/`` is the regression contract for the
wire protocol: every honest recording must replay byte-for-byte on the
socket server, whose query answers must equal the in-process client's,
the forged recording must be caught, and re-recording from scratch must
reproduce the committed bytes exactly.
"""

from pathlib import Path

import pytest

from repro.api import VChainClient
from repro.testing import (
    CORPUS_SCENARIOS,
    corpus_network,
    load_recording,
    record_scenario,
)
from repro.testing.__main__ import main as _testing_cli
from repro.wire import (
    DIR_REQUEST,
    QueryRequest,
    decode_query_response,
    decode_request,
    encode_recording,
    encode_response,
    peek_deadline,
)

CORPUS_DIR = Path(__file__).parent / "corpus"

HONEST = tuple(s for s in CORPUS_SCENARIOS if s != "forged")


def test_corpus_is_complete():
    for scenario in CORPUS_SCENARIOS:
        assert (CORPUS_DIR / f"{scenario}.vrec").exists()


@pytest.mark.parametrize("scenario", HONEST)
def test_honest_corpus_replays_byte_identical(corpus_replayer, scenario):
    report = corpus_replayer.replay(CORPUS_DIR / f"{scenario}.vrec")
    assert report.ok, report.mismatches[:1]
    assert report.requests == report.responses > 0


def test_forged_corpus_is_caught(corpus_replayer):
    report = corpus_replayer.replay(CORPUS_DIR / "forged.vrec")
    assert len(report.mismatches) == 1
    [mismatch] = report.mismatches
    assert mismatch.expected != mismatch.actual


def test_replay_digest_is_deterministic(corpus_replayer):
    """Two replays produce the same digest, and the query answers the
    socket server gave equal the in-process client's byte for byte."""
    path = CORPUS_DIR / "query.vrec"
    first = corpus_replayer.replay(path)
    second = corpus_replayer.replay(path)
    assert first.ok
    assert first.digest == second.digest
    # the replay matched the recording, so its query responses are the
    # socket server's answers: re-ask each query in-process
    recording = load_recording(path)
    net = corpus_network(recording.meta)
    try:
        backend = net.accumulator.backend
        local = VChainClient.local(net.endpoint)
        requests = {}
        compared = 0
        for frame in recording.frames:
            if frame.direction == DIR_REQUEST:
                _deadline, inner = peek_deadline(frame.payload)
                requests[frame.channel] = decode_request(inner)
                continue
            request = requests.pop(frame.channel)
            if not isinstance(request, QueryRequest):
                continue
            served, vo, _stats = decode_query_response(backend, frame.payload[1:])
            answer = local.execute(request.query, batch=request.batch)
            assert encode_response(backend, served, vo) == encode_response(
                backend, answer.results, answer.vo
            )
            compared += 1
        assert compared > 0
    finally:
        net.close()


@pytest.mark.slow
@pytest.mark.parametrize("scenario", CORPUS_SCENARIOS)
def test_recording_regenerates_byte_identical(scenario):
    """Re-recording a scenario from scratch matches the committed file."""
    committed = (CORPUS_DIR / f"{scenario}.vrec").read_bytes()
    assert encode_recording(record_scenario(scenario)) == committed


def test_cli_replay_passes_on_the_corpus(capsys):
    paths = [str(CORPUS_DIR / f"{s}.vrec") for s in CORPUS_SCENARIOS]
    assert _testing_cli(["replay", *paths]) == 0
    out = capsys.readouterr().out
    assert out.count("ok ") == len(CORPUS_SCENARIOS)


def test_cli_flags_unexpected_mismatches(tmp_path, capsys):
    """A forged recording whose metadata does not admit to the forgery
    must fail the CLI."""
    recording = record_scenario("forged")
    meta = dict(recording.meta)
    meta["expect_mismatches"] = "0"
    dishonest = type(recording)(
        label=recording.label, meta=meta, frames=recording.frames
    )
    path = tmp_path / "dishonest.vrec"
    path.write_bytes(encode_recording(dishonest))
    assert _testing_cli(["replay", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_inspect_reports_frames(capsys):
    path = str(CORPUS_DIR / "query.vrec")
    assert _testing_cli(["inspect", path]) == 0
    out = capsys.readouterr().out
    assert "corpus-query" in out
    assert "meta scenario = query" in out
