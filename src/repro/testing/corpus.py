"""Deterministic recorded-session corpora for regression testing.

Each corpus scenario builds the same seeded demo network (mined chains
are byte-identical run to run), records one client session against a
live socket server, and normalizes the recording so the committed
``.vrec`` bytes are fully reproducible — ``tools/record_corpus.py
--check`` regenerates every scenario and compares byte for byte.

Scenarios:

* ``query`` — header sync, a repeated wide query (cache-warm second
  run) and a spread of narrow window queries
* ``batch`` — the same queries through ``execute_many`` with and
  without batch verification, plus a stats request
* ``subscription`` — register with ``since_height=0`` against the
  fully mined chain, poll the catch-up deliveries, flush, poll again
  (empty), close, then poll the dead id for its error frame
* ``forged`` — an honest query whose recorded VO gets one bit flipped;
  replaying it must yield exactly one mismatch, proving the byte-parity
  gate actually bites
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro import ProtocolParams, VChainNetwork
from repro.api import AsyncSocketServer, SocketTransport, VChainClient
from repro.api.builder import QueryBuilder
from repro.chain import DataObject
from repro.core.query import TimeWindowQuery
from repro.crypto.accel import dispatch
from repro.crypto.backend import PairingBackend
from repro.errors import SubscriptionError
from repro.testing.recorder import SessionRecorder, load_recording
from repro.testing.replay import ReplayReport, normalize_recording, replay_recording
from repro.wire import (
    DIR_REQUEST,
    QueryRequest,
    RecordedFrame,
    SessionRecording,
    WireError,
    decode_query_response,
    decode_request,
    encode_recording,
    encode_time_window_vo,
    peek_deadline,
)

_STATUS_OK = 0

CORPUS_SCENARIOS = ("query", "batch", "subscription", "forged")

DEMO_VOCAB = ["Sedan", "Van", "Benz", "BMW", "Audi", "Tesla", "Ford"]


def make_demo_objects(
    rng: random.Random,
    n: int,
    start_id: int,
    timestamp: int,
    dims: int = 2,
    bits: int = 8,
    vocab: list[str] | None = None,
) -> list[DataObject]:
    """Random objects for ad-hoc chains (shared with the test suite)."""
    vocab = vocab or DEMO_VOCAB
    space = 1 << bits
    return [
        DataObject(
            object_id=start_id + i,
            timestamp=timestamp,
            vector=tuple(rng.randrange(space) for _ in range(dims)),
            keywords=frozenset(rng.sample(vocab, 2)),
        )
        for i in range(n)
    ]


def corpus_network(meta: dict[str, str] | None = None) -> VChainNetwork:
    """The seeded demo network a corpus recording was captured against.

    ``meta`` is a recording's metadata map; the defaults match
    :func:`record_scenario`, so replaying a committed corpus rebuilds
    the exact chain it was recorded on.  Mining is fully deterministic
    (seeded setup, seeded objects, ``difficulty_bits=0``), which is
    what makes byte-level replay possible at all.
    """
    meta = dict(meta or {})
    seed = int(meta.get("seed", "33"))
    blocks = int(meta.get("blocks", "8"))
    net = VChainNetwork.create(
        backend_name=meta.get("backend", "simulated"),
        params=ProtocolParams(mode="both", bits=8, skip_size=2, difficulty_bits=0),
        seed=seed,
    )
    try:
        rng = random.Random(seed)
        for height in range(blocks):
            objects = make_demo_objects(rng, 3, height * 3, timestamp=height * 10)
            net.mine(objects, timestamp=height * 10)
    except Exception:
        net.close()
        raise
    return net


def _base_meta(scenario: str) -> dict[str, str]:
    return {
        "format": "corpus-v1",
        "scenario": scenario,
        "seed": "33",
        "blocks": "8",
        "backend": "simulated",
        "accel": "pure",
        "expect_mismatches": "1" if scenario == "forged" else "0",
    }


@contextmanager
def _pinned_accel(impl: str) -> Iterator[None]:
    """Pin the arithmetic provider for a record/replay session.

    The stats response names the live provider, so the serving side
    must run the impl the corpus was recorded under — crypto bytes are
    provider-independent, but the observability snapshot is honest
    about its environment.  The previous selection is restored on exit.
    """
    previous = dispatch.active_impl()
    dispatch.set_impl(impl)
    try:
        yield
    finally:
        dispatch.set_impl(previous)


def _window_query(builder: QueryBuilder) -> TimeWindowQuery:
    query = builder.build()
    assert isinstance(query, TimeWindowQuery)
    return query


def _corpus_queries(client: VChainClient) -> list[TimeWindowQuery]:
    wide = _window_query(
        client.query()
        .window(0, 200)
        .range(low=(0,), high=(255,))
        .all_of("Sedan")
        .any_of("Benz", "BMW")
    )
    narrow = [
        _window_query(
            client.query().window(i * 20, i * 20 + 30).any_of(DEMO_VOCAB[i % 5])
        )
        for i in range(3)
    ]
    return [wide, *narrow]


def _query_steps(client: VChainClient) -> None:
    client.sync_headers()
    queries = _corpus_queries(client)
    client.execute(queries[0])
    client.execute(queries[0])  # second run exercises the serving caches
    for query in queries[1:]:
        client.execute(query)


def _batch_steps(client: VChainClient) -> None:
    client.sync_headers()
    queries = _corpus_queries(client)
    client.execute_many(queries, batch=True)
    client.execute_many(queries, batch=False)
    client.server_stats()


def _subscription_steps(client: VChainClient) -> None:
    client.sync_headers()
    stream = client.subscribe().any_of("Benz", "BMW").open(since_height=0)
    stream.poll()  # catch-up deliveries for the whole mined chain
    stream.flush()
    stream.poll()  # drained: nothing due
    query_id = stream.query_id
    stream.close()
    try:
        client.transport.poll(query_id)  # dead id: a typed error frame
    except SubscriptionError:
        pass


def _forged_steps(client: VChainClient) -> None:
    client.sync_headers()
    client.execute(_corpus_queries(client)[0])


_SCENARIO_STEPS = {
    "query": _query_steps,
    "batch": _batch_steps,
    "subscription": _subscription_steps,
    "forged": _forged_steps,
}


def _forge_query_response(
    backend: PairingBackend, recording: SessionRecording
) -> SessionRecording:
    """Flip one bit inside the first query response's VO bytes."""
    frames = list(recording.frames)
    last_request: dict[int, bytes] = {}
    for i, frame in enumerate(frames):
        if frame.direction == DIR_REQUEST:
            last_request[frame.channel] = frame.payload
            continue
        if not frame.payload or frame.payload[0] != _STATUS_OK:
            continue
        try:
            _deadline_ms, inner = peek_deadline(last_request.get(frame.channel, b""))
            request = decode_request(inner)
        except WireError:
            continue
        if not isinstance(request, QueryRequest):
            continue
        _results, vo, _stats = decode_query_response(backend, frame.payload[1:])
        vo_bytes = encode_time_window_vo(backend, vo)
        start = frame.payload.find(vo_bytes)
        if start < 0 or not vo_bytes:
            raise ValueError("could not locate the VO bytes to forge")
        tampered = bytearray(frame.payload)
        tampered[start + len(vo_bytes) // 2] ^= 0x01
        frames[i] = RecordedFrame(
            seq=frame.seq,
            channel=frame.channel,
            direction=frame.direction,
            timestamp_us=frame.timestamp_us,
            payload=bytes(tampered),
        )
        return SessionRecording(
            label=recording.label, meta=dict(recording.meta), frames=tuple(frames)
        )
    raise ValueError("no query response found to forge")


def record_scenario(scenario: str) -> SessionRecording:
    """Record one corpus scenario from scratch; fully deterministic."""
    try:
        steps = _SCENARIO_STEPS[scenario]
    except KeyError:
        raise ValueError(f"unknown corpus scenario {scenario!r}") from None
    meta = _base_meta(scenario)
    with _pinned_accel(meta["accel"]):
        net = corpus_network(meta)
        recorder = SessionRecorder(label=f"corpus-{scenario}", meta=meta)
        backend = net.accumulator.backend
        try:
            server = AsyncSocketServer(net.endpoint).start()
            try:
                transport = SocketTransport(
                    server.address, backend, tap=recorder.tap()
                )
                client = VChainClient(
                    transport, net.accumulator, net.encoder, net.params
                )
                try:
                    steps(client)
                finally:
                    client.close()
            finally:
                server.stop()
        finally:
            net.close()
    recording = normalize_recording(backend, recorder.recording())
    if scenario == "forged":
        recording = _forge_query_response(backend, recording)
    return recording


def record_corpus(out_dir: str | os.PathLike[str]) -> dict[str, bytes]:
    """Record every scenario into ``out_dir``; returns the file bytes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, bytes] = {}
    for scenario in CORPUS_SCENARIOS:
        data = encode_recording(record_scenario(scenario))
        (out / f"{scenario}.vrec").write_bytes(data)
        written[scenario] = data
    return written


class CorpusReplayer:
    """Replays ``.vrec`` corpora against freshly served demo networks."""

    def replay(self, path: str | os.PathLike[str]) -> ReplayReport:
        """Serve the recording's network and re-drive the session."""
        recording = load_recording(path)
        with _pinned_accel(recording.meta.get("accel", "pure")):
            net = corpus_network(recording.meta)
            try:
                live = AsyncSocketServer(net.endpoint).start()
                try:
                    return replay_recording(
                        recording, live.address, net.accumulator.backend
                    )
                finally:
                    live.stop()
            finally:
                net.close()
