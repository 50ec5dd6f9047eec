"""Deterministic replay of recorded serving-tier sessions.

:func:`replay_recording` re-drives a :class:`~repro.wire.SessionRecording`
against a live server: every recorded request is sent verbatim (one
socket per recorded channel) and every recorded response is compared to
the live answer byte for byte — after :func:`normalize_response` maps
both sides through the same normalization, which zeroes the fields that
legitimately vary between runs (SP-side timings in ``QueryStats``, the
whole ``ServerStats`` snapshot) and leaves everything else, VO bytes
included, untouched.  A recording therefore pins the *semantics* of a
session — results, proofs, deliveries, error frames — across code
changes and replays.
"""

from __future__ import annotations

import hashlib
import socket
from dataclasses import dataclass

from repro.api.transport import _recv_frame, _send_frame
from repro.core.prover import QueryStats
from repro.crypto.backend import PairingBackend
from repro.errors import ReproError
from repro.wire import (
    DIR_REQUEST,
    QueryRequest,
    RecordedFrame,
    ServerStats,
    SessionRecording,
    StatsRequest,
    WireError,
    decode_query_response,
    decode_request,
    encode_query_response,
    encode_stats_response,
    peek_deadline,
)

_STATUS_OK = 0

#: stats responses normalize to this constant snapshot: the counters
#: depend on request interleaving and on the serving configuration,
#: neither of which a byte-parity gate should pin
_EMPTY_STATS = ServerStats(endpoint={}, caches={}, engine={}, pool=None, server=None)


@dataclass(frozen=True)
class ReplayMismatch:
    """One recorded/live response pair that differed after normalization."""

    seq: int
    channel: int
    request: bytes
    expected: bytes
    actual: bytes


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of one replay run."""

    requests: int
    responses: int
    channels: int
    mismatches: tuple[ReplayMismatch, ...]
    #: sha256 over the normalized live responses, in replay order —
    #: equal digests mean byte-identical server behaviour
    digest: str

    @property
    def ok(self) -> bool:
        return not self.mismatches


def normalize_response(
    backend: PairingBackend, request_payload: bytes, response: bytes
) -> bytes:
    """Map a response frame to its run-independent canonical form.

    ``request_payload`` is the request the response answered — the
    response body's meaning depends on the request kind.  Query
    responses get their :class:`~repro.core.prover.QueryStats` zeroed
    (wall-clock timings vary run to run; results and VO bytes must
    not), stats responses collapse to an empty snapshot, and error
    frames plus every other response kind pass through unchanged.
    Frames that fail to decode — a tampered corpus entry, say — also
    pass through unchanged, so the mismatch surfaces instead of hiding
    behind a normalization error.
    """
    if not response or response[0] != _STATUS_OK:
        return response
    try:
        _deadline_ms, inner = peek_deadline(request_payload)
        request = decode_request(inner)
    except WireError:
        return response
    body = response[1:]
    try:
        if isinstance(request, QueryRequest):
            results, vo, _stats = decode_query_response(backend, body)
            body = encode_query_response(backend, results, vo, QueryStats())
        elif isinstance(request, StatsRequest):
            body = encode_stats_response(_EMPTY_STATS)
        else:
            return response
    except ReproError:
        return response
    return bytes([_STATUS_OK]) + body


def normalize_recording(
    backend: PairingBackend, recording: SessionRecording
) -> SessionRecording:
    """Normalize every response frame and collapse timestamps to seq.

    Applied before committing a recording as a regression corpus, so
    the ``.vrec`` bytes themselves are reproducible; normalization is
    idempotent, so replaying a normalized corpus still compares clean.
    """
    last_request: dict[int, bytes] = {}
    frames: list[RecordedFrame] = []
    for frame in recording.frames:
        payload = frame.payload
        if frame.direction == DIR_REQUEST:
            last_request[frame.channel] = payload
        else:
            payload = normalize_response(
                backend, last_request.get(frame.channel, b""), payload
            )
        frames.append(
            RecordedFrame(
                seq=frame.seq,
                channel=frame.channel,
                direction=frame.direction,
                timestamp_us=frame.seq,
                payload=payload,
            )
        )
    return SessionRecording(
        label=recording.label, meta=dict(recording.meta), frames=tuple(frames)
    )


def replay_recording(
    recording: SessionRecording,
    address: tuple[str, int],
    backend: PairingBackend,
    *,
    timeout: float = 30.0,
) -> ReplayReport:
    """Re-drive a recording against a live server at ``address``.

    Frames are replayed in recorded order: requests go out verbatim on
    their channel's connection (dialed lazily, one per channel), and
    each recorded response blocks until the live server answers on that
    channel, then both sides are normalized and compared.  Replay is
    strictly sequential, so a deterministic server produces the same
    :attr:`ReplayReport.digest` every time.
    """
    sockets: dict[int, socket.socket] = {}
    pending: dict[int, bytes] = {}
    mismatches: list[ReplayMismatch] = []
    digest = hashlib.sha256()
    requests = responses = 0
    try:
        for frame in recording.frames:
            if frame.direction == DIR_REQUEST:
                sock = sockets.get(frame.channel)
                if sock is None:
                    sock = socket.create_connection(address, timeout=timeout)
                    sock.settimeout(timeout)
                    sockets[frame.channel] = sock
                _send_frame(sock, frame.payload)
                pending[frame.channel] = frame.payload
                requests += 1
            else:
                sock = sockets.get(frame.channel)
                if sock is None:
                    raise WireError(
                        f"recorded response on channel {frame.channel} "
                        "precedes any request"
                    )
                actual = _recv_frame(sock)
                request_payload = pending.get(frame.channel, b"")
                expected = normalize_response(backend, request_payload, frame.payload)
                live = normalize_response(backend, request_payload, actual)
                digest.update(live)
                if expected != live:
                    mismatches.append(
                        ReplayMismatch(
                            seq=frame.seq,
                            channel=frame.channel,
                            request=request_payload,
                            expected=expected,
                            actual=live,
                        )
                    )
                responses += 1
    finally:
        for sock in sockets.values():
            try:
                sock.close()
            except OSError:
                pass
    return ReplayReport(
        requests=requests,
        responses=responses,
        channels=len(sockets),
        mismatches=tuple(mismatches),
        digest=digest.hexdigest(),
    )
