"""Pluggable SP↔user transports.

A :class:`Transport` is the client's only handle on a service provider.
Two implementations ship:

* :class:`LocalTransport` — in-process and zero-copy: calls the
  :class:`~repro.api.service.ServiceEndpoint` directly, passing query
  and VO objects by reference.  The default for examples and tests.
* :class:`SocketTransport` — a length-prefixed frame protocol over TCP,
  served by :class:`~repro.api.aio.AsyncSocketServer`.  Every request
  and response crosses the link as canonical :mod:`repro.wire` bytes,
  so the full protocol is exercised end-to-end: a forged group element
  in a response is rejected by ``backend.decode`` while parsing, before
  any verification logic runs.

Frame format: a 4-byte big-endian length followed by the payload.
Requests are :func:`repro.wire.encode_request` bytes; responses carry a
status byte (``0`` ok, ``1`` error) followed by the per-request body.
Server-side errors are re-raised client-side as the matching exception
class.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from typing import Callable, Protocol

from repro.chain.block import BlockHeader
from repro.chain.object import DataObject
from repro.core.prover import QueryStats
from repro.core.query import SubscriptionQuery, TimeWindowQuery
from repro.core.vo import TimeWindowVO
from repro.crypto.backend import PairingBackend
from repro.errors import (
    CryptoError,
    DeadlineExpiredError,
    QueryError,
    ReproError,
    ServerBusyError,
    SubscriptionError,
    VerificationError,
)
from repro.subscribe.engine import Delivery
from repro.wire import (
    BareRequest,
    DeregisterRequest,
    EnvelopeRequest,
    FlushRequest,
    HeadersRequest,
    PollRequest,
    QueryRequest,
    RegisterRequest,
    ServerStats,
    StatsRequest,
    WireError,
    decode_deliveries,
    decode_error,
    decode_flush_response,
    decode_headers_response,
    decode_query_response,
    decode_register_response,
    decode_request,
    decode_stats_response,
    encode_deliveries,
    encode_error,
    encode_flush_response,
    encode_headers_response,
    encode_query_response,
    encode_register_response,
    encode_request,
    encode_stats_response,
    peek_deadline,
)
from repro.api.options import ClientOptions
from repro.api.service import ClientSession, ServiceEndpoint

_STATUS_OK = 0
_STATUS_ERROR = 1

#: a response frame may carry a large VO, but never gigabytes
MAX_FRAME_NBYTES = 1 << 30

#: error-kind tags carried in error responses, mapped back to classes
_ERROR_CLASSES: dict[str, type[ReproError]] = {
    "query": QueryError,
    "subscription": SubscriptionError,
    "verification": VerificationError,
    "wire": WireError,
    "crypto": CryptoError,
    "busy": ServerBusyError,
    "deadline": DeadlineExpiredError,
    "error": ReproError,
}


def _error_kind(exc: ReproError) -> str:
    for kind, cls in _ERROR_CLASSES.items():
        if kind != "error" and isinstance(exc, cls):
            return kind
    return "error"


class TransportError(ReproError):
    """The transport link itself failed (closed socket, bad frame)."""


#: Observer of raw frames crossing a transport: ``(channel, event,
#: payload)`` where ``event`` is ``"request"`` or ``"response"`` and
#: ``payload`` is the frame body exactly as it crossed the wire (inside
#: the 4-byte length prefix).  ``channel`` numbers the connection the
#: frame used — a client transport bumps it on every reconnect, a server
#: assigns one per accepted connection.  Taps observe *everything*,
#: including error frames, and must be cheap and non-raising; the
#: recorders in :mod:`repro.testing` are the intended consumers.
FrameTap = Callable[[int, str, bytes], None]


class Transport(Protocol):
    """What a client needs from a service provider, typed end to end."""

    def time_window_query(
        self, query: TimeWindowQuery, batch: bool | None = None
    ) -> tuple[list[DataObject], TimeWindowVO, QueryStats]: ...

    def register(
        self, query: SubscriptionQuery, since_height: int | None = None
    ) -> tuple[int, int]: ...

    def deregister(self, query_id: int) -> None: ...

    def poll(self, query_id: int) -> list[Delivery]: ...

    def flush(self, query_id: int) -> Delivery | None: ...

    def headers(self, from_height: int = 0) -> list[BlockHeader]: ...

    def server_stats(self) -> ServerStats: ...

    def close(self) -> None: ...


class LocalTransport:
    """In-process transport: zero-copy calls into a ServiceEndpoint."""

    def __init__(self, endpoint: ServiceEndpoint) -> None:
        self.endpoint = endpoint

    def time_window_query(
        self, query: TimeWindowQuery, batch: bool | None = None
    ) -> tuple[list[DataObject], TimeWindowVO, QueryStats]:
        return self.endpoint.time_window_query(query, batch=batch)

    def register(
        self, query: SubscriptionQuery, since_height: int | None = None
    ) -> tuple[int, int]:
        return self.endpoint.register(query, since_height=since_height)

    def deregister(self, query_id: int) -> None:
        self.endpoint.deregister(query_id)

    def poll(self, query_id: int) -> list[Delivery]:
        return self.endpoint.poll(query_id)

    def flush(self, query_id: int) -> Delivery | None:
        return self.endpoint.flush(query_id)

    def headers(self, from_height: int = 0) -> list[BlockHeader]:
        return self.endpoint.headers(from_height)

    def server_stats(self) -> ServerStats:
        return self.endpoint.server_stats()

    def close(self) -> None:
        pass


# -- framing ------------------------------------------------------------------
def _send_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(struct.pack(">I", len(payload)) + payload)


def _recv_exact(sock: socket.socket, length: int) -> bytes:
    chunks = []
    remaining = length
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise TransportError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket) -> bytes:
    (length,) = struct.unpack(">I", _recv_exact(sock, 4))
    if length > MAX_FRAME_NBYTES:
        raise TransportError("frame exceeds sanity bound")
    return _recv_exact(sock, length)


class SocketTransport:
    """Client side of the length-prefixed TCP protocol.

    Behaviour is configured through one :class:`ClientOptions` bag:
    ``connect_timeout`` bounds dialing, ``request_deadline`` bounds
    every request (client-side socket timeout *and* a server-side
    deadline carried in the request envelope), and ``retries`` /
    ``backoff`` govern reconnect-and-retry for idempotent requests and
    :class:`~repro.errors.ServerBusyError` rejections.
    """

    def __init__(
        self,
        address: tuple[str, int],
        backend: PairingBackend,
        *,
        options: ClientOptions | None = None,
        tap: FrameTap | None = None,
    ) -> None:
        self.backend = backend
        self.address = address
        self.options = options or ClientOptions()
        self._tap = tap
        self._channel = 0
        self._lock = threading.Lock()
        self._sock = self._connect()

    def _connect(self) -> socket.socket:
        opts = self.options
        last: Exception | None = None
        for attempt in range(opts.retries + 1):
            if attempt:
                time.sleep(opts.backoff * (2 ** (attempt - 1)))
            try:
                sock = socket.create_connection(
                    self.address, timeout=opts.connect_timeout
                )
                sock.settimeout(opts.request_deadline)
                return sock
            except OSError as exc:
                last = exc
        raise TransportError(f"could not connect to {self.address}: {last}") from last

    def _reconnect(self) -> None:
        with self._lock:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = self._connect()
            self._channel += 1

    def _request(self, payload: bytes) -> bytes:
        with self._lock:
            if self._tap is not None:
                self._tap(self._channel, "request", payload)
            _send_frame(self._sock, payload)
            response = _recv_frame(self._sock)
            if self._tap is not None:
                self._tap(self._channel, "response", response)
        if not response:
            raise TransportError("empty response frame")
        status, body = response[0], response[1:]
        if status == _STATUS_OK:
            return body
        if status == _STATUS_ERROR:
            kind, message = decode_error(body)
            raise _ERROR_CLASSES.get(kind, ReproError)(message)
        raise TransportError(f"unknown response status {status}")

    def _call(self, request: BareRequest, *, idempotent: bool) -> bytes:
        """One request with the options-driven retry policy.

        Busy rejections are safe to retry for every request kind (the
        server rejected before doing any work).  Link failures retry
        only idempotent requests — a resent ``register`` could double-
        register if the loss hit the response, not the request.
        """
        deadline_ms = self.options.deadline_ms()
        wire_request: BareRequest | EnvelopeRequest = request
        if deadline_ms is not None:
            wire_request = EnvelopeRequest(request=request, deadline_ms=deadline_ms)
        payload = encode_request(wire_request)
        last: Exception | None = None
        for attempt in range(self.options.retries + 1):
            if attempt:
                time.sleep(self.options.backoff * (2 ** (attempt - 1)))
            try:
                return self._request(payload)
            except ServerBusyError as exc:
                last = exc  # rejected pre-execution; the link is fine
            except (TransportError, OSError) as exc:
                last = exc
                if not idempotent:
                    raise
                try:
                    self._reconnect()
                except TransportError as reconnect_exc:
                    last = reconnect_exc
        assert last is not None
        raise last

    def time_window_query(
        self, query: TimeWindowQuery, batch: bool | None = None
    ) -> tuple[list[DataObject], TimeWindowVO, QueryStats]:
        body = self._call(QueryRequest(query=query, batch=batch), idempotent=True)
        return decode_query_response(self.backend, body)

    def register(
        self, query: SubscriptionQuery, since_height: int | None = None
    ) -> tuple[int, int]:
        body = self._call(
            RegisterRequest(query=query, since_height=since_height), idempotent=False
        )
        return decode_register_response(body)

    def deregister(self, query_id: int) -> None:
        self._call(DeregisterRequest(query_id=query_id), idempotent=False)

    def poll(self, query_id: int) -> list[Delivery]:
        body = self._call(PollRequest(query_id=query_id), idempotent=False)
        return decode_deliveries(self.backend, body)

    def flush(self, query_id: int) -> Delivery | None:
        body = self._call(FlushRequest(query_id=query_id), idempotent=False)
        return decode_flush_response(self.backend, body)

    def headers(self, from_height: int = 0) -> list[BlockHeader]:
        body = self._call(HeadersRequest(from_height=from_height), idempotent=True)
        return decode_headers_response(body)

    def server_stats(self) -> ServerStats:
        return decode_stats_response(self._call(StatsRequest(), idempotent=True))

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "SocketTransport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def perform_request(
    endpoint: ServiceEndpoint,
    backend: PairingBackend,
    request: BareRequest,
    session: "ClientSession | None" = None,
    *,
    deadline_at: float | None = None,
    clock: Callable[[], float] = time.monotonic,
) -> bytes:
    """Run one decoded request and encode its response body.

    Raises on failure; :func:`dispatch_request` owns the framing and
    error-to-frame mapping.  ``deadline_at`` is a ``clock()`` instant
    (``time.monotonic()`` by default): requests already past it are
    abandoned up front rather than charged against the worker pool.

    Queries run on the calling thread via
    :meth:`~repro.api.service.ServiceEndpoint.query_inline`: the server
    already dispatches whole request bodies into the endpoint's worker
    pool, so resubmitting would occupy two workers per query.
    """
    if deadline_at is not None and clock() >= deadline_at:
        raise DeadlineExpiredError("deadline expired before execution")
    if isinstance(request, QueryRequest):
        results, vo, stats = endpoint.query_inline(request.query, request.batch)
        return encode_query_response(backend, results, vo, stats)
    if isinstance(request, RegisterRequest):
        query_id, since = endpoint.register(
            request.query, since_height=request.since_height
        )
        if session is not None:
            session.track(query_id)
        return encode_register_response(query_id, since)
    if isinstance(request, DeregisterRequest):
        endpoint.deregister(request.query_id)
        if session is not None:
            session.untrack(request.query_id)
        return b""
    if isinstance(request, PollRequest):
        return encode_deliveries(backend, endpoint.poll(request.query_id))
    if isinstance(request, FlushRequest):
        return encode_flush_response(backend, endpoint.flush(request.query_id))
    if isinstance(request, StatsRequest):
        return encode_stats_response(endpoint.server_stats())
    return encode_headers_response(endpoint.headers(request.from_height))


def dispatch_request(
    endpoint: ServiceEndpoint,
    backend: PairingBackend,
    payload: bytes,
    session: "ClientSession | None" = None,
    *,
    clock: Callable[[], float] = time.monotonic,
) -> bytes:
    """Decode one request frame, run it, encode the response frame body.

    With a ``session``, subscription registrations are tracked so the
    transport can deregister them when the connection drops.  Errors —
    including non-:class:`ReproError` server bugs — become error frames
    rather than escaping, so one bad request never kills a connection
    handler (per-session error isolation).

    If the frame is a deadline envelope, the budget is enforced twice:
    expired-on-arrival requests are rejected before any work, and a
    result whose deadline lapsed mid-execution is discarded in favour of
    a ``deadline`` error frame (the client has already given up on it).
    """
    try:
        deadline_ms, inner = peek_deadline(payload)
        deadline_at = (
            clock() + deadline_ms / 1000.0 if deadline_ms is not None else None
        )
        request = decode_request(inner)
        assert not isinstance(request, EnvelopeRequest)  # peek_deadline unwrapped it
        body = perform_request(
            endpoint,
            backend,
            request,
            session=session,
            deadline_at=deadline_at,
            clock=clock,
        )
        if deadline_at is not None and clock() >= deadline_at:
            raise DeadlineExpiredError("deadline expired during execution")
    except ReproError as exc:
        return bytes([_STATUS_ERROR]) + encode_error(_error_kind(exc), str(exc))
    except Exception as exc:  # isolate server bugs to the offending request
        return bytes([_STATUS_ERROR]) + encode_error(
            "error", f"internal server error: {exc}"
        )
    return bytes([_STATUS_OK]) + body
