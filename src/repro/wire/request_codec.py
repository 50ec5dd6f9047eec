"""Wire encoding of the SP↔user *request* protocol.

:mod:`repro.wire.vo_codec` covers everything the SP sends back —
objects, headers, VOs.  This module covers the other direction plus the
typed response envelopes, so that the full client/server conversation
round-trips through bytes:

* queries (:class:`~repro.core.query.TimeWindowQuery` and
  :class:`~repro.core.query.SubscriptionQuery`),
* the request frames a transport carries (query / register /
  deregister / poll / flush / header sync),
* the response bodies each request expects (results+VO+stats,
  registration acks, delivery batches, header batches, errors).

Decoding is defensive throughout: every structural violation —
truncation, bad tags, inverted ranges, empty CNF clauses — surfaces as
:class:`~repro.wire.codec.WireError` *at the parse boundary*, before any
query or verification logic runs.  A malicious peer controls these
bytes.

Round-trip property: ``decode(encode(x)) == x`` for every message type
(exercised in ``tests/test_request_codec.py``).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.chain.block import BlockHeader
from repro.chain.object import DataObject
from repro.core.prover import QueryStats
from repro.core.query import (
    CNFCondition,
    RangeCondition,
    SubscriptionQuery,
    TimeWindowQuery,
)
from repro.core.vo import TimeWindowVO
from repro.crypto.backend import PairingBackend
from repro.errors import QueryError
from repro.subscribe.engine import Delivery
from repro.wire.codec import Reader, WireError, Writer
from repro.wire.vo_codec import (
    decode_time_window_vo,
    encode_time_window_vo,
    read_header,
    read_object,
    write_header,
    write_object,
)

_ABSENT = 0
_PRESENT = 1

#: query form tags
_Q_TIME_WINDOW = 1
_Q_SUBSCRIPTION = 2

#: request frame tags
REQ_QUERY = 1
REQ_REGISTER = 2
REQ_DEREGISTER = 3
REQ_POLL = 4
REQ_FLUSH = 5
REQ_HEADERS = 6
REQ_STATS = 7
REQ_ENVELOPE = 8

#: sanity bounds for attacker-controlled counts
MAX_DIMS = 64
MAX_CLAUSES = 4096
MAX_CLAUSE_SIZE = 4096
MAX_DELIVERIES = 1 << 16
MAX_HEADERS = 1 << 22
MAX_INFO_ENTRIES = 256
MAX_INFO_SECTIONS = 16


# -- request dataclasses ------------------------------------------------------
@dataclass(frozen=True)
class QueryRequest:
    """One historical time-window query; ``batch`` as in the prover."""

    query: TimeWindowQuery
    batch: bool | None = None


@dataclass(frozen=True)
class RegisterRequest:
    """Register a subscription; ``None`` means "from the next block"."""

    query: SubscriptionQuery
    since_height: int | None = None


@dataclass(frozen=True)
class DeregisterRequest:
    query_id: int


@dataclass(frozen=True)
class PollRequest:
    query_id: int


@dataclass(frozen=True)
class FlushRequest:
    query_id: int


@dataclass(frozen=True)
class HeadersRequest:
    from_height: int = 0


@dataclass(frozen=True)
class StatsRequest:
    """Ask the server for its :class:`ServerStats` snapshot."""


#: the request forms an envelope may wrap (everything but itself)
BareRequest = (
    QueryRequest
    | RegisterRequest
    | DeregisterRequest
    | PollRequest
    | FlushRequest
    | HeadersRequest
    | StatsRequest
)


@dataclass(frozen=True)
class EnvelopeRequest:
    """A request plus per-request metadata the *transport* consumes.

    ``deadline_ms`` is the client's remaining latency budget in
    milliseconds, measured from the moment the server receives the
    frame.  A server that cannot answer within the budget replies with
    a ``deadline`` error instead of a uselessly late response.  The
    envelope wraps the inner request bytes unchanged, so old clients
    (which never send envelopes) keep working against new servers.
    """

    request: BareRequest
    deadline_ms: int | None = None


Request = BareRequest | EnvelopeRequest


# -- query bodies -------------------------------------------------------------
def _write_range(writer: Writer, numeric: RangeCondition | None) -> None:
    if numeric is None:
        writer.byte(_ABSENT)
        return
    writer.byte(_PRESENT)
    writer.uvarint(len(numeric.low))
    for value in numeric.low:
        writer.uvarint(value)
    for value in numeric.high:
        writer.uvarint(value)


def _read_range(reader: Reader) -> RangeCondition | None:
    if reader.byte() == _ABSENT:
        return None
    dims = reader.uvarint()
    if dims > MAX_DIMS:
        raise WireError("range predicate has implausibly many dimensions")
    low = tuple(reader.uvarint() for _ in range(dims))
    high = tuple(reader.uvarint() for _ in range(dims))
    try:
        return RangeCondition(low=low, high=high)
    except QueryError as exc:
        raise WireError(f"malformed range predicate: {exc}") from exc


def _write_cnf(writer: Writer, boolean: CNFCondition) -> None:
    writer.uvarint(len(boolean.clauses))
    for clause in boolean.clauses:
        writer.uvarint(len(clause))
        for element in sorted(clause):
            writer.text(element)


def _read_cnf(reader: Reader) -> CNFCondition:
    n_clauses = reader.uvarint()
    if n_clauses > MAX_CLAUSES:
        raise WireError("CNF has implausibly many clauses")
    clauses = []
    for _ in range(n_clauses):
        size = reader.uvarint()
        if size > MAX_CLAUSE_SIZE:
            raise WireError("CNF clause is implausibly large")
        clauses.append(frozenset(reader.text() for _ in range(size)))
    try:
        return CNFCondition(tuple(clauses))
    except QueryError as exc:
        raise WireError(f"malformed CNF condition: {exc}") from exc


def write_query(writer: Writer, query: TimeWindowQuery | SubscriptionQuery) -> None:
    """Tagged encoding of either query form."""
    if isinstance(query, TimeWindowQuery):
        writer.byte(_Q_TIME_WINDOW)
        writer.uvarint(query.start)
        writer.uvarint(query.end)
    elif isinstance(query, SubscriptionQuery):
        writer.byte(_Q_SUBSCRIPTION)
    else:
        raise WireError(f"unknown query type {type(query).__name__}")
    _write_range(writer, query.numeric)
    _write_cnf(writer, query.boolean)


def read_query(reader: Reader) -> TimeWindowQuery | SubscriptionQuery:
    tag = reader.byte()
    if tag == _Q_TIME_WINDOW:
        start = reader.uvarint()
        end = reader.uvarint()
        numeric = _read_range(reader)
        boolean = _read_cnf(reader)
        try:
            return TimeWindowQuery(
                start=start, end=end, numeric=numeric, boolean=boolean
            )
        except QueryError as exc:
            raise WireError(f"malformed time-window query: {exc}") from exc
    if tag == _Q_SUBSCRIPTION:
        numeric = _read_range(reader)
        boolean = _read_cnf(reader)
        return SubscriptionQuery(numeric=numeric, boolean=boolean)
    raise WireError(f"unknown query tag {tag}")


def encode_time_window_query(query: TimeWindowQuery) -> bytes:
    writer = Writer()
    write_query(writer, query)
    return writer.getvalue()


def decode_time_window_query(data: bytes) -> TimeWindowQuery:
    reader = Reader(data)
    query = read_query(reader)
    reader.expect_end()
    if not isinstance(query, TimeWindowQuery):
        raise WireError("expected a time-window query")
    return query


def encode_subscription_query(query: SubscriptionQuery) -> bytes:
    writer = Writer()
    write_query(writer, query)
    return writer.getvalue()


def decode_subscription_query(data: bytes) -> SubscriptionQuery:
    reader = Reader(data)
    query = read_query(reader)
    reader.expect_end()
    if isinstance(query, TimeWindowQuery) or not isinstance(query, SubscriptionQuery):
        raise WireError("expected a subscription query")
    return query


# -- request frames -----------------------------------------------------------
def encode_request(request: Request) -> bytes:
    writer = Writer()
    if isinstance(request, QueryRequest):
        writer.byte(REQ_QUERY)
        if request.batch is None:
            writer.byte(0)
        else:
            writer.byte(2 if request.batch else 1)
        write_query(writer, request.query)
    elif isinstance(request, RegisterRequest):
        writer.byte(REQ_REGISTER)
        if request.since_height is None:
            writer.byte(_ABSENT)
        else:
            writer.byte(_PRESENT)
            writer.uvarint(request.since_height)
        write_query(writer, request.query)
    elif isinstance(request, DeregisterRequest):
        writer.byte(REQ_DEREGISTER)
        writer.uvarint(request.query_id)
    elif isinstance(request, PollRequest):
        writer.byte(REQ_POLL)
        writer.uvarint(request.query_id)
    elif isinstance(request, FlushRequest):
        writer.byte(REQ_FLUSH)
        writer.uvarint(request.query_id)
    elif isinstance(request, HeadersRequest):
        writer.byte(REQ_HEADERS)
        writer.uvarint(request.from_height)
    elif isinstance(request, StatsRequest):
        writer.byte(REQ_STATS)
    elif isinstance(request, EnvelopeRequest):
        if isinstance(request.request, EnvelopeRequest):
            raise WireError("nested request envelopes are not allowed")
        writer.byte(REQ_ENVELOPE)
        if request.deadline_ms is None:
            writer.byte(_ABSENT)
        else:
            writer.byte(_PRESENT)
            writer.uvarint(request.deadline_ms)
        writer.raw(encode_request(request.request))
    else:
        raise WireError(f"unknown request type {type(request).__name__}")
    return writer.getvalue()


def decode_request(data: bytes) -> Request:
    reader = Reader(data)
    tag = reader.byte()
    request: Request
    if tag == REQ_QUERY:
        marker = reader.byte()
        if marker > 2:
            raise WireError(f"unknown batch marker {marker}")
        batch = None if marker == 0 else marker == 2
        query = read_query(reader)
        if not isinstance(query, TimeWindowQuery):
            raise WireError("query request must carry a time-window query")
        request = QueryRequest(query=query, batch=batch)
    elif tag == REQ_REGISTER:
        since = reader.uvarint() if reader.byte() == _PRESENT else None
        query = read_query(reader)
        if isinstance(query, TimeWindowQuery) or not isinstance(
            query, SubscriptionQuery
        ):
            raise WireError("register request must carry a subscription query")
        request = RegisterRequest(query=query, since_height=since)
    elif tag == REQ_DEREGISTER:
        request = DeregisterRequest(query_id=reader.uvarint())
    elif tag == REQ_POLL:
        request = PollRequest(query_id=reader.uvarint())
    elif tag == REQ_FLUSH:
        request = FlushRequest(query_id=reader.uvarint())
    elif tag == REQ_HEADERS:
        request = HeadersRequest(from_height=reader.uvarint())
    elif tag == REQ_STATS:
        request = StatsRequest()
    elif tag == REQ_ENVELOPE:
        deadline_ms = reader.uvarint() if reader.byte() == _PRESENT else None
        inner = decode_request(reader.raw(reader.remaining))
        if isinstance(inner, EnvelopeRequest):
            raise WireError("nested request envelopes are not allowed")
        request = EnvelopeRequest(request=inner, deadline_ms=deadline_ms)
    else:
        raise WireError(f"unknown request tag {tag}")
    reader.expect_end()
    return request


def peek_deadline(payload: bytes) -> tuple[int | None, bytes]:
    """Split a request frame into ``(deadline_ms, inner payload)``.

    Cheap by construction — the envelope header is a tag byte, a
    presence byte and one varint, so a serving loop can read the
    deadline *before* committing any parsing or proving work to the
    request.  Non-envelope frames pass through as ``(None, payload)``.
    """
    if not payload or payload[0] != REQ_ENVELOPE:
        return None, payload
    reader = Reader(payload)
    reader.byte()
    deadline_ms = reader.uvarint() if reader.byte() == _PRESENT else None
    return deadline_ms, reader.raw(reader.remaining)


# -- response bodies ----------------------------------------------------------
def _write_stats(writer: Writer, stats: QueryStats) -> None:
    writer.raw(struct.pack(">d", stats.sp_seconds))
    writer.uvarint(stats.blocks_scanned)
    writer.uvarint(stats.blocks_skipped)
    writer.uvarint(stats.proofs_computed)
    writer.uvarint(stats.nodes_visited)
    writer.uvarint(stats.results)
    writer.uvarint(stats.cache_hits)
    writer.uvarint(stats.cache_misses)
    writer.uvarint(stats.proofs_reused)
    writer.uvarint(stats.parallel_tasks)
    writer.uvarint(stats.workers_used)


def _read_stats(reader: Reader) -> QueryStats:
    (sp_seconds,) = struct.unpack(">d", reader.raw(8))
    return QueryStats(
        sp_seconds=sp_seconds,
        blocks_scanned=reader.uvarint(),
        blocks_skipped=reader.uvarint(),
        proofs_computed=reader.uvarint(),
        nodes_visited=reader.uvarint(),
        results=reader.uvarint(),
        cache_hits=reader.uvarint(),
        cache_misses=reader.uvarint(),
        proofs_reused=reader.uvarint(),
        parallel_tasks=reader.uvarint(),
        workers_used=reader.uvarint(),
    )


def encode_query_response(
    backend: PairingBackend,
    results: list[DataObject],
    vo: TimeWindowVO,
    stats: QueryStats,
) -> bytes:
    """The full SP answer ⟨R, VO, stats⟩ as one message."""
    writer = Writer()
    writer.uvarint(len(results))
    for obj in results:
        write_object(writer, obj)
    writer.blob(encode_time_window_vo(backend, vo))
    _write_stats(writer, stats)
    return writer.getvalue()


def decode_query_response(
    backend: PairingBackend, data: bytes
) -> tuple[list[DataObject], TimeWindowVO, QueryStats]:
    reader = Reader(data)
    results = [read_object(reader) for _ in range(reader.uvarint())]
    vo = decode_time_window_vo(backend, reader.blob())
    stats = _read_stats(reader)
    reader.expect_end()
    return results, vo, stats


def write_delivery(writer: Writer, backend: PairingBackend, delivery: Delivery) -> None:
    writer.uvarint(delivery.query_id)
    writer.uvarint(delivery.from_height)
    writer.uvarint(delivery.up_to_height)
    writer.uvarint(len(delivery.results))
    for obj in delivery.results:
        write_object(writer, obj)
    writer.blob(encode_time_window_vo(backend, delivery.vo))


def read_delivery(reader: Reader, backend: PairingBackend) -> Delivery:
    return Delivery(
        query_id=reader.uvarint(),
        from_height=reader.uvarint(),
        up_to_height=reader.uvarint(),
        results=[read_object(reader) for _ in range(reader.uvarint())],
        vo=decode_time_window_vo(backend, reader.blob()),
    )


def encode_deliveries(backend: PairingBackend, deliveries: list[Delivery]) -> bytes:
    writer = Writer()
    writer.uvarint(len(deliveries))
    for delivery in deliveries:
        write_delivery(writer, backend, delivery)
    return writer.getvalue()


def decode_deliveries(backend: PairingBackend, data: bytes) -> list[Delivery]:
    reader = Reader(data)
    count = reader.uvarint()
    if count > MAX_DELIVERIES:
        raise WireError("implausibly many deliveries in one response")
    deliveries = [read_delivery(reader, backend) for _ in range(count)]
    reader.expect_end()
    return deliveries


def encode_flush_response(backend: PairingBackend, delivery: Delivery | None) -> bytes:
    writer = Writer()
    if delivery is None:
        writer.byte(_ABSENT)
    else:
        writer.byte(_PRESENT)
        write_delivery(writer, backend, delivery)
    return writer.getvalue()


def decode_flush_response(backend: PairingBackend, data: bytes) -> Delivery | None:
    reader = Reader(data)
    delivery = read_delivery(reader, backend) if reader.byte() == _PRESENT else None
    reader.expect_end()
    return delivery


def encode_register_response(query_id: int, since_height: int) -> bytes:
    return Writer().uvarint(query_id).uvarint(since_height).getvalue()


def decode_register_response(data: bytes) -> tuple[int, int]:
    reader = Reader(data)
    query_id = reader.uvarint()
    since_height = reader.uvarint()
    reader.expect_end()
    return query_id, since_height


def encode_headers_response(headers: list[BlockHeader]) -> bytes:
    writer = Writer()
    writer.uvarint(len(headers))
    for header in headers:
        write_header(writer, header)
    return writer.getvalue()


def decode_headers_response(data: bytes) -> list[BlockHeader]:
    reader = Reader(data)
    count = reader.uvarint()
    if count > MAX_HEADERS:
        raise WireError("implausibly many headers in one response")
    headers = [read_header(reader) for _ in range(count)]
    reader.expect_end()
    return headers


# -- server stats -------------------------------------------------------------
#: the value types a stats section may carry
Scalar = int | float | str

_SCALAR_INT = 0
_SCALAR_FLOAT = 1
_SCALAR_TEXT = 2


@dataclass(frozen=True)
class ServerStats:
    """Typed observability snapshot of one serving endpoint.

    The wire form of :meth:`~repro.api.service.ServiceEndpoint.stats`:
    ``endpoint`` carries the request counters, ``caches`` one section
    per serving cache, ``engine`` the subscription-engine counters,
    ``pool`` the crypto-pool snapshot (``None`` without a pool),
    ``server`` the transport-level counters — admission rejections,
    rate limiting, evictions — when a socket server is attached
    (``None`` for a bare in-process endpoint), ``storage`` the
    striped store's degradation/scrub counters (``None`` for stores
    without health tracking), and ``accel`` the name of the arithmetic
    provider serving the endpoint's crypto (``pure`` / ``native``).
    """

    endpoint: dict[str, Scalar]
    caches: dict[str, dict[str, Scalar]]
    engine: dict[str, Scalar]
    pool: dict[str, Scalar] | None
    server: dict[str, Scalar] | None
    storage: dict[str, Scalar] | None = None
    accel: str = "pure"


def _write_scalar(writer: Writer, value: Scalar) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise WireError(f"stats values must be int/float/str, got {value!r}")
    if isinstance(value, int):
        if value < 0:
            raise WireError("stats counters are non-negative")
        writer.byte(_SCALAR_INT)
        writer.uvarint(value)
    elif isinstance(value, float):
        writer.byte(_SCALAR_FLOAT)
        writer.raw(struct.pack(">d", value))
    else:
        writer.byte(_SCALAR_TEXT)
        writer.text(value)


def _read_scalar(reader: Reader) -> Scalar:
    tag = reader.byte()
    if tag == _SCALAR_INT:
        return reader.uvarint()
    if tag == _SCALAR_FLOAT:
        (value,) = struct.unpack(">d", reader.raw(8))
        return float(value)
    if tag == _SCALAR_TEXT:
        return reader.text()
    raise WireError(f"unknown stats scalar tag {tag}")


def _write_info(writer: Writer, info: dict[str, Scalar]) -> None:
    writer.uvarint(len(info))
    for key in sorted(info):  # canonical: one byte string per snapshot
        writer.text(key)
        _write_scalar(writer, info[key])


def _read_info(reader: Reader) -> dict[str, Scalar]:
    count = reader.uvarint()
    if count > MAX_INFO_ENTRIES:
        raise WireError("implausibly many entries in a stats section")
    return {reader.text(): _read_scalar(reader) for _ in range(count)}


def _write_optional_info(writer: Writer, info: dict[str, Scalar] | None) -> None:
    if info is None:
        writer.byte(_ABSENT)
    else:
        writer.byte(_PRESENT)
        _write_info(writer, info)


def _read_optional_info(reader: Reader) -> dict[str, Scalar] | None:
    return _read_info(reader) if reader.byte() == _PRESENT else None


def encode_stats_response(stats: ServerStats) -> bytes:
    writer = Writer()
    _write_info(writer, stats.endpoint)
    writer.uvarint(len(stats.caches))
    for name in sorted(stats.caches):
        writer.text(name)
        _write_info(writer, stats.caches[name])
    _write_info(writer, stats.engine)
    _write_optional_info(writer, stats.pool)
    _write_optional_info(writer, stats.server)
    _write_optional_info(writer, stats.storage)
    writer.text(stats.accel)
    return writer.getvalue()


def decode_stats_response(data: bytes) -> ServerStats:
    reader = Reader(data)
    endpoint = _read_info(reader)
    n_caches = reader.uvarint()
    if n_caches > MAX_INFO_SECTIONS:
        raise WireError("implausibly many cache sections in a stats response")
    caches = {reader.text(): _read_info(reader) for _ in range(n_caches)}
    engine = _read_info(reader)
    pool = _read_optional_info(reader)
    server = _read_optional_info(reader)
    storage = _read_optional_info(reader)
    accel = reader.text()
    reader.expect_end()
    return ServerStats(
        endpoint=endpoint,
        caches=caches,
        engine=engine,
        pool=pool,
        server=server,
        storage=storage,
        accel=accel,
    )


def encode_error(kind: str, message: str) -> bytes:
    return Writer().text(kind).text(message).getvalue()


def decode_error(data: bytes) -> tuple[str, str]:
    reader = Reader(data)
    kind = reader.text()
    message = reader.text()
    reader.expect_end()
    return kind, message
