"""The asyncio serving tier: parity with the in-process path, plus its
traffic hygiene.

Parity is the acceptance bar carried over from ``test_api_socket``: the
async server must answer a mixed workload with exactly the bytes an
in-process ``VChainClient.local`` client gets.  The hygiene tests then
drive each production knob to its trigger point — admission gate,
per-client rate limit, request deadlines, slow-client eviction,
graceful drain, the stop budget — and assert both the client-visible
behaviour (typed errors) and the server-side counters that make the
events observable.
"""

import random
import socket
import struct
import threading
import time
import warnings
from contextlib import contextmanager

import pytest

from repro import VChainClient, VChainNetwork
from repro.api import AsyncSocketServer, ClientOptions, ServiceEndpoint
from repro.api.transport import SocketTransport, TransportError
from repro.chain import ProtocolParams
from repro.errors import DeadlineExpiredError, ServerBusyError, SubscriptionError
from repro.testing import ManualClock
from repro.wire import (
    EnvelopeRequest,
    QueryRequest,
    ServerStats,
    encode_request,
    encode_response,
)
from tests.conftest import make_objects

N_BLOCKS = 8


@pytest.fixture()
def net():
    net = VChainNetwork.create(
        params=ProtocolParams(mode="both", bits=8, skip_size=2, difficulty_bits=0),
        seed=33,
    )
    rng = random.Random(33)
    for height in range(N_BLOCKS):
        net.mine(
            make_objects(rng, 3, height * 3, timestamp=height * 10),
            timestamp=height * 10,
        )
    return net


def _wide_query(client):
    return (
        client.query()
        .window(0, 200)
        .range(low=(0,), high=(255,))
        .all_of("Sedan")
        .any_of("Benz", "BMW")
        .build()
    )


def _disjoint_query(client, index):
    vocab = ["Benz", "BMW", "Audi", "Tesla", "Van"]
    return (
        client.query()
        .window(index * 20, index * 20 + 30)
        .any_of(vocab[index % len(vocab)])
        .build()
    )


def _connect(net, server, **options):
    return VChainClient.connect(
        server.address,
        net.accumulator,
        net.encoder,
        net.params,
        options=ClientOptions(**options) if options else None,
    )


def _gated_processor(net):
    """Patch the SP's prover to block on a gate until the test says go.

    Returns ``(started, gate, undo)``: ``started`` is set the moment a
    query reaches the prover (so the test *knows* it is in flight, no
    sleeping and hoping), ``gate`` releases it, ``undo`` unpatches.
    """
    real = net.sp.processor.time_window_query
    started = threading.Event()
    gate = threading.Event()

    def gated(query, *args, **kwargs):
        started.set()
        gate.wait(timeout=30.0)  # failsafe only; tests always set it
        return real(query, *args, **kwargs)

    net.sp.processor.time_window_query = gated
    return started, gate, lambda: net.sp.processor.__dict__.pop("time_window_query")


@contextmanager
def _client(net, endpoint, kind):
    """A ``"local"`` (in-process) or ``"async"`` (socket) client."""
    if kind == "local":
        with VChainClient.local(endpoint) as client:
            yield client
        return
    server = AsyncSocketServer(endpoint).start()
    try:
        with _connect(net, server) as client:
            yield client
    finally:
        server.stop()


# -- parity with the in-process path -------------------------------------------
def test_async_matches_local_byte_for_byte(net):
    """Identical wire bytes for a mixed workload, socket vs in-process."""
    backend = net.accumulator.backend
    queries = [_wide_query(net.client)] + [
        _disjoint_query(net.client, index) for index in range(5)
    ]
    answers = {}
    for kind in ("local", "async"):
        endpoint = ServiceEndpoint(net.sp)
        try:
            with _client(net, endpoint, kind) as client:
                answers[kind] = [
                    client.execute(query).raise_for_forgery() for query in queries
                ]
        finally:
            endpoint.close()
    for local, asynced in zip(answers["local"], answers["async"]):
        assert asynced.results == local.results
        assert encode_response(
            backend, asynced.results, asynced.vo
        ) == encode_response(backend, local.results, local.vo)
        assert asynced.vo_nbytes == local.vo_nbytes


def test_async_subscription_matches_local():
    deliveries = {}
    for kind in ("local", "async"):
        # a fresh, identically-seeded network per leg so both rounds
        # mine byte-identical blocks
        net = VChainNetwork.create(
            params=ProtocolParams(mode="both", bits=8, skip_size=2, difficulty_bits=0),
            seed=33,
        )
        endpoint = ServiceEndpoint(net.sp)
        try:
            with _client(net, endpoint, kind) as client:
                with (
                    client.subscribe()
                    .range(low=(0,), high=(255,))
                    .any_of("Benz")
                    .open()
                ) as stream:
                    rng = random.Random(99)
                    for height in range(2):
                        net.mine(
                            make_objects(rng, 3, height * 3, timestamp=height),
                            timestamp=height,
                        )
                    deliveries[kind] = stream.poll()
        finally:
            endpoint.close()
    assert len(deliveries["async"]) == len(deliveries["local"]) == 2
    for asynced, local in zip(deliveries["async"], deliveries["local"]):
        assert asynced.results == local.results
        assert asynced.vo_nbytes == local.vo_nbytes


def test_many_concurrent_async_clients(net):
    """One event loop multiplexes dozens of concurrent clients."""
    endpoint = ServiceEndpoint(net.sp)
    server = AsyncSocketServer(endpoint).start()
    try:
        reference = None
        with _connect(net, server) as client:
            reference = client.execute(_wide_query(client)).raise_for_forgery()
        errors = []

        def hammer():
            try:
                with _connect(net, server) as client:
                    resp = client.execute(_wide_query(client)).raise_for_forgery()
                    assert resp.results == reference.results
            except Exception as exc:  # surface across the thread boundary
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(24)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert server.counters.connections_opened >= 25
    finally:
        server.stop()
        endpoint.close()


# -- admission gate ------------------------------------------------------------
def test_admission_gate_rejects_excess_inflight(net):
    endpoint = ServiceEndpoint(net.sp, max_workers=1)
    server = AsyncSocketServer(endpoint, max_inflight=1).start()
    started, gate, undo = _gated_processor(net)
    try:
        occupier = _connect(net, server)
        rejected = _connect(net, server)
        done = []

        def occupy():
            done.append(occupier.transport.time_window_query(_wide_query(net.client)))

        thread = threading.Thread(target=occupy)
        thread.start()
        assert started.wait(timeout=10)  # the gated query holds the slot
        with pytest.raises(ServerBusyError, match="max inflight"):
            rejected.transport.headers(0)
        gate.set()
        thread.join(timeout=10)
        assert done, "the occupying query must still complete"
        assert server.counters.admission_rejections == 1
        occupier.close()
        rejected.close()
    finally:
        gate.set()
        undo()
        server.stop()
        endpoint.close()


def test_busy_rejections_are_retryable(net):
    """A ServerBusyError is retried even for non-idempotent requests —
    the server rejected before doing any work."""
    endpoint = ServiceEndpoint(net.sp, max_workers=1)
    server = AsyncSocketServer(endpoint, max_inflight=1).start()
    started, gate, undo = _gated_processor(net)
    try:
        occupier = _connect(net, server)
        retrier = _connect(net, server, retries=6, backoff=0.2)

        def occupy():
            occupier.transport.time_window_query(_wide_query(net.client))

        thread = threading.Thread(target=occupy)
        thread.start()
        assert started.wait(timeout=10)

        # open the gate only once a busy rejection has provably landed
        def release():
            assert server.counters.wait_for("admission_rejections", 1)
            gate.set()

        releaser = threading.Thread(target=release)
        releaser.start()
        # register is non-idempotent, yet busy rejections retry: once the
        # gated query drains, a retry lands and the registration succeeds
        stream = retrier.stream(retrier.subscribe().any_of("Benz").build())
        stream.close()
        releaser.join(timeout=10)
        thread.join(timeout=10)
        assert server.counters.admission_rejections >= 1
        occupier.close()
        retrier.close()
    finally:
        gate.set()
        undo()
        server.stop()
        endpoint.close()


# -- per-client rate limit -----------------------------------------------------
def test_rate_limit_rejects_burst(net):
    clock = ManualClock()
    endpoint = ServiceEndpoint(net.sp)
    server = AsyncSocketServer(
        endpoint, rate_limit=1.0, rate_burst=2, clock=clock
    ).start()
    try:
        transport = SocketTransport(server.address, net.accumulator.backend)
        transport.headers(0)
        transport.headers(0)  # burst capacity spent
        with pytest.raises(ServerBusyError, match="rate limit"):
            transport.headers(0)
        assert server.counters.rate_limited == 1
        # the bucket refills on the manual clock: no sleeping for it
        clock.advance(1.1)
        assert transport.headers(0)
        transport.close()
    finally:
        server.stop()
        endpoint.close()


def test_rate_limit_is_per_client(net):
    endpoint = ServiceEndpoint(net.sp)
    server = AsyncSocketServer(endpoint, rate_limit=1.0, rate_burst=1).start()
    try:
        first = SocketTransport(server.address, net.accumulator.backend)
        second = SocketTransport(server.address, net.accumulator.backend)
        first.headers(0)
        # a different connection has its own bucket
        assert second.headers(0)
        with pytest.raises(ServerBusyError):
            first.headers(0)
        first.close()
        second.close()
    finally:
        server.stop()
        endpoint.close()


# -- request deadlines ---------------------------------------------------------
def test_deadline_expires_mid_prove(net):
    clock = ManualClock()
    endpoint = ServiceEndpoint(net.sp)
    server = AsyncSocketServer(endpoint, clock=clock).start()
    started, gate, undo = _gated_processor(net)
    try:
        # generous socket timeout, tight server-side deadline: the server
        # must discard the late answer and report the expiry.  The prover
        # blocks on the gate while the manual clock burns the budget, so
        # the expiry is exact, not a race against a sleep.
        transport = SocketTransport(
            server.address,
            net.accumulator.backend,
            options=ClientOptions(request_deadline=30.0),
        )
        payload = encode_request(
            EnvelopeRequest(
                request=QueryRequest(query=_wide_query(net.client)), deadline_ms=150
            )
        )

        def expire():
            assert started.wait(timeout=10)
            clock.advance(1.0)  # blow well past the 150ms budget
            gate.set()

        helper = threading.Thread(target=expire)
        helper.start()
        with pytest.raises(DeadlineExpiredError, match="during execution"):
            transport._request(payload)
        helper.join(timeout=10)
        assert server.counters.deadlines_expired == 1
        # the connection survives; a fresh request with budget succeeds
        assert transport.headers(0)
        transport.close()
    finally:
        gate.set()
        undo()
        server.stop()
        endpoint.close()


def test_client_options_deadline_travels_in_envelope(net):
    endpoint = ServiceEndpoint(net.sp)
    server = AsyncSocketServer(endpoint).start()
    try:
        with _connect(net, server, request_deadline=30.0) as client:
            client.execute(_wide_query(client)).raise_for_forgery()
        # the deadline pre-check ran server-side (no expiry: big budget)
        assert server.counters.deadlines_expired == 0
        assert server.counters.requests >= 1
    finally:
        server.stop()
        endpoint.close()


# -- slow-client eviction ------------------------------------------------------
def test_slow_client_evicted(net):
    endpoint = ServiceEndpoint(net.sp)
    server = AsyncSocketServer(
        endpoint, drain_timeout=0.3, send_queue_limit=4096, sock_sndbuf=4096
    ).start()
    try:
        query_frame = encode_request(QueryRequest(query=_wide_query(net.client)))
        framed = struct.pack(">I", len(query_frame)) + query_frame
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.connect(server.address)
        # pipeline many requests and never read a byte of response: the
        # server's send buffers fill and drain() cannot complete
        try:
            for _ in range(30):
                sock.sendall(framed)
        except OSError:
            pass  # already evicted mid-send, which is the point
        assert server.counters.wait_for("evictions", 1, timeout=10.0)
        assert server.counters.evictions == 1
        sock.close()
        # the server is fine: a well-behaved client still gets answers
        with _connect(net, server) as client:
            client.execute(_wide_query(client)).raise_for_forgery()
    finally:
        server.stop()
        endpoint.close()


# -- graceful drain ------------------------------------------------------------
def test_async_drain_answers_inflight_request(net):
    endpoint = ServiceEndpoint(net.sp)
    server = AsyncSocketServer(endpoint).start()
    started, gate, undo = _gated_processor(net)
    try:
        client = _connect(net, server, request_deadline=10.0)
        answers = []

        def run_query():
            # raw transport call: drain guarantees this one answer, but
            # no further requests (like a header sync) after stop()
            answers.append(
                client.transport.time_window_query(_wide_query(net.client))
            )

        thread = threading.Thread(target=run_query)
        thread.start()
        assert started.wait(timeout=10)  # provably in flight, no sleep
        stopping = threading.Event()

        def stop_drain():
            stopping.set()
            server.stop(drain=True)  # in-flight request still gets its answer

        stopper = threading.Thread(target=stop_drain)
        stopper.start()
        stopping.wait(timeout=10)
        gate.set()
        stopper.join(timeout=10)
        thread.join(timeout=10)
        assert answers and answers[0][2].results == len(answers[0][0])
        client.close()
    finally:
        gate.set()
        undo()
        server.stop()
        endpoint.close()


def test_async_stop_without_drain_aborts(net):
    endpoint = ServiceEndpoint(net.sp)
    server = AsyncSocketServer(endpoint).start()
    client = _connect(net, server)
    client.execute(_wide_query(client)).raise_for_forgery()
    server.stop(drain=False)
    with pytest.raises((TransportError, OSError)):
        client.transport.headers(0)
    client.close()
    endpoint.close()


def test_async_session_cleanup_on_disconnect(net):
    endpoint = ServiceEndpoint(net.sp)
    server = AsyncSocketServer(endpoint).start()
    try:
        client = _connect(net, server)
        stream = client.subscribe().any_of("Benz").open()
        query_id = stream.query_id
        client.close()  # socket drops without deregistering
        # the server-side session closes (deregistering its orphans)
        # before the counter ticks, so this wait is the whole handshake
        assert endpoint.counters.wait_for("sessions_closed", 1, timeout=10.0)
        with pytest.raises(SubscriptionError):
            endpoint.poll(query_id)
    finally:
        server.stop()
        endpoint.close()


# -- server stats over the wire ------------------------------------------------
def test_server_stats_crosses_the_wire_typed(net):
    endpoint = ServiceEndpoint(net.sp)
    server = AsyncSocketServer(endpoint).start()
    try:
        with _connect(net, server) as client:
            client.execute(_wide_query(client)).raise_for_forgery()
            stats = client.server_stats()
            assert isinstance(stats, ServerStats)
            assert stats.endpoint["queries"] == 1
            assert stats.caches["fragments"]["misses"] == N_BLOCKS
            assert stats.server is not None
            assert stats.server["connections_opened"] == 1
            assert stats.server["requests"] >= 2  # the query + this request
            # the snapshot matches the endpoint's local view
            assert stats.endpoint == endpoint.server_stats().endpoint
    finally:
        server.stop()
        endpoint.close()


def test_server_section_absent_without_attached_server(net):
    endpoint = ServiceEndpoint(net.sp)
    try:
        assert endpoint.server_stats().server is None
    finally:
        endpoint.close()


def test_stats_detached_after_stop(net):
    endpoint = ServiceEndpoint(net.sp)
    server = AsyncSocketServer(endpoint).start()
    assert endpoint.server_stats().server is not None
    server.stop()
    assert endpoint.server_stats().server is None
    endpoint.close()


# -- ClientOptions -------------------------------------------------------------
def test_client_options_validation():
    with pytest.raises(ValueError):
        ClientOptions(retries=-1)
    with pytest.raises(ValueError):
        ClientOptions(backoff=-0.1)
    with pytest.raises(ValueError):
        ClientOptions(request_deadline=0.0)
    assert ClientOptions().deadline_ms() is None
    assert ClientOptions(request_deadline=0.25).deadline_ms() == 250
    assert ClientOptions(request_deadline=1e-9).deadline_ms() == 1  # min 1ms


# -- stop() budget -------------------------------------------------------------
def test_stop_reports_stuck_handler(net):
    endpoint = ServiceEndpoint(net.sp)
    server = AsyncSocketServer(endpoint).start()
    started, gate, undo = _gated_processor(net)
    try:
        client = _connect(net, server, request_deadline=10.0)

        def run_query():
            try:
                client.transport.time_window_query(_wide_query(net.client))
            except Exception:
                pass  # the connection dies with the server; that's fine

        thread = threading.Thread(target=run_query)
        thread.start()
        assert started.wait(timeout=10)  # the worker is provably stuck
        begun = time.monotonic()
        with pytest.warns(RuntimeWarning, match="still running"):
            server.stop(timeout=0.3)
        # the budget is total, not per-handler
        assert time.monotonic() - begun < 1.2
        gate.set()
        thread.join(timeout=10)
        client.close()
    finally:
        gate.set()
        undo()
        server.stop()
        endpoint.close()


def test_stop_within_budget_is_quiet(net):
    endpoint = ServiceEndpoint(net.sp)
    server = AsyncSocketServer(endpoint).start()
    with _connect(net, server) as client:
        client.execute(_wide_query(client)).raise_for_forgery()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        server.stop(timeout=5.0)
    endpoint.close()
