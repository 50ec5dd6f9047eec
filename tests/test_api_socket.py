"""End-to-end over the socket transport: SP and user in separate
threads, communicating only via encoded bytes.

The SP side runs on :class:`AsyncSocketServer`'s event-loop thread and
the endpoint's worker pool; the client side runs in the test thread.
The acceptance bar: the verified socket answer matches the
LocalTransport answer byte-for-byte (same canonical wire encoding of
results + VO), and a forged VO is caught at the decode boundary — by
``backend.decode`` — before any verification logic runs.
"""

import random
import threading
import time

import pytest

from repro import VChainClient, VChainNetwork
from repro.api import AsyncSocketServer, ServiceEndpoint
from repro.api.transport import SocketTransport, TransportError, _recv_frame
from repro.chain import ProtocolParams
from repro.errors import CryptoError, SubscriptionError
from repro.wire import WireError, encode_response, encode_time_window_vo
from tests.conftest import make_objects


@pytest.fixture()
def net():
    net = VChainNetwork.create(
        params=ProtocolParams(mode="both", bits=8, skip_size=2, difficulty_bits=0),
        seed=33,
    )
    rng = random.Random(33)
    for height in range(8):
        net.mine(make_objects(rng, 3, height * 3, timestamp=height * 10),
                 timestamp=height * 10)
    return net


@pytest.fixture()
def server(net):
    server = AsyncSocketServer(ServiceEndpoint(net.sp)).start()
    yield server
    server.stop()


def _remote_client(net, server):
    return VChainClient.connect(
        server.address, net.accumulator, net.encoder, net.params
    )


def _builder(client):
    return (client.query()
            .window(0, 200)
            .range(low=(0,), high=(255,))
            .all_of("Sedan")
            .any_of("Benz", "BMW"))


def test_time_window_query_matches_local_byte_for_byte(net, server):
    assert server._thread is not threading.current_thread()
    local = _builder(net.client).execute().raise_for_forgery()
    with _remote_client(net, server) as client:
        remote = _builder(client).execute().raise_for_forgery()
    backend = net.accumulator.backend
    assert remote.results == local.results
    assert encode_response(backend, remote.results, remote.vo) == encode_response(
        backend, local.results, local.vo
    )
    assert remote.vo_nbytes == local.vo_nbytes


def test_subscription_matches_local_byte_for_byte(net, server):
    backend = net.accumulator.backend
    local_stream = (net.client.subscribe()
                    .range(low=(0,), high=(255,)).any_of("Benz").open())
    with _remote_client(net, server) as client:
        with (client.subscribe()
              .range(low=(0,), high=(255,)).any_of("Benz").open()) as stream:
            rng = random.Random(8)
            for height in range(3):
                net.mine(make_objects(rng, 3, 200 + height * 3, timestamp=500 + height),
                         timestamp=500 + height)
            remote_deliveries = stream.poll()
            local_deliveries = local_stream.poll()
            # every push crossed the wire, was re-decoded, verified — and
            # is identical to the in-process engine's answer
            assert len(remote_deliveries) == len(local_deliveries) == 3
            for remote, local in zip(remote_deliveries, local_deliveries):
                assert remote.heights() == local.heights()
                assert remote.results == local.results
                assert remote.vo_nbytes == local.vo_nbytes
    local_stream.close()


def test_concurrent_clients_each_see_every_block_once(net, server):
    """Two remote subscribers polling in parallel must not race the
    endpoint's block ingestion (duplicated or skipped deliveries)."""
    clients = [_remote_client(net, server) for _ in range(2)]
    streams = [
        c.subscribe().range(low=(0,), high=(255,)).any_of("Benz").open()
        for c in clients
    ]
    base = len(net.chain)
    seen = [[] for _ in streams]
    errors = []

    def pump(index):
        try:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                for delivery in streams[index].poll():
                    seen[index].extend(delivery.heights())
                if len(seen[index]) >= 5:
                    return
                time.sleep(0.01)
            raise AssertionError(f"client {index} saw only {seen[index]}")
        except Exception as exc:  # surface across the thread boundary
            errors.append(exc)

    threads = [threading.Thread(target=pump, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    rng = random.Random(4)
    for height in range(5):
        net.mine(make_objects(rng, 2, 400 + height * 2, timestamp=600 + height),
                 timestamp=600 + height)
    for thread in threads:
        thread.join(timeout=10)
    assert not errors, errors
    # every client verified every block exactly once, in order
    expected = list(range(base, base + 5))
    assert seen[0] == expected and seen[1] == expected
    for stream in streams:
        stream.close()
    for client in clients:
        client.close()


def test_server_side_errors_cross_the_wire_typed(net, server):
    with _remote_client(net, server) as client:
        with pytest.raises(SubscriptionError):
            client.transport.poll(999)
        with pytest.raises(SubscriptionError):
            client.transport.deregister(999)


def test_closed_server_raises_transport_error(net):
    server = AsyncSocketServer(ServiceEndpoint(net.sp)).start()
    client = _remote_client(net, server)
    server.stop()
    client.transport._sock.close()
    with pytest.raises((TransportError, OSError)):
        client.query().any_of("Benz").execute()


def _find_digest(vo):
    """Any AttDigest that will appear in the encoded response."""
    def walk(node):
        if getattr(node, "att_digest", None) is not None:
            return node.att_digest
        for child in getattr(node, "children", ()):
            found = walk(child)
            if found is not None:
                return found
        return None

    for entry in vo.entries:
        digest = walk(entry.root) if hasattr(entry, "root") else entry.att_digest
        if digest is not None:
            return digest
    raise AssertionError("VO carries no digest to forge")


def test_forged_vo_caught_at_decode_boundary(net, server):
    backend = net.accumulator.backend
    # grab a group element that will appear in the response bytes
    local = _builder(net.client).execute()
    needle = backend.encode(_find_digest(local.vo).parts[0])
    forged = b"\xff" * len(needle)
    assert needle in encode_time_window_vo(backend, local.vo)
    # the forged bytes are not a valid group element encoding
    with pytest.raises(CryptoError):
        backend.decode(forged)

    class MITM(SocketTransport):
        forged_frames = 0

        def _request(self, payload):
            with self._lock:
                from repro.api.transport import _send_frame
                _send_frame(self._sock, payload)
                response = _recv_frame(self._sock)
            tampered = response.replace(needle, forged, 1)
            if tampered != response:
                MITM.forged_frames += 1
            return tampered[1:]  # strip the OK status byte

    client = VChainClient(
        MITM(server.address, backend), net.accumulator, net.encoder, net.params
    )
    # rejected while *parsing* the response — backend.decode refuses the
    # point before any verification logic sees it
    with pytest.raises(CryptoError):
        _builder(client).execute()
    assert MITM.forged_frames == 1
    client.close()


def test_truncated_response_rejected_at_parse_boundary(net, server):
    class Truncating(SocketTransport):
        def _request(self, payload):
            with self._lock:
                from repro.api.transport import _send_frame
                _send_frame(self._sock, payload)
                response = _recv_frame(self._sock)
            return response[1:-7]  # strip status, drop the tail

    client = VChainClient(
        Truncating(server.address, net.accumulator.backend),
        net.accumulator, net.encoder, net.params,
    )
    with pytest.raises(WireError):
        _builder(client).execute()
    client.close()


def test_malformed_request_gets_wire_error_not_hang(net, server):
    transport = SocketTransport(server.address, net.accumulator.backend)
    with pytest.raises(WireError):
        transport._request(b"\x63garbage")
    # the connection survives malformed frames
    assert transport.headers(0)
    transport.close()


def test_query_error_crosses_the_wire(net, server):
    from repro.core.query import TimeWindowQuery

    transport = SocketTransport(server.address, net.accumulator.backend)
    query = TimeWindowQuery(start=0, end=10)
    object.__setattr__(query, "start", 20)  # valid bytes, invalid query
    with pytest.raises(WireError):
        transport.time_window_query(query)
    transport.close()
