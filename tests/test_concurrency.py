"""Concurrent serving: worker pool, shared caches, session isolation.

N threads hammer one :class:`ServiceEndpoint` with identical and
disjoint queries; the suite asserts cache hit accounting, result
correctness against serial references, that forged VOs still fail under
``batch_verify`` while honest traffic flows, and that slow or vanished
clients cannot stall or pollute anyone else.
"""

import random
import socket
import struct
import threading

import pytest

from repro import VChainClient, VChainNetwork
from repro.api import AsyncSocketServer, ClientOptions, ServiceEndpoint
from repro.chain import ProtocolParams
from repro.errors import ReproError, SubscriptionError, VerificationError
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


def _run_threads(workers):
    errors = []

    def guard(fn):
        try:
            fn()
        except Exception as exc:  # surface across the thread boundary
            errors.append(exc)

    threads = [threading.Thread(target=guard, args=(fn,)) for fn in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not errors, errors


def test_identical_queries_concurrent_cache_hits(net):
    n_threads, n_queries = 6, 3
    endpoint = ServiceEndpoint(net.sp)
    try:
        reference = VChainClient.local(endpoint).execute(
            _wide_query(net.client)
        ).raise_for_forgery()

        def hammer():
            client = VChainClient.local(endpoint)
            for _ in range(n_queries):
                resp = client.execute(_wide_query(client)).raise_for_forgery()
                assert resp.results == reference.results
                assert resp.sp_stats.cache_hits == N_BLOCKS
                assert resp.sp_stats.proofs_computed == 0

        _run_threads([hammer] * n_threads)
        # the warm-up missed once per block; every hammer query hit
        stats = endpoint.fragment_cache.stats()
        assert stats.misses == N_BLOCKS
        assert stats.hits == n_threads * n_queries * N_BLOCKS
    finally:
        endpoint.close()


def test_disjoint_queries_concurrent_correctness(net):
    serial = ServiceEndpoint(net.sp, cache_fragments=0, cache_proofs=0)
    references = {
        index: VChainClient.local(serial)
        .execute(_disjoint_query(net.client, index))
        .raise_for_forgery()
        for index in range(5)
    }
    serial.close()
    endpoint = ServiceEndpoint(net.sp)
    try:

        def hammer(index):
            def run():
                client = VChainClient.local(endpoint)
                for _ in range(2):
                    resp = client.execute(
                        _disjoint_query(client, index)
                    ).raise_for_forgery()
                    assert resp.results == references[index].results

            return run

        _run_threads([hammer(i) for i in range(5)])
        assert endpoint.fragment_cache.stats().hits > 0  # repeat passes hit
    finally:
        endpoint.close()


def test_forged_vo_fails_under_batch_verify_amid_traffic(net):
    """A forged answer is rejected by batch_verify even while honest
    threads hammer the same endpoint (shared caches, shared clauses)."""
    endpoint = ServiceEndpoint(net.sp)
    try:

        def honest():
            client = VChainClient.local(endpoint)
            for _ in range(3):
                client.execute(_wide_query(client)).raise_for_forgery()

        def forger():
            client = VChainClient.local(endpoint)
            queries = [_wide_query(client), _wide_query(client)]
            answers = [client.transport.time_window_query(q) for q in queries]
            client.sync_headers()
            items = [(q, results, vo) for q, (results, vo, _s) in zip(queries, answers)]
            forged = (queries[1], items[1][1][:-1], items[1][2])  # drop a result
            with pytest.raises(VerificationError, match="batch item 1"):
                client.user.batch_verify([items[0], forged])
            # the honest pair still verifies
            all_verified, _stats = client.user.batch_verify(items)
            assert all_verified[0] == all_verified[1]

        _run_threads([honest, honest, forger])
    finally:
        endpoint.close()


def test_slow_query_does_not_stall_other_clients(net):
    """Regression: the serial dispatcher ran every query under one lock,
    so one slow query stalled every connection.  With the worker pool a
    slow query occupies one worker while others keep answering."""
    endpoint = ServiceEndpoint(net.sp, max_workers=4)
    real = net.sp.processor.time_window_query
    marker_start = 111
    started = threading.Event()
    gate = threading.Event()

    def sometimes_slow(query, *args, **kwargs):
        if query.start == marker_start:
            started.set()
            gate.wait(timeout=30.0)  # pinned until the test releases it
        return real(query, *args, **kwargs)

    net.sp.processor.time_window_query = sometimes_slow
    try:
        slow_done = threading.Event()

        def slow_caller():
            client = VChainClient.local(endpoint)
            query = client.query().window(marker_start, 200).any_of("Benz").build()
            client.execute(query).raise_for_forgery()
            slow_done.set()

        def fast_caller():
            client = VChainClient.local(endpoint)
            for _ in range(3):
                client.execute(_wide_query(client)).raise_for_forgery()

        slow_thread = threading.Thread(target=slow_caller)
        slow_thread.start()
        assert started.wait(timeout=10)  # the slow query holds its worker
        _run_threads([fast_caller])
        # every fast query completed while the marker query is *still*
        # pinned on its gate: the pool does not serialize behind it
        assert not slow_done.is_set(), "fast queries should finish first"
        gate.set()
        slow_thread.join(timeout=10)
        assert slow_done.is_set()
    finally:
        gate.set()
        del net.sp.processor.__dict__["time_window_query"]
        endpoint.close()


def test_hung_client_mid_frame_does_not_block_others(net):
    endpoint = ServiceEndpoint(net.sp)
    server = AsyncSocketServer(endpoint).start()
    try:
        hung = socket.create_connection(server.address)
        hung.sendall(struct.pack(">I", 64)[:2])  # half a length prefix, then silence
        client = VChainClient.connect(
            server.address, net.accumulator, net.encoder, net.params,
            options=ClientOptions(request_deadline=10.0),
        )
        with client:
            for _ in range(3):
                client.execute(_wide_query(client)).raise_for_forgery()
        hung.close()
    finally:
        server.stop()
        endpoint.close()


def test_clean_disconnect_deregisters_session_subscriptions(net):
    endpoint = ServiceEndpoint(net.sp)
    server = AsyncSocketServer(endpoint).start()
    try:
        client = VChainClient.connect(
            server.address, net.accumulator, net.encoder, net.params
        )
        stream = client.subscribe().any_of("Benz").open()
        query_id = stream.query_id
        client.close()  # socket drops without deregistering
        assert endpoint.counters.wait_for("sessions_closed", 1, timeout=10.0)
        with pytest.raises(SubscriptionError):
            endpoint.poll(query_id)
    finally:
        server.stop()
        endpoint.close()


def test_endpoint_close_drains_inflight_then_rejects(net):
    endpoint = ServiceEndpoint(net.sp, max_workers=2)
    real = net.sp.processor.time_window_query
    started = threading.Event()
    gate = threading.Event()

    def gated(query, *args, **kwargs):
        started.set()
        gate.wait(timeout=30.0)
        return real(query, *args, **kwargs)

    net.sp.processor.time_window_query = gated
    try:
        results = []

        def run_query():
            client = VChainClient.local(endpoint)
            results.append(client.execute(_wide_query(client)).raise_for_forgery())

        thread = threading.Thread(target=run_query)
        thread.start()
        assert started.wait(timeout=10)  # provably in flight
        closing = threading.Event()

        def close_endpoint():
            closing.set()
            endpoint.close(wait=True)  # drains the in-flight query

        closer = threading.Thread(target=close_endpoint)
        closer.start()
        closing.wait(timeout=10)
        gate.set()
        closer.join(timeout=10)
        thread.join(timeout=10)
        assert results and results[0].ok
        with pytest.raises(ReproError):
            endpoint.time_window_query(_wide_query(net.client))
    finally:
        gate.set()
        del net.sp.processor.__dict__["time_window_query"]


def test_closed_endpoint_rejects_registration(net):
    endpoint = ServiceEndpoint(net.sp)
    endpoint.close()
    with pytest.raises(ReproError):
        endpoint.register(net.client.subscribe().any_of("Benz").build())


def test_server_drain_answers_inflight_request(net):
    endpoint = ServiceEndpoint(net.sp)
    server = AsyncSocketServer(endpoint).start()
    real = net.sp.processor.time_window_query
    started = threading.Event()
    gate = threading.Event()

    def gated(query, *args, **kwargs):
        started.set()
        gate.wait(timeout=30.0)
        return real(query, *args, **kwargs)

    net.sp.processor.time_window_query = gated
    try:
        client = VChainClient.connect(
            server.address, net.accumulator, net.encoder, net.params,
            options=ClientOptions(request_deadline=10.0),
        )
        answers = []

        def run_query():
            # raw transport call: drain guarantees this one answer, but
            # no further requests (like a header sync) after stop()
            answers.append(client.transport.time_window_query(_wide_query(net.client)))

        thread = threading.Thread(target=run_query)
        thread.start()
        assert started.wait(timeout=10)  # provably in flight
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
        del net.sp.processor.__dict__["time_window_query"]
        server.stop()
        endpoint.close()
