"""VChainClient over the local transport: responses and streams."""

import random
import warnings

import pytest

from repro import VChainClient, VChainNetwork
from repro.api import LocalTransport, ServiceEndpoint
from repro.api.response import VerifiedResponse
from repro.chain import ProtocolParams
from repro.errors import SubscriptionError, VerificationError
from tests.conftest import make_objects


@pytest.fixture()
def net():
    net = VChainNetwork.create(
        params=ProtocolParams(mode="both", bits=8, skip_size=2, difficulty_bits=0),
        seed=21,
    )
    rng = random.Random(21)
    for height in range(8):
        net.mine(make_objects(rng, 3, height * 3, timestamp=height * 10),
                 timestamp=height * 10)
    return net


def _query(net):
    return (net.client.query()
            .window(0, 200)
            .range(low=(0,), high=(255,))
            .any_of("Benz", "BMW"))


def test_execute_returns_verified_response(net):
    resp = _query(net).execute()
    assert isinstance(resp, VerifiedResponse)
    assert resp.ok and resp.error is None
    assert resp.raise_for_forgery() is resp
    assert resp.vo_nbytes == resp.vo.nbytes(net.accumulator.backend) > 0
    assert resp.wall_seconds > 0
    assert resp.sp_seconds == resp.sp_stats.sp_seconds
    assert resp.user_seconds == resp.user_stats.user_seconds
    truth = sorted(
        o.object_id
        for b in net.chain for o in b.objects
        if resp.query.matches_object(o, net.params.bits)
    )
    assert sorted(o.object_id for o in resp.results) == truth


def test_response_unpacks_like_legacy_tuple(net):
    resp = _query(net).execute()
    results, vo, sp_stats, user_stats = resp
    assert results is resp.results and vo is resp.vo
    assert sp_stats is resp.sp_stats and user_stats is resp.user_stats


def test_client_syncs_headers_automatically(net):
    client = net.connect()  # fresh client, empty light node
    assert len(client.user.light) == 0
    resp = client.query().any_of("Benz").execute()
    assert resp.ok
    assert len(client.user.light) == len(net.chain)


class _TamperingTransport(LocalTransport):
    """An SP that silently drops the first result."""

    def time_window_query(self, query, batch=None):
        results, vo, stats = super().time_window_query(query, batch=batch)
        return results[1:], vo, stats


def test_forged_answer_is_captured_not_raised(net):
    client = VChainClient(
        _TamperingTransport(ServiceEndpoint(net.sp)),
        net.accumulator, net.encoder, net.params,
    )
    resp = client.query().any_of("Benz", "BMW").execute()
    assert not resp.ok
    assert resp.results == [] and resp.user_stats is None
    with pytest.raises(VerificationError):
        resp.raise_for_forgery()


def test_subscription_stream_lifecycle(net):
    client = net.client
    builder = client.subscribe().range(low=(0,), high=(255,)).any_of("Benz")
    with builder.open() as stream:
        rng = random.Random(5)
        block = net.mine(make_objects(rng, 4, 100, timestamp=500), timestamp=500)
        deliveries = stream.poll()
        assert [d.heights() for d in deliveries] == [[block.height]]
        expected = sorted(o.object_id for o in block.objects if "Benz" in o.keywords)
        assert sorted(o.object_id for o in deliveries[0].results) == expected
        assert deliveries[0].vo_nbytes > 0
        assert stream.poll() == []  # drained
    # the context manager deregistered server-side and client-side
    with pytest.raises(SubscriptionError):
        stream.poll()
    with pytest.raises(SubscriptionError):
        net.endpoint.poll(stream.query_id)


def test_lazy_stream_flush():
    net = VChainNetwork.create(
        params=ProtocolParams(mode="both", bits=8, skip_size=2, difficulty_bits=0),
        seed=3,
    )
    client = net.connect(lazy=True)
    with client.subscribe().any_of("NoSuchKeyword").open() as stream:
        rng = random.Random(9)
        for height in range(4):
            net.mine(make_objects(rng, 2, height * 2, timestamp=height * 10),
                     timestamp=height * 10)
        assert stream.poll() == []  # all blocks mismatch: evidence is parked
        flushed = stream.flush()
        assert [d.results for d in flushed] == [[]]
        assert flushed[0].from_height == 0 and flushed[0].up_to_height == 3
        assert stream.flush() == []


def test_register_below_ingested_height_rejected(net):
    from repro.api import QueryBuilder

    with net.client.subscribe().any_of("Benz").open() as stream:
        net.mine(make_objects(random.Random(1), 2, 900, timestamp=900),
                 timestamp=900)
        stream.poll()  # ingests the chain into the engine
        late = QueryBuilder(subscription=True).any_of("Benz").build()
        with pytest.raises(SubscriptionError):
            net.endpoint.register(late, since_height=0)
        # but "from the next block" is always fine
        query_id, since = net.endpoint.register(late)
        assert since == len(net.chain)
        net.endpoint.deregister(query_id)


def test_engine_options_only_for_fresh_endpoints(net):
    with pytest.raises(ValueError):
        VChainClient.local(net.endpoint, lazy=True)


def test_builder_validation_matches_wire_encodability(net):
    # everything the builder lets through must encode for the socket
    # transport — build-time validation is the only gate
    from repro.wire import QueryRequest, decode_request, encode_request

    query = (net.client.query()
             .window(0, 2**62)
             .range(low=0, high=2**40)
             .any_of("Benz")
             .build())
    assert decode_request(encode_request(QueryRequest(query=query))).query == query


def test_new_api_path_does_not_warn(net):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _query(net).execute().raise_for_forgery()
    assert not caught
