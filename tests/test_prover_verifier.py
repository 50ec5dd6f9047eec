"""End-to-end time-window query tests across modes, accumulators, batching."""

import random

import pytest

from repro import VChainNetwork
from repro.chain import ProtocolParams
from repro.core.query import CNFCondition, RangeCondition, TimeWindowQuery
from repro.errors import QueryError
from tests.conftest import make_objects

VOCAB = ["Sedan", "Van", "Benz", "BMW", "Audi", "Tesla", "Ford"]


def build_network(acc_name, mode, n_blocks=24, per_block=3, seed=8, skip_size=2):
    params = ProtocolParams(mode=mode, bits=8, skip_size=skip_size, difficulty_bits=0)
    net = VChainNetwork.create(acc_name=acc_name, params=params, seed=seed)
    rng = random.Random(seed)
    oid = 0
    for h in range(n_blocks):
        objs = make_objects(rng, per_block, oid, timestamp=h * 10, vocab=VOCAB)
        oid += per_block
        net.miner.mine_block(objs, timestamp=h * 10)
    net.user.sync_headers(net.chain)
    return net


def ground_truth(net, query):
    return sorted(
        obj.object_id
        for block in net.chain
        for obj in block.objects
        if query.in_window(obj.timestamp)
        and query.matches_object(obj, net.params.bits)
    )


QUERY = TimeWindowQuery(
    start=0,
    end=150,
    numeric=RangeCondition(low=(0, 0), high=(140, 255)),
    boolean=CNFCondition.of([["Benz", "BMW"], ["Sedan", "Van"]]),
)


@pytest.mark.parametrize("mode", ["nil", "intra", "both"])
@pytest.mark.parametrize("acc_name", ["acc1", "acc2"])
def test_query_correct_all_schemes(acc_name, mode):
    net = build_network(acc_name, mode)
    batch = acc_name == "acc2"
    verified, _vo, sp_stats, user_stats = net.client.execute(
        QUERY, batch=batch
    ).raise_for_forgery()
    assert sorted(o.object_id for o in verified) == ground_truth(net, QUERY)
    assert sp_stats.results == len(verified)
    assert user_stats.nodes_replayed > 0


def test_batch_requires_acc2():
    net = build_network("acc1", "intra")
    with pytest.raises(QueryError):
        net.sp.processor.time_window_query(QUERY, batch=True)


def test_empty_result_queries_verify():
    net = build_network("acc2", "both")
    query = TimeWindowQuery(
        start=0, end=150, boolean=CNFCondition.of([["NoSuchKeyword"]])
    )
    verified, vo, _sp, _user = net.client.execute(query).raise_for_forgery()
    assert verified == []
    assert vo.entries  # mismatch evidence still present


def test_query_window_outside_chain():
    net = build_network("acc2", "both")
    query = TimeWindowQuery(start=10**9, end=2 * 10**9)
    verified, vo, _sp, _user = net.client.execute(query).raise_for_forgery()
    assert verified == [] and vo.entries == []


def test_no_condition_returns_everything():
    net = build_network("acc2", "intra", n_blocks=6)
    query = TimeWindowQuery(start=0, end=10**6)
    verified, _vo, _sp, _user = net.client.execute(query).raise_for_forgery()
    assert len(verified) == sum(len(b.objects) for b in net.chain)


def test_partial_window_selects_blocks():
    net = build_network("acc2", "intra")
    query = TimeWindowQuery(start=50, end=90, boolean=CNFCondition.of([["Benz"]]))
    verified, _vo, _sp, _user = net.client.execute(query).raise_for_forgery()
    assert all(50 <= o.timestamp <= 90 for o in verified)
    assert sorted(o.object_id for o in verified) == ground_truth(net, query)


def test_intra_vo_smaller_than_nil():
    """The headline index effect: intra prunes, nil proves per object."""
    selective = TimeWindowQuery(
        start=0, end=230, boolean=CNFCondition.of([["Tesla"], ["Ford"]])
    )
    nil_net = build_network("acc2", "nil")
    intra_net = build_network("acc2", "intra")
    _r1, vo_nil, stats_nil = nil_net.sp.processor.time_window_query(
        selective, batch=False
    )
    _r2, vo_intra, stats_intra = intra_net.sp.processor.time_window_query(
        selective, batch=False
    )
    backend = nil_net.accumulator.backend
    assert stats_intra.proofs_computed < stats_nil.proofs_computed
    assert vo_intra.nbytes(backend) < vo_nil.nbytes(backend)


def test_inter_index_skips_sparse_data():
    """Blocks with rare keywords: skips cover runs of blocks."""
    params = ProtocolParams(mode="both", bits=8, skip_size=3, skip_base=4)
    net = VChainNetwork.create(acc_name="acc2", params=params, seed=3)
    rng = random.Random(3)
    sparse_vocab = [f"addr{i}" for i in range(500)]
    oid = 0
    for h in range(40):
        objs = make_objects(rng, 2, oid, timestamp=h, vocab=sparse_vocab)
        oid += 2
        net.miner.mine_block(objs, timestamp=h)
    net.user.sync_headers(net.chain)
    query = TimeWindowQuery(start=0, end=39, boolean=CNFCondition.of([["addr0"]]))
    verified, _vo, stats = net.sp.processor.time_window_query(query, batch=False)
    _verified2, _stats2 = net.user.verify(query, verified, _vo)
    assert stats.blocks_skipped > 0
    assert sorted(o.object_id for o in verified) == ground_truth(net, query)


def test_batch_reduces_user_checks_and_vo_size():
    net = build_network("acc2", "both")
    query = TimeWindowQuery(start=0, end=230, boolean=CNFCondition.of([["Tesla"]]))
    r1, vo_plain, _ = net.sp.processor.time_window_query(query, batch=False)
    _v1, stats_plain = net.user.verify(query, r1, vo_plain)
    r2, vo_batch, _ = net.sp.processor.time_window_query(query, batch=True)
    _v2, stats_batch = net.user.verify(query, r2, vo_batch)
    backend = net.accumulator.backend
    assert stats_batch.disjoint_checks < stats_plain.disjoint_checks
    assert vo_batch.nbytes(backend) <= vo_plain.nbytes(backend)


def test_vo_nbytes_positive_and_consistent():
    net = build_network("acc2", "both")
    _r, vo, _s = net.sp.processor.time_window_query(QUERY)
    backend = net.accumulator.backend
    total = vo.nbytes(backend)
    assert total > 0
    assert total == sum(e.nbytes(backend) for e in vo.entries) + sum(
        g.nbytes(backend) for g in vo.batch_groups.values()
    )


@pytest.mark.slow
def test_real_backend_end_to_end():
    """Tiny chain on the genuine pairing: the full protocol, no shortcuts."""
    params = ProtocolParams(mode="intra", bits=4, difficulty_bits=0)
    net = VChainNetwork.create(
        acc_name="acc2", backend_name="ss512", params=params, seed=1
    )
    rng = random.Random(1)
    oid = 0
    for h in range(2):
        objs = make_objects(rng, 2, oid, timestamp=h, dims=1, bits=4)
        oid += 2
        net.miner.mine_block(objs, timestamp=h)
    net.user.sync_headers(net.chain)
    query = TimeWindowQuery(start=0, end=10, boolean=CNFCondition.of([["Benz", "BMW"]]))
    verified, _vo, _sp_stats, _user_stats = net.client.execute(
        query
    ).raise_for_forgery()
    assert sorted(o.object_id for o in verified) == ground_truth(net, query)
