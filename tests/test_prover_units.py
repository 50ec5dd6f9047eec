"""Unit tests for the SP-side query processor internals."""

import random

import pytest

from repro import VChainNetwork
from repro.chain import ProtocolParams
from repro.core.query import CNFCondition, TimeWindowQuery
from repro.core.vo import VOBlock, VOSkip
from tests.conftest import make_objects


@pytest.fixture(scope="module")
def sparse_net():
    """A chain whose blocks pairwise share no keywords — skips always fire."""
    params = ProtocolParams(mode="both", bits=8, skip_size=3, skip_base=4)
    net = VChainNetwork.create(acc_name="acc2", params=params, seed=51)
    rng = random.Random(51)
    oid = 0
    for h in range(40):
        vocab = [f"only{h}_{i}" for i in range(8)]
        objs = make_objects(rng, 2, oid, timestamp=h, vocab=vocab)
        oid += 2
        net.miner.mine_block(objs, timestamp=h)
    net.user.sync_headers(net.chain)
    return net


def test_skip_prefers_largest_distance(sparse_net):
    query = TimeWindowQuery(start=0, end=39, boolean=CNFCondition.of([["nowhere"]]))
    _r, vo, stats = sparse_net.sp.processor.time_window_query(query, batch=False)
    skips = [e for e in vo.entries if isinstance(e, VOSkip)]
    assert skips, "sparse chain must produce skips"
    # the newest block (height 39) can host distance 16; it must be used
    assert skips[0].height == 39
    assert skips[0].distance == 16
    _verified, _stats = sparse_net.user.verify(query, [], vo)


def test_skip_not_taken_when_clause_matches(sparse_net):
    # a keyword present only in block 30: blocks around it can be skipped,
    # but any skip whose range covers block 30 is unusable for this clause
    query = TimeWindowQuery(start=0, end=39, boolean=CNFCondition.of([["only30_0"]]))
    results, vo, _stats = sparse_net.sp.processor.time_window_query(query, batch=False)
    verified, _ = sparse_net.user.verify(query, results, vo)
    assert {o.timestamp for o in verified} <= {30}
    scanned = [e.height for e in vo.entries if isinstance(e, VOBlock)]
    assert 30 in scanned


def test_stats_fields_consistent(sparse_net):
    query = TimeWindowQuery(start=0, end=39, boolean=CNFCondition.of([["nowhere"]]))
    _r, _vo, stats = sparse_net.sp.processor.time_window_query(query, batch=False)
    assert stats.blocks_scanned + stats.blocks_skipped == 40
    assert stats.sp_seconds > 0
    assert stats.results == 0


def test_batch_grouping_reduces_proofs(sparse_net):
    query = TimeWindowQuery(start=0, end=39, boolean=CNFCondition.of([["nowhere"]]))
    _r, vo_plain, stats_plain = sparse_net.sp.processor.time_window_query(
        query, batch=False
    )
    _r2, vo_batch, stats_batch = sparse_net.sp.processor.time_window_query(
        query, batch=True
    )
    assert stats_batch.proofs_computed < stats_plain.proofs_computed
    # a single clause ⇒ a single batch group
    assert len(vo_batch.batch_groups) == 1


def test_intra_only_never_emits_skips():
    params = ProtocolParams(mode="intra", bits=8)
    net = VChainNetwork.create(acc_name="acc2", params=params, seed=52)
    rng = random.Random(52)
    for h in range(10):
        net.miner.mine_block(make_objects(rng, 2, h * 2, h), timestamp=h)
    net.user.sync_headers(net.chain)
    query = TimeWindowQuery(start=0, end=9, boolean=CNFCondition.of([["nowhere"]]))
    _r, vo, stats = net.sp.processor.time_window_query(query)
    assert stats.blocks_skipped == 0
    assert all(isinstance(e, VOBlock) for e in vo.entries)
