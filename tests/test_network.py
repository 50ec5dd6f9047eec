"""Tests for the VChainNetwork facade and dataset integration."""

import pytest

from repro import VChainNetwork
from repro.chain import DataObject, ProtocolParams
from repro.core.query import CNFCondition, TimeWindowQuery
from repro.datasets import ethereum_like, make_time_window_queries


def test_create_defaults():
    net = VChainNetwork.create(seed=1)
    assert net.params.mode == "both"
    assert net.accumulator.name == "acc2"
    assert len(net.chain) == 0


def test_create_acc1_uses_scalar_domain():
    net = VChainNetwork.create(acc_name="acc1", seed=1)
    assert net.encoder.domain_size == net.accumulator.backend.order - 1


def test_unknown_accumulator_rejected():
    with pytest.raises(ValueError):
        VChainNetwork.create(acc_name="acc9")


def test_mine_syncs_light_node():
    net = VChainNetwork.create(seed=2)
    obj = DataObject(object_id=0, timestamp=0, vector=(1, 2), keywords=frozenset({"x"}))
    net.mine([obj], timestamp=0)
    assert len(net.user.light) == 1


def test_mine_dataset_returns_mined_blocks():
    net = VChainNetwork.create(
        params=ProtocolParams(mode="both", bits=8, skip_size=2), seed=3
    )
    dataset = ethereum_like(6, objects_per_block=2)
    blocks = net.mine_dataset(dataset)
    assert [b.height for b in blocks] == list(range(6))
    assert all(net.chain.block(b.height) is b for b in blocks)


def test_mine_dataset_and_query_workload():
    net = VChainNetwork.create(
        params=ProtocolParams(mode="both", bits=8, skip_size=2), seed=3
    )
    dataset = ethereum_like(24, objects_per_block=4)
    net.mine_dataset(dataset)
    assert len(net.chain) == 24
    queries = make_time_window_queries(dataset, n_queries=3, window_blocks=12, seed=5)
    for query in queries:
        verified, _vo, sp_stats, _user_stats = net.client.execute(
            query
        ).raise_for_forgery()
        truth = sorted(
            o.object_id
            for b in net.chain
            for o in b.objects
            if query.in_window(o.timestamp) and query.matches_object(o, net.params.bits)
        )
        assert sorted(o.object_id for o in verified) == truth
        assert sp_stats.blocks_scanned + sp_stats.blocks_skipped > 0


def test_quickstart_docstring_flow():
    from repro.core import RangeCondition

    net = VChainNetwork.create(acc_name="acc2", backend_name="simulated", seed=4)
    objs = [
        DataObject(object_id=i, timestamp=0, vector=(i * 20 % 256, 0),
                   keywords=frozenset({"Sedan" if i % 2 else "Van", "Benz"}))
        for i in range(6)
    ]
    net.mine(objs, timestamp=0)
    query = TimeWindowQuery(
        start=0, end=100,
        numeric=RangeCondition(low=(0, 0), high=(128, 255)),
        boolean=CNFCondition.of([["Sedan"], ["Benz", "BMW"]]),
    )
    results, _vo, _sp, _user = net.client.execute(query).raise_for_forgery()
    for obj in results:
        assert query.matches_object(obj, net.params.bits)
