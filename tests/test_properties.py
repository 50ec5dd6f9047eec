"""Property-based end-to-end tests: random chains, random queries.

Hypothesis drives object content, block packing and query predicates;
the invariants are the paper's security contract itself:

* the verified result set equals brute-force ground truth;
* dropping any result makes verification fail;
* verification never succeeds against headers of a different chain.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import VChainNetwork
from repro.chain import DataObject, ProtocolParams
from repro.core.query import CNFCondition, RangeCondition, TimeWindowQuery
from repro.errors import VerificationError

VOCAB = [f"w{i}" for i in range(12)]

object_st = st.builds(
    lambda v, ks: (v, ks),
    st.integers(min_value=0, max_value=15),
    st.sets(st.sampled_from(VOCAB), min_size=1, max_size=3),
)

blocks_st = st.lists(
    st.lists(object_st, min_size=1, max_size=3), min_size=1, max_size=6
)

range_st = st.tuples(
    st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15)
).map(lambda ab: (min(ab), max(ab)))

clause_st = st.sets(st.sampled_from(VOCAB), min_size=1, max_size=3)
cnf_st = st.lists(clause_st, min_size=0, max_size=2)


def build_net(block_specs, mode):
    params = ProtocolParams(mode=mode, bits=4, skip_size=1, skip_base=2)
    net = VChainNetwork.create(acc_name="acc2", params=params, seed=0)
    oid = 0
    for h, spec in enumerate(block_specs):
        objs = [
            DataObject(
                object_id=oid + i, timestamp=h, vector=(v,), keywords=frozenset(ks)
            )
            for i, (v, ks) in enumerate(spec)
        ]
        oid += len(objs)
        net.miner.mine_block(objs, timestamp=h)
    net.user.sync_headers(net.chain)
    return net


def build_query(window, rng_bounds, clauses):
    return TimeWindowQuery(
        start=window[0],
        end=window[1],
        numeric=RangeCondition(low=(rng_bounds[0],), high=(rng_bounds[1],)),
        boolean=CNFCondition.of(clauses) if clauses else CNFCondition.true(),
    )


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    blocks=blocks_st,
    rng_bounds=range_st,
    clauses=cnf_st,
    mode=st.sampled_from(["nil", "intra", "both"]),
)
def test_query_answers_equal_ground_truth(blocks, rng_bounds, clauses, mode):
    net = build_net(blocks, mode)
    query = build_query((0, len(blocks)), rng_bounds, clauses)
    verified, _vo, _sp_stats, _user_stats = net.client.execute(
        query
    ).raise_for_forgery()
    truth = sorted(
        o.object_id
        for b in net.chain
        for o in b.objects
        if query.matches_object(o, 4)
    )
    assert sorted(o.object_id for o in verified) == truth


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(blocks=blocks_st, rng_bounds=range_st, clauses=cnf_st)
def test_dropping_any_result_is_detected(blocks, rng_bounds, clauses):
    net = build_net(blocks, "both")
    query = build_query((0, len(blocks)), rng_bounds, clauses)
    results, vo, _stats = net.sp.processor.time_window_query(query)
    if not results:
        return
    for drop in range(len(results)):
        mutated = results[:drop] + results[drop + 1:]
        try:
            net.user.verify(query, mutated, vo)
            raise AssertionError("dropped result went undetected")
        except VerificationError:
            pass


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(blocks=blocks_st)
def test_cross_chain_vo_rejected(blocks):
    net_a = build_net(blocks, "intra")
    # a different chain: shift every numeric value by one
    shifted = [[((v + 1) % 16, ks) for v, ks in spec] for spec in blocks]
    net_b = build_net(shifted, "intra")
    query = build_query((0, len(blocks)), (0, 15), [])
    results, vo, _stats = net_b.sp.processor.time_window_query(query)
    if [o.serialize() for b in net_a.chain for o in b.objects] == [
        o.serialize() for b in net_b.chain for o in b.objects
    ]:
        return  # identical chains (all values were 15): nothing to detect
    try:
        net_a.user.verify(query, results, vo)
        raise AssertionError("foreign-chain VO went undetected")
    except VerificationError:
        pass
