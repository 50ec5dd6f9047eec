"""Deterministic tests for batch-group verification edge cases."""

from dataclasses import replace

import pytest

from repro import VChainNetwork
from repro.chain import DataObject, ProtocolParams
from repro.core.query import CNFCondition, TimeWindowQuery
from repro.core.vo import BatchGroup, TimeWindowVO, VOBlock, VOMismatchNode
from repro.errors import VerificationError


@pytest.fixture(scope="module")
def net():
    """Blocks engineered so one query yields two distinct batch groups."""
    params = ProtocolParams(mode="intra", bits=4)
    network = VChainNetwork.create(acc_name="acc2", params=params, seed=71)
    # blocks alternate: missing "alpha" vs missing "beta"
    for h in range(6):
        keyword = "beta" if h % 2 else "alpha"
        network.mine(
            [
                DataObject(
                    object_id=h,
                    timestamp=h,
                    vector=(h % 16,),
                    keywords=frozenset({keyword}),
                )
            ],
            timestamp=h,
        )
    return network


QUERY = TimeWindowQuery(start=0, end=5, boolean=CNFCondition.of([["alpha"], ["beta"]]))


def test_two_batch_groups_form_and_verify(net):
    results, vo, _stats = net.sp.processor.time_window_query(QUERY, batch=True)
    assert results == []  # every block misses one clause
    assert len(vo.batch_groups) == 2
    clauses = {group.clause for group in vo.batch_groups.values()}
    assert clauses == {frozenset({"alpha"}), frozenset({"beta"})}
    net.user.verify(QUERY, results, vo)


def test_swapped_group_proofs_rejected(net):
    results, vo, _stats = net.sp.processor.time_window_query(QUERY, batch=True)
    (id_a, group_a), (id_b, group_b) = sorted(vo.batch_groups.items())
    forged = TimeWindowVO(
        entries=vo.entries,
        batch_groups={
            id_a: BatchGroup(clause=group_a.clause, proof=group_b.proof),
            id_b: BatchGroup(clause=group_b.clause, proof=group_a.proof),
        },
    )
    with pytest.raises(VerificationError):
        net.user.verify(QUERY, results, forged)


def test_relabelled_member_clause_rejected(net):
    """Re-tagging a grouped mismatch node's clause must be caught."""
    results, vo, _stats = net.sp.processor.time_window_query(QUERY, batch=True)
    forged_entries = []
    mutated = False
    for entry in vo.entries:
        root = entry.root
        if (
            not mutated
            and isinstance(root, VOMismatchNode)
            and root.group is not None
            and root.clause == frozenset({"alpha"})
        ):
            entry = VOBlock(
                height=entry.height,
                root=replace(root, clause=frozenset({"beta"})),
            )
            mutated = True
        forged_entries.append(entry)
    assert mutated
    with pytest.raises(VerificationError):
        net.user.verify(
            QUERY,
            results,
            TimeWindowVO(entries=forged_entries, batch_groups=vo.batch_groups),
        )


def test_group_clause_member_mismatch_rejected(net):
    """Group table claiming a different clause than its members carry."""
    results, vo, _stats = net.sp.processor.time_window_query(QUERY, batch=True)
    forged_groups = dict(vo.batch_groups)
    target = next(iter(forged_groups))
    forged_groups[target] = BatchGroup(
        clause=frozenset({"alpha", "beta"}),  # not the members' clause
        proof=forged_groups[target].proof,
    )
    with pytest.raises(VerificationError):
        net.user.verify(
            QUERY, results, TimeWindowVO(entries=vo.entries, batch_groups=forged_groups)
        )
