"""Adversarial tests re-enacting the Section 8 unforgeability experiments.

Every test plays a malicious SP forging some part of the response; the
verifier must reject.  The three Definition 8.2 cases:

* case 1 — result contains an object not on the chain (tampered);
* case 2 — result contains an object that does not satisfy the query;
* case 3 — a matching object is omitted (completeness violation).

Plus structural attacks on the VO itself (wrong clause, mixed batch
groups, truncated coverage, re-targeted skips).
"""

import random
from dataclasses import replace

import pytest

from repro import VChainNetwork
from repro.chain import DataObject, ProtocolParams
from repro.core.query import CNFCondition, RangeCondition, TimeWindowQuery
from repro.core.vo import (
    TimeWindowVO,
    VOBlock,
    VOExpandNode,
    VOMatchLeaf,
    VOMismatchNode,
    VOSkip,
)
from repro.errors import VerificationError
from tests.conftest import make_objects

VOCAB = ["Sedan", "Van", "Benz", "BMW", "Audi", "Tesla"]


@pytest.fixture(scope="module")
def net():
    params = ProtocolParams(mode="both", bits=8, skip_size=2, difficulty_bits=0)
    network = VChainNetwork.create(acc_name="acc2", params=params, seed=13)
    rng = random.Random(13)
    oid = 0
    for h in range(16):
        objs = make_objects(rng, 3, oid, timestamp=h * 10, vocab=VOCAB)
        oid += 3
        network.miner.mine_block(objs, timestamp=h * 10)
    network.user.sync_headers(network.chain)
    return network


QUERY = TimeWindowQuery(
    start=0,
    end=150,
    numeric=RangeCondition(low=(0, 0), high=(200, 255)),
    boolean=CNFCondition.of([["Benz", "BMW"]]),
)


def honest(net, batch=False):
    return net.sp.processor.time_window_query(QUERY, batch=batch)


def find_block_with_leaf(vo):
    for i, entry in enumerate(vo.entries):
        if isinstance(entry, VOBlock):
            node = entry.root
            if isinstance(node, VOMatchLeaf):
                return i, entry
            stack = [node]
            while stack:
                n = stack.pop()
                if isinstance(n, VOMatchLeaf):
                    return i, entry
                if isinstance(n, VOExpandNode):
                    stack.extend(n.children)
    return None, None


def swap_node(node, old, new):
    if node is old:
        return new
    if isinstance(node, VOExpandNode):
        return VOExpandNode(
            att_digest=node.att_digest,
            children=tuple(swap_node(c, old, new) for c in node.children),
        )
    return node


# -- Definition 8.2, case 1: tampered object ------------------------------------

def test_tampered_object_rejected(net):
    results, vo, _ = honest(net)
    assert results, "fixture query must have results"
    victim = results[0]
    forged_obj = DataObject(
        object_id=victim.object_id,
        timestamp=victim.timestamp,
        vector=victim.vector,
        keywords=victim.keywords | {"Benz", "Sedan"},
    )
    # swap the object in both the result list and the VO transcript
    forged_results = [forged_obj if o is victim else o for o in results]
    forged_entries = []
    for entry in vo.entries:
        if isinstance(entry, VOBlock):
            old_leaf = None
            stack = [entry.root]
            while stack:
                n = stack.pop()
                if isinstance(n, VOMatchLeaf) and n.obj is victim:
                    old_leaf = n
                if isinstance(n, VOExpandNode):
                    stack.extend(n.children)
            if old_leaf is not None:
                new_root = swap_node(entry.root, old_leaf, VOMatchLeaf(obj=forged_obj))
                entry = VOBlock(height=entry.height, root=new_root)
        forged_entries.append(entry)
    forged_vo = TimeWindowVO(entries=forged_entries, batch_groups=vo.batch_groups)
    with pytest.raises(VerificationError):
        net.user.verify(QUERY, forged_results, forged_vo)


def test_fabricated_object_rejected(net):
    results, vo, _ = honest(net)
    ghost = DataObject(
        object_id=9999,
        timestamp=10,
        vector=(1, 1),
        keywords=frozenset({"Benz", "Sedan"}),
    )
    with pytest.raises(VerificationError):
        net.user.verify(QUERY, results + [ghost], vo)


# -- Definition 8.2, case 2: non-satisfying object -----------------------------

def test_non_matching_result_rejected(net):
    results, vo, _ = honest(net)
    # find an on-chain object that does NOT match and splice it as a leaf
    non_match = next(
        o
        for b in net.chain
        for o in b.objects
        if not QUERY.matches_object(o, net.params.bits) and QUERY.in_window(o.timestamp)
    )
    with pytest.raises(VerificationError):
        net.user.verify(QUERY, results + [non_match], vo)


# -- Definition 8.2, case 3: omitted result -----------------------------------

def test_dropped_result_rejected(net):
    results, vo, _ = honest(net)
    with pytest.raises(VerificationError):
        net.user.verify(QUERY, results[:-1], vo)


def test_dropped_result_with_rebuilt_vo_rejected(net):
    """SP drops a result AND rewrites the leaf as a mismatch with a
    forged proof — the accumulator must make this impossible."""
    results, vo, _ = honest(net)
    idx, entry = find_block_with_leaf(vo)
    assert entry is not None
    # locate the match leaf and forge a mismatch node in its place
    stack = [entry.root]
    leaf = None
    while stack:
        n = stack.pop()
        if isinstance(n, VOMatchLeaf):
            leaf = n
            break
        if isinstance(n, VOExpandNode):
            stack.extend(n.children)
    clause = frozenset({"Benz", "BMW"})
    # forge: reuse a proof from some genuinely mismatching node
    donor = None
    for e in vo.entries:
        if isinstance(e, VOBlock):
            stack2 = [e.root]
            while stack2:
                n2 = stack2.pop()
                if isinstance(n2, VOMismatchNode) and n2.proof is not None:
                    donor = n2
                if isinstance(n2, VOExpandNode):
                    stack2.extend(n2.children)
    assert donor is not None
    att = net.accumulator.accumulate(
        net.encoder.encode_multiset(leaf.obj.attribute_multiset(net.params.bits))
    )
    forged_node = VOMismatchNode(
        child_component=leaf.obj.serialize(),
        att_digest=att,
        clause=donor.clause,
        proof=donor.proof,
    )
    forged_root = swap_node(entry.root, leaf, forged_node)
    forged_entries = list(vo.entries)
    forged_entries[idx] = VOBlock(height=entry.height, root=forged_root)
    forged_results = [o for o in results if o.object_id != leaf.obj.object_id]
    with pytest.raises(VerificationError):
        net.user.verify(
            QUERY,
            forged_results,
            TimeWindowVO(entries=forged_entries, batch_groups=vo.batch_groups),
        )


def test_truncated_vo_rejected(net):
    results, vo, _ = honest(net)
    truncated = TimeWindowVO(entries=vo.entries[:-1], batch_groups=vo.batch_groups)
    with pytest.raises(VerificationError):
        net.user.verify(QUERY, results, truncated)


def test_duplicated_entry_rejected(net):
    results, vo, _ = honest(net)
    padded = TimeWindowVO(
        entries=vo.entries + [vo.entries[-1]], batch_groups=vo.batch_groups
    )
    with pytest.raises(VerificationError):
        net.user.verify(QUERY, results, padded)


# -- structural attacks ----------------------------------------------------------

def test_foreign_clause_rejected(net):
    """A valid disjointness proof against a clause the query never asked."""
    results, vo, _ = honest(net)
    forged_entries = []
    mutated = False
    for entry in vo.entries:
        if (
            not mutated
            and isinstance(entry, VOBlock)
            and isinstance(entry.root, VOMismatchNode)
        ):
            node = entry.root
            alien = frozenset({"NotAQueryTerm"})
            proof = net.accumulator.prove_disjoint(
                net.encoder.encode_multiset(
                    net.chain.block(entry.height).index_root.attrs
                ),
                net.encoder.encode_multiset({"NotAQueryTerm": 1}),
            )
            entry = VOBlock(
                height=entry.height,
                root=VOMismatchNode(
                    child_component=node.child_component,
                    att_digest=node.att_digest,
                    clause=alien,
                    proof=proof,
                ),
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


def test_mixed_batch_group_clause_rejected(net):
    results, vo, _ = honest(net, batch=True)
    assert vo.batch_groups
    # re-tag one grouped mismatch node with a different clause
    other_clause = frozenset({"Benz", "BMW"})
    forged_entries = []
    mutated = False
    for entry in vo.entries:
        if (
            not mutated
            and isinstance(entry, VOBlock)
            and isinstance(entry.root, VOMismatchNode)
            and entry.root.group is not None
            and entry.root.clause != other_clause
        ):
            entry = VOBlock(
                height=entry.height,
                root=replace(entry.root, clause=other_clause),
            )
            mutated = True
        forged_entries.append(entry)
    if not mutated:
        pytest.skip("no group-tagged root mismatch in this VO")
    with pytest.raises(VerificationError):
        net.user.verify(
            QUERY,
            results,
            TimeWindowVO(entries=forged_entries, batch_groups=vo.batch_groups),
        )


def test_missing_batch_group_rejected(net):
    results, vo, _ = honest(net, batch=True)
    assert vo.batch_groups
    with pytest.raises(VerificationError):
        net.user.verify(
            QUERY, results, TimeWindowVO(entries=vo.entries, batch_groups={})
        )


def test_forged_skip_distance_rejected(net):
    """A skip claiming a distance outside the protocol schedule."""
    results, vo, _ = honest(net)
    height = 15
    entry = net.chain.block(height).skip_entries[0]
    fake_skip = VOSkip(
        height=height,
        distance=3,  # not in the {4, 8} schedule
        att_digest=entry.att_digest,
        clause=frozenset({"Benz", "BMW"}),
        proof=None,
        group=None,
    )
    forged = TimeWindowVO(
        entries=[fake_skip] + list(vo.entries), batch_groups=vo.batch_groups
    )
    with pytest.raises(VerificationError):
        net.user.verify(QUERY, results, forged)


def test_tampered_mismatch_digest_rejected(net):
    """Changing a pruned node's AttDigest breaks Merkle reconstruction."""
    results, vo, _ = honest(net)
    fake_digest = net.accumulator.accumulate(net.encoder.encode_multiset({"zzz": 1}))
    forged_entries = []
    mutated = False
    for entry in vo.entries:
        if (
            not mutated
            and isinstance(entry, VOBlock)
            and isinstance(entry.root, VOMismatchNode)
        ):
            entry = VOBlock(
                height=entry.height,
                root=replace(entry.root, att_digest=fake_digest),
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


def test_header_substitution_detected(net):
    """A user synced to the honest chain rejects VOs from a forked chain."""
    params = net.params
    fork = VChainNetwork.create(acc_name="acc2", params=params, seed=14)
    rng = random.Random(14)
    oid = 0
    for h in range(16):
        objs = make_objects(rng, 3, oid, timestamp=h * 10, vocab=VOCAB)
        oid += 3
        fork.miner.mine_block(objs, timestamp=h * 10)
    results, vo, _ = fork.sp.processor.time_window_query(QUERY)
    with pytest.raises(VerificationError):
        net.user.verify(QUERY, results, vo)
