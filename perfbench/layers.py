"""Which public functions of each layer the traced run wraps, and the
per-layer metrics derived from the spans and counters.

Every ``*_ms`` and count metric is per operation: per verified query on
the query workloads, per mined block (with all its deliveries) on
``mine-subscribe``.  A layer the workload never calls reports 0.
"""

from __future__ import annotations

from typing import Any

import repro.api.transport as transport
import repro.chain.miner as miner
from repro.accumulators.keys import KeyOracle
from repro.api import ServiceEndpoint, SocketTransport, VChainClient
from repro.core.prover import QueryProcessor
from repro.core.verifier import QueryVerifier
from repro.storage.store import FileBlockStore
from repro.subscribe.client import SubscriptionClient
from repro.subscribe.engine import SubscriptionEngine

from spans import Patches, Tracer

LAYERS = (
    "api", "wire", "core", "accumulators", "crypto",
    "index", "chain", "storage", "subscribe",
)

#: (metric name, unit, better) for every per-layer metric, in print order
PER_LAYER = (
    ("api.roundtrip_ms", "ms", "lower"),
    ("api.endpoint_query_ms", "ms", "lower"),
    ("api.transport_ms", "ms", "lower"),
    ("api.poll_ms", "ms", "lower"),
    ("api.refused", "count", "lower"),
    ("wire.encode_ms", "ms", "lower"),
    ("wire.decode_ms", "ms", "lower"),
    ("wire.response_bytes", "bytes", "lower"),
    ("core.prove_ms", "ms", "lower"),
    ("core.proofs_computed", "count", "lower"),
    ("core.proofs_reused", "count", "higher"),
    ("core.nodes_visited", "count", "lower"),
    ("core.blocks_skipped", "count", "higher"),
    ("core.verify_ms", "ms", "lower"),
    ("core.disjoint_checks", "count", "lower"),
    ("cache.fragment_hit_rate", "ratio", "higher"),
    ("cache.proof_hit_rate", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("accumulators.key_power_ms", "ms", "lower"),
    ("accumulators.key_power_calls", "count", "lower"),
    ("accumulators.key_powers_first_touch", "count", "lower"),
    ("accumulators.prove_disjoint_ms", "ms", "lower"),
    ("accumulators.verify_disjoint_ms", "ms", "lower"),
    ("accumulators.accumulate_ms", "ms", "lower"),
    ("crypto.exp_calls", "count", "lower"),
    ("crypto.exp_ms", "ms", "lower"),
    ("crypto.multi_exp_calls", "count", "lower"),
    ("crypto.multi_exp_ms", "ms", "lower"),
    ("crypto.multi_pairing_calls", "count", "lower"),
    ("crypto.multi_pairing_ms", "ms", "lower"),
    ("index.intra_build_ms", "ms", "lower"),
    ("index.skiplist_build_ms", "ms", "lower"),
    ("chain.mine_block_ms", "ms", "lower"),
    ("chain.header_sync_ms", "ms", "lower"),
    ("storage.append_ms", "ms", "lower"),
    ("storage.bytes_per_block", "bytes", "lower"),
    ("storage.reopen_s", "s", "lower"),
    ("subscribe.process_block_ms", "ms", "lower"),
    ("subscribe.proofs_computed", "count", "lower"),
    ("subscribe.proofs_shared", "count", "higher"),
    ("subscribe.verify_ms", "ms", "lower"),
    *((f"self.{layer}_ms", "ms", "lower") for layer in LAYERS),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.spans_per_op", "count", "lower"),
)


def instrument(patches: Patches, tracer: Tracer, accumulator: Any) -> None:
    """Wrap the calls into each layer with spans named ``layer.what``."""

    def response_bytes(body: bytes) -> None:
        tracer.count("wire.response_bytes", len(body))

    backend = type(accumulator.backend)
    targets = (
        (SocketTransport, "time_window_query", "api.roundtrip"),
        # the async server runs queries through query_inline on its pool
        (ServiceEndpoint, "query_inline", "api.endpoint_query"),
        (SocketTransport, "poll", "api.poll"),
        (QueryProcessor, "time_window_query", "core.prove"),
        (QueryVerifier, "verify_time_window", "core.verify"),
        (KeyOracle, "power", "accumulators.key_power"),
        (type(accumulator), "prove_disjoint", "accumulators.prove_disjoint"),
        (type(accumulator), "verify_disjoint", "accumulators.verify_disjoint"),
        (type(accumulator), "accumulate", "accumulators.accumulate"),
        (backend, "exp", "crypto.exp"),
        (backend, "multi_exp", "crypto.multi_exp"),
        (backend, "multi_pairing", "crypto.multi_pairing"),
        (miner, "build_intra_tree", "index.intra_build"),
        (miner, "build_skip_entries", "index.skiplist_build"),
        (miner.Miner, "mine_block", "chain.mine_block"),
        (VChainClient, "sync_headers", "chain.header_sync"),
        (FileBlockStore, "append", "storage.append"),
        (SubscriptionEngine, "process_block", "subscribe.process_block"),
        (SubscriptionClient, "on_delivery", "subscribe.verify"),
        (transport, "decode_query_response", "wire.decode"),
        (transport, "decode_deliveries", "wire.decode"),
    )
    for owner, attr, name in targets:
        patches.patch(owner, attr, tracer.timed(name))
    for attr in ("encode_query_response", "encode_deliveries"):
        patches.patch(transport, attr, tracer.timed("wire.encode", response_bytes))


def per_layer(
    tracer: Tracer,
    ops: int,
    sums: dict[str, float],
    server: dict[str, float],
    first_touches: int,
    extra: dict[str, float],
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric for one traced phase of ``ops``."""
    ops = max(ops, 1)
    total = tracer.durations()
    own = tracer.self_times()
    calls: dict[str, int] = {}
    for _sid, _parent, _req, name, _start, _end in tracer.spans:
        calls[name] = calls.get(name, 0) + 1

    def ms(name: str) -> float:
        return total.get(name, 0.0) * 1000 / ops

    def rate(hits: str, lookups: str) -> float:
        return server[hits] / server[lookups] if server[lookups] else 0.0

    values = {
        "api.roundtrip_ms": ms("api.roundtrip"),
        "api.endpoint_query_ms": ms("api.endpoint_query"),
        "api.transport_ms": ms("api.roundtrip") - ms("api.endpoint_query"),
        "api.poll_ms": ms("api.poll"),
        "api.refused": server["refused"] / ops,
        "wire.encode_ms": ms("wire.encode"),
        "wire.decode_ms": ms("wire.decode"),
        "wire.response_bytes": tracer.counters["wire.response_bytes"] / ops,
        "core.prove_ms": ms("core.prove"),
        "core.verify_ms": ms("core.verify"),
        "cache.fragment_hit_rate": rate("fragment_hits", "fragment_lookups"),
        "cache.proof_hit_rate": rate("proof_hits", "proof_lookups"),
        "cache.evictions": server["evictions"] / ops,
        "accumulators.key_power_ms": ms("accumulators.key_power"),
        "accumulators.key_power_calls": calls.get("accumulators.key_power", 0) / ops,
        "accumulators.key_powers_first_touch": first_touches / ops,
        "accumulators.prove_disjoint_ms": ms("accumulators.prove_disjoint"),
        "accumulators.verify_disjoint_ms": ms("accumulators.verify_disjoint"),
        "accumulators.accumulate_ms": ms("accumulators.accumulate"),
        "index.intra_build_ms": ms("index.intra_build"),
        "index.skiplist_build_ms": ms("index.skiplist_build"),
        "chain.mine_block_ms": ms("chain.mine_block"),
        "chain.header_sync_ms": ms("chain.header_sync"),
        "storage.append_ms": ms("storage.append"),
        "subscribe.process_block_ms": ms("subscribe.process_block"),
        "subscribe.proofs_computed": server["engine_proofs_computed"] / ops,
        "subscribe.proofs_shared": server["engine_proofs_shared"] / ops,
        "subscribe.verify_ms": ms("subscribe.verify"),
        "trace.unattributed_share": (
            own.get("request", 0.0) / total["request"] if total.get("request") else 0.0
        ),
        "trace.spans_per_op": len(tracer.spans) / ops,
    }
    for what in ("proofs_computed", "proofs_reused", "nodes_visited",
                 "blocks_skipped", "disjoint_checks"):
        values[f"core.{what}"] = sums.get(what, 0.0) / ops
    for kind in ("exp", "multi_exp", "multi_pairing"):
        values[f"crypto.{kind}_calls"] = calls.get(f"crypto.{kind}", 0) / ops
        values[f"crypto.{kind}_ms"] = ms(f"crypto.{kind}")
    for layer in LAYERS:
        values[f"self.{layer}_ms"] = sum(
            seconds for name, seconds in own.items() if name.startswith(layer + ".")
        ) * 1000 / ops
    values.update(extra)
    return values
