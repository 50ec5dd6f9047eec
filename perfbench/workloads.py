"""The deployed system the benchmark drives, and its three workloads.

Every workload runs against the same shape: a durable ss512/acc2 chain
(``mode="both"``) reopened with ``VChainNetwork.open``, served by
``AsyncSocketServer`` over a ``ServiceEndpoint``, and queried by one
``VChainClient.connect`` light client in the same process — a closed
loop with a single connection.  The chain is fixed (4SQ-like data,
16 blocks × 6 objects, dataset seed 4), and so are the blocks
``mine-subscribe`` adds; the workload seed only draws the queries and
subscriptions.  Every answer is checked against a brute-force scan of
the chain.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro import VChainNetwork
from repro.api import (
    AsyncSocketServer,
    ClientOptions,
    ServiceEndpoint,
    SubscriptionStream,
    VChainClient,
)
from repro.chain import DataObject, ProtocolParams
from repro.core.query import CNFCondition, Query, SubscriptionQuery, TimeWindowQuery
from repro.datasets import (
    foursquare_like,
    make_subscription_queries,
    make_time_window_queries,
)
from repro.datasets.base import Dataset
from repro.errors import ReproError

from spans import FirstTouches

BASE_BLOCKS = 16
OBJECTS_PER_BLOCK = 6
WINDOW_BLOCKS = 8
DATASET_SEED = 4
#: seed of the trusted setup (the key powers), recorded in the manifest
SETUP_SEED = 17
HOT_TEMPLATES = 3
SUBSCRIPTIONS = 4
CLIENT_OPTIONS = ClientOptions(connect_timeout=10.0, request_deadline=60.0)


def dataset() -> Dataset:
    """The base chain's blocks and one more, the template of
    :func:`new_blocks`."""
    return foursquare_like(
        BASE_BLOCKS + 1, objects_per_block=OBJECTS_PER_BLOCK, seed=DATASET_SEED
    )


def base_dataset(full: Dataset) -> Dataset:
    return dataclasses.replace(full, blocks=full.blocks[:BASE_BLOCKS])


def new_blocks(full: Dataset) -> Iterator[tuple[int, list[DataObject]]]:
    """The blocks ``mine-subscribe`` mines: the template block's check-in
    locations, each check-in naming two places no earlier block named.

    Every block thus brings the same amount of data no subscription has
    seen.  With the dataset's own blocks the cost of a block's proofs
    fell by 3x over the first dozen blocks, so the median of a run
    depended on how many blocks it got through.
    """
    _ts, template = full.blocks[BASE_BLOCKS]
    next_id = 1 + max(obj.object_id for _ts, objs in full.blocks for obj in objs)
    for height in itertools.count(BASE_BLOCKS):
        timestamp = height * full.block_interval
        objects = []
        for obj in template:
            objects.append(DataObject(
                object_id=next_id,
                timestamp=timestamp,
                vector=obj.vector,
                keywords=frozenset({f"new:{next_id}:a", f"new:{next_id}:b"}),
            ))
            next_id += 1
        yield timestamp, objects


def build_chain(chain_dir: Path, full: Dataset) -> None:
    """Mine the base chain into a durable, fsync'd ``FileBlockStore``."""
    params = ProtocolParams(
        mode="both", bits=full.bits, skip_size=3, skip_base=4, difficulty_bits=0
    )
    net = VChainNetwork.create(
        acc_name="acc2",
        backend_name="ss512",
        params=params,
        seed=SETUP_SEED,
        data_dir=str(chain_dir),
    )
    try:
        for timestamp, objects in full.blocks[:BASE_BLOCKS]:
            net.miner.mine_block(objects, timestamp)
    finally:
        net.close()


def _keywords(blocks: list[tuple[int, list]]) -> set[str]:
    return {kw for _ts, objects in blocks for obj in objects for kw in obj.keywords}


def _new_keywords(queries: list[Query], used: set[str]) -> Iterator[Query]:
    """The queries whose keywords are not in ``used``, claiming them."""
    for query in queries:
        keywords = set().union(*query.boolean.clauses)
        if not keywords & used:
            used |= keywords
            yield query


def fresh_queries(base: Dataset, seed: int) -> Iterator[TimeWindowQuery]:
    """Sec. 9 queries over the trailing window whose keywords occur
    nowhere in the chain and in no earlier query.

    Each request therefore needs key powers no earlier one made, and all
    requests do the same work: their keyword clause is disjoint from the
    whole chain.  About half of Sec. 9's random draws have this property;
    the other half descend into blocks to differing depths, which made
    per-run medians of a few queries depend on the seed.
    """
    used = _keywords(base.blocks)
    for batch in range(64):
        yield from _new_keywords(
            make_time_window_queries(
                base, n_queries=64, window_blocks=WINDOW_BLOCKS,
                seed=seed * 1000 + batch,
            ),
            used,
        )
    raise RuntimeError("no unused keywords left for another fresh query")


def subscription_queries(full: Dataset, seed: int) -> list[SubscriptionQuery]:
    """Sec. 9 subscriptions: the generator's default ranges, each with
    three keywords drawn from ``seed`` among those no block of ``full``
    mentions, no two subscriptions sharing one.

    Which range clause a block's proof uses decides its cost, so the
    ranges stay fixed; with keywords absent from every block, each
    delivery proves one mismatch and every seed does the same work.
    """
    base = base_dataset(full)
    ranges = make_subscription_queries(base, n_queries=SUBSCRIPTIONS)
    absent = sorted(set(full.vocabulary) - _keywords(full.blocks))
    words = random.Random(seed).sample(absent, 3 * SUBSCRIPTIONS)
    return [
        SubscriptionQuery(
            numeric=fixed.numeric, boolean=CNFCondition.of([words[3 * i:3 * i + 3]])
        )
        for i, fixed in enumerate(ranges)
    ]


@dataclass
class Deployment:
    net: VChainNetwork
    endpoint: ServiceEndpoint
    server: AsyncSocketServer
    client: VChainClient
    streams: list[SubscriptionStream]
    reopen_s: float
    #: the whole set-up: reopen, serve, connect, sync and register
    setup_s: float

    def close(self) -> None:
        try:
            for stream in self.streams:
                stream.close()
            self.client.close()
        finally:
            self.server.stop()
            self.endpoint.close()
            self.net.close()


def deploy(chain_dir: Path, subscriptions: list[SubscriptionQuery]) -> Deployment:
    """Reopen, serve, connect, sync headers and register: ready to serve."""
    started = time.perf_counter()
    net = VChainNetwork.open(str(chain_dir))
    reopen_s = time.perf_counter() - started
    endpoint = server = client = None
    try:
        endpoint = ServiceEndpoint(net.sp, use_iptree=True, lazy=False)
        server = AsyncSocketServer(endpoint).start()
        client = VChainClient.connect(
            server.address, net.accumulator, net.encoder, net.params,
            options=CLIENT_OPTIONS,
        )
        client.sync_headers()
        streams = [client.stream(query) for query in subscriptions]
        setup_s = time.perf_counter() - started
    except BaseException:
        if client is not None:
            client.close()
        if server is not None:
            server.stop()
        if endpoint is not None:
            endpoint.close()
        net.close()
        raise
    return Deployment(net, endpoint, server, client, streams, reopen_s, setup_s)


# -- brute-force ground truth ---------------------------------------------------
def scan_window(dep: Deployment, query: Query) -> list[int]:
    bits = dep.net.params.bits
    return sorted(
        obj.object_id
        for block in dep.net.chain
        for obj in block.objects
        if query.in_window(obj.timestamp) and query.matches_object(obj, bits)
    )


def scan_block(dep: Deployment, query: Query, height: int) -> list[int]:
    bits = dep.net.params.bits
    block = dep.net.chain.block(height)
    return sorted(o.object_id for o in block.objects if query.matches_object(o, bits))


# -- measurement ---------------------------------------------------------------
@dataclass
class Tally:
    """What one measured phase observed."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    proof_bytes: list[int] = field(default_factory=list)
    first_touches: list[int] = field(default_factory=list)
    seals: list[float] = field(default_factory=list)
    ops: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: per-op accumulators (proof counts and the like) summed over the phase
    sums: dict[str, float] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + value


def _server_counts(dep: Deployment) -> dict[str, float]:
    stats = dep.client.server_stats()
    fragments = stats.caches["fragments"]
    proofs = stats.caches["proofs"]
    server = stats.server or {}
    return {
        "fragment_hits": fragments["hits"],
        "fragment_lookups": fragments["hits"] + fragments["misses"],
        "proof_hits": proofs["hits"],
        "proof_lookups": proofs["hits"] + proofs["misses"],
        "evictions": fragments["evictions"] + proofs["evictions"],
        "refused": server.get("admission_rejections", 0)
        + server.get("rate_limited", 0),
        "engine_proofs_computed": stats.engine["proofs_computed"],
        "engine_proofs_shared": stats.engine["proofs_shared"],
    }


def measure(
    dep: Deployment,
    seconds: float,
    step: Callable[[Tally], None],
    around: Callable[[], Any],
    touches: FirstTouches,
) -> tuple[Tally, dict[str, float]]:
    """Run ``step`` in a closed loop for ``seconds``; ``around()`` gives a
    context manager entered once per step (the traced request span)."""
    tally = Tally()
    before = _server_counts(dep)
    cpu = time.process_time()
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        touched = touches.count
        with around():
            step(tally)
        tally.ops += 1
        tally.first_touches.append(touches.count - touched)
    tally.wall_s = time.perf_counter() - started
    tally.cpu_s = time.process_time() - cpu
    after = _server_counts(dep)
    return tally, {key: after[key] - before[key] for key in after}


def query_step(
    dep: Deployment,
    queries: Iterator[TimeWindowQuery],
    expected: Callable[[TimeWindowQuery], list[int]],
) -> Callable[[Tally], None]:
    """One verified time-window query per step."""

    def step(tally: Tally) -> None:
        query = next(queries)
        tally.attempted += 1
        started = time.perf_counter()
        try:
            response = dep.client.execute(query)
        except (ReproError, OSError) as exc:
            tally.fail(f"query failed: {exc!r}")
            return
        latency = time.perf_counter() - started
        if not response.ok:
            tally.fail(f"forgery flagged: {response.error}")
            return
        got = sorted(obj.object_id for obj in response.results)
        if got != expected(query):
            tally.fail(f"answer {got} differs from the chain scan")
            return
        tally.latencies.append(latency)
        tally.proof_bytes.append(response.vo_nbytes)
        sp, user = response.sp_stats, response.user_stats
        tally.add("proofs_computed", sp.proofs_computed)
        tally.add("proofs_reused", sp.proofs_reused)
        tally.add("nodes_visited", sp.nodes_visited)
        tally.add("blocks_skipped", sp.blocks_skipped)
        tally.add("disjoint_checks", user.disjoint_checks if user else 0)

    return step


def mine_step(
    dep: Deployment,
    blocks: Iterator[tuple[int, list]],
    subscriptions: list[SubscriptionQuery],
) -> Callable[[Tally], None]:
    """Mine one block, then poll and verify every subscription stream."""

    def step(tally: Tally) -> None:
        timestamp, objects = next(blocks)
        tally.attempted += 1
        started = time.perf_counter()
        try:
            block = dep.net.miner.mine_block(objects, timestamp)
        except ReproError as exc:
            tally.fail(f"mining failed: {exc!r}")
            return
        sealed = time.perf_counter()
        tally.seals.append(sealed - started)
        for stream, query in zip(dep.streams, subscriptions):
            tally.attempted += 1
            try:
                deliveries = stream.poll()
            except (ReproError, OSError) as exc:
                tally.fail(f"poll failed: {exc!r}")
                continue
            delivered = time.perf_counter() - sealed
            if [d.heights() for d in deliveries] != [[block.height]]:
                tally.fail(
                    f"stream {stream.query_id} got heights "
                    f"{[d.heights() for d in deliveries]} for block {block.height}"
                )
                continue
            (delivery,) = deliveries
            got = sorted(obj.object_id for obj in delivery.results)
            if got != scan_block(dep, query, block.height):
                tally.fail(f"delivery {got} differs from the block scan")
                continue
            tally.latencies.append(delivered)
            tally.proof_bytes.append(delivery.vo_nbytes)
            tally.add("disjoint_checks", delivery.stats.disjoint_checks)

    return step
