"""Server-side request dispatcher.

:class:`ServiceEndpoint` is the one object a transport talks to on the
SP side.  It owns the query processor (through the
:class:`~repro.core.sp.ServiceProvider`) and one
:class:`~repro.subscribe.engine.SubscriptionEngine`, multiplexes every
registered subscription over newly mined blocks, and queues deliveries
per query until the subscriber polls.  Both the in-process
:class:`~repro.api.transport.LocalTransport` and the socket server
dispatch into the same endpoint, so local and remote answers are
identical by construction.

Concurrency model: time-window queries are **read-only** against the
append-only chain, so they run on a worker pool (``max_workers``
concurrent queries; excess callers queue) instead of serialising behind
the endpoint lock.  Proving work is amortised across workers through a
shared :class:`~repro.cache.VOFragmentCache` and
:class:`~repro.cache.ProofCache` — VOs are recomputable, so overlapping
windows and repeated conditions reuse per-block fragments and
disjointness proofs instead of re-proving.  Subscription state (the
engine, the delivery queues) stays behind one lock, because
registration order and block ingestion must be serialised anyway.

Each transport connection gets a :class:`ClientSession`; when the
connection drops, the session deregisters every subscription it opened
so a vanished client cannot leak engine state.  ``close()`` drains the
worker pool for a graceful shutdown.

Block ingestion is pull-based: each ``poll``/``flush`` first feeds any
chain blocks the engine has not seen yet, in height order.  This keeps
the endpoint free of callbacks into the miner — it only ever reads
``sp.chain``.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence, cast

from repro.cache import CacheStats, ProofCache, VOFragmentCache
from repro.chain.block import BlockHeader
from repro.chain.object import DataObject
from repro.core.prover import QueryStats
from repro.core.query import SubscriptionQuery, TimeWindowQuery
from repro.core.sp import ServiceProvider
from repro.core.vo import TimeWindowVO
from repro.crypto.accel import dispatch
from repro.errors import ReproError, SubscriptionError
from repro.parallel import CryptoPool, ParallelConfig, make_pool
from repro.subscribe.engine import Delivery, SubscriptionEngine
from repro.wire import Scalar, ServerStats


@dataclass
class EndpointStats:
    """Serving counters across one endpoint's lifetime.

    Increment through :meth:`bump` — counters are hit from every reader
    and worker thread, and an unsynchronised ``+=`` loses updates.
    Every bump also wakes :meth:`wait_for`, which is how tests observe
    a counter crossing a threshold without sleep-and-poll loops.
    """

    queries: int = 0
    registrations: int = 0
    deregistrations: int = 0
    polls: int = 0
    flushes: int = 0
    header_syncs: int = 0
    sessions_opened: int = 0
    sessions_closed: int = 0
    _cond: threading.Condition = field(
        default_factory=threading.Condition, repr=False, compare=False
    )

    def bump(self, counter: str) -> None:
        with self._cond:
            setattr(self, counter, getattr(self, counter) + 1)
            self._cond.notify_all()

    def wait_for(self, counter: str, minimum: int = 1, timeout: float = 10.0) -> bool:
        """Block until ``counter`` reaches ``minimum``; False on timeout."""
        with self._cond:
            reached = self._cond.wait_for(
                lambda: getattr(self, counter) >= minimum, timeout=timeout
            )
        return bool(reached)

    def as_dict(self) -> dict[str, int]:
        """Coherent snapshot of every counter."""
        with self._cond:
            return {
                "queries": self.queries,
                "registrations": self.registrations,
                "deregistrations": self.deregistrations,
                "polls": self.polls,
                "flushes": self.flushes,
                "header_syncs": self.header_syncs,
                "sessions_opened": self.sessions_opened,
                "sessions_closed": self.sessions_closed,
            }


class ClientSession:
    """Per-connection state: the subscriptions this client opened.

    Transports create one session per connection and ``close()`` it when
    the connection ends (cleanly or not); every subscription the session
    still owns is deregistered, so a hung or vanished client cannot leak
    engine registrations or delivery queues.
    """

    def __init__(self, endpoint: "ServiceEndpoint") -> None:
        self.endpoint = endpoint
        self._query_ids: set[int] = set()
        self._lock = threading.Lock()
        self._closed = False

    def track(self, query_id: int) -> None:
        with self._lock:
            self._query_ids.add(query_id)

    def untrack(self, query_id: int) -> None:
        with self._lock:
            self._query_ids.discard(query_id)

    def close(self) -> None:
        """Deregister everything this session still owns; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            orphans = list(self._query_ids)
            self._query_ids.clear()
        for query_id in orphans:
            try:
                self.endpoint.deregister(query_id)
            except SubscriptionError:
                pass  # already deregistered through another path
        self.endpoint.counters.bump("sessions_closed")


class ServiceEndpoint:
    """Dispatches the full SP↔user protocol against one service provider."""

    def __init__(
        self,
        sp: ServiceProvider,
        *,
        use_iptree: bool = True,
        lazy: bool = False,
        iptree_dims: int | None = None,
        iptree_max_depth: int = 6,
        max_workers: int = 8,
        cache_fragments: int = 512,
        cache_proofs: int = 4096,
        workers: int = 1,
        parallel: ParallelConfig | None = None,
        scrub_interval: float | None = None,
        scrub_batch: int = 64,
    ) -> None:
        """``max_workers`` bounds concurrent query execution (1 restores
        the serial dispatcher); ``cache_fragments``/``cache_proofs``
        size the per-endpoint VO-fragment and proof caches (0 disables
        either).

        ``scrub_interval`` (seconds) starts an endpoint-owned background
        scrubber for a striped store: every interval it verifies the
        next ``scrub_batch`` block heights' stripes, repairs deviations
        and rebuilds lost node directories (see
        :meth:`repro.storage.StripedBlockStore.scrub_step`).  A
        non-positive interval raises :class:`ValueError`; the option is
        ignored when the chain's store has no scrubber (plain file or
        in-memory stores).

        ``workers`` scales the *crypto*, not the dispatch: >1 starts a
        :class:`~repro.parallel.CryptoPool` of worker processes that
        the query processor and subscription engine fan proving across
        (``parallel`` accepts a full
        :class:`~repro.parallel.ParallelConfig` instead).  The endpoint
        owns a pool it started and closes it on :meth:`close`; with the
        default ``workers=1`` it simply inherits whatever pool the
        :class:`~repro.core.sp.ServiceProvider` was built with.  Run at
        most one ``workers>1`` endpoint per SP at a time: the query
        processor is shared, so the most recently constructed
        endpoint's pool serves its queries.
        """
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if scrub_interval is not None and scrub_interval <= 0:
            raise ValueError("scrub_interval must be positive (seconds)")
        self.sp = sp
        self.max_workers = max_workers
        self.counters = EndpointStats()
        self.fragment_cache = VOFragmentCache(cache_fragments)
        self.proof_cache = ProofCache(sp.accumulator, sp.encoder, cache_proofs)
        self._owned_pool: CryptoPool | None = None
        # inherit the pool the SP was *built* with — never another
        # endpoint's transient pool picked off sp.processor
        self._inherited_pool: CryptoPool | None = getattr(sp, "pool", None)
        pool = self._inherited_pool
        if workers != 1 or parallel is not None:
            self._owned_pool = make_pool(
                sp.accumulator, sp.encoder, workers=workers, config=parallel
            )
        try:
            if self._owned_pool is not None:
                pool = self._owned_pool
                sp.processor.pool = pool
            self.engine = SubscriptionEngine(
                sp.accumulator,
                sp.encoder,
                sp.params,
                use_iptree=use_iptree,
                lazy=lazy,
                iptree_dims=iptree_dims,
                iptree_max_depth=iptree_max_depth,
                proof_cache=self.proof_cache,
                pool=pool,
            )
        except Exception:
            # a bad engine option must not leak live worker processes
            if self._owned_pool is not None:
                sp.processor.pool = self._inherited_pool
                self._owned_pool.close()
                self._owned_pool = None
            raise
        self._queues: dict[int, deque[Delivery]] = {}
        self._ingested = 0  # chain height the engine has processed up to
        # one endpoint may serve many transports (and the socket server
        # runs one reader thread per connection): every entrypoint that
        # touches the engine or the queues holds this lock.  Queries do
        # NOT take it — they go through the worker pool instead.
        self._lock = threading.RLock()
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="vchain-sp-worker"
        )
        self._closed = False
        self._owns_store = False
        self._server_counters: Callable[[], dict[str, int]] | None = None
        # background scrubbing (striped stores only): a daemon thread
        # calls scrub_step every interval until close() sets the event
        self._scrub_stop = threading.Event()
        self._scrub_thread: threading.Thread | None = None
        self._scrub_batch = scrub_batch
        if scrub_interval is not None and hasattr(sp.chain.store, "scrub_step"):
            self._scrub_thread = threading.Thread(
                target=self._scrub_loop,
                args=(scrub_interval,),
                name="vchain-scrubber",
                daemon=True,
            )
            self._scrub_thread.start()

    @classmethod
    def open(
        cls,
        data_dir: str | os.PathLike[str] | Sequence[str | os.PathLike[str]],
        *,
        fsync: bool = True,
        **endpoint_options: Any,
    ) -> "ServiceEndpoint":
        """Serve a chain directory written by a previous process.

        Reopens the durable chain (re-validating every recovered
        header), reconstructs the SP from the persisted trusted setup,
        and wraps it in an endpoint that **owns** the store —
        ``close()`` also closes the underlying files.
        ``endpoint_options`` are the regular constructor options
        (``max_workers=``, ``cache_fragments=``, ...).

        ``data_dir`` also takes a striped deployment — a parent
        directory of ``node-*`` stripe dirs, or an explicit sequence of
        surviving ones.  This is the standby-SP takeover path: point a
        fresh process at whatever directories outlived the primary.
        """
        sp = ServiceProvider.open(data_dir, fsync=fsync)
        try:
            endpoint = cls(sp, **endpoint_options)
        except Exception:
            sp.close()  # bad endpoint options must not leak open store files
            raise
        endpoint._owns_store = True
        return endpoint

    # -- sessions ----------------------------------------------------------
    def session(self) -> ClientSession:
        """A new per-connection session (transports close it on drop)."""
        self.counters.bump("sessions_opened")
        return ClientSession(self)

    # -- lifecycle ---------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, wait: bool = True) -> None:
        """Stop accepting work; with ``wait``, drain in-flight queries.

        An endpoint constructed through :meth:`open` also closes the
        chain's backing store, so the data directory is cleanly synced
        when the endpoint shuts down."""
        with self._lock:
            self._closed = True
            owned, self._owned_pool = self._owned_pool, None
        self._scrub_stop.set()
        if self._scrub_thread is not None:
            self._scrub_thread.join(timeout=10.0)
        self._pool.shutdown(wait=wait)
        if owned is not None:
            # hand the processor back its original pool before stopping
            # ours — but only if we are still the one wired in (another
            # endpoint on the same SP may have installed its own since)
            if self.sp.processor.pool is owned:
                self.sp.processor.pool = self._inherited_pool
            owned.close(wait=wait)
        if self._owns_store:
            self.sp.close()

    def __enter__(self) -> "ServiceEndpoint":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _scrub_loop(self, interval: float) -> None:
        """Body of the endpoint-owned scrubber thread.

        Runs until :meth:`close`; a scrub failure (e.g. the store closed
        under it during shutdown) ends the loop rather than killing the
        process — scrubbing is maintenance, not correctness.
        """
        store = self.sp.chain.store
        while not self._scrub_stop.wait(interval):
            try:
                store.scrub_step(self._scrub_batch)
            except ReproError:
                break

    def storage_health(self) -> dict[str, Scalar] | None:
        """The chain store's health counters, or ``None`` for stores
        without degradation tracking (memory, plain file)."""
        health = getattr(self.sp.chain.store, "health", None)
        if health is None:
            return None
        return cast("dict[str, Scalar]", health())

    def cache_stats(self) -> dict[str, CacheStats]:
        """Snapshot of both serving caches, keyed ``fragments``/``proofs``."""
        return {
            "fragments": self.fragment_cache.stats(),
            "proofs": self.proof_cache.stats(),
        }

    @property
    def pool(self) -> CryptoPool | None:
        """The live :class:`~repro.parallel.CryptoPool`, if any."""
        return self._owned_pool or self._inherited_pool

    @property
    def executor(self) -> ThreadPoolExecutor:
        """The query worker pool, for transports that schedule into it.

        The async socket server dispatches every request body through
        ``loop.run_in_executor(endpoint.executor, ...)`` so connection
        multiplexing (the event loop) and crypto concurrency
        (``max_workers``) stay independent knobs.
        """
        return self._pool

    def attach_server(self, counters: Callable[[], dict[str, int]] | None) -> None:
        """Register (or clear) a socket server's counter snapshot.

        A running server attaches its transport-level counters —
        admission rejections, rate limiting, evictions — so one
        :meth:`stats` call covers the whole serving stack.  Pass
        ``None`` on server stop.
        """
        with self._lock:
            self._server_counters = counters

    def stats(self) -> dict[str, object]:
        """One observability snapshot: endpoint, caches, engine, pool,
        and — when a socket server is attached — its transport counters.

        Everything a load generator or dashboard needs, as plain JSON-
        ready dicts (see ``benchmarks/bench_load.py`` for the consumer).
        """
        engine = self.engine.stats
        pool = self.pool
        server = self._server_counters
        return {
            "endpoint": self.counters.as_dict(),
            "caches": {
                "fragments": self.fragment_cache.stats().as_info(),
                "proofs": self.proof_cache.stats().as_info(),
            },
            "engine": {
                "proofs_computed": engine.proofs_computed,
                "proofs_shared": engine.proofs_shared,
                "deliveries": engine.deliveries,
                "parallel_tasks": engine.parallel_tasks,
            },
            "pool": pool.stats().as_info() if pool is not None else None,
            "server": server() if server is not None else None,
            "storage": self.storage_health(),
            "accel": dispatch.active_impl(),
        }

    def server_stats(self) -> ServerStats:
        """The :meth:`stats` snapshot in its typed, wire-ready form.

        This is what :class:`~repro.api.client.VChainClient`'s
        ``server_stats()`` receives over any transport — the socket
        server answers a stats request with exactly this object.
        """
        snapshot = self.stats()
        return ServerStats(
            endpoint=cast("dict[str, Scalar]", snapshot["endpoint"]),
            caches=cast("dict[str, dict[str, Scalar]]", snapshot["caches"]),
            engine=cast("dict[str, Scalar]", snapshot["engine"]),
            pool=cast("dict[str, Scalar] | None", snapshot["pool"]),
            server=cast("dict[str, Scalar] | None", snapshot["server"]),
            storage=cast("dict[str, Scalar] | None", snapshot["storage"]),
            accel=cast("str", snapshot["accel"]),
        )

    # -- time-window queries ----------------------------------------------
    def query_inline(
        self, query: TimeWindowQuery, batch: bool | None = None
    ) -> tuple[list[DataObject], TimeWindowVO, QueryStats]:
        """Run one query on the *calling* thread, with the shared caches.

        This is the unit of work :meth:`time_window_query` submits to
        the worker pool.  Transports that already sit on a pool thread
        — the async server dispatches whole request bodies through
        ``run_in_executor`` — call it directly, so a query never
        occupies two workers (or deadlocks a saturated pool by
        submitting from inside it).
        """
        if self._closed:
            raise ReproError("service endpoint is closed")
        self.counters.bump("queries")
        return cast(
            "tuple[list[DataObject], TimeWindowVO, QueryStats]",
            self.sp.processor.time_window_query(
                query,
                batch=batch,
                fragment_cache=self.fragment_cache,
                proof_cache=self.proof_cache,
            ),
        )

    def time_window_query(
        self, query: TimeWindowQuery, batch: bool | None = None
    ) -> tuple[list[DataObject], TimeWindowVO, QueryStats]:
        """Run one query on the worker pool (blocks for the answer).

        Callers beyond ``max_workers`` queue; a slow query therefore
        delays at most the workers it occupies, never the subscription
        path, which does not touch the pool.
        """
        if self._closed:
            raise ReproError("service endpoint is closed")
        try:
            future = self._pool.submit(self.query_inline, query, batch=batch)
        except RuntimeError:  # pool shut down between check and submit
            raise ReproError("service endpoint is closed") from None
        return future.result()

    # -- subscriptions -----------------------------------------------------
    def register(
        self, query: SubscriptionQuery, since_height: int | None = None
    ) -> tuple[int, int]:
        """Register a subscription; returns ``(query_id, since_height)``.

        ``since_height`` defaults to the next block to be mined, i.e. a
        new subscription sees the future, not the backlog.  An explicit
        earlier height works as long as the engine has not processed it
        yet — already-processed heights cannot be subscribed to
        retroactively, because the engine never replays them.
        """
        with self._lock:
            if self._closed:
                raise ReproError("service endpoint is closed")
            if since_height is None:
                since_height = len(self.sp.chain)
            elif since_height < self._ingested:
                raise SubscriptionError(
                    f"height {since_height} was already processed; "
                    f"subscriptions start at {self._ingested} or later"
                )
            if not self._queues:
                # no live subscription covers the blocks below
                # ``since_height``: skip them instead of replaying the
                # whole backlog through the engine on the next poll
                self._ingested = since_height
            query_id = self.engine.register(query, since_height=since_height)
            self._queues[query_id] = deque()
            self.counters.bump("registrations")
            return query_id, since_height

    def deregister(self, query_id: int) -> None:
        with self._lock:
            self.engine.deregister(query_id)
            self._queues.pop(query_id, None)
            self.counters.bump("deregistrations")

    def poll(self, query_id: int) -> list[Delivery]:
        """Due deliveries for one subscription (after ingesting new blocks)."""
        with self._lock:
            if query_id not in self._queues:
                raise SubscriptionError(f"query {query_id} is not registered")
            self._ingest()
            queue = self._queues[query_id]
            deliveries = list(queue)
            queue.clear()
            self.counters.bump("polls")
            return deliveries

    def flush(self, query_id: int) -> Delivery | None:
        """Drain a lazy subscription's pending mismatch evidence."""
        with self._lock:
            if query_id not in self._queues:
                raise SubscriptionError(f"query {query_id} is not registered")
            self._ingest()
            if self._queues[query_id]:
                raise SubscriptionError(
                    f"query {query_id} has undelivered results; poll before flushing"
                )
            self.counters.bump("flushes")
            return cast("Delivery | None", self.engine.flush(query_id))

    def _ingest(self) -> None:
        # callers already hold the (reentrant) lock; taking it here too
        # keeps the method safe standalone and the discipline lexical
        with self._lock:
            chain = self.sp.chain
            while self._ingested < len(chain):
                block = chain.block(self._ingested)
                for delivery in self.engine.process_block(block):
                    queue = self._queues.get(delivery.query_id)
                    if queue is not None:
                        queue.append(delivery)
                self._ingested += 1

    # -- header sync -------------------------------------------------------
    def headers(self, from_height: int = 0) -> list[BlockHeader]:
        with self._lock:
            self.counters.bump("header_syncs")
            return cast("list[BlockHeader]", self.sp.chain.headers()[from_height:])
