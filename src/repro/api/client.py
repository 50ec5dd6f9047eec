"""The light-node client: queries, subscriptions, header sync.

:class:`VChainClient` binds a light node (header store + verifier) to a
:class:`~repro.api.transport.Transport`.  Every answer crossing the
transport is verified before the caller sees it — the client *is* the
paper's query user, with an ergonomic surface::

    client = net.client                      # LocalTransport, in-process
    resp = (client.query()
                  .window(0, 100)
                  .range(low=(180,), high=(250,))
                  .all_of("Sedan")
                  .any_of("Benz", "BMW")
                  .execute())
    resp.raise_for_forgery()

    with client.subscribe().any_of("Benz").open() as stream:
        for delivery in stream.poll():
            use(delivery.results)

Remote use swaps the transport, nothing else::

    server = AsyncSocketServer(ServiceEndpoint(sp)).start()
    client = VChainClient.connect(server.address, accumulator, encoder, params)
"""

from __future__ import annotations

import time
from typing import Any, Iterator

from repro.accumulators.base import MultisetAccumulator
from repro.accumulators.encoding import ElementEncoder
from repro.chain.miner import ProtocolParams
from repro.core.query import SubscriptionQuery, TimeWindowQuery
from repro.core.sp import ServiceProvider
from repro.core.user import QueryUser
from repro.errors import SubscriptionError, VerificationError
from repro.subscribe.client import SubscriptionClient
from repro.subscribe.engine import Delivery
from repro.wire import ServerStats
from repro.api.builder import QueryBuilder
from repro.api.options import ClientOptions
from repro.api.response import VerifiedDelivery, VerifiedResponse
from repro.api.service import ServiceEndpoint
from repro.api.transport import LocalTransport, SocketTransport, Transport


class VChainClient:
    """A verifying client for one service provider, over any transport."""

    def __init__(
        self,
        transport: Transport,
        accumulator: MultisetAccumulator,
        encoder: ElementEncoder,
        params: ProtocolParams,
        user: QueryUser | None = None,
    ) -> None:
        self.transport = transport
        self.accumulator = accumulator
        self.encoder = encoder
        self.params = params
        self.user = user or QueryUser(accumulator, encoder, params)
        self.subscriptions = SubscriptionClient(
            self.user.light, accumulator, encoder, params
        )

    # -- constructors ------------------------------------------------------
    @classmethod
    def local(
        cls,
        endpoint: ServiceEndpoint | ServiceProvider,
        user: QueryUser | None = None,
        **engine_options: Any,
    ) -> "VChainClient":
        """In-process client.  Pass a shared :class:`ServiceEndpoint` when
        several clients should multiplex one subscription engine (and
        share its cross-query proofs); a bare ServiceProvider gets a
        fresh endpoint."""
        if isinstance(endpoint, ServiceProvider):
            endpoint = ServiceEndpoint(endpoint, **engine_options)
        elif engine_options:
            raise ValueError("engine options apply only when building an endpoint")
        sp = endpoint.sp
        return cls(
            LocalTransport(endpoint), sp.accumulator, sp.encoder, sp.params, user=user
        )

    @classmethod
    def connect(
        cls,
        address: tuple[str, int],
        accumulator: MultisetAccumulator,
        encoder: ElementEncoder,
        params: ProtocolParams,
        user: QueryUser | None = None,
        *,
        options: ClientOptions | None = None,
    ) -> "VChainClient":
        """Client over the length-prefixed socket transport.

        ``options`` (a :class:`~repro.api.options.ClientOptions`)
        carries every transport knob: connect timeout, per-request
        deadline, retries, backoff.
        """
        transport = SocketTransport(address, accumulator.backend, options=options)
        return cls(transport, accumulator, encoder, params, user=user)

    # -- fluent entrypoints ------------------------------------------------
    def query(self) -> QueryBuilder:
        """Start building a historical time-window query."""
        return QueryBuilder(self)

    def subscribe(self) -> QueryBuilder:
        """Start building a subscription query."""
        return QueryBuilder(self, subscription=True)

    # -- execution ---------------------------------------------------------
    def execute(
        self, query: TimeWindowQuery, batch: bool | None = None
    ) -> VerifiedResponse:
        """Run a prebuilt query: sync headers, ask the SP, verify."""
        started = time.perf_counter()
        results, vo, sp_stats = self.transport.time_window_query(query, batch=batch)
        # sync *after* the answer: the chain only grows, so the headers
        # fetched now are guaranteed to cover every block the VO cites
        self.sync_headers()
        error: VerificationError | None = None
        user_stats = None
        verified = []
        try:
            verified, user_stats = self.user.verify(query, results, vo)
        except VerificationError as exc:
            error = exc
        return VerifiedResponse(
            query=query,
            results=verified,
            vo=vo,
            sp_stats=sp_stats,
            user_stats=user_stats,
            vo_nbytes=vo.nbytes(self.accumulator.backend),
            wall_seconds=time.perf_counter() - started,
            error=error,
        )

    def execute_many(
        self, queries: list[TimeWindowQuery], batch: bool | None = None
    ) -> list[VerifiedResponse]:
        """Run several queries, verifying all answers in one batch pass.

        The SP answers each query separately, but client-side
        verification goes through
        :meth:`~repro.core.verifier.QueryVerifier.batch_verify`: all
        disjointness checks sharing a clause — across every response —
        collapse into one aggregated pairing, so verifying a whole
        window of VOs costs far fewer pairings than verifying them one
        by one.  The combined :class:`VerifyStats` is attached to every
        response; ``wall_seconds`` covers the whole batch.

        If the batch pass rejects, each answer is re-verified
        individually so one forged response surfaces in *its* response
        ``error`` without poisoning the rest.
        """
        started = time.perf_counter()
        answers = [
            self.transport.time_window_query(query, batch=batch)
            for query in queries
        ]
        self.sync_headers()
        items = [
            (query, results, vo)
            for query, (results, vo, _stats) in zip(queries, answers)
        ]
        try:
            all_verified, user_stats = self.user.batch_verify(items)
            verdicts = [(verified, user_stats, None) for verified in all_verified]
        except VerificationError:
            verdicts = []
            for query, results, vo in items:
                try:
                    verified, stats = self.user.verify(query, results, vo)
                    verdicts.append((verified, stats, None))
                except VerificationError as exc:
                    verdicts.append(([], None, exc))
        wall = time.perf_counter() - started
        return [
            VerifiedResponse(
                query=query,
                results=verified,
                vo=vo,
                sp_stats=sp_stats,
                user_stats=user_stats,
                vo_nbytes=vo.nbytes(self.accumulator.backend),
                wall_seconds=wall,
                error=error,
            )
            for (query, (results, vo, sp_stats)), (verified, user_stats, error)
            in zip(zip(queries, answers), verdicts)
        ]

    def stream(
        self, query: SubscriptionQuery, since_height: int | None = None
    ) -> "SubscriptionStream":
        """Register a subscription and open its delivery stream."""
        query_id, since = self.transport.register(query, since_height=since_height)
        self.subscriptions.track(query_id, query, since_height=since)
        return SubscriptionStream(self, query_id)

    def sync_headers(self) -> int:
        """Pull any block headers the light node is missing."""
        headers = self.transport.headers(from_height=len(self.user.light))
        return self.user.light.sync(self.user.light.headers() + headers)

    def server_stats(self) -> ServerStats:
        """The server's observability snapshot, typed end to end.

        Over a socket transport this is a real wire request; against a
        :class:`~repro.api.transport.LocalTransport` it reads the
        endpoint directly.  Either way the answer is the server-side
        :meth:`~repro.api.service.ServiceEndpoint.stats` snapshot —
        endpoint counters, cache and pool stats, and (when a socket
        server is attached) its admission/rate-limit/eviction counters.
        """
        return self.transport.server_stats()

    def close(self) -> None:
        self.transport.close()

    def __enter__(self) -> "VChainClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SubscriptionStream:
    """Iterator/context-manager over one subscription's deliveries.

    ``poll()`` fetches and verifies everything currently due; iterating
    the stream drains the same set.  ``flush()`` additionally forces a
    lazy engine to emit the evidence parked on its pending stack.
    Leaving the ``with`` block deregisters the query on the SP.
    """

    def __init__(self, client: VChainClient, query_id: int) -> None:
        self.client = client
        self.query_id = query_id
        self._closed = False

    def poll(self) -> list[VerifiedDelivery]:
        """Verified deliveries due now."""
        self._ensure_open()
        deliveries = self.client.transport.poll(self.query_id)
        if deliveries:
            # sync after fetching: deliveries reference blocks the SP had
            # when it answered, so the headers fetched now cover them even
            # if more blocks were mined mid-poll
            self.client.sync_headers()
        return [self._verify(delivery) for delivery in deliveries]

    def flush(self) -> list[VerifiedDelivery]:
        """Poll, then drain a lazy subscription's pending evidence."""
        verified = self.poll()
        delivery = self.client.transport.flush(self.query_id)
        if delivery is not None:
            self.client.sync_headers()
            verified.append(self._verify(delivery))
        return verified

    def _verify(self, delivery: Delivery) -> VerifiedDelivery:
        results, stats = self.client.subscriptions.on_delivery(delivery)
        return VerifiedDelivery(
            query_id=delivery.query_id,
            from_height=delivery.from_height,
            up_to_height=delivery.up_to_height,
            results=results,
            stats=stats,
            vo_nbytes=delivery.vo.nbytes(self.client.accumulator.backend),
        )

    def __iter__(self) -> Iterator[VerifiedDelivery]:
        yield from self.poll()

    def _ensure_open(self) -> None:
        if self._closed:
            raise SubscriptionError(f"stream for query {self.query_id} is closed")

    def close(self) -> None:
        """Deregister with the SP and stop tracking; idempotent."""
        if self._closed:
            return
        self._closed = True
        self.client.subscriptions.untrack(self.query_id)
        self.client.transport.deregister(self.query_id)

    def __enter__(self) -> "SubscriptionStream":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
