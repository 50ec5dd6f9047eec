"""Client/server API for the vChain reproduction.

The transport-ready surface over the paper's machinery: a fluent
:class:`QueryBuilder`, rich :class:`VerifiedResponse` /
:class:`VerifiedDelivery` results, a :class:`SubscriptionStream`, and
pluggable :class:`Transport` implementations (in-process
:class:`LocalTransport`, length-prefixed :class:`SocketTransport`).
The socket protocol is served by the asyncio :class:`AsyncSocketServer`
(one event loop, admission control, rate limits, slow-client
eviction).  See ``docs/API.md`` for the guided tour.
"""

from repro.api.aio import AsyncSocketServer, ServerCounters
from repro.api.builder import QueryBuilder
from repro.api.client import SubscriptionStream, VChainClient
from repro.api.options import ClientOptions
from repro.api.response import VerifiedDelivery, VerifiedResponse
from repro.api.service import ClientSession, EndpointStats, ServiceEndpoint
from repro.api.transport import (
    FrameTap,
    LocalTransport,
    SocketTransport,
    Transport,
    TransportError,
    dispatch_request,
    perform_request,
)

__all__ = [
    "AsyncSocketServer",
    "ClientOptions",
    "ClientSession",
    "EndpointStats",
    "FrameTap",
    "LocalTransport",
    "QueryBuilder",
    "ServerCounters",
    "ServiceEndpoint",
    "SocketTransport",
    "SubscriptionStream",
    "Transport",
    "TransportError",
    "VChainClient",
    "VerifiedDelivery",
    "VerifiedResponse",
    "dispatch_request",
    "perform_request",
    "serve",
]


def __getattr__(name: str) -> object:
    # ``serve`` is imported lazily so ``python -m repro.api.server`` does
    # not re-import the module it is executing (runpy's double-import
    # warning); everything else stays an eager import.
    if name == "serve":
        from repro.api.server import serve

        return serve
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
