"""Asyncio socket server: every connection on one event loop.

:class:`AsyncSocketServer` serves the length-prefixed frame protocol
that :class:`~repro.api.transport.SocketTransport` speaks, multiplexing
*all* connections and subscription deliveries over a single event loop
rather than spending a reader thread per connection.  Its responses are
byte-for-byte the ones an in-process
:class:`~repro.api.transport.LocalTransport` would encode for the same
requests.  Crypto-heavy request bodies never run on the loop: each one
is dispatched into the endpoint's worker pool via
``loop.run_in_executor(endpoint.executor, ...)``, so connection count
and query concurrency stay independent knobs and a thousand mostly-idle
clients cost file descriptors, not threads.

Production-traffic hygiene, all loop-side so an abusive client cannot
touch a pool worker:

* **Admission gate** — at most ``max_inflight`` requests dispatched or
  queued on the pool at once; excess requests are rejected up front
  with a typed ``busy`` error frame
  (:class:`~repro.errors.ServerBusyError` client-side), which clients
  may freely retry.
* **Per-client rate limit** — a token bucket per connection
  (``rate_limit`` requests/second, ``rate_burst`` burst); drained
  buckets also answer ``busy``.
* **Deadlines** — request envelopes carry the client's latency budget;
  expired requests are abandoned before *and* discarded after
  execution (see :func:`~repro.api.transport.dispatch_request`), and
  each expiry is counted here.
* **Backpressure and eviction** — response writes respect the
  transport's write-buffer high watermark (``send_queue_limit``); a
  client that stops reading for ``drain_timeout`` seconds is evicted,
  so one stalled downlink can never pin server memory.
* **Graceful drain** — :meth:`stop` quits accepting, half-closes every
  connection so in-flight requests finish and their responses are
  sent, and reports (never swallows) handlers that outlive the budget.

Every one of these shows up as a counter in :class:`ServerCounters`,
which the server attaches to its endpoint so
:meth:`~repro.api.service.ServiceEndpoint.stats` (and the wire-level
``server_stats()``) expose the whole serving stack in one snapshot.

Threading model: the loop runs on one background thread.  All mutable
server state (``_inflight``, ``_closing``, the task and writer sets) is
touched only from that thread; ``start()``/``stop()`` synchronise with
it through an event handshake and ``run_coroutine_threadsafe``, so the
class needs no lock of its own.  :class:`ServerCounters` has one,
because stats snapshots are read from pool threads.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import threading
import time
import warnings
from dataclasses import dataclass, field
from functools import partial

from typing import Callable

from repro.api.service import ServiceEndpoint
from repro.api.transport import (
    _STATUS_ERROR,
    MAX_FRAME_NBYTES,
    FrameTap,
    dispatch_request,
)
from repro.wire import WireError, decode_error, encode_error


@dataclass
class ServerCounters:
    """Transport-level serving counters across one server's lifetime.

    Increment through :meth:`bump` — bumps happen on the event loop,
    but :meth:`as_dict` snapshots are taken from pool threads answering
    stats requests, so reads and writes must synchronise.  Every bump
    also wakes :meth:`wait_for`, which is how tests observe a counter
    crossing a threshold without sleep-and-poll loops.
    """

    connections_opened: int = 0
    connections_closed: int = 0
    requests: int = 0
    admission_rejections: int = 0
    rate_limited: int = 0
    deadlines_expired: int = 0
    protocol_errors: int = 0
    evictions: int = 0
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
                "connections_opened": self.connections_opened,
                "connections_closed": self.connections_closed,
                "requests": self.requests,
                "admission_rejections": self.admission_rejections,
                "rate_limited": self.rate_limited,
                "deadlines_expired": self.deadlines_expired,
                "protocol_errors": self.protocol_errors,
                "evictions": self.evictions,
            }


class _TokenBucket:
    """Classic token bucket; loop-thread-only, so no lock.

    ``rate`` tokens/second refill up to ``burst`` capacity; each
    request takes one token.  A new connection starts with a full
    bucket, so short bursts inside the budget are never penalised.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.rate = rate
        self.capacity = burst
        self.tokens = burst
        self.clock = clock
        self.stamp = clock()

    def take(self) -> bool:
        now = self.clock()
        self.tokens = min(self.capacity, self.tokens + (now - self.stamp) * self.rate)
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


def _busy_frame(message: str) -> bytes:
    """A typed ``busy`` error frame (client raises ServerBusyError)."""
    return bytes([_STATUS_ERROR]) + encode_error("busy", message)


def _response_error_kind(response: bytes) -> str | None:
    """The error kind a response frame carries, or ``None`` if it's ok."""
    if not response or response[0] != _STATUS_ERROR:
        return None
    try:
        kind, _message = decode_error(response[1:])
    except WireError:
        return None
    return kind


class AsyncSocketServer:
    """Serves one ServiceEndpoint over TCP on a single event loop.

    ``start()`` serves on a background thread, ``stop()`` drains (or
    aborts) and shuts down, and the server is a context manager;
    ``address`` is the bound ``(host, port)``.  See the module
    docstring for the hygiene knobs.
    """

    def __init__(
        self,
        endpoint: ServiceEndpoint,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_inflight: int | None = None,
        rate_limit: float | None = None,
        rate_burst: int | None = None,
        drain_timeout: float = 10.0,
        send_queue_limit: int = 1 << 20,
        sock_sndbuf: int | None = None,
        tap: FrameTap | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        """``max_inflight`` caps requests concurrently dispatched to the
        worker pool (``None`` = unbounded); ``rate_limit`` is per-client
        requests/second with bursts up to ``rate_burst`` (default: the
        rate, rounded up); ``drain_timeout`` is how long a response may
        sit undelivered before the client is evicted;
        ``send_queue_limit`` is the per-connection write-buffer high
        watermark in bytes; ``sock_sndbuf`` (mostly for tests) pins
        SO_SNDBUF on accepted connections so kernel buffering cannot
        mask slow clients.

        ``tap`` observes every frame crossing the server — requests,
        responses, and the busy/error frames synthesised loop-side —
        for the :mod:`repro.testing` session recorder.  ``clock`` is
        the monotonic time source for rate limiting and deadlines;
        tests substitute a manual clock to drive both without sleeping.
        """
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be at least 1 (or None)")
        if rate_limit is not None and rate_limit <= 0:
            raise ValueError("rate_limit must be positive (or None)")
        self.endpoint = endpoint
        self.backend = endpoint.sp.accumulator.backend
        self.max_inflight = max_inflight
        self.rate_limit = rate_limit
        self.rate_burst = (
            rate_burst
            if rate_burst is not None
            else (max(1, round(rate_limit)) if rate_limit is not None else 1)
        )
        self.drain_timeout = drain_timeout
        self.send_queue_limit = send_queue_limit
        self.sock_sndbuf = sock_sndbuf
        self.tap = tap
        self.clock = clock
        self._next_channel = 0  # loop-thread only, like the sets below
        self.counters = ServerCounters()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen()
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.Server | None = None
        self._stop_event: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._closing = False
        self._inflight = 0
        self._tasks: set[asyncio.Task[None]] = set()
        self._writers: set[asyncio.StreamWriter] = set()

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "AsyncSocketServer":
        """Run the event loop on a background daemon thread."""
        thread = threading.Thread(
            target=self._run_loop, name="vchain-async-server", daemon=True
        )
        self._thread = thread
        thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise RuntimeError("async server failed to start") from self._startup_error
        self.endpoint.attach_server(self.counters.as_dict)
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._serve())
        except BaseException as exc:
            self._startup_error = exc
        finally:
            self._ready.set()  # unblock start() even on startup failure
            asyncio.set_event_loop(None)
            loop.close()

    async def _serve(self) -> None:
        stop_event = asyncio.Event()
        self._stop_event = stop_event
        server = await asyncio.start_server(self._handle, sock=self._listener)
        self._server = server
        self._ready.set()
        await stop_event.wait()

    def stop(self, drain: bool = True, timeout: float = 5.0) -> None:
        """Stop serving.  With ``drain``, in-flight requests finish and
        their responses are sent before connections close; without it,
        connections are aborted immediately.

        ``timeout`` is the total shutdown budget.  Handlers (or the
        loop thread) still alive when it runs out are reported with a
        ``RuntimeWarning`` — a hung prover is something the operator
        should hear about, not something ``stop()`` swallows.
        """
        budget_end = time.monotonic() + timeout
        self.endpoint.attach_server(None)
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            # never started: only the listener exists
            try:
                self._listener.close()
            except OSError:
                pass
            return
        if thread.is_alive():
            try:
                future = asyncio.run_coroutine_threadsafe(
                    self._shutdown(drain, budget_end), loop
                )
                future.result(timeout=max(0.1, budget_end - time.monotonic()) + 0.5)
            except Exception:  # the loop may already be gone; join below
                pass
        thread.join(timeout=max(0.0, budget_end - time.monotonic()) + 0.5)
        if thread.is_alive():
            warnings.warn(
                f"AsyncSocketServer.stop() timed out after {timeout}s with the "
                f"event-loop thread ({thread.name}) still running",
                RuntimeWarning,
                stacklevel=2,
            )
        try:
            self._listener.close()
        except OSError:
            pass

    async def _shutdown(self, drain: bool, budget_end: float) -> None:
        self._closing = True
        server = self._server
        if server is not None:
            server.close()
            await server.wait_closed()
        tasks = {task for task in self._tasks if not task.done()}
        for writer in list(self._writers):
            sock = writer.get_extra_info("socket")
            try:
                if drain and sock is not None:
                    # half-close: handlers see EOF and exit after
                    # finishing (and answering) their current request
                    sock.shutdown(socket.SHUT_RD)
                elif not drain:
                    writer.transport.abort()
            except OSError:
                pass
        if not drain:
            for task in tasks:
                task.cancel()
        if tasks:
            _done, pending = await asyncio.wait(
                tasks, timeout=max(0.0, budget_end - time.monotonic())
            )
            for task in pending:
                task.cancel()
            if pending and drain:
                warnings.warn(
                    f"AsyncSocketServer drain timed out with {len(pending)} "
                    "connection handler(s) still running; cancelled",
                    RuntimeWarning,
                    stacklevel=2,
                )
        stop_event = self._stop_event
        if stop_event is not None:
            stop_event.set()

    def __enter__(self) -> "AsyncSocketServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- per-connection handler --------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
        self._writers.add(writer)
        self.counters.bump("connections_opened")
        sock = writer.get_extra_info("socket")
        if sock is not None and self.sock_sndbuf is not None:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, self.sock_sndbuf)
        writer.transport.set_write_buffer_limits(high=self.send_queue_limit)
        session = self.endpoint.session()
        channel = self._next_channel
        self._next_channel += 1
        bucket = (
            _TokenBucket(self.rate_limit, float(self.rate_burst), self.clock)
            if self.rate_limit is not None
            else None
        )
        loop = asyncio.get_running_loop()
        try:
            while not self._closing:
                header = await reader.readexactly(4)
                (length,) = struct.unpack(">I", header)
                if length > MAX_FRAME_NBYTES:
                    return  # garbage or abuse; drop the connection
                payload = await reader.readexactly(length)
                if self.tap is not None:
                    self.tap(channel, "request", payload)
                self.counters.bump("requests")
                if bucket is not None and not bucket.take():
                    self.counters.bump("rate_limited")
                    response = _busy_frame("per-client rate limit exceeded")
                elif (
                    self.max_inflight is not None
                    and self._inflight >= self.max_inflight
                ):
                    self.counters.bump("admission_rejections")
                    response = _busy_frame(
                        f"server is at max inflight requests ({self.max_inflight})"
                    )
                else:
                    # the pool runs the whole request body; query_inline
                    # keeps queries from re-submitting into the same pool
                    # (a deadlock once every worker is a dispatcher)
                    self._inflight += 1
                    try:
                        response = await loop.run_in_executor(
                            self.endpoint.executor,
                            partial(
                                dispatch_request,
                                self.endpoint,
                                self.backend,
                                payload,
                                session=session,
                                clock=self.clock,
                            ),
                        )
                    finally:
                        self._inflight -= 1
                    kind = _response_error_kind(response)
                    if kind == "deadline":
                        self.counters.bump("deadlines_expired")
                    elif kind == "wire":
                        # the client sent bytes that don't decode — a
                        # protocol bug or tampering worth surfacing
                        self.counters.bump("protocol_errors")
                if self.tap is not None:
                    self.tap(channel, "response", response)
                writer.write(struct.pack(">I", len(response)) + response)
                try:
                    await asyncio.wait_for(writer.drain(), timeout=self.drain_timeout)
                except TimeoutError:
                    # the client stopped reading; cut it loose before it
                    # pins any more server memory
                    self.counters.bump("evictions")
                    writer.transport.abort()
                    return
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            return  # client hung up or the link failed mid-frame
        finally:
            session.close()
            self.counters.bump("connections_closed")
            self._writers.discard(writer)
            if task is not None:
                self._tasks.discard(task)
            try:
                writer.close()
            except OSError:
                pass
