"""Consolidated client-side configuration.

:class:`ClientOptions` is the one place the socket client's connect
timeout, per-request deadline and retry policy live::

    options = ClientOptions(connect_timeout=5.0, request_deadline=2.0,
                            retries=2, backoff=0.1)
    client = VChainClient.connect(address, accumulator, encoder, params,
                                  options=options)
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ClientOptions:
    """Every client-side transport knob, in one immutable bag.

    ``connect_timeout``
        Seconds to wait for the TCP connection (``None`` = OS default).
        Connection attempts are retried ``retries`` times with
        exponential ``backoff``.

    ``request_deadline``
        Per-request latency budget in seconds.  Enforced twice: the
        socket blocks at most this long per operation client-side, and
        the budget travels in the request envelope so the *server*
        abandons work whose answer would arrive too late (the client
        then sees :class:`~repro.errors.DeadlineExpiredError`).
        ``None`` disables both.

    ``retries``
        Extra attempts after a failure.  Link failures
        (:class:`~repro.api.transport.TransportError`, ``OSError``)
        reconnect and resend, but only for idempotent requests —
        queries, header syncs, stats.  :class:`~repro.errors.\
ServerBusyError` rejections are retried for *every* request kind,
        because the server rejected before doing any work.

    ``backoff``
        Base seconds between attempts; attempt ``n`` sleeps
        ``backoff * 2**(n-1)``.
    """

    connect_timeout: float | None = None
    request_deadline: float | None = None
    retries: int = 0
    backoff: float = 0.05

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff < 0:
            raise ValueError("backoff must be >= 0")
        for name in ("connect_timeout", "request_deadline"):
            value: float | None = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive (or None)")

    def deadline_ms(self) -> int | None:
        """The wire form of ``request_deadline`` (min 1ms), or ``None``."""
        if self.request_deadline is None:
            return None
        return max(1, round(self.request_deadline * 1000))
