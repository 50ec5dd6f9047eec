"""Long-lived SP daemon: serve a persisted chain over the socket protocol.

The missing piece between "a chain directory on disk" and "a service a
client can dial": reopen the durable chain (recovering and re-validating
it), wrap it in a :class:`~repro.api.service.ServiceEndpoint`, and serve
the full SP↔user wire protocol over TCP until interrupted.  Because the
chain is file-backed, the daemon can be killed and relaunched at will —
clients reconnect and get byte-identical, verifiable answers.

Run it as a module::

    python -m repro.api.server --data-dir ./chain-data --port 9090

Clients in other processes reconstruct the deployment from the same
directory::

    from repro.api import VChainClient
    from repro.storage import open_deployment

    accumulator, encoder, params = open_deployment("./chain-data")
    client = VChainClient.connect(("127.0.0.1", 9090), accumulator,
                                  encoder, params)

(The manifest's setup seed regenerates the *whole* KeyGen, trapdoor
included — a stand-in for a trusted-setup ceremony, not public key
material; see :func:`repro.storage.bootstrap.open_deployment`.)

``serve()`` is the embeddable form: it returns the running server
(whose endpoint owns the store) and leaves the waiting/shutdown
choreography to the caller.  The server is the asyncio
:class:`~repro.api.aio.AsyncSocketServer` — one event loop multiplexing
every connection, with admission control, per-client rate limits and
slow-client eviction.
"""

from __future__ import annotations

import argparse
import os
from typing import Any, Sequence

from repro.api.aio import AsyncSocketServer
from repro.api.service import ServiceEndpoint
from repro.api.transport import FrameTap


def serve(
    data_dir: str | os.PathLike[str] | Sequence[str | os.PathLike[str]],
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    max_inflight: int | None = None,
    rate_limit: float | None = None,
    tap: FrameTap | None = None,
    **endpoint_options: Any,
) -> AsyncSocketServer:
    """Reopen ``data_dir`` and serve it; returns the started server.

    ``server.stop()`` followed by ``server.endpoint.close()`` shuts the
    whole stack down, syncing the store.  ``endpoint_options`` are
    forwarded to :meth:`ServiceEndpoint.open` (``max_workers=``,
    ``cache_fragments=``, ``lazy=``, ...).

    ``max_inflight`` and ``rate_limit`` are the server's traffic
    hygiene knobs.  ``tap`` observes every frame the server moves —
    the hook the :mod:`repro.testing` session recorder plugs into.
    """
    endpoint = ServiceEndpoint.open(data_dir, **endpoint_options)
    try:
        server = AsyncSocketServer(
            endpoint,
            host,
            port,
            max_inflight=max_inflight,
            rate_limit=rate_limit,
            tap=tap,
        )
    except Exception:
        endpoint.close()
        raise
    try:
        return server.start()
    except Exception:
        endpoint.close()
        raise


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.api.server",
        description="Serve a persisted vChain chain directory over TCP.",
    )
    parser.add_argument(
        "--data-dir",
        default=None,
        help="chain directory (VChainNetwork.create(data_dir=...)); for a "
        "striped deployment, its parent directory of node-* stripe dirs",
    )
    parser.add_argument(
        "--stripe-dirs",
        default=None,
        metavar="DIR,DIR,...",
        help="comma-separated surviving stripe directories of a striped "
        "deployment (standby failover: any quorum able to reconstruct "
        "the chain is enough); alternative to --data-dir",
    )
    parser.add_argument(
        "--parity",
        type=int,
        default=None,
        metavar="M",
        help="assert the deployment was created with this many parity "
        "stripes (refuses to serve a mismatched manifest)",
    )
    parser.add_argument(
        "--scrub-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="run the endpoint-owned background scrubber every this many "
        "seconds (striped stores only)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=0, help="bind port (0 = ephemeral)")
    parser.add_argument(
        "--max-workers", type=int, default=8, help="concurrent query threads"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="crypto worker processes (1 = serial, 0 = one per core); "
        "proving and subscription work fan out across them",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="admission gate: reject (typed busy error) once this many "
        "requests are in flight",
    )
    parser.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        help="per-client requests/second token bucket",
    )
    parser.add_argument(
        "--accel",
        default=None,
        choices=("auto", "pure", "native"),
        help="arithmetic provider for the crypto hot loops (default: "
        "probe for the fastest installed; results are byte-identical "
        "under every choice)",
    )
    parser.add_argument(
        "--no-fsync",
        action="store_true",
        help="skip fsync on append (only matters if embedded miners write)",
    )
    parser.add_argument(
        "--record",
        default=None,
        metavar="PATH",
        help="write every frame served to this .vrec recording on "
        "shutdown (see repro.testing)",
    )
    args = parser.parse_args(argv)
    if (args.data_dir is None) == (args.stripe_dirs is None):
        parser.error("exactly one of --data-dir / --stripe-dirs is required")
    target: str | list[str] = args.data_dir
    if args.stripe_dirs is not None:
        target = [d for d in args.stripe_dirs.split(",") if d]
        if not target:
            parser.error("--stripe-dirs needs at least one directory")

    if args.accel is not None:
        from repro.crypto.accel import dispatch

        dispatch.set_impl(args.accel)

    recorder = None
    tap: FrameTap | None = None
    if args.record:
        from repro.testing import SessionRecorder

        recorder = SessionRecorder(label="server-session")
        tap = recorder.tap()

    server = serve(
        target,
        args.host,
        args.port,
        max_inflight=args.max_inflight,
        rate_limit=args.rate_limit,
        tap=tap,
        max_workers=args.max_workers,
        workers=args.workers,
        fsync=not args.no_fsync,
        scrub_interval=args.scrub_interval,
    )
    endpoint = server.endpoint
    if args.parity is not None:
        health = endpoint.storage_health()
        if health is None or health["m"] != args.parity:
            found = "an unstriped store" if health is None else f"m={health['m']}"
            server.stop(drain=False)
            endpoint.close()
            parser.error(f"--parity {args.parity} but the deployment has {found}")
    host, port = server.address
    shown = target if isinstance(target, str) else ",".join(target)
    print(
        f"serving {shown} ({len(endpoint.sp.chain)} blocks) "
        f"on {host}:{port} — Ctrl-C to stop",
        flush=True,
    )
    try:
        # the event loop runs on a daemon thread; park the main thread.
        # SIGTERM (systemd/docker stop) must take the same graceful path
        # as Ctrl-C, or the store's per-node LOCK files are left stale.
        import signal
        import threading

        def _sigterm(signum: int, frame: object) -> None:
            raise KeyboardInterrupt

        signal.signal(signal.SIGTERM, _sigterm)
        threading.Event().wait()
    except KeyboardInterrupt:
        print("stopping...", flush=True)
    finally:
        server.stop(drain=True)
        endpoint.close()
        if recorder is not None:
            recorder.save(args.record)
            frames = len(recorder.recording().frames)
            print(f"recorded {frames} frame(s) to {args.record}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
