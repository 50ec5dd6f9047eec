#!/usr/bin/env python3
"""Load generator: concurrent clients against one serving endpoint.

Two endpoints over the same mined chain answer the same workloads:

* **serial** — ``max_workers=1``, caches disabled: the dispatcher the
  repo had before the worker-pool refactor.
* **concurrent** — the default pool with the VO-fragment and proof
  caches enabled.

N socket clients hammer each endpoint with an identical-window workload
(every client asks the same query — the multi-user hot path the caches
target) and a mixed workload (distinct query conditions plus
register/poll/deregister subscription traffic).  Latency is measured
per request at the transport layer (encode → TCP → serve → decode);
the report carries p50/p99 latency, throughput, cache hit counts, and
the concurrent-over-serial speedup, written to ``BENCH_load.json``.

CI usage: ``--check benchmarks/baseline_load.json`` fails the run when
identical-workload qps regresses more than ``--tolerance`` below the
checked-in baseline, or the speedup drops under ``--min-speedup``.

Both endpoints are served by :class:`AsyncSocketServer`.
``--profile async-1k`` swarms it instead: it opens ``--async-clients``
(default 1000) simultaneous connections from one asyncio swarm, proves
they are all concurrently established via the server's own counters,
then measures per-request latency at that concurrency.  Three forced
sub-scenarios drive each hygiene knob to its trigger point (rate
limit, admission gate, slow-client eviction) and a parity pass asserts
that the server's responses are byte-identical to in-process
``VChainClient.local`` answers.  With ``--check``, the ``async_1k``
section of the baseline gates the client floor, the p99 bound, the
hygiene counters, and parity.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import socket
import struct
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import build_network, get_dataset, print_row

from repro.api import (
    AsyncSocketServer,
    ClientOptions,
    ServiceEndpoint,
    SocketTransport,
    VChainClient,
)
from repro.datasets import make_time_window_queries
from repro.testing import (
    SessionRecorder,
    load_recording,
    normalize_recording,
    replay_recording,
    save_recording,
)
from repro.wire import HeadersRequest, QueryRequest, encode_request, encode_response


def percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


def run_workload(address, backend, n_clients: int, ops_per_client) -> dict:
    """Hammer the server from ``n_clients`` threads; aggregate latencies.

    ``ops_per_client(transport, client_index)`` yields one callable per
    request; each call is timed individually.
    """
    latencies: list[float] = []
    errors: list[Exception] = []
    merge_lock = threading.Lock()
    barrier = threading.Barrier(n_clients)

    def client_loop(index: int) -> None:
        mine: list[float] = []
        try:
            transport = SocketTransport(
                address,
                backend,
                options=ClientOptions(connect_timeout=120.0, request_deadline=120.0),
            )
        except Exception as exc:  # pragma: no cover - startup failure
            errors.append(exc)
            barrier.abort()  # release the clients already waiting
            return
        try:
            ops = list(ops_per_client(transport, index))
            barrier.wait(timeout=60)  # line up: all clients fire together
            for op in ops:
                started = time.perf_counter()
                op()
                mine.append(time.perf_counter() - started)
        except threading.BrokenBarrierError as exc:
            # a peer aborted (or the barrier timed out): record it so the
            # run fails loudly instead of publishing partial numbers
            errors.append(exc)
        except Exception as exc:
            errors.append(exc)
            barrier.abort()
        finally:
            transport.close()
        with merge_lock:
            latencies.extend(mine)

    threads = [
        threading.Thread(target=client_loop, args=(index,))
        for index in range(n_clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise SystemExit(f"load generator failed: {errors[0]!r}")
    if not latencies:
        raise SystemExit("load generator produced no samples")
    return {
        "requests": len(latencies),
        "total_s": round(wall, 4),
        "qps": round(len(latencies) / wall, 2),
        "p50_ms": round(percentile(latencies, 0.50) * 1000, 3),
        "p99_ms": round(percentile(latencies, 0.99) * 1000, 3),
    }


def identical_ops(query, n_queries):
    """Every client repeats the same window query."""

    def ops(transport, _index):
        return [(lambda: transport.time_window_query(query)) for _ in range(n_queries)]

    return ops


def mixed_ops(queries, subscription, n_queries):
    """Distinct per-client conditions plus subscription traffic."""

    def ops(transport, index):
        query = queries[index % len(queries)]
        plan = [(lambda: transport.time_window_query(query)) for _ in range(n_queries)]
        state: dict = {}

        def register():
            state["qid"], _since = transport.register(subscription)

        def poll():
            transport.poll(state["qid"])

        def deregister():
            transport.deregister(state["qid"])

        return plan + [register, poll, poll, deregister]

    return ops


# -- the async-1k profile ------------------------------------------------------
#: how long the swarm waits for the server to count every connection
KICKOFF_TIMEOUT_S = 5.0


def frame(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


async def swarm(address, request_frame, n_clients, n_requests, server):
    """Open ``n_clients`` connections, then fire ``n_requests`` each.

    Connection setup is a separate phase: every socket is established
    (and the server's ``connections_opened`` counter has seen all of
    them with none closed) before the first request is written, so the
    measured request phase really runs at ``n_clients`` concurrency.
    """
    latencies: list[float] = []
    busy = 0

    async def connect(index):
        # spread the SYN burst a little so the listen backlog survives
        await asyncio.sleep((index % 100) * 0.002)
        return await asyncio.open_connection(*address)

    conns = await asyncio.gather(*(connect(index) for index in range(n_clients)))
    # open_connection returns once the handshake completes, which can be
    # before the server's accept callback has counted the connection
    deadline = time.perf_counter() + KICKOFF_TIMEOUT_S
    while True:
        concurrent = (
            server.counters.connections_opened - server.counters.connections_closed
        )
        if concurrent >= n_clients:
            break
        if time.perf_counter() >= deadline:
            raise SystemExit(
                f"only {concurrent} of {n_clients} connections concurrent at kickoff"
            )
        await asyncio.sleep(0.01)

    async def client_loop(reader, writer):
        nonlocal busy
        mine = []
        rejections = 0
        for _ in range(n_requests):
            started = time.perf_counter()
            writer.write(request_frame)
            await writer.drain()
            (length,) = struct.unpack(">I", await reader.readexactly(4))
            body = await reader.readexactly(length)
            if body and body[0] == 0:
                mine.append(time.perf_counter() - started)
            else:
                rejections += 1
        writer.close()
        latencies.extend(mine)
        busy += rejections

    started = time.perf_counter()
    await asyncio.gather(
        *(client_loop(reader, writer) for reader, writer in conns)
    )
    wall = time.perf_counter() - started
    return {
        "clients": n_clients,
        "concurrent_connections": concurrent,
        "requests": len(latencies),
        "busy_rejections": busy,
        "total_s": round(wall, 4),
        "qps": round(len(latencies) / wall, 2) if wall else 0.0,
        "p50_ms": round(percentile(latencies, 0.50) * 1000, 3),
        "p99_ms": round(percentile(latencies, 0.99) * 1000, 3),
    }


def force_rate_limit(endpoint_factory, headers_frame) -> dict:
    """A bursty client against a 1 rps bucket: most requests bounce."""
    endpoint = endpoint_factory()
    server = AsyncSocketServer(endpoint, rate_limit=1.0, rate_burst=2).start()
    try:
        with socket.create_connection(server.address, timeout=30) as sock:
            rejected = 0
            for _ in range(10):
                sock.sendall(headers_frame)
                (length,) = struct.unpack(">I", _recv(sock, 4))
                rejected += _recv(sock, length)[0] != 0
        return {"requests": 10, "rejected": rejected,
                "rate_limited": server.counters.rate_limited}
    finally:
        server.stop()
        endpoint.close()


def force_admission(endpoint_factory, query_frame) -> dict:
    """Two pipelining clients against ``max_inflight=1``: while the
    first client's query occupies the slot, the second's burst bounces."""
    endpoint = endpoint_factory()
    server = AsyncSocketServer(endpoint, max_inflight=1).start()
    rejected = 0
    lock = threading.Lock()

    def pipeline():
        nonlocal rejected
        mine = 0
        with socket.create_connection(server.address, timeout=60) as sock:
            for _ in range(8):
                sock.sendall(query_frame)
            for _ in range(8):
                (length,) = struct.unpack(">I", _recv(sock, 4))
                mine += _recv(sock, length)[0] != 0
        with lock:
            rejected += mine

    try:
        threads = [threading.Thread(target=pipeline) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        return {"requests": 16, "rejected": rejected,
                "admission_rejections": server.counters.admission_rejections}
    finally:
        server.stop()
        endpoint.close()


def force_eviction(endpoint_factory, query_frame) -> dict:
    """A client that never reads: the server's send queue fills and the
    connection is aborted instead of wedging the loop."""
    endpoint = endpoint_factory()
    server = AsyncSocketServer(
        endpoint, drain_timeout=0.3, send_queue_limit=4096, sock_sndbuf=4096
    ).start()
    try:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.connect(server.address)
        try:
            for _ in range(40):
                sock.sendall(query_frame)
        except OSError:
            pass  # evicted mid-send: the write side is already gone
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline and server.counters.evictions == 0:
            time.sleep(0.05)
        sock.close()
        return {"pipelined": 40, "evictions": server.counters.evictions}
    finally:
        server.stop()
        endpoint.close()


def _recv(sock: socket.socket, length: int) -> bytes:
    chunks = []
    while length:
        chunk = sock.recv(length)
        if not chunk:
            raise SystemExit("server closed the connection mid-frame")
        chunks.append(chunk)
        length -= len(chunk)
    return b"".join(chunks)


def check_parity(endpoint_factory, backend, queries) -> dict:
    """Byte-for-byte VO parity between the socket server and the
    in-process path on a deterministic mixed workload.

    Each raw response carries a trailing :class:`QueryStats` whose
    timings legitimately vary run to run, so the comparison is on the
    canonical encoding of the (results, VO) pair alone.
    """
    endpoint = endpoint_factory()
    try:
        client = VChainClient.local(endpoint)
        local = [
            encode_response(backend, answer.results, answer.vo)
            for answer in (client.execute(query) for query in queries)
        ]
    finally:
        endpoint.close()
    endpoint = endpoint_factory()
    server = AsyncSocketServer(endpoint).start()
    try:
        with SocketTransport(server.address, backend) as transport:
            served = [
                encode_response(backend, results, vo)
                for results, vo, _stats in map(transport.time_window_query, queries)
            ]
    finally:
        server.stop()
        endpoint.close()
    identical = served == local
    if not identical:
        raise SystemExit("socket and in-process answers have different VO bytes")
    return {
        "queries": len(queries),
        "vo_bytes": sum(len(body) for body in served),
        "identical": identical,
    }


def record_phase(args, net, dataset, backend, identical_query) -> None:
    """--record: capture one deterministic client session as a .vrec.

    A single client syncs headers and runs the identical-window query a
    few times against a fresh concurrent endpoint; the recording is
    normalized (timings zeroed) at save time so the same dataset and
    flags always produce the same bytes, replayable with --replay.
    """
    recorder = SessionRecorder(
        label="bench-load",
        meta={
            "format": "bench-load-v1",
            "dataset": dataset.name,
            "blocks": str(args.blocks),
            "workers": str(args.workers),
        },
    )
    endpoint = ServiceEndpoint(net.sp, max_workers=args.workers)
    server = AsyncSocketServer(endpoint).start()
    try:
        transport = SocketTransport(server.address, backend, tap=recorder.tap())
        try:
            transport.headers()
            for _ in range(3):
                transport.time_window_query(identical_query)
        finally:
            transport.close()
    finally:
        server.stop()
        endpoint.close()
    save_recording(normalize_recording(backend, recorder.recording()), args.record)
    frames = len(recorder.recording().frames)
    print(f"recorded {frames} frame(s) to {args.record}")


def replay_phase(args, net, backend) -> int:
    """--replay: re-drive a recorded session, gate on byte parity."""
    recording = load_recording(args.replay)
    blocks = recording.meta.get("blocks")
    if blocks is not None and int(blocks) != args.blocks:
        print(f"FAIL: recording was captured with --blocks {blocks}, "
              f"this run mined {args.blocks}")
        return 1
    endpoint = ServiceEndpoint(net.sp, max_workers=args.workers)
    server = AsyncSocketServer(endpoint).start()
    try:
        report = replay_recording(recording, server.address, backend)
    finally:
        server.stop()
        endpoint.close()
    print(f"replayed {report.requests} request(s): "
          f"{len(report.mismatches)} mismatch(es), digest {report.digest[:16]}")
    if not report.ok:
        print(f"FAIL: {len(report.mismatches)} response(s) diverged from "
              f"the recording {args.replay}")
        return 1
    return 0


def run_async_profile(args, net, dataset, report) -> dict:
    backend = net.accumulator.backend
    headers_frame = frame(encode_request(HeadersRequest(from_height=0)))
    [wide] = make_time_window_queries(
        dataset, n_queries=1, window_blocks=args.blocks, seed=41
    )
    query_frame = frame(encode_request(QueryRequest(query=wide)))
    parity_queries = make_time_window_queries(
        dataset, n_queries=6, window_blocks=max(2, args.blocks // 2), seed=47
    )

    def endpoint_factory():
        return ServiceEndpoint(net.sp, max_workers=args.workers)

    endpoint = endpoint_factory()
    server = AsyncSocketServer(endpoint).start()
    try:
        sustained = asyncio.run(
            swarm(server.address, headers_frame, args.async_clients,
                  args.async_requests, server)
        )
        sustained["endpoint_stats"] = endpoint.stats()["server"]
    finally:
        server.stop()
        endpoint.close()
    print_row("async/sustain", {k: v for k, v in sustained.items()
                                if k != "endpoint_stats"})

    hygiene = {
        "rate_limit": force_rate_limit(endpoint_factory, headers_frame),
        "admission": force_admission(endpoint_factory, query_frame),
        "eviction": force_eviction(endpoint_factory, query_frame),
    }
    for name, result in hygiene.items():
        print_row(f"async/{name}", result)
    parity = check_parity(endpoint_factory, backend, parity_queries)
    print_row("async/parity", parity)

    report["async_1k"] = {
        "sustain": sustained,
        "hygiene": hygiene,
        "parity": parity,
    }
    return report["async_1k"]


def check_async_profile(section, baseline) -> int:
    floor = baseline.get("async_1k")
    if not floor:
        print("FAIL: baseline has no async_1k section")
        return 1
    sustained = section["sustain"]
    failures = []
    if sustained["concurrent_connections"] < floor["min_clients"]:
        failures.append(
            f"{sustained['concurrent_connections']} concurrent clients "
            f"under the {floor['min_clients']} floor"
        )
    if sustained["p99_ms"] > floor["max_p99_ms"]:
        failures.append(
            f"p99 {sustained['p99_ms']}ms over the {floor['max_p99_ms']}ms bound"
        )
    if sustained["busy_rejections"]:
        failures.append(
            f"{sustained['busy_rejections']} rejections in the sustain phase "
            "(no admission gate or rate limit is configured there)"
        )
    hygiene = section["hygiene"]
    if not hygiene["rate_limit"]["rate_limited"]:
        failures.append("rate limiter never fired")
    if not hygiene["admission"]["admission_rejections"]:
        failures.append("admission gate never fired")
    if not hygiene["eviction"]["evictions"]:
        failures.append("slow-client eviction never fired")
    if not section["parity"]["identical"]:
        failures.append("socket/in-process byte parity broken")
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print(
        f"OK: {sustained['concurrent_connections']} concurrent clients, "
        f"p99 {sustained['p99_ms']}ms <= {floor['max_p99_ms']}ms, "
        "hygiene counters fired, byte parity holds"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--queries", type=int, default=12,
                        help="window queries per client per workload")
    parser.add_argument("--blocks", type=int, default=10)
    parser.add_argument("--workers", type=int, default=8,
                        help="worker-pool size of the concurrent endpoint")
    parser.add_argument("--crypto-workers", type=int, default=1,
                        help="CryptoPool processes for the concurrent "
                        "endpoint (1 = serial crypto)")
    parser.add_argument("--profile", choices=["default", "async-1k"],
                        default="default",
                        help="'async-1k' swarms the AsyncSocketServer with "
                        "--async-clients concurrent connections and drives "
                        "every hygiene knob to its trigger point")
    parser.add_argument("--async-clients", type=int, default=1000)
    parser.add_argument("--async-requests", type=int, default=3,
                        help="requests per client in the async sustain phase")
    parser.add_argument("--out", default="BENCH_load.json")
    parser.add_argument("--check", default=None,
                        help="baseline JSON; exit 1 on qps regression")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional qps drop vs the baseline")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="required concurrent/serial qps ratio (with --check)")
    parser.add_argument("--record", default=None, metavar="PATH",
                        help="also capture a deterministic single-client "
                        "session to this .vrec before the benchmark phases")
    parser.add_argument("--replay", default=None, metavar="PATH",
                        help="skip benchmarking: re-drive this .vrec against "
                        "a fresh endpoint and exit 1 on any byte mismatch")
    args = parser.parse_args()

    dataset = get_dataset("4SQ", args.blocks)
    net = build_network(dataset, "acc2", "both")
    backend = net.accumulator.backend
    [identical_query] = make_time_window_queries(
        dataset, n_queries=1, window_blocks=args.blocks, seed=41
    )
    mixed_queries = make_time_window_queries(
        dataset, n_queries=args.clients, window_blocks=max(2, args.blocks // 2),
        seed=43,
    )
    subscription = net.client.subscribe().any_of(dataset.vocabulary[0]).build()

    if args.replay:
        return replay_phase(args, net, backend)
    if args.record:
        record_phase(args, net, dataset, backend, identical_query)

    if args.profile == "async-1k":
        # amend an existing default-profile report in place when present,
        # so one BENCH_load.json carries both profiles
        out = Path(args.out)
        report = json.loads(out.read_text()) if out.exists() else {}
        report.setdefault("config", {})["async_1k"] = {
            "clients": args.async_clients,
            "requests_per_client": args.async_requests,
            "blocks": args.blocks,
            "workers": args.workers,
            "dataset": dataset.name,
        }
        section = run_async_profile(args, net, dataset, report)
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
        if args.check:
            baseline = json.loads(Path(args.check).read_text())
            return check_async_profile(section, baseline)
        return 0

    report = {
        "config": {
            "clients": args.clients,
            "queries_per_client": args.queries,
            "blocks": args.blocks,
            "workers": args.workers,
            "dataset": dataset.name,
        }
    }

    serial_endpoint = ServiceEndpoint(
        net.sp, max_workers=1, cache_fragments=0, cache_proofs=0
    )
    with AsyncSocketServer(serial_endpoint) as server:
        report["serial_identical"] = run_workload(
            server.address, backend, args.clients,
            identical_ops(identical_query, args.queries),
        )
    serial_endpoint.close()
    print_row("serial/identical", report["serial_identical"])

    concurrent_endpoint = ServiceEndpoint(
        net.sp, max_workers=args.workers, workers=args.crypto_workers
    )
    with AsyncSocketServer(concurrent_endpoint) as server:
        report["concurrent_identical"] = run_workload(
            server.address, backend, args.clients,
            identical_ops(identical_query, args.queries),
        )
        # snapshot before the mixed workload so the published hit counts
        # are attributable to the identical-window traffic alone
        snapshot = concurrent_endpoint.stats()
        report["concurrent_identical"]["cache"] = snapshot["caches"]["fragments"]
        report["concurrent_identical"]["proof_cache"] = snapshot["caches"]["proofs"]
        report["concurrent_mixed"] = run_workload(
            server.address, backend, args.clients,
            mixed_ops(mixed_queries, subscription, args.queries),
        )
        # the full observability snapshot: endpoint counters, both
        # caches, subscription engine, and the CryptoPool (if any)
        report["endpoint_stats"] = concurrent_endpoint.stats()
    concurrent_endpoint.close()
    print_row("concurrent/identical", report["concurrent_identical"])
    print_row("concurrent/mixed", report["concurrent_mixed"])

    speedup = (
        report["concurrent_identical"]["qps"] / report["serial_identical"]["qps"]
    )
    report["speedup_identical"] = round(speedup, 2)
    print_row("summary", {
        "speedup_identical": report["speedup_identical"],
        "fragment_hits": snapshot["caches"]["fragments"]["hits"],
        "proof_hits": snapshot["caches"]["proofs"]["hits"],
        "queries_served": report["endpoint_stats"]["endpoint"]["queries"],
    })

    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.check:
        baseline = json.loads(Path(args.check).read_text())
        floor = baseline["qps"] * (1.0 - args.tolerance)
        qps = report["concurrent_identical"]["qps"]
        if qps < floor:
            print(f"FAIL: qps {qps} under baseline floor {floor:.1f} "
                  f"(baseline {baseline['qps']}, tolerance {args.tolerance})")
            return 1
        if speedup < args.min_speedup:
            print(f"FAIL: speedup {speedup:.2f}x under required "
                  f"{args.min_speedup:.1f}x")
            return 1
        print(f"OK: qps {qps} >= floor {floor:.1f}, "
              f"speedup {speedup:.2f}x >= {args.min_speedup:.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
