#!/usr/bin/env python3
"""The repository benchmark: one workload, measured end to end or traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload query-hot --seed 41 --seconds 20 --trace 0

Workloads (closed loop, one socket client, pure-Python or native
arithmetic as the provider probe picks; the benchmark never builds it):

* ``query-fresh`` — every request is a time-window query whose keywords
  no block and no earlier request used: it misses the fragment and
  proof caches and materializes new key powers.  Warm process, cold
  proofs.
* ``query-hot`` — requests cycle over three such queries, each answered
  once in an untimed warm-up after set-up: every cache and key power
  is warm.  Warm process, warm proofs.
* ``mine-subscribe`` — each step mines one block into the fsync'd store,
  then polls and verifies all four subscriptions; one untimed warm-up
  step precedes the measured ones.  Warm process, cold proofs.

``setup_s`` times bringing the deployment up from its directory (see
``workloads.deploy``), three times, two of them in child processes so
that each is cold.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` first runs an
untraced phase, then a traced one of the same length, and prints the
per-layer metrics (see ``layers.py``) and writes the spans to
``.perfbench-work/spans/``.  The last line of standard output is the
JSON result; the lines before it label the run.  The exit code is 1
when an answer is wrong, a request fails or a workload stops stressing
what it claims to.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

WORKLOADS = {
    "query-fresh": "warm process, cold proofs",
    "query-hot": "warm process, warm proofs",
    "mine-subscribe": "warm process, cold proofs",
}
#: set-ups per run; all but the last run in child processes, so each is cold
SETUPS = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_in_child(chain_dir: Path, workload: str, seed: int) -> float:
    """One cold set-up in a fresh interpreter; returns its seconds."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(chain_dir)]
    done = subprocess.run(
        [*probe, workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def percentile_label(samples: list[float]) -> str:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    ordered = sorted(samples)
    for pct in (99, 95, 90):
        if len(ordered) * (100 - pct) / 100 >= 10:
            index = min(len(ordered) - 1, round(pct / 100 * (len(ordered) - 1)))
            return f"p{pct} {ordered[index] * 1000:.1f} ms"
    return "no tail percentile (fewer than 10 samples beyond p90)"


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import layers
    import workloads as wl
    from repro.accumulators.keys import KeyOracle
    from repro.crypto.accel import dispatch
    from spans import FirstTouches, Patches, Tracer

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    chain_dir = run_dir / "chain"
    full = wl.dataset()
    base = wl.base_dataset(full)
    mining = args.workload == "mine-subscribe"
    subscriptions = wl.subscription_queries(full, args.seed) if mining else []
    patches = Patches()
    dep = None
    try:
        wl.build_chain(chain_dir, full)
        setups = []
        if not args.trace:
            setups = [setup_in_child(chain_dir, args.workload, args.seed)
                      for _ in range(SETUPS - 1)]
        dep = wl.deploy(chain_dir, subscriptions)
        setups.append(dep.setup_s)

        touches = FirstTouches()
        patches.patch(KeyOracle, "power", touches.wrap)
        if args.workload == "query-fresh":
            step = wl.query_step(
                dep, wl.fresh_queries(base, args.seed),
                lambda query: wl.scan_window(dep, query),
            )
            warm_up = 0
        elif args.workload == "query-hot":
            templates = list(itertools.islice(wl.fresh_queries(base, args.seed),
                                              wl.HOT_TEMPLATES))
            expected = {query: wl.scan_window(dep, query) for query in templates}
            step = wl.query_step(dep, itertools.cycle(templates), expected.__getitem__)
            warm_up = len(templates)  # one cold pass that warms every cache
        else:
            step = wl.mine_step(dep, wl.new_blocks(full), subscriptions)
            warm_up = 1  # the first block's proofs also cover its locations
        warm = wl.Tally()
        for _ in range(warm_up):
            step(warm)

        tally, server = wl.measure(dep, args.seconds, step, contextlib.nullcontext,
                                   touches)
        if args.trace:
            untraced = mean(tally.latencies)
            tracer = Tracer()
            layers.instrument(patches, tracer, dep.net.accumulator)
            touched = touches.count
            size = _dir_bytes(chain_dir)
            traced, server = wl.measure(dep, args.seconds, step,
                                        tracer.request, touches)
            blocks = len(traced.seals)
            extra = {
                "storage.bytes_per_block":
                    (_dir_bytes(chain_dir) - size) / blocks if blocks else 0.0,
                "storage.reopen_s": dep.reopen_s,
                "trace.overhead_ms":
                    (mean(traced.latencies) - untraced) * 1000,
            }
            layer_values = layers.per_layer(tracer, traced.ops, traced.sums, server,
                                            touches.count - touched, extra)
            tracer.dump(WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
            tally.attempted += traced.attempted
            tally.failed += traced.failed
            tally.errors += traced.errors
            tally.first_touches += traced.first_touches
    finally:
        patches.undo()
        if dep is not None:
            dep.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    shape = _shape_problems(args.workload, tally, server)
    correct = tally.failed == 0 and warm.failed == 0 and not shape
    for problem in warm.errors + tally.errors + shape:
        print(f"perfbench: {problem}", file=sys.stderr)

    labels = {
        "workload": args.workload,
        "seed": args.seed,
        "state": WORKLOADS[args.workload],
        "provider": dispatch.active_impl(),
        "backend": "ss512",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "error_rate": tally.failed / max(tally.attempted, 1),
    }
    print(json.dumps({"labels": labels}))
    if args.trace:
        metrics = {name: {"value": layer_values[name], "unit": unit}
                   for name, unit, _better in layers.PER_LAYER}
    else:
        metrics = _end_to_end(tally, setups)
        print(f"latency samples {len(tally.latencies)}: "
              f"p50 {median(tally.latencies) * 1000:.1f} ms, "
              f"{percentile_label(tally.latencies)}; new key powers per op "
              f"(median) {median(tally.first_touches)}")
        if mining:
            print(f"seal_p50_ms {median(tally.seals) * 1000:.1f} "
                  f"over {len(tally.seals)} blocks")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:14.4f} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _end_to_end(tally, setups: list[float]) -> dict[str, dict[str, object]]:
    """The user-visible metrics; one op is a verified query, or a mined
    block with all its deliveries."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        # the mean, not the median: this host alternates between fast and
        # slow periods, and a run's median jumped with whichever covered
        # half of it (IQR 0.24 of the median over ten query-hot runs,
        # against 0.15 for the mean)
        "latency_ms": (mean(tally.latencies) * 1000, "ms"),
        "ops_per_s": (tally.ops / tally.wall_s, "1/s"),
        "cpu_ms_per_op": (tally.cpu_s * 1000 / tally.ops, "ms"),
        "proof_kb": (median(tally.proof_bytes) / 1000, "kB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def _shape_problems(workload: str, tally, server: dict[str, float]) -> list[str]:
    """Reasons the workload no longer stresses what it claims, if any."""
    problems = []
    lookups = server["proof_lookups"]
    hit_rate = server["proof_hits"] / lookups if lookups else 0.0
    if workload == "query-fresh":
        if not tally.first_touches or min(tally.first_touches) == 0:
            problems.append("a fresh query materialized no new key power")
        if hit_rate > 0.05:
            problems.append(f"fresh queries hit the proof cache ({hit_rate:.2f})")
    elif workload == "query-hot":
        if sum(tally.first_touches):
            problems.append("hot queries materialized new key powers")
        if hit_rate < 0.99:
            problems.append(f"hot proof-cache hit rate {hit_rate:.3f} < 0.99")
    elif not tally.latencies:
        problems.append("no subscription delivery arrived")
    return problems


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


if __name__ == "__main__":
    sys.exit(main())
