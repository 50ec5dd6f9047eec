#!/usr/bin/env python3
"""cProfile harness over the hot loop: mine → time-window query → verify.

Future perf PRs start here instead of re-deriving the setup: build a
small chain, run a realistic Boolean range query through the client
API, and print the top functions by cumulative time for each phase.

Examples::

    PYTHONPATH=src python tools/profile_query.py
    PYTHONPATH=src python tools/profile_query.py --backend ss512 --blocks 4
    PYTHONPATH=src python tools/profile_query.py --phase verify --limit 40
    PYTHONPATH=src python tools/profile_query.py --out /tmp/query.pstats

With ``--out`` the combined stats are written for ``snakeviz`` /
``pstats`` consumption instead of being printed.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import VChainNetwork
from repro.chain import ProtocolParams
from repro.datasets import foursquare_like, make_time_window_queries

PHASES = ("mine", "query", "verify")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", default="simulated",
                        choices=["simulated", "ss512", "bn254"])
    parser.add_argument("--acc", default="acc2", choices=["acc1", "acc2"])
    parser.add_argument("--blocks", type=int, default=16)
    parser.add_argument("--objects", type=int, default=6,
                        help="objects per block")
    parser.add_argument("--window", type=int, default=8,
                        help="query window size in blocks")
    parser.add_argument("--queries", type=int, default=4)
    parser.add_argument("--workers", type=int, default=1,
                        help="CryptoPool worker processes (1 = serial); "
                        "profiles then show the parent-side orchestration "
                        "while the crypto runs in the workers")
    parser.add_argument("--accel", default=None,
                        choices=["auto", "pure", "native"],
                        help="arithmetic provider for the crypto hot loops "
                        "(default: probe for the fastest installed)")
    parser.add_argument("--phase", choices=[*PHASES, "all"], default="all",
                        help="profile only one phase")
    parser.add_argument("--sort", default="cumulative",
                        help="pstats sort key (cumulative, tottime, ...)")
    parser.add_argument("--limit", type=int, default=25,
                        help="rows per phase report")
    parser.add_argument("--out", default=None,
                        help="write combined .pstats instead of printing")
    args = parser.parse_args()

    if args.accel is not None:
        from repro.crypto.accel import dispatch

        dispatch.set_impl(args.accel)

    dataset = foursquare_like(args.blocks, objects_per_block=args.objects)
    params = ProtocolParams(mode="both", bits=dataset.bits,
                            skip_size=3, skip_base=4, difficulty_bits=0)
    net = VChainNetwork.create(
        acc_name=args.acc, backend_name=args.backend, params=params,
        seed=17, acc1_capacity=1 << 12, workers=args.workers,
    )
    queries = make_time_window_queries(
        dataset, n_queries=args.queries, window_blocks=args.window, seed=29
    )

    profilers = {phase: cProfile.Profile() for phase in PHASES}

    with profilers["mine"]:
        net.mine_dataset(dataset)

    batch = net.accumulator.supports_aggregation
    answers = []
    with profilers["query"]:
        for query in queries:
            answers.append(net.sp.processor.time_window_query(query, batch=batch))

    with profilers["verify"]:
        for query, (results, vo, _stats) in zip(queries, answers):
            net.user.verify(query, results, vo)

    net.close()  # drain the CryptoPool, if any

    if args.out:
        combined = pstats.Stats(*profilers.values())
        combined.dump_stats(args.out)
        print(f"wrote {args.out}")
        return 0

    wanted = PHASES if args.phase == "all" else (args.phase,)
    for phase in wanted:
        print(f"\n=== {phase} ({args.backend}/{args.acc}, "
              f"{args.blocks} blocks × {args.objects} objects) ===")
        stats = pstats.Stats(profilers[phase])
        stats.sort_stats(args.sort).print_stats(args.limit)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
