"""Shared benchmark infrastructure.

Every table/figure benchmark builds chains through :func:`get_network`
(memoised per configuration, since chain construction is setup, not the
measured quantity — except in Table 1 / Fig 16, which measure it
explicitly) and reports the paper's three metrics through
:func:`run_time_window_workload`.

Scale note: the paper's testbed processes 240–2400 blocks per query on
a 24-thread Xeon through the MCL C++ library; this harness uses
windows of 8–64 blocks on the simulated backend.  Relative shapes (who
wins, by what factor, where costs cross) are the reproduction target;
each ``bench_*`` script's docstring states the shapes it reproduces.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro import VChainNetwork
from repro.chain import ProtocolParams
from repro.datasets import (
    Dataset,
    ethereum_like,
    foursquare_like,
    make_time_window_queries,
    weather_like,
)

#: benchmark-scale dataset shapes (blocks are built per-config on demand)
DATASET_BUILDERS = {
    "4SQ": lambda n: foursquare_like(n, objects_per_block=6),
    "WX": lambda n: weather_like(n, objects_per_block=10),
    "ETH": lambda n: ethereum_like(n, objects_per_block=6),
}

#: the six schemes of Table 1 / Figs 9–11
SCHEMES = [(mode, acc) for mode in ("nil", "intra", "both") for acc in ("acc1", "acc2")]

_NETWORKS: dict = {}
_DATASETS: dict = {}


def get_dataset(name: str, n_blocks: int) -> Dataset:
    key = (name, n_blocks)
    if key not in _DATASETS:
        _DATASETS[key] = DATASET_BUILDERS[name](n_blocks)
    return _DATASETS[key]


def build_network(
    dataset: Dataset,
    acc_name: str,
    mode: str,
    skip_size: int = 3,
    skip_base: int = 4,
    clustered: bool = True,
) -> VChainNetwork:
    """A fresh network with the dataset mined in (not memoised)."""
    params = ProtocolParams(
        mode=mode,
        bits=dataset.bits,
        skip_size=skip_size,
        skip_base=skip_base,
        difficulty_bits=0,
        clustered=clustered,
    )
    net = VChainNetwork.create(
        acc_name=acc_name, params=params, seed=17, acc1_capacity=1 << 20
    )
    net.mine_dataset(dataset)
    return net


def get_network(
    dataset_name: str,
    n_blocks: int,
    acc_name: str,
    mode: str,
    skip_size: int = 3,
    skip_base: int = 4,
    clustered: bool = True,
) -> VChainNetwork:
    """Memoised network builder (chain setup is amortised across benches)."""
    key = (dataset_name, n_blocks, acc_name, mode, skip_size, skip_base, clustered)
    if key not in _NETWORKS:
        _NETWORKS[key] = build_network(
            get_dataset(dataset_name, n_blocks),
            acc_name,
            mode,
            skip_size=skip_size,
            skip_base=skip_base,
            clustered=clustered,
        )
    return _NETWORKS[key]


@dataclass
class WorkloadResult:
    """Averages over a query workload — the paper's three metrics."""

    sp_seconds: float
    user_seconds: float
    vo_kb: float
    results: float

    def as_info(self) -> dict:
        return {
            "sp_cpu_s": round(self.sp_seconds, 4),
            "user_cpu_s": round(self.user_seconds, 4),
            "vo_kb": round(self.vo_kb, 2),
            "avg_results": round(self.results, 1),
        }


def run_time_window_workload(net: VChainNetwork, queries) -> WorkloadResult:
    """Run queries through the client API; average the three metrics."""
    client = net.client
    batch = net.accumulator.supports_aggregation
    sp_total = user_total = vo_total = res_total = 0.0
    for query in queries:
        resp = client.execute(query, batch=batch).raise_for_forgery()
        sp_total += resp.sp_seconds
        user_total += resp.user_seconds
        vo_total += resp.vo_nbytes / 1024
        res_total += len(resp.results)
    n = len(queries)
    return WorkloadResult(sp_total / n, user_total / n, vo_total / n, res_total / n)


def workload(dataset: Dataset, window_blocks: int, n_queries: int = 4, **kw):
    return make_time_window_queries(
        dataset, n_queries=n_queries, window_blocks=window_blocks, seed=29, **kw
    )


def timed(fn):
    """Run ``fn`` once, returning (elapsed_seconds, result)."""
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def print_row(label: str, info: dict) -> None:
    cells = "  ".join(f"{k}={v}" for k, v in info.items())
    print(f"[{label}] {cells}")


def fresh_rng(seed: int = 99) -> random.Random:
    return random.Random(seed)
