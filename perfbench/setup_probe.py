"""One cold set-up of a benchmark workload, in its own interpreter.

``run.py`` calls this so that every set-up it times starts from a fresh
process: a repeat in the parent would find the point-validation cache
already warm.  Prints the set-up seconds as its last line.

    python3 perfbench/setup_probe.py <chain_dir> <workload> <seed>
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as wl  # noqa: E402


def main(chain_dir: str, workload: str, seed: str) -> None:
    subscriptions = []
    if workload == "mine-subscribe":
        subscriptions = wl.subscription_queries(wl.dataset(), int(seed))
    dep = wl.deploy(Path(chain_dir), subscriptions)
    dep.close()
    print(dep.setup_s)


if __name__ == "__main__":
    main(*sys.argv[1:])
