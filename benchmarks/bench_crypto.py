#!/usr/bin/env python3
"""Crypto fast-path benchmark: MSM, accumulate/prove/verify, end to end.

Measures the group-arithmetic substrate (Jacobian coordinates, Pippenger
and fixed-base MSM, multi-pairing verification) against the **naive
reference path** the repo shipped before it: affine double-and-add
scalar multiplication, scalar-at-a-time multi-exponentiation, and one
full pairing (Miller loop + final exponentiation) per factor of every
verification equation; and key-power materialization (``g^{s^i}`` from
the generator's comb table, in batches) against one ``exp`` per power.
The naive path is reimplemented here, from the affine primitives that
remain in :mod:`repro.crypto.curve` and :mod:`repro.crypto.bn254`, so
the comparison stays honest as the fast path evolves.

Every timed section also asserts **bit-for-bit parity**: the fast path
must produce byte-identical group elements (and therefore identical
block digests and VOs) to the naive path.

CI usage: ``--check benchmarks/baseline_crypto.json`` fails the run when
any measured speedup drops below the checked-in floor or any parity
assertion fails.  Results land in ``BENCH_crypto.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import build_network, get_dataset, print_row

from repro.accumulators import ElementEncoder, make_accumulator
from repro.crypto import bn254 as bn
from repro.crypto import curve, msm
from repro.crypto.accel import dispatch
from repro.crypto.backend import get_backend
from repro.crypto.curve import (
    FP2_ONE,
    fp2_conjugate,
    fp2_inv,
    fp2_mul,
    fp2_pow,
    fp2_square,
)
from repro.datasets import make_time_window_queries


# -- naive reference implementations (the pre-fast-path algorithms) ----------
def naive_ss_mul(point, scalar):
    """Affine double-and-add on the ss512 curve."""
    if scalar < 0:
        return curve.neg(naive_ss_mul(point, -scalar))
    result = None
    addend = point
    while scalar:
        if scalar & 1:
            result = curve.add(result, addend)
        addend = curve.add(addend, addend)
        scalar >>= 1
    return result


def naive_bn_mul(point, scalar):
    """Affine double-and-add on BN254 (either source group)."""
    if scalar < 0:
        return naive_bn_mul(bn.neg(point), -scalar)
    result = None
    addend = point
    while scalar:
        if scalar & 1:
            result = bn.add(result, addend)
        addend = bn.double(addend)
        scalar >>= 1
    return result


def naive_multi_exp(backend, bases, scalars):
    """Scalar-at-a-time Π bases[i]^scalars[i] over naive exponentiation."""
    acc = backend.identity()
    for base, scalar in zip(bases, scalars, strict=True):
        scalar %= backend.order
        if scalar == 0:
            continue
        if backend.name == "ss512":
            acc = backend.op(acc, naive_ss_mul(base, scalar))
        else:
            acc = backend.op(
                acc,
                (naive_bn_mul(base[0], scalar), naive_bn_mul(base[1], scalar)),
            )
    return acc


def _naive_line_eval(a, b, sx, sy_imag):
    """The original two-inversions-per-step ss512 line evaluation."""
    p = curve.FIELD_PRIME
    xa, ya = a
    xb, yb = b
    if xa == xb and (ya + yb) % p == 0:
        return ((sx - xa) % p, 0)
    if a == b:
        lam = (3 * xa * xa + 1) * pow(2 * ya, -1, p) % p
    else:
        lam = (yb - ya) * pow(xb - xa, -1, p) % p
    real = (-(ya + lam * (sx - xa))) % p
    return (real, sy_imag % p)


def naive_ss_pairing(p_point, q_point):
    """The original ss512 Tate pairing: separate line-eval and point-add
    inversions per Miller step, one final exponentiation per pairing."""
    if p_point is None or q_point is None:
        return FP2_ONE
    p = curve.FIELD_PRIME
    sx, sy = (-q_point[0]) % p, q_point[1]
    f = FP2_ONE
    t = p_point
    for bit in bin(curve.SUBGROUP_ORDER)[3:]:
        f = fp2_mul(fp2_square(f), _naive_line_eval(t, t, sx, sy))
        t = curve.add(t, t)
        if bit == "1":
            f = fp2_mul(f, _naive_line_eval(t, p_point, sx, sy))
            t = curve.add(t, p_point)
    eased = fp2_mul(fp2_conjugate(f), fp2_inv(f))
    return fp2_pow(eased, curve.COFACTOR)


def naive_pair(backend, a, b):
    if backend.name == "ss512":
        return naive_ss_pairing(a, b)
    return backend.pair(a, b)  # bn254 naive pairing == current per-pair path


#: fresh key powers the keypower sections materialize per run
KEYPOWER_INDICES = 1000


# -- timing helpers -----------------------------------------------------------
def timed(fn, repeat: int = 1) -> tuple[float, object]:
    """Best-of-``repeat`` wall time and the (last) result."""
    best = None
    result = None
    for _ in range(repeat):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def section_msm(report: dict, parity: list) -> None:
    """Pippenger + fixed-base MSM vs the naive loop, 2^4 .. 2^10 points."""
    plans = {
        "ss512": {"sizes": [16, 32, 64, 128, 256, 512, 1024], "naive_max": 256},
        "bn254": {"sizes": [16, 32, 64], "naive_max": 32},
    }
    report["msm"] = {}
    for name, plan in plans.items():
        backend = get_backend(name)
        rng = random.Random(42)
        rows = []
        generator = backend.generator()
        bases = [
            backend.exp(generator, rng.randrange(1, backend.order))
            for _ in range(max(plan["sizes"]))
        ]
        all_tables = [backend.fixed_base_table(base) for base in bases]
        for size in plan["sizes"]:
            scalars = [rng.randrange(0, backend.order) for _ in range(size)]
            fast_s, fast = timed(
                lambda: backend.multi_exp(bases[:size], scalars), repeat=3
            )
            tables = all_tables[:size]
            fixed_s, fixed = timed(
                lambda: backend.multi_exp_tables(tables, scalars), repeat=3
            )
            row = {
                "size": size,
                "pippenger_s": round(fast_s, 6),
                "fixed_base_s": round(fixed_s, 6),
            }
            parity.append(("msm/fixed-base agree", backend.eq(fast, fixed)))
            if size <= plan["naive_max"]:
                naive_s, naive = timed(
                    lambda: naive_multi_exp(backend, bases[:size], scalars)
                )
                parity.append((f"{name} msm n={size}", backend.eq(fast, naive)))
                row["naive_s"] = round(naive_s, 6)
                row["speedup"] = round(naive_s / fast_s, 2)
            rows.append(row)
            print_row(f"msm/{name}", row)
        report["msm"][name] = rows


def section_accumulate(report: dict, parity: list) -> None:
    """acc1/acc2 accumulate (the mining hot path) vs naive commits."""
    report["accumulate"] = {}
    rng = random.Random(7)

    for name, capacity in (("ss512", 256), ("bn254", 64)):
        backend = get_backend(name)
        _sk, acc1 = make_accumulator(
            "acc1", backend, capacity=capacity, rng=random.Random(1)
        )
        multiset = Counter(
            {rng.randrange(1, backend.order): 1 for _ in range(capacity)}
        )
        poly = acc1._char_poly(multiset)
        powers = [acc1.public_key.power(i) for i in range(len(poly))]
        naive_s, naive = timed(lambda: naive_multi_exp(backend, powers, list(poly)))
        acc1.accumulate(multiset)  # warm the fixed-base tables
        fast_s, fast = timed(lambda: acc1.accumulate(multiset), repeat=3)
        parity.append((f"acc1 accumulate {name}", backend.eq(fast.parts[0], naive)))
        row = {
            "capacity": capacity,
            "naive_s": round(naive_s, 4),
            "fast_s": round(fast_s, 4),
            "speedup": round(naive_s / fast_s, 2),
        }
        report["accumulate"][f"acc1_{name}"] = row
        print_row(f"accumulate/acc1_{name}", row)

    backend = get_backend("ss512")
    _sk, acc2 = make_accumulator("acc2", backend, rng=random.Random(2))
    encoder = ElementEncoder(2**32 - 1)
    multiset = encoder.encode_multiset(
        Counter({f"attr{i}": 1 + i % 3 for i in range(64)})
    )
    fast_s, fast = timed(lambda: acc2.accumulate(multiset), repeat=3)
    q = acc2.public_key.domain
    naive_s, (part_a, part_b) = timed(
        lambda: (
            naive_multi_exp(
                backend,
                [acc2.public_key.power(i) for i in multiset],
                list(multiset.values()),
            ),
            naive_multi_exp(
                backend,
                [acc2.public_key.power(q - i) for i in multiset],
                list(multiset.values()),
            ),
        )
    )
    parity.append(
        (
            "acc2 accumulate ss512",
            backend.eq(fast.parts[0], part_a) and backend.eq(fast.parts[1], part_b),
        )
    )
    row = {
        "elements": 64,
        "naive_s": round(naive_s, 4),
        "fast_s": round(fast_s, 4),
        "speedup": round(naive_s / fast_s, 2),
    }
    report["accumulate"]["acc2_ss512"] = row
    print_row("accumulate/acc2_ss512", row)


def section_prove_verify(report: dict, parity: list) -> None:
    """Disjointness prove + verify, single and batched, ss512."""
    backend = get_backend("ss512")
    rng = random.Random(11)
    _sk, acc1 = make_accumulator("acc1", backend, capacity=256, rng=random.Random(3))
    _sk, acc2 = make_accumulator("acc2", backend, rng=random.Random(4))
    encoder = ElementEncoder(2**32 - 1)

    left_r = Counter({rng.randrange(1, backend.order): 1 for _ in range(24)})
    clause_r = Counter({rng.randrange(1, backend.order): 1 for _ in range(2)})
    prove1_s, proof1 = timed(lambda: acc1.prove_disjoint(left_r, clause_r))
    value1 = acc1.accumulate(left_r)
    clause1 = acc1.accumulate(clause_r)

    left_q = encoder.encode_multiset(Counter({f"a{i}": 1 for i in range(24)}))
    clause_q = encoder.encode_multiset(Counter({"Sedan": 1, "Benz": 1}))
    prove2_s, proof2 = timed(lambda: acc2.prove_disjoint(left_q, clause_q))
    value2 = acc2.accumulate(left_q)
    clause2 = acc2.accumulate(clause_q)
    report["prove"] = {
        "acc1_ss512_s": round(prove1_s, 4),
        "acc2_ss512_s": round(prove2_s, 4),
    }
    print_row("prove", report["prove"])

    # single verification: multi-pairing vs one full pairing per factor
    fast_s, ok = timed(lambda: acc1.verify_disjoint(value1, clause1, proof1), repeat=3)
    parity.append(("acc1 verify accepts", ok))
    pair_gg = naive_pair(backend, backend.generator(), backend.generator())
    naive_s, naive_ok = timed(
        lambda: backend.gt_eq(
            backend.gt_op(
                naive_pair(backend, value1.parts[0], proof1.parts[0]),
                naive_pair(backend, clause1.parts[0], proof1.parts[1]),
            ),
            pair_gg,
        )
    )
    parity.append(("acc1 naive verify accepts", naive_ok))
    report["verify"] = {
        "acc1_single_ss512": {
            "naive_s": round(naive_s, 4),
            "fast_s": round(fast_s, 4),
            "speedup": round(naive_s / fast_s, 2),
        }
    }
    print_row("verify/acc1_single", report["verify"]["acc1_single_ss512"])

    # batched verification: N weighted checks aggregated into one
    # pairing product (the QueryVerifier.batch_verify algebra)
    n_checks = 8
    checks = []
    for i in range(n_checks):
        member = encoder.encode_multiset(Counter({f"m{i}_{j}": 1 for j in range(6)}))
        checks.append((acc2.accumulate(member), acc2.prove_disjoint(member, clause_q)))
    weights = [rng.randrange(1, backend.order) for _ in range(n_checks)]

    def batch_fast():
        values = [
            type(value)(parts=tuple(backend.exp(p, w) for p in value.parts))
            for (value, _), w in zip(checks, weights)
        ]
        proofs = [
            type(proof)(parts=tuple(backend.exp(p, w) for p in proof.parts))
            for (_, proof), w in zip(checks, weights)
        ]
        return acc2.verify_disjoint(
            acc2.sum_values(values), clause2, acc2.sum_proofs(proofs)
        )

    def batch_naive():
        values = [
            type(value)(parts=tuple(naive_ss_mul(p, w) for p in value.parts))
            for (value, _), w in zip(checks, weights)
        ]
        proofs = [
            type(proof)(parts=tuple(naive_ss_mul(p, w) for p in proof.parts))
            for (_, proof), w in zip(checks, weights)
        ]
        summed = acc2.sum_values(values)
        summed_proof = acc2.sum_proofs(proofs)
        left = naive_pair(backend, summed.parts[0], clause2.parts[1])
        right = naive_pair(backend, summed_proof.parts[0], backend.generator())
        return backend.gt_eq(left, right)

    fast_s, fast_ok = timed(batch_fast, repeat=3)
    naive_s, naive_ok = timed(batch_naive)
    parity.append(("batch fast accepts", fast_ok))
    parity.append(("batch naive accepts", naive_ok))
    report["verify"]["batch_ss512"] = {
        "checks": n_checks,
        "naive_s": round(naive_s, 4),
        "fast_s": round(fast_s, 4),
        "speedup": round(naive_s / fast_s, 2),
    }
    print_row("verify/batch", report["verify"]["batch_ss512"])


def _keypower_workload() -> dict:
    """:data:`KEYPOWER_INDICES` fresh acc2 key powers, active provider:
    one :meth:`KeyOracle.prefetch` batch against the per-index
    ``backend.exp(g, s^i)`` reference (best of three each), with the
    comb-table build timed on its own and a digest of the powers for
    cross-provider parity."""
    backend = get_backend("ss512")
    secret, acc2 = make_accumulator("acc2", backend, rng=random.Random(6))
    oracle = acc2.public_key.oracle
    domain = acc2.public_key.domain
    indices = random.Random(17).sample(
        range(domain + 1, 2 * domain - 1), KEYPOWER_INDICES
    )
    exponents = [pow(secret.s, i, backend.order) for i in indices]
    generator = backend.generator()
    exp_s, reference = timed(
        lambda: [backend.exp(generator, e) for e in exponents], repeat=3
    )
    msm._COMB_CACHE.clear()  # time the one-off table build separately
    table_s, _ = timed(lambda: oracle.prefetch([domain - 1]))

    def fresh_prefetch() -> None:
        oracle._cache.clear()
        oracle.prefetch(indices)

    prefetch_s, _ = timed(fresh_prefetch, repeat=3)
    encoded = b"".join(backend.encode(oracle.power(i)) for i in indices)
    return {
        "exp_s": exp_s,
        "prefetch_s": prefetch_s,
        "table_s": table_s,
        "parity": encoded == b"".join(backend.encode(p) for p in reference),
        "digest": hashlib.sha256(encoded).hexdigest(),
    }


def section_keypower(report: dict, parity: list) -> None:
    """Key-power materialization: comb-table batch vs per-index ``exp``,
    pinned to the pure-Python provider (the C extension has its own row
    in the accel section)."""
    previous = dispatch.active_impl()
    try:
        dispatch.set_impl("pure")
        run = _keypower_workload()
    finally:
        dispatch.set_impl(previous)
    parity.append(("keypower prefetch == exp", run["parity"]))
    row = {
        "indices": KEYPOWER_INDICES,
        "exp_s": round(run["exp_s"], 4),
        "prefetch_s": round(run["prefetch_s"], 4),
        "table_s": round(run["table_s"], 4),
        "speedup": round(run["exp_s"] / run["prefetch_s"], 2),
        "digest": run["digest"],
    }
    report["keypower"] = {"ss512": row}
    print_row("keypower/ss512", row)


def _accel_workload() -> dict:
    """acc1 accumulate / prove / verify at capacity 256 under the
    currently active provider, plus the canonical bytes of everything
    it produced (the in-run parity gate compares them across impls)."""
    backend = get_backend("ss512")
    _sk, acc1 = make_accumulator("acc1", backend, capacity=256, rng=random.Random(5))
    rng = random.Random(13)
    multiset = Counter({rng.randrange(1, backend.order): 1 for _ in range(256)})
    clause = Counter({rng.randrange(1, backend.order): 1 for _ in range(2)})
    acc1.accumulate(multiset)  # warm the fixed-base tables
    accumulate_s, value = timed(lambda: acc1.accumulate(multiset), repeat=5)
    prove_s, proof = timed(lambda: acc1.prove_disjoint(multiset, clause), repeat=5)
    clause_value = acc1.accumulate(clause)
    verify_s, ok = timed(
        lambda: acc1.verify_disjoint(value, clause_value, proof), repeat=5
    )
    encoded = b"".join(
        backend.encode(part)
        for part in (*value.parts, *clause_value.parts, *proof.parts)
    )
    return {
        "accumulate_s": accumulate_s,
        "prove_s": prove_s,
        "verify_s": verify_s,
        "accepts": ok,
        "bytes": encoded,
    }


def section_accel(report: dict, parity: list) -> None:
    """The native provider vs the pure-Python fast path.

    The other sections compare the fast path against the *naive*
    reference; this one compares providers of the same algorithms, so
    the speedup isolates what the C extension buys.  Skipped — with the
    reason recorded in the report — when only ``pure`` is available,
    which is what lets ``--check`` pass on a machine without the
    extension built.
    """
    impls = dispatch.available_impls()
    best = impls[0]
    if best == "pure":
        reason = "no accelerated provider available (build the C extension)"
        report["accel"] = {"impl": "pure", "skipped": reason}
        print(f"accel: SKIPPED — {reason}")
        return
    previous = dispatch.active_impl()
    try:
        dispatch.set_impl("pure")
        pure = _accel_workload()
        dispatch.set_impl(best)
        fast = _accel_workload()
    finally:
        dispatch.set_impl(previous)
    parity.append((f"accel {best} accepts", fast["accepts"] and pure["accepts"]))
    parity.append((f"accel {best} bytes == pure", fast["bytes"] == pure["bytes"]))
    report["accel"] = {"impl": best}
    for op in ("accumulate", "prove", "verify"):
        row = {
            "pure_s": round(pure[f"{op}_s"], 4),
            f"{best}_s": round(fast[f"{op}_s"], 4),
            "speedup": round(pure[f"{op}_s"] / fast[f"{op}_s"], 2),
        }
        report["accel"][op] = row
        print_row(f"accel/{op}", row)
    # key powers: the comb batch against the per-index exp, both on the
    # accelerated provider, whose powers must match the pure section's
    try:
        dispatch.set_impl(best)
        keypower = _keypower_workload()
    finally:
        dispatch.set_impl(previous)
    pure_digest = report.get("keypower", {}).get("ss512", {}).get("digest")
    parity.append((f"accel {best} keypower prefetch == exp", keypower["parity"]))
    parity.append(
        (f"accel {best} key powers == pure", keypower["digest"] == pure_digest)
    )
    row = {
        f"{best}_exp_s": round(keypower["exp_s"], 4),
        f"{best}_prefetch_s": round(keypower["prefetch_s"], 4),
        "speedup": round(keypower["exp_s"] / keypower["prefetch_s"], 2),
    }
    report["accel"]["keypower"] = row
    print_row("accel/keypower", row)


def section_end_to_end(report: dict) -> None:
    """Mine + query + verify wall time on the benchmark substrate."""
    dataset = get_dataset("4SQ", 12)
    started = time.perf_counter()
    net = build_network(dataset, "acc2", "both")
    mine_s = time.perf_counter() - started
    queries = make_time_window_queries(dataset, n_queries=4, window_blocks=8, seed=29)
    sp_s = user_s = 0.0
    for query in queries:
        resp = net.client.execute(query, batch=True).raise_for_forgery()
        sp_s += resp.sp_seconds
        user_s += resp.user_seconds
    report["end_to_end"] = {
        "backend": "simulated",
        "blocks": 12,
        "mine_s": round(mine_s, 3),
        "query_s": round(sp_s / len(queries), 4),
        "verify_s": round(user_s / len(queries), 4),
    }
    print_row("end_to_end", report["end_to_end"])


def check(report: dict, baseline_path: str) -> list[str]:
    """Compare measured speedups against the committed floors.

    Floor keys address the report: ``accumulate/acc1_ss512`` walks
    nested dicts; ``msm/<backend>/<size>`` selects a sweep row.
    """
    baseline = json.loads(Path(baseline_path).read_text())
    failures = []
    accel_skipped = report.get("accel", {}).get("skipped")
    for name, floor in baseline.get("floors", {}).items():
        parts = name.split("/")
        if parts[0] == "accel" and accel_skipped:
            print(f"check: skipping {name} — {accel_skipped}")
            continue
        if parts[0] == "msm":
            rows = report.get("msm", {}).get(parts[1], [])
            node = next((r for r in rows if r["size"] == int(parts[2])), {})
        else:
            node = report
            for part in parts:
                node = node.get(part, {}) if isinstance(node, dict) else {}
        speedup = node.get("speedup") if isinstance(node, dict) else None
        if speedup is None:
            failures.append(f"{name}: no measured speedup in report")
        elif speedup < floor:
            failures.append(f"{name}: speedup {speedup} below floor {floor}")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_crypto.json")
    parser.add_argument(
        "--check",
        nargs="?",
        const="benchmarks/baseline_crypto.json",
        default=None,
        help="fail if speedups fall below the floors in this baseline json",
    )
    parser.add_argument(
        "--skip-end-to-end", action="store_true", help="crypto sections only"
    )
    args = parser.parse_args()

    report: dict = {
        "meta": {
            "python": sys.version.split()[0],
            "accel_impl": dispatch.active_impl(),
            "accel_available": list(dispatch.available_impls()),
            **dict(dispatch.active().meta),
        }
    }
    parity: list[tuple[str, bool]] = []
    section_msm(report, parity)
    section_accumulate(report, parity)
    section_prove_verify(report, parity)
    section_keypower(report, parity)
    section_accel(report, parity)
    if not args.skip_end_to_end:
        section_end_to_end(report)

    bad_parity = [name for name, ok in parity if not ok]
    report["parity"] = {
        "checks": len(parity),
        "failed": bad_parity,
        "ok": not bad_parity,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    failures = []
    if bad_parity:
        failures.extend(f"parity: {name}" for name in bad_parity)
    if args.check:
        failures.extend(check(report, args.check))
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
