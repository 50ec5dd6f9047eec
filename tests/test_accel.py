"""Parity and dispatch tests for the accelerated arithmetic providers.

The ``native`` provider must be a pure performance change: identical
integers out of the scalar seam, identical points out of the curve
kernels, identical pairing values — and therefore byte-identical block
encodings and VOs at the chain level, in-process and inside spawn-mode
pool workers.  Without the built extension those tests are skipped (the
suite must pass on pure Python alone).
"""

import random
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import bn254 as bn
from repro.crypto import curve, msm, pairing
from repro.crypto.accel import dispatch
from repro.crypto.backend import get_backend
from repro.errors import CryptoError

AVAILABLE = dispatch.available_impls()
ACCELERATED = [name for name in AVAILABLE if name != "pure"]

accelerated = pytest.mark.parametrize(
    "impl",
    ACCELERATED
    or [pytest.param("none", marks=pytest.mark.skip(reason="no accelerated impl"))],
)

RNG = random.Random(2024)
G = curve.GENERATOR
P = curve.FIELD_PRIME
R = curve.SUBGROUP_ORDER


@contextmanager
def pinned(impl):
    previous = dispatch.active_impl()
    dispatch.set_impl(impl)
    try:
        yield
    finally:
        dispatch.set_impl(previous)


def under(impl, fn):
    with pinned(impl):
        return fn()


# -- scalar seam ---------------------------------------------------------------
@accelerated
@settings(max_examples=25, deadline=None)
@given(st.integers(1, P - 1), st.integers(-3, 2**200))
def test_modexp_modinv_parity(impl, base, exponent):
    expected = under("pure", lambda: dispatch.modexp(base, exponent, P))
    assert under(impl, lambda: dispatch.modexp(base, exponent, P)) == expected
    inv = under(impl, lambda: dispatch.modinv(base, P))
    assert inv == under("pure", lambda: dispatch.modinv(base, P))
    assert base * inv % P == 1


@accelerated
@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**600), st.integers(0, 2**600))
def test_imul_parity(impl, a, b):
    assert under(impl, lambda: dispatch.imul(a, b)) == a * b


@accelerated
def test_modinv_of_zero_raises_valueerror(impl):
    with pinned(impl):
        with pytest.raises(ValueError):
            dispatch.modinv(0, P)
        with pytest.raises(ValueError):
            dispatch.modinv(P, P)


# -- ss512 curve / pairing kernels --------------------------------------------
@accelerated
@settings(max_examples=10, deadline=None)
@given(st.integers(1, R - 1), st.integers(1, R - 1))
def test_ss512_point_ops_parity(impl, k1, k2):
    def work():
        a = curve.multiply(G, k1)
        b = curve.multiply(G, k2)
        return (a, b, curve.add(a, b), curve.add(a, a), curve.neg(a))

    assert under(impl, work) == under("pure", work)


@accelerated
@settings(max_examples=5, deadline=None)
@given(st.integers(1, R - 1), st.integers(1, R - 1))
def test_ss512_pairing_parity(impl, k1, k2):
    a = curve.multiply(G, k1)
    b = curve.multiply(G, k2)
    expected = under("pure", lambda: pairing.tate_pairing(a, b))
    assert under(impl, lambda: pairing.tate_pairing(a, b)) == expected


@accelerated
@settings(max_examples=10, deadline=None)
@given(
    st.tuples(st.integers(0, P - 1), st.integers(0, P - 1)),
    st.tuples(st.integers(0, P - 1), st.integers(0, P - 1)),
    st.integers(-3, 2**200),
)
def test_ss512_fp2_parity(impl, x, y, e):
    def work():
        values = [curve.fp2_mul(x, y), curve.fp2_square(x)]
        if x != (0, 0):
            values.append(curve.fp2_pow(x, e))
        return values

    assert under(impl, work) == under("pure", work)


@accelerated
def test_ss512_infinity_and_edge_cases(impl):
    def work():
        return (
            curve.add(None, G),
            curve.add(G, None),
            curve.add(G, curve.neg(G)),
            curve.multiply(G, 0),
            curve.multiply(G, 1),
            curve.multiply(G, R),
            curve.multiply(G, R - 1),
            pairing.tate_pairing(None, G),
        )

    assert under(impl, work) == under("pure", work)


@accelerated
def test_ss512_oversized_fp2_exponent_falls_back(impl):
    # wider than MAX_SCALAR_BITS: composite kernels must decline, and the
    # generic loop (running through the seam) must still agree with pure
    e = (1 << (dispatch.MAX_SCALAR_BITS + 7)) + 12345
    x = (3, 8)
    assert under(impl, lambda: curve.fp2_pow(x, e)) == under(
        "pure", lambda: curve.fp2_pow(x, e)
    )


@accelerated
@pytest.mark.parametrize("ops_name", ["ss512", "bn254"])
def test_msm_parity(impl, ops_name):
    backend = get_backend(ops_name)
    rng = random.Random(99)
    generator = backend.generator()
    bases = [
        backend.exp(generator, rng.randrange(1, backend.order)) for _ in range(9)
    ]
    scalars = [rng.randrange(0, backend.order) for _ in range(9)]
    scalars[3] = 0  # zero scalar and identity-base edge cases ride along
    tables_scalars = list(scalars)

    def work():
        multi = backend.multi_exp(bases, scalars)
        tables = [backend.fixed_base_table(b) for b in bases]
        fixed = backend.multi_exp_tables(tables, tables_scalars)
        return backend.encode(multi) + backend.encode(fixed)

    assert under(impl, work) == under("pure", work)


# -- bn254 kernels -------------------------------------------------------------
@accelerated
@settings(max_examples=5, deadline=None)
@given(st.integers(1, bn.CURVE_ORDER - 1), st.integers(1, bn.CURVE_ORDER - 1))
def test_bn254_point_ops_parity(impl, k1, k2):
    def work():
        a1 = bn.multiply(bn.G1, k1)
        a2 = bn.multiply(bn.G2, k1)
        return (
            a1,
            a2,
            bn.add(a1, bn.multiply(bn.G1, k2)),
            bn.add(a2, bn.multiply(bn.G2, k2)),
            bn.neg(a1),
        )

    assert under(impl, work) == under("pure", work)


@accelerated
def test_bn254_pairing_parity(impl):
    backend = get_backend("bn254")
    a = backend.exp(backend.generator(), 1234567)
    b = backend.exp(backend.generator(), 7654321)
    expected = under("pure", lambda: backend.gt_encode(backend.pair(a, b)))
    assert under(impl, lambda: backend.gt_encode(backend.pair(a, b))) == expected


# -- chain-level byte parity ---------------------------------------------------
def _mine_and_query(acc_name):
    """Deterministic ss512 network: 2 mined blocks + one answered query."""
    from repro import VChainNetwork
    from repro.chain import ProtocolParams
    from repro.core.query import CNFCondition, TimeWindowQuery
    from tests.conftest import make_objects

    query = TimeWindowQuery(start=0, end=10, boolean=CNFCondition.of([["Benz", "BMW"]]))
    params = ProtocolParams(mode="both", bits=4, difficulty_bits=0)
    net = VChainNetwork.create(
        acc_name=acc_name, backend_name="ss512", params=params, seed=7,
        acc1_capacity=64,
    )
    rng = random.Random(3)
    oid = 0
    for height in range(2):
        objs = make_objects(rng, 2, oid, timestamp=height, dims=1, bits=4)
        oid += 2
        net.miner.mine_block(objs, timestamp=height)
    net.user.sync_headers(net.chain)
    batch = net.accumulator.supports_aggregation
    results, vo, _stats = net.sp.processor.time_window_query(query, batch=batch)
    return net, query, results, vo


def _chain_bytes(acc_name):
    from repro.wire.block_codec import encode_block
    from repro.wire.vo_codec import encode_time_window_vo

    net, query, results, vo = _mine_and_query(acc_name)
    backend = net.accumulator.backend
    blocks = [
        encode_block(backend, net.chain.block(h)) for h in range(len(net.chain))
    ]
    vo_bytes = encode_time_window_vo(backend, vo)
    verified, _stats = net.user.verify(query, results, vo)
    assert sorted(o.object_id for o in verified) == sorted(
        o.object_id for o in results
    )
    return blocks, vo_bytes


@pytest.mark.slow
@accelerated
@pytest.mark.parametrize("acc_name", ["acc1", "acc2"])
def test_chain_bytes_identical_across_impls(impl, acc_name):
    pure_blocks, pure_vo = under("pure", lambda: _chain_bytes(acc_name))
    accel_blocks, accel_vo = under(impl, lambda: _chain_bytes(acc_name))
    assert accel_blocks == pure_blocks
    assert accel_vo == pure_vo


@pytest.mark.slow
@accelerated
def test_spawn_pool_workers_match_pure_bytes(impl):
    """Spawn-mode workers inherit the impl by name and stay byte-parity."""
    from repro.accumulators import Acc2, ElementEncoder, keygen_acc2
    from repro.parallel import CryptoPool, ParallelConfig

    backend = get_backend("ss512")
    encoder = ElementEncoder(2**20)
    _sk, pk = keygen_acc2(backend, 2**20, random.Random(7))
    accumulator = Acc2(pk)
    multisets = [
        encoder.encode_multiset(Counter({f"attr{i}": 1, "shared": 2}))
        for i in range(4)
    ]
    serial = under(
        "pure", lambda: [accumulator.accumulate(m) for m in multisets]
    )
    with pinned(impl):
        with CryptoPool(
            accumulator, encoder, ParallelConfig(workers=2, start_method="spawn")
        ) as pool:
            parallel = pool.map_accumulate(multisets)
    for s, p in zip(serial, parallel):
        assert [backend.encode(x) for x in s.parts] == [
            backend.encode(x) for x in p.parts
        ]


# -- dispatch selection & reporting --------------------------------------------
def test_available_impls_always_ends_with_pure():
    assert AVAILABLE
    assert AVAILABLE[-1] == "pure"
    assert set(AVAILABLE) <= {"native", "pure"}


def test_set_impl_unknown_name_raises(monkeypatch):
    # the second name is a removed provider: it must be rejected
    # by every selector, never silently probed past
    for name in ("mcl", "gmpy2"):
        with pytest.raises(CryptoError, match=f"unknown accel impl '{name}'"):
            dispatch.set_impl(name)
        with pytest.raises(CryptoError, match=f"unknown accel impl '{name}'"):
            get_backend("ss512", accel=name)
        monkeypatch.setenv(dispatch.ENV_VAR, name)
        monkeypatch.setattr(dispatch, "_ACTIVE", None)
        with pytest.raises(CryptoError, match=f"unknown accel impl '{name}'"):
            dispatch.active()


def test_set_impl_unavailable_raises_and_fallback_degrades():
    missing = [n for n in dispatch.PROBE_ORDER if n not in AVAILABLE]
    if not missing:
        pytest.skip("every provider is installed here")
    with pytest.raises(CryptoError, match="not available"):
        dispatch.set_impl(missing[0])
    previous = dispatch.active_impl()
    assert dispatch.set_impl(missing[0], fallback=True) == AVAILABLE[0]
    dispatch.set_impl(previous)


def test_set_impl_auto_resolves_probe_order():
    previous = dispatch.active_impl()
    try:
        assert dispatch.set_impl("auto") == AVAILABLE[0]
        assert dispatch.active_impl() == AVAILABLE[0]
    finally:
        dispatch.set_impl(previous)


def test_env_var_selects_initial_impl():
    code = (
        "from repro.crypto.accel import dispatch; print(dispatch.active_impl())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": "src", "REPRO_ACCEL": "pure", "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        cwd=str(__import__("pathlib").Path(__file__).resolve().parents[1]),
    )
    assert out.stdout.strip() == "pure", out.stderr


def test_get_backend_accel_knob_and_property():
    previous = dispatch.active_impl()
    try:
        backend = get_backend("ss512", accel="pure")
        assert backend.accel_impl == "pure"
        assert get_backend("simulated").accel_impl == "simulated"
        with pytest.raises(CryptoError, match="unknown accel impl"):
            get_backend("ss512", accel="fast")
    finally:
        dispatch.set_impl(previous)


def test_endpoint_stats_report_the_active_impl():
    from repro import ProtocolParams, VChainNetwork

    net = VChainNetwork.create(
        backend_name="simulated",
        params=ProtocolParams(mode="both", bits=4, difficulty_bits=0),
        seed=5,
    )
    try:
        snapshot = net.endpoint.stats()
        assert snapshot["accel"] == dispatch.active_impl()
        assert net.endpoint.server_stats().accel == dispatch.active_impl()
    finally:
        net.close()


@accelerated
def test_provider_meta_names_its_toolchain(impl):
    with pinned(impl):
        meta = dispatch.active().meta
    assert meta  # version/compiler details for benchmark provenance
    assert all(isinstance(v, str) for v in meta.values())
