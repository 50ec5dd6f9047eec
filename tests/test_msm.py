"""Property tests for the crypto fast path.

Jacobian add/double/multiply and the Pippenger / fixed-base MSMs must
agree with the affine chord-and-tangent and naive-loop reference
implementations on random inputs — including identity, negation, and
mixed-sign edge cases — for both real backends.  The affine primitives
(``curve.add``, ``bn254.add``/``double``) remain in the codebase as the
references, so these tests pin the fast path to them bit for bit.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto import bn254 as bn
from repro.crypto import curve, msm
from repro.crypto.accel import dispatch
from repro.crypto.backend import PairingBackend, get_backend
from repro.errors import CryptoError

G = curve.GENERATOR
ORDER = curve.SUBGROUP_ORDER


# -- affine reference implementations ----------------------------------------
def affine_mul(point, scalar):
    """Double-and-add over the affine ss512 primitives."""
    if scalar < 0:
        return curve.neg(affine_mul(point, -scalar))
    result = None
    addend = point
    while scalar:
        if scalar & 1:
            result = curve.add(result, addend)
        addend = curve.add(addend, addend)
        scalar >>= 1
    return result


def bn_affine_mul(point, scalar):
    """Double-and-add over the affine BN254 primitives (G1 or G2)."""
    if scalar < 0:
        return bn_affine_mul(bn.neg(point), -scalar)
    result = None
    addend = point
    while scalar:
        if scalar & 1:
            result = bn.add(result, addend)
        addend = bn.double(addend)
        scalar >>= 1
    return result


# -- ss512 Jacobian vs affine --------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=2**48),
    b=st.integers(min_value=0, max_value=2**48),
)
def test_ss512_jacobian_add_matches_affine(a, b):
    p = affine_mul(G, a)
    q = affine_mul(G, b)
    expected = curve.add(p, q)
    jac = curve.jac_add(curve.to_jacobian(p), curve.to_jacobian(q))
    assert curve.from_jacobian(jac) == expected
    mixed = curve.jac_add_affine(curve.to_jacobian(p), q)
    assert curve.from_jacobian(mixed) == expected


@settings(max_examples=25, deadline=None)
@given(a=st.integers(min_value=0, max_value=2**48))
def test_ss512_jacobian_double_matches_affine(a):
    p = affine_mul(G, a)
    expected = curve.add(p, p)
    assert curve.from_jacobian(curve.jac_double(curve.to_jacobian(p))) == expected


@settings(max_examples=25, deadline=None)
@given(k=st.integers(min_value=-(2**48), max_value=2**48))
def test_ss512_multiply_matches_affine(k):
    assert curve.multiply(G, k) == affine_mul(G, k)


def test_ss512_multiply_edge_cases():
    assert curve.multiply(None, 5) is None
    assert curve.multiply(G, 0) is None
    assert curve.multiply(G, 1) == G
    assert curve.multiply(G, -1) == curve.neg(G)
    assert curve.multiply(G, ORDER) is None
    assert curve.multiply(G, ORDER + 7) == affine_mul(G, 7)
    # negated point cancels: P + (-P) through every addition path
    p = curve.multiply(G, 1234)
    n = curve.neg(p)
    assert curve.add(p, n) is None
    assert curve.from_jacobian(
        curve.jac_add(curve.to_jacobian(p), curve.to_jacobian(n))
    ) is None
    assert curve.from_jacobian(curve.jac_add_affine(curve.to_jacobian(p), n)) is None


def test_ss512_jacobian_infinity_identities():
    inf = curve.JAC_INFINITY
    p = curve.to_jacobian(curve.multiply(G, 9))
    assert curve.jac_add(inf, p) == p
    assert curve.jac_add(p, inf) == p
    assert curve.from_jacobian(curve.jac_double(inf)) is None
    assert curve.from_jacobian(curve.jac_neg(inf)) is None
    assert curve.to_jacobian(None) == inf


def test_ss512_batch_from_jacobian_matches_single():
    rng = random.Random(4)
    points = [
        curve.to_jacobian(affine_mul(G, rng.randrange(0, 2**32)))
        for _ in range(9)
    ]
    points.insert(3, curve.JAC_INFINITY)
    # non-trivial Z coordinates: run through a few jacobian ops first
    points = [curve.jac_add(curve.jac_double(p), p) for p in points]
    batch = curve.batch_from_jacobian(points)
    assert batch == [curve.from_jacobian(p) for p in points]


def test_batch_from_jacobian_all_infinity():
    points = [curve.JAC_INFINITY, curve.JAC_INFINITY]
    assert curve.batch_from_jacobian(points) == [None, None]
    assert bn.batch_from_jacobian([None, None]) == [None, None]


# -- wNAF ------------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=ORDER), w=st.integers(min_value=2, max_value=8)
)
def test_wnaf_digits_reconstruct_scalar(k, w):
    digits = msm._wnaf_digits(k, w)
    assert sum(d << i for i, d in enumerate(digits)) == k
    half = 1 << (w - 1)
    for d in digits:
        assert d == 0 or (d % 2 == 1 and -half < d < half)


# -- MSM vs naive loop --------------------------------------------------------
@pytest.fixture(
    params=[
        "simulated",
        pytest.param("ss512", marks=pytest.mark.slow),
        pytest.param("bn254", marks=pytest.mark.slow),
    ]
)
def backend(request):
    return get_backend(request.param)


scalar_lists = st.lists(
    st.integers(min_value=0, max_value=ORDER + 10), min_size=0, max_size=12
)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(scalars=scalar_lists, data=st.data())
def test_multi_exp_matches_naive_loop(backend, scalars, data):
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**16)))
    g = backend.generator()
    bases = [backend.exp(g, rng.randrange(0, 2**24)) for _ in scalars]
    expected = PairingBackend.multi_exp(backend, bases, scalars)
    assert backend.eq(backend.multi_exp(bases, scalars), expected)


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(scalars=scalar_lists)
def test_fixed_base_tables_match_naive_loop(backend, scalars):
    rng = random.Random(len(scalars))
    g = backend.generator()
    bases = [backend.exp(g, rng.randrange(0, 2**24)) for _ in scalars]
    tables = [backend.fixed_base_table(b) for b in bases]
    expected = PairingBackend.multi_exp(backend, bases, scalars)
    assert backend.eq(backend.multi_exp_tables(tables, scalars), expected)


def test_multi_exp_with_identity_base(backend):
    g = backend.generator()
    bases = [backend.identity(), g, backend.identity()]
    scalars = [5, 3, 0]
    expected = backend.exp(g, 3)
    assert backend.eq(backend.multi_exp(bases, scalars), expected)
    tables = [backend.fixed_base_table(b) for b in bases]
    assert backend.eq(backend.multi_exp_tables(tables, scalars), expected)


def test_multi_exp_empty_and_mismatch(backend):
    assert backend.eq(backend.multi_exp([], []), backend.identity())
    with pytest.raises(ValueError):
        backend.multi_exp([backend.generator()], [1, 2])
    with pytest.raises(ValueError):
        backend.multi_exp_tables(
            [backend.fixed_base_table(backend.generator())], [1, 2]
        )


def test_group_inverse(backend):
    g = backend.exp(backend.generator(), 12345)
    assert backend.eq(backend.op(g, backend.inv(g)), backend.identity())


# -- multi-pairing ---------------------------------------------------------------
def test_multi_pairing_matches_pair_product(backend):
    rng = random.Random(9)
    g = backend.generator()
    pairs = [
        (
            backend.exp(g, rng.randrange(1, 2**16)),
            backend.exp(g, rng.randrange(1, 2**16)),
        )
        for _ in range(3)
    ]
    expected = backend.gt_identity()
    for a, b in pairs:
        expected = backend.gt_op(expected, backend.pair(a, b))
    assert backend.gt_eq(backend.multi_pairing(pairs), expected)


def test_multi_pairing_empty_and_identity_pairs(backend):
    g = backend.generator()
    assert backend.gt_eq(backend.multi_pairing([]), backend.gt_identity())
    assert backend.gt_eq(
        backend.multi_pairing([(backend.identity(), g), (g, backend.identity())]),
        backend.gt_identity(),
    )


@pytest.mark.slow
def test_bn254_multi_pairing_validates_even_next_to_identity():
    # an off-curve point must raise like pair() does, even when its
    # partner in the pair is the identity (so the pairing is skipped)
    backend = get_backend("bn254")
    bad_g2 = (bn.FQ2([1, 2]), bn.FQ2([3, 4]))
    assert not bn.is_on_curve(bad_g2, bn.B2)
    bad = (bn.G1, bad_g2)
    with pytest.raises(CryptoError):
        backend.multi_pairing([(backend.identity(), bad)])
    bad_g1 = (bn.FQ(1), bn.FQ(1))
    with pytest.raises(CryptoError):
        backend.multi_pairing([((bad_g1, None), backend.generator())])


# -- BN254 Jacobian vs affine (both source groups) ----------------------------
@pytest.mark.slow
@pytest.mark.parametrize("point", [bn.G1, bn.G2], ids=["G1", "G2"])
def test_bn254_jacobian_matches_affine(point):
    rng = random.Random(6)
    for _ in range(5):
        a, b = rng.randrange(0, 2**32), rng.randrange(0, 2**32)
        p = bn_affine_mul(point, a)
        q = bn_affine_mul(point, b)
        expected = bn.add(p, q)
        assert (
            bn.from_jacobian(bn.jac_add(bn.to_jacobian(p), bn.to_jacobian(q)))
            == expected
        )
        assert bn.from_jacobian(bn.jac_add_affine(bn.to_jacobian(p), q)) == expected
        assert bn.from_jacobian(bn.jac_double(bn.to_jacobian(p))) == bn.add(p, p)


@pytest.mark.slow
@pytest.mark.parametrize("point", [bn.G1, bn.G2], ids=["G1", "G2"])
def test_bn254_multiply_matches_affine(point):
    rng = random.Random(8)
    for k in [0, 1, 2, 3, -5, bn.CURVE_ORDER, bn.CURVE_ORDER - 1,
              rng.randrange(2**60)]:
        assert bn.multiply(point, k) == bn_affine_mul(point, k)
    # cancellation through the mixed-add path
    p = bn_affine_mul(point, 77)
    assert bn.from_jacobian(bn.jac_add_affine(bn.to_jacobian(p), bn.neg(p))) is None


@pytest.mark.slow
@pytest.mark.parametrize("point", [bn.G1, bn.G2], ids=["G1", "G2"])
def test_bn254_batch_from_jacobian_matches_single(point):
    # one batch per source group: the Montgomery product lives in a
    # single coordinate field (FQ for G1, FQ2 for G2)
    rng = random.Random(2)
    points = [bn.to_jacobian(bn_affine_mul(point, rng.randrange(1, 2**24)))
              for _ in range(5)]
    points.insert(2, None)
    points = [bn.jac_double(p) for p in points]
    assert bn.batch_from_jacobian(points) == [bn.from_jacobian(p) for p in points]


# -- regression guards on the satellite fixes ---------------------------------
def test_fp2_pow_negative_is_iterative_and_correct():
    u = (12345, 678910)
    big = ORDER * 3 + 1
    forward = curve.fp2_pow(u, big)
    backward = curve.fp2_pow(u, -big)
    assert curve.fp2_mul(forward, backward) == curve.FP2_ONE


def test_validate_subgroup_caches_validated_points():
    p = curve.multiply(G, 424242)
    curve._SUBGROUP_CACHE.discard(p)
    curve.validate_subgroup(p)
    assert p in curve._SUBGROUP_CACHE
    curve.validate_subgroup(p)  # hits the cache
    with pytest.raises(CryptoError):
        curve.validate_subgroup((1, 1))
    # a cache hit never bypasses the cheap on-curve check
    assert curve.is_on_curve(p)


# -- key powers: generator_powers vs per-scalar exp ---------------------------
#: r-1, r and the comb's digit boundaries 2^{6k} / 2^{6k}-1 (27 rows of
#: width 6 cover the 160-bit order; 2^162 wraps mod r)
COMB_EDGES = [
    0,
    1,
    ORDER - 1,
    ORDER,
    *(2 ** (6 * k) for k in (1, 2, 13, 26, 27)),
    *(2 ** (6 * k) - 1 for k in (1, 2, 13, 26, 27)),
]


@pytest.mark.parametrize("impl", dispatch.available_impls())
@settings(max_examples=10, deadline=None)
@given(scalars=st.lists(st.integers(min_value=0, max_value=2**200), max_size=8))
def test_ss512_generator_powers_match_exp(impl, scalars):
    backend = get_backend("ss512")
    previous = dispatch.active_impl()
    dispatch.set_impl(impl)
    try:
        batch = COMB_EDGES + scalars
        expected = [backend.exp(backend.generator(), s) for s in batch]
        assert backend.generator_powers(batch) == expected
    finally:
        dispatch.set_impl(previous)


def test_generator_powers_default_matches_exp(backend):
    order = backend.order
    batch = [0, 1, order - 1, order, 2**6, 2**6 - 1, 2**156, 2**156 - 1]
    g = backend.generator()
    expected = [backend.encode(backend.exp(g, s)) for s in batch]
    assert [backend.encode(e) for e in backend.generator_powers(batch)] == expected
    assert backend.generator_powers([]) == []


def test_fixed_base_batch_rejects_wide_scalars():
    with pytest.raises(ValueError):
        msm.fixed_base_batch(msm.SS512_OPS, G, [1 << 160], ORDER.bit_length())
    with pytest.raises(ValueError):
        msm.fixed_base_batch(msm.SS512_OPS, G, [-1], ORDER.bit_length())
