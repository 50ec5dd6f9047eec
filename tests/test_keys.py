"""Tests for key generation and the trusted key oracle."""

import pickle
import random
import sys
import threading

import pytest

from repro.accumulators.keys import (
    POWER_CACHE_ENTRIES,
    PREFETCH_CHUNK,
    KeyOracle,
    SecretKey,
    keygen_acc1,
    keygen_acc2,
)
from repro.cache.lru import LRUCache
from repro.crypto import get_backend
from repro.errors import CryptoError, KeyCapacityError

BACKEND = get_backend("simulated")


def test_oracle_power_zero_is_generator():
    oracle = KeyOracle(BACKEND, SecretKey(s=7))
    assert BACKEND.eq(oracle.power(0), BACKEND.generator())


def test_oracle_powers_follow_s():
    s = 12345
    oracle = KeyOracle(BACKEND, SecretKey(s=s))
    g = BACKEND.generator()
    for i in range(5):
        assert BACKEND.eq(oracle.power(i), BACKEND.exp(g, pow(s, i, BACKEND.order)))


def test_oracle_rejects_negative_index():
    oracle = KeyOracle(BACKEND, SecretKey(s=7))
    with pytest.raises(CryptoError):
        oracle.power(-1)


def test_oracle_withholds_forbidden_index():
    oracle = KeyOracle(BACKEND, SecretKey(s=7), forbidden=frozenset({3}))
    oracle.power(2)
    oracle.power(4)
    with pytest.raises(KeyCapacityError):
        oracle.power(3)


def test_materialize_returns_prefix():
    oracle = KeyOracle(BACKEND, SecretKey(s=9))
    powers = oracle.materialize(4)
    assert len(powers) == 5
    assert BACKEND.eq(powers[0], BACKEND.generator())


def test_materialize_refuses_forbidden_range():
    oracle = KeyOracle(BACKEND, SecretKey(s=9), forbidden=frozenset({2}))
    with pytest.raises(KeyCapacityError):
        oracle.materialize(4)


def test_acc1_capacity_enforced():
    _sk, pk = keygen_acc1(BACKEND, capacity=3, rng=random.Random(1))
    pk.power(3)
    with pytest.raises(KeyCapacityError):
        pk.power(4)


def test_acc2_forbidden_and_range():
    _sk, pk = keygen_acc2(BACKEND, domain=16, rng=random.Random(2))
    pk.power(15)
    pk.power(17)
    pk.power(2 * 16 - 2)
    with pytest.raises(KeyCapacityError):
        pk.power(16)  # g^{s^q}
    with pytest.raises(KeyCapacityError):
        pk.power(2 * 16 - 1)  # beyond 2q-2
    with pytest.raises(KeyCapacityError):
        pk.power(-1)


def test_keygen_secret_in_scalar_field():
    sk, _pk = keygen_acc1(BACKEND, capacity=4, rng=random.Random(3))
    assert 1 <= sk.s < BACKEND.order


def test_keygen_deterministic_with_seed():
    sk_a, _ = keygen_acc2(BACKEND, rng=random.Random(7))
    sk_b, _ = keygen_acc2(BACKEND, rng=random.Random(7))
    assert sk_a.s == sk_b.s


# -- batched materialization and the bounded cache -----------------------------
@pytest.fixture()
def batches(monkeypatch):
    """Records the scalar batches handed to ``generator_powers``."""
    seen: list[list[int]] = []
    real = type(BACKEND).generator_powers

    def recording(self, scalars):
        seen.append(list(scalars))
        return real(self, scalars)

    monkeypatch.setattr(type(BACKEND), "generator_powers", recording)
    return seen


def test_prefetch_computes_misses_in_one_batch(batches):
    oracle = KeyOracle(BACKEND, SecretKey(s=5))
    oracle.power(3)
    batches.clear()
    oracle.prefetch([1, 2, 3, 2, 4])
    assert [len(batch) for batch in batches] == [3]  # 3 was cached, 2 repeated
    oracle.prefetch([1, 4])
    assert len(batches) == 1  # nothing missing, nothing computed
    g = BACKEND.generator()
    for i in (1, 2, 4):
        assert BACKEND.eq(oracle.power(i), BACKEND.exp(g, pow(5, i, BACKEND.order)))


def test_powers_serve_every_index_through_power(batches, monkeypatch):
    oracle = KeyOracle(BACKEND, SecretKey(s=5))
    served: list[int] = []
    real = KeyOracle.power

    def counting(self, index):
        served.append(index)
        return real(self, index)

    monkeypatch.setattr(KeyOracle, "power", counting)
    indices = list(range(1, 2 * PREFETCH_CHUNK + 90))
    powers = oracle.powers(indices)
    assert served == indices
    assert [len(batch) for batch in batches] == [PREFETCH_CHUNK, PREFETCH_CHUNK, 89]
    g = BACKEND.generator()
    assert BACKEND.eq(powers[-1], BACKEND.exp(g, pow(5, indices[-1], BACKEND.order)))


@pytest.mark.parametrize(
    "bad", [[1, 16], [2, -1], [3, 2 * 16 - 1]], ids=["q", "negative", "above-2q-2"]
)
def test_powers_refuse_before_computing(batches, bad):
    _sk, pk = keygen_acc2(BACKEND, domain=16, rng=random.Random(2))
    pk.power(5)
    before = pk.oracle._cache.keys()
    batches.clear()
    with pytest.raises(KeyCapacityError):
        pk.powers(bad)
    assert batches == []
    assert pk.oracle._cache.keys() == before


def test_oracle_prefetch_refuses_forbidden_and_negative(batches):
    oracle = KeyOracle(BACKEND, SecretKey(s=7), forbidden=frozenset({3}))
    with pytest.raises(KeyCapacityError):
        oracle.prefetch([1, 2, 3])
    with pytest.raises(CryptoError):
        oracle.prefetch([1, -1])
    assert batches == []
    assert len(oracle._cache) == 0


def test_cache_is_bounded_and_recomputes_evicted_powers():
    oracle = KeyOracle(BACKEND, SecretKey(s=11))
    first = oracle.power(1)
    oracle.powers(range(2, 10 * POWER_CACHE_ENTRIES + 2))
    assert len(oracle._cache) <= POWER_CACHE_ENTRIES
    assert 1 not in oracle._cache
    assert BACKEND.eq(oracle.power(1), first)


def test_shared_oracle_under_thread_contention():
    """Client and server threads share one oracle: concurrent batches
    over overlapping, cache-overflowing index sets all get the right
    powers, and the bound holds."""
    oracle = KeyOracle(BACKEND, SecretKey(s=17))
    g = BACKEND.generator()
    span = POWER_CACHE_ENTRIES + PREFETCH_CHUNK
    errors: list[BaseException] = []

    def worker(offset: int) -> None:
        try:
            indices = list(range(offset, offset + span, 3))
            for index, element in zip(indices, oracle.powers(indices), strict=True):
                expected = BACKEND.exp(g, pow(17, index, BACKEND.order))
                assert BACKEND.eq(element, expected), index
        except BaseException as exc:  # surface across the thread boundary
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k * 97,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(oracle._cache) <= POWER_CACHE_ENTRIES


def test_oracle_pickles_a_plain_snapshot():
    oracle = KeyOracle(BACKEND, SecretKey(s=13), forbidden=frozenset({9}))
    oracle.powers([4, 1, 7])
    clone = pickle.loads(pickle.dumps(oracle))
    assert isinstance(clone._cache, LRUCache)
    assert clone._cache.max_entries == POWER_CACHE_ENTRIES
    assert clone._cache.keys() == oracle._cache.keys()
    for i in (1, 4, 7, 8):
        assert BACKEND.eq(clone.power(i), oracle.power(i))
    with pytest.raises(KeyCapacityError):
        clone.power(9)


@pytest.mark.slow
def test_ss512_oracle_powers_match_exp():
    backend = get_backend("ss512")
    secret, pk = keygen_acc2(backend, rng=random.Random(3))
    indices = [1, 2, 2**32 - 1, 2**32 + 1, 2**33 - 2]
    g = backend.generator()
    expected = [backend.exp(g, pow(secret.s, i, backend.order)) for i in indices]
    assert pk.powers(indices) == expected
    assert [pk.power(i) for i in indices] == expected
