"""Key material for the multiset accumulators.

``KeyGen(1^λ)`` samples a secret ``s ∈ Z_r``; the public key is the list
of group powers ``g^{s^i}``.  For acc1 the powers run over ``0..q``; for
acc2 over ``1..2q-2`` *excluding* ``q`` — publishing ``g^{s^q}`` would
break the q-DHE assumption the disjointness proof rests on.

The paper notes (Section 5.2.2) that hashing attributes to wide integers
makes acc2's key astronomically large, and proposes a **trusted oracle**
(a third party or SGX enclave) that holds ``s`` and answers public-key
power requests on demand.  :class:`KeyOracle` implements exactly that
remedy: it serves ``g^{s^i}`` per requested index and *refuses* to serve
the forbidden acc2 index, so code built on the oracle sees precisely the
interface an SGX-backed deployment would expose.  ``materialize`` turns
an oracle view into a plain list for deployments with a small, fixed
``q`` (the acc1 setting).

Powers are materialized in batches through
:meth:`~repro.crypto.backend.PairingBackend.generator_powers` (a comb
table on the generator, built once per process) and kept in a bounded
LRU: a commit walks its indices in chunks of :data:`PREFETCH_CHUNK`,
computing each chunk's misses together before reading them back one
:meth:`KeyOracle.power` at a time.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.cache.lru import LRUCache
from repro.crypto.accel import dispatch
from repro.crypto.backend import GroupElement, PairingBackend
from repro.errors import CryptoError, KeyCapacityError

#: Default acc2 exponent-domain size: large enough that hash-encoded
#: attributes collide with negligible probability at benchmark scales.
DEFAULT_ACC2_DOMAIN = 2**32

#: Key powers one oracle keeps (LRU).  Mining a block with four live
#: subscriptions touches about 1980 distinct powers, all but ~280 of
#: them the previous block's too, so the cache holds that working set;
#: a fresh query's ~1700 single-use powers just pass through.  An
#: evicted power is recomputed on demand, identical.
POWER_CACHE_ENTRIES = 2048

#: Indices a commit materializes per batch.  Bounds the transient
#: Jacobian batch and keeps each chunk well inside the cache, so a
#: prefetched power is still cached when the commit reads it back.
PREFETCH_CHUNK = 256


@dataclass
class SecretKey:
    """The trapdoor ``s``.  Held only by KeyGen / the trusted oracle."""

    s: int


class KeyOracle:
    """Serves ``g^{s^i}`` on demand, never revealing ``s``.

    ``forbidden`` lists indices that must never be served (acc2 uses
    ``{q}``).  The oracle is shared by miner, SP and user: it represents
    public parameters, and in tests it doubles as the boundary that the
    unforgeability experiments are run against (the adversary may query
    powers but not the trapdoor).

    Served powers live in a thread-safe LRU of
    :data:`POWER_CACHE_ENTRIES` (client and server threads may share one
    oracle).  :meth:`prefetch` computes a batch of misses in one
    :meth:`~repro.crypto.backend.PairingBackend.generator_powers` call;
    every power a caller uses is still read through :meth:`power`.
    """

    def __init__(
        self,
        backend: PairingBackend,
        secret: SecretKey,
        forbidden: frozenset[int] = frozenset(),
    ) -> None:
        self._backend = backend
        self._secret = secret
        self._forbidden = forbidden
        self._cache = LRUCache(POWER_CACHE_ENTRIES)
        # fixed-base window tables per power index (backend-opaque); built
        # lazily, then shared by every commit that touches the same power
        self._tables: dict[int, Any] = {}

    def __getstate__(self) -> dict:
        """Pickle a plain snapshot of the power cache, without tables.

        Spawn-mode :class:`~repro.parallel.CryptoPool` workers receive
        the oracle by pickling.  The cached powers travel as an
        ``(index, power)`` list, coldest first (the LRU itself holds a
        lock), and the receiving side refills a fresh LRU from it.
        Window tables are bulky precomputation that every worker
        rebuilds lazily from :meth:`power_table` — exactly what a
        process restart does.
        """
        state = self.__dict__.copy()
        state["_cache"] = self._cache.items()
        state["_tables"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        powers = state.pop("_cache")
        self.__dict__.update(state)
        self._cache = LRUCache(POWER_CACHE_ENTRIES)
        for index, element in powers:
            self._cache.put(index, element)

    @property
    def backend(self) -> PairingBackend:
        return self._backend

    def _check(self, index: int) -> None:
        if index < 0:
            raise CryptoError("negative key-power index")
        if index in self._forbidden:
            raise KeyCapacityError(
                f"power index {index} is withheld by the trusted oracle "
                "(q-DHE forbidden slot)"
            )

    def _materialize(self, indices: list[int]) -> list[GroupElement]:
        order = self._backend.order
        exponents = [dispatch.modexp(self._secret.s, i, order) for i in indices]
        elements = self._backend.generator_powers(exponents)
        for index, element in zip(indices, elements, strict=True):
            self._cache.put(index, element)
        return elements

    def power(self, index: int) -> GroupElement:
        """Return ``g^{s^index}`` (cached)."""
        self._check(index)
        element = self._cache.get(index)
        if element is None:
            element = self._materialize([index])[0]
        return element

    def prefetch(self, indices: Iterable[int]) -> None:
        """Materialize every uncached index of ``indices`` in one batch.

        Every index is checked before anything is computed, so a
        forbidden or negative index leaves the cache untouched.
        """
        wanted = list(dict.fromkeys(indices))
        for index in wanted:
            self._check(index)
        missing = [index for index in wanted if index not in self._cache]
        if missing:
            self._materialize(missing)

    def powers(self, indices: Sequence[int]) -> list[GroupElement]:
        """``[power(i) for i in indices]``, prefetched chunk by chunk."""
        out: list[GroupElement] = []
        for start in range(0, len(indices), PREFETCH_CHUNK):
            chunk = indices[start : start + PREFETCH_CHUNK]
            self.prefetch(chunk)
            out.extend(self.power(index) for index in chunk)
        return out

    def power_table(self, index: int) -> Any:
        """Fixed-base MSM table for ``g^{s^index}`` (cached).

        Table construction costs about one scalar multiplication, repaid
        after a handful of commits: mining accumulates every tree node
        and inter-block multiset of a block over the same key powers.
        """
        table = self._tables.get(index)
        if table is None:
            table = self._backend.fixed_base_table(self.power(index))
            self._tables[index] = table
        return table

    def commit_prefix(self, coefficients: Sequence[int]) -> GroupElement:
        """``Π power(i)^{coefficients[i]}`` via cached fixed-base tables.

        The acc1 commit primitive: polynomial coefficients over the
        prefix powers ``g^{s^0} .. g^{s^{deg}}``.  Powers whose tables
        are not built yet are materialized in chunked batches first.
        """
        self.powers([i for i in range(len(coefficients)) if i not in self._tables])
        tables = [self.power_table(i) for i in range(len(coefficients))]
        return self._backend.multi_exp_tables(tables, list(coefficients))

    def materialize(self, max_index: int) -> list[GroupElement]:
        """Plain power list ``[g^{s^0}, ..., g^{s^max_index}]``.

        Mirrors publishing a fixed-size public key up front; only valid
        when no forbidden index falls inside the range.
        """
        bad = [i for i in self._forbidden if i <= max_index]
        if bad:
            raise KeyCapacityError(f"cannot materialize withheld indices {bad}")
        return self.powers(range(max_index + 1))


@dataclass
class Acc1PublicKey:
    """q-SDH public key view: powers ``g^{s^0} .. g^{s^q}``.

    ``capacity`` bounds the largest multiset the accumulator can commit
    to (the polynomial degree must not exceed the highest published
    power).
    """

    oracle: KeyOracle
    capacity: int

    def power(self, index: int) -> GroupElement:
        if index > self.capacity:
            raise KeyCapacityError(
                f"acc1 power {index} exceeds public-key capacity {self.capacity}"
            )
        return self.oracle.power(index)

    def commit(self, coefficients: Sequence[int]) -> GroupElement:
        """``g^{P(s)}`` for coefficient list ``P`` (degree ≤ capacity)."""
        if len(coefficients) - 1 > self.capacity:
            raise KeyCapacityError(
                f"acc1 commit degree {len(coefficients) - 1} exceeds "
                f"public-key capacity {self.capacity}"
            )
        return self.oracle.commit_prefix(coefficients)

    @property
    def backend(self) -> PairingBackend:
        return self.oracle.backend


@dataclass
class Acc2PublicKey:
    """q-DHE public key view: powers ``g^{s^i}``, ``i ∈ [1, 2q-2] \\ {q}``.

    ``domain`` is ``q``; encoded elements must lie in ``[1, q-1]``.
    """

    oracle: KeyOracle
    domain: int

    def _check(self, index: int) -> None:
        if index == self.domain:
            raise KeyCapacityError("acc2 forbidden power g^{s^q} requested")
        if not 0 <= index <= 2 * self.domain - 2:
            raise KeyCapacityError(
                f"acc2 power {index} outside [0, 2q-2] for q={self.domain}"
            )

    def power(self, index: int) -> GroupElement:
        self._check(index)
        return self.oracle.power(index)

    def powers(self, indices: Sequence[int]) -> list[GroupElement]:
        """:meth:`KeyOracle.powers` after checking every index here."""
        for index in indices:
            self._check(index)
        return self.oracle.powers(indices)

    @property
    def backend(self) -> PairingBackend:
        return self.oracle.backend


def keygen_acc1(
    backend: PairingBackend, capacity: int, rng: random.Random | None = None
) -> tuple[SecretKey, Acc1PublicKey]:
    """Trusted setup for Construction 1 (q-SDH)."""
    rng = rng or random.Random()
    secret = SecretKey(backend.random_scalar(rng))
    oracle = KeyOracle(backend, secret)
    return secret, Acc1PublicKey(oracle=oracle, capacity=capacity)


def keygen_acc2(
    backend: PairingBackend,
    domain: int = DEFAULT_ACC2_DOMAIN,
    rng: random.Random | None = None,
) -> tuple[SecretKey, Acc2PublicKey]:
    """Trusted setup for Construction 2 (q-DHE); withholds ``g^{s^q}``."""
    rng = rng or random.Random()
    secret = SecretKey(backend.random_scalar(rng))
    oracle = KeyOracle(backend, secret, forbidden=frozenset({domain}))
    return secret, Acc2PublicKey(oracle=oracle, domain=domain)
