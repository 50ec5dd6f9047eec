"""Pairing-group backend abstraction.

The accumulators are written against an abstract symmetric pairing group
so that the same algorithm code runs on two substrates:

* :class:`SupersingularBackend` — the real Tate pairing from
  :mod:`repro.crypto.pairing` (cryptographically meaningful; slower);
* :class:`SimulatedBackend` (in :mod:`repro.crypto.simulated`) — exponent
  arithmetic mod ``r`` with identical algebra, used for large benchmark
  sweeps where the paper used the MCL C++ library.

Group elements are opaque to callers; use the backend methods.  The real
backend represents G elements as affine points and GT elements as F_p²
values.  ``encode``/``gt_encode`` give canonical bytes for hashing into
block headers, and ``element_nbytes``/``gt_nbytes`` drive VO-size
accounting (both backends report the *real* group widths so simulated
benchmark VO sizes match what a production deployment would transmit).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any

from repro.crypto import curve, msm, pairing
from repro.crypto.accel import dispatch
from repro.crypto.curve import FP2_ONE, fp2_inv, fp2_mul, fp2_pow
from repro.crypto.field import PrimeField
from repro.crypto.pairing import tate_pairing

GroupElement = Any
GTElement = Any

#: Serialized width of a G element: two 64-byte coordinates + 1 tag byte.
_G_NBYTES = 129
#: Serialized width of a GT (F_p²) element: two 64-byte coefficients.
_GT_NBYTES = 128


class PairingBackend(ABC):
    """A symmetric bilinear group ``e: G × G → GT`` of prime order ``r``."""

    #: human-readable backend identifier ("ss512" / "simulated")
    name: str
    #: prime group order r
    order: int
    #: scalar field Z_r
    scalar_field: PrimeField

    # -- G operations ---------------------------------------------------
    @abstractmethod
    def generator(self) -> GroupElement:
        """The fixed generator ``g`` of G."""

    @abstractmethod
    def identity(self) -> GroupElement:
        """The neutral element of G."""

    @abstractmethod
    def op(self, a: GroupElement, b: GroupElement) -> GroupElement:
        """The group operation (written multiplicatively in the paper)."""

    @abstractmethod
    def exp(self, base: GroupElement, scalar: int) -> GroupElement:
        """``base^scalar`` (scalar multiplication)."""

    @abstractmethod
    def eq(self, a: GroupElement, b: GroupElement) -> bool:
        """Constant-structure equality of G elements."""

    @abstractmethod
    def encode(self, a: GroupElement) -> bytes:
        """Canonical byte encoding (for hashing / VO size accounting)."""

    @abstractmethod
    def decode(self, data: bytes) -> GroupElement:
        """Parse a G element; raises CryptoError on malformed input.

        Security-relevant: the real backend validates curve membership
        and subgroup order, so a malicious SP cannot smuggle invalid
        points through a deserialized VO.
        """

    # -- GT operations -----------------------------------------------------
    @abstractmethod
    def pair(self, a: GroupElement, b: GroupElement) -> GTElement:
        """The bilinear map ``e(a, b)``."""

    @abstractmethod
    def gt_identity(self) -> GTElement:
        ...

    @abstractmethod
    def gt_op(self, a: GTElement, b: GTElement) -> GTElement:
        ...

    @abstractmethod
    def gt_exp(self, base: GTElement, scalar: int) -> GTElement:
        ...

    @abstractmethod
    def gt_inv(self, a: GTElement) -> GTElement:
        ...

    @abstractmethod
    def gt_eq(self, a: GTElement, b: GTElement) -> bool:
        ...

    @abstractmethod
    def gt_encode(self, a: GTElement) -> bytes:
        ...

    # -- helpers shared by all backends ------------------------------------
    @property
    def element_nbytes(self) -> int:
        """Transmitted size of one G element (real-group width)."""
        return _G_NBYTES

    @property
    def gt_nbytes(self) -> int:
        """Transmitted size of one GT element (real-group width)."""
        return _GT_NBYTES

    def inv(self, a: GroupElement) -> GroupElement:
        """The group inverse ``a^{-1}``.

        Default exponentiates by ``r - 1``; real backends override with
        the cheap point negation.  Needed to fold both sides of a
        pairing equation into one :meth:`multi_pairing` product.
        """
        return self.exp(a, self.order - 1)

    def multi_exp(self, bases: list[GroupElement], scalars: list[int]) -> GroupElement:
        """``Π bases[i]^scalars[i]`` — the workhorse of Setup().

        The default is a straightforward loop; the real backends
        override it with Pippenger's bucket method (:mod:`.msm`), which
        is what makes commit-heavy mining and proving tractable.
        """
        acc = self.identity()
        for base, scalar in zip(bases, scalars, strict=True):
            if scalar % self.order == 0:
                continue
            acc = self.op(acc, self.exp(base, scalar))
        return acc

    def fixed_base_table(self, base: GroupElement) -> Any:
        """Opaque precomputation for a base reused across many MSMs.

        The accumulator key powers ``g^{s^i}`` are multi-exponentiated
        by every commit in a block; real backends return precomputed
        window tables (:func:`repro.crypto.msm.fixed_base_windows`) that
        :meth:`multi_exp_tables` consumes.  The default returns the base
        unchanged so table-aware callers work on any backend.
        """
        return base

    def multi_exp_tables(self, tables: list[Any], scalars: list[int]) -> GroupElement:
        """:meth:`multi_exp` over :meth:`fixed_base_table` outputs."""
        return self.multi_exp(list(tables), list(scalars))

    def multi_pairing(
        self, pairs: list[tuple[GroupElement, GroupElement]]
    ) -> GTElement:
        """``Π e(a_i, b_i)`` — a pairing product.

        Every accumulator verification equation has this shape.  The
        default multiplies individual pairings; real backends override
        it to accumulate Miller-loop values and share a single final
        exponentiation across the whole product.
        """
        acc = self.gt_identity()
        for a, b in pairs:
            acc = self.gt_op(acc, self.pair(a, b))
        return acc

    def random_scalar(self, rng: random.Random) -> int:
        """Uniform non-zero scalar in Z_r (for key generation)."""
        return rng.randrange(1, self.order)

    @property
    def accel_impl(self) -> str:
        """Name of the arithmetic provider serving this backend.

        Real backends run on the process-wide active provider
        (``pure`` / ``native``); the simulated backend
        overrides this with ``"simulated"`` since it never touches
        group arithmetic.
        """
        return dispatch.active_impl()


class SupersingularBackend(PairingBackend):
    """The real pairing group (see :mod:`repro.crypto.curve`)."""

    name = "ss512"

    def __init__(self) -> None:
        self.order = curve.SUBGROUP_ORDER
        self.scalar_field = curve.Fr
        self._generator = curve.GENERATOR

    def generator(self) -> curve.Point:
        return self._generator

    def identity(self) -> curve.Point:
        return None

    def op(self, a: curve.Point, b: curve.Point) -> curve.Point:
        return curve.add(a, b)

    def exp(self, base: curve.Point, scalar: int) -> curve.Point:
        return curve.multiply(base, scalar % self.order)

    def inv(self, a: curve.Point) -> curve.Point:
        return curve.neg(a)

    def multi_exp(self, bases: list[curve.Point], scalars: list[int]) -> curve.Point:
        if len(bases) != len(scalars):
            raise ValueError("multi_exp: bases and scalars differ in length")
        return msm.msm(msm.SS512_OPS, bases, [s % self.order for s in scalars])

    def fixed_base_table(self, base: curve.Point) -> list[curve.Point] | None:
        return msm.fixed_base_windows(msm.SS512_OPS, base, self.order.bit_length())

    def multi_exp_tables(
        self, tables: list[list[curve.Point] | None], scalars: list[int]
    ) -> curve.Point:
        if len(tables) != len(scalars):
            raise ValueError("multi_exp_tables: tables and scalars differ in length")
        return msm.fixed_base_msm(
            msm.SS512_OPS, tables, [s % self.order for s in scalars]
        )

    def multi_pairing(
        self, pairs: list[tuple[curve.Point, curve.Point]]
    ) -> curve.Fp2Element:
        return pairing.multi_pairing(pairs)

    def eq(self, a: curve.Point, b: curve.Point) -> bool:
        return a == b

    def encode(self, a: curve.Point) -> bytes:
        if a is None:
            return b"\x00" * _G_NBYTES
        x, y = a
        return b"\x04" + x.to_bytes(64, "big") + y.to_bytes(64, "big")

    def decode(self, data: bytes) -> curve.Point:
        from repro.errors import CryptoError

        if len(data) != _G_NBYTES:
            raise CryptoError("G element encoding has wrong length")
        if data[0] == 0:
            if any(data):
                raise CryptoError("malformed identity encoding")
            return None
        if data[0] != 4:
            raise CryptoError("unknown G element encoding tag")
        point = (
            int.from_bytes(data[1:65], "big"),
            int.from_bytes(data[65:129], "big"),
        )
        curve.validate_subgroup(point)
        return point

    def pair(self, a: curve.Point, b: curve.Point) -> curve.Fp2Element:
        return tate_pairing(a, b)

    def gt_identity(self) -> curve.Fp2Element:
        return FP2_ONE

    def gt_op(self, a: curve.Fp2Element, b: curve.Fp2Element) -> curve.Fp2Element:
        return fp2_mul(a, b)

    def gt_exp(self, base: curve.Fp2Element, scalar: int) -> curve.Fp2Element:
        return fp2_pow(base, scalar % self.order)

    def gt_inv(self, a: curve.Fp2Element) -> curve.Fp2Element:
        return fp2_inv(a)

    def gt_eq(self, a: curve.Fp2Element, b: curve.Fp2Element) -> bool:
        return a == b

    def gt_encode(self, a: curve.Fp2Element) -> bytes:
        return a[0].to_bytes(64, "big") + a[1].to_bytes(64, "big")


def get_backend(name: str = "ss512", accel: str | None = None) -> PairingBackend:
    """Backend factory: ``"ss512"``, ``"bn254"`` (both real) or
    ``"simulated"`` (fast exponent arithmetic for benchmarks).

    ``accel`` selects the process-wide arithmetic provider before the
    backend is constructed: ``"auto"`` probes for the fastest available
    implementation, ``"pure"`` / ``"native"`` pin one
    explicitly (raising :class:`~repro.errors.CryptoError` when it is
    not installed).  ``None`` leaves the current selection untouched.
    The provider is global — it accelerates every backend instance —
    and never changes any byte the backend produces.
    """
    if accel is not None:
        dispatch.set_impl(accel)
    if name == "ss512":
        return SupersingularBackend()
    if name == "bn254":
        # local imports avoid cycles at module load
        from repro.crypto.bn_backend import BN254Backend

        return BN254Backend()
    if name == "simulated":
        from repro.crypto.simulated import SimulatedBackend

        return SimulatedBackend()
    raise ValueError(f"unknown pairing backend: {name!r}")
