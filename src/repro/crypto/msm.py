"""Multi-scalar multiplication (MSM) over the pairing curves.

Four algorithms, all running in Jacobian coordinates so no step pays a
modular inversion (only the final normalization back to affine does):

* :func:`pippenger` — the bucket method for one-shot inputs.  Scalars
  are cut into ``w``-bit windows; within a window every base falls into
  the bucket of its digit, and the buckets are collapsed with the
  running-sum trick.  Cost ``~t`` doublings plus ``(t/w)·(n + 2^{w+1})``
  additions for ``n`` points and ``t``-bit scalars, against ``n·1.5t``
  affine operations (each with an inversion) for the naive loop.

* :func:`fixed_base_windows` / :func:`fixed_base_msm` — precomputed
  shifted copies ``2^{wj}·B`` of a base that is reused across many
  MSMs (the accumulator key powers ``g^{s^i}``: every commit in a block
  multi-exponentiates over the same bases).  With tables in hand an MSM
  needs **no doublings at all** — ``n·t/w`` mixed additions plus one
  bucket collapse.

* :func:`jac_scalar_mul` — width-5 wNAF single-scalar multiplication,
  used by ``backend.exp`` and as Pippenger's ``n = 1`` case.

* :func:`fixed_base_batch` — many scalar multiples of *one* base (the
  generator, for the key powers ``g^{s^i}``) from a comb table
  ``d·2^{wj}·B`` built once per base: each scalar costs ``t/w`` mixed
  additions and no doublings, and the whole batch shares one inversion.

The algorithms are generic over a :class:`CurveOps` adapter so the same
code serves the ss512 curve (coordinates are plain ints, see
:data:`SS512_OPS`) and both BN254 source groups (coordinates are
``FQ``/``FQ2`` field elements, see :data:`BN254_OPS`).  Affine points
are ``(x, y)`` tuples with ``None`` as the point at infinity — exactly
the representation the curve modules use — so results are bit-for-bit
identical to the naive affine implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.crypto import bn254, curve
from repro.crypto.accel import dispatch

JacPoint = Any
AffinePoint = Any


@dataclass(frozen=True)
class CurveOps:
    """Jacobian primitive set for one short-Weierstrass group.

    Instances carry lambdas, so they cannot pickle by value; each named
    adapter registers itself in :data:`OPS_REGISTRY` and pickles as a
    reference resolved back through :func:`ops_by_name` — required for
    spawn-mode :class:`~repro.parallel.CryptoPool` workers, which receive
    the trusted setup (and anything that references an adapter) by
    pickling rather than by fork inheritance.
    """

    infinity: JacPoint
    is_infinity: Callable[[JacPoint], bool]
    to_jac: Callable[[AffinePoint], JacPoint]
    double: Callable[[JacPoint], JacPoint]
    add: Callable[[JacPoint, JacPoint], JacPoint]
    add_affine: Callable[[JacPoint, AffinePoint], JacPoint]
    neg: Callable[[JacPoint], JacPoint]
    to_affine: Callable[[JacPoint], AffinePoint]
    batch_to_affine: Callable[[list[JacPoint]], list[AffinePoint]]
    name: str = ""

    def __reduce__(self):
        if not self.name:
            raise TypeError("anonymous CurveOps instances cannot be pickled")
        return (ops_by_name, (self.name,))


#: named adapters, for pickling CurveOps by reference
OPS_REGISTRY: dict[str, "CurveOps"] = {}


def ops_by_name(name: str) -> "CurveOps":
    """Resolve a pickled :class:`CurveOps` reference."""
    try:
        return OPS_REGISTRY[name]
    except KeyError:
        raise TypeError(f"unknown CurveOps adapter {name!r}") from None


SS512_OPS = CurveOps(
    infinity=curve.JAC_INFINITY,
    is_infinity=lambda point: point[2] == 0,
    to_jac=curve.to_jacobian,
    double=curve.jac_double,
    add=curve.jac_add,
    add_affine=curve.jac_add_affine,
    neg=curve.jac_neg,
    to_affine=curve.from_jacobian,
    batch_to_affine=curve.batch_from_jacobian,
    name="ss512",
)

BN254_OPS = CurveOps(
    infinity=None,
    is_infinity=lambda point: point is None,
    to_jac=bn254.to_jacobian,
    double=bn254.jac_double,
    add=bn254.jac_add,
    add_affine=bn254.jac_add_affine,
    neg=bn254.jac_neg,
    to_affine=bn254.from_jacobian,
    batch_to_affine=bn254.batch_from_jacobian,
    name="bn254",
)

OPS_REGISTRY["ss512"] = SS512_OPS
OPS_REGISTRY["bn254"] = BN254_OPS


# -- accelerated-provider resolution ------------------------------------------
#: effective CurveOps per (provider, curve); transient (never pickled)
_ACCEL_OPS_CACHE: dict[tuple[str, str], CurveOps] = {}


def _active_ops(ops: CurveOps) -> tuple[CurveOps, dispatch.CurveKernels | None]:
    """The ops the active accel provider wants the algorithms to run on.

    The pure provider publishes no kernels, so this returns the original
    adapter untouched — selecting ``pure`` costs nothing per operation.
    An accelerated provider substitutes its kernel set (same call
    signatures, provider-domain points); the composite kernels ride
    along for the loops that can dispatch whole inner passes.
    """
    provider = dispatch.active()
    kernels = provider.kernels.get(ops.name) if ops.name else None
    if kernels is None:
        return ops, None
    key = (provider.name, ops.name)
    effective = _ACCEL_OPS_CACHE.get(key)
    if effective is None:
        effective = CurveOps(
            infinity=ops.infinity,
            is_infinity=ops.is_infinity,
            to_jac=kernels.to_jac,
            double=kernels.double,
            add=kernels.add,
            add_affine=kernels.add_affine,
            neg=kernels.neg,
            to_affine=kernels.to_affine,
            batch_to_affine=kernels.batch_to_affine,
        )
        _ACCEL_OPS_CACHE[key] = effective
    return effective, kernels


def jac_to_affine(ops: CurveOps, point: JacPoint) -> AffinePoint:
    """Normalize through the active provider, which also demotes any
    provider-domain coordinates back to the canonical Python types."""
    run_ops, _ = _active_ops(ops)
    return run_ops.to_affine(point)


# -- single-scalar multiplication (wNAF) --------------------------------------
def _wnaf_digits(scalar: int, width: int) -> list[int]:
    """Little-endian width-``w`` NAF: digits odd in ``(-2^{w-1}, 2^{w-1})``."""
    digits: list[int] = []
    window = 1 << width
    half = window >> 1
    while scalar:
        if scalar & 1:
            digit = scalar & (window - 1)
            if digit >= half:
                digit -= window
            scalar -= digit
        else:
            digit = 0
        digits.append(digit)
        scalar >>= 1
    return digits


def jac_scalar_mul(
    ops: CurveOps, point: AffinePoint, scalar: int, width: int = 5
) -> JacPoint:
    """``scalar · point`` in Jacobian coordinates (``scalar > 0``)."""
    if point is None or scalar == 0:
        return ops.infinity
    run_ops, kernels = _active_ops(ops)
    if (
        kernels is not None
        and kernels.scalar_mul is not None
        and width == 5
        and 0 < scalar
        and scalar.bit_length() <= dispatch.MAX_SCALAR_BITS
    ):
        return kernels.scalar_mul(point, scalar)
    base = run_ops.to_jac(point)
    if scalar == 1:
        return base
    twice = run_ops.double(base)
    odd = [base]  # odd[k] = (2k+1)·P
    for _ in range((1 << (width - 1)) // 2 - 1):
        odd.append(run_ops.add(odd[-1], twice))
    acc = run_ops.infinity
    for digit in reversed(_wnaf_digits(scalar, width)):
        acc = run_ops.double(acc)
        if digit > 0:
            acc = run_ops.add(acc, odd[(digit - 1) // 2])
        elif digit < 0:
            acc = run_ops.add(acc, run_ops.neg(odd[(-digit - 1) // 2]))
    return acc


# -- one-shot Pippenger --------------------------------------------------------
def _pick_window(n_points: int, max_bits: int) -> int:
    """Bucket width minimising ``(t/w)·(n + 2^{w+1})`` — roughly ``ln n``."""
    best_w, best_cost = 1, None
    for w in range(1, 17):
        n_windows = (max_bits + w - 1) // w
        cost = n_windows * (n_points + (2 << w))
        if best_cost is None or cost < best_cost:
            best_w, best_cost = w, cost
    return best_w


def _collapse_buckets(ops: CurveOps, buckets: list[JacPoint | None]) -> JacPoint:
    """``Σ d·bucket[d]`` via the descending running-sum trick."""
    running = ops.infinity
    total = ops.infinity
    for bucket in reversed(buckets[1:]):
        if bucket is not None:
            running = ops.add(running, bucket)
        if not ops.is_infinity(running):
            total = ops.add(total, running)
    return total


def pippenger(
    ops: CurveOps, bases: Sequence[AffinePoint], scalars: Sequence[int]
) -> JacPoint:
    """``Σ scalars[i] · bases[i]`` (scalars non-negative) in Jacobian form."""
    pairs = [
        (base, scalar)
        for base, scalar in zip(bases, scalars)
        if base is not None and scalar != 0
    ]
    if not pairs:
        return ops.infinity
    if len(pairs) == 1:
        return jac_scalar_mul(ops, pairs[0][0], pairs[0][1])
    max_bits = max(scalar.bit_length() for _, scalar in pairs)
    width = _pick_window(len(pairs), max_bits)
    run_ops, kernels = _active_ops(ops)
    if (
        kernels is not None
        and kernels.pippenger is not None
        and max_bits <= dispatch.MAX_SCALAR_BITS
        and all(scalar > 0 for _, scalar in pairs)
    ):
        return kernels.pippenger(pairs, width, max_bits)
    mask = (1 << width) - 1
    acc = run_ops.infinity
    for win in range(((max_bits + width - 1) // width) - 1, -1, -1):
        if not run_ops.is_infinity(acc):
            for _ in range(width):
                acc = run_ops.double(acc)
        shift = win * width
        buckets: list[JacPoint | None] = [None] * (mask + 1)
        for base, scalar in pairs:
            digit = (scalar >> shift) & mask
            if digit:
                slot = buckets[digit]
                buckets[digit] = (
                    run_ops.to_jac(base)
                    if slot is None
                    else run_ops.add_affine(slot, base)
                )
        acc = run_ops.add(acc, _collapse_buckets(run_ops, buckets))
    return acc


def msm(
    ops: CurveOps, bases: Sequence[AffinePoint], scalars: Sequence[int]
) -> AffinePoint:
    """Affine Pippenger MSM."""
    return jac_to_affine(ops, pippenger(ops, bases, scalars))


# -- fixed-base MSM with precomputed window tables ----------------------------
#: Window width for fixed-base tables.  Precompute cost is amortised over
#: every commit that reuses the base, so a wide window pays off quickly.
FIXED_BASE_WINDOW = 8


def fixed_base_windows(
    ops: CurveOps,
    base: AffinePoint,
    num_bits: int,
    width: int = FIXED_BASE_WINDOW,
) -> list[AffinePoint] | None:
    """Shifted copies ``[B, 2^w·B, 2^{2w}·B, ...]`` covering ``num_bits``."""
    if base is None:
        return None
    run_ops, _ = _active_ops(ops)
    n_windows = (num_bits + width - 1) // width
    jac = run_ops.to_jac(base)
    copies = [jac]
    for _ in range(n_windows - 1):
        for _ in range(width):
            jac = run_ops.double(jac)
        copies.append(jac)
    return run_ops.batch_to_affine(copies)


def fixed_base_msm(
    ops: CurveOps,
    tables: Sequence[list[AffinePoint] | None],
    scalars: Sequence[int],
    width: int = FIXED_BASE_WINDOW,
) -> AffinePoint:
    """``Σ scalars[i] · B_i`` from each base's precomputed window table.

    Every window of every scalar lands in one shared bucket pass, so the
    whole MSM is mixed additions only — no doublings.
    """
    if len(tables) != len(scalars):
        raise ValueError("tables and scalars must have equal length")
    run_ops, kernels = _active_ops(ops)
    if (
        kernels is not None
        and kernels.fixed_base_msm is not None
        and all(
            0 <= scalar and scalar.bit_length() <= dispatch.MAX_SCALAR_BITS
            for scalar in scalars
        )
    ):
        return run_ops.to_affine(kernels.fixed_base_msm(tables, scalars, width))
    mask = (1 << width) - 1
    buckets: list[JacPoint | None] = [None] * (mask + 1)
    for table, scalar in zip(tables, scalars, strict=True):
        if table is None or scalar == 0:
            continue
        window = 0
        while scalar:
            digit = scalar & mask
            if digit:
                shifted = table[window]
                if shifted is not None:
                    slot = buckets[digit]
                    buckets[digit] = (
                        run_ops.to_jac(shifted)
                        if slot is None
                        else run_ops.add_affine(slot, shifted)
                    )
            scalar >>= width
            window += 1
    return run_ops.to_affine(_collapse_buckets(run_ops, buckets))


# -- many multiples of one base: the fixed-base comb ---------------------------
#: Digit width of the comb: each row holds ``2^w - 1`` points.  On ss512
#: (160-bit scalars) w=6 is 27 rows and 1701 points; w=8 would save a
#: quarter of the additions per scalar for three times the table.
COMB_WIDTH = 6

#: comb tables per (adapter name, base, bits, width); transient (never
#: pickled) and in practice one entry per curve: the base is the generator
_COMB_CACHE: dict[tuple[str, AffinePoint, int, int], list[list[AffinePoint]]] = {}


def _build_comb(
    run_ops: CurveOps, base: AffinePoint, num_bits: int, width: int
) -> list[list[AffinePoint]]:
    """Rows ``[d·2^{wj}·B for d in 1..2^w-1]`` for ``j < ceil(num_bits/w)``.

    Each row is one run of mixed additions of the row's base, normalized
    together with the next row's base (``2^w`` times this one), so the
    whole table pays one inversion per row.
    """
    rows: list[list[AffinePoint]] = []
    row_base = base
    for _ in range((num_bits + width - 1) // width):
        acc = run_ops.to_jac(row_base)
        multiples = [acc]
        for _ in range((1 << width) - 1):
            acc = run_ops.add_affine(acc, row_base)
            multiples.append(acc)
        *row, row_base = run_ops.batch_to_affine(multiples)
        rows.append(row)
    return rows


def fixed_base_batch(
    ops: CurveOps,
    base: AffinePoint,
    scalars: Sequence[int],
    num_bits: int,
    width: int = COMB_WIDTH,
) -> list[AffinePoint]:
    """``[k·B for k in scalars]`` in affine form, for ``0 <= k < 2^num_bits``.

    The comb table of ``B`` is built on first use and cached for the
    process; with it each scalar is the sum of one table point per
    non-zero ``w``-bit digit, and the batch is normalized with one
    Montgomery-trick inversion.  Results are the same affine points as
    :func:`jac_scalar_mul`.
    """
    for scalar in scalars:
        if not 0 <= scalar < 1 << num_bits:
            raise ValueError(f"comb scalar outside [0, 2^{num_bits})")
    run_ops, _ = _active_ops(ops)
    key = (ops.name, base, num_bits, width)
    comb = _COMB_CACHE.get(key)
    if comb is None:
        comb = _COMB_CACHE.setdefault(key, _build_comb(run_ops, base, num_bits, width))
    mask = (1 << width) - 1
    sums = []
    for scalar in scalars:
        acc = run_ops.infinity
        row = 0
        while scalar:
            digit = scalar & mask
            if digit:
                acc = run_ops.add_affine(acc, comb[row][digit - 1])
            scalar >>= width
            row += 1
        sums.append(acc)
    return run_ops.batch_to_affine(sums)
