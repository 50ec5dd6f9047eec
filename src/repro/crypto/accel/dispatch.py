"""Runtime dispatch between the arithmetic providers.

One process-wide *active provider* decides which implementation of the
scalar seam (modexp / modinv / big-int multiply) and of the per-curve
Jacobian kernels every hot path uses:

* ``pure``  — the pure-Python fast path, always available;
* ``native`` — the C extension ``_accelmodule``
  (:mod:`repro.crypto.accel.native`), when it has been built.

Selection is explicit (:func:`set_impl`) or probed (``"auto"`` walks
:data:`PROBE_ORDER` and takes the first available provider).  The
default is ``"auto"`` — overridable with the ``REPRO_ACCEL``
environment variable — resolved lazily on first use, so merely
importing the crypto packages never fails in an environment without
the C extension.

The rest of ``repro.crypto`` reaches accelerated arithmetic **only**
through this module (enforced statically by the ``accel-dispatch``
vlint rule), which is what makes the pure-Python fallback provable:
swap the provider and every call site follows.
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.errors import CryptoError

#: probe order for ``"auto"`` — fastest available provider wins
PROBE_ORDER = ("native", "pure")

#: environment override for the initial (lazily resolved) provider
ENV_VAR = "REPRO_ACCEL"

#: composite kernels decline scalars/exponents wider than this (the
#: native limb buffers hold 512-bit values; every real scalar is far
#: smaller), falling back to the generic Python loops.
MAX_SCALAR_BITS = 512

JacPoint = Any
AffinePoint = Any
Fp2 = tuple[int, int]


@dataclass(frozen=True)
class CurveKernels:
    """Accelerated Jacobian primitive set for one named curve group.

    Field-for-field compatible with the callable part of
    :class:`repro.crypto.msm.CurveOps`, so the MSM algorithms can run
    unchanged on provider-domain points.  The optional composites
    replace whole inner loops (wNAF ladder, bucket passes) when a
    provider implements them natively; ``None`` means "use the generic
    loop over the point kernels".
    """

    to_jac: Callable[[AffinePoint], JacPoint]
    double: Callable[[JacPoint], JacPoint]
    add: Callable[[JacPoint, JacPoint], JacPoint]
    add_affine: Callable[[JacPoint, AffinePoint], JacPoint]
    neg: Callable[[JacPoint], JacPoint]
    to_affine: Callable[[JacPoint], AffinePoint]
    batch_to_affine: Callable[[list[JacPoint]], list[AffinePoint]]
    #: ``(affine_point, scalar) -> jac`` — full width-5 wNAF ladder
    scalar_mul: Callable[[AffinePoint, int], JacPoint] | None = None
    #: ``(tables, scalars, width) -> jac`` — fixed-base bucket pass
    fixed_base_msm: Callable[[Sequence[Any], Sequence[int], int], JacPoint] | None = (
        None
    )
    #: ``(pairs, width, max_bits) -> jac`` — one-shot Pippenger
    pippenger: (
        Callable[[list[tuple[AffinePoint, int]], int, int], JacPoint] | None
    ) = None


@dataclass(frozen=True)
class Provider:
    """One arithmetic implementation: scalar seam + per-curve kernels."""

    name: str
    modexp: Callable[[int, int, int], int]
    modinv: Callable[[int, int], int]
    imul: Callable[[int, int], int]
    #: per-curve kernel sets keyed by ``CurveOps.name`` ("ss512",
    #: "bn254"); an empty mapping means "run the pure ops as given"
    kernels: Mapping[str, CurveKernels] = field(default_factory=dict)
    #: ``f_{r,P}(φ(Q))`` up to an F_p factor (killed by the final
    #: exponentiation) — consumers must only use it pre-final-exp
    ss512_miller_raw: Callable[[Any, Any], Fp2] | None = None
    ss512_fp2_mul: Callable[[Fp2, Fp2], Fp2] | None = None
    ss512_fp2_square: Callable[[Fp2], Fp2] | None = None
    #: returns ``None`` to decline (oversized exponent) — caller falls
    #: back to the pure loop
    ss512_fp2_pow: Callable[[Fp2, int], Fp2 | None] | None = None
    #: version/compiler details for benchmark metadata
    meta: Mapping[str, str] = field(default_factory=dict)


_LOCK = threading.RLock()
#: probed providers by name; ``None`` records "probed, unavailable"
_PROVIDERS: dict[str, Provider | None] = {}
_ACTIVE: Provider | None = None


def _load(name: str) -> Provider | None:
    """Build (or recall) the named provider; ``None`` if unavailable."""
    if name in _PROVIDERS:
        return _PROVIDERS[name]
    provider: Provider | None
    try:
        if name == "pure":
            from repro.crypto.accel import pure as module
        elif name == "native":
            from repro.crypto.accel import native as module  # type: ignore[no-redef]
        else:
            raise CryptoError(
                f"unknown accel impl {name!r}; expected one of "
                f"'auto', {', '.join(repr(n) for n in PROBE_ORDER)}"
            )
        provider = module.build()
    except ImportError:
        provider = None
    _PROVIDERS[name] = provider
    return provider


def available_impls() -> tuple[str, ...]:
    """The providers that build in this environment, in probe order."""
    with _LOCK:
        return tuple(name for name in PROBE_ORDER if _load(name) is not None)


def set_impl(choice: str = "auto", *, fallback: bool = False) -> str:
    """Select the process-wide provider; returns the resolved name.

    ``"auto"`` probes :data:`PROBE_ORDER`.  An explicit choice that is
    not available raises :class:`~repro.errors.CryptoError` unless
    ``fallback=True``, which degrades to ``"auto"`` instead — the pool
    workers use that so a worker spawned into a leaner environment than
    its parent still comes up.
    """
    global _ACTIVE
    with _LOCK:
        provider: Provider | None = None
        if choice != "auto":
            provider = _load(choice)  # raises on unknown names
            if provider is None and not fallback:
                have = ", ".join(n for n in PROBE_ORDER if _load(n) is not None)
                raise CryptoError(
                    f"accel impl {choice!r} is not available in this "
                    f"environment (have: {have})"
                )
        if provider is None:
            for name in PROBE_ORDER:
                provider = _load(name)
                if provider is not None:
                    break
        assert provider is not None  # "pure" always builds
        _ACTIVE = provider
        return provider.name


def _curve_modules_initializing() -> bool:
    """True while ``curve`` or ``bn254`` is executing its module body.

    Both modules compute constants through the scalar seam at import
    time, and both are imported *by* the accelerated providers — so
    probing a provider mid-import would hand it a partially initialized
    module.  Seam calls made during that window run on pure arithmetic
    instead (identical results), and the real probe resolves on the
    first call after the imports complete.
    """
    for name in ("repro.crypto.curve", "repro.crypto.bn254"):
        module = sys.modules.get(name)
        spec = getattr(module, "__spec__", None)
        if module is not None and getattr(spec, "_initializing", False):
            return True
    return False


def _pure_provider() -> Provider:
    with _LOCK:
        provider = _load("pure")
    assert provider is not None  # "pure" always builds
    return provider


def active() -> Provider:
    """The active provider, resolving the lazy default on first use."""
    provider = _ACTIVE
    if provider is None:
        if _curve_modules_initializing():
            return _pure_provider()
        set_impl(os.environ.get(ENV_VAR, "auto"))
        provider = _ACTIVE
        assert provider is not None
    return provider


def active_impl() -> str:
    """Name of the active provider (``pure`` / ``native``)."""
    return active().name


# -- the scalar seam ----------------------------------------------------------
# Every ``pow(x, -1, p)`` / ``pow(a, e, m)`` chain in repro.crypto goes
# through these two functions, so swapping the provider swaps them all.
def modexp(base: int, exponent: int, modulus: int) -> int:
    """``base ** exponent % modulus`` (negative exponents invert)."""
    return active().modexp(base, exponent, modulus)


def modinv(value: int, modulus: int) -> int:
    """Modular inverse; raises ``ValueError`` when not invertible."""
    return active().modinv(value, modulus)


def imul(a: int, b: int) -> int:
    """Plain big-integer product (the Kronecker-substitution hot spot)."""
    return active().imul(a, b)
