"""The pure-Python provider — the reference every other provider must match.

This provider publishes **no** curve kernels: an empty kernel mapping
tells :func:`repro.crypto.msm._active_ops` to run the original
:class:`~repro.crypto.msm.CurveOps` adapters untouched, so selecting
``pure`` adds zero per-operation indirection.  The scalar seam maps
straight onto the CPython built-ins (whose ``pow(x, -1, p)`` extended
gcd is already C-speed).
"""

from __future__ import annotations

from repro.crypto.accel.dispatch import Provider


def _modexp(base: int, exponent: int, modulus: int) -> int:
    return pow(base, exponent, modulus)


def _modinv(value: int, modulus: int) -> int:
    return pow(value, -1, modulus)


def _imul(a: int, b: int) -> int:
    return a * b


def build() -> Provider:
    return Provider(
        name="pure",
        modexp=_modexp,
        modinv=_modinv,
        imul=_imul,
    )
