"""Accelerated field/curve arithmetic behind a runtime-probed seam.

Two interchangeable providers implement the same arithmetic surface
(scalar modexp/modinv, Jacobian point kernels, MSM inner loops, the
ss512 Miller loop):

* ``pure``  — the pure-Python fast path (always available);
* ``native`` — the optional ``_accelmodule`` C extension with
  Montgomery-form fixed-width arithmetic (``python setup.py
  build_ext --inplace``, or ``pip install .`` from source).

Select one per process with :func:`set_impl` (or the ``accel=``
argument of :func:`repro.crypto.get_backend`, or the ``REPRO_ACCEL``
environment variable); ``"auto"`` probes ``native → pure``.  The
native provider is byte-parity gated against pure Python — same block
encodings, same VO bytes — by ``tests/test_accel.py`` and the in-run
check in ``benchmarks/bench_crypto.py``.
"""

from repro.crypto.accel.dispatch import (
    PROBE_ORDER,
    CurveKernels,
    Provider,
    active,
    active_impl,
    available_impls,
    set_impl,
)

__all__ = [
    "PROBE_ORDER",
    "CurveKernels",
    "Provider",
    "active",
    "active_impl",
    "available_impls",
    "set_impl",
]
