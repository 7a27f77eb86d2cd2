"""``repro.spatial.kernels`` — pluggable compute kernels for the hot loops.

The executor tier (:mod:`repro.serving.executors`) made *dispatch*
pluggable; this package does the same for *compute*.  One protocol
(:class:`KernelProvider`), two implementations, one factory:

========== ==========================================================
``numpy``   the original vectorized passes (always available — the
            bitwise oracle every other provider is pinned to)
``native``  a single C file compiled on demand with the system
            compiler and loaded through :mod:`ctypes` (no new
            dependency; same IEEE-754 operation order, so outputs are
            bitwise identical)
========== ==========================================================

Entry points cover the library's measured single-core hot loops:

* ``distance_matrix`` — the pairwise distance matrix (E19);
* ``quantify_exact`` — exact Eq. (2) quantification of a query chunk,
  from distances through the prefix-ordered sweep to sparse CSR rows
  (E21, E27, and the exact-bulk serving workload); the native provider
  runs it as one C pass per row;
* ``sweep_eq2`` — the Eq. (2) sweep step loop over caller-ordered
  prefixes (the oracle's inner step of ``quantify_exact``);
* ``segment_intersections`` / ``line_box_clip`` — the batched geometry
  kernels of the V_Pr build (E22);
* ``plane_locate`` — the merged-slab tree descent of the point locator
  behind ``quantify_vpr`` (E28).

Selection mirrors ``backend="auto"``: by name through
``kernel="auto"|"native"|"numpy"`` on :class:`~repro.core.index.PNNIndex`
/ ``ServiceConfig`` / ``serve-http --kernel``, with the
:data:`KERNEL_ENV` environment variable steering every ``"auto"``
resolution (the CI kernel matrix's knob).  ``"auto"`` degrades silently
to NumPy when the host cannot build the native library; an explicit
``kernel="native"`` raises :class:`KernelUnavailable` instead, so a
deliberate request never silently loses its speedup.  Because providers
are bitwise-equal, the choice is purely operational — sharded serving
composes with either (worker processes resolve their own provider).
"""

from __future__ import annotations

import logging
import os
import threading
from typing import Dict, Optional, Protocol, Tuple

import numpy as np

from .build import BuildError, compile_info, find_compiler
from .numpy_provider import NumpyProvider

__all__ = [
    "KERNELS",
    "KERNEL_ENV",
    "KernelProvider",
    "KernelUnavailable",
    "get_provider",
    "kernel_status",
    "native_available",
    "resolve_kernel",
]

#: Kernel names accepted by the engines (and ``ServiceConfig.kernel``).
KERNELS = ("auto", "native", "numpy")

#: Env knob consulted by the ``"auto"`` policy only: operators (and the
#: CI kernel matrix) can steer every auto-configured engine onto one
#: provider without touching code.  Explicit names always win.
KERNEL_ENV = "REPRO_KERNEL"

_LOG = logging.getLogger("repro.spatial.kernels")


class KernelUnavailable(RuntimeError):
    """An explicitly requested kernel provider cannot run on this host."""


class KernelProvider(Protocol):
    """The flat-array entry points every provider implements.

    All providers return bitwise-identical outputs on the lanes each
    contract specifies; row chunking stays with the calling engines.
    """

    name: str

    def distance_matrix(self, qx: np.ndarray, qy: np.ndarray,
                        px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """``(m, n)`` pairwise ``sqrt(dx*dx + dy*dy)`` distances."""

    def sweep_eq2(self, ds: np.ndarray, pp: np.ndarray, pw: np.ndarray,
                  totals: np.ndarray, n: int, tie_tol: float,
                  final: bool) -> Tuple[np.ndarray, np.ndarray]:
        """The Eq. (2) sweep over ``(r, K)`` prefix-ordered columns."""

    def quantify_exact(self, qx: np.ndarray, qy: np.ndarray,
                       sx: np.ndarray, sy: np.ndarray, parent: np.ndarray,
                       weight: np.ndarray, totals: np.ndarray, n: int,
                       tie_tol: float
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact Eq. (2) vectors of a query chunk as CSR rows
        ``(indptr, ids, probs)``: per row the parents with ``pi > 0`` in
        ascending order and their values.  Counts the chunk, its
        widening passes and its rows in the ``exact_sweep.*`` ENGINE
        counters."""

    def segment_intersections(self, ax, ay, bx, by, I, J, tol: float):
        """Batched segment-pair intersection ``(px, py, hit)``."""

    def line_box_clip(self, A, B, C, box, eps: float):
        """Batched Liang–Barsky line-box clip ``(segs, valid)``."""

    def plane_locate(self, qx, qy, xs, offs, ent_u, ent_v, vx, vy,
                     leaf_base):
        """Merged-slab tree descent ``(best, found)`` for the
        output-sensitive locator (:mod:`repro.spatial.planelocate`)."""


_lock = threading.Lock()
_numpy: Optional[NumpyProvider] = None
#: Cached native provider, or the BuildError that prevented one.
_native: object = None


def _numpy_provider() -> NumpyProvider:
    global _numpy
    with _lock:
        if _numpy is None:
            _numpy = NumpyProvider()
        return _numpy


def _native_provider():
    """The native provider instance or the cached :class:`BuildError`."""
    global _native
    with _lock:
        if _native is None:
            from .native_provider import NativeProvider

            try:
                _native = NativeProvider()
            except (BuildError, OSError) as exc:
                _native = exc if isinstance(exc, BuildError) \
                    else BuildError(f"native kernel load failed: {exc}")
        return _native


def native_available() -> bool:
    """Whether this host can build and load the native library."""
    return not isinstance(_native_provider(), BuildError)


def native_error() -> Optional[str]:
    """Why the native provider is unavailable (``None`` when it works)."""
    native = _native_provider()
    return str(native) if isinstance(native, BuildError) else None


def resolve_kernel(name: str = "auto") -> str:
    """The provider name ``"auto"`` (or an explicit name) resolves to.

    ``"auto"`` honors :data:`KERNEL_ENV`, then prefers ``native`` when
    the host can build it, else ``numpy``.  An env-forced or
    auto-selected ``native`` that fails to build degrades to ``numpy``
    (logged once); resolution itself never raises for valid names.
    """
    if name not in KERNELS:
        raise ValueError(f"unknown kernel {name!r}; "
                         f"expected one of {KERNELS}")
    if name == "auto":
        forced = os.environ.get(KERNEL_ENV, "").strip().lower()
        if forced and forced != "auto":
            if forced not in KERNELS:
                raise ValueError(
                    f"{KERNEL_ENV}={forced!r} is not one of {KERNELS}")
            name = forced
    if name in ("auto", "native"):
        if native_available():
            return "native"
        if name == "native":
            _LOG.warning("native kernel unavailable, degrading to numpy: "
                         "%s", native_error())
        return "numpy"
    return "numpy"


def get_provider(name: str = "auto") -> KernelProvider:
    """The provider for *name*, resolving the ``"auto"`` policy.

    An **explicit** ``"native"`` raises :class:`KernelUnavailable` when
    the library cannot be built (a deliberate request must not silently
    lose its speedup); ``"auto"`` — including an env-forced ``native``
    — degrades to the NumPy provider instead.
    """
    if name not in KERNELS:
        raise ValueError(f"unknown kernel {name!r}; "
                         f"expected one of {KERNELS}")
    if name == "native":
        native = _native_provider()
        if isinstance(native, BuildError):
            raise KernelUnavailable(str(native))
        return native
    if resolve_kernel(name) == "native":
        native = _native_provider()
        if not isinstance(native, BuildError):
            return native
    return _numpy_provider()


def kernel_status() -> Dict[str, object]:
    """One status document for ``/healthz`` and ``python -m repro kernels``."""
    info = compile_info()
    status: Dict[str, object] = {
        "kernels": list(KERNELS),
        "env": os.environ.get(KERNEL_ENV) or None,
        "selected": resolve_kernel("auto"),
        "native_available": native_available(),
        "native_error": native_error(),
    }
    status.update(info)
    return status


def _reset_for_tests() -> None:
    """Drop cached providers so env changes re-resolve (test hook only)."""
    global _numpy, _native
    with _lock:
        _numpy = None
        _native = None
