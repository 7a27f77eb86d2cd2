"""The native kernel provider: the compiled C loops behind ctypes.

Thin flat-array marshalling over the functions in ``_kernels.c``.  All
array arguments are coerced to C-contiguous ``float64`` / ``int64``
(views, not copies, for the already-contiguous arrays the engines pass)
and handed over as raw pointers.  Row chunking stays with the calling
engines; :meth:`NativeProvider.quantify_exact` runs the whole Eq. (2)
pipeline of a chunk (distances, prefix select and widening, sweep,
sparse rows) in one C call.

Construction compiles the library on demand (:mod:`.build`) and raises
:class:`~repro.spatial.kernels.build.BuildError` when the host cannot —
the selection layer in ``__init__.py`` turns that into a silent NumPy
fallback on the ``"auto"`` path and a loud error for an explicit
``kernel="native"`` request.
"""

from __future__ import annotations

import ctypes
from typing import Tuple

import numpy as np

from ...obs.metrics import ENGINE, KERNEL
from .build import build_library
from .numpy_provider import first_width

__all__ = ["NativeProvider"]

_F64 = ctypes.POINTER(ctypes.c_double)
_I64 = ctypes.POINTER(ctypes.c_int64)
_U8 = ctypes.POINTER(ctypes.c_uint8)


def _f64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def _i64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _pf(a: np.ndarray):
    return a.ctypes.data_as(_F64)


def _pi(a: np.ndarray):
    return a.ctypes.data_as(_I64)


def _pu(a: np.ndarray):
    return a.ctypes.data_as(_U8)


class NativeProvider:
    """Kernel entry points executed by the compiled library."""

    name = "native"

    def __init__(self) -> None:
        self.library_path = build_library()
        lib = ctypes.CDLL(self.library_path)
        lib.repro_distance_matrix.restype = None
        lib.repro_distance_matrix.argtypes = [
            _F64, _F64, ctypes.c_int64, _F64, _F64, ctypes.c_int64, _F64]
        lib.repro_sweep_eq2.restype = ctypes.c_int
        lib.repro_sweep_eq2.argtypes = [
            _F64, _I64, _F64, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_int64, _I64, ctypes.c_double, ctypes.c_int, _F64, _U8]
        lib.repro_quantify_exact.restype = ctypes.c_int
        lib.repro_quantify_exact.argtypes = [
            _F64, _F64, ctypes.c_int64, _F64, _F64, _I64, _F64,
            ctypes.c_int64, _I64, ctypes.c_int64, ctypes.c_double,
            ctypes.c_int64, _I64, _I64, _F64, _I64]
        lib.repro_segment_intersections.restype = None
        lib.repro_segment_intersections.argtypes = [
            _F64, _F64, _F64, _F64, _I64, _I64, ctypes.c_int64,
            ctypes.c_double, _F64, _F64, _U8]
        lib.repro_line_box_clip.restype = ctypes.c_int
        lib.repro_line_box_clip.argtypes = [
            _F64, _F64, _F64, ctypes.c_int64, ctypes.c_double,
            ctypes.c_double, ctypes.c_double, ctypes.c_double,
            ctypes.c_double, _F64, _U8]
        lib.repro_plane_locate.restype = None
        lib.repro_plane_locate.argtypes = [
            _F64, _F64, ctypes.c_int64, _F64, ctypes.c_int64, _I64,
            ctypes.c_int64, _I64, _I64, _F64, _F64, _I64, _U8]
        self._lib = lib

    def _count(self, op: str) -> None:
        KERNEL.inc(f"{self.name}:{op}")

    # ------------------------------------------------------------------
    def distance_matrix(self, qx, qy, px, py) -> np.ndarray:
        self._count("distance_matrix")
        qx = _f64(qx)
        qy = _f64(qy)
        px = _f64(px)
        py = _f64(py)
        m, n = len(qx), len(px)
        out = np.empty((m, n), dtype=np.float64)
        if m and n:
            self._lib.repro_distance_matrix(
                _pf(qx), _pf(qy), m, _pf(px), _pf(py), n, _pf(out))
        return out

    # ------------------------------------------------------------------
    def sweep_eq2(self, ds, pp, pw, totals, n: int, tie_tol: float,
                  final: bool) -> Tuple[np.ndarray, np.ndarray]:
        self._count("sweep_eq2")
        ds = _f64(ds)
        pp = _i64(pp)
        pw = _f64(pw)
        totals = _i64(totals)
        r, width = ds.shape
        result = np.zeros((r, n), dtype=np.float64)
        done = np.zeros(r, dtype=bool)
        if r and width:
            rc = self._lib.repro_sweep_eq2(
                _pf(ds), _pi(pp), _pf(pw), r, width, n, _pi(totals),
                float(tie_tol), 1 if final else 0, _pf(result), _pu(done))
            if rc != 0:
                raise MemoryError("native sweep scratch allocation failed")
        elif final:
            done[:] = True
        return result, done

    # ------------------------------------------------------------------
    def quantify_exact(self, qx, qy, sx, sy, parent, weight, totals,
                       n: int, tie_tol: float
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        self._count("quantify_exact")
        qx = _f64(qx)
        qy = _f64(qy)
        sx = _f64(sx)
        sy = _f64(sy)
        parent = _i64(parent)
        weight = _f64(weight)
        totals = _i64(totals)
        m = len(qx)
        if len(qy) != m or not (len(sx) == len(sy) == len(parent)
                                == len(weight)) or len(totals) != n:
            raise ValueError("quantify_exact: mismatched array lengths")
        indptr = np.zeros(m + 1, dtype=np.int64)
        # A row holds at most n non-zeros: m * n bounds the chunk.
        ids = np.empty(m * n, dtype=np.int64)
        probs = np.empty(m * n, dtype=np.float64)
        stats = np.zeros(2, dtype=np.int64)
        ENGINE.inc("exact_sweep.chunks")
        if m:
            rc = self._lib.repro_quantify_exact(
                _pf(qx), _pf(qy), m, _pf(sx), _pf(sy), _pi(parent),
                _pf(weight), len(sx), _pi(totals), n, float(tie_tol),
                first_width(len(sx)), _pi(indptr), _pi(ids), _pf(probs),
                _pi(stats))
            if rc != 0:
                raise MemoryError("native quantify scratch allocation "
                                  "failed")
            if stats[0]:
                ENGINE.inc("exact_sweep.prefix_widenings", int(stats[0]))
            ENGINE.inc("exact_sweep.rows_retired", int(stats[1]))
        nnz = int(indptr[-1])
        return indptr, ids[:nnz], probs[:nnz]

    # ------------------------------------------------------------------
    def segment_intersections(self, ax, ay, bx, by, I, J, tol: float):
        self._count("segment_intersections")
        ax = _f64(ax)
        ay = _f64(ay)
        bx = _f64(bx)
        by = _f64(by)
        I = _i64(I)
        J = _i64(J)
        p = len(I)
        px = np.empty(p, dtype=np.float64)
        py = np.empty(p, dtype=np.float64)
        hit = np.zeros(p, dtype=bool)
        if p:
            self._lib.repro_segment_intersections(
                _pf(ax), _pf(ay), _pf(bx), _pf(by), _pi(I), _pi(J), p,
                float(tol), _pf(px), _pf(py), _pu(hit))
        return px, py, hit

    # ------------------------------------------------------------------
    def line_box_clip(self, A, B, C, box, eps: float):
        self._count("line_box_clip")
        A = _f64(A)
        B = _f64(B)
        C = _f64(C)
        (xmin, ymin), (xmax, ymax) = box
        k = len(A)
        segs = np.empty((k, 4), dtype=np.float64)
        valid = np.zeros(k, dtype=bool)
        if k:
            rc = self._lib.repro_line_box_clip(
                _pf(A), _pf(B), _pf(C), k, float(xmin), float(ymin),
                float(xmax), float(ymax), float(eps), _pf(segs), _pu(valid))
            if rc != 0:
                raise ValueError("degenerate line coefficients")
        return segs, valid

    # ------------------------------------------------------------------
    def plane_locate(self, qx, qy, xs, offs, ent_u, ent_v, vx, vy,
                     leaf_base):
        self._count("plane_locate")
        qx = _f64(qx)
        qy = _f64(qy)
        xs = _f64(xs)
        offs = _i64(offs)
        ent_u = _i64(ent_u)
        ent_v = _i64(ent_v)
        vx = _f64(vx)
        vy = _f64(vy)
        m = len(qx)
        best = np.zeros(m, dtype=np.int64)
        found = np.zeros(m, dtype=bool)
        if m and len(xs) >= 2 and len(ent_u):
            # Mirror the NumPy pass accounting: per tree level, the
            # vectorized search runs bit_length(widest node) passes
            # until its widest lane converges — sum that over levels.
            widths = offs[1:] - offs[:-1]
            passes = 0
            j = 1
            while j <= leaf_base:
                w = int(widths[j:2 * j].max(initial=0))
                passes += w.bit_length()
                j <<= 1
            ENGINE.inc("planelocate.bisection_passes", max(passes, 1))
            self._lib.repro_plane_locate(
                _pf(qx), _pf(qy), m, _pf(xs), len(xs), _pi(offs),
                int(leaf_base), _pi(ent_u), _pi(ent_v), _pf(vx), _pf(vy),
                _pi(best), _pu(found))
        return best, found
