"""Reference implementations the production paths are tested against.

These are test oracles, not runtime options: nothing the library or the
serving stack runs imports this module (a test asserts it).  Each oracle
is the original, straightforward version of a structure the library now
builds one faster way, and each answers **bitwise identically** to its
production counterpart:

* :class:`ScalarSegmentArrangement` — the pure-Python pair loop and
  sequential vertex registry behind
  :class:`~repro.geometry.seg_arrangement.SegmentArrangement`;
* :class:`ScalarProbabilisticVoronoiDiagram` — pure-Python bisector
  generation and per-face Eq. (2) sweeps behind
  :class:`~repro.voronoi.vpr.ProbabilisticVoronoiDiagram`;
* :class:`SlabPointLocator` — the ``Theta(V * S)`` slab table the
  merged-slab :class:`~repro.spatial.planelocate.PersistentPlaneLocator`
  replaces;
* :func:`interior_point` — the scalar convex-corner method behind
  :meth:`SegmentArrangement.face_interior_array
  <repro.geometry.seg_arrangement.SegmentArrangement.face_interior_array>`.

The two build oracles subclass the production classes and override only
their private build steps, so face extraction, queries and everything
else downstream of the build is shared code.  The parity suites under
``tests/`` and benchmarks E22, E27 and E28 use them.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from .geometry.primitives import Point, dist
from .geometry.seg_arrangement import SegmentArrangement
from .geometry.segments import bisector_line, line_box_clip, \
    segment_intersection
from .quantification.exact_discrete import quantification_vector
from .spatial.planelocate import _edge_slab_spans
from .voronoi.vpr import ProbabilisticVoronoiDiagram

__all__ = ["ScalarProbabilisticVoronoiDiagram", "ScalarSegmentArrangement",
           "SlabPointLocator", "interior_point"]


# ----------------------------------------------------------------------
# Segment arrangement: the pure-Python pair loop.
# ----------------------------------------------------------------------

class _VertexRegistry:
    """Hash-grid vertex deduplication at a fixed tolerance (scalar probe)."""

    def __init__(self, tol: float) -> None:
        self.tol = tol
        self._grid: Dict[Tuple[int, int], List[int]] = {}
        self.coords: List[Point] = []

    def insert(self, p: Point) -> int:
        inv = 1.0 / self.tol
        cx = math.floor(p[0] * inv)
        cy = math.floor(p[1] * inv)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for vid in self._grid.get((cx + dx, cy + dy), ()):
                    if dist(p, self.coords[vid]) <= self.tol:
                        return vid
        vid = len(self.coords)
        self.coords.append(p)
        self._grid.setdefault((cx, cy), []).append(vid)
        return vid


class ScalarSegmentArrangement(SegmentArrangement):
    """:class:`SegmentArrangement` whose vertices and edges come from the
    original pure-Python loop (segments as ``((x1, y1), (x2, y2))``
    pairs)."""

    def _build_graph(self, segments) -> None:
        registry = _VertexRegistry(self.tol)
        segments = [(a, b) for a, b in segments if dist(a, b) > self.tol]
        cuts: List[List[Point]] = [[a, b] for a, b in segments]
        for i in range(len(segments)):
            a, b = segments[i]
            for j in range(i + 1, len(segments)):
                c, d = segments[j]
                p = segment_intersection(a, b, c, d)
                if p is not None:
                    cuts[i].append(p)
                    cuts[j].append(p)

        edge_set: Dict[Tuple[int, int], None] = {}
        for (a, b), pts in zip(segments, cuts):
            dx = b[0] - a[0]
            dy = b[1] - a[1]
            pts.sort(key=lambda p: (p[0] - a[0]) * dx + (p[1] - a[1]) * dy)
            vids = [registry.insert(p) for p in pts]
            for u, v in zip(vids, vids[1:]):
                if u != v:
                    key = (min(u, v), max(u, v))
                    edge_set[key] = None

        self._vertices_list = registry.coords
        self._edges_list = list(edge_set.keys())
        self._vx = np.array([p[0] for p in self._vertices_list],
                            dtype=np.float64)
        self._vy = np.array([p[1] for p in self._vertices_list],
                            dtype=np.float64)
        self._earr = np.asarray(self._edges_list,
                                dtype=np.intp).reshape(-1, 2)


def interior_point(poly: List[Point]) -> Point:
    """An interior point of a simple CCW polygon (scalar reference)."""
    n = len(poly)
    if n == 3:
        return ((poly[0][0] + poly[1][0] + poly[2][0]) / 3.0,
                (poly[0][1] + poly[1][1] + poly[2][1]) / 3.0)
    # Find a strictly convex corner (the lowest-then-leftmost vertex is one).
    idx = min(range(n), key=lambda i: (poly[i][1], poly[i][0]))
    a = poly[(idx - 1) % n]
    b = poly[idx]
    c = poly[(idx + 1) % n]
    inside: Optional[Point] = None
    best = -1.0
    for i, q in enumerate(poly):
        if i in ((idx - 1) % n, idx, (idx + 1) % n):
            continue
        if _in_triangle(q, a, b, c):
            d = _line_dist(q, a, c)
            if d > best:
                best = d
                inside = q
    if inside is None:
        return ((a[0] + b[0] + c[0]) / 3.0, (a[1] + b[1] + c[1]) / 3.0)
    return ((b[0] + inside[0]) / 2.0, (b[1] + inside[1]) / 2.0)


def _in_triangle(p: Point, a: Point, b: Point, c: Point) -> bool:
    def cross(o: Point, u: Point, v: Point) -> float:
        return (u[0] - o[0]) * (v[1] - o[1]) - (u[1] - o[1]) * (v[0] - o[0])

    d1 = cross(a, b, p)
    d2 = cross(b, c, p)
    d3 = cross(c, a, p)
    has_neg = d1 < 0 or d2 < 0 or d3 < 0
    has_pos = d1 > 0 or d2 > 0 or d3 > 0
    return not (has_neg and has_pos)


def _line_dist(p: Point, a: Point, b: Point) -> float:
    num = abs((b[0] - a[0]) * (a[1] - p[1]) - (a[0] - p[0]) * (b[1] - a[1]))
    # Shared sqrt form (not math.hypot) so the vectorized
    # face_interior_array stays bitwise-comparable to this reference.
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    den = math.sqrt(dx * dx + dy * dy)
    return num / den if den > 0 else 0.0


# ----------------------------------------------------------------------
# V_Pr: pure-Python bisectors and per-face sweeps.
# ----------------------------------------------------------------------

class ScalarProbabilisticVoronoiDiagram(ProbabilisticVoronoiDiagram):
    """:class:`ProbabilisticVoronoiDiagram` built by the original
    pure-Python pair loops (bisectors, arrangement) and labelled by one
    scalar Eq. (2) sweep per face."""

    def _build_arrangement(self, sites: List[Point],
                           boundary: List[Tuple[Point, Point]]
                           ) -> SegmentArrangement:
        segments = self._bisector_segments(sites, self.box)
        segments.extend(boundary)
        return ScalarSegmentArrangement(segments)

    def _label_faces(self) -> np.ndarray:
        vectors = [quantification_vector(self.points, (x, y))
                   for x, y in self._interior.tolist()]
        return np.asarray(vectors, dtype=np.float64).reshape(
            -1, len(self.points))

    @staticmethod
    def _bisector_segments(sites: List[Point],
                           box: Tuple[Point, Point]):
        """Clipped bisectors of all site pairs, deduplicated (scalar).

        Same dedup key as the batched path, via the shared
        ``round(v * 1e9) / 1e9`` form; the batched path reproduces every
        step bitwise.
        """
        seen = set()
        segments = []
        m = len(sites)
        for a in range(m):
            for b in range(a + 1, m):
                p, r = sites[a], sites[b]
                if p == r:
                    continue  # coincident sites never swap distance order
                la, lb, lc = bisector_line(p, r)
                norm = max(abs(la), abs(lb), abs(lc), 1e-30)
                ka = round((la / norm) * 1e9) / 1e9 + 0.0
                kb = round((lb / norm) * 1e9) / 1e9 + 0.0
                kc = round((lc / norm) * 1e9) / 1e9 + 0.0
                if ka < 0 or (ka == 0 and
                              (kb < 0 or (kb == 0 and kc < 0))):
                    ka, kb, kc = -ka + 0.0, -kb + 0.0, -kc + 0.0
                key = (ka, kb, kc)
                if key in seen:
                    continue
                seen.add(key)
                clipped = line_box_clip(la, lb, lc, box)
                if clipped is not None:
                    segments.append(clipped)
        return segments


# ----------------------------------------------------------------------
# Point location: the slab table.
# ----------------------------------------------------------------------

class SlabPointLocator:
    """Slab-table point location over a :class:`SegmentArrangement`.

    The classic slab method: the arrangement's vertex x-coordinates cut
    the plane into slabs; inside a slab the edges that span it are
    totally ordered in y, so a query is two binary searches.  Space is
    ``Theta(V * S)`` rows.

    ``locate(q)`` returns the index (into ``arrangement.face_loops``) of
    the face containing *q*, or ``None`` when *q* lies in the unbounded
    face.  Queries exactly on an edge or vertex return one of the
    incident faces.  ``locate_batch(queries)`` answers a whole ``(m, 2)``
    array at once (``-1`` marking the unbounded face) through a
    vectorized binary search that replays :meth:`locate`'s comparisons.
    """

    def __init__(self, arrangement: SegmentArrangement) -> None:
        t0 = time.perf_counter()
        self.arrangement = arrangement
        vx, vy = arrangement._vx, arrangement._vy
        xs = np.unique(vx)
        self._xs = xs
        n_slabs = max(len(xs) - 1, 0)
        self._bounded = np.asarray(arrangement.face_areas) > arrangement.tol
        if n_slabs == 0 or arrangement.num_edges == 0:
            self._offs = np.zeros(n_slabs + 1, dtype=np.intp)
            self._row_u = np.empty(0, dtype=np.intp)
            self._row_v = np.empty(0, dtype=np.intp)
            self._row_hid_rev = np.empty(0, dtype=np.intp)
            self.build_seconds = time.perf_counter() - t0
            return
        earr, eu, ev, eids, i0, i1 = _edge_slab_spans(arrangement, xs)
        counts = i1 - i0
        total = int(counts.sum())
        eidx = np.repeat(eids, counts)
        offs_c = np.concatenate(([0], np.cumsum(counts)[:-1]))
        slab_ids = (np.arange(total, dtype=np.intp)
                    - np.repeat(offs_c, counts) + np.repeat(i0, counts))
        ru = eu[eidx]
        rv = ev[eidx]
        # Order rows within each slab by y at the slab midline, slope
        # breaking exact ties.  Two distinct edges spanning the same slab
        # meet only at arrangement vertices and slab interiors contain
        # none — but a near-zero-width slab can *round* its midline onto
        # the boundary where edges do share a vertex, so the tiebreak
        # must be geometric (slope orders lines through a common point)
        # rather than positional, or the merged-slab tree could not
        # reproduce it.
        mid = 0.5 * (xs[slab_ids] + xs[slab_ids + 1])
        pux, puy = vx[ru], vy[ru]
        pvx, pvy = vx[rv], vy[rv]
        t = (mid - pux) / (pvx - pux)
        ymid = puy + t * (pvy - puy)
        slope = (pvy - puy) / (pvx - pux)
        order = np.lexsort((slope, ymid, slab_ids))
        self._row_u = ru[order]
        self._row_v = rv[order]
        row_e = eidx[order]
        # Half-edge id of (v -> u): the face containing a query below the
        # row is the loop left of the reversed half-edge.
        self._row_hid_rev = np.where(self._row_u == earr[row_e, 1],
                                     2 * row_e, 2 * row_e + 1)
        counts_s = np.bincount(slab_ids, minlength=n_slabs)
        self._offs = np.concatenate(([0], np.cumsum(counts_s))).astype(np.intp)
        self.build_seconds = time.perf_counter() - t0

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Size/build figures, shaped like the production locator's."""
        nbytes = (self._xs.nbytes + self._offs.nbytes + self._row_u.nbytes
                  + self._row_v.nbytes + self._row_hid_rev.nbytes)
        return {
            "kind": "slab",
            "entries": int(len(self._row_u)),
            "slabs": int(max(len(self._xs) - 1, 0)),
            "nbytes": int(nbytes),
            "build_seconds": float(self.build_seconds),
        }

    # ------------------------------------------------------------------
    def locate(self, q: Point) -> Optional[int]:
        """Face loop index containing *q* (``None`` = unbounded face)."""
        xs = self._xs
        if len(xs) == 0 or q[0] < xs[0] or q[0] > xs[-1]:
            return None
        slab = int(np.searchsorted(xs, q[0], side="right")) - 1
        if slab >= len(self._offs) - 1:
            slab = len(self._offs) - 2
        lo = int(self._offs[slab])
        hi = int(self._offs[slab + 1])
        if lo == hi:
            return None
        end = hi
        vx, vy = self.arrangement._vx, self.arrangement._vy
        qx, qy = float(q[0]), float(q[1])
        # Find the first edge whose y at q.x is >= q.y.
        while lo < hi:
            mid = (lo + hi) // 2
            u, v = self._row_u[mid], self._row_v[mid]
            t = (qx - vx[u]) / (vx[v] - vx[u])
            y = vy[u] + t * (vy[v] - vy[u])
            if y < qy:
                lo = mid + 1
            else:
                hi = mid
        if lo == end:
            return None  # above all edges in the slab
        loop = int(self.arrangement._half_loop[self._row_hid_rev[lo]])
        if not self._bounded[loop]:
            return None
        return loop

    def locate_batch(self, queries) -> np.ndarray:
        """Vectorized :meth:`locate` over an ``(m, 2)`` query array.

        Returns an ``(m,)`` integer array of face loop indices, ``-1`` for
        the unbounded face — elementwise identical to a scalar
        :meth:`locate` loop: every query advances one bisection step per
        NumPy pass, on the same floats with the same comparisons.
        """
        from .spatial.batch import as_query_array

        q = as_query_array(queries)
        out = np.full(len(q), -1, dtype=np.intp)
        offs, xs = self._offs, self._xs
        if len(q) == 0 or len(offs) < 2:
            return out  # no slabs (e.g. all vertices share one x)
        qx, qy = q[:, 0], q[:, 1]
        vx, vy = self.arrangement._vx, self.arrangement._vy
        inside = (qx >= xs[0]) & (qx <= xs[-1])
        slab = np.searchsorted(xs, qx, side="right") - 1
        slab = np.minimum(slab, len(offs) - 2)
        slab = np.maximum(slab, 0)  # out-of-window lanes, masked by inside
        lo = offs[slab].copy()
        hi = offs[slab + 1].copy()
        end = offs[slab + 1]
        lo[~inside] = 0
        hi[~inside] = 0
        max_row = max(len(self._row_u) - 1, 0)
        while True:
            run = lo < hi
            if not run.any():
                break
            mid = np.minimum((lo + hi) >> 1, max_row)
            u = self._row_u[mid]
            v = self._row_v[mid]
            pux = vx[u]
            t = (qx - pux) / (vx[v] - pux)
            y = vy[u] + t * (vy[v] - vy[u])
            less = y < qy
            lo = np.where(run & less, mid + 1, lo)
            hi = np.where(run & ~less, mid, hi)
        found = inside & (lo < end)
        if found.any():
            hid = self._row_hid_rev[lo[found]]
            loops = self.arrangement._half_loop[hid]
            out[found] = np.where(self._bounded[loops], loops, -1)
        return out

    def locate_all(self, queries) -> List[Optional[int]]:
        """:meth:`locate_batch` as a list of ``Optional[int]`` (``None`` =
        unbounded), for drop-in use where the scalar API shape is wanted."""
        return [None if v < 0 else int(v) for v in self.locate_batch(queries)]
