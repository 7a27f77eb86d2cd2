"""E27 — kernel-tier throughput: compiled native vs. NumPy providers.

The acceptance workload of the pluggable kernel tier
(:mod:`repro.spatial.kernels`): every provider entry point is driven
head-to-head on the two hot-loop shapes the tier was built for —

* the **pairwise distance matrix** at the engines' chunk shape
  (``m x s ~ 2^20`` elements of ``sqrt(dx*dx + dy*dy)`` — the
  ``_CHUNK_ELEMENTS`` budget both batch engines size their work
  matrices to, so the benchmark times the loop the way production runs
  it: cache-resident chunks, not one memory-bound mega-matrix);
* the **Eq. (2) sweep step loop** at the E21 exact-quantification shape
  (sorted ``(m, N)`` distance rows, per-parent survival products);
* the **fused exact-quantification op** (``quantify_exact``) — distances,
  prefix select, sweep and CSR rows per query, the op the exact engine
  actually runs — at the exact-bulk serving shape (``N x K`` sites,
  centres uniform over [0, 100]^2, sites within +-1 of the centre,
  queries uniform over the square).  There rows retire within the
  32-site starting prefix; on the denser E21 shape most rows need ~60
  sorted sites, widen, and the ratio is lower (~3x; E21 records the
  end-to-end ``native_over_numpy`` there);

plus the geometry batch kernels (segment intersections, line-box clip)
and the merged-slab point locator's tree-descent kernel
(``plane_locate``).  Two headline assertions:

* **bitwise identity everywhere** — the native provider must return,
  for every entry point, exactly the bytes the NumPy oracle produces
  (same floats, same masks; never gated);
* **per-op single-core speedup bars** — every op is either gated at an
  explicit bar or recorded with ``"gated": false`` in the JSON, never
  silently ungated:

  ========================= ============================== ===========
  op                        bar (env knob)                 default
  ========================= ============================== ===========
  ``distance_matrix``       ``E27_MIN_SPEEDUP``            3x
  ``sweep_eq2``             ``E27_MIN_SPEEDUP``            3x
  ``quantify_exact``        ``E27_MIN_SPEEDUP``            3x
  ``plane_locate``          ``E27_MIN_SPEEDUP_LOCATE``     1.3x
  ``line_box_clip``         (ungated — workload too small) —
  ``segment_intersections`` (ungated — workload too small) —
  ========================= ============================== ===========

  The arithmetic kernels carry the 3x bar: row-scalar C against
  vectorized NumPy on one core, flops-bound, so the ratio is stable.
  The locate kernel gets its own, lower bar because bisection is
  **memory-latency-bound**, not flops-bound — each binary-search step
  is a dependent load (the next probe address depends on the last
  compare), so the native loop saves NumPy's temporaries but cannot
  overlap the loads that dominate the runtime.  Measured:
  ``plane_locate`` ~4x (the NumPy lane pays a per-tree-level pass over
  the whole batch); the 1.3x default bar keeps a wide noise margin.

  The merged-slab locator's answers are also checked against the
  slab-table test oracle (:class:`repro.oracles.SlabPointLocator`),
  which is plain NumPy and not timed.

Hosts without a working C compiler skip the comparisons (the tier
degrades to NumPy by design — parity is then vacuous); the CI
``kernel-matrix`` job provides the compiler and runs the bars.

Env knobs: ``E27_M``, ``E27_SITES``, ``E27_N``, ``E27_K``,
``E27_LOC_QUERIES``, ``E27_MIN_SPEEDUP``, ``E27_MIN_SPEEDUP_LOCATE``,
``E27_JSON`` (machine-readable summary for CI artifacts; also folded
into the repo-root ``BENCH_SUMMARY.json``).
"""

import random

import numpy as np
import pytest

from _common import best_of, cores, env_float, env_int, write_json
from repro.core.workloads import random_discrete_points
from repro.geometry.seg_arrangement import SegmentArrangement
from repro.geometry.segments import bisector_line, line_box_clip
from repro.quantification.batch_exact import BatchExactQuantifier
from repro.spatial.kernels import get_provider, native_available, native_error
from repro.oracles import SlabPointLocator
from repro.spatial.planelocate import PersistentPlaneLocator

M = env_int("E27_M", 2048)             # distance-matrix query rows
SITES = env_int("E27_SITES", 512)      # distance-matrix site columns
N = env_int("E27_N", 200)              # sweep: uncertain points
K = env_int("E27_K", 5)                # sweep: sites per point
LOC_QUERIES = env_int("E27_LOC_QUERIES", 20000)  # locate-kernel batch
MIN_SPEEDUP = env_float("E27_MIN_SPEEDUP", 3.0)
# Bisection is memory-latency-bound (dependent loads per step), not
# flops-bound like the 3x ops — see the module docstring for why the
# locate kernel carries its own bar.
MIN_SPEEDUP_LOCATE = env_float("E27_MIN_SPEEDUP_LOCATE", 1.3)

RNG = np.random.default_rng(2027)
_PAYLOAD = {"experiment": "E27", "m": M, "sites": SITES, "n": N, "k": K,
            "loc_queries": LOC_QUERIES, "cores": cores(),
            "min_speedup": MIN_SPEEDUP,
            "min_speedup_locate": MIN_SPEEDUP_LOCATE,
            "native_available": native_available(),
            "native_error": native_error()}


def _providers():
    if not native_available():
        pytest.skip(f"native kernel unavailable on this host "
                    f"({native_error()}); the tier runs on NumPy")
    return get_provider("numpy"), get_provider("native")


def _finish(key: str, numpy_t: float, native_t: float,
            gated: bool, bar: float = None) -> None:
    """Record one op's timings and enforce its speedup bar.

    *bar* is the op's gate (defaults to the arithmetic
    :data:`MIN_SPEEDUP`); the JSON records it per op so a scrape can
    tell a gated op from an ungated one without reading this file.
    """
    speedup = numpy_t / native_t
    if bar is None:
        bar = MIN_SPEEDUP
    _PAYLOAD[key] = {"numpy_ms": round(numpy_t * 1e3, 3),
                     "native_ms": round(native_t * 1e3, 3),
                     "speedup": round(speedup, 3), "gated": gated,
                     "bar": bar if gated else 0.0}
    write_json("E27_JSON", _PAYLOAD)
    if gated and bar > 0:
        assert speedup >= bar, \
            f"native {key} {speedup:.2f}x < {bar}x " \
            f"(numpy {numpy_t * 1e3:.1f} ms, native {native_t * 1e3:.1f} ms)"


def test_e27_distance_matrix_parity_and_speedup():
    oracle, native = _providers()
    qx = RNG.uniform(0.0, 50.0, M)
    qy = RNG.uniform(0.0, 50.0, M)
    px = RNG.uniform(0.0, 50.0, SITES)
    py = RNG.uniform(0.0, 50.0, SITES)
    numpy_t, d_numpy = best_of(lambda: oracle.distance_matrix(qx, qy,
                                                              px, py))
    native_t, d_native = best_of(lambda: native.distance_matrix(qx, qy,
                                                                px, py))
    assert np.array_equal(d_numpy, d_native), \
        "native distance matrix is not bitwise-equal to the NumPy oracle"
    _finish("distance_matrix", numpy_t, native_t, gated=True)


def test_e27_sweep_parity_and_speedup():
    oracle, native = _providers()
    points = random_discrete_points(N, K, seed=2026, spread=2.0)
    quant = BatchExactQuantifier(points, kernel="numpy")
    rng = random.Random(59)
    extent = (N ** 0.5) * 2.2
    q = np.array([(rng.uniform(0, extent), rng.uniform(0, extent))
                  for _ in range(M)])
    # Prepare the sorted inputs once — the sweep step loop is what the
    # providers differ on; orchestration (sorting, scatter) is shared.
    d = oracle.distance_matrix(q[:, 0], q[:, 1], quant._sx, quant._sy)
    order = np.argsort(d, axis=1, kind="stable")
    ds = np.take_along_axis(d, order, axis=1)
    pp, pw = quant._parent[order], quant._weight[order]

    def run(provider):
        return provider.sweep_eq2(ds, pp, pw, quant._totals, N, 0.0,
                                  final=True)

    numpy_t, (res_numpy, done_numpy) = best_of(lambda: run(oracle))
    native_t, (res_native, done_native) = best_of(lambda: run(native))
    assert np.array_equal(done_numpy, done_native)
    assert np.array_equal(res_numpy, res_native), \
        "native Eq. (2) sweep is not bitwise-equal to the NumPy oracle"
    assert done_numpy.all()  # final=True retires every row
    _finish("sweep_eq2", numpy_t, native_t, gated=True)


def test_e27_quantify_exact_parity_and_speedup():
    oracle, native = _providers()
    points = random_discrete_points(N, K, seed=2026, extent=100.0,
                                    spread=1.0)
    quant = BatchExactQuantifier(points, kernel="numpy")
    qx = RNG.uniform(0.0, 100.0, M)
    qy = RNG.uniform(0.0, 100.0, M)

    def run(provider):
        return provider.quantify_exact(qx, qy, quant._sx, quant._sy,
                                       quant._parent, quant._weight,
                                       quant._totals, N, 0.0)

    numpy_t, csr_numpy = best_of(lambda: run(oracle))
    native_t, csr_native = best_of(lambda: run(native))
    for a, b in zip(csr_numpy, csr_native):
        assert a.dtype == b.dtype and np.array_equal(a, b), \
            "native quantify_exact CSR is not bitwise-equal to the oracle"
    assert csr_numpy[0][-1] > 0
    _finish("quantify_exact", numpy_t, native_t, gated=True)


def test_e27_geometry_and_locator_parity():
    oracle, native = _providers()
    rng = random.Random(4)
    sites = [(rng.uniform(0, 6), rng.uniform(0, 6)) for _ in range(12)]
    box = ((-1.0, -1.0), (7.0, 7.0))
    # Bisector lines: the exact inputs the V_Pr pipeline clips and
    # intersects (E10/E22's workload, at benchmark-friendly size).
    lines = [bisector_line(sites[i], sites[j])
             for i in range(len(sites)) for j in range(i + 1, len(sites))]
    A = np.array([ln[0] for ln in lines])
    B = np.array([ln[1] for ln in lines])
    C = np.array([ln[2] for ln in lines])
    clip_args = (A, B, C, box, 1e-9)
    numpy_clip_t, (segs_o, valid_o) = best_of(
        lambda: oracle.line_box_clip(*clip_args))
    native_clip_t, (segs_n, valid_n) = best_of(
        lambda: native.line_box_clip(*clip_args))
    assert np.array_equal(valid_o, valid_n)
    assert np.array_equal(segs_o[valid_o], segs_n[valid_n])

    segs = segs_o[valid_o]
    ax, ay, bx, by = segs[:, 0], segs[:, 1], segs[:, 2], segs[:, 3]
    s = len(segs)
    I, J = np.triu_indices(s, k=1)
    inter_args = (ax, ay, bx, by, I.astype(np.intp), J.astype(np.intp),
                  1e-9)
    numpy_int_t, (px_o, py_o, hit_o) = best_of(
        lambda: oracle.segment_intersections(*inter_args))
    native_int_t, (px_n, py_n, hit_n) = best_of(
        lambda: native.segment_intersections(*inter_args))
    assert np.array_equal(hit_o, hit_n)
    assert np.array_equal(px_o[hit_o], px_n[hit_n])
    assert np.array_equal(py_o[hit_o], py_n[hit_n])

    # The merged-slab locator over the clipped-bisector arrangement,
    # boxed: end-to-end locate_batch must agree elementwise across
    # providers and with the slab oracle, and the plane_locate kernel
    # carries the memory-latency bar (MIN_SPEEDUP_LOCATE) at a batch
    # large enough to time reliably.
    (xmin, ymin), (xmax, ymax) = box
    walls = [((xmin, ymin), (xmax, ymin)), ((xmax, ymin), (xmax, ymax)),
             ((xmax, ymax), (xmin, ymax)), ((xmin, ymax), (xmin, ymin))]
    arr = SegmentArrangement([((x1, y1), (x2, y2))
                              for x1, y1, x2, y2 in segs.tolist()] + walls)
    queries = np.column_stack([RNG.uniform(-0.9, 6.9, LOC_QUERIES),
                               RNG.uniform(-0.9, 6.9, LOC_QUERIES)])
    faces_o = SlabPointLocator(arr).locate_batch(queries)

    plane_numpy = PersistentPlaneLocator(arr, kernel="numpy")
    plane_native = PersistentPlaneLocator(arr, kernel="native")
    plane_native.locate_batch(queries[:8])
    numpy_pl_t, pfaces_o = best_of(
        lambda: plane_numpy.locate_batch(queries))
    native_pl_t, pfaces_n = best_of(
        lambda: plane_native.locate_batch(queries))
    assert np.array_equal(pfaces_o, pfaces_n), \
        "native plane locate disagrees with the NumPy oracle"
    assert np.array_equal(pfaces_o, faces_o), \
        "merged-slab locator disagrees with the slab oracle"

    _finish("line_box_clip", numpy_clip_t, native_clip_t, gated=False)
    _finish("segment_intersections", numpy_int_t, native_int_t,
            gated=False)
    _finish("plane_locate", numpy_pl_t, native_pl_t, gated=True,
            bar=MIN_SPEEDUP_LOCATE)
