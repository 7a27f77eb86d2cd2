"""Tests for the vectorized exact-quantification engine and the
histogram/polygon closed-form batch kernels.

The contract under test is *bitwise* fidelity: ``BatchExactQuantifier``
must reproduce the scalar Eq. (2) sweep float for float (general position
and the documented tie-group convention alike), and the new batch kernels
must return exactly the scalar ``min_dist`` / ``max_dist`` values.  The
hypothesis suites therefore compare against both the scalar sweep
(equality) and the naive Eq. (2) transcription (tolerance), covering tie
groups, near-zero weights that trip the underflow clamp, and
single-parent degenerate inputs.
"""

import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.index import PNNIndex
from repro.core.workloads import random_discrete_points
from repro.obs.metrics import ENGINE
from repro.quantification.batch_exact import BatchExactQuantifier
from repro.quantification.exact_discrete import (
    quantification_vector,
    quantification_vector_naive,
)
from repro.spatial.batch import BatchQueryEngine
from repro.spatial.kernels import native_available
from repro.spatial.kernels.numpy_provider import PREFIX_START
from repro.uncertain.discrete import DiscreteUncertainPoint
from repro.uncertain.disk_uniform import DiskUniformPoint
from repro.uncertain.histogram import HistogramUncertainPoint
from repro.uncertain.polygon import ConvexPolygonUniformPoint


def random_instance(n, k_max, seed, extent=10.0, snap=None,
                    tiny_weights=False):
    """Discrete points; ``snap`` quantizes sites to a grid (forces ties)."""
    rng = random.Random(seed)
    pts = []
    for _ in range(n):
        k = rng.randint(1, k_max)
        sites = set()
        while len(sites) < k:
            x = rng.uniform(0, extent)
            y = rng.uniform(0, extent)
            if snap:
                x = round(x / snap) * snap
                y = round(y / snap) * snap
            sites.add((x, y))
        weights = [rng.uniform(0.2, 3.0) for _ in range(k)]
        if tiny_weights and k > 1:
            weights[rng.randrange(k)] = 1e-18
        pts.append(DiscreteUncertainPoint(sorted(sites), weights))
    return pts


def queries_for(seed, m, extent=10.0, snap=None):
    rng = random.Random(seed)
    out = []
    for _ in range(m):
        x = rng.uniform(-1, extent + 1)
        y = rng.uniform(-1, extent + 1)
        if snap:
            x = round(x / snap) * snap
            y = round(y / snap) * snap
        out.append((x, y))
    return np.array(out)


class TestBatchExactSweep:
    """``BatchExactQuantifier`` vs the scalar sweep and the naive oracle."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 5), st.integers(0, 10_000))
    def test_bitwise_equal_to_scalar_sweep(self, n, k_max, seed):
        pts = random_instance(n, k_max, seed)
        qs = queries_for(seed + 1, 6)
        bq = BatchExactQuantifier(pts)
        mat = bq.matrix(qs)
        dicts = bq.batch(qs)
        for j, q in enumerate(qs):
            vec = quantification_vector(pts, tuple(q))
            assert mat[j].tolist() == vec
            # The dict form is the same CSR row, zeros dropped.
            assert dicts[j] == {i: v for i, v in enumerate(vec) if v > 0.0}

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8), st.integers(1, 4), st.integers(0, 10_000))
    def test_close_to_naive_oracle(self, n, k_max, seed):
        pts = random_instance(n, k_max, seed)
        qs = queries_for(seed + 2, 4)
        mat = BatchExactQuantifier(pts).matrix(qs)
        for j, q in enumerate(qs):
            naive = quantification_vector_naive(pts, tuple(q))
            assert max(abs(a - b)
                       for a, b in zip(mat[j], naive)) < 1e-10

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 10_000))
    def test_tie_groups_follow_scalar_convention(self, n, k_max, seed):
        # Grid-snapped sites and queries force exact distance ties; the
        # batch sweep must reproduce the scalar tie-group convention
        # bitwise (the vector may sum below 1 on such inputs — that is
        # the documented behaviour, shared by both paths).
        pts = random_instance(n, k_max, seed, snap=1.0)
        qs = queries_for(seed + 3, 6, snap=1.0)
        mat = BatchExactQuantifier(pts).matrix(qs)
        for j, q in enumerate(qs):
            assert mat[j].tolist() == quantification_vector(pts, tuple(q))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.integers(2, 4), st.integers(0, 10_000))
    def test_near_zero_weights_hit_underflow_clamp(self, n, k_max, seed):
        # 1e-18 weights make `old - w` round to `old`, exercising the
        # sweep's 1e-15 clamp; both paths must agree exactly.
        pts = random_instance(n, k_max, seed, tiny_weights=True)
        qs = queries_for(seed + 4, 6)
        mat = BatchExactQuantifier(pts).matrix(qs)
        for j, q in enumerate(qs):
            assert mat[j].tolist() == quantification_vector(pts, tuple(q))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 10_000))
    def test_single_parent_degenerate(self, k, seed):
        # One uncertain point: pi_1 = 1 everywhere, through the same
        # zero-counter mechanics (the parent exhausts, prod recovers).
        pts = random_instance(1, k, seed)
        qs = queries_for(seed + 5, 5)
        mat = BatchExactQuantifier(pts).matrix(qs)
        for j, q in enumerate(qs):
            assert mat[j].tolist() == quantification_vector(pts, tuple(q))
            assert mat[j][0] == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 3), st.integers(0, 10_000),
           st.floats(0.0, 0.5))
    def test_tie_tol_matches_scalar(self, n, k_max, seed, tie_tol):
        pts = random_instance(n, k_max, seed)
        qs = queries_for(seed + 6, 4)
        mat = BatchExactQuantifier(pts).matrix(qs, tie_tol=tie_tol)
        for j, q in enumerate(qs):
            assert mat[j].tolist() == \
                quantification_vector(pts, tuple(q), tie_tol=tie_tol)

    def test_prefix_widening_covers_slow_convergence(
            self, slow_convergence_points):
        # No parent exhausts until ~300 sites into the sorted order, so
        # every row outruns the starting prefix and is swept 4x wider,
        # twice (the widening path).
        pts = slow_convergence_points
        bq = BatchExactQuantifier(pts)
        assert bq.total_sites > 4 * PREFIX_START  # beyond the first widening
        qs = queries_for(99, 3, extent=1.0)
        mat = bq.matrix(qs)
        for j, q in enumerate(qs):
            assert mat[j].tolist() == quantification_vector(pts, tuple(q))

    def test_chunking_is_invisible(self):
        pts = random_instance(6, 3, seed=21)
        bq = BatchExactQuantifier(pts)
        qs = queries_for(22, 37)
        whole = bq.matrix(qs)
        pieces = np.vstack([bq.matrix(qs[s:s + 5])
                            for s in range(0, len(qs), 5)])
        assert np.array_equal(whole, pieces)

    def test_batch_dict_form_matches_quantify(self):
        pts = random_instance(7, 3, seed=31)
        index = PNNIndex(pts)
        qs = queries_for(32, 20)
        dicts = index.batch_quantify_exact(qs)
        for j, q in enumerate(qs):
            assert dicts[j] == index.quantify(tuple(q), method="exact")
        # method="exact" routing through batch_quantify hits the same path
        assert index.batch_quantify(qs, method="exact") == dicts

    def test_quantification_vectors_full_list_form(self):
        """The dense-list entry the V_Pr face labeler consumes: row j is
        the scalar quantification_vector, bitwise, zeros included."""
        pts = random_instance(6, 3, seed=77)
        bq = BatchExactQuantifier(pts)
        qs = queries_for(24, 13)
        rows = bq.quantification_vectors(qs)
        assert isinstance(rows, list) and isinstance(rows[0], list)
        for j, q in enumerate(qs):
            assert rows[j] == quantification_vector(pts, tuple(q))

    def test_rejects_non_discrete(self):
        with pytest.raises(TypeError):
            BatchExactQuantifier([DiskUniformPoint((0, 0), 1.0)])
        index = PNNIndex([DiskUniformPoint((0, 0), 1.0)])
        with pytest.raises(ValueError):
            index.batch_quantify_exact([(0.0, 0.0)])

    def test_empty_queries(self):
        pts = random_instance(3, 2, seed=41)
        assert BatchExactQuantifier(pts).matrix([]).shape == (0, 3)
        assert PNNIndex(pts).batch_quantify_exact([]) == []


KERNEL_NAMES = [
    "numpy",
    pytest.param("native", marks=pytest.mark.skipif(
        not native_available(), reason="no C compiler on this host")),
]


class TestFusedProviderPath:
    """The engine on each provider: one CSR path, dense and dict forms."""

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_widening_counter_moves(self, kernel, slow_convergence_points):
        bq = BatchExactQuantifier(slow_convergence_points, kernel=kernel)
        qs = queries_for(99, 5, extent=1.0)
        before = {k: ENGINE.get(k) for k in (
            "exact_sweep.chunks", "exact_sweep.prefix_widenings",
            "exact_sweep.rows_retired")}
        bq.batch(qs)
        assert ENGINE.get("exact_sweep.chunks") == \
            before["exact_sweep.chunks"] + 1
        assert ENGINE.get("exact_sweep.prefix_widenings") > \
            before["exact_sweep.prefix_widenings"]
        assert ENGINE.get("exact_sweep.rows_retired") == \
            before["exact_sweep.rows_retired"] + len(qs)

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_concurrent_batches_agree(self, kernel):
        pts = random_discrete_points(60, 4, seed=17, spread=2.0)
        bq = BatchExactQuantifier(pts, kernel=kernel)
        qs = np.random.default_rng(3).uniform(0, 20, (600, 2))
        expected = bq.batch(qs)
        barrier = threading.Barrier(4)

        def work(_):
            barrier.wait(timeout=30)
            return [bq.batch(qs) for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(work, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 4
        for per_thread in results:
            for answer in per_thread:
                assert answer == expected

    def test_tie_tol_reuses_cached_quantifier(self, monkeypatch):
        pts = random_instance(7, 3, seed=51)
        index = PNNIndex(pts)
        qs = queries_for(52, 15)
        index.batch_quantify_exact(qs)
        cached = index._batch_exact
        assert cached is not None
        built = []
        init = BatchExactQuantifier.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(BatchExactQuantifier, "__init__", counting_init)
        for tie_tol in (0.3, 0.05):
            dicts = index.batch_quantify_exact(qs, tie_tol=tie_tol)
            assert index._batch_exact is cached
            for j, q in enumerate(qs):
                vec = quantification_vector(pts, tuple(q), tie_tol=tie_tol)
                assert dicts[j] == {i: v for i, v in enumerate(vec)
                                    if v > 0.0}
        assert not built  # no engine rebuilt (no re-flattened sites)
        # The per-call tolerance never sticks to the cached engine.
        assert index.batch_quantify_exact(qs) == [
            index.quantify(tuple(q), method="exact") for q in qs]


def _random_histogram(rng):
    rows = rng.randint(1, 3)
    cols = rng.randint(1, 3)
    weights = [[rng.choice([0.0, rng.uniform(0.1, 1.0)])
                for _ in range(cols)] for _ in range(rows)]
    if all(w == 0 for row in weights for w in row):
        weights[0][0] = 1.0
    return HistogramUncertainPoint(
        (rng.uniform(0, 8), rng.uniform(0, 8)),
        rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0), weights)


def _random_polygon(rng):
    from repro.geometry.convexhull import convex_hull

    while True:
        cx, cy = rng.uniform(0, 8), rng.uniform(0, 8)
        raw = [(cx + rng.uniform(0.3, 1.5) * math.cos(a),
                cy + rng.uniform(0.3, 1.5) * math.sin(a))
               for a in sorted(rng.uniform(0, 2 * math.pi)
                               for _ in range(rng.randint(3, 7)))]
        hull = convex_hull(raw)
        if len(hull) >= 3:
            return ConvexPolygonUniformPoint(hull)


class TestHistogramPolygonKernels:
    """Closed-form batch kernels vs the scalar extreme distances."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_kernels_equal_scalar_extremes(self, seed):
        rng = random.Random(seed)
        pts = [_random_histogram(rng) for _ in range(rng.randint(1, 3))] + \
              [_random_polygon(rng) for _ in range(rng.randint(1, 3))]
        engine = BatchQueryEngine(pts)
        assert "fallback" not in engine.kernel_groups()
        qs = np.array([(rng.uniform(-2, 10), rng.uniform(-2, 10))
                       for _ in range(12)])
        for i, p in enumerate(pts):
            pidx = np.full(len(qs), i, dtype=np.intp)
            mins = engine._exact_pairs(qs, pidx, want_max=False)
            maxs = engine._exact_pairs(qs, pidx, want_max=True)
            for j, q in enumerate(map(tuple, qs.tolist())):
                assert mins[j] == p.min_dist(q)
                assert maxs[j] == p.max_dist(q)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matrix_kernels_equal_pair_kernels(self, seed):
        rng = random.Random(seed)
        pts = [_random_histogram(rng), _random_polygon(rng)]
        engine = BatchQueryEngine(pts)
        qs = np.array([(rng.uniform(-2, 10), rng.uniform(-2, 10))
                       for _ in range(8)])
        min_m, max_m = engine._exact_matrices(qs)
        for i in range(len(pts)):
            pidx = np.full(len(qs), i, dtype=np.intp)
            assert np.array_equal(
                min_m[:, i], engine._exact_pairs(qs, pidx, want_max=False))
            assert np.array_equal(
                max_m[:, i], engine._exact_pairs(qs, pidx, want_max=True))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_mixed_model_batch_queries_match_scalar(self, seed):
        rng = random.Random(seed)
        pts = ([_random_histogram(rng), _random_polygon(rng)] +
               [DiskUniformPoint((rng.uniform(0, 8), rng.uniform(0, 8)),
                                 rng.uniform(0.1, 0.8)) for _ in range(2)])
        index = PNNIndex(pts)
        qs = np.array([(rng.uniform(-1, 9), rng.uniform(-1, 9))
                       for _ in range(15)])
        assert index.batch_nonzero_nn(qs) == \
            [index.nonzero_nn(q) for q in map(tuple, qs.tolist())]
        assert index.batch_delta(qs).tolist() == \
            [index.delta(q) for q in map(tuple, qs.tolist())]

    def test_degenerate_queries_on_features(self):
        rng = random.Random(7)
        hist = _random_histogram(rng)
        poly = _random_polygon(rng)
        index = PNNIndex([hist, poly])
        # Queries exactly on cell corners, polygon vertices, and deep
        # inside the polygon (min_dist 0 through the containment branch).
        centroid = (sum(v[0] for v in poly.vertices) / len(poly.vertices),
                    sum(v[1] for v in poly.vertices) / len(poly.vertices))
        qs = np.array(hist.corners()[:4] + poly.vertices[:3] + [centroid])
        assert index.batch_nonzero_nn(qs) == \
            [index.nonzero_nn(q) for q in map(tuple, qs.tolist())]

    def test_discrete_index_keeps_sites_kernel(self):
        pts = random_discrete_points(5, 3, seed=3, spread=2.0)
        assert PNNIndex(pts).batch_engine().kernel_groups() == ["sites"]
