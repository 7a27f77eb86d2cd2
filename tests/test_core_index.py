"""Unit tests for the PNNIndex facade."""

import math
import random

import pytest

from repro import (
    DiscreteUncertainPoint,
    DiskUniformPoint,
    HistogramUncertainPoint,
    PNNIndex,
    TruncatedGaussianPoint,
)
from repro.quantification.exact_discrete import quantification_vector


def disk_points(n, seed, extent=20.0):
    rng = random.Random(seed)
    return [DiskUniformPoint((rng.uniform(0, extent), rng.uniform(0, extent)),
                             rng.uniform(0.3, 1.2)) for _ in range(n)]


def discrete_points(n, k, seed, extent=20.0):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        cx, cy = rng.uniform(0, extent), rng.uniform(0, extent)
        sites = [(cx + rng.uniform(-1, 1), cy + rng.uniform(-1, 1))
                 for _ in range(k)]
        out.append(DiscreteUncertainPoint(sites, [1.0] * k))
    return out


class TestConstruction:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            PNNIndex([])

    def test_n_property(self):
        assert PNNIndex(disk_points(5, 1)).n == 5

    def test_all_discrete_detection(self):
        assert PNNIndex(discrete_points(3, 2, 1)).all_discrete()
        assert not PNNIndex(disk_points(3, 1)).all_discrete()
        mixed = disk_points(2, 1) + discrete_points(2, 2, 2)
        assert not PNNIndex(mixed).all_discrete()


NON_FINITE_CALLS = {
    "delta": lambda index, q: index.delta(q),
    "nonzero_nn": lambda index, q: index.nonzero_nn(q),
    "quantify_exact": lambda index, q: index.quantify(q, method="exact"),
    "top_k": lambda index, q: index.top_k_nn(q, 2),
    "batch_delta": lambda index, q: index.batch_delta([(0.0, 0.0), q]),
    "batch_nonzero_nn":
        lambda index, q: index.batch_nonzero_nn([(0.0, 0.0), q]),
    "batch_quantify_exact":
        lambda index, q: index.batch_quantify_exact([(0.0, 0.0), q]),
}


class TestNonFiniteQueries:
    """NaN / +-inf coordinates are rejected, never answered in silence."""

    @pytest.mark.parametrize("q", [(math.nan, 1.0), (math.inf, 1.0),
                                   (1.0, -math.inf)])
    @pytest.mark.parametrize("call", sorted(NON_FINITE_CALLS))
    def test_rejected(self, call, q):
        from repro.core.workloads import random_discrete_points

        index = PNNIndex(random_discrete_points(20, k=3, seed=1))
        with pytest.raises(ValueError, match="finite"):
            NON_FINITE_CALLS[call](index, q)


class TestDelta:
    @pytest.mark.parametrize("maker,seed", [
        (lambda: disk_points(20, 3), 3),
        (lambda: discrete_points(20, 3, 4), 4),
    ])
    def test_delta_matches_bruteforce(self, maker, seed):
        pts = maker()
        index = PNNIndex(pts)
        rng = random.Random(seed)
        for _ in range(60):
            q = (rng.uniform(-5, 25), rng.uniform(-5, 25))
            want = min(p.max_dist(q) for p in pts)
            assert index.delta(q) == pytest.approx(want, rel=1e-12)


class TestNonzeroNN:
    @pytest.mark.parametrize("maker,seed", [
        (lambda: disk_points(30, 5), 5),
        (lambda: discrete_points(30, 3, 6), 6),
    ])
    def test_matches_bruteforce(self, maker, seed):
        pts = maker()
        index = PNNIndex(pts)
        rng = random.Random(seed)
        for _ in range(100):
            q = (rng.uniform(-5, 25), rng.uniform(-5, 25))
            assert index.nonzero_nn(q) == sorted(index.nonzero_nn_bruteforce(q))

    def test_mixed_models(self):
        pts = (disk_points(5, 7)
               + discrete_points(5, 2, 8)
               + [TruncatedGaussianPoint((10, 10), 1.0, 2.0),
                  HistogramUncertainPoint((5, 5), 1.0, 1.0, [[1, 2], [0, 1]])])
        index = PNNIndex(pts)
        rng = random.Random(9)
        for _ in range(60):
            q = (rng.uniform(0, 20), rng.uniform(0, 20))
            assert index.nonzero_nn(q) == sorted(index.nonzero_nn_bruteforce(q))

    def test_result_never_empty(self):
        index = PNNIndex(disk_points(10, 11))
        rng = random.Random(11)
        for _ in range(30):
            q = (rng.uniform(-50, 50), rng.uniform(-50, 50))
            assert index.nonzero_nn(q)

    def test_certain_points_reduce_to_nn(self):
        """Radius-0 supports (certain points): NN!=0 is the unique NN."""
        rng = random.Random(13)
        sites = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(20)]
        pts = [DiscreteUncertainPoint([s], [1.0]) for s in sites]
        index = PNNIndex(pts)
        for _ in range(40):
            q = (rng.uniform(0, 10), rng.uniform(0, 10))
            result = index.nonzero_nn(q)
            nearest = min(range(20), key=lambda i: math.dist(sites[i], q))
            assert result == [nearest]


class TestQuantify:
    def test_exact_discrete(self):
        pts = discrete_points(6, 2, 15)
        index = PNNIndex(pts)
        q = (10.0, 10.0)
        got = index.quantify(q, "exact")
        want = quantification_vector(pts, q)
        for i, v in got.items():
            assert v == pytest.approx(want[i])
        assert sum(got.values()) == pytest.approx(1.0)

    def test_exact_continuous(self):
        pts = [DiskUniformPoint((0, 0), 1.0), DiskUniformPoint((4, 0), 1.0)]
        got = index_quantify_midpoint = PNNIndex(pts).quantify((2, 0), "exact")
        assert got[0] == pytest.approx(0.5, abs=1e-6)

    def test_spiral_requires_discrete(self):
        index = PNNIndex(disk_points(4, 17))
        with pytest.raises(ValueError):
            index.quantify((0, 0), "spiral")

    def test_unknown_method(self):
        index = PNNIndex(disk_points(4, 18))
        with pytest.raises(ValueError):
            index.quantify((0, 0), "magic")

    def test_auto_dispatch(self):
        disc = PNNIndex(discrete_points(5, 2, 19))
        cont = PNNIndex(disk_points(5, 20))
        q = (10.0, 10.0)
        assert sum(disc.quantify(q, "auto", epsilon=0.05).values()) \
            == pytest.approx(1.0, abs=0.3)
        est = cont.quantify(q, "auto", epsilon=0.1)
        assert sum(est.values()) == pytest.approx(1.0)

    def test_monte_carlo_cached(self):
        index = PNNIndex(discrete_points(5, 2, 21))
        a = index.quantify((3, 3), "monte_carlo", epsilon=0.2, seed=5)
        b = index.quantify((3, 3), "monte_carlo", epsilon=0.2, seed=5)
        assert a == b
        assert len(index._mc_cache) == 1

    def test_spiral_one_sided(self):
        pts = discrete_points(10, 3, 23)
        index = PNNIndex(pts)
        q = (10.0, 10.0)
        eps = 0.05
        est = index.quantify(q, "spiral", epsilon=eps)
        exact = quantification_vector(pts, q)
        for i, v in enumerate(exact):
            e = est.get(i, 0.0)
            assert e <= v + 1e-9
            assert v - e <= eps + 1e-9


class TestThresholdNN:
    def test_certain_membership(self):
        pts = discrete_points(8, 2, 25)
        index = PNNIndex(pts)
        q = (10.0, 10.0)
        exact = quantification_vector(pts, q)
        res = index.threshold_nn(q, tau=0.3)
        for i in res.certain:
            assert exact[i] > 0.3 - res.epsilon - 1e-9
        over = {i for i, v in enumerate(exact) if v > 0.3 + res.epsilon}
        assert over <= set(res.possible())

    def test_default_epsilon(self):
        index = PNNIndex(discrete_points(4, 2, 27))
        res = index.threshold_nn((5, 5), tau=0.4)
        assert res.epsilon == pytest.approx(0.1)


class TestHeavyArtifacts:
    def test_build_nonzero_voronoi(self):
        index = PNNIndex(disk_points(6, 29))
        diagram = index.build_nonzero_voronoi()
        rng = random.Random(0)
        for _ in range(30):
            q = (rng.uniform(0, 20), rng.uniform(0, 20))
            assert set(diagram.nonzero_nn(q)) \
                == set(index.nonzero_nn_bruteforce(q))

    def test_build_vpr_requires_discrete(self):
        with pytest.raises(ValueError):
            PNNIndex(disk_points(3, 31)).build_vpr()

    def test_build_vpr_query(self):
        pts = discrete_points(3, 2, 33, extent=5.0)
        index = PNNIndex(pts)
        vpr = index.build_vpr()
        q = (2.5, 2.5)
        got = vpr.query(q)
        want = quantification_vector(pts, q)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9
