"""Seeded inputs of the benchmark workloads.

The benchmark owns its generator (nothing here imports the library's
``repro.core.workloads``), so a change to the program cannot change the
inputs it is measured on.  Every array is a pure function of the seed.
"""

from __future__ import annotations

import numpy as np

#: exact-bulk / point-stream index: 200 discrete points, 5 sites each,
#: centres uniform over [0, 100]^2, sites within +-1 of the centre.
BULK_POINTS, BULK_SITES, BULK_EXTENT, BULK_SPREAD = 200, 5, 100.0, 1.0
#: vpr-serve index: 18 discrete points, 2 sites each, centres uniform
#: over [0, 10]^2, sites within +-2 of the centre (~175k V_Pr faces).
VPR_POINTS, VPR_SITES, VPR_EXTENT, VPR_SPREAD = 18, 2, 10.0, 2.0
#: The vpr-serve index is the same for every seed (only its queries
#: follow the seed): with 18 points the mean answer size moves by +-11%
#: from one seeded layout to the next, which would read as run-to-run
#: spread.
VPR_INDEX_SEED = 0


def _rng(seed: int, stream: int) -> np.random.Generator:
    # Independent streams per input, so adding one never shifts another.
    return np.random.default_rng([int(seed), stream])


def point_sets(seed: int, n: int, k: int, extent: float, spread: float):
    """``n`` discrete points as ``(sites (k, 2), weights (k,))`` pairs.

    Weights are uniform in [1, 2] before normalisation (the library
    normalises them).
    """
    rng = _rng(seed, 1)
    centres = rng.uniform(0.0, extent, size=(n, 2))
    offsets = rng.uniform(-spread, spread, size=(n, k, 2))
    weights = rng.uniform(1.0, 2.0, size=(n, k))
    return [(centres[i] + offsets[i], weights[i]) for i in range(n)]


def uniform_queries(seed: int, m: int, lo: float, hi: float,
                    stream: int = 2) -> np.ndarray:
    """``(m, 2)`` query points uniform over ``[lo, hi]^2``."""
    return _rng(seed, stream).uniform(lo, hi, size=(m, 2))


def point_stream(seed: int, count: int, hot: int, hot_share: float,
                 extent: float):
    """The point-stream request sequence: ``(kinds, points)``.

    Each request picks its kind uniformly from four kinds; with
    probability *hot_share* it reuses one of *hot* fixed points (a
    Zipf-skewed choice), otherwise it draws a fresh uniform point that
    no earlier request used, so it can only miss the cache.
    """
    rng = _rng(seed, 3)
    hot_points = rng.uniform(0.0, extent, size=(hot, 2))
    ranks = np.arange(1, hot + 1, dtype=np.float64)
    zipf = (1.0 / ranks) / (1.0 / ranks).sum()
    is_hot = rng.random(count) < hot_share
    points = rng.uniform(0.0, extent, size=(count, 2))
    picks = rng.choice(hot, size=count, p=zipf)
    points[is_hot] = hot_points[picks[is_hot]]
    kinds = rng.integers(0, 4, size=count)
    return kinds, points
