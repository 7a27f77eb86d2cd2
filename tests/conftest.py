"""Shared fixtures for the test suite."""

import random

import pytest

from repro.uncertain.discrete import DiscreteUncertainPoint


@pytest.fixture
def slow_convergence_points():
    """300 co-located two-site parents near the origin, far sites apart.

    No parent exhausts until the sweep reaches the far sites, so every
    query near the cluster consults ~300 sorted sites: the exact sweep
    outruns its starting prefix and must widen (several 4x passes).
    """
    rng = random.Random(12)
    pts = []
    for i in range(300):
        base = (rng.uniform(0, 0.01), rng.uniform(0, 0.01))
        far = (100.0 + i, 100.0 - i)
        pts.append(DiscreteUncertainPoint([base, far], [0.5, 0.5]))
    return pts
