"""E21 — exact-quantification throughput: the vectorized Eq. (2) sweep.

The acceptance workload of the batch-exact subsystem: n = 200 discrete
uncertain points (k = 5 sites each), m = 1000 queries.  Two headline
assertions:

* **bitwise identity** — ``batch_quantify_exact`` returns, for every
  query, exactly the dict the scalar ``quantify(method="exact")`` sweep
  produces (same floats, not just close ones);
* **single-core speedup** — the vectorized sweep must beat the scalar
  loop by ``E21_MIN_SPEEDUP``x (default 5x).  Unlike E20's sharding bar
  this is a pure vectorization gain, so it holds on a 1-core container.

The same test also times ``batch_quantify_exact`` on a NumPy-kernel
index and records the end-to-end native-over-NumPy ratio
(``native_over_numpy``; ``null`` on hosts without the native kernel) —
reported, not gated.

Companion blocks cover the sharded ``quantify_exact`` query kind (bitwise
identity always; the multi-worker *scaling* bar only on >= 4-core hosts,
same convention as E20) and the histogram/polygon closed-form kernels
(no ``"fallback"`` group; batch extreme distances equal the scalar ones).

Env knobs: ``E21_N``, ``E21_K``, ``E21_M``, ``E21_MIN_SPEEDUP``,
``E21_SHARD_MIN_SPEEDUP``, ``E21_WORKERS``, ``E21_JSON`` (write a
machine-readable summary for CI artifacts).
"""

import math
import random

import numpy as np

from _common import best_of, cores, env_float, env_int, gated_speedup, write_json
from repro.core.index import PNNIndex
from repro.core.workloads import random_discrete_points, rfid_histogram_field
from repro.serving import ShardExecutor
from repro.spatial.kernels import resolve_kernel
from repro.uncertain.polygon import ConvexPolygonUniformPoint

N = env_int("E21_N", 200)
K = env_int("E21_K", 5)
M = env_int("E21_M", 1000)
WORKERS = env_int("E21_WORKERS", 4)
_CORES = cores()
# The vectorization bar is single-core physics and defaults on everywhere;
# CI can still relax it through the env on pathologically noisy runners.
MIN_SPEEDUP = env_float("E21_MIN_SPEEDUP", 5.0)
# The sharded-scaling bar (like E20) needs cores to mean anything.
SHARD_MIN_SPEEDUP = gated_speedup("E21_SHARD_MIN_SPEEDUP", 1.5,
                                  workers=WORKERS)

EXTENT = math.sqrt(N) * 2.2
POINTS = random_discrete_points(N, K, seed=2026, spread=2.0)
INDEX = PNNIndex(POINTS)
RNG = random.Random(59)
QUERIES = np.array([(RNG.uniform(0, EXTENT), RNG.uniform(0, EXTENT))
                    for _ in range(M)])


def test_e21_vectorized_sweep_bitwise_identity_and_throughput():
    INDEX.batch_quantify_exact(QUERIES[:4])  # engine build outside timers
    scalar_t, scalar = best_of(
        lambda: [INDEX.quantify((x, y), method="exact")
                 for x, y in QUERIES.tolist()])
    batch_t, batched = best_of(
        lambda: INDEX.batch_quantify_exact(QUERIES))
    assert batched == scalar, \
        "batch_quantify_exact differs from the scalar Eq. (2) sweep"
    numpy_index = PNNIndex(POINTS, kernel="numpy")
    numpy_index.batch_quantify_exact(QUERIES[:4])
    numpy_t, numpy_batched = best_of(
        lambda: numpy_index.batch_quantify_exact(QUERIES))
    assert numpy_batched == scalar, \
        "numpy-kernel batch_quantify_exact differs from the scalar sweep"
    native = resolve_kernel(INDEX.kernel) == "native"
    speedup = scalar_t / batch_t
    payload = {
        "experiment": "E21",
        "n": N, "k": K, "m": M, "total_sites": N * K,
        "cores": _CORES,
        "scalar_qps": int(M / scalar_t),
        "batch_qps": int(M / batch_t),
        "speedup": round(speedup, 3),
        "min_speedup": MIN_SPEEDUP,
        "numpy_batch_qps": int(M / numpy_t),
        "native_over_numpy": (round(numpy_t / batch_t, 3) if native
                              else None),
        "identical": True,
    }
    write_json("E21_JSON", payload)
    if MIN_SPEEDUP > 0:
        assert speedup >= MIN_SPEEDUP, \
            f"vectorized exact sweep {speedup:.2f}x < {MIN_SPEEDUP}x at " \
            f"n={N}, k={K}, m={M} (scalar {M / scalar_t:.0f} q/s, " \
            f"batch {M / batch_t:.0f} q/s)"


def test_e21_sharded_quantify_exact_identity():
    base = INDEX.batch_quantify_exact(QUERIES)
    with ShardExecutor(INDEX.points, workers=WORKERS) as executor:
        executor.run("quantify_exact", QUERIES[:8])  # replicas warm
        shard_t, sharded = best_of(
            lambda: executor.run("quantify_exact", QUERIES))
        assert sharded == base, \
            "sharded quantify_exact differs from single-process output"
        if SHARD_MIN_SPEEDUP > 0:
            single_t, _ = best_of(
                lambda: INDEX.batch_quantify_exact(QUERIES))
            speedup = single_t / shard_t
            assert speedup >= SHARD_MIN_SPEEDUP, \
                f"sharded exact quantification {speedup:.2f}x < " \
                f"{SHARD_MIN_SPEEDUP}x with {executor.workers} workers"


def test_e21_histogram_polygon_closed_form_kernels():
    mixed = list(rfid_histogram_field(8, grid=3, seed=6))
    mixed.append(ConvexPolygonUniformPoint(
        [(0.0, 0.0), (2.0, 0.2), (1.8, 1.6), (0.3, 1.4)]))
    mixed.append(ConvexPolygonUniformPoint(
        [(5.0, 5.0), (7.0, 5.5), (6.0, 7.0)]))
    index = PNNIndex(mixed)
    engine = index.batch_engine()
    groups = engine.kernel_groups()
    assert "fallback" not in groups, \
        f"histogram/polygon batches still use the scalar fallback: {groups}"
    qs = np.array([(RNG.uniform(-1, 9), RNG.uniform(-1, 9))
                   for _ in range(300)])
    # Closed-form extreme distances must equal the scalar ones bitwise ...
    for i, p in enumerate(mixed):
        pidx = np.full(len(qs), i, dtype=np.intp)
        mins = engine._exact_pairs(qs, pidx, want_max=False)
        maxs = engine._exact_pairs(qs, pidx, want_max=True)
        for j, (x, y) in enumerate(qs.tolist()):
            assert mins[j] == p.min_dist((x, y))
            assert maxs[j] == p.max_dist((x, y))
    # ... so the whole two-stage batch query agrees with the scalar path.
    assert index.batch_nonzero_nn(qs) == \
        [index.nonzero_nn((x, y)) for x, y in qs.tolist()]
