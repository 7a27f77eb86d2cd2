"""Vectorized exact quantification: the Eq. (2) sweep for query batches.

:mod:`.exact_discrete` answers one query with an ``O(N log N)`` sweep over
all ``N = sum k_i`` sites in pure Python.  This module answers an
``(m, 2)`` array of queries through the *same* sweep.  The engine only
flattens the sites once and cuts the queries into memory-bounded row
chunks; each chunk goes through one kernel-provider call
(:meth:`~repro.spatial.kernels.KernelProvider.quantify_exact`) that
computes the distances, orders each row's nearest sites, runs the sweep
and returns the answers as CSR rows — ``indptr``, parent ids in
ascending order and their ``pi`` values, zeros dropped.  :meth:`batch`
turns those into dicts; :meth:`matrix` scatters them into a dense array.

Two providers implement the op (:mod:`repro.spatial.kernels`).  The NumPy
provider is the bitwise oracle: one ``(mc, N)`` distance matrix per
chunk, an ``argpartition`` + ``lexsort`` prefix per row, and the sweep
step loop vectorized across rows.  The native provider does the whole
pipeline per row in one compiled pass.

The sweep reproduces the scalar sweep's arithmetic operation for
operation, which is what makes the results **bitwise identical** to
``quantification_vector``:

* distances use the library's shared ``sqrt(dx*dx + dy*dy)`` form, and
  sites are ordered by (distance, flattened site index) — the same order
  the scalar code's stable ``sorted`` produces;
* per-parent survival factors update by the same sequential subtraction
  (``new = old - w``), with the same count-based *exact zero* once a
  parent's sites are exhausted and the same ``1e-15`` underflow clamp;
* the running product of non-zero factors updates through the same
  ``prod /= old`` / ``prod *= new / old`` expressions, with the explicit
  zero counter deciding the ``prod_{j != parent}`` recovery;
* tie groups are anchored at their first member (``d - d_anchor <=
  tie_tol``) and fully absorbed before any member contributes, matching
  the documented tie-group convention on degenerate inputs.

Rows retire as soon as their zero counter reaches two (every further
contribution is exactly zero — the scalar sweep breaks at the same
moment), so a row usually consults only a short sorted prefix of its
sites.  Both providers sweep the ``PREFIX_START`` nearest sites first
(all of them when there are at most twice as many) without flushing the
final tie group: a row that retires inside the
prefix provably computed the full sweep's answer, and the rare rows
still live at the prefix end are swept wider (counted as
``exact_sweep.prefix_widenings``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from ..spatial.kernels import get_provider
from ..uncertain.discrete import DiscreteUncertainPoint

__all__ = ["BatchExactQuantifier"]

# Row-chunk budget in (rows x sites) elements: it bounds the NumPy
# oracle's (mc, N) distance matrix and both providers' CSR buffers.
_CHUNK_ELEMENTS = 1 << 20


class BatchExactQuantifier:
    """Exact ``(pi_1(q), ..., pi_n(q))`` for whole query batches.

    Parameters
    ----------
    points:
        Discrete uncertain points (the exact sweep is defined for finite
        site sets; continuous models go through quadrature or estimators).
    kernel:
        Kernel provider for the fused exact-quantification op:
        ``"auto"`` (default), ``"native"``, or ``"numpy"`` — see
        :mod:`repro.spatial.kernels`.  Providers are bitwise-identical,
        so the choice is purely operational.
    """

    def __init__(self, points: Sequence[DiscreteUncertainPoint],
                 kernel: str = "auto") -> None:
        if not points:
            raise ValueError("batch quantifier needs at least one point")
        for p in points:
            if not isinstance(p, DiscreteUncertainPoint):
                raise TypeError(
                    "exact batch quantification requires discrete "
                    f"distributions, got {type(p).__name__}")
        self.n = len(points)
        get_provider(kernel)  # validate the name (and fail fast on an
        # explicit "native" request the host cannot serve)
        self.kernel = kernel
        xs: List[float] = []
        ys: List[float] = []
        parents: List[int] = []
        weights: List[float] = []
        # Flattened parent-major, site-order-within-parent — the order the
        # scalar sweep builds its site list in, which the (distance, site
        # index) order preserves inside tie groups.
        for i, p in enumerate(points):
            for (x, y), w in p.sites_with_weights():
                xs.append(x)
                ys.append(y)
                parents.append(i)
                weights.append(w)
        self._sx = np.array(xs, dtype=np.float64)
        self._sy = np.array(ys, dtype=np.float64)
        self._parent = np.array(parents, dtype=np.intp)
        self._weight = np.array(weights, dtype=np.float64)
        self._totals = np.array([p.k for p in points], dtype=np.int64)
        self.total_sites = len(parents)

    # ------------------------------------------------------------------
    @staticmethod
    def _as_queries(queries) -> np.ndarray:
        from ..spatial.batch import as_query_array

        return as_query_array(queries)

    def chunk_size(self) -> int:
        """Query rows per memory-bounded work chunk."""
        return max(16, _CHUNK_ELEMENTS // max(1, self.total_sites))

    def _csr_chunks(self, q: np.ndarray, tie_tol: float
                    ) -> Iterator[Tuple[int, Tuple[np.ndarray, ...]]]:
        """``(first row, (indptr, ids, probs))`` per row chunk of *q*."""
        provider = get_provider(self.kernel)
        step = self.chunk_size()
        for lo in range(0, len(q), step):
            qc = q[lo:lo + step]
            yield lo, provider.quantify_exact(
                qc[:, 0], qc[:, 1], self._sx, self._sy, self._parent,
                self._weight, self._totals, self.n, float(tie_tol))

    def matrix(self, queries, tie_tol: float = 0.0) -> np.ndarray:
        """Dense ``(m, n)`` matrix of exact quantification vectors.

        Row ``j`` equals ``quantification_vector(points, queries[j],
        tie_tol)`` bitwise: distances within ``tie_tol`` of a group's
        first member are processed as one tie group, exactly as in
        :func:`~repro.quantification.exact_discrete.sweep_quantification`.
        Chunk boundaries never change a row (every reduction is per
        query), so any chunking concatenates identically.
        """
        q = self._as_queries(queries)
        out = np.zeros((len(q), self.n), dtype=np.float64)
        for lo, (indptr, ids, probs) in self._csr_chunks(q, tie_tol):
            rows = np.repeat(np.arange(lo, lo + len(indptr) - 1),
                             np.diff(indptr))
            out[rows, ids] = probs
        return out

    def quantification_vectors(self, queries) -> List[List[float]]:
        """Full probability vectors, one list per query row.

        Row ``j`` equals ``quantification_vector(points, queries[j])``
        bitwise — the dense-list twin of :meth:`batch` for callers that
        want scalar-typed rows.  The ``V_Pr`` builder labels
        its ``O(N^4)`` arrangement faces through the same :meth:`matrix`
        machinery (one chunked pass instead of per-face scalar sweeps).
        """
        return self.matrix(queries).tolist()

    def batch(self, queries, tie_tol: float = 0.0
              ) -> List[Dict[int, float]]:
        """Sparse ``{i: pi_i(q)}`` dicts (zeros omitted), one per query.

        The same container :meth:`PNNIndex.quantify(method="exact")
        <repro.core.index.PNNIndex.quantify>` returns, built straight
        from the provider's CSR rows; ``tie_tol`` is as in :meth:`matrix`.
        """
        q = self._as_queries(queries)
        out: List[Dict[int, float]] = []
        for _, (indptr, ids, probs) in self._csr_chunks(q, tie_tol):
            bounds = indptr.tolist()
            keys = ids.tolist()
            vals = probs.tolist()
            out.extend(dict(zip(keys[a:b], vals[a:b]))
                       for a, b in zip(bounds, bounds[1:]))
        return out
