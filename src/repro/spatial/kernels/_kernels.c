/* Native kernel tier: the library's inner loops as flat-array C.
 *
 * Every function replays the exact IEEE-754 double-precision operation
 * sequence of the NumPy oracle in repro/spatial/kernels/numpy_provider.py
 * (which is itself bit-pinned to the scalar reference code), so outputs
 * are bitwise identical.  That property survives compilation only under
 * the flags build.py passes:
 *
 *   -ffp-contract=off   no FMA fusion of a*a + b*b (one rounding step
 *                       per written operation, like NumPy's ufuncs);
 *   no -ffast-math      keeps IEEE semantics (NaN/inf comparisons,
 *                       signed zeros, division by zero);
 *   -fno-math-errno     safe: sqrt is correctly rounded with or without
 *                       errno, and dropping errno lets the compiler
 *                       vectorize the sqrt loops.
 *
 * Entry points (ctypes bindings in native_provider.py):
 *
 *   repro_distance_matrix        pairwise sqrt(dx*dx + dy*dy)
 *   repro_sweep_eq2              the Eq. (2) sweep over prefix-ordered rows
 *   repro_quantify_exact         fused exact quantification: distances,
 *                                stable prefix select and the sweep per
 *                                row, emitting CSR rows
 *   repro_segment_intersections  batched segment-pair intersection
 *   repro_line_box_clip          batched Liang-Barsky line-box clip
 *   repro_plane_locate           merged-slab tree point location
 *
 * The two Eq. (2) entries share one copy of the sweep arithmetic
 * (sweep_row).  No function keeps static or global mutable state:
 * ctypes releases the GIL, so callers run these concurrently, and all
 * scratch is allocated per call.
 *
 * The file is dependency-free (libc + libm) and compiled on demand by
 * build.py with the system compiler; see that module for cache policy.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* ------------------------------------------------------------------ */
/* Pairwise distance matrix: out[i, j] = sqrt(dx*dx + dy*dy) — the     */
/* library's shared distance form (geometry.primitives.dist).          */
/* ------------------------------------------------------------------ */
static void distance_row(double xi, double yi, const double *px,
                         const double *py, int64_t n, double *row)
{
    for (int64_t j = 0; j < n; ++j) {
        const double dx = xi - px[j];
        const double dy = yi - py[j];
        row[j] = sqrt(dx * dx + dy * dy);
    }
}

void repro_distance_matrix(const double *qx, const double *qy, int64_t m,
                           const double *px, const double *py, int64_t n,
                           double *out)
{
    for (int64_t i = 0; i < m; ++i)
        distance_row(qx[i], qy[i], px, py, n, out + i * n);
}

/* ------------------------------------------------------------------ */
/* The Eq. (2) sweep over one row's sorted sites — the single copy of  */
/* the sweep arithmetic, shared by repro_sweep_eq2 and                 */
/* repro_quantify_exact.                                               */
/*                                                                     */
/* d / par / w are the row's first `width` sites in (distance, site    */
/* index) order; totals[n] the per-parent site counts.  Contributions  */
/* accumulate into res[n], which the caller zero-initializes.          */
/*                                                                     */
/* The NumPy sweep vectorizes across rows but is strictly sequential   */
/* in sorted position within a row: tie groups anchored at their first */
/* member, a full group absorbed (phase 1) before any member           */
/* contributes (phase 2), survival updated by new = old - w with the   */
/* 1e-15 underflow clamp and the count-based exact zero, the running   */
/* product by prod *= new/old or prod /= old with an explicit zero     */
/* counter, retirement at zero_count >= 2.  This scalar row loop       */
/* replays those expressions in the same order, so every row is        */
/* bitwise the NumPy row.  Rows retired past zero_count >= 2 only      */
/* ever scatter +0.0 in the oracle, so breaking early is exact.  With  */
/* final_pass the prefix is the whole site set and the last tie group  */
/* is flushed; otherwise a row still live at the prefix end is left    */
/* incomplete for the caller to re-sweep wider.                        */
/*                                                                     */
/* Scratch: survival (all 1.0) and seen (all 0) are n-sized; only the  */
/* <= width parents the row touches (recorded in touched[width]) are   */
/* restored on exit, keeping the per-row cost O(width), not O(n).      */
/*                                                                     */
/* Returns 1 when the row retired (its answer is complete), else 0.    */
/* ------------------------------------------------------------------ */
static void sweep_contribute(const int64_t *par, const double *w,
                             const double *survival, double prod,
                             int64_t zero_count, int64_t lo, int64_t hi,
                             double *res)
{
    for (int64_t pos = lo; pos < hi; ++pos) {
        const int64_t ps = par[pos];
        const double f_own = survival[ps];
        double others;
        if (zero_count == 0)
            others = f_own > 0.0 ? prod / f_own : 0.0;
        else if (zero_count == 1 && f_own == 0.0)
            others = prod;
        else
            others = 0.0;
        res[ps] += w[pos] * others;
    }
}

static int sweep_row(const double *d, const int64_t *par,
                     const double *w, int64_t width,
                     const int64_t *totals, double tie_tol,
                     int final_pass, double *survival, int64_t *seen,
                     int64_t *touched, double *res)
{
    int64_t n_touched = 0;
    int64_t zero_count = 0;
    double prod = 1.0;
    double anchor = 0.0;
    int64_t glen = 0;
    int retired = 0;
    for (int64_t t = 0; t < width; ++t) {
        const double dt = d[t];
        if (t == 0 || dt - anchor > tie_tol) {
            /* Phase 2 for the completed group [t - glen, t). */
            sweep_contribute(par, w, survival, prod, zero_count,
                             t - glen, t, res);
            anchor = dt;
            glen = 0;
        }
        /* Phase 1: absorb the t-th nearest site. */
        const int64_t p_t = par[t];
        const double old = survival[p_t];
        if (seen[p_t] == 0)
            touched[n_touched++] = p_t;
        const int64_t cnt = seen[p_t] + 1;
        seen[p_t] = cnt;
        double fresh = old - w[t];
        if (fresh < 1e-15)
            fresh = 0.0;
        if (cnt >= totals[p_t])
            fresh = 0.0;
        survival[p_t] = fresh;
        if (old > 0.0) {
            if (fresh > 0.0) {
                prod *= fresh / old;
            } else {
                prod /= old;
                zero_count += 1;
            }
        }
        glen += 1;
        if (zero_count >= 2) {
            /* Every further contribution is exactly zero. */
            retired = 1;
            break;
        }
    }
    if (!retired && final_pass) {
        sweep_contribute(par, w, survival, prod, zero_count,
                         width - glen, width, res);
    }
    for (int64_t k = 0; k < n_touched; ++k) {
        survival[touched[k]] = 1.0;
        seen[touched[k]] = 0;
    }
    return retired;
}

/* Per-call sweep scratch (never static: ctypes releases the GIL and the
 * thread backend runs these kernels concurrently). */
typedef struct {
    double *survival;
    int64_t *seen;
    int64_t *touched;
} sweep_scratch;

static int scratch_init(sweep_scratch *s, int64_t n, int64_t width)
{
    s->survival = (double *)malloc((size_t)(n > 0 ? n : 1) * sizeof(double));
    s->seen = (int64_t *)malloc((size_t)(n > 0 ? n : 1) * sizeof(int64_t));
    s->touched = (int64_t *)malloc((size_t)(width > 0 ? width : 1)
                                   * sizeof(int64_t));
    if (s->survival == NULL || s->seen == NULL || s->touched == NULL)
        return -1;
    for (int64_t p = 0; p < n; ++p) {
        s->survival[p] = 1.0;
        s->seen[p] = 0;
    }
    return 0;
}

static void scratch_free(sweep_scratch *s)
{
    free(s->survival);
    free(s->seen);
    free(s->touched);
}

/* ------------------------------------------------------------------ */
/* The Eq. (2) sweep step loop over caller-ordered prefixes            */
/* (NumpyProvider.sweep_eq2's contract): (r, width) sorted distance /  */
/* parent / weight rows in, result (r, n) — zero-initialized by the    */
/* caller — and done[r] retire flags out.                              */
/*                                                                     */
/* Returns 0, or -1 when scratch allocation failed.                    */
/* ------------------------------------------------------------------ */
int repro_sweep_eq2(const double *ds, const int64_t *pp, const double *pw,
                    int64_t r, int64_t width, int64_t n,
                    const int64_t *totals, double tie_tol, int final_pass,
                    double *result, uint8_t *done)
{
    sweep_scratch s;
    if (scratch_init(&s, n, width) != 0) {
        scratch_free(&s);
        return -1;
    }
    for (int64_t row = 0; row < r; ++row) {
        const int retired = sweep_row(ds + row * width, pp + row * width,
                                      pw + row * width, width, totals,
                                      tie_tol, final_pass, s.survival,
                                      s.seen, s.touched, result + row * n);
        done[row] = (uint8_t)(retired || final_pass);
    }
    scratch_free(&s);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Fused exact quantification (quantification/batch_exact.py): per     */
/* query row, one pass of                                              */
/*                                                                     */
/*   distances -> stable prefix select -> Eq. (2) sweep -> CSR row.    */
/*                                                                     */
/* The prefix is the `prefix_start` smallest sites by the key          */
/* (distance, flattened site index) — exactly the order of NumPy's     */
/* argpartition + lexsort prefix, i.e. of the stable full sort — kept  */
/* by insertion into a sorted buffer (sites arrive in index order, so  */
/* an equal distance always sorts after the buffered ones).  A row     */
/* that retires inside the prefix has its full answer; a row still     */
/* live at the prefix end is re-swept on a 4x wider prefix (selected   */
/* from the rest of the keys and sorted on the same unique key) until  */
/* it retires or the prefix is the whole site set — the oracle's       */
/* passes, so stats[0] receives the maximum per-row pass count (the    */
/* chunk's widening passes) and stats[1] the number of rows answered.  */
/*                                                                     */
/* Output rows are CSR: indptr[m + 1], then for each row the parents   */
/* with pi > 0 in ascending order (ids) and their values (probs).  The */
/* caller sizes ids / probs for m * n entries, the most m rows hold.   */
/*                                                                     */
/* Returns 0, or -1 when scratch allocation failed.                    */
/* ------------------------------------------------------------------ */
typedef struct {
    double d;
    int64_t j;
} site_key;

static int key_less(const site_key *x, const site_key *y)
{
    return x->d < y->d || (x->d == y->d && x->j < y->j);
}

/* Hoare partition of keys[lo, hi) (hi - lo >= 2) around a
 * median-of-three pivot: afterwards keys[lo, *left_end) <= pivot <=
 * keys[*right_begin, hi), entries in between equal the pivot, and each
 * part is shorter than the range.  Keys are unique (site index breaks
 * distance ties). */
static void partition_keys(site_key *keys, int64_t lo, int64_t hi,
                           int64_t *left_end, int64_t *right_begin)
{
    const site_key *a = &keys[lo];
    const site_key *b = &keys[lo + (hi - lo) / 2];
    const site_key *c = &keys[hi - 1];
    site_key pivot;
    if (key_less(a, b))
        pivot = key_less(b, c) ? *b : (key_less(a, c) ? *c : *a);
    else
        pivot = key_less(a, c) ? *a : (key_less(b, c) ? *c : *b);
    int64_t i = lo;
    int64_t j = hi - 1;
    while (i <= j) {
        while (key_less(&keys[i], &pivot))
            ++i;
        while (key_less(&pivot, &keys[j]))
            --j;
        if (i <= j) {
            const site_key tmp = keys[i];
            keys[i] = keys[j];
            keys[j] = tmp;
            ++i;
            --j;
        }
    }
    *left_end = j + 1;
    *right_begin = i;
}

/* Reorder keys[lo, hi) so that keys[lo, k) holds its k - lo smallest
 * entries, in no particular order (quickselect). */
static void select_smallest(site_key *keys, int64_t lo, int64_t hi,
                            int64_t k)
{
    while (lo < k && k < hi) {
        int64_t left_end, right_begin;
        partition_keys(keys, lo, hi, &left_end, &right_begin);
        if (k <= left_end)
            hi = left_end;
        else
            lo = right_begin;
    }
}

/* Sort keys[lo, hi) ascending: quicksort down to short runs (recursing
 * into the smaller part), then insertion sort. */
static void sort_keys(site_key *keys, int64_t lo, int64_t hi)
{
    while (hi - lo > 16) {
        int64_t left_end, right_begin;
        partition_keys(keys, lo, hi, &left_end, &right_begin);
        if (left_end - lo < hi - right_begin) {
            sort_keys(keys, lo, left_end);
            lo = right_begin;
        } else {
            sort_keys(keys, right_begin, hi);
            hi = left_end;
        }
    }
    for (int64_t t = lo + 1; t < hi; ++t) {
        const site_key key = keys[t];
        int64_t pos = t;
        while (pos > lo && key_less(&key, &keys[pos - 1])) {
            keys[pos] = keys[pos - 1];
            --pos;
        }
        keys[pos] = key;
    }
}

int repro_quantify_exact(const double *qx, const double *qy, int64_t m,
                         const double *sx, const double *sy,
                         const int64_t *parent, const double *weight,
                         int64_t big_n, const int64_t *totals, int64_t n,
                         double tie_tol, int64_t prefix_start,
                         int64_t *indptr, int64_t *ids, double *probs,
                         int64_t *stats)
{
    const int64_t k0 = prefix_start < big_n ? prefix_start : big_n;
    sweep_scratch s;
    double *dist = (double *)malloc((size_t)(big_n > 0 ? big_n : 1)
                                    * sizeof(double));
    double *res = (double *)calloc((size_t)(n > 0 ? n : 1), sizeof(double));
    /* Sorted prefix as site indices (sel) and the gathered sweep rows. */
    int64_t *sel = (int64_t *)malloc((size_t)(k0 > 0 ? k0 : 1)
                                     * sizeof(int64_t));
    double *sd = (double *)malloc((size_t)(big_n > 0 ? big_n : 1)
                                  * sizeof(double));
    int64_t *sp = (int64_t *)malloc((size_t)(big_n > 0 ? big_n : 1)
                                    * sizeof(int64_t));
    double *sw = (double *)malloc((size_t)(big_n > 0 ? big_n : 1)
                                  * sizeof(double));
    site_key *keys = NULL; /* allocated on the first widened row */
    int rc = scratch_init(&s, n, big_n);
    if (dist == NULL || res == NULL || sel == NULL || sd == NULL
            || sp == NULL || sw == NULL)
        rc = -1;
    int64_t nnz = 0;
    int64_t max_widen = 0;
    int64_t answered = 0;
    indptr[0] = 0;
    for (int64_t i = 0; rc == 0 && i < m; ++i) {
        distance_row(qx[i], qy[i], sx, sy, big_n, dist);
        /* Stable prefix select by (distance, site index): insertion
         * sort of the first k0 sites, then each later site that beats
         * the current k0-th replaces it (sites arrive in index order, so
         * an equal distance never displaces a buffered site). */
        for (int64_t j = 0; j < k0; ++j) {
            const double dj = dist[j];
            int64_t pos = j;
            while (pos > 0 && sd[pos - 1] > dj) {
                sd[pos] = sd[pos - 1];
                sel[pos] = sel[pos - 1];
                --pos;
            }
            sd[pos] = dj;
            sel[pos] = j;
        }
        double worst = k0 > 0 ? sd[k0 - 1] : 0.0;
        for (int64_t j = k0; j < big_n; ++j) {
            const double dj = dist[j];
            if (!(dj < worst))
                continue;
            int64_t pos = k0 - 1;
            while (pos > 0 && sd[pos - 1] > dj) {
                sd[pos] = sd[pos - 1];
                sel[pos] = sel[pos - 1];
                --pos;
            }
            sd[pos] = dj;
            sel[pos] = j;
            worst = sd[k0 - 1];
        }
        for (int64_t t = 0; t < k0; ++t) {
            sp[t] = parent[sel[t]];
            sw[t] = weight[sel[t]];
        }
        int64_t widen = 0;
        int retired = sweep_row(sd, sp, sw, k0, totals, tie_tol,
                                k0 >= big_n, s.survival, s.seen, s.touched,
                                res);
        if (!retired && k0 < big_n) {
            /* Live at the prefix end: widen 4x per pass, as the oracle
             * does. */
            if (keys == NULL) {
                keys = (site_key *)malloc((size_t)big_n * sizeof(site_key));
                if (keys == NULL) {
                    rc = -1;
                    break;
                }
            }
            for (int64_t j = 0; j < big_n; ++j) {
                keys[j].d = dist[j];
                keys[j].j = j;
            }
            /* keys[0, width) is the sorted prefix swept so far; each
             * pass selects and sorts the next stretch from the rest. */
            int64_t width = 0;
            int64_t next = k0;
            while (!retired && next < big_n) {
                next = next * 4 < big_n ? next * 4 : big_n;
                widen += 1;
                select_smallest(keys, width, big_n, next);
                sort_keys(keys, width, next);
                for (; width < next; ++width) {
                    sd[width] = keys[width].d;
                    sp[width] = parent[keys[width].j];
                    sw[width] = weight[keys[width].j];
                }
                for (int64_t p = 0; p < n; ++p)
                    res[p] = 0.0;
                retired = sweep_row(sd, sp, sw, width, totals, tie_tol,
                                    width >= big_n, s.survival, s.seen,
                                    s.touched, res);
            }
        }
        if (widen > max_widen)
            max_widen = widen;
        answered += 1;
        /* Emit the row's non-zeros in parent order (every other entry
         * of res is already +0.0) and reset them for the next row. */
        for (int64_t p = 0; p < n; ++p) {
            const double v = res[p];
            if (v > 0.0) {
                ids[nnz] = p;
                probs[nnz] = v;
                ++nnz;
                res[p] = 0.0;
            }
        }
        indptr[i + 1] = nnz;
    }
    stats[0] = max_widen;
    stats[1] = answered;
    scratch_free(&s);
    free(dist);
    free(res);
    free(sel);
    free(sd);
    free(sp);
    free(sw);
    free(keys);
    return rc;
}

/* ------------------------------------------------------------------ */
/* Batched segment-pair intersection (geometry/segments.py).  Entries  */
/* with hit == 0 leave px/py at whatever the shared expressions        */
/* produced (possibly inf/nan from the zero-denominator division) —    */
/* unspecified by contract, exactly like the NumPy kernel.             */
/* ------------------------------------------------------------------ */
void repro_segment_intersections(const double *ax, const double *ay,
                                 const double *bx, const double *by,
                                 const int64_t *I, const int64_t *J,
                                 int64_t p, double tol,
                                 double *px, double *py, uint8_t *hit)
{
    const double slack = 1e-12;
    for (int64_t k = 0; k < p; ++k) {
        const int64_t i = I[k];
        const int64_t j = J[k];
        const double rx = bx[i] - ax[i];
        const double ry = by[i] - ay[i];
        const double sx = bx[j] - ax[j];
        const double sy = by[j] - ay[j];
        const double denom = rx * sy - ry * sx;
        double span = 1.0;
        const double ri = fabs(rx) + fabs(ry);
        if (ri > span)
            span = ri;
        const double sj = fabs(sx) + fabs(sy);
        if (sj > span)
            span = sj;
        const int ok = fabs(denom) > tol * span * span;
        const double qpx = ax[j] - ax[i];
        const double qpy = ay[j] - ay[i];
        const double t = (qpx * sy - qpy * sx) / denom;
        const double u = (qpx * ry - qpy * rx) / denom;
        hit[k] = (uint8_t)(ok && -slack <= t && t <= 1.0 + slack
                              && -slack <= u && u <= 1.0 + slack);
        px[k] = ax[i] + t * rx;
        py[k] = ay[i] + t * ry;
    }
}

/* ------------------------------------------------------------------ */
/* Batched Liang-Barsky line-to-box clip (geometry/segments.py).       */
/* Returns -1 when a coefficient row is degenerate (norm <= eps); the  */
/* Python wrapper raises the scalar kernel's ValueError.  Invalid rows */
/* still receive seg values (unspecified by contract).                 */
/* ------------------------------------------------------------------ */
int repro_line_box_clip(const double *A, const double *B, const double *C,
                        int64_t k, double xmin, double ymin, double xmax,
                        double ymax, double eps, double *segs,
                        uint8_t *valid)
{
    const double cx = 0.5 * (xmin + xmax);
    const double cy = 0.5 * (ymin + ymax);
    for (int64_t i = 0; i < k; ++i) {
        const double a = A[i];
        const double b = B[i];
        const double c = C[i];
        const double norm = sqrt(a * a + b * b);
        if (norm <= eps)
            return -1;
        const double offset = (a * cx + b * cy - c) / (norm * norm);
        const double px = cx - offset * a;
        const double py = cy - offset * b;
        const double dx = -b / norm;
        const double dy = a / norm;
        double t0 = -INFINITY;
        double t1 = INFINITY;
        int ok = 1;
        const double coords[2] = {px, py};
        const double dirs[2] = {dx, dy};
        const double los[2] = {xmin, ymin};
        const double his[2] = {xmax, ymax};
        for (int wall = 0; wall < 2; ++wall) {
            const double coord = coords[wall];
            const double d = dirs[wall];
            if (fabs(d) <= eps) {
                if (coord < los[wall] - eps || coord > his[wall] + eps)
                    ok = 0;
                continue;
            }
            double ta = (los[wall] - coord) / d;
            double tb = (his[wall] - coord) / d;
            if (ta > tb) {
                const double tmp = ta;
                ta = tb;
                tb = tmp;
            }
            if (ta > t0)
                t0 = ta;
            if (tb < t1)
                t1 = tb;
        }
        if (t0 >= t1)
            ok = 0;
        valid[i] = (uint8_t)ok;
        segs[4 * i + 0] = px + t0 * dx;
        segs[4 * i + 1] = py + t0 * dy;
        segs[4 * i + 2] = px + t1 * dx;
        segs[4 * i + 3] = py + t1 * dy;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Merged-slab tree point location (spatial/planelocate.py): per       */
/* query, a binary search for its slab, then a leaf-to-root walk of    */
/* the slab's tree path.  Each node's entry list is bisected for the   */
/* first entry whose edge-y at qx is >= qy (the slab oracle's exact    */
/* comparison arithmetic), and the best candidate minimizes the float  */
/* triple (y at qx, y at the query slab's midline, slope) — slope      */
/* breaking the degenerate tie where a sliver slab's midline rounds    */
/* onto qx.  The combine compares exact values, so the answer is       */
/* independent of path order and bitwise equal to the NumPy lanes.     */
/* offs has 2 * leaf_base + 1 entries (heap-indexed nodes 1..2L-1).    */
/* ------------------------------------------------------------------ */
void repro_plane_locate(const double *qx, const double *qy, int64_t m,
                        const double *xs, int64_t n_xs,
                        const int64_t *offs, int64_t leaf_base,
                        const int64_t *ent_u, const int64_t *ent_v,
                        const double *vx, const double *vy,
                        int64_t *best_out, uint8_t *found)
{
    const int64_t n_slabs = n_xs - 1;
    for (int64_t i = 0; i < m; ++i) {
        const double x = qx[i];
        const double y = qy[i];
        if (!(x >= xs[0] && x <= xs[n_xs - 1])) {
            best_out[i] = 0;
            found[i] = 0;
            continue;
        }
        /* searchsorted(xs, x, side="right") - 1, clamped to a slab. */
        int64_t sl = 0;
        int64_t sh = n_xs;
        while (sl < sh) {
            const int64_t mid = (sl + sh) >> 1;
            if (xs[mid] <= x)
                sl = mid + 1;
            else
                sh = mid;
        }
        int64_t slab = sl - 1;
        if (slab > n_slabs - 1)
            slab = n_slabs - 1;
        if (slab < 0)
            slab = 0;
        const double smid = 0.5 * (xs[slab] + xs[slab + 1]);
        int64_t best = -1;
        double best_y = 0.0;
        double best_m = 0.0;
        double best_s = 0.0;
        for (int64_t node = leaf_base + slab; node >= 1; node >>= 1) {
            int64_t lo = offs[node];
            int64_t hi = offs[node + 1];
            const int64_t end = hi;
            while (lo < hi) {
                const int64_t mid = (lo + hi) >> 1;
                const int64_t u = ent_u[mid];
                const int64_t v = ent_v[mid];
                const double pux = vx[u];
                const double t = (x - pux) / (vx[v] - pux);
                const double ey = vy[u] + t * (vy[v] - vy[u]);
                if (ey < y)
                    lo = mid + 1;
                else
                    hi = mid;
            }
            if (lo < end) {
                const int64_t u = ent_u[lo];
                const int64_t v = ent_v[lo];
                const double pux = vx[u];
                const double dx = vx[v] - pux;
                const double dy = vy[v] - vy[u];
                const double yc = vy[u] + ((x - pux) / dx) * dy;
                const double ym = vy[u] + ((smid - pux) / dx) * dy;
                const double sl2 = dy / dx;
                if (best < 0 || yc < best_y
                        || (yc == best_y && ym < best_m)
                        || (yc == best_y && ym == best_m && sl2 < best_s)) {
                    best = lo;
                    best_y = yc;
                    best_m = ym;
                    best_s = sl2;
                }
            }
        }
        best_out[i] = best < 0 ? 0 : best;
        found[i] = (uint8_t)(best >= 0);
    }
}
