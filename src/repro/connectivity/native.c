/*
 * Native lane of the batched MST kernel, the growth-curve sweep and the
 * drunkard walk.
 *
 * repro.connectivity.native builds this file with the system C compiler
 * (-O2 -ffp-contract=off, never -ffast-math) and loads it with ctypes.
 * Its three computing entry points are bit-identical to the NumPy code
 * they stand in for: repro.connectivity.critical_range._minimum_spanning_edges_batch_numpy,
 * repro.simulation.engine._growth_curve_columns_numpy and the step loop
 * of repro.mobility.drunkard.DrunkardModel.trajectory.  The rules that
 * keep them so are noted where they apply.  None keeps global state; the
 * caller allocates every output array.
 *
 * The kernel and the sweep return 0 on success and 1 when a scratch
 * allocation failed; the walk needs no scratch.
 *
 * The kernel has two Prim passes with the same edges.  The compacted
 * pass runs one frame at a time over the nodes still outside the tree.
 * The frame-parallel pass runs 8 frames at once, one per lane of a
 * 512-bit vector, over every node in index order.  It serves each full
 * group of 8 frames of 1 to 3 dimensions when the CPU has AVX-512F and
 * AVX-512DQ; the compacted pass serves everything else and is its
 * parity reference.  The CPU is asked at run time by repro_mst_lanes,
 * the fourth entry point, which returns 8 or 1 frames per pass.  Only the
 * frame-parallel functions are compiled for AVX-512, through target
 * attributes: the build flags carry no -march, because the cached
 * library's name does not record CPU features and a cache shared between
 * hosts must load on a CPU without AVX-512.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* Runs at most this long are insertion-sorted before merging. */
#define SORT_RUN 32

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
/* Frames per frame-parallel pass: the doubles of one 512-bit vector. */
#define WIDE_LANES 8
/*
 * DQ lets the compiler use byte-wide mask instructions for the 8-lane
 * masks; every AVX-512 CPU but the Xeon Phi has it.
 */
#define WIDE __attribute__((target("avx512f,avx512dq")))
#endif

typedef struct {
    double length;
    int64_t u;
    int64_t v;
} edge_t;

/* Stable insertion sort of edges[0:count] by length. */
static void insertion_sort(edge_t *edges, int64_t count)
{
    for (int64_t i = 1; i < count; ++i) {
        edge_t key = edges[i];
        int64_t j = i;
        while (j > 0 && edges[j - 1].length > key.length) {
            edges[j] = edges[j - 1];
            --j;
        }
        edges[j] = key;
    }
}

/*
 * Stable sort of edges[0:count] by length, as NumPy's argsort(kind="stable")
 * orders them: equal lengths keep their Prim order.  Returns the buffer
 * that holds the sorted edges (edges or spare).
 */
static edge_t *stable_sort(edge_t *edges, edge_t *spare, int64_t count)
{
    for (int64_t start = 0; start < count; start += SORT_RUN) {
        int64_t end = start + SORT_RUN < count ? start + SORT_RUN : count;
        insertion_sort(edges + start, end - start);
    }
    edge_t *from = edges, *to = spare;
    for (int64_t width = SORT_RUN; width < count; width *= 2) {
        for (int64_t left = 0; left < count; left += 2 * width) {
            int64_t middle = left + width < count ? left + width : count;
            int64_t right = left + 2 * width < count ? left + 2 * width : count;
            int64_t i = left, j = middle, k = left;
            while (i < middle && j < right)
                to[k++] = from[j].length < from[i].length ? from[j++] : from[i++];
            while (i < middle)
                to[k++] = from[i++];
            while (j < right)
                to[k++] = from[j++];
        }
        edge_t *swap = from;
        from = to;
        to = swap;
    }
    return from;
}

/* Stable-sort one frame's count edges and write them out as one row. */
static void write_sorted(edge_t *edges, edge_t *spare, int64_t count,
                         int64_t *us, int64_t *vs, double *lengths)
{
    edge_t *sorted = stable_sort(edges, spare, count);
    for (int64_t e = 0; e < count; ++e) {
        us[e] = sorted[e].u;
        vs[e] = sorted[e].v;
        lengths[e] = sorted[e].length;
    }
}

/*
 * One Prim pass over the nodes still outside the tree: update each one's
 * best squared distance against the node just chosen, and find the next
 * node to join, in the same pass.  The update keeps strict "<", as the
 * NumPy row update does, and is branchless.  Ties go to the smallest
 * original index, which is what NumPy's first-index argmin picks while
 * the tree nodes hold inf.  Always inlined, so a constant d unrolls the
 * axis loop.  Returns the position of the chosen node.
 */
static inline __attribute__((always_inline)) int64_t prim_pass(
    int64_t outside, int64_t n, int64_t d, const double *x, double *best,
    int64_t *parent, const int64_t *index, const double *chosen_point,
    int64_t chosen)
{
    int64_t pick = 0, pick_index = INT64_MAX;
    double pick_best = INFINITY;
    for (int64_t i = 0; i < outside; ++i) {
        /* (p_c,k - p_j,k)^2 summed over ascending k, as NumPy does. */
        double squared = 0.0;
        for (int64_t k = 0; k < d; ++k) {
            double delta = chosen_point[k] - x[k * n + i];
            squared += delta * delta;
        }
        double old = best[i];
        int64_t closer = -(int64_t)(squared < old);
        double value = squared < old ? squared : old;
        best[i] = value;
        parent[i] = (parent[i] & ~closer) | (chosen & closer);
        int64_t id = index[i];
        int better = (value < pick_best) | ((value == pick_best) & (id < pick_index));
        pick = better ? i : pick;
        pick_best = better ? value : pick_best;
        pick_index = better ? id : pick_index;
    }
    return pick;
}

/*
 * Prim's algorithm on one (n, d) frame, writing its n - 1 edges sorted by
 * squared length.  The nodes outside the tree stay compacted at the front
 * of index/best/parent and of the structure-of-arrays coordinates x (axis
 * k at x + k * n): a chosen node is swap-removed, so every pass touches
 * only the nodes still outside.  best starts at inf, so the first pass,
 * against node 0, fills it with node 0's squared distances.
 */
static void mst_frame(const double *frame, int64_t n, int64_t d, double *x,
                      double *best, int64_t *parent, int64_t *index,
                      double *chosen_point, edge_t *edges, edge_t *spare,
                      int64_t *us, int64_t *vs, double *lengths)
{
    int64_t outside = n - 1;
    for (int64_t i = 0; i < outside; ++i) {
        index[i] = i + 1;
        parent[i] = 0;
        best[i] = INFINITY;
        for (int64_t k = 0; k < d; ++k)
            x[k * n + i] = frame[(i + 1) * d + k];
    }
    int64_t chosen = 0;
    for (int64_t k = 0; k < d; ++k)
        chosen_point[k] = frame[k];
    for (int64_t step = 0; step < n - 1; ++step) {
        int64_t pick;
        switch (d) {
        case 1:
            pick = prim_pass(outside, n, 1, x, best, parent, index, chosen_point, chosen);
            break;
        case 2:
            pick = prim_pass(outside, n, 2, x, best, parent, index, chosen_point, chosen);
            break;
        case 3:
            pick = prim_pass(outside, n, 3, x, best, parent, index, chosen_point, chosen);
            break;
        default:
            pick = prim_pass(outside, n, d, x, best, parent, index, chosen_point, chosen);
        }
        edges[step].length = best[pick];
        edges[step].u = parent[pick];
        edges[step].v = index[pick];
        chosen = index[pick];
        for (int64_t k = 0; k < d; ++k)
            chosen_point[k] = x[k * n + pick];
        --outside;
        index[pick] = index[outside];
        parent[pick] = parent[outside];
        best[pick] = best[outside];
        for (int64_t k = 0; k < d; ++k)
            x[k * n + pick] = x[k * n + outside];
    }
    write_sorted(edges, spare, n - 1, us, vs, lengths);
}

/* Compacted passes over every frame of the batch, one frame at a time. */
static int mst_compacted(const double *points, int64_t batch, int64_t n,
                         int64_t d, int64_t *us, int64_t *vs, double *lengths)
{
    double *x = malloc(sizeof(double) * (size_t)(d * n + n + d));
    int64_t *ints = malloc(sizeof(int64_t) * (size_t)(2 * n));
    edge_t *edges = malloc(sizeof(edge_t) * (size_t)(2 * (n - 1)));
    if (x == NULL || ints == NULL || edges == NULL) {
        free(x);
        free(ints);
        free(edges);
        return 1;
    }
    double *best = x + d * n, *chosen_point = best + n;
    for (int64_t b = 0; b < batch; ++b) {
        int64_t row = b * (n - 1);
        mst_frame(points + b * n * d, n, d, x, best, ints, ints + n,
                  chosen_point, edges, edges + (n - 1),
                  us + row, vs + row, lengths + row);
    }
    free(x);
    free(ints);
    free(edges);
    return 0;
}

#ifdef WIDE_LANES
/*
 * One frame-parallel Prim pass, lane l on its own frame.  Each array
 * holds 8 doubles (or int64s) per entry, one per lane, 64-byte aligned:
 * x[i * d + k] is coordinate k of node i, best[i] and parent[i] node i's
 * best squared distance and parent, chosen_point[k] coordinate k of the
 * node just chosen.  Lane for lane this is prim_pass over all n nodes in
 * index order: the same sum and the same strict "<" update, and a strict
 * "<" pick, which in index order picks the smallest (value, index) as
 * prim_pass's tie-break does.  Each operation rounds on its own
 * (-ffp-contract=off covers vector expressions too).  A tree node holds
 * best = NaN, which no "<" selects, so it is never updated or picked.
 * Returns the chosen node of every lane.
 */
static inline __attribute__((always_inline)) WIDE __m512i wide_pass(
    int64_t n, int64_t d, const double *x, double *best, int64_t *parent,
    const double *chosen_point, __m512i chosen)
{
    __m512d chosen_axis[3];
    for (int64_t k = 0; k < d; ++k)
        chosen_axis[k] = _mm512_load_pd(chosen_point + k * WIDE_LANES);
    __m512d pick_best = _mm512_set1_pd(INFINITY);
    __m512i pick = _mm512_setzero_si512(), node = pick;
    const __m512i one = _mm512_set1_epi64(1);
    for (int64_t i = 0; i < n; ++i) {
        __m512d squared = _mm512_setzero_pd();
        for (int64_t k = 0; k < d; ++k) {
            __m512d delta = _mm512_sub_pd(
                chosen_axis[k], _mm512_load_pd(x + (i * d + k) * WIDE_LANES));
            squared = _mm512_add_pd(squared, _mm512_mul_pd(delta, delta));
        }
        __m512d old = _mm512_load_pd(best + i * WIDE_LANES);
        __mmask8 closer = _mm512_cmp_pd_mask(squared, old, _CMP_LT_OQ);
        __m512d value = _mm512_mask_mov_pd(old, closer, squared);
        _mm512_store_pd(best + i * WIDE_LANES, value);
        _mm512_mask_store_epi64(parent + i * WIDE_LANES, closer, chosen);
        __mmask8 better = _mm512_cmp_pd_mask(value, pick_best, _CMP_LT_OQ);
        pick_best = _mm512_mask_mov_pd(pick_best, better, value);
        pick = _mm512_mask_mov_epi64(pick, better, node);
        node = _mm512_add_epi64(node, one);
    }
    return pick;
}

/*
 * Prim on 8 consecutive (n, d) frames, d from 1 to 3, writing lane l's
 * n - 1 edges in Prim order to edges + l * (n - 1).  The scratch is
 * wide_pass's; chosen_point needs d entries.
 */
static WIDE void wide_group(const double *frames, int64_t n, int64_t d,
                            double *x, double *best, int64_t *parent,
                            double *chosen_point, edge_t *edges)
{
    for (int64_t lane = 0; lane < WIDE_LANES; ++lane)
        for (int64_t i = 0; i < n * d; ++i)
            x[i * WIDE_LANES + lane] = frames[lane * n * d + i];
    for (int64_t i = 0; i < n; ++i) {
        _mm512_store_pd(best + i * WIDE_LANES, _mm512_set1_pd(i == 0 ? NAN : INFINITY));
        _mm512_store_si512(parent + i * WIDE_LANES, _mm512_setzero_si512());
    }
    for (int64_t k = 0; k < d; ++k)
        _mm512_store_pd(chosen_point + k * WIDE_LANES, _mm512_load_pd(x + k * WIDE_LANES));
    __m512i chosen = _mm512_setzero_si512();
    int64_t picks[WIDE_LANES] __attribute__((aligned(64)));
    for (int64_t step = 0; step < n - 1; ++step) {
        switch (d) {
        case 1:
            chosen = wide_pass(n, 1, x, best, parent, chosen_point, chosen);
            break;
        case 2:
            chosen = wide_pass(n, 2, x, best, parent, chosen_point, chosen);
            break;
        default:
            chosen = wide_pass(n, 3, x, best, parent, chosen_point, chosen);
        }
        _mm512_store_si512(picks, chosen);
        for (int64_t lane = 0; lane < WIDE_LANES; ++lane) {
            int64_t pick = picks[lane], at = pick * WIDE_LANES + lane;
            edge_t *edge = edges + lane * (n - 1) + step;
            edge->length = best[at];
            edge->u = parent[at];
            edge->v = pick;
            best[at] = NAN;
            for (int64_t k = 0; k < d; ++k)
                chosen_point[k * WIDE_LANES + lane] = x[(pick * d + k) * WIDE_LANES + lane];
        }
    }
}

/* Frame-parallel passes over groups * 8 frames, d from 1 to 3. */
static WIDE int mst_wide(const double *points, int64_t groups, int64_t n,
                         int64_t d, int64_t *us, int64_t *vs, double *lengths)
{
    const size_t vector = sizeof(double) * WIDE_LANES;
    double *x = aligned_alloc(64, vector * (size_t)(d * n + n + d));
    int64_t *parent = aligned_alloc(64, vector * (size_t)n);
    edge_t *edges = malloc(sizeof(edge_t) * (size_t)((WIDE_LANES + 1) * (n - 1)));
    if (x == NULL || parent == NULL || edges == NULL) {
        free(x);
        free(parent);
        free(edges);
        return 1;
    }
    double *best = x + d * n * WIDE_LANES, *chosen_point = best + n * WIDE_LANES;
    edge_t *spare = edges + WIDE_LANES * (n - 1);
    for (int64_t group = 0; group < groups; ++group) {
        wide_group(points + group * WIDE_LANES * n * d, n, d, x, best, parent,
                   chosen_point, edges);
        for (int64_t lane = 0; lane < WIDE_LANES; ++lane) {
            int64_t row = (group * WIDE_LANES + lane) * (n - 1);
            write_sorted(edges + lane * (n - 1), spare, n - 1,
                         us + row, vs + row, lengths + row);
        }
    }
    free(x);
    free(parent);
    free(edges);
    return 0;
}
#endif

/* Frames per Prim pass on this CPU: 8 with AVX-512F and DQ, else 1. */
int repro_mst_lanes(void)
{
#ifdef WIDE_LANES
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq"))
        return WIDE_LANES;
#endif
    return 1;
}

/*
 * Sorted MST edges of every frame of a C-contiguous (batch, n, d) float64
 * array, n >= 2, into (batch, n - 1) rows of us, vs and lengths.  The
 * caller passes only finite coordinates of magnitude below 1e150, so every
 * squared distance is finite.  With 8 lanes and d from 1 to 3, each full
 * group of 8 frames takes the frame-parallel pass; the last batch mod 8
 * frames, and every frame otherwise, take the compacted pass.
 */
int repro_mst_batch(const double *points, int64_t batch, int64_t n, int64_t d,
                    int64_t *us, int64_t *vs, double *lengths)
{
    int64_t wide = 0;
#ifdef WIDE_LANES
    if (d >= 1 && d <= 3 && repro_mst_lanes() == WIDE_LANES) {
        wide = batch - batch % WIDE_LANES;
        if (wide > 0 && mst_wide(points, wide / WIDE_LANES, n, d, us, vs, lengths))
            return 1;
    }
#endif
    if (wide == batch)
        return 0;
    int64_t row = wide * (n - 1);
    return mst_compacted(points + wide * n * d, batch - wide, n, d,
                         us + row, vs + row, lengths + row);
}

/* The smallest double r with r * r >= squared (range_reaching in Python). */
static double range_reaching(double squared)
{
    if (squared <= 0.0)
        return 0.0;
    double radius = sqrt(squared);
    while (radius * radius < squared)
        radius = nextafter(radius, INFINITY);
    return radius;
}

/*
 * The union-find sweep over sorted MST edges, (batch, n - 1) rows, n >= 2,
 * rule for rule as the Python one: path halving, union by size (swapping
 * only when size[u] < size[v]), a breakpoint whenever the largest set
 * grows, equal breakpoint ranges of a frame coalesced into the last.
 * Writes each frame's critical range (its last breakpoint), the batch's
 * batch + 1 curve offsets and the flattened breakpoints; ranges and sizes
 * need room for batch * (n - 1) entries.  Returns 2, with the outputs
 * incomplete, at an edge endpoint outside [0, n).
 */
int repro_growth_curves(const int64_t *us, const int64_t *vs,
                        const double *lengths, int64_t batch, int64_t n,
                        double *critical, int64_t *offsets, double *ranges,
                        int64_t *sizes)
{
    int64_t *parent = malloc(sizeof(int64_t) * (size_t)(2 * n));
    if (parent == NULL)
        return 1;
    int64_t *size = parent + n;
    int64_t total = 0;
    offsets[0] = 0;
    for (int64_t b = 0; b < batch; ++b) {
        const int64_t row = b * (n - 1), start = total;
        int64_t largest = 1;
        for (int64_t i = 0; i < n; ++i) {
            parent[i] = i;
            size[i] = 1;
        }
        for (int64_t e = 0; e < n - 1; ++e) {
            int64_t u = us[row + e], v = vs[row + e];
            if ((uint64_t)u >= (uint64_t)n || (uint64_t)v >= (uint64_t)n) {
                free(parent);
                return 2;
            }
            while (parent[u] != u) {
                parent[u] = parent[parent[u]];
                u = parent[u];
            }
            while (parent[v] != v) {
                parent[v] = parent[parent[v]];
                v = parent[v];
            }
            if (size[u] < size[v]) {
                int64_t swap = u;
                u = v;
                v = swap;
            }
            parent[v] = u;
            size[u] += size[v];
            if (size[u] > largest) {
                largest = size[u];
                double radius = range_reaching(lengths[row + e]);
                if (total > start && ranges[total - 1] == radius) {
                    sizes[total - 1] = largest;
                } else {
                    ranges[total] = radius;
                    sizes[total] = largest;
                    ++total;
                }
            }
        }
        offsets[b + 1] = total;
        critical[b] = total > start ? ranges[total - 1] : 0.0;
    }
    free(parent);
    return 0;
}

/*
 * np.mod(x, period) for a period > 0, rule for rule as NumPy's float
 * remainder: fmod, plus period when the result is negative, and +0.0 for
 * a zero result of either sign.  fmod is exact, so libm and NumPy agree.
 */
static double python_mod(double x, double period)
{
    double mod = fmod(x, period);
    if (mod != 0.0) {
        if (mod < 0.0)
            mod += period;
    } else {
        mod = 0.0;
    }
    return mod;
}

/*
 * The drunkard walk: frames 1 .. steps - 1 of a C-contiguous (steps, n, d)
 * float64 array from its frame 0, the (steps - 1, n, d) step offsets and
 * the (steps - 1, n) mask of nodes that move, step by step as the NumPy
 * loop does.  A node adds its offset where it moves and 0.0 where it does
 * not (np.where(active, offsets, 0.0), so a -0.0 coordinate of a resting
 * node becomes +0.0).  A node with any coordinate outside [0, side] then
 * has every coordinate folded as Region.reflect folds the rows
 * _reflect_escapees picks: np.mod by 2 * side, then period - x above side.
 * Region and DrunkardModel refuse a non-finite side or step radius, so
 * the start and every offset the caller passes are finite.
 */
void repro_drunkard_walk(double *frames, int64_t steps, int64_t n, int64_t d,
                         const double *offsets, const uint8_t *active,
                         double side)
{
    const double period = 2.0 * side;
    const int64_t stride = n * d;
    for (int64_t t = 1; t < steps; ++t) {
        const double *previous = frames + (t - 1) * stride;
        const double *offset = offsets + (t - 1) * stride;
        const uint8_t *moves = active + (t - 1) * n;
        double *current = frames + t * stride;
        for (int64_t i = 0; i < n; ++i) {
            const int64_t row = i * d;
            int escaped = 0;
            for (int64_t k = 0; k < d; ++k) {
                double x = previous[row + k] + (moves[i] ? offset[row + k] : 0.0);
                current[row + k] = x;
                escaped |= (x < 0.0) | (x > side);
            }
            if (!escaped)
                continue;
            for (int64_t k = 0; k < d; ++k) {
                double x = python_mod(current[row + k], period);
                current[row + k] = x > side ? period - x : x;
            }
        }
    }
}
