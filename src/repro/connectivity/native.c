/*
 * Native lane of the batched MST kernel, the growth-curve sweep and the
 * two mobility models' trajectories.
 *
 * repro.connectivity.native builds this file with the system C compiler
 * (-O2 -ffp-contract=off, never -ffast-math) and loads it with ctypes.
 * Its four computing entry points are bit-identical to the NumPy code
 * they stand in for:
 *
 *   repro_mst_batch             critical_range._minimum_spanning_edges_batch_numpy
 *   repro_growth_curves         engine._growth_curve_columns_numpy
 *   repro_drunkard_walk         DrunkardModel.trajectory's decode and step
 *                               loop, in one and two dimensions
 *   repro_waypoint_trajectory   RandomWaypointModel._fill_frames, the
 *                               event loop, in one to three dimensions
 *
 * The rules that keep them so are noted where they apply.  Three hold
 * throughout: every operation rounds on its own (no fused multiply-add);
 * sqrt, sin and cos are glibc's, whose bits NumPy 2.4's float64 np.sqrt,
 * np.sin and np.cos share (np.log does not, so the drunkard's Box-Muller
 * decode above two dimensions stays in NumPy); and the waypoint model
 * draws through NumPy's public bitgen_t, as Generator.uniform does.  None
 * keeps global state; the caller allocates every output array.
 *
 * The kernel, the sweep and the waypoint trajectory return 0 on success
 * and 1 when a scratch allocation failed; the walk needs no scratch.
 *
 * The kernel has two Prim passes with the same edges.  The compacted
 * pass runs one frame at a time over the nodes still outside the tree,
 * then merge-sorts the frame's edges.  The frame-parallel pass runs 8
 * frames at once, one per lane of a 512-bit vector, over every node in
 * index order, then sorts the 8 frames' edges with one sorting network.
 * It serves each full group of 8 frames of 1 to 3 dimensions when the
 * CPU has AVX-512F and AVX-512DQ; the compacted pass serves everything
 * else and is its parity reference.  The CPU is asked at run time by
 * repro_mst_lanes, the fifth entry point, which returns 8 or 1 frames per
 * pass.  Only the frame-parallel functions are compiled for AVX-512,
 * through target attributes: the build flags carry no -march, because
 * the cached library's name does not record CPU features and a cache
 * shared between hosts must load on a CPU without AVX-512.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* NumPy's bit generator interface, numpy/random/bitgen.h. */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *state);
    uint32_t (*next_uint32)(void *state);
    double (*next_double)(void *state);
    uint64_t (*next_raw)(void *state);
} bitgen_t;

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
 * Prim on 8 consecutive (n, d) frames, d from 1 to 3.  Lane l's edge
 * number e in Prim order lands in lane l of entry e of length, u and v,
 * 8 values per entry like the scratch.  The scratch is wide_pass's;
 * chosen_point needs d entries.
 */
static WIDE void wide_group(const double *frames, int64_t n, int64_t d,
                            double *x, double *best, int64_t *parent,
                            double *chosen_point, double *length, int64_t *u,
                            int64_t *v)
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
        _mm512_store_si512(v + step * WIDE_LANES, chosen);
        for (int64_t lane = 0; lane < WIDE_LANES; ++lane) {
            int64_t pick = picks[lane], at = pick * WIDE_LANES + lane;
            length[step * WIDE_LANES + lane] = best[at];
            u[step * WIDE_LANES + lane] = parent[at];
            best[at] = NAN;
            for (int64_t k = 0; k < d; ++k)
                chosen_point[k * WIDE_LANES + lane] = x[(pick * d + k) * WIDE_LANES + lane];
        }
    }
}

/*
 * One comparator of the sorting network, in every lane at once: entry i
 * keeps the smaller (length, position) key and entry j the larger.
 */
static inline __attribute__((always_inline)) WIDE void wide_exchange(
    double *length, int64_t *position, int64_t i, int64_t j)
{
    __m512d a = _mm512_load_pd(length + i * WIDE_LANES);
    __m512d b = _mm512_load_pd(length + j * WIDE_LANES);
    __m512i p = _mm512_load_si512(position + i * WIDE_LANES);
    __m512i q = _mm512_load_si512(position + j * WIDE_LANES);
    __mmask8 swap = _mm512_cmp_pd_mask(b, a, _CMP_LT_OQ)
        | (_mm512_cmp_pd_mask(b, a, _CMP_EQ_OQ) & _mm512_cmplt_epi64_mask(q, p));
    _mm512_store_pd(length + i * WIDE_LANES, _mm512_mask_mov_pd(a, swap, b));
    _mm512_store_pd(length + j * WIDE_LANES, _mm512_mask_mov_pd(b, swap, a));
    _mm512_store_si512(position + i * WIDE_LANES, _mm512_mask_mov_epi64(p, swap, q));
    _mm512_store_si512(position + j * WIDE_LANES, _mm512_mask_mov_epi64(q, swap, p));
}

/*
 * Sort entries 0 .. size - 1 of every lane by (length, position), size a
 * power of two, with a bitonic sorting network: the same comparators in
 * every lane, so the lanes never branch apart.  Each lane's positions are
 * distinct, so its keys are, and the sorted order is the only one: the
 * order of stable_sort, which breaks ties of length by Prim position.
 */
static WIDE void wide_sort(double *length, int64_t *position, int64_t size)
{
    for (int64_t block = 2; block <= size; block *= 2) {
        for (int64_t i = 0; i < size; ++i)
            if ((i & (block / 2)) == 0)
                wide_exchange(length, position, i, i ^ (block - 1));
        for (int64_t stride = block / 4; stride > 0; stride /= 2)
            for (int64_t i = 0; i < size; ++i)
                if ((i & stride) == 0)
                    wide_exchange(length, position, i, i | stride);
    }
}

/*
 * Frame-parallel passes over groups * 8 frames, d from 1 to 3.  The n - 1
 * edges of each lane are padded to a power of two with +inf lengths, which
 * sort after every finite one, before the network sorts them.
 */
static WIDE int mst_wide(const double *points, int64_t groups, int64_t n,
                         int64_t d, int64_t *us, int64_t *vs, double *lengths)
{
    const int64_t edges = n - 1;
    int64_t size = 1;
    while (size < edges)
        size *= 2;
    const size_t vector = sizeof(double) * WIDE_LANES;
    double *x = aligned_alloc(64, vector * (size_t)(d * n + n + d + size));
    int64_t *parent = aligned_alloc(64, vector * (size_t)(n + size + 2 * edges));
    if (x == NULL || parent == NULL) {
        free(x);
        free(parent);
        return 1;
    }
    double *best = x + d * n * WIDE_LANES, *chosen_point = best + n * WIDE_LANES;
    double *length = chosen_point + d * WIDE_LANES;
    int64_t *position = parent + n * WIDE_LANES, *u = position + size * WIDE_LANES;
    int64_t *v = u + edges * WIDE_LANES;
    for (int64_t group = 0; group < groups; ++group) {
        wide_group(points + group * WIDE_LANES * n * d, n, d, x, best, parent,
                   chosen_point, length, u, v);
        for (int64_t e = 0; e < size; ++e) {
            if (e >= edges)
                _mm512_store_pd(length + e * WIDE_LANES, _mm512_set1_pd(INFINITY));
            _mm512_store_si512(position + e * WIDE_LANES, _mm512_set1_epi64(e));
        }
        wide_sort(length, position, size);
        for (int64_t lane = 0; lane < WIDE_LANES; ++lane) {
            int64_t row = (group * WIDE_LANES + lane) * edges;
            for (int64_t e = 0; e < edges; ++e) {
                int64_t at = position[e * WIDE_LANES + lane] * WIDE_LANES + lane;
                us[row + e] = u[at];
                vs[row + e] = v[at];
                lengths[row + e] = length[e * WIDE_LANES + lane];
            }
        }
    }
    free(x);
    free(parent);
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
 * The drunkard walk in d = 1 or 2 dimensions: frames 1 .. steps - 1 of a
 * C-contiguous (steps, n, d) float64 array from its frame 0 and the
 * (steps - 1, n, 3) uniform block of DrunkardModel.trajectory, step by
 * step as its NumPy decode and loop do.  A node moves when it is not
 * stationary and its pause coin u0 >= ppause; its offset is then
 * _decode_block's: (u2 < 0.5 ? -1 : 1) * (radius * u1) in one dimension,
 * (cos(a) * r, sin(a) * r) with r = radius * sqrt(u1) and
 * a = (2 * pi) * u2 in two.  A node adds its offset where it moves and
 * 0.0 where it does not (np.where(active, offsets, 0.0), so a -0.0
 * coordinate of a resting node becomes +0.0).  A node with any coordinate
 * outside [0, side] then has every coordinate folded as Region.reflect
 * folds the rows _reflect_escapees picks: np.mod by 2 * side, then
 * period - x above side.  Region and DrunkardModel refuse a non-finite
 * side or step radius, so every coordinate stays finite.
 */
void repro_drunkard_walk(double *frames, int64_t steps, int64_t n, int64_t d,
                         const double *uniforms, const uint8_t *stationary,
                         double ppause, double radius, double side)
{
    const double period = 2.0 * side, turn = 2.0 * M_PI;
    const int64_t stride = n * d;
    for (int64_t t = 1; t < steps; ++t) {
        const double *previous = frames + (t - 1) * stride;
        const double *block = uniforms + (t - 1) * n * 3;
        double *current = frames + t * stride;
        for (int64_t i = 0; i < n; ++i) {
            const double *u = block + i * 3;
            double offset[2] = {0.0, 0.0};
            if (!stationary[i] && u[0] >= ppause) {
                if (d == 1) {
                    offset[0] = (u[2] < 0.5 ? -1.0 : 1.0) * (radius * u[1]);
                } else {
                    double r = radius * sqrt(u[1]), angle = turn * u[2];
                    offset[0] = cos(angle) * r;
                    offset[1] = sin(angle) * r;
                }
            }
            const int64_t row = i * d;
            int escaped = 0;
            for (int64_t k = 0; k < d; ++k) {
                double x = previous[row + k] + offset[k];
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

/* Arrivals this many steps away or more lie beyond any horizon. */
#define DISTANT_ARRIVAL ((int64_t)1 << 60)
/* Region.contains's tolerance, which the per-step clamp tests. */
#define CONTAINMENT_TOLERANCE 1e-9

/* Generator.uniform(low, high): low + (high - low) * next_double. */
static double uniform(bitgen_t *bitgen, double low, double high)
{
    return low + (high - low) * bitgen->next_double(bitgen->state);
}

/*
 * waypoint._steps_to_arrival for one leg: the smallest j >= 1 with
 * speed * (elapsed + j) >= length, from the estimate
 * ceil(length / speed) - elapsed corrected against that predicate, or
 * DISTANT_ARRIVAL, uncorrected, for an estimate that far away.
 */
static int64_t steps_to_arrival(double speed, int64_t elapsed, double length)
{
    double estimate = ceil(length / speed) - (double)elapsed;
    if (!(estimate < (double)DISTANT_ARRIVAL))
        return DISTANT_ARRIVAL;
    int64_t attempts = (int64_t)(estimate > 1.0 ? estimate : 1.0);
    while (attempts > 1 && speed * (double)(elapsed + attempts - 1) >= length)
        --attempts;
    while (speed * (double)(elapsed + attempts) < length)
        ++attempts;
    return attempts;
}

/*
 * The fill_node closure of RandomWaypointModel._fill_frames: frames
 * filled[i] + 1 .. until of node i, first what is left of its pause
 * (frame filled[i] repeated), then its cruise, each position the closed
 * form origin + unit * (speed * elapsed) of step().
 */
static void fill_node(double *frames, int64_t stride, int64_t d, int64_t i,
                      int64_t until, int64_t *filled, int64_t *pause,
                      int64_t *elapsed, const double *speeds,
                      const double *origins, const double *units)
{
    int64_t start = filled[i] + 1;
    if (start > until)
        return;
    int64_t span = until - start + 1;
    int64_t resting = pause[i] < span ? pause[i] : span;
    const double *held = frames + filled[i] * stride + i * d;
    double *out = frames + start * stride + i * d;
    for (int64_t t = 0; t < resting; ++t, out += stride)
        for (int64_t k = 0; k < d; ++k)
            out[k] = held[k];
    pause[i] -= resting;
    const double *origin = origins + i * d, *unit = units + i * d;
    for (int64_t e = elapsed[i] + 1; e <= elapsed[i] + span - resting; ++e, out += stride) {
        double travelled = speeds[i] * (double)e;
        for (int64_t k = 0; k < d; ++k)
            out[k] = origin[k] + unit[k] * travelled;
    }
    elapsed[i] += span - resting;
    filled[i] = until;
}

/*
 * RandomWaypointModel._fill_frames: frames 1 .. steps - 1 of a
 * C-contiguous (steps, n, d) float64 array from its frame 0, d from 1 to
 * 3, advancing the model's seven per-node arrays in place (destinations,
 * speeds, pause, origins, units, lengths and elapsed, the model's
 * _destinations ... _leg_elapsed).  Event by event as the Python loop: at
 * each step where nodes arrive, every arriving node (in index order) is
 * filled up to it and snaps to its destination, then Region.sample_uniform
 * draws all of their new destinations and Generator.uniform their speeds,
 * and _begin_leg starts their legs (the length a sum of squares over
 * ascending k, as np.sum adds d < 8 terms).  Then every node is filled to
 * the end, the stationary nodes are pinned to frame 0, and every frame
 * with a coordinate outside the containment tolerance is clipped to
 * [0, side] as np.clip does (-0.0 stays -0.0).  The caller holds the bit
 * generator's lock.
 */
int repro_waypoint_trajectory(double *frames, int64_t steps, int64_t n,
                              int64_t d, double *destinations, double *speeds,
                              int64_t *pause, double *origins, double *units,
                              double *lengths, int64_t *elapsed,
                              const uint8_t *stationary, double side,
                              double vmin, double vmax, int64_t tpause,
                              bitgen_t *bitgen)
{
    int64_t *next_arrival = malloc(sizeof(int64_t) * (size_t)(3 * n));
    if (next_arrival == NULL)
        return 1;
    int64_t *filled = next_arrival + n, *arriving = filled + n;
    const int64_t last = steps - 1, stride = n * d;
    for (int64_t i = 0; i < n; ++i) {
        next_arrival[i] = pause[i] + steps_to_arrival(speeds[i], elapsed[i], lengths[i]);
        filled[i] = 0;
    }
    for (;;) {
        int64_t event = INT64_MAX, count = 0;
        for (int64_t i = 0; i < n; ++i)
            event = next_arrival[i] < event ? next_arrival[i] : event;
        if (event > last)
            break;
        for (int64_t i = 0; i < n; ++i)
            if (next_arrival[i] == event)
                arriving[count++] = i;
        for (int64_t a = 0; a < count; ++a) {
            const int64_t i = arriving[a];
            fill_node(frames, stride, d, i, event - 1, filled, pause, elapsed,
                      speeds, origins, units);
            for (int64_t k = 0; k < d; ++k)
                frames[event * stride + i * d + k] = origins[i * d + k] = destinations[i * d + k];
            filled[i] = event;
            pause[i] = tpause;
        }
        for (int64_t a = 0; a < count; ++a)
            for (int64_t k = 0; k < d; ++k)
                destinations[arriving[a] * d + k] = uniform(bitgen, 0.0, side);
        for (int64_t a = 0; a < count; ++a)
            speeds[arriving[a]] = uniform(bitgen, vmin, vmax);
        for (int64_t a = 0; a < count; ++a) {
            const int64_t i = arriving[a];
            double delta[3], squared = 0.0;
            for (int64_t k = 0; k < d; ++k) {
                delta[k] = destinations[i * d + k] - origins[i * d + k];
                squared += delta[k] * delta[k];
            }
            lengths[i] = sqrt(squared);
            const double safe = lengths[i] > 0.0 ? lengths[i] : 1.0;
            for (int64_t k = 0; k < d; ++k)
                units[i * d + k] = delta[k] / safe;
            elapsed[i] = 0;
            next_arrival[i] = event + tpause + steps_to_arrival(speeds[i], 0, lengths[i]);
        }
    }
    for (int64_t i = 0; i < n; ++i)
        fill_node(frames, stride, d, i, last, filled, pause, elapsed, speeds,
                  origins, units);
    for (int64_t i = 0; i < n; ++i)
        if (stationary[i])
            for (int64_t t = 1; t <= last; ++t)
                for (int64_t k = 0; k < d; ++k)
                    frames[t * stride + i * d + k] = frames[i * d + k];
    const double low = -CONTAINMENT_TOLERANCE, high = side + CONTAINMENT_TOLERANCE;
    for (int64_t t = 0; t <= last; ++t) {
        double *frame = frames + t * stride;
        int outside = 0;
        for (int64_t j = 0; j < stride; ++j)
            outside |= !((frame[j] >= low) & (frame[j] <= high));
        if (outside)
            for (int64_t j = 0; j < stride; ++j)
                frame[j] = frame[j] < 0.0 ? 0.0 : (frame[j] > side ? side : frame[j]);
    }
    free(next_arrival);
    return 0;
}
