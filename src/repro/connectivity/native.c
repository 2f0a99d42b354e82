/*
 * Native lane of the batched MST kernel, the growth-curve sweep and the
 * drunkard walk.
 *
 * repro.connectivity.native builds this file with the system C compiler
 * (-O2 -ffp-contract=off, never -ffast-math) and loads it with ctypes.
 * The three entry points are bit-identical to the NumPy code they stand
 * in for: repro.connectivity.critical_range._minimum_spanning_edges_batch_numpy,
 * repro.simulation.engine._growth_curve_columns_numpy and the step loop
 * of repro.mobility.drunkard.DrunkardModel.trajectory.  The rules that
 * keep them so are noted where they apply.  None keeps global state; the
 * caller allocates every output array.
 *
 * The kernel and the sweep return 0 on success and 1 when a scratch
 * allocation failed; the walk needs no scratch.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* Runs at most this long are insertion-sorted before merging. */
#define SORT_RUN 32

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
    edge_t *sorted = stable_sort(edges, spare, n - 1);
    for (int64_t e = 0; e < n - 1; ++e) {
        us[e] = sorted[e].u;
        vs[e] = sorted[e].v;
        lengths[e] = sorted[e].length;
    }
}

/*
 * Sorted MST edges of every frame of a C-contiguous (batch, n, d) float64
 * array, n >= 2, into (batch, n - 1) rows of us, vs and lengths.  The
 * caller passes only finite coordinates of magnitude below 1e150, so every
 * squared distance is finite.
 */
int repro_mst_batch(const double *points, int64_t batch, int64_t n, int64_t d,
                    int64_t *us, int64_t *vs, double *lengths)
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
