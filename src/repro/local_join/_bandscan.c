/* Fused window scan + residual band test for the local-join kernels.
 *
 * One call handles one candidate chunk of the chunked interval kernel
 * (repro/local_join/kernels.py): for each probe row it walks the row's
 * window of the sorted side and tests every band dimension except the one
 * the window already decided, in exactly the float form of the numpy
 * residual mask:
 *
 *     diff = t - s;  keep iff diff >= -eps_left[i] && diff <= eps_right[i]
 *
 * A window entry k is a row of the sorted side, or, for a chunk re-sorted
 * on another dimension, row `slice_map[k] + lo`.  Survivors are written as
 * (probe_pos, window_pos) into two caller-owned int64 buffers, in the same
 * row-major order the numpy expansion produces.  With NULL output buffers
 * the call only counts.  No allocation, no Python objects: the caller
 * (ctypes) releases the GIL for the whole call.
 *
 * Build: cc -O2 -shared -fPIC -o _bandscan.so _bandscan.c
 */

#include <stdint.h>

/* Returns the number of surviving pairs, or -1 when a window leaves
 * [0, window_limit) or the windows hold more than `capacity` candidates. */
int64_t repro_band_scan(
    const double *restrict probe,          /* probe side, (rows, d)          */
    const double *restrict sorted,         /* sorted side, (rows, d)         */
    int64_t d,                             /* band dimensions                */
    int64_t start,                         /* first probe row of the chunk   */
    int64_t n,                             /* probe rows in the chunk        */
    const int64_t *restrict window_lows,   /* per-row first window row       */
    const int64_t *restrict window_counts, /* per-row window length          */
    int64_t window_limit,                  /* window entries lie below this  */
    const int64_t *restrict slice_map,     /* NULL, or window row -> offset  */
    int64_t lo,                            /* added to slice_map entries     */
    const double *restrict eps_left,
    const double *restrict eps_right,
    int64_t expand_dim,                    /* dimension the window decided   */
    int32_t probe_is_s,                    /* probe rows are S               */
    int64_t capacity,                      /* length of each output buffer   */
    int64_t *restrict out_probe,           /* NULL to count only             */
    int64_t *restrict out_window)
{
    int64_t kept = 0;
    int64_t budget = capacity;
    for (int64_t r = 0; r < n; ++r) {
        const int64_t base = window_lows[r];
        const int64_t count = window_counts[r];
        if (count <= 0)
            continue;
        if (base < 0 || base > window_limit - count || count > budget)
            return -1;
        budget -= count;
        const int64_t p = start + r;
        const double *prow = probe + p * d;
        for (int64_t k = base; k < base + count; ++k) {
            const int64_t w = slice_map ? slice_map[k] + lo : k;
            const double *wrow = sorted + w * d;
            /* Branch-free: about one candidate in ten survives, at random,
             * so a data-dependent branch here mispredicts constantly.  The
             * slot at `kept` is always written and only kept survivors
             * advance it; it stays below `capacity` because every
             * candidate was charged to the budget above. */
            int ok = 1;
            for (int64_t i = 0; i < d; ++i) {
                if (i == expand_dim)
                    continue;
                const double diff = probe_is_s ? wrow[i] - prow[i] : prow[i] - wrow[i];
                ok &= (diff >= -eps_left[i]) & (diff <= eps_right[i]);
            }
            if (out_probe) {
                out_probe[kept] = p;
                out_window[kept] = w;
            }
            kept += ok;
        }
    }
    return kept;
}
