/* Per-bin kernels for naec.auxiva: the EWMA covariance update and the row solve.

   The covariances are held in block-planar form: bins are grouped in blocks
   of LANES, and a block holds a real plane and an imaginary plane of the
   D(D+1)/2 upper-triangle entries in row-major order, each entry a vector of
   LANES bins. ``cov`` is (ceil(K / LANES), 2, D(D+1)/2, LANES) doubles,
   64-byte aligned; the lanes of a short last block past bin K - 1 hold copies
   of bin K - 1 and are updated with its observation and gain, so they stay
   equal to it. Row 0 holds conj(b), where b = cov[1:, 0] is the first column
   below the diagonal. ``obs``, ``prev_rows`` and ``rows`` are (K, D)
   interleaved complex doubles (re, im), C-contiguous; the caller checks
   shapes, dtypes, contiguity and alignment.

   Every vector operation is the scalar operation of one bin, done for LANES
   bins at once, so each bin's result is bit-identical to a one-bin-at-a-time
   computation. The complex arithmetic is written out in real operations (a
   ``double complex`` product calls __muldc3), and the file is built with
   -ffp-contract=off so no multiply-add is fused. On x86-64 both kernels are
   compiled for AVX-512F and for the baseline ISA, and the AVX-512F clone is
   picked when the library is loaded on a CPU that has it; the IEEE
   operations and their order are the same in both. On an AVX-512F Xeon the
   AVX-512F clone of the solve takes about half the baseline build's time at
   D = 10 and 19, and an AVX2 build was no faster than the baseline one, so
   none is made (BENCH_lane_solve.json). */

#include <math.h>
#include <stdlib.h>

#define LANES 8
typedef double v8 __attribute__((vector_size(LANES * sizeof(double))));

/* Defining LANE_CLONES empty (-DLANE_CLONES=) builds each kernel for the
   ISA the compiler targets only. */
#ifndef LANE_CLONES
#if defined(__x86_64__)
#define LANE_CLONES __attribute__((target_clones("avx512f", "default")))
#else
#define LANE_CLONES
#endif
#endif

/* Index of the upper-triangle entry (i, j), i <= j, in a plane. */
static long upper(long dim, long i, long j)
{
    return i * dim - i * (i - 1) / 2 + (j - i);
}

/* cov[k] <- alpha * cov[k] + (1 - alpha) * gain[k * gain_stride] * y y^H,
   y = obs[k], on the upper triangle. A gain_stride of 0 shares gain[0] by
   all bins. Returns the number of bins whose updated trace, the sum of the
   real diagonal in index order as ``solve`` takes it, is not finite, or -1
   if the workspace could not be allocated. */
LANE_CLONES
long ewma(long n_bins, long dim, v8 *cov, const double *obs, double alpha,
          const double *gain, long gain_stride)
{
    const long tri = dim * (dim + 1) / 2;
    /* The block's observations as real and imaginary planes. */
    v8 *yr = aligned_alloc(sizeof(v8), sizeof(v8) * 2 * dim);
    if (yr == NULL)
        return -1;
    v8 *yi = yr + dim;
    long broken = 0;
    for (long k0 = 0; k0 < n_bins; k0 += LANES) {
        v8 *re = cov + 2 * (k0 / LANES) * tri, *im = re + tri;
        v8 s;
        for (int l = 0; l < LANES; l++) {
            const long k = k0 + l < n_bins ? k0 + l : n_bins - 1;
            s[l] = (1.0 - alpha) * gain[k * gain_stride];
            for (long i = 0; i < dim; i++) {
                yr[i][l] = obs[2 * (k * dim + i)];
                yi[i][l] = obs[2 * (k * dim + i) + 1];
            }
        }
        v8 trace = {0.0};
        for (long i = 0, t = 0; i < dim; i++) {
            const long diag = t;
            for (long j = i; j < dim; j++, t++) {
                /* y_i conj(y_j) */
                const v8 ur = yr[i] * yr[j] + yi[i] * yi[j];
                const v8 ui = yi[i] * yr[j] - yr[i] * yi[j];
                re[t] = re[t] * alpha + ur * s;
                im[t] = im[t] * alpha + ui * s;
            }
            trace += re[diag];
        }
        for (int l = 0; l < LANES && k0 + l < n_bins; l++)
            broken += !isfinite(trace[l]);
    }
    free(yr);
    return broken;
}

/* rows[k] = [1; -(C + lambda I)^{-1} b] for cov[k] = [[a, b^H], [b, C]] and
   lambda = diag_load * tr(cov[k]) / D, by Gaussian elimination without
   pivoting on the augmented (D-1, D) matrix [C + lambda I | b], LANES bins
   at a time. The matrix is copied from the block's planes: the upper
   triangle of C and b = conj(row 0), as a scalar elimination reads them. A
   bin whose trace or solution is non-finite gets prev_rows[k]. Returns the
   number of such bins, or -1 if the workspace could not be allocated. */
LANE_CLONES
long solve(long n_bins, long dim, const v8 *cov, const double *prev_rows,
           double diag_load, double *rows)
{
    const long n = dim - 1, tri = dim * (dim + 1) / 2;
    /* Entry (i, c) of the augmented matrix is re[i * dim + c] + i im[...];
       the multipliers of the current step follow in lower_re, lower_im. */
    v8 *re = aligned_alloc(sizeof(v8), sizeof(v8) * (2 * n * dim + 2 * n + 1));
    if (re == NULL)
        return -1;
    v8 *im = re + n * dim, *lower_re = im + n * dim, *lower_im = lower_re + n;
    long skipped = 0;
    for (long k0 = 0; k0 < n_bins; k0 += LANES) {
        const v8 *vr = cov + 2 * (k0 / LANES) * tri, *vi = vr + tri;
        v8 trace = {0.0};
        for (long d = 0; d < dim; d++)
            trace += vr[upper(dim, d, d)];
        const v8 load = diag_load * trace / (double)dim;
        for (long i = 0; i < n; i++) {
            /* Column c < n of row i is cov[i + 1][c + 1]; column n is b. */
            const long row = upper(dim, i + 1, i + 1) - i;
            for (long c = i; c < n; c++) {
                re[i * dim + c] = vr[row + c];
                im[i * dim + c] = vi[row + c];
            }
            re[i * dim + n] = vr[i + 1];
            im[i * dim + n] = -vi[i + 1];
            re[i * dim + i] += load;
        }
        /* Forward elimination on the upper triangle: row j is final at step
           j; it is scaled by its real pivot and, by Hermitian symmetry, its
           conjugate gives the multipliers of the rows below. */
        for (long j = 0; j < n; j++) {
            v8 *rj = re + j * dim, *ij = im + j * dim;
            const v8 inv_pivot = 1.0 / rj[j];
            for (long i = j + 1; i < n; i++) {
                lower_re[i] = rj[i];
                lower_im[i] = -ij[i];
            }
            for (long c = j + 1; c <= n; c++) {
                rj[c] *= inv_pivot;
                ij[c] *= inv_pivot;
            }
            for (long i = j + 1; i < n; i++) {
                v8 *ri = re + i * dim, *ii = im + i * dim;
                const v8 lr = lower_re[i], li = lower_im[i];
                for (long c = i; c <= n; c++) {
                    const v8 br = rj[c], bi = ij[c];
                    ri[c] -= lr * br - li * bi;
                    ii[c] -= lr * bi + li * br;
                }
            }
        }
        /* Back substitution on the unit upper triangle leaves
           (C + lambda I)^{-1} b in the last column. */
        for (long col = n - 1; col > 0; col--) {
            const v8 xr = re[col * dim + n], xi = im[col * dim + n];
            for (long r = 0; r < col; r++) {
                const v8 cr = re[r * dim + col], ci = im[r * dim + col];
                re[r * dim + n] -= cr * xr - ci * xi;
                im[r * dim + n] -= cr * xi + ci * xr;
            }
        }
        for (int l = 0; l < LANES && k0 + l < n_bins; l++) {
            const long k = k0 + l;
            double *row = rows + 2 * k * dim;
            int bad = !isfinite(trace[l]);
            for (long i = 0; i < n && !bad; i++)
                bad = !isfinite(re[i * dim + n][l]) || !isfinite(im[i * dim + n][l]);
            if (bad) {
                const double *prev = prev_rows + 2 * k * dim;
                for (long d = 0; d < 2 * dim; d++)
                    row[d] = prev[d];
                skipped++;
                continue;
            }
            row[0] = 1.0;
            row[1] = 0.0;
            for (long i = 0; i < n; i++) {
                row[2 * (i + 1)] = -re[i * dim + n][l];
                row[2 * (i + 1) + 1] = -im[i * dim + n][l];
            }
        }
    }
    free(re);
    return skipped;
}
