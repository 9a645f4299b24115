/* Per-bin kernels for naec.auxiva: the EWMA covariance update and the row solve.

   Complex values are interleaved doubles (re, im). ``cov`` is (K, D, D) and
   ``obs``, ``prev_rows`` and ``rows`` are (K, D), all C-contiguous; the
   caller checks shapes, dtypes and contiguity. The complex arithmetic is
   written out in real operations (a ``double complex`` product calls
   __muldc3) in the order of the numpy code in auxiva.py, and the file is
   built with -ffp-contract=off so no multiply-add is fused.

   ``solve`` works on blocks of LANES bins held in GCC/Clang vector types,
   one bin per lane: every vector operation is the scalar operation of one
   bin, done for LANES bins at once, so each bin's row is bit-identical to a
   one-bin-at-a-time solve. On x86-64 it is compiled for AVX-512F and for
   the baseline ISA, and the AVX-512F clone is picked when the library is
   loaded on a CPU that has it; the IEEE operations and their order are the
   same in both. On an AVX-512F Xeon the AVX-512F clone takes about half the
   baseline build's time at D = 10 and 19, and an AVX2 build was no faster
   than the baseline one, so none is made (BENCH_lane_solve.json). */

#include <math.h>
#include <stdlib.h>

#define LANES 8
typedef double v8 __attribute__((vector_size(LANES * sizeof(double))));

/* The values p[0][at], ..., p[LANES - 1][at] of the block's bins as one vector. */
_Static_assert(LANES == 8, "GATHER lists eight lanes");
#define GATHER(p, at) ((v8){(p)[0][at], (p)[1][at], (p)[2][at], (p)[3][at], \
                            (p)[4][at], (p)[5][at], (p)[6][at], (p)[7][at]})

/* Defining LANE_CLONES empty (-DLANE_CLONES=) builds one solve for the ISA
   the compiler targets. */
#ifndef LANE_CLONES
#if defined(__x86_64__)
#define LANE_CLONES __attribute__((target_clones("avx512f", "default")))
#else
#define LANE_CLONES
#endif
#endif

/* cov[k] <- alpha * cov[k] + (1 - alpha) * gain[k * gain_stride] * y y^H,
   y = obs[k]. The upper triangle is computed and its conjugate written into
   the lower one, so every covariance stays exactly Hermitian. A gain_stride
   of 0 shares gain[0] by all bins. Returns the number of bins whose updated
   trace, the sum of the real diagonal in index order as ``solve`` takes it,
   is not finite. */
long ewma(long n_bins, long dim, double *cov, const double *obs, double alpha,
          const double *gain, long gain_stride)
{
    long broken = 0;
    for (long k = 0; k < n_bins; k++) {
        const double s = (1.0 - alpha) * gain[k * gain_stride];
        const double *y = obs + 2 * k * dim;
        double *v = cov + 2 * k * dim * dim;
        double trace = 0.0;
        for (long i = 0; i < dim; i++) {
            const double yr = y[2 * i], yi = y[2 * i + 1];
            for (long j = i; j < dim; j++) {
                /* y_i conj(y_j) */
                const double zr = y[2 * j], zi = y[2 * j + 1];
                const double ur = yr * zr + yi * zi;
                const double ui = yi * zr - yr * zi;
                double *up = v + 2 * (i * dim + j);
                up[0] = up[0] * alpha + ur * s;
                up[1] = up[1] * alpha + ui * s;
                if (j > i) {
                    double *lo = v + 2 * (j * dim + i);
                    lo[0] = up[0];
                    lo[1] = -up[1];
                }
            }
            trace += v[2 * (i * dim + i)];
        }
        broken += !isfinite(trace);
    }
    return broken;
}

/* rows[k] = [1; -(C + lambda I)^{-1} b] for cov[k] = [[a, b^H], [b, C]] and
   lambda = diag_load * tr(cov[k]) / D, by Gaussian elimination without
   pivoting on the augmented (D-1, D) matrix [C + lambda I | b], LANES bins
   at a time. A block is gathered into real and imaginary planes of LANES
   bins each; a short last block repeats its last bin in the spare lanes.
   Only the upper triangle and the last column are read, as in a scalar
   elimination. A bin whose trace or solution is non-finite gets
   prev_rows[k]. Returns the number of such bins, or -1 if the workspace
   could not be allocated. */
LANE_CLONES
long solve(long n_bins, long dim, const double *cov, const double *prev_rows,
           double diag_load, double *rows)
{
    const long n = dim - 1;
    /* Entry (i, c) of the augmented matrix is re[i * dim + c] + i im[...];
       the multipliers of the current step follow in lower_re, lower_im. */
    v8 *re = aligned_alloc(sizeof(v8), sizeof(v8) * (2 * n * dim + 2 * n + 1));
    if (re == NULL)
        return -1;
    v8 *im = re + n * dim, *lower_re = im + n * dim, *lower_im = lower_re + n;
    long skipped = 0;
    for (long k0 = 0; k0 < n_bins; k0 += LANES) {
        const double *v[LANES];
        for (int l = 0; l < LANES; l++)
            v[l] = cov + 2 * (k0 + l < n_bins ? k0 + l : n_bins - 1) * dim * dim;
        v8 trace = {0.0};
        for (long d = 0; d < dim; d++)
            trace += GATHER(v, 2 * (d * dim + d));
        const v8 load = diag_load * trace / (double)dim;
        for (long i = 0; i < n; i++) {
            for (long c = i; c <= n; c++) {
                /* Column c < n of row i is cov[i + 1][c + 1]; column n is b. */
                const long at = 2 * ((i + 1) * dim + (c < n ? c + 1 : 0));
                re[i * dim + c] = GATHER(v, at);
                im[i * dim + c] = GATHER(v, at + 1);
            }
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
