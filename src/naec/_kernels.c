/* Per-bin kernels for naec.auxiva: the EWMA covariance update and the row solve.

   Complex values are interleaved doubles (re, im). ``cov`` is (K, D, D) and
   ``obs``, ``prev_rows`` and ``rows`` are (K, D), all C-contiguous; the
   caller checks shapes, dtypes and contiguity. The complex arithmetic is
   written out in real operations (a ``double complex`` product calls
   __muldc3) in the order of the numpy code in auxiva.py, and the file is
   built with -ffp-contract=off so no multiply-add is fused. */

#include <math.h>
#include <stdlib.h>

/* cov[k] <- alpha * cov[k] + (1 - alpha) * gain[k * gain_stride] * y y^H,
   y = obs[k]. The upper triangle is computed and its conjugate written into
   the lower one, so every covariance stays exactly Hermitian. A gain_stride
   of 0 shares gain[0] by all bins. */
void ewma(long n_bins, long dim, double *cov, const double *obs, double alpha,
          const double *gain, long gain_stride)
{
    for (long k = 0; k < n_bins; k++) {
        const double s = (1.0 - alpha) * gain[k * gain_stride];
        const double *y = obs + 2 * k * dim;
        double *v = cov + 2 * k * dim * dim;
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
        }
    }
}

/* rows[k] = [1; -(C + lambda I)^{-1} b] for cov[k] = [[a, b^H], [b, C]] and
   lambda = diag_load * tr(cov[k]) / D, by Gaussian elimination without
   pivoting on the augmented (D-1, D) matrix [C + lambda I | b]. A bin whose
   trace or solution is non-finite gets prev_rows[k]. Returns the number of
   such bins, or -1 if the workspace could not be allocated. */
long solve(long n_bins, long dim, const double *cov, const double *prev_rows,
           double diag_load, double *rows)
{
    const long n = dim - 1;
    double *a = malloc(sizeof(double) * 2 * (n * dim + n + 1));
    if (a == NULL)
        return -1;
    double *lower = a + 2 * n * dim;
    long skipped = 0;
    for (long k = 0; k < n_bins; k++) {
        const double *v = cov + 2 * k * dim * dim;
        double *row = rows + 2 * k * dim;
        double trace = 0.0;
        for (long d = 0; d < dim; d++)
            trace += v[2 * (d * dim + d)];
        int bad = !isfinite(trace);
        if (!bad) {
            const double load = diag_load * trace / dim;
            for (long i = 0; i < n; i++) {
                double *ai = a + 2 * i * dim;
                const double *vi = v + 2 * (i + 1) * dim;
                for (long j = 0; j < n; j++) {
                    ai[2 * j] = vi[2 * (j + 1)];
                    ai[2 * j + 1] = vi[2 * (j + 1) + 1];
                }
                ai[2 * n] = vi[0];
                ai[2 * n + 1] = vi[1];
                ai[2 * i] += load;
            }
            /* Forward elimination on the upper triangle: row j is final at
               step j; it is scaled by its real pivot and, by Hermitian
               symmetry, its conjugate gives the multipliers of the rows below. */
            for (long j = 0; j < n; j++) {
                double *aj = a + 2 * j * dim;
                const double inv_pivot = 1.0 / aj[2 * j];
                for (long i = j + 1; i < n; i++) {
                    lower[2 * i] = aj[2 * i];
                    lower[2 * i + 1] = -aj[2 * i + 1];
                }
                for (long c = j + 1; c <= n; c++) {
                    aj[2 * c] *= inv_pivot;
                    aj[2 * c + 1] *= inv_pivot;
                }
                for (long i = j + 1; i < n; i++) {
                    double *ai = a + 2 * i * dim;
                    const double lr = lower[2 * i], li = lower[2 * i + 1];
                    for (long c = i; c <= n; c++) {
                        const double br = aj[2 * c], bi = aj[2 * c + 1];
                        ai[2 * c] -= lr * br - li * bi;
                        ai[2 * c + 1] -= lr * bi + li * br;
                    }
                }
            }
            /* Back substitution on the unit upper triangle leaves
               (C + lambda I)^{-1} b in the last column. */
            for (long col = n - 1; col > 0; col--) {
                const double xr = a[2 * (col * dim + n)], xi = a[2 * (col * dim + n) + 1];
                for (long r = 0; r < col; r++) {
                    const double cr = a[2 * (r * dim + col)], ci = a[2 * (r * dim + col) + 1];
                    a[2 * (r * dim + n)] -= cr * xr - ci * xi;
                    a[2 * (r * dim + n) + 1] -= cr * xi + ci * xr;
                }
            }
            for (long i = 0; i < n && !bad; i++)
                bad = !isfinite(a[2 * (i * dim + n)]) || !isfinite(a[2 * (i * dim + n) + 1]);
        }
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
            row[2 * (i + 1)] = -a[2 * (i * dim + n)];
            row[2 * (i + 1) + 1] = -a[2 * (i * dim + n) + 1];
        }
    }
    free(a);
    return skipped;
}
