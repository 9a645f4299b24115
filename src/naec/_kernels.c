/* Per-frame kernels for naec.auxiva and naec.ilrma:
     ewma          the EWMA covariance update;
     solve         the row solve, which also demixes the frame with the new rows;
     demix         AuxIVA's demix with the previous rows;
     ilrma_weight  ILRMA's demix with the previous rows, NMF updates and 1/r1;
   and for the engine's framing in naec.pipeline, around numpy's FFTs:
     frame_in      the far end's odd powers, the finite check, the time
                   buffer's shift and the analysis window;
     stack         the frame's spectra into the observations, lags in place;
     ola           the synthesis window, overlap-add, norm and shift.
   The framing kernels are scalar and make copies and elementwise products
   only, the operations of the numpy code they replace.

   The covariances are held in block-planar form: bins are grouped in blocks
   of LANES, and a block holds a real plane and an imaginary plane of the
   D(D+1)/2 upper-triangle entries in row-major order, each entry a vector of
   LANES bins. ``cov`` is (ceil(K / LANES), 2, D(D+1)/2, LANES) doubles,
   64-byte aligned; the lanes of a short last block past bin K - 1 hold copies
   of bin K - 1 and are updated with its observation and gain, so they stay
   equal to it. Row 0 holds conj(b), where b = cov[1:, 0] is the first column
   below the diagonal. ``obs``, ``prev_rows`` and ``rows`` are (K, D)
   interleaved complex doubles (re, im), C-contiguous, and a demixed frame
   is (K,) of them; the caller checks shapes, dtypes, contiguity and
   alignment.

   Every vector operation is the scalar operation of one bin, done for LANES
   bins at once, so each bin's result is bit-identical to a one-bin-at-a-time
   computation. The complex arithmetic is written out in real operations (a
   ``double complex`` product calls __muldc3), and the file is built with
   -ffp-contract=off so no multiply-add is fused. The demixes do the
   operations of numpy's einsum in its order and give its bytes; ILRMA's
   NMF updates agree with the numpy ones to rounding, not bytes (see
   ilrma.py). On x86-64 the lane kernels are compiled for AVX-512F and for
   the baseline ISA, and the AVX-512F clone is picked when the library is
   loaded on a CPU that has it; the IEEE operations and their order are the
   same in both. A static helper is compiled once, for the baseline ISA, so
   one that holds vector code and is not inlined runs at baseline speed
   inside the AVX-512F clone: vector helpers are macros, and the scalar
   demix_bins is always inlined. On an AVX-512F Xeon the AVX-512F clone of
   the solve takes about half the baseline build's time at D = 10 and 19,
   and of ilrma_weight 0.4-0.6 of it at K = 513 and B = 10; an AVX2 build
   was no faster than the baseline one, so none is made
   (BENCH_lane_solve.json, BENCH_compiled_weight.json). */

#include <math.h>
#include <stdlib.h>
#include <string.h>

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

/* Lane masks: a comparison of two v8 gives one. */
typedef long v8l __attribute__((vector_size(LANES * sizeof(long))));

/* x with every lane below lo replaced by lo's, evaluating each argument
   once; a NaN lane is kept, as np.maximum(x, lo) keeps it. A macro, as a
   function taking or returning v8 has a different ABI in each clone. */
#define AT_LEAST(x, lo)                                                    \
    __extension__({                                                        \
        const v8 x_ = (x), lo_ = (lo);                                     \
        const v8l below_ = x_ < lo_;                                       \
        (v8)(((v8l)x_ & ~below_) | ((v8l)lo_ & below_));                   \
    })

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

/* out[k] = rows[k]^H obs[k] for n bins: each the sum over d of
   conj(rows[k][d]) obs[k][d], taken in index order from 0.0 in unfused real
   operations, which are the operations and order of
   np.einsum("kd,kd->k", rows.conj(), obs). DEMIX_WAYS bins are summed
   side by side, each in its own order, which the compiler turns into one
   two-lane vector operation per step; on an AVX-512F Xeon that took a
   quarter less time than one bin at a time, and four or eight bins side by
   side were slower than two. */
#define DEMIX_WAYS 2
static inline __attribute__((always_inline)) void
demix_bins(long n, long dim, const double *rows, const double *obs, double *out)
{
    long k = 0;
    for (; k + DEMIX_WAYS <= n; k += DEMIX_WAYS) {
        const double *r = rows + 2 * k * dim, *y = obs + 2 * k * dim;
        double re[DEMIX_WAYS] = {0.0}, im[DEMIX_WAYS] = {0.0};
        for (long d = 0; d < 2 * dim; d += 2)
            for (int w = 0; w < DEMIX_WAYS; w++) {
                const double *rw = r + 2 * w * dim + d, *yw = y + 2 * w * dim + d;
                re[w] += rw[0] * yw[0] + rw[1] * yw[1];
                im[w] += rw[0] * yw[1] - rw[1] * yw[0];
            }
        for (int w = 0; w < DEMIX_WAYS; w++) {
            out[2 * (k + w)] = re[w];
            out[2 * (k + w) + 1] = im[w];
        }
    }
    for (; k < n; k++) {
        const double *r = rows + 2 * k * dim, *y = obs + 2 * k * dim;
        double re = 0.0, im = 0.0;
        for (long d = 0; d < 2 * dim; d += 2) {
            re += r[d] * y[d] + r[d + 1] * y[d + 1];
            im += r[d] * y[d + 1] - r[d + 1] * y[d];
        }
        out[2 * k] = re;
        out[2 * k + 1] = im;
    }
}

/* out[k] = rows[k]^H obs[k] for every bin; ``out`` is (K,) complex. */
void demix(long n_bins, long dim, const double *rows, const double *obs, double *out)
{
    demix_bins(n_bins, dim, rows, obs, out);
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
           double diag_load, double *rows, const double *obs, double *out)
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
            } else {
                row[0] = 1.0;
                row[1] = 0.0;
                for (long i = 0; i < n; i++) {
                    row[2 * (i + 1)] = -re[i * dim + n][l];
                    row[2 * (i + 1) + 1] = -im[i * dim + n][l];
                }
            }
        }
        if (out != NULL) {
            const long count = n_bins - k0 < LANES ? n_bins - k0 : LANES;
            demix_bins(count, dim, rows + 2 * k0 * dim, obs + 2 * k0 * dim, out + 2 * k0);
        }
    }
    free(re);
    return skipped;
}

/* One frame of ILRMA's NMF source model and its weight, as
   IlrmaState.frame_weight does it in numpy: from the outputs e = rows^H obs
   of the previous rows, the bases update t1 <- max(t1 sqrt(|e|^2 / r1),
   floor), the refresh r1 = max(t1 v1, floor), the activation update
   v1 <- max(v1 sqrt(num / den), floor) with num = t1^T (|e|^2 / r1^2) and
   den = t1^T (1 / r1) summed over the K bins, and the final refresh of r1;
   then gain = 1 / r1. A frame whose outputs are all zero leaves the model
   as it is. ``bases`` holds t1 basis-major, (B, blocks * LANES), and
   ``r1`` and ``gain`` are blocks * LANES long, all 64-byte aligned; ``v1``
   is B long. Lanes past bin K - 1 are computed on bin K - 1's power but
   are left out of num and den, so they never reach a bin's result.
   Returns 1 if the model was updated, 0 if the frame was all zero, or -1
   if the workspace could not be allocated. */
LANE_CLONES
long ilrma_weight(long n_bins, long dim, long n_bases, const double *rows,
                  const double *obs, v8 *bases, double *v1, v8 *r1,
                  double floor, v8 *gain)
{
    const long blocks = (n_bins + LANES - 1) / LANES;
    /* |e|^2 per block, then the per-lane partial sums of num and den. */
    v8 *power = aligned_alloc(sizeof(v8), sizeof(v8) * (blocks + 2 * n_bases));
    if (power == NULL)
        return -1;
    v8 *num = power + blocks, *den = num + n_bases;
    long live = 0;
    for (long j = 0; j < blocks; j++) {
        const long k0 = j * LANES, count = n_bins - k0 < LANES ? n_bins - k0 : LANES;
        double e[2 * LANES];
        demix_bins(count, dim, rows + 2 * k0 * dim, obs + 2 * k0 * dim, e);
        for (int l = 0; l < LANES; l++) {
            const double *el = e + 2 * (l < count ? l : count - 1);
            power[j][l] = el[0] * el[0] + el[1] * el[1];
            live |= el[0] != 0.0 || el[1] != 0.0;
        }
    }
    if (live) {
        const v8 lo = (v8){0.0} + floor;
        const v8l lane = {0, 1, 2, 3, 4, 5, 6, 7};
        for (long b = 0; b < n_bases; b++)
            num[b] = den[b] = (v8){0.0};
        for (long j = 0; j < blocks; j++) {
            const v8 ratio = power[j] / r1[j];
            v8 factor, r = {0.0};
            for (int l = 0; l < LANES; l++)
                factor[l] = sqrt(ratio[l]);
            for (long b = 0; b < n_bases; b++) {
                const v8 t = AT_LEAST(bases[b * blocks + j] * factor, lo);
                bases[b * blocks + j] = t;
                r += t * v1[b];
            }
            const v8 w1 = 1.0 / AT_LEAST(r, lo), w2 = power[j] * (w1 * w1);
            const v8l in_range = lane < n_bins - j * LANES;
            for (long b = 0; b < n_bases; b++) {
                const v8 t = bases[b * blocks + j];
                num[b] += (v8)((v8l)(t * w2) & in_range);
                den[b] += (v8)((v8l)(t * w1) & in_range);
            }
        }
        for (long b = 0; b < n_bases; b++) {
            double n = 0.0, d = 0.0;
            for (int l = 0; l < LANES; l++) {
                n += num[b][l];
                d += den[b][l];
            }
            const double v = v1[b] * sqrt(n / d);
            v1[b] = v < floor ? floor : v;
        }
        for (long j = 0; j < blocks; j++) {
            v8 r = {0.0};
            for (long b = 0; b < n_bases; b++)
                r += bases[b * blocks + j] * v1[b];
            r1[j] = AT_LEAST(r, lo);
        }
    }
    for (long j = 0; j < blocks; j++)
        gain[j] = 1.0 / r1[j];
    free(power);
    return live;
}

/* The engine's framing (naec.pipeline), on buffers the engine allocates
   once: ``tail`` is (P + 1, hop), ``buf`` and ``frame`` (P + 1, window_len),
   ``window`` window_len, all C-contiguous doubles.

   frame_in: row 0 of ``tail`` holds the hop of microphone samples and row 1
   the far-end samples x; rows 2..P get x^3, ..., x^(2P - 1), each the row
   above times x * x, as nonlin.odd_powers builds them. Returns 0, having
   written nothing but ``tail``, if any entry of ``tail`` is not finite.
   Otherwise shifts each row of ``buf`` left by a hop, appends the row of
   ``tail``, sets ``frame`` to ``buf`` times the window and returns 1. */
long frame_in(long order_p, long hop, long window_len, double *tail,
              double *restrict buf, const double *restrict window, double *restrict frame)
{
    const double *restrict x = tail + hop;
    for (long i = 2; i <= order_p; i++) {
        double *restrict power = tail + i * hop;
        const double *restrict below = power - hop;
        for (long t = 0; t < hop; t++)
            power[t] = below[t] * (x[t] * x[t]);
    }
    /* v - v is 0 for finite v and NaN for an infinity or NaN. */
    int finite = 1;
    for (long t = 0; t < (order_p + 1) * hop; t++)
        finite &= tail[t] - tail[t] == 0.0;
    if (!finite)
        return 0;
    const long keep = window_len - hop;
    for (long r = 0; r <= order_p; r++) {
        double *b = buf + r * window_len, *f = frame + r * window_len;
        memmove(b, b + hop, sizeof(double) * keep);
        memcpy(b + keep, tail + r * hop, sizeof(double) * hop);
        for (long t = 0; t < window_len; t++)
            f[t] = b[t] * window[t];
    }
    return 1;
}

/* The (K, D) observations of the frame from its (P + 1, K) complex spectra
   ``spec`` (row 0 the microphone), in the layout of naec.ctf, in place:
   each reference's lags move one place later, dropping the oldest, then
   lag 0 and the microphone entry are written. */
void stack(long order_p, long frames_l, long n_bins, const double *restrict spec,
           double *restrict obs)
{
    const long dim = order_p * frames_l + 1;
    for (long k = 0; k < n_bins; k++) {
        obs[2 * k * dim] = spec[2 * k];
        obs[2 * k * dim + 1] = spec[2 * k + 1];
    }
    for (long i = 0; i < order_p; i++) {
        const double *x = spec + 2 * (i + 1) * n_bins;
        for (long k = 0; k < n_bins; k++) {
            double *lags = obs + 2 * (k * dim + 1 + i * frames_l);
            for (long lag = frames_l - 1; lag > 0; lag--) {
                lags[2 * lag] = lags[2 * lag - 2];
                lags[2 * lag + 1] = lags[2 * lag - 1];
            }
            lags[0] = x[2 * k];
            lags[1] = x[2 * k + 1];
        }
    }
}

/* Overlap-add of the synthesized frame ``synth`` (window_len) into ``acc``,
   which starts at the next sample to emit: acc += synth * window, then
   ``emit`` (hop) = the first hop of ``acc`` / ``norm``, and ``acc`` shifts
   left by a hop with zeros appended. */
void ola(long hop, long window_len, const double *restrict synth,
         const double *restrict window, double *restrict acc,
         const double *restrict norm, double *restrict emit)
{
    for (long t = 0; t < window_len; t++)
        acc[t] += synth[t] * window[t];
    for (long t = 0; t < hop; t++)
        emit[t] = acc[t] / norm[t];
    memmove(acc, acc + hop, sizeof(double) * (window_len - hop));
    for (long t = window_len - hop; t < window_len; t++)
        acc[t] = 0.0;
}
