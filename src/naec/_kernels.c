/* Per-frame kernels for naec.auxiva and naec.ilrma:
     update        the tracked inverse covariances P = V^-1 and traces, the
                   rows read from P, and the frame demixed with them;
     demix         AuxIVA's demix with the previous rows, r1 and Phi(r1);
     ilrma_weight  ILRMA's demix with the previous rows, NMF updates and 1/r1;
     step          a compiled process_frame: the weight, then update;
   and for the engine's framing in naec.pipeline:
     fft_plan      the twiddle factors of the real FFTs, once per engine;
     frame_in      the far end's odd powers, the finite check, the time
                   buffer's shift, the analysis window and the real FFTs
                   into the observations, lags moved in place;
     ola           the inverse real FFT, synthesis window, overlap-add,
                   norm and shift;
     push          a compiled push: frame_in, step and ola in one call;
     rfft, irfft   the same FFTs alone, and layout, for the tests.
   step, frame_in, ola and push take a struct that the state or the engine
   fills once. No kernel allocates memory or writes to stdout. Apart from
   the FFTs, the framing kernels make copies and elementwise products only,
   the operations of the numpy code they replace. The FFTs and AuxIVA's r1
   agree with the numpy path to rounding, not bytes.

   P is held in block-planar form: bins are grouped in blocks of LANES, and
   a block holds a real plane and an imaginary plane of the D(D+1)/2
   upper-triangle entries in row-major order, each entry a vector of LANES
   bins. ``inv`` is (ceil(K / LANES), 2, D(D+1)/2, LANES) doubles and the
   traces ``trace`` ceil(K / LANES) * LANES, both 64-byte aligned; the lanes
   of a short last block past bin K - 1 hold copies of bin K - 1 and are
   updated with its observation and gain, so they stay equal to it.
   ``obs`` and ``rows`` are (K, D) interleaved complex doubles (re, im),
   C-contiguous, and a demixed frame is (K,) of them; the caller checks
   shapes, dtypes, contiguity and alignment.

   Every vector operation is the scalar operation of one bin, done for LANES
   bins at once, so each bin's result is bit-identical to a one-bin-at-a-time
   computation. The complex arithmetic is written out in real operations (a
   ``double complex`` product calls __muldc3), and the file is built with
   -ffp-contract=off so no multiply-add is fused. The demixes do the
   operations of numpy's einsum in its order and give its bytes; the
   update gives the bytes of its numpy twin (auxiva.py); ILRMA's NMF
   updates agree with the numpy ones to rounding, not bytes (see ilrma.py).
   On x86-64 the lane kernels are compiled for AVX-512F and for the
   baseline ISA, and the AVX-512F clone is picked when the library is
   loaded on a CPU that has it; the IEEE operations and their order are the
   same in both. A static helper is compiled once, for the baseline ISA, so
   one that holds vector code and is not inlined runs at baseline speed
   inside the AVX-512F clone: vector helpers are macros, and the scalar
   demix_bins is always inlined. An AVX2 build was no faster than the
   baseline one, so none is made (BENCH_lane_solve.json). The FFTs' vectors
   of four doubles are split in two by the baseline build; there a
   1024-point real FFT of one row took about 3.3 us against 2.1-2.6 us in
   the AVX-512F clone (C harness). */

#include <math.h>
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

/* x in the lanes of the mask m, y in the others. */
#define SELECT(m, x, y) ((v8)(((v8l)(x) & (m)) | ((v8l)(y) & ~(m))))

/* Index of the upper-triangle entry (i, j), i <= j, in a plane. */
static long upper(long dim, long i, long j)
{
    return i * dim - i * (i - 1) / 2 + (j - i);
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

/* AuxIVA's frame weight from the previous rows: out[k] = rows[k]^H obs[k]
   for every bin (``out`` is (K,) complex), then r1 = sqrt(sum_k |out[k]|^2),
   each |out[k]|^2 taken as re^2 + im^2 and summed in bin order, floored at
   ``floor`` (a NaN stays NaN), and gain[0] = pow(r1, exponent). */
void demix(long n_bins, long dim, const double *rows, const double *obs, double *out,
           double floor, double exponent, double *gain)
{
    demix_bins(n_bins, dim, rows, obs, out);
    double power = 0.0;
    for (long k = 0; k < 2 * n_bins; k += 2)
        power += out[k] * out[k] + out[k + 1] * out[k + 1];
    const double r1 = sqrt(power);
    gain[0] = pow(r1 < floor ? floor : r1, exponent);
}

/* One frame of every bin's tracked inverse covariance P = V^-1 and trace
   tau = tr(V), then its row and its demixed output. With y = obs[k],
   s = (1 - alpha) gain[k * gain_stride] (a gain_stride of 0 shares gain[0]
   by all bins) and j = coord, V <- alpha V + s y y^H + rho e_j e_j^H is two
   Sherman-Morrison updates: u = P y, q = Re(y^H u), c1 = s / (alpha + s q);
   v = (P - c1 u u^H) e_j, d = Re v_j, c2 = rho / (alpha + rho d);
   P <- (P - c1 u u^H - c2 v v^H) (1 / alpha). The loading is rho = load tau
   after tau <- alpha tau + s |y|^2, load = (1 - alpha) diag_load, then
   tau <- tau + rho. A bin whose s |y|^2 is zero is left as it is: c1 and
   rho are 0, tau is kept and P is scaled by 1, not 1 / alpha. Each u_i is
   summed over j in index order, and c1 u and c2 v are taken before their
   products. The imaginary parts of P's diagonal are never written. The row
   is the first column of P times 1 / P_00, written over rows[k] unless tau
   or tr(P), summed in index order, is not finite (a broken bin) or the row
   is not finite (a skipped bin); then rows[k] is kept. out[k] = rows[k]^H y.
   Adds the number of skipped bins to skipped[0] and returns the number of
   broken bins. ``work`` holds 6 dim vectors. */
LANE_CLONES
long update(long n_bins, long dim, v8 *inv, v8 *trace, const double *obs, double alpha,
            const double *gain, long gain_stride, double diag_load, long coord,
            double *rows, double *out, long *skipped, v8 *work)
{
    const long tri = dim * (dim + 1) / 2, j = coord;
    const double inv_alpha = 1.0 / alpha, load = (1.0 - alpha) * diag_load;
    /* The block's y, u and v as real and imaginary planes. */
    v8 *yr = work, *yi = yr + dim, *ur = yi + dim, *ui = ur + dim, *vr = ui + dim, *vi = vr + dim;
    long broken = 0;
    for (long k0 = 0; k0 < n_bins; k0 += LANES) {
        v8 *re = inv + 2 * (k0 / LANES) * tri, *im = re + tri;
        v8 s;
        for (int l = 0; l < LANES; l++) {
            const long k = k0 + l < n_bins ? k0 + l : n_bins - 1;
            s[l] = (1.0 - alpha) * gain[k * gain_stride];
            for (long i = 0; i < dim; i++) {
                yr[i][l] = obs[2 * (k * dim + i)];
                yi[i][l] = obs[2 * (k * dim + i) + 1];
            }
        }
        /* u = P y: entry (a, b) adds P_ab y_b to u_a and, below the
           diagonal, conj(P_ab) y_a to u_b, so each u_i is summed in index
           order. */
        for (long i = 0; i < dim; i++)
            ur[i] = ui[i] = (v8){0.0};
        for (long a = 0, t = 0; a < dim; a++, t++) {
            ur[a] += re[t] * yr[a] - im[t] * yi[a];
            ui[a] += re[t] * yi[a] + im[t] * yr[a];
            for (long b = a + 1; b < dim; b++) {
                const v8 pr = re[++t], pi = im[t];
                ur[a] += pr * yr[b] - pi * yi[b];
                ui[a] += pr * yi[b] + pi * yr[b];
                ur[b] += pr * yr[a] + pi * yi[a];
                ui[b] += pr * yi[a] - pi * yr[a];
            }
        }
        v8 q = {0.0}, norm = {0.0};
        for (long i = 0; i < dim; i++) {
            q += yr[i] * ur[i] + yi[i] * ui[i];
            norm += yr[i] * yr[i] + yi[i] * yi[i];
        }
        const v8 e = s * norm;
        const v8l moved = e != 0.0;
        const v8 c1 = SELECT(moved, s / (alpha + s * q), (v8){0.0});
        const v8 scale = SELECT(moved, (v8){0.0} + inv_alpha, (v8){0.0} + 1.0);
        v8 tau = SELECT(moved, trace[k0 / LANES] * alpha + e, trace[k0 / LANES]);
        const v8 rho = SELECT(e > 0.0, load * tau, (v8){0.0});
        tau += rho;
        for (long i = 0; i < dim; i++) {
            const long t = i <= j ? upper(dim, i, j) : upper(dim, j, i);
            const v8 a1r = c1 * ur[i], a1i = c1 * ui[i];
            vr[i] = re[t] - (a1r * ur[j] + a1i * ui[j]);
            vi[i] = (i <= j ? im[t] : -im[t]) - (a1i * ur[j] - a1r * ui[j]);
        }
        const v8 c2 = rho / (alpha + rho * vr[j]);
        v8 tr = {0.0};
        for (long a = 0, t = 0; a < dim; a++) {
            const v8 a1r = c1 * ur[a], a1i = c1 * ui[a], a2r = c2 * vr[a], a2i = c2 * vi[a];
            re[t] = ((re[t] - (a1r * ur[a] + a1i * ui[a])) - (a2r * vr[a] + a2i * vi[a])) * scale;
            tr += re[t++];
            for (long b = a + 1; b < dim; b++, t++) {
                re[t] = ((re[t] - (a1r * ur[b] + a1i * ui[b])) - (a2r * vr[b] + a2i * vi[b]))
                        * scale;
                im[t] = ((im[t] - (a1i * ur[b] - a1r * ui[b])) - (a2i * vr[b] - a2r * vi[b]))
                        * scale;
            }
        }
        trace[k0 / LANES] = tau;
        /* The row's entries i >= 1 into v's planes, which are no longer
           read, and the frame demixed with the rows, summed as demix_bins
           sums it; lanes that keep their previous row are demixed again. */
        const v8 inv00 = 1.0 / re[0];
        v8 check = (tau - tau) + (tr - tr), er = {0.0}, ei = {0.0};
        const v8l broken_lanes = check != 0.0; /* NaN unless both are finite */
        er += 1.0 * yr[0] + 0.0 * yi[0];
        ei += 1.0 * yi[0] - 0.0 * yr[0];
        for (long i = 1; i < dim; i++) {
            vr[i] = re[i] * inv00;
            vi[i] = -im[i] * inv00;
            check += (vr[i] - vr[i]) + (vi[i] - vi[i]);
            er += vr[i] * yr[i] + vi[i] * yi[i];
            ei += vr[i] * yi[i] - vi[i] * yr[i];
        }
        const long count = n_bins - k0 < LANES ? n_bins - k0 : LANES;
        for (int l = 0; l < count; l++) {
            const long k = k0 + l;
            if (check[l] != 0.0) {
                broken += broken_lanes[l] != 0;
                skipped[0] += broken_lanes[l] == 0;
                demix_bins(1, dim, rows + 2 * k * dim, obs + 2 * k * dim, out + 2 * k);
                continue;
            }
            double *row = rows + 2 * k * dim;
            row[0] = 1.0;
            row[1] = 0.0;
            for (long i = 1; i < dim; i++) {
                row[2 * i] = vr[i][l];
                row[2 * i + 1] = vi[i][l];
            }
            out[2 * k] = er[l];
            out[2 * k + 1] = ei[l];
        }
    }
    return broken;
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
   Returns 1 if the model was updated, 0 if the frame was all zero. ``work``
   holds blocks + 2 B vectors: |e|^2 per block, then the per-lane partial
   sums of num and den. */
LANE_CLONES
long ilrma_weight(long n_bins, long dim, long n_bases, const double *rows,
                  const double *obs, v8 *bases, double *v1, v8 *r1,
                  double floor, v8 *gain, v8 *work)
{
    const long blocks = (n_bins + LANES - 1) / LANES;
    v8 *power = work, *num = power + blocks, *den = num + n_bases;
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
    return live;
}

/* naec.auxiva.AuxivaState.kernel: the state's buffers and settings, the
   workspace of update and ilrma_weight, and the frames and skipped bins. */
struct state {
    long n_bins, dim, n_bases; /* n_bases > 0: ILRMA's weight, else AuxIVA's */
    double alpha, diag_load, floor, exponent;
    v8 *inv, *trace, *bases, *r1, *work;
    double *gain, *v1, *rows, *obs, *out;
    long frames, skipped_bins;
};

/* One frame of process_frame: the weight from the previous rows, then
   update of coordinate frames mod dim, counted. Returns the broken bins. */
long step(struct state *s)
{
    const long stride = s->n_bases > 0;
    if (stride)
        ilrma_weight(s->n_bins, s->dim, s->n_bases, s->rows, s->obs, s->bases, s->v1, s->r1,
                     s->floor, (v8 *)s->gain, s->work);
    else
        demix(s->n_bins, s->dim, s->rows, s->obs, s->out, s->floor, s->exponent, s->gain);
    return update(s->n_bins, s->dim, s->inv, s->trace, s->obs, s->alpha, s->gain, stride,
                  s->diag_load, s->frames++ % s->dim, s->rows, s->out, &s->skipped_bins, s->work);
}

/* The engine's real FFTs, of n = 2m samples, n a power of two >= 4: the
   m-point complex FFT of z[t] = x[2t] + i x[2t + 1], split into the spectra
   of the even and the odd samples (Sorensen et al., "Real-valued fast
   Fourier transform algorithms", IEEE TASSP 1987). The complex FFT, for
   m >= 4, is four interleaved FFTs of q = m / 4 points, z[4t + r] in lane r
   of a vector of FFT_LANES doubles, by radix-4 Stockham passes (and a
   radix-2 one last when log2 q is odd), then one radix-4 pass across the
   lanes. The twiddle factors come from libm's cos and sin on angles of at
   most pi / 4 and the symmetries of the circle, once per plan. The
   transforms agree with numpy's pocketfft to rounding, not bytes. */
#define FFT_LANES 4
typedef double v4 __attribute__((vector_size(FFT_LANES * sizeof(double))));
typedef struct {
    v4 re, im;
} cv4;

/* A plan of an n-point transform in fft_plan's layout: the twiddles of
   the lane FFTs and of the pass across the lanes, two lane buffers, an
   m-point complex buffer and the twiddles of the split. */
struct fft {
    long n, m, q;
    cv4 *inner;    /* W_q^j in every lane, j < q: stored broadcast, as the
                      baseline build makes a broadcast through the stack */
    cv4 *across;   /* lane r of across[k]: W_m^(rk), k < q */
    cv4 *lanes[2]; /* q each */
    double *z;     /* m complex */
    double *split; /* W_n^k, k <= m / 2 */
};

static struct fft fft_parts(long n, double *plan)
{
    const long q = n / 8;
    cv4 *inner = (cv4 *)plan;
    double *z = (double *)(inner + 4 * q);
    return (struct fft){n, n / 2, q, inner, inner + q, {inner + 2 * q, inner + 3 * q}, z, z + n};
}

/* W_n^j = exp(-2 pi i j / n) into w[0], w[1], for a power of two n >= 4:
   the angle is reduced to its first octant, so quarter turns are exact. */
static void unit_root(long j, long n, double *w)
{
    const long quarter = 4 * j / n, r = j - quarter * (n / 4);
    double c, s;
    if (8 * r <= n) {
        c = cos(M_PI * (2.0 * r / n));
        s = sin(M_PI * (2.0 * r / n));
    } else {
        s = cos(M_PI * (2.0 * (n / 4 - r) / n));
        c = sin(M_PI * (2.0 * (n / 4 - r) / n));
    }
    const double cs[4][2] = {{c, s}, {-s, c}, {-c, -s}, {s, -c}};
    w[0] = cs[quarter][0];
    w[1] = -cs[quarter][1];
}

/* The length in doubles of the plan of an n-point real FFT, n a power of
   two >= 4; given a plan, 32-byte aligned, also writes its twiddle
   factors. The rest of a plan is the transforms' workspace. */
long fft_plan(long n, double *plan)
{
    const long q = n / 8, m = n / 2;
    if (plan != NULL) {
        const struct fft f = fft_parts(n, plan);
        double w[2];
        for (long k = 0; k < q; k++)
            for (int r = 0; r < FFT_LANES; r++) {
                unit_root(8 * k, n, w);
                f.inner[k].re[r] = w[0];
                f.inner[k].im[r] = w[1];
                unit_root(2 * r * k, n, w);
                f.across[k].re[r] = w[0];
                f.across[k].im[r] = w[1];
            }
        for (long k = 0; k <= m / 2; k++)
            unit_root(k, n, f.split + 2 * k);
    }
    return 32 * q + 3 * m + 2;
}

/* y = (zr + i zi) (wr + i wi) for vectors, each argument evaluated once. */
#define CMUL_INTO(y, zr, zi, wr, wi)                                       \
    do {                                                                   \
        const v4 zr_ = (zr), zi_ = (zi);                                   \
        (y).re = zr_ * (wr) - zi_ * (wi);                                  \
        (y).im = zr_ * (wi) + zi_ * (wr);                                  \
    } while (0)

/* The m-point forward DFT of the complex z (interleaved) into out. */
static inline __attribute__((always_inline)) void
cfft(const struct fft *f, const double *restrict z, double *restrict out)
{
    const long q = f->q;
    if (q == 0) { /* m = 2 */
        out[0] = z[0] + z[2];
        out[1] = z[1] + z[3];
        out[2] = z[0] - z[2];
        out[3] = z[1] - z[3];
        return;
    }
    cv4 *a = f->lanes[0], *b = f->lanes[1];
    for (long t = 0; t < q; t++) {
        const double *zt = z + 8 * t;
        a[t] = (cv4){{zt[0], zt[2], zt[4], zt[6]}, {zt[1], zt[3], zt[5], zt[7]}};
    }
    /* Stockham passes over the lanes: a sub-transform of n points at
       stride s becomes four of n / 4 points at stride 4 s. */
    long n = q, s = 1;
    for (; n >= 4; n /= 4, s *= 4) {
        const long m4 = n / 4;
        for (long p = 0; p < m4; p++) {
            const cv4 *w1 = f->inner + p * s, *w2 = w1 + p * s, *w3 = w2 + p * s;
            for (long t = 0; t < s; t++) {
                const cv4 *restrict x0 = a + t + s * p, *restrict x1 = x0 + s * m4;
                const cv4 *restrict x2 = x1 + s * m4, *restrict x3 = x2 + s * m4;
                cv4 *restrict y = b + t + 4 * s * p;
                const v4 s02r = x0->re + x2->re, s02i = x0->im + x2->im;
                const v4 d02r = x0->re - x2->re, d02i = x0->im - x2->im;
                const v4 s13r = x1->re + x3->re, s13i = x1->im + x3->im;
                const v4 d13r = x1->re - x3->re, d13i = x1->im - x3->im;
                y[0].re = s02r + s13r;
                y[0].im = s02i + s13i;
                CMUL_INTO(y[s], d02r + d13i, d02i - d13r, w1->re, w1->im); /* (d02 - i d13) W */
                CMUL_INTO(y[2 * s], s02r - s13r, s02i - s13i, w2->re, w2->im);
                CMUL_INTO(y[3 * s], d02r - d13i, d02i + d13r, w3->re, w3->im); /* (d02 + i d13) W^3 */
            }
        }
        cv4 *swap = a;
        a = b;
        b = swap;
    }
    if (n == 2) {
        for (long t = 0; t < s; t++) {
            const v4 xr = a[t].re, xi = a[t].im, yr = a[t + s].re, yi = a[t + s].im;
            b[t].re = xr + yr;
            b[t].im = xi + yi;
            b[t + s].re = xr - yr;
            b[t + s].im = xi - yi;
        }
        a = b;
    }
    /* The radix-4 pass across the lanes: lane r of a[k] times W_m^(rk). */
    for (long k = 0; k < q; k++) {
        const cv4 w = f->across[k];
        const v4 tr = a[k].re * w.re - a[k].im * w.im, ti = a[k].re * w.im + a[k].im * w.re;
        const double sr = tr[0] + tr[2], si = ti[0] + ti[2], dr = tr[0] - tr[2], di = ti[0] - ti[2];
        const double er = tr[1] + tr[3], ei = ti[1] + ti[3], fr = tr[1] - tr[3], fi = ti[1] - ti[3];
        out[2 * k] = sr + er;
        out[2 * k + 1] = si + ei;
        out[2 * (k + q)] = dr + fi;
        out[2 * (k + q) + 1] = di - fr;
        out[2 * (k + 2 * q)] = sr - er;
        out[2 * (k + 2 * q) + 1] = si - ei;
        out[2 * (k + 3 * q)] = dr - fi;
        out[2 * (k + 3 * q) + 1] = di + fr;
    }
}

/* The one-sided spectrum of n real samples x: bin k into out[k * stride]
   (complex), with exact zeros for the imaginary parts at DC and Nyquist. */
static inline __attribute__((always_inline)) void
rfft_row(const struct fft *f, const double *restrict x, double *restrict out, long stride)
{
    const long m = f->m;
    const double *z = f->z;
    cfft(f, x, f->z);
    out[0] = z[0] + z[1];
    out[1] = 0.0;
    out[2 * m * stride] = z[0] - z[1];
    out[2 * m * stride + 1] = 0.0;
    /* E = (Z[k] + conj(Z[m - k])) / 2 and O = -i (Z[k] - conj(Z[m - k])) / 2
       are the spectra of the even and the odd samples at k, and bins k and
       m - k are E + W_n^k O and conj(E - W_n^k O); for k = m / 2 the second
       write is kept. */
    for (long k = 1; k <= m / 2; k++) {
        const double ar = z[2 * k], ai = z[2 * k + 1], br = z[2 * (m - k)], bi = -z[2 * (m - k) + 1];
        const double er = 0.5 * (ar + br), ei = 0.5 * (ai + bi);
        const double odd_r = 0.5 * (ai - bi), odd_i = 0.5 * (br - ar);
        const double *w = f->split + 2 * k;
        const double tr = odd_r * w[0] - odd_i * w[1], ti = odd_r * w[1] + odd_i * w[0];
        out[2 * (m - k) * stride] = er - tr;
        out[2 * (m - k) * stride + 1] = ti - ei;
        out[2 * k * stride] = er + tr;
        out[2 * k * stride + 1] = ei + ti;
    }
}

/* n real samples from their one-sided spectrum (m + 1 complex), ignoring
   the imaginary parts at DC and Nyquist as numpy's irfft does. */
static inline __attribute__((always_inline)) void
irfft_row(const struct fft *f, const double *restrict spec, double *restrict x)
{
    const long m = f->m;
    double *z = f->z;
    /* 2 (E + i O), conjugated, for the spectra of the even and the odd
       samples E = (X[k] + conj(X[m - k])) / 2 and
       O = (X[k] - conj(X[m - k])) W_n^-k / 2: the inverse FFT is the
       conjugate of the forward one of the conjugate, and 1 / n scales it. */
    z[0] = spec[0] + spec[2 * m];
    z[1] = spec[2 * m] - spec[0];
    for (long k = 1; k <= m / 2; k++) {
        const double ar = spec[2 * k], ai = spec[2 * k + 1];
        const double br = spec[2 * (m - k)], bi = -spec[2 * (m - k) + 1];
        const double er = ar + br, ei = ai + bi, dr = ar - br, di = ai - bi;
        const double *w = f->split + 2 * k;
        const double odd_r = dr * w[0] + di * w[1], odd_i = di * w[0] - dr * w[1];
        z[2 * k] = er - odd_i;
        z[2 * k + 1] = -(ei + odd_r);
        z[2 * (m - k)] = er + odd_i;
        z[2 * (m - k) + 1] = ei - odd_r;
    }
    cfft(f, z, x);
    const double scale = 1.0 / (double)f->n;
    for (long t = 0; t < 2 * m; t += 2) {
        x[t] *= scale;
        x[t + 1] = -x[t + 1] * scale;
    }
}

/* rfft: ``n_rows`` rows of n real samples ``x`` to their one-sided spectra
   ``out``, (n_rows, n / 2 + 1) complex. irfft: one spectrum to n samples.
   ``plan`` is fft_plan's; the engine's framing does the same transforms. */
LANE_CLONES
void rfft(long n, long n_rows, double *plan, const double *x, double *out)
{
    const struct fft f = fft_parts(n, plan);
    for (long r = 0; r < n_rows; r++)
        rfft_row(&f, x + r * n, out + r * (n + 2), 1);
}

LANE_CLONES
void irfft(long n, double *plan, const double *spec, double *x)
{
    const struct fft f = fft_parts(n, plan);
    irfft_row(&f, spec, x);
}

/* The engine's framing and buffers, allocated once: ``tail`` (P + 1, hop),
   ``buf``, ``frame`` (P + 1, window_len), ``emit`` hop, ``plan`` fft_plan's,
   the rest window_len doubles. A frame's obs and out are the state's. */
struct engine {
    struct state *state;
    long order_p, frames_l, hop, window_len;
    double *tail, *buf, *window, *frame, *plan, *synth, *acc, *norm, *emit;
};

/* frame_in: row 0 of ``tail`` holds the hop of microphone samples and row 1
   the far-end samples x; rows 2..P get x^3, ..., x^(2P - 1), each the row
   above times x * x, as nonlin.odd_powers builds them. Returns 0, having
   written nothing but ``tail``, if any entry of ``tail`` is not finite.
   Otherwise shifts each row of ``buf`` left by a hop, appends the row of
   ``tail``, sets ``frame`` to ``buf`` times the window, and transforms
   the rows of ``frame`` into ``obs`` in the layout of naec.ctf: each
   reference's lags move one place later, dropping the oldest, then lag 0
   and the microphone entry are written. Returns 1. */
LANE_CLONES
long frame_in(const struct engine *e)
{
    const long order_p = e->order_p, frames_l = e->frames_l, hop = e->hop;
    const long window_len = e->window_len;
    double *tail = e->tail, *restrict frame = e->frame, *restrict obs = e->state->obs;
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
        double *b = e->buf + r * window_len, *row = frame + r * window_len;
        memmove(b, b + hop, sizeof(double) * keep);
        memcpy(b + keep, tail + r * hop, sizeof(double) * hop);
        for (long t = 0; t < window_len; t++)
            row[t] = b[t] * e->window[t];
    }
    const long dim = order_p * frames_l + 1, n_bins = window_len / 2 + 1;
    const struct fft f = fft_parts(window_len, e->plan);
    rfft_row(&f, frame, obs, dim);
    for (long i = 0; i < order_p; i++) {
        double *lags = obs + 2 * (1 + i * frames_l);
        for (long k = 0; k < n_bins; k++) {
            double *at = lags + 2 * k * dim;
            for (long lag = frames_l - 1; lag > 0; lag--) {
                at[2 * lag] = at[2 * lag - 2];
                at[2 * lag + 1] = at[2 * lag - 1];
            }
        }
        rfft_row(&f, frame + (i + 1) * window_len, lags, dim);
    }
    return 1;
}

/* Overlap-add of the demixed frame, the state's ``out``, into ``acc``, which
   starts at the next sample to emit: ``synth`` = its inverse transform,
   acc += synth * window, ``emit`` = the first hop of ``acc`` / ``norm``, and
   ``acc`` shifts left by a hop with zeros appended. */
LANE_CLONES
void ola(const struct engine *e)
{
    const long hop = e->hop, window_len = e->window_len;
    double *restrict synth = e->synth, *restrict acc = e->acc, *restrict emit = e->emit;
    const double *restrict window = e->window, *restrict norm = e->norm;
    const struct fft f = fft_parts(window_len, e->plan);
    irfft_row(&f, e->state->out, synth);
    for (long t = 0; t < window_len; t++)
        acc[t] += synth[t] * window[t];
    for (long t = 0; t < hop; t++)
        emit[t] = acc[t] / norm[t];
    memmove(acc, acc + hop, sizeof(double) * (window_len - hop));
    for (long t = window_len - hop; t < window_len; t++)
        acc[t] = 0.0;
}

/* frame_in, step and, unless a bin broke, ola; returns -1 if frame_in rejected
   the tail, else the broken bins, for the caller to reset before its ola. */
long push(const struct engine *e)
{
    const long broken = frame_in(e) ? step(e->state) : -1;
    if (broken == 0)
        ola(e);
    return broken;
}

/* The sizes and field offsets of struct state and struct engine in
   declaration order, into ``out``, for the tests; returns their count. */
#define AT(s, f) (long)__builtin_offsetof(struct s, f)
long layout(long *out)
{
    const long at[] = {
        sizeof(struct state), AT(state, n_bins), AT(state, dim), AT(state, n_bases),
        AT(state, alpha), AT(state, diag_load), AT(state, floor), AT(state, exponent),
        AT(state, inv), AT(state, trace), AT(state, bases), AT(state, r1), AT(state, work),
        AT(state, gain), AT(state, v1), AT(state, rows), AT(state, obs), AT(state, out),
        AT(state, frames), AT(state, skipped_bins), sizeof(struct engine), AT(engine, state),
        AT(engine, order_p), AT(engine, frames_l), AT(engine, hop), AT(engine, window_len),
        AT(engine, tail), AT(engine, buf), AT(engine, window), AT(engine, frame),
        AT(engine, plan), AT(engine, synth), AT(engine, acc), AT(engine, norm), AT(engine, emit)};
    memcpy(out, at, sizeof(at));
    return sizeof(at) / sizeof(at[0]);
}
