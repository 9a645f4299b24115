/* Per-frame kernels for naec.auxiva and naec.ilrma:
     weight        the frame demixed with the previous rows, and from it the
                   covariance weight: AuxIVA's Phi(r1), or ILRMA's NMF
                   updates and 1/r1;
     update        the tracked inverse covariances P = V^-1 and traces, the
                   rows read from P, and the frame demixed with them;
     step          a compiled process_frame: weight, update, bin resets;
   and for the engine's framing in naec.pipeline:
     fft_plan      the twiddle factors of the real FFTs, once per engine;
     frame_in      the far end's odd powers, the finite check, the time
                   buffer's shift and the windowed real FFTs, two rows at
                   a time, into the observations, each reference's new
                   spectrum over its oldest lag (a ring of lag slots);
     ola           the inverse real FFT, synthesis window, overlap-add,
                   norm and shift;
     push          a compiled push: frame_in, step and ola in one call;
     rfft, irfft   the same FFTs alone, and layout, for the tests.
   Every kernel but fft_plan, rfft and irfft takes one pointer: to a struct
   that the state or the engine fills once, or to layout's output. No
   kernel allocates memory or writes to stdout. Apart from the FFTs, the
   framing kernels make copies and elementwise products only, the
   operations of numpy framing. The FFTs and AuxIVA's r1 agree with
   their numpy oracles (tests/oracles.py) to rounding, not bytes.

   Every per-bin buffer holds blocks of LANES bins, bins innermost, 64-byte
   aligned; the lanes past bin K - 1 hold and compute copies of bin K - 1.
   ``inv`` holds P block-planar, (blocks, 2, D(D+1)/2, LANES) doubles: per
   block a real and an imaginary plane of the upper-triangle entries in
   row-major order. ``obs`` and ``rows`` are channel-major planes, (D, 2,
   blocks * LANES) doubles: each channel's real plane, then its imaginary
   plane. The rows are in the channel order of naec.ctf; channel d of obs
   is its plane pair channel[d], which frame_in rotates, so every sum over
   the channels is taken in the ctf order. ``trace`` and ``gain`` are
   blocks * LANES doubles, and a demixed frame ``out`` blocks * LANES
   interleaved complex doubles (re, im). The caller checks shapes, dtypes
   and alignment.

   Every vector operation is the scalar operation of one bin (or FFT
   lane), done for LANES at once, so each result is bit-identical to one
   computed alone. The complex arithmetic is written out in real operations
   (a ``double complex`` product calls __muldc3), and the file is built with
   -ffp-contract=off so no multiply-add is fused. The one demix,
   demix_block, does the operations of numpy's einsum in its order and gives
   its bytes; the update and the bin reset give the bytes of their numpy
   twins in oracles.py;
   ILRMA's NMF updates agree with the numpy ones to rounding (see ilrma.py).
   On x86-64 the lane kernels are compiled for AVX-512F and for the
   baseline ISA, and the AVX-512F clone is picked when the library is
   loaded on a CPU that has it; the IEEE operations and their order are the
   same in both. A static helper is compiled once, for the baseline ISA, so
   vector helpers are macros or always inlined. No AVX2 clone is made: it
   was no faster than the baseline one (BENCH_lane_solve.json). */

#include <math.h>
#include <string.h>

#define LANES 8
typedef double v8 __attribute__((vector_size(LANES * sizeof(double))));
/* The same at the address of any double, for the engine's time buffers. */
typedef double v8u __attribute__((vector_size(LANES * sizeof(double)), aligned(8)));

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

/* Block b of the frame demixed with ``rows``, er + i ei: for each lane the
   sum over the channels d of conj(rows[d]) obs[d], taken in index order
   from 0.0 in unfused real operations, which are the operations and order
   of np.einsum("kd,kd->k", rows.conj(), obs). ``blocks`` vectors a plane;
   channel d of obs is its plane pair channel[d]. */
static inline __attribute__((always_inline)) void
demix_block(long dim, long blocks, long b, const v8 *rows, const v8 *obs, const long *channel,
            v8 *er, v8 *ei)
{
    v8 re = {0.0}, im = {0.0};
    for (long d = 0; d < dim; d++) {
        const v8 wr = rows[2 * d * blocks + b], wi = rows[(2 * d + 1) * blocks + b];
        const v8 *y = obs + 2 * channel[d] * blocks + b, yr = y[0], yi = y[blocks];
        re += wr * yr + wi * yi;
        im += wr * yi - wi * yr;
    }
    *er = re;
    *ei = im;
}

/* er + i ei as the LANES interleaved complex numbers of block b of out. */
#define STORE_COMPLEX(out, b, er, ei)                                      \
    do {                                                                   \
        v8 *o_ = (v8 *)(out) + 2 * (b);                                    \
        o_[0] = __builtin_shuffle(er, ei, (v8l){0, 8, 1, 9, 2, 10, 3, 11});  \
        o_[1] = __builtin_shuffle(er, ei, (v8l){4, 12, 5, 13, 6, 14, 7, 15}); \
    } while (0)

/* naec.auxiva.AuxivaState.kernel: the state's buffers and settings (cov_init, the prior's
   scale), the kernels' workspace, and the frame and bin counters. */
struct state {
    long n_bins, dim;
    double alpha, diag_load, floor, exponent, cov_init;
    v8 *inv, *trace, *basis, *r1, *work, *rows, *obs; /* basis: ILRMA's weight, NULL: AuxIVA's */
    long *channel; /* the plane pair of obs that holds each channel of the ctf order */
    double *gain, *v1, *out;
    long frames, skipped_bins, broken_bins;
};

/* The frame's covariance weight from the previous rows, into every lane of
   ``gain``. Both weights start from one pass: out = rows^H obs for every
   bin by demix_block, and each |out[k]|^2, taken as re^2 + im^2, into
   ``work``, one vector per block. AuxIVA's weight (``basis`` NULL) is
   pow(r1, exponent), r1 = sqrt(sum_k |out[k]|^2) summed in bin order in
   that pass and floored at ``floor`` (a NaN stays NaN). ILRMA's is 1 / r1
   of its rank-1 NMF source model, as oracles.frame_weight does it in numpy:
   the basis update t1 <- max(t1 sqrt(|e|^2 / r1), floor), the refresh
   r1 = max(t1 v1, floor), the activation update v1 <- max(v1 sqrt(num /
   den), floor) with num = t1 . (|e|^2 / r1^2) and den = t1 . (1 / r1)
   summed over the K bins, and the final refresh of r1. A frame whose
   outputs are all zero leaves the model as it is. ``basis`` (t1), ``r1``
   and ``gain`` are blocks * LANES long and ``v1`` is one double. Lanes past
   bin K - 1 are computed on their own power, bin K - 1's, but are left out
   of num and den, so they never reach a bin's result; so is a bin whose
   term of num or of den is not finite (an overflowed |e|^2), so it breaks
   only itself. Returns 0 if the outputs are all zero, else 1. */
LANE_CLONES
long weight(struct state *s)
{
    const long n_bins = s->n_bins, blocks = (n_bins + LANES - 1) / LANES;
    const int auxiva = s->basis == NULL;
    v8 *power = s->work, *gain = (v8 *)s->gain, *basis = s->basis, *r1 = s->r1;
    /* The lanes of bins in a full block and in the last one. A mask compared
       in the loops is scalarized by GCC 12 for AVX-512F alone. */
    const v8l lane = {0, 1, 2, 3, 4, 5, 6, 7}, all = ~(v8l){0};
    const v8l last = lane < n_bins - (blocks - 1) * LANES;
    v8l alive = {0}; /* the outputs' bits: a sum from +0.0 is never -0.0, so 0 iff all are 0 */
    double sum = 0.0;
    for (long j = 0; j < blocks; j++) {
        v8 er, ei;
        demix_block(s->dim, blocks, j, s->rows, s->obs, s->channel, &er, &ei);
        STORE_COMPLEX(s->out, j, er, ei);
        const v8 p = power[j] = er * er + ei * ei;
        alive |= ((v8l)er | (v8l)ei) & (j < blocks - 1 ? all : last);
        for (long l = 0; auxiva && l < LANES && j * LANES + l < n_bins; l++)
            sum += p[l];
    }
    long live = 0;
    for (int l = 0; l < LANES; l++)
        live |= alive[l] != 0;
    if (auxiva) {
        const double norm = sqrt(sum);
        const v8 phi = (v8){0.0} + pow(norm < s->floor ? s->floor : norm, s->exponent);
        for (long j = 0; j < blocks; j++)
            gain[j] = phi;
        return live;
    }
    if (live) {
        const v8 lo = (v8){0.0} + s->floor;
        const double v = *s->v1;
        v8 num = {0.0}, den = {0.0};
        for (long j = 0; j < blocks; j++) {
            const v8 ratio = power[j] / r1[j];
            v8 factor; /* one vector sqrt, as the library is built with -fno-math-errno */
            for (int l = 0; l < LANES; l++)
                factor[l] = sqrt(ratio[l]);
            const v8 t = AT_LEAST(basis[j] * factor, lo);
            basis[j] = t;
            const v8 w1 = 1.0 / AT_LEAST(t * v, lo), w2 = power[j] * (w1 * w1);
            const v8l in_range = j < blocks - 1 ? all : last;
            const v8 tw2 = t * w2, tw1 = t * w1, finite = (tw2 - tw2) + (tw1 - tw1);
            num += SELECT(finite == 0.0, (v8)((v8l)tw2 & in_range), (v8){0.0});
            den += SELECT(finite == 0.0, (v8)((v8l)tw1 & in_range), (v8){0.0});
        }
        double n = 0.0, d = 0.0;
        for (int l = 0; l < LANES; l++) {
            n += num[l];
            d += den[l];
        }
        const double updated = v * sqrt(n / d);
        *s->v1 = updated < s->floor ? s->floor : updated;
        for (long j = 0; j < blocks; j++)
            r1[j] = AT_LEAST(basis[j] * *s->v1, lo);
    }
    for (long j = 0; j < blocks; j++)
        gain[j] = 1.0 / r1[j];
    return live;
}

/* One frame of every bin's tracked inverse covariance P = V^-1 and trace
   tau = tr(V), then its row and its demixed output. With y = obs[k], its
   channel d read from obs's plane pair channel[d] as in demix_block,
   s = (1 - alpha) gain[k] and j = frames mod dim, V <- alpha V + s y y^H +
   rho e_j e_j^H is two Sherman-Morrison updates: u = P y, q = Re(y^H u),
   c1 = s / (alpha + s q); v = (P - c1 u u^H) e_j, d = Re v_j,
   c2 = rho / (alpha + rho d); P <- (P - c1 u u^H - c2 v v^H) (1 / alpha).
   The loading is rho = load tau after tau <- alpha tau + s |y|^2,
   load = (1 - alpha) diag_load, then tau <- tau + rho. A bin whose s |y|^2
   is zero is left as it is: c1 and rho are 0, tau is kept and P is scaled
   by 1, not 1 / alpha. Each u_i is summed over j in index order, and c1 u
   and c2 v are taken before their products. The imaginary parts of P's
   diagonal are never written. The row is the first column of P times
   1 / P_00, written over rows[k] unless tau or tr(P), summed in index
   order, is not finite (a broken bin) or the row is not finite (a skipped
   bin); then rows[k] is kept. out[k] = rows[k]^H y by demix_block. Adds the
   number of skipped bins to ``skipped_bins`` and returns the number of
   broken bins; ``frames`` is left to step. ``work`` holds 6 dim vectors.
   update_dim is the body, with dim a constant at D = 4 (P = 3, L = 1),
   where that makes it about 10% faster, and a variable for the rest. */
static inline __attribute__((always_inline)) long update_dim(struct state *st, const long dim)
{
    const long n_bins = st->n_bins, blocks = (n_bins + LANES - 1) / LANES;
    const long tri = dim * (dim + 1) / 2, j = st->frames % dim;
    const double alpha = st->alpha, inv_alpha = 1.0 / alpha, load = (1.0 - alpha) * st->diag_load;
    const v8 *obs = st->obs, *gain = (const v8 *)st->gain;
    v8 *trace = st->trace, *rows = st->rows;
    /* The block's y, u and v as real and imaginary planes. */
    v8 *yr = st->work, *yi = yr + dim, *ur = yi + dim, *ui = ur + dim, *vr = ui + dim, *vi = vr + dim;
    long broken = 0, skipped = 0;
    for (long blk = 0, k0 = 0; blk < blocks; blk++, k0 += LANES) {
        v8 *re = st->inv + 2 * blk * tri, *im = re + tri;
        const v8 s = gain[blk] * (1.0 - alpha);
        for (long i = 0; i < dim; i++) {
            const v8 *y = obs + 2 * st->channel[i] * blocks + blk;
            yr[i] = y[0];
            yi[i] = y[blocks];
        }
        /* u = P y: entry (a, b) adds P_ab y_b to u_a and, below the
           diagonal, conj(P_ab) y_a to u_b, so each u_i is summed in index
           order; u_a's sum is held in sr, si across its row. */
        for (long i = 0; i < dim; i++)
            ur[i] = ui[i] = (v8){0.0};
        for (long a = 0, t = 0; a < dim; a++, t++) {
            const v8 ya_r = yr[a], ya_i = yi[a];
            v8 sr = ur[a] + (re[t] * ya_r - im[t] * ya_i);
            v8 si = ui[a] + (re[t] * ya_i + im[t] * ya_r);
            for (long b = a + 1; b < dim; b++) {
                const v8 pr = re[++t], pi = im[t];
                sr += pr * yr[b] - pi * yi[b];
                si += pr * yi[b] + pi * yr[b];
                ur[b] += pr * ya_r + pi * ya_i;
                ui[b] += pr * ya_i - pi * ya_r;
            }
            ur[a] = sr;
            ui[a] = si;
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
        v8 tau = SELECT(moved, trace[blk] * alpha + e, trace[blk]);
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
        trace[blk] = tau;
        /* The new row into v's planes, which are no longer read; a lane
           whose check is not 0 keeps its previous row instead. The frame is
           then demixed with the rows as stored. */
        const v8 inv00 = 1.0 / re[0];
        const v8 broken_check = (tau - tau) + (tr - tr); /* NaN unless both are finite */
        v8 check = broken_check, er, ei;
        vr[0] = (v8){0.0} + 1.0;
        vi[0] = (v8){0.0};
        for (long i = 1; i < dim; i++) {
            vr[i] = re[i] * inv00;
            vi[i] = -im[i] * inv00;
            check += (vr[i] - vr[i]) + (vi[i] - vi[i]);
        }
        for (long i = 0; i < dim; i++) {
            v8 *wr = rows + 2 * i * blocks + blk, *wi = wr + blocks;
            *wr = SELECT(check != 0.0, *wr, vr[i]);
            *wi = SELECT(check != 0.0, *wi, vi[i]);
        }
        demix_block(dim, blocks, blk, rows, obs, st->channel, &er, &ei);
        STORE_COMPLEX(st->out, blk, er, ei);
        /* The lanes are counted only in a block that keeps a row: a mask kept
           in a variable is scalarized by GCC 12 for AVX-512F alone. */
        double any = 0.0; /* NaN if a lane keeps its row */
        for (int l = 0; l < LANES; l++)
            any += check[l];
        for (long l = 0; any != 0.0 && l < LANES && k0 + l < n_bins; l++)
            if (check[l] != 0.0)
                broken_check[l] != 0.0 ? broken++ : skipped++;
    }
    st->skipped_bins += skipped;
    return broken;
}

LANE_CLONES
long update(struct state *s)
{
    return s->dim == 4 ? update_dim(s, 4) : update_dim(s, s->dim);
}
/* Restarts each bin that update found broken (tau or tr(P), summed in index
   order, not finite) from the prior P = I / cov_init, tau = dim cov_init and
   the passthrough row, counts it and demixes its block again by demix_block;
   a short last block's padding lanes follow bin K - 1. For ILRMA's weight,
   non-finite t1 entries and v1 return to 1, then r1 = max(t1 v1, floor). */
static void reset_broken(struct state *s)
{
    const long n_bins = s->n_bins, dim = s->dim, tri = dim * (dim + 1) / 2;
    const long blocks = (n_bins + LANES - 1) / LANES, last = (n_bins - 1) % LANES;
    if (s->basis != NULL && !isfinite(*s->v1))
        *s->v1 = 1.0;
    for (long b = 0, k = 0; b < blocks; b++) {
        v8 *re = s->inv + 2 * b * tri, *im = re + tri, tr = {0.0}, tau = s->trace[b], er, ei;
        for (long i = 0; i < dim; i++)
            tr += re[upper(dim, i, i)];
        const long before = s->broken_bins;
        for (long l = 0; l < LANES; l++, k++) {
            const long at = k < n_bins ? l : last;
            if (isfinite(tau[at]) && isfinite(tr[at]))
                continue;
            for (long i = 0, t = 0; i < dim; i++)
                for (long j = i; j < dim; j++, t++)
                    re[t][l] = i == j ? 1.0 / s->cov_init : 0.0, im[t][l] = 0.0;
            s->trace[b][l] = dim * s->cov_init;
            for (long d = 0; d < dim; d++)
                s->rows[2 * d * blocks + b][l] = d == 0, s->rows[(2 * d + 1) * blocks + b][l] = 0.0;
            s->broken_bins += k < n_bins;
        }
        if (s->broken_bins > before) {
            demix_block(dim, blocks, b, s->rows, s->obs, s->channel, &er, &ei);
            STORE_COMPLEX(s->out, b, er, ei);
        }
        for (int l = 0; s->basis != NULL && l < LANES; l++)
            s->basis[b][l] = isfinite(s->basis[b][l]) ? s->basis[b][l] : 1.0;
        if (s->basis != NULL)
            s->r1[b] = AT_LEAST(s->basis[b] * *s->v1, (v8){0.0} + s->floor);
    }
}

/* One frame of process_frame: weight, update, reset_broken if a bin
   broke, and the frame counted. */
void step(struct state *s)
{
    weight(s);
    if (update(s))
        reset_broken(s);
    s->frames++;
}

/* The engine's real FFTs, of n = 2m samples, n a power of two >= 32 (as
   naec.stft.StftConfig admits): the m-point complex FFT of z[t] = x[2t] +
   i x[2t + 1], split into the spectra of the even and the odd samples
   (Sorensen et al., "Real-valued fast Fourier transform algorithms", IEEE
   TASSP 1987). The complex FFT is four interleaved FFTs of q = m / 4 >= 4
   points, z[4t + r] in lane r, by radix-4 Stockham passes (and a radix-2
   one last when log2 q is odd), then one radix-4 pass across the lanes,
   four k at a time. A forward FFT takes two rows a and b, a's four sub-FFTs
   in lanes 0-3 of each vector and b's in lanes 4-7, and the inverse one row
   in vectors of four lanes. A pair's pass across the lanes leaves its bins
   in groups of four, a's then b's, so the split runs four bins of both rows
   per vector, and bin m / 2 of each row alone. The twiddle
   factors come from libm's cos and sin on angles of at most pi / 4 and the
   symmetries of the circle, once per plan, each stored once: the lane
   FFTs' as (re, im) pairs that the passes splat, the pass across the
   lanes' in four lanes that a pair widens to eight, and the split's in bin
   order. The plan of 1024 points, workspace included, is 5904 doubles
   (46 KB), so it stays in a 48 KB L1 data cache. The transforms agree with
   numpy's pocketfft to rounding, not bytes. */
typedef double v4 __attribute__((vector_size(4 * sizeof(double))));
typedef double v4u __attribute__((vector_size(4 * sizeof(double)), aligned(8)));
typedef long v4l __attribute__((vector_size(4 * sizeof(long))));
typedef struct { v8 re, im; } cv8;
typedef struct { v4 re, im; } cv4;

/* Four doubles loaded from p, stored at p, or stored reversed ending at p;
   four complex numbers interleaved at p, as their real and imaginary parts,
   or stored from them, or stored reversed ending at p; the same for one;
   the lower and the upper four lanes of a v8. */
#define LOAD4(p) ((v4) * (const v4u *)(p))
#define STORE4(p, v) (*(v4u *)(p) = (v))
#define REVERSE4(v) __builtin_shuffle(v, (v4l){3, 2, 1, 0})
#define REAL4(p) __builtin_shuffle(LOAD4(p), LOAD4((p) + 4), (v4l){0, 2, 4, 6})
#define IMAG4(p) __builtin_shuffle(LOAD4(p), LOAD4((p) + 4), (v4l){1, 3, 5, 7})
#define STORE_COMPLEX4(p, re, im)                                          \
    (STORE4(p, __builtin_shuffle(re, im, (v4l){0, 4, 1, 5})),              \
     STORE4((p) + 4, __builtin_shuffle(re, im, (v4l){2, 6, 3, 7})))
#define STORE_COMPLEX4_REVERSED(p, re, im)                                 \
    (STORE4((p) - 6, __builtin_shuffle(re, im, (v4l){3, 7, 2, 6})),        \
     STORE4((p) - 2, __builtin_shuffle(re, im, (v4l){1, 5, 0, 4})))
#define LOWER(v) __builtin_shufflevector(v, v, 0, 1, 2, 3)
#define UPPER(v) __builtin_shufflevector(v, v, 4, 5, 6, 7)
/* The v4 w as a V, in both halves of a v8: of the forms tried, the fastest
   in both clones (ROADMAP item 10). */
#define WIDE(V, w) WIDE_##V(w)
#define WIDE_v4(w) (w)
#define WIDE_v8(w)                                                         \
    __extension__({                                                        \
        const v4 w_ = (w);                                                 \
        (v8){w_[0], w_[1], w_[2], w_[3], w_[0], w_[1], w_[2], w_[3]};      \
    })

/* Where bin k of row h (0 for a, 1 for b) of the pair is held: in groups of
   four bins, a's then b's. */
#define GROUPED(k, h) ((k) / 4 * 8 + 4 * (h) + (k) % 4)

/* The 4 x 4 transposes of each four lanes of the vectors x[0..3], in
   place, by the shuffles ``even`` and ``lo``: of v8s by TRANSPOSE8, of v4s
   by TRANSPOSE4. */
#define TRANSPOSE8(x)                                                      \
    TRANSPOSE(x, ((v8l){0, 8, 2, 10, 4, 12, 6, 14}), ((v8l){0, 1, 8, 9, 4, 5, 12, 13}))
#define TRANSPOSE4(x) TRANSPOSE(x, ((v4l){0, 4, 2, 6}), ((v4l){0, 1, 4, 5}))
#define TRANSPOSE(x, even, lo)                                             \
    do {                                                                   \
        const __typeof__(even) even_ = even, odd_ = even_ + 1, lo_ = lo, hi_ = lo_ + 2; \
        const __typeof__(x[0]) t0_ = __builtin_shuffle(x[0], x[1], even_),  \
                               t1_ = __builtin_shuffle(x[0], x[1], odd_),   \
                               t2_ = __builtin_shuffle(x[2], x[3], even_),  \
                               t3_ = __builtin_shuffle(x[2], x[3], odd_);   \
        x[0] = __builtin_shuffle(t0_, t2_, lo_), x[1] = __builtin_shuffle(t1_, t3_, lo_); \
        x[2] = __builtin_shuffle(t0_, t2_, hi_), x[3] = __builtin_shuffle(t1_, t3_, hi_); \
    } while (0)

/* A plan of an n-point transform in fft_plan's layout: the twiddles of
   the lane FFTs and of the pass across the lanes, the two lane buffers of
   the Stockham passes, and the twiddles of the split. The complex FFT's
   output, as real and imaginary parts (a pair's in GROUPED order), and the
   inverse's m-point complex input go in the lane buffer that the passes
   leave idle: the result of an even number of passes ends in lanes[0], of
   an odd number in lanes[1]. The input sits in that buffer's upper half,
   which the four-lane passes of the inverse never touch. */
struct fft {
    long n, m, q;
    double *inner;  /* W_q^j as (re, im), j < q */
    cv4 *across;    /* lane r of across[k]: W_m^(rk), k < q */
    cv8 *lanes[2];  /* 16 q doubles each */
    double *z, *zr, *zi;
    double *split_re, *split_im; /* W_n^k, k < 4 (m / 8 + 1) */
};

static struct fft fft_parts(long n, double *plan)
{
    const long q = n / 8, m = n / 2, lane = 16 * q, passes = (__builtin_ctzl(q) + 1) / 2;
    double *across = plan + 2 * q, *lanes = across + 8 * q;
    double *idle = lanes + lane * (1 - passes % 2), *split = lanes + 2 * lane;
    return (struct fft){n, m, q, plan, (cv4 *)across, {(cv8 *)lanes, (cv8 *)(lanes + lane)},
                        idle + 2 * m, idle, idle + 2 * m, split, split + m / 2 + 8};
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
   two >= 32; given a plan, 64-byte aligned, also writes its twiddle
   factors. The rest of a plan is the transforms' workspace. */
long fft_plan(long n, double *plan)
{
    const long q = n / 8, m = n / 2;
    if (plan != NULL) {
        const struct fft f = fft_parts(n, plan);
        for (long k = 0; k < q; k++) {
            unit_root(8 * k, n, f.inner + 2 * k);
            for (int r = 0; r < 4; r++) {
                double w[2];
                unit_root(2 * r * k, n, w);
                f.across[k].re[r] = w[0];
                f.across[k].im[r] = w[1];
            }
        }
        for (long k = 0; k < 4 * (m / 8 + 1); k++) {
            double w[2];
            unit_root(k, n, w);
            f.split_re[k] = w[0];
            f.split_im[k] = w[1];
        }
    }
    return 2 * q + 8 * q + 32 * q + m + 16;
}

/* y = (zr + i zi) (wr + i wi) for vectors zr, zi and vectors or scalars
   wr, wi (a scalar in every lane), each argument evaluated once. */
#define CMUL_INTO(y, zr, zi, wr, wi)                                       \
    do {                                                                   \
        const __typeof__(zr) zr_ = (zr), zi_ = (zi);                       \
        (y).re = zr_ * (wr) - zi_ * (wi);                                  \
        (y).im = zr_ * (wi) + zi_ * (wr);                                  \
    } while (0)

/* Bins k, k + q, k + 2 q and k + 3 q of the pass across the lanes, from
   the lane products t[r] + i u[r], r < 4, at out_re + at(bin) and out_im +
   at(bin), as vectors of four k: of one row, or of both rows of a pair. */
#define ACROSS(set, t, u, at)                                              \
    do {                                                                   \
        typedef __typeof__(t[0]) T_;                                       \
        const T_ sr = t[0] + t[2], si = u[0] + u[2], dr = t[0] - t[2], di = u[0] - u[2]; \
        const T_ er = t[1] + t[3], ei = u[1] + u[3], fr = t[1] - t[3], fi = u[1] - u[3]; \
        set(out_re + at(k), sr + er), set(out_im + at(k), si + ei);        \
        set(out_re + at(k + q), dr + fi), set(out_im + at(k + q), di - fr); \
        set(out_re + at(k + 2 * q), sr - er), set(out_im + at(k + 2 * q), si - ei); \
        set(out_re + at(k + 3 * q), dr - fi), set(out_im + at(k + 3 * q), di + fr); \
    } while (0)
#define STORE8(p, v) (*(v8 *)(p) = (v))
#define GROUP_AT(k) (2 * (k))
#define PLANAR_AT(k) (k)

/* The Stockham passes of the lane FFTs on the lane buffers a and b, of
   type CV with vectors V, the result left in a: a sub-transform of n points
   at stride s becomes four of n / 4 points at stride 4 s, and a radix-2
   pass ends an odd log2 q. One twiddle of inner serves every lane. */
#define STOCKHAM(CV, V)                                                    \
    do {                                                                   \
        long n = q, s = 1;                                                 \
        for (; n >= 4; n /= 4, s *= 4) {                                   \
            const long m4 = n / 4;                                         \
            for (long p = 0; p < m4; p++) {                                \
                const double *w1 = f->inner + 2 * p * s, *w2 = w1 + 2 * p * s; \
                const double *w3 = w2 + 2 * p * s;                         \
                const double w1r = w1[0], w1i = w1[1], w2r = w2[0], w2i = w2[1]; \
                const double w3r = w3[0], w3i = w3[1];                     \
                for (long t = 0; t < s; t++) {                             \
                    const CV *restrict x0 = a + t + s * p, *restrict x1 = x0 + s * m4; \
                    const CV *restrict x2 = x1 + s * m4, *restrict x3 = x2 + s * m4; \
                    CV *restrict y = b + t + 4 * s * p;                    \
                    const V s02r = x0->re + x2->re, s02i = x0->im + x2->im; \
                    const V d02r = x0->re - x2->re, d02i = x0->im - x2->im; \
                    const V s13r = x1->re + x3->re, s13i = x1->im + x3->im; \
                    const V d13r = x1->re - x3->re, d13i = x1->im - x3->im; \
                    y[0].re = s02r + s13r;                                 \
                    y[0].im = s02i + s13i;                                 \
                    /* (d02 - i d13) W, (s02 - s13) W^2, (d02 + i d13) W^3 */ \
                    CMUL_INTO(y[s], d02r + d13i, d02i - d13r, w1r, w1i);   \
                    CMUL_INTO(y[2 * s], s02r - s13r, s02i - s13i, w2r, w2i); \
                    CMUL_INTO(y[3 * s], d02r - d13i, d02i + d13r, w3r, w3i); \
                }                                                          \
            }                                                              \
            CV *swap = a;                                                  \
            a = b, b = swap;                                               \
        }                                                                  \
        if (n == 2) {                                                      \
            for (long t = 0; t < s; t++) {                                 \
                const V xr = a[t].re, xi = a[t].im, yr = a[t + s].re, yi = a[t + s].im; \
                b[t].re = xr + yr, b[t].im = xi + yi;                      \
                b[t + s].re = xr - yr, b[t + s].im = xi - yi;              \
            }                                                              \
            a = b;                                                         \
        }                                                                  \
    } while (0)

/* The radix-4 pass across the lanes of a, of vectors V, four k at a time:
   lane r of a[k] times W_m^(rk), transposed to one lane of four k. */
#define ACROSS_PASS(V, transpose, set, at)                                 \
    for (long k = 0; k < q; k += 4) {                                      \
        V tr[4], ti[4];                                                    \
        for (int r = 0; r < 4; r++) {                                      \
            const V wr = WIDE(V, f->across[k + r].re), wi = WIDE(V, f->across[k + r].im); \
            tr[r] = a[k + r].re * wr - a[k + r].im * wi;                   \
            ti[r] = a[k + r].re * wi + a[k + r].im * wr;                   \
        }                                                                  \
        transpose(tr);                                                     \
        transpose(ti);                                                     \
        ACROSS(set, tr, ti, at);                                           \
    }

/* The m-point forward DFTs of the interleaved complex rows xa and xb, n
   doubles each and each times ``window``, into f->zr and f->zi in GROUPED
   order. xb may be xa. */
static inline __attribute__((always_inline)) void
cfft_pair(const struct fft *f, const double *xa, const double *xb, const double *window)
{
    const long q = f->q;
    double *restrict out_re = f->zr, *restrict out_im = f->zi;
    cv8 *a = f->lanes[0], *b = f->lanes[1];
    const v8l even = {0, 2, 4, 6, 8, 10, 12, 14};
    for (long t = 0; t < q; t++) {
        const v8 w = *(const v8u *)(window + 8 * t);
        const v8 za = *(const v8u *)(xa + 8 * t) * w, zb = *(const v8u *)(xb + 8 * t) * w;
        a[t] = (cv8){__builtin_shuffle(za, zb, even), __builtin_shuffle(za, zb, even + 1)};
    }
    STOCKHAM(cv8, v8);
    ACROSS_PASS(v8, TRANSPOSE8, STORE8, GROUP_AT);
}

/* cfft_pair's transform of one row z in four-lane vectors, into f->zr and
   f->zi in bin order: the inverse's, for which a pair would double the
   work. */
static inline __attribute__((always_inline)) void
cfft_row(const struct fft *f, const double *z)
{
    const long q = f->q;
    double *restrict out_re = f->zr, *restrict out_im = f->zi;
    cv4 *a = (cv4 *)f->lanes[0], *b = (cv4 *)f->lanes[1];
    for (long t = 0; t < q; t++) {
        const double *zt = z + 8 * t;
        a[t] = (cv4){{zt[0], zt[2], zt[4], zt[6]}, {zt[1], zt[3], zt[5], zt[7]}};
    }
    STOCKHAM(cv4, v4);
    ACROSS_PASS(v4, TRANSPOSE4, STORE4, PLANAR_AT);
}

/* E = (Z[k] + conj(Z[m - k])) / 2 and O = -i (Z[k] - conj(Z[m - k])) / 2
   are the spectra of the even and the odd samples at k; bins k and m - k
   are E + W_n^k O into kr + i ki and conj(E - W_n^k O) into mr + i mi. */
#define SPLIT(ar, ai, br, bi, wr, wi, kr, ki, mr, mi)                      \
    do {                                                                   \
        typedef __typeof__(ar) T_;                                         \
        const T_ ar_ = (ar), ai_ = (ai), br_ = (br), bi_ = (bi), wr_ = (wr), wi_ = (wi); \
        const T_ er = 0.5 * (ar_ + br_), ei = 0.5 * (ai_ + bi_);            \
        const T_ odd_r = 0.5 * (ai_ - bi_), odd_i = 0.5 * (br_ - ar_);      \
        const T_ tr = odd_r * wr_ - odd_i * wi_, ti = odd_r * wi_ + odd_i * wr_; \
        mr = er - tr, mi = ti - ei, kr = er + tr, ki = ei + ti;            \
    } while (0)

/* The one-sided spectra of the rows xa and xb of n real samples, each
   times ``window``, into (re_a, im_a) and (re_b, im_b), m + 1 bins each,
   with exact zeros for the imaginary parts at DC and Nyquist. xb may be xa.
   For k = m / 2 bin k is written as E + W_n^k O. */
static inline __attribute__((always_inline)) void
rfft_pair(const struct fft *f, const double *xa, const double *xb, const double *window,
          double *re_a, double *im_a, double *re_b, double *im_b)
{
    const long m = f->m;
    const double *zr = f->zr, *zi = f->zi;
    double *const re[2] = {re_a, re_b}, *const im[2] = {im_a, im_b};
    cfft_pair(f, xa, xb, window);
    /* Bins k = 4 g + i < m / 2 and m - k; Z[m - k] is lane 0 of group
       m / 4 - g (of group 0 for g = 0: Z is periodic) and lanes 3, 2, 1 of
       the group below. Bins 0 and m are written again below. */
    const v8l mirror = {8, 3, 2, 1, 12, 7, 6, 5}, reverse = {3, 2, 1, 0, 7, 6, 5, 4};
    const v8 *zr8 = (const v8 *)zr, *zi8 = (const v8 *)zi;
    const v4 *wr4 = (const v4 *)f->split_re, *wi4 = (const v4 *)f->split_im;
    for (long g = 0; g < m / 8; g++) {
        const long hi = g ? m / 4 - g : 0, lo = m / 4 - g - 1;
        const v8 br = __builtin_shuffle(zr8[lo], zr8[hi], mirror);
        const v8 bi = __builtin_shuffle(zi8[lo], zi8[hi], mirror);
        v8 kr, ki, mr, mi;
        SPLIT(zr8[g], zi8[g], br, -bi, WIDE(v8, wr4[g]), WIDE(v8, wi4[g]), kr, ki, mr, mi);
        mr = __builtin_shuffle(mr, reverse);
        mi = __builtin_shuffle(mi, reverse);
        STORE4(re_a + 4 * g, LOWER(kr)), STORE4(re_b + 4 * g, UPPER(kr));
        STORE4(im_a + 4 * g, LOWER(ki)), STORE4(im_b + 4 * g, UPPER(ki));
        STORE4(re_a + m - 4 * g - 3, LOWER(mr)), STORE4(re_b + m - 4 * g - 3, UPPER(mr));
        STORE4(im_a + m - 4 * g - 3, LOWER(mi)), STORE4(im_b + m - 4 * g - 3, UPPER(mi));
    }
    for (int h = 0; h < 2; h++) {
        const long k = m / 2, at = GROUPED(k, h);
        SPLIT(zr[at], zi[at], zr[at], -zi[at], f->split_re[k], f->split_im[k], re[h][k], im[h][k],
              re[h][k], im[h][k]);
        re[h][0] = zr[4 * h] + zi[4 * h], im[h][0] = 0.0;
        re[h][m] = zr[4 * h] - zi[4 * h], im[h][m] = 0.0;
    }
}

/* 2 (E + i O), conjugated, for the spectra of the even and the odd samples
   E = (X[k] + conj(X[m - k])) / 2 and O = (X[k] - conj(X[m - k])) W_n^-k / 2
   of four k from k on, into z[k] and z[m - k], written in that order. */
#define UNSPLIT(ar, ai, br, bi, wr, wi)                                     \
    do {                                                                   \
        const v4 ar_ = (ar), ai_ = (ai), br_ = (br), bi_ = (bi), wr_ = (wr), wi_ = (wi); \
        const v4 er = ar_ + br_, ei = ai_ + bi_, dr = ar_ - br_, di = ai_ - bi_; \
        const v4 odd_r = dr * wr_ + di * wi_, odd_i = di * wr_ - dr * wi_;  \
        STORE_COMPLEX4(z + 2 * k, er - odd_i, -(ei + odd_r));              \
        STORE_COMPLEX4_REVERSED(z + 2 * (m - k), er + odd_i, ei - odd_r);  \
    } while (0)

/* n real samples from their one-sided spectrum (m + 1 complex), ignoring
   the imaginary parts at DC and Nyquist as numpy's irfft does: the inverse
   FFT is the conjugate of the forward one of the conjugate, cfft_row's,
   and 1 / n scales it. For k = m / 2 the write of z[m - k] is kept. */
static inline __attribute__((always_inline)) void
irfft_row(const struct fft *f, const double *restrict spec, double *restrict x)
{
    const long m = f->m;
    const double *zr = f->zr, *zi = f->zi, *wr = f->split_re, *wi = f->split_im;
    double *z = f->z;
    z[0] = spec[0] + spec[2 * m];
    z[1] = spec[2 * m] - spec[0];
    for (long k = 1; k < m / 2; k += 4)
        UNSPLIT(REAL4(spec + 2 * k), IMAG4(spec + 2 * k), REVERSE4(REAL4(spec + 2 * (m - k - 3))),
                -REVERSE4(IMAG4(spec + 2 * (m - k - 3))), LOAD4(wr + k), LOAD4(wi + k));
    cfft_row(f, z);
    const double scale = 1.0 / (double)f->n;
    for (long t = 0; t < m; t += 4)
        STORE_COMPLEX4(x + 2 * t, LOAD4(zr + t) * scale, -LOAD4(zi + t) * scale);
}

/* rfft: ``n_rows`` rows of n real samples ``x``, each times the n doubles
   of ``window``, to their one-sided spectra ``out``, (n_rows, 2, n / 2 + 1)
   doubles: each row's real parts, then its imaginary parts, two rows at a
   time and an odd last row paired with itself. irfft: one interleaved
   complex spectrum to n samples. ``plan`` is fft_plan's; the engine's
   framing does the same transforms. */
LANE_CLONES
void rfft(long n, long n_rows, double *plan, const double *window, const double *x, double *out)
{
    const struct fft f = fft_parts(n, plan);
    for (long a = 0; a < n_rows; a += 2) {
        const long b = a + 1 < n_rows ? a + 1 : a;
        double *out_a = out + a * (n + 2), *out_b = out + b * (n + 2);
        rfft_pair(&f, x + a * n, x + b * n, window, out_a, out_a + n / 2 + 1, out_b,
                  out_b + n / 2 + 1);
    }
}

LANE_CLONES
void irfft(long n, double *plan, const double *spec, double *x)
{
    const struct fft f = fft_parts(n, plan);
    irfft_row(&f, spec, x);
}

/* The engine's framing and buffers, allocated once: ``tail`` (P + 1, hop),
   ``buf`` (P + 1, window_len), ``emit`` hop, ``plan`` fft_plan's, the rest
   window_len doubles. A frame's obs and out are the state's. */
struct engine {
    struct state *state;
    long order_p, frames_l, hop, window_len;
    double *tail, *buf, *window, *plan, *synth, *acc, *norm, *emit;
};

/* for (t = 0; t < n; t++) body, LANES entries at a time through unaligned
   vectors and then one at a time: in body, E(p) is the vector or the double
   at p + t. */
#define EACH(n, body)                                                      \
    do {                                                                   \
        long t = 0;                                                        \
        { typedef v8u T; for (; t + LANES <= (n); t += LANES) body; }      \
        { typedef double T; for (; t < (n); t++) body; }                   \
    } while (0)
#define E(p) (*(T *)((p) + t))

/* frame_in: row 0 of ``tail`` holds the hop of microphone samples and row 1
   the far-end samples x; rows 2..P get x^3, ..., x^(2P - 1), each the row
   above times x * x, as nonlin.odd_powers builds them. Returns 0, having
   written nothing but ``tail``, if any entry of ``tail`` is not finite.
   Otherwise shifts each row of ``buf`` left by a hop, appends the row of
   ``tail``, and transforms the rows of ``buf`` times the window, two at a
   time, into the planes of ``obs``: the microphone into the plane pair of
   channel 0, and each reference's spectrum over its oldest lag, whose
   plane pair becomes its lag 0 as the state's ``channel`` entries of its
   lags rotate by one, so no plane moves. The padding lanes of each written
   plane get bin K - 1. Returns 1. */
LANE_CLONES
long frame_in(const struct engine *e)
{
    const long order_p = e->order_p, frames_l = e->frames_l, hop = e->hop;
    const long window_len = e->window_len, n_bins = window_len / 2 + 1;
    const long plane = (n_bins + LANES - 1) / LANES * LANES;
    double *tail = e->tail, *restrict obs = (double *)e->state->obs, *re[2];
    const double *restrict x = tail + hop;
    for (long i = 2; i <= order_p; i++) {
        double *restrict power = tail + i * hop;
        const double *restrict below = power - hop;
        EACH(hop, E(power) = E(below) * (E(x) * E(x)));
    }
    /* v - v is 0 for finite v and NaN for an infinity or NaN. */
    v8 check = {0.0};
    EACH((order_p + 1) * hop, check += E(tail) - E(tail));
    for (int l = 0; l < LANES; l++)
        if (check[l] != 0.0)
            return 0;
    const long keep = window_len - hop;
    for (long r = 0; r <= order_p; r++) {
        double *b = e->buf + r * window_len;
        memmove(b, b + hop, sizeof(double) * keep);
        memcpy(b + keep, tail + r * hop, sizeof(double) * hop);
    }
    const struct fft f = fft_parts(window_len, e->plan);
    long *channel = e->state->channel;
    for (long a = 0; a <= order_p; a += 2) {
        const long b = a < order_p ? a + 1 : a;
        for (long i = a; i <= b; i++) {
            long *lags = channel + (i ? 1 + (i - 1) * frames_l : 0), oldest = lags[0];
            if (i) {
                oldest = lags[frames_l - 1];
                memmove(lags + 1, lags, sizeof(long) * (frames_l - 1));
                lags[0] = oldest;
            }
            re[i - a] = obs + 2 * plane * oldest;
        }
        re[1] = re[b - a];
        rfft_pair(&f, e->buf + a * window_len, e->buf + b * window_len, e->window, re[0],
                  re[0] + plane, re[1], re[1] + plane);
        for (int h = 0; h < 2; h++)
            for (long k = n_bins; k < plane; k++)
                re[h][k] = re[h][n_bins - 1], re[h][plane + k] = re[h][plane + n_bins - 1];
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
    EACH(window_len, E(acc) += E(synth) * E(window));
    EACH(hop, E(emit) = E(acc) / E(norm));
    memmove(acc, acc + hop, sizeof(double) * (window_len - hop));
    memset(acc + window_len - hop, 0, sizeof(double) * hop);
}

/* frame_in, step and ola; returns -1 if frame_in rejected the tail, else 1
   if ``emit`` holds a hop to emit, which it does from frame window_len / hop
   on, and 0 before. */
long push(const struct engine *e)
{
    if (!frame_in(e))
        return -1;
    step(e->state);
    ola(e);
    return e->state->frames > e->window_len / e->hop - 1;
}

/* The sizes and field offsets of struct state and struct engine in
   declaration order, into ``out``, for the tests; returns their count. */
#define AT(s, f) (long)__builtin_offsetof(struct s, f)
long layout(long *out)
{
    const long at[] = {
        sizeof(struct state), AT(state, n_bins), AT(state, dim), AT(state, alpha),
        AT(state, diag_load), AT(state, floor), AT(state, exponent), AT(state, cov_init),
        AT(state, inv), AT(state, trace), AT(state, basis), AT(state, r1), AT(state, work),
        AT(state, rows), AT(state, obs), AT(state, channel), AT(state, gain), AT(state, v1),
        AT(state, out), AT(state, frames), AT(state, skipped_bins), AT(state, broken_bins),
        sizeof(struct engine),
        AT(engine, state), AT(engine, order_p), AT(engine, frames_l), AT(engine, hop),
        AT(engine, window_len), AT(engine, tail), AT(engine, buf), AT(engine, window),
        AT(engine, plan), AT(engine, synth), AT(engine, acc), AT(engine, norm),
        AT(engine, emit)};
    memcpy(out, at, sizeof(at));
    return sizeof(at) / sizeof(at[0]);
}
