/* The compiled library of liees: the RK4 kernel of liees.sim and its
 * trajectory CSV codec.
 *
 * Classical RK4 for x' = f(x) * Q[c] + P[c]: the loop of liees.sim._rk4,
 * specialised to two stage functions f of a power cost
 * J(x) = alpha * (x - xstar)^m.  With no terms, f is J itself (the full
 * system, integrate).  With terms, f is the averaged Lie-bracket field of
 * integrate_lbs,
 *
 *     f(x) = -(0.0 + g_1 * (c_1 * (x - s_1)^p_1) + g_2 * (...) + ...),
 *
 * one (g, c, s, p) row per bracket term, c (x - s)^p being the analytic
 * derivative of J that costs.derivative evaluates.  Each stage takes the
 * parity of p with is_odd, as it takes that of m, and as CPython's float_pow
 * takes it on every call.
 *
 * Every floating-point operation outside the powers happens in the order the
 * Python stepper performs it, so the stored states and their costs are
 * bitwise equal to the Python path as long as each power v^n is the double
 * CPython's float ** int returns, which is libm pow(v, n).  Most powers are
 * not computed by pow here:
 *
 *   - For n = 2, 3, 4 and 2^-64 <= |v| <= 2^64, pow_small forms |v|^n as a
 *     double-double hi + lo from error-free products (below), within 2^-103
 *     relative of the exact power y, and returns hi = RN(y) when
 *     |lo| <= 0.45 ulp(hi) and hi is not a power of two.  Then y lies at
 *     least 0.05 ulp from a rounding midpoint, so every double other than hi
 *     is more than 0.55 ulp from y.  glibc's pow (2.28 and later,
 *     sysdeps/ieee754/dbl-64/e_pow.c) documents a worst-case error of
 *     0.54 ulp, so it returns hi too: the two paths give the same bits.  The
 *     band needs only 0.04 ulp plus the double-double's error; 0.05 leaves
 *     room for both.
 *   - For n = 1 the kernel returns v: v is a double, so pow, within
 *     0.54 ulp, returns v too.  n = 0 and the bases 0, +-1, NaN and inf
 *     take CPython's own special cases, which call no pow.
 *   - Within that band of a midpoint, for a power of two hi, for every other
 *     exponent (n > 4, non-integral) and for |v| outside [2^-64, 2^64]
 *     (where v^n could overflow or underflow), the kernel calls pow and
 *     reads errno exactly as CPython does.
 *
 * The sign of v is taken as CPython takes it: the power of |v| is formed,
 * then negated for a negative v and an odd n.
 *
 * An error-free product splits a b into p = RN(a b) and the error
 * e = a b - p, itself a double, in one of two ways:
 *   - by a fused multiply-add, e = fma(a, b, -p), which rounds the exact
 *     a b - p once and so returns it (TwoProductFMA: Ogita, Rump and Oishi,
 *     SIAM J. Sci. Comput. 26(6), 2005);
 *   - by Dekker's split of a and b into 26-bit halves, whose products and
 *     sums are all exact (Dekker, Numer. Math. 18, 1971).
 * Both are exact unless something overflows or underflows.  Here
 * 2^-128 <= |a|, |b| <= 2^128 and every exact product is a multiple of
 * 2^-360 below 2^257, so nothing does: the two forms give the same (p, e),
 * hence the same hi and lo, the same decision at the 0.05-ulp band and the
 * same bits in every state.  The one RK4 loop, rk4_loop, is built twice: a
 * portable build with the split (liees_rk4_split, exported so that tests
 * run it on any CPU) and a build with __attribute__((target("fma"))).
 * liees_rk4 runs the fused form only where __FP_FAST_FMA is defined (fma is
 * one instruction on every CPU), else on x86-64 the one chosen once, when the
 * library loads, from __builtin_cpu_supports("fma"), else the portable one.
 * Each build takes the powers of the full system's stages, nearly all the
 * powers of a run, inline in its own form; the averaged field and the stored
 * costs call one shared copy with the split.
 * The library is built without -mfma, so the portable build runs where the
 * CPU has no FMA.  Build with -ffp-contract=off and without -ffast-math:
 * then the only fused multiply-adds are the fma calls of the products, and a
 * contraction anywhere else (in the split, the band test or the stepper) or
 * a pow expanded into multiplications, which would round differently, never
 * happens.
 *
 * The same library holds the trajectory CSV codec of liees.sim.  Its bytes
 * and values equal those of the Python codec, which runs when this library
 * does not load.  The codec needs unsigned __int128: a compiler without it
 * stops at an #error, and liees then runs in Python, with the same results.
 *
 *   - liees_format_rows writes each value as Python's "%.17g" % v does: the
 *     exact binary value rounded to 17 significant digits, ties to even, in
 *     C's %g style.  glibc's printf does the same in the C locale, except
 *     that it writes -nan for a NaN whose sign bit is set, where Python
 *     always writes nan.  The writer forms most fields itself, with exact
 *     integer arithmetic (after Adams, "Ryu revisited: printf floating point
 *     conversion", OOPSLA 2019, which %.17g needs without its tables), for a
 *     normal v with 1e-38 < |v| < 2^128:
 *       1. |v| = m 2^q with 2^52 <= m < 2^53, so 2^e2 <= |v| < 2^(e2+1) for
 *          e2 = q + 52, and the decimal exponent X = floor(log10 |v|) is
 *          E = floor(e2 log10 2) or E + 1.  E is floor(e2 78913 / 2^18), which
 *          equals floor(e2 log10 2) for every |e2| <= 1100 (checked with exact
 *          rationals).  At e2 = -127 that gives -39, but X >= -38, since the
 *          double 1e-38 lies below 10^-38 and every larger double above it,
 *          so E is raised to -38.  Then X - 1 <= E <= X.
 *       2. With j = 16 - E, F = floor(|v| 10^j) = floor(m 5^j 2^(q+j)) and its
 *          remainder are exact:
 *            - j < 0 (|v| >= 1e17): q >= 5 and m 2^q < 2^128 is divided by
 *              10^-j <= 10^22 in 128 bits;
 *            - 0 <= j <= 32: m 5^j < 2^53 5^32 < 2^128 is shifted right by
 *              -(q + j), which lies in [-4, 73] (left for a negative shift,
 *              where F is exact);
 *            - 33 <= j <= 54: m 5^j = (m 5^27) 5^(j-27) < 2^179 is held as
 *              hi 2^64 + lo, hi in 128 bits and lo in 64, and the shift
 *              -(q + j) lies in [73, 125], so F = hi >> (-(q + j) - 64) and
 *              lo only says whether the remainder is exactly a half (a
 *              sticky bit).
 *          Each remainder is classed as zero, below, at or above a half.
 *       3. F < 10^18, as E >= X - 1.  If F >= 10^17, E was one low: the floor
 *          for j - 1 is floor(F / 10), and its remainder, (F mod 10 + r) / 10
 *          for the remainder r < 1 of F, is classed from F mod 10 and the
 *          class of r.  Now 10^16 <= F < 10^17 and E = X.
 *       4. F rounds up when the remainder is above a half, or at a half with
 *          F odd: half to even.  A carry to 10^17 becomes 10^16 with E + 1.
 *          F and E are now the 17 digits and the exponent that printf and
 *          Python write, as they round the same exact value the same way.
 *       5. C's %g with precision 17 writes F as d.dddde+XX when E < -4 or
 *          E >= 17, else in fixed form with 16 - E decimals; trailing zeros
 *          of the fraction are removed, with the point when none is left, and
 *          the exponent is e+XX or e-XX with at least two digits (|E| <= 38
 *          here).
 *     +-0, +-inf and NaN are written as 0, -0, inf, -inf and nan, as both
 *     spell them.  Every other field (subnormals, 0 < |v| <= 1e-38 and
 *     |v| >= 2^128) is written by snprintf "%.17g".
 *   - liees_parse_rows reads only the writer's own grammar: fields
 *     -?[0-9]+(\.[0-9]+)?(e[+-][0-9]+)?, inf, -inf and nan, separated by
 *     commas, with \n or \r\n line ends.  inf and nan are the constants
 *     float() returns.  Each numeric field is read once: the pass that checks
 *     the grammar also collects its significand w (the digits after the
 *     leading zeros, at most 19 of them, so w < 10^19 < 2^64) and its decimal
 *     exponent e, the value being w 10^e exactly.  w = 0 is +-0.  Otherwise
 *     the Eisel-Lemire algorithm (D. Lemire, "Number parsing at a gigabyte
 *     per second", Softw. Pract. Exp. 51(8), 2021), in the form of Go's
 *     strconv that declines what it cannot decide, converts it:
 *       1. POW10 holds 10^e for -55 <= e <= 55 as M 2^e2 with
 *          2^127 <= M < 2^128 and M = floor(10^e 2^-e2): for e >= 0, M is
 *          5^e < 2^128 shifted left, exact; for e < 0, floor(2^b / 5^-e) by
 *          long division.  The constructor computes it in unsigned __int128.
 *       2. With w shifted up to bit 63, the product of w and M's high word is
 *          exact and lies below w M by less than w units of its low word.
 *          That error can reach the 54 bits kept of its high word only when
 *          adding w overflows the low word and the high word's lowest 9 bits,
 *          all below the kept ones, are ones.  Only then is the product with
 *          M's low word added, whose error is again below w units of the word
 *          under it; if that sum can still carry into the kept bits, it
 *          declines.  Otherwise the kept bits are those of w 10^e.
 *       3. They round to 53 bits, half up.  When the low word and the lowest
 *          9 bits are zero, the rounding bit one and the bit above it zero,
 *          w 10^e may be an exact tie, which rounds to even: it declines.
 *          Every other result is w 10^e correctly rounded, ties to even.
 *       4. It declines a result out of the normal range, which w 10^e with
 *          |e| <= 55 never reaches.
 *     Fields with more than 19 significant digits, an exponent outside the
 *     table, or a declined conversion go to glibc's strtod.  strtod and
 *     CPython's float both round a decimal string correctly (to the nearest
 *     double, ties to even, overflow to inf and underflow to a subnormal or
 *     zero), so every field reads as float() reads it, whichever path takes
 *     it.  The fields of the writer's exact path have at most 17 digits and
 *     |e| <= 54, so strtod reads only the declined ones, such as exact binary
 *     values with a short decimal (1.625).
 *     The first line outside that grammar stops the parser, and the caller
 *     then reads the whole file in Python: one parser per file.
 *
 * Python's codec ignores the process locale, while printf and strtod follow
 * LC_NUMERIC, which a host program may set to a decimal comma.  So both run
 * under a C locale object of their own (uselocale around each snprintf,
 * strtod_l) and write and read the same bytes under any locale; the exact
 * path of the writer and the Eisel-Lemire path of the reader read no
 * locale.
 *
 * Each codec call splits its work into the number of parts it is given.
 * Parts 1 and up run on threads the call starts and joins before it returns,
 * part 0 on the calling thread, and a part whose thread fails to start runs
 * inline after part 0; no thread outlives the call.  The bytes, the values
 * and (rows, used) are those of a one-part call, whatever the count:
 *
 *   - liees_format_rows gives each part a run of consecutive rows.  A field's
 *     bytes depend on its value alone (the locale is per thread), so each
 *     part writes the bytes a one-part call writes for its rows, at the
 *     offset of its first row's 25 ncol bytes, which no part before it
 *     reaches; the parts are then moved down in order, end to end.
 *   - liees_parse_rows splits the text just past a line end, so every line
 *     lies whole in one part.  A part's first row is the number of line ends
 *     in the parts before it, which is the row a one-part call reaches it at
 *     when all of them parse whole, and its last row is capped at max_rows as
 *     well.  Parts are then taken in order up to and including the first
 *     that stops early: the rows and bytes up to there are those of the
 *     one-part call, which stops at the same line, and the rows of the parts
 *     after it lie beyond the rows returned.  A field converts to the same
 *     double in any part (strtod only reads up to a delimiter inside the
 *     text, see parse_field).
 *
 * liees.sim asks for one part per CPU the process may run on, but no more
 * than gives each part 4096 fields to format or 64 KiB of text to parse.  On
 * the 2-vCPU host (Xeon, glibc 2.36) a thread's start and join took about
 * 0.02-0.03 ms, a field about 64 ns to format and a byte about 3.4 ns to
 * parse, so each part is about 0.25 ms of work, some ten times a thread's
 * cost.  Two parts of at least those sizes formatted 1.8-1.9x and parsed
 * 1.3-1.8x as fast as one part, while two parts of 768 fields or of 8 KiB
 * took longer than one (0.85x, 0.73x).
 */

#define _GNU_SOURCE
#include <errno.h>
#include <locale.h>
#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

enum {
    RK4_OK = 0, RK4_EXCEEDED = 1, RK4_OVERFLOW = 2, RK4_COST_OVERFLOW = 3,
    RK4_NONFINITE = 4
};

/* Inlined into both builds of the RK4 loop, where use_fma is a constant:
 * each build then holds one form of the products, and the full system's
 * stages make no call.  With a call to py_pow per stage, a fig1 step of the
 * FMA build took about 111 ns against 92 ns inline (2-vCPU Xeon, gcc 12). */
#define INLINE static inline __attribute__((always_inline))

/* a * b = *p + *e exactly (see the header): by a fused multiply-add when
 * use_fma, else by Dekker's split into 26-bit halves. */
INLINE void two_prod(int use_fma, double a, double b, double *p, double *e)
{
    *p = a * b;
    if (use_fma) {
        *e = fma(a, b, -*p);
    } else {
        const double ca = 134217729.0 * a, cb = 134217729.0 * b; /* 2^27 + 1 */
        const double ah = ca - (ca - a), al = a - ah;
        const double bh = cb - (cb - b), bl = b - bh;
        *e = ((ah * bh - *p) + ah * bl + al * bh) + al * bl;
    }
}

/* v^n for n = 2, 3, 4 and 2^-64 <= v <= 2^64, correctly rounded, in *r.
 * Returns 0, leaving *r alone, when v^n lies within 0.05 ulp of a rounding
 * midpoint or rounds to a power of two: there pow alone decides. */
INLINE int pow_small(int use_fma, double v, int n, double *r)
{
    double hi, lo, q, f, ulp;
    uint64_t bits;

    two_prod(use_fma, v, v, &hi, &lo); /* v^2 = hi + lo */
    if (n != 2) {
        if (n == 3) {
            two_prod(use_fma, hi, v, &q, &f);
            lo = f + lo * v;
        } else {
            /* v^4 = q + f + 2 hi lo + lo^2, and lo^2 <= 2^-106 v^4 is dropped */
            two_prod(use_fma, hi, hi, &q, &f);
            lo = f + 2.0 * hi * lo;
        }
        hi = q + lo;
        lo = lo - (hi - q);
    }
    memcpy(&bits, &hi, sizeof bits);
    if ((bits & 0x000fffffffffffffULL) == 0)
        return 0;
    /* ulp(hi): hi >= 2^-256, so the exponent less 52 stays normal */
    bits = (bits & 0x7ff0000000000000ULL) - (52ULL << 52);
    memcpy(&ulp, &bits, sizeof ulp);
    if (fabs(lo) > 0.45 * ulp)
        return 0;
    *r = hi;
    return 1;
}

/* CPython's float_pow for a nonnegative integral exponent w (odd: w is odd).
 * Stores v ** w in *r; returns nonzero where Python raises OverflowError,
 * which is only when pow leaves the double range for a finite base. */
INLINE int py_pow(int use_fma, double v, double w, int odd, double *r)
{
    int negate = 0;
    double ix;

    if (w == 0.0) {
        *r = 1.0;
        return 0;
    }
    if (isnan(v)) {
        *r = v;
        return 0;
    }
    if (isinf(v)) {
        *r = odd ? v : fabs(v);
        return 0;
    }
    if (v == 0.0) {
        *r = odd ? v : 0.0;
        return 0;
    }
    if (v < 0.0) {
        v = -v;
        negate = odd;
    }
    if (v == 1.0) {
        *r = negate ? -1.0 : 1.0;
        return 0;
    }
    if (w == 1.0) {
        *r = negate ? -v : v;
        return 0;
    }
    if ((w == 2.0 || w == 3.0 || w == 4.0) && v >= 0x1p-64 && v <= 0x1p64
            && pow_small(use_fma, v, (int) w, &ix)) {
        *r = negate ? -ix : ix;
        return 0;
    }
    errno = 0;
    ix = pow(v, w);
    if (errno == 0) {
        if (isinf(ix))
            errno = ERANGE;
    } else if (errno == ERANGE && ix == 0.0) {
        errno = 0;
    }
    *r = negate ? -ix : ix;
    return errno != 0;
}

/* py_pow out of line with the split products, for the powers off the hot
 * path: the averaged field of integrate_lbs (4 steps a period, against 512
 * for the full system in fig1) and the stored costs.  Both forms give the
 * same bits, and one copy here keeps the compile time down. */
static int py_pow_cold(double v, double w, int odd, double *r)
{
    return py_pow(0, v, w, odd, r);
}

static int is_odd(double w)
{
    return fmod(fabs(w), 2.0) == 1.0;
}

/* The stage function f(y), stored in *r.  Each row of terms is
 * (g, c, s, p), whose parity of p is_odd takes here, as CPython's float_pow
 * takes it on every call; odd is that of m.  Returns RK4_OVERFLOW where
 * Python raises OverflowError, and RK4_NONFINITE where costs.derivative
 * raises NumericFailureError, with the index of that term in *bad. */
INLINE int stage(int use_fma, double alpha, double xstar, double m, int odd,
                 const double *terms, int64_t nterms, double y, double *r,
                 int64_t *bad)
{
    double p, acc = 0.0;
    int64_t t;

    if (nterms == 0) {
        if (py_pow(use_fma, y - xstar, m, odd, &p))
            return RK4_OVERFLOW;
        *r = alpha * p;
        return RK4_OK;
    }
    for (t = 0; t < nterms; t++) {
        const double *g = terms + 4 * t;
        double d;
        if (py_pow_cold(y - g[2], g[3], is_odd(g[3]), &p))
            return RK4_OVERFLOW;
        d = g[1] * p;
        if (!isfinite(d)) {
            *bad = t;
            return RK4_NONFINITE;
        }
        acc = acc + g[0] * d;
    }
    *r = -acc;
    return RK4_OK;
}

#define RK4_PARAMS                                                                    \
    double alpha, double xstar, double m, const double *terms, int64_t nterms,        \
    const double *P, const double *Q, int64_t ncol, double x0, double h, int64_t n_out, \
    int64_t dec, double limit, double *out, double *jout, int64_t *k_fail, double *x_fail
#define RK4_ARGS                                                                      \
    alpha, xstar, m, terms, nterms, P, Q, ncol, x0, h, n_out, dec, limit, out, jout,  \
    k_fail, x_fail

/* Integrates n_out * dec steps of size h from x0, writing every dec-th state
 * to out[1..n_out] (out[0] = x0) and its cost J to jout[0..n_out].  Columns c
 * of P and Q index the step/half-step grid of one period and wrap at ncol.
 * The stage function is J when nterms is 0, else the averaged field over the
 * nterms (g, c, s, p) rows of terms.
 *
 * On divergence returns RK4_EXCEEDED (the state left (-limit, limit)) or
 * RK4_OVERFLOW, with the index of the failing step in *k_fail and the state at
 * its start in *x_fail.  A non-finite derivative returns RK4_NONFINITE with
 * its term index in *k_fail and the stage argument in *x_fail.  When the cost
 * of a stored state overflows but the integration completes, the states are
 * complete and it returns RK4_COST_OVERFLOW.  The products are formed by fma
 * when use_fma, else by Dekker's split; the results are the same. */
INLINE int rk4_loop(int use_fma, RK4_PARAMS)
{
    const double hh = 0.5 * h;
    const double h6 = h / 6.0;
    const int odd = is_odd(m);
    double x = x0, y = x0, p, f1, k1, k2, k3, k4, xn;
    int64_t c = 0, i, j, bad = 0;
    int status, cost_overflow = 0;

#define STAGE(arg, res)                                                                   \
    do {                                                                                  \
        y = (arg);                                                                        \
        status = stage(use_fma, alpha, xstar, m, odd, terms, nterms, y, &(res), &bad);    \
        if (status)                                                                       \
            goto fail;                                                                    \
    } while (0)

    out[0] = x0;
    for (i = 0; i < n_out; i++) {
        for (j = 0; j < dec; j++) {
            const int64_t b = c + 1;
            STAGE(x, f1);
            if (j == 0) {
                if (nterms == 0)
                    jout[i] = f1;
                else if (py_pow_cold(x - xstar, m, odd, &p))
                    cost_overflow = 1;
                else
                    jout[i] = alpha * p;
            }
            k1 = f1 * Q[c] + P[c];
            STAGE(x + hh * k1, k2);
            k2 = k2 * Q[b] + P[b];
            STAGE(x + hh * k2, k3);
            k3 = k3 * Q[b] + P[b];
            c += 2;
            if (c >= ncol)
                c -= ncol;
            STAGE(x + h * k3, k4);
            k4 = k4 * Q[c] + P[c];
            xn = x + h6 * (k1 + 2.0 * (k2 + k3) + k4);
            if (!(-limit < xn && xn < limit)) {
                status = RK4_EXCEEDED;
                goto fail;
            }
            x = xn;
        }
        out[i + 1] = x;
    }
#undef STAGE
    if (py_pow_cold(x - xstar, m, odd, &p))
        return RK4_COST_OVERFLOW;
    jout[n_out] = alpha * p;
    return cost_overflow ? RK4_COST_OVERFLOW : RK4_OK;

fail:
    if (status == RK4_NONFINITE) {
        *k_fail = bad;
        *x_fail = y;
    } else {
        *k_fail = i * dec + j;
        *x_fail = x;
    }
    return status;
}

/* The portable build, with Dekker's split: it runs on any CPU. */
int liees_rk4_split(RK4_PARAMS)
{
    return rk4_loop(0, RK4_ARGS);
}

/* The build liees_rk4 runs, chosen once when the library loads. */
static int (*rk4_build)(RK4_PARAMS) = liees_rk4_split;

#if defined(__FP_FAST_FMA)
/* fma is one instruction on every CPU of this target: the fused form only */
static int rk4_fma(RK4_PARAMS)
{
    return rk4_loop(1, RK4_ARGS);
}

__attribute__((constructor)) static void choose_rk4_build(void)
{
    rk4_build = rk4_fma;
}
#elif defined(__GNUC__) && defined(__x86_64__)
/* The build with FMA, run only where the CPU has it. */
__attribute__((target("fma"))) static int rk4_fma(RK4_PARAMS)
{
    return rk4_loop(1, RK4_ARGS);
}

__attribute__((constructor)) static void choose_rk4_build(void)
{
    __builtin_cpu_init();
    if (__builtin_cpu_supports("fma"))
        rk4_build = rk4_fma;
}
#endif

/* The RK4 loop of the header: the FMA build where the CPU has FMA, else the
 * portable build. */
int liees_rk4(RK4_PARAMS)
{
    return rk4_build(RK4_ARGS);
}

/* 1 when liees_rk4 runs the FMA build, else 0. */
int liees_rk4_uses_fma(void)
{
    return rk4_build != liees_rk4_split;
}

/* The C locale, made once when the library loads; (locale_t) 0 if that
 * failed, and then the codec entry points return -1. */
static locale_t c_locale;

#ifndef __SIZEOF_INT128__
#error "the CSV codec needs unsigned __int128"
#endif
typedef unsigned __int128 u128;

/* The reader's powers of ten 10^e = (m + delta) 2^e2, 0 <= delta < 1,
 * 2^127 <= m < 2^128, at POW10[e + POW10_MAX] (see the header). */
#define POW10_MAX 55
static struct {
    u128 m;
    int e2;
} POW10[2 * POW10_MAX + 1];

static void make_pow10(void)
{
    u128 five = 1;
    int e, k;

    /* 5^e < 2^128 for e <= 55 */
    for (e = 0; e <= POW10_MAX; e++, five *= 5) {
        const int z = 128 - (five >> 64 ? __builtin_clzll((uint64_t) (five >> 64))
                                        : 64 + __builtin_clzll((uint64_t) five));
        POW10[POW10_MAX + e].m = five << (128 - z);
        POW10[POW10_MAX + e].e2 = e + z - 128;
        if (e > 0) {
            /* floor(2^(z+127) / 5^e), 5^e having z bits: its first bit is 1,
             * with remainder 2^z - 5^e, then one bit per step */
            u128 q = 1, r = (z < 128 ? (u128) 1 << z : 0) - five;
            for (k = 0; k < 127; k++) {
                const int top = (int) (r >> 127);
                r <<= 1;
                q <<= 1;
                if (top || r >= five) {
                    r -= five;
                    q |= 1;
                }
            }
            POW10[POW10_MAX - e].m = q;
            POW10[POW10_MAX - e].e2 = -e - z - 127;
        }
    }
}

__attribute__((constructor)) static void make_codec_tables(void)
{
    c_locale = newlocale(LC_ALL_MASK, "C", (locale_t) 0);
    make_pow10();
}

/* "%.17g" of v by glibc's snprintf in the C locale, at p; returns its length. */
static int format_libc(char *p, double v)
{
    const locale_t old = uselocale(c_locale);
    const int len = snprintf(p, 25, "%.17g", v);

    uselocale(old);
    return len;
}

static const char DIGIT_PAIRS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

#define P5_27 7450580596923828125ULL
/* 5^j for j = 0..32; m 5^j < 2^128 for every m < 2^53. */
static const u128 POW5[33] = {
    1ULL, 5ULL, 25ULL, 125ULL, 625ULL, 3125ULL, 15625ULL, 78125ULL, 390625ULL,
    1953125ULL, 9765625ULL, 48828125ULL, 244140625ULL, 1220703125ULL,
    6103515625ULL, 30517578125ULL, 152587890625ULL, 762939453125ULL,
    3814697265625ULL, 19073486328125ULL, 95367431640625ULL, 476837158203125ULL,
    2384185791015625ULL, 11920928955078125ULL, 59604644775390625ULL,
    298023223876953125ULL, 1490116119384765625ULL, 7450580596923828125ULL,
    (u128) P5_27 * 5, (u128) P5_27 * 25, (u128) P5_27 * 125, (u128) P5_27 * 625,
    (u128) P5_27 * 3125
};

/* Where the remainder of a shift or division lies: zero, below, at or above
 * half of the divisor. */
enum { REM_ZERO, REM_BELOW, REM_HALF, REM_ABOVE };

/* The class of the remainder r against half, with sticky set when nonzero
 * bits lie below r. */
static inline int rem_class(u128 r, u128 half, int sticky)
{
    if (r < half)
        return r != 0 || sticky ? REM_BELOW : REM_ZERO;
    if (r == half)
        return sticky ? REM_ABOVE : REM_HALF;
    return REM_ABOVE;
}

/* The 17 digits of 10^16 <= f < 10^17 at d. */
static inline void put_digits17(char *d, uint64_t f)
{
    uint32_t hi = (uint32_t) (f / 100000000), lo = (uint32_t) (f % 100000000);
    int i;

    for (i = 15; i >= 9; i -= 2) {
        memcpy(d + i, DIGIT_PAIRS + 2 * (lo % 100), 2);
        lo /= 100;
    }
    for (i = 7; i >= 1; i -= 2) {
        memcpy(d + i, DIGIT_PAIRS + 2 * (hi % 100), 2);
        hi /= 100;
    }
    d[0] = (char) ('0' + hi);
}

/* "%.17g" of the normal double with biased exponent be, 53-bit significand m
 * and sign neg, for 1e-38 < |v| < 2^128, at p; returns its length.  The
 * steps are those of the header. */
static int format_exact(char *p, int neg, int be, uint64_t m)
{
    const int q = be - 1075, e2 = be - 1023;
    /* E = floor(e2 78913 / 2^18) = floor(e2 log10 2); adding 39 before the
     * shift and taking it off after keeps the shifted value nonnegative */
    int e = ((e2 * 78913 + (39 << 18)) >> 18) - 39, j, rem, nd = 17;
    uint64_t f;
    char d[17], *s = p;

    if (e < -38)
        e = -38;
    j = 16 - e;
    if (j < 0) {
        const u128 n = (u128) m << q, ten = POW5[-j] << -j;
        f = (uint64_t) (n / ten);
        rem = rem_class(n % ten, ten >> 1, 0);
    } else if (j <= 32) {
        const u128 n = (u128) m * POW5[j];
        const int sh = -(q + j);
        if (sh <= 0) {
            f = (uint64_t) (n << -sh);
            rem = REM_ZERO;
        } else {
            f = (uint64_t) (n >> sh);
            rem = rem_class(n & (((u128) 1 << sh) - 1), (u128) 1 << (sh - 1), 0);
        }
    } else {
        /* m 5^j = (m 5^27) 5^(j-27) = hi 2^64 + (uint64_t) lo */
        const u128 a = (u128) m * P5_27;
        const uint64_t b = (uint64_t) POW5[j - 27];
        const u128 lo = (u128) (uint64_t) a * b;
        const u128 hi = (a >> 64) * b + (lo >> 64);
        const int sh = -(q + j) - 64;
        f = (uint64_t) (hi >> sh);
        rem = rem_class(hi & (((u128) 1 << sh) - 1), (u128) 1 << (sh - 1), (uint64_t) lo != 0);
    }
    if (f >= 100000000000000000ULL) {
        /* E was one low: floor(|v| 10^(j-1)) = floor(f / 10) */
        const int last = (int) (f % 10);
        f /= 10;
        e++;
        if (last != 0 || rem != REM_ZERO)
            rem = last < 5 ? REM_BELOW : last > 5 || rem != REM_ZERO ? REM_ABOVE : REM_HALF;
    }
    if (rem == REM_ABOVE || (rem == REM_HALF && (f & 1))) {
        if (++f == 100000000000000000ULL) {
            f = 10000000000000000ULL;
            e++;
        }
    }
    put_digits17(d, f);
    while (d[nd - 1] == '0')
        nd--;
    if (neg)
        *s++ = '-';
    if (e < -4 || e >= 17) {
        *s++ = d[0];
        if (nd > 1) {
            *s++ = '.';
            memcpy(s, d + 1, nd - 1);
            s += nd - 1;
        }
        *s++ = 'e';
        *s++ = e < 0 ? '-' : '+';
        memcpy(s, DIGIT_PAIRS + 2 * (e < 0 ? -e : e), 2);
        s += 2;
    } else if (e >= 0) {
        memcpy(s, d, e + 1);
        s += e + 1;
        if (nd > e + 1) {
            *s++ = '.';
            memcpy(s, d + e + 1, nd - e - 1);
            s += nd - e - 1;
        }
    } else {
        /* "0." and -e-1 zeros */
        memcpy(s, "0.000", 1 - e);
        s += 1 - e;
        memcpy(s, d, nd);
        s += nd;
    }
    return (int) (s - p);
}

/* "%.17g" of v at p, nan for every NaN; returns its length. */
static inline int format_field(char *p, double v)
{
    uint64_t bits;
    int neg, be;

    memcpy(&bits, &v, sizeof bits);
    neg = (int) (bits >> 63);
    be = (int) (bits >> 52) & 0x7ff;
    bits &= 0x000fffffffffffffULL;
    if (be == 0x7ff && bits != 0) {
        memcpy(p, "nan", 3);
        return 3;
    }
    if (be == 0x7ff || (be == 0 && bits == 0)) {
        const int len = be ? 3 : 1;
        if (neg)
            *p++ = '-';
        memcpy(p, be ? "inf" : "0", len);
        return neg + len;
    }
    if (fabs(v) > 1e-38 && fabs(v) < 0x1p128)
        return format_exact(p, neg, be, bits | 1ULL << 52);
    return format_libc(p, v);
}

/* Most parts one codec call splits into; the caller asks for far fewer. */
#define MAX_PARTS 64

/* Runs run(parts + i * size) for i = 0..n-1: parts 1 and up on threads that
 * are started here and joined before it returns, part 0 on the calling
 * thread, and a part whose thread did not start inline, after part 0. */
static void run_parts(void *(*run)(void *), void *parts, size_t size, int64_t n)
{
    pthread_t threads[MAX_PARTS];
    int started[MAX_PARTS];
    int64_t i;

    for (i = 1; i < n; i++)
        started[i] = pthread_create(&threads[i], NULL, run, (char *) parts + i * size) == 0;
    run(parts);
    for (i = 1; i < n; i++) {
        if (started[i])
            pthread_join(threads[i], NULL);
        else
            run((char *) parts + i * size);
    }
}

static int64_t clamp_parts(int64_t nparts)
{
    return nparts < 1 ? 1 : nparts > MAX_PARTS ? MAX_PARTS : nparts;
}

/* One part of liees_format_rows: n rows from cols into buf, len bytes. */
struct format_part {
    const double *cols;
    int64_t ncol, stride, n;
    char *buf;
    int64_t len;
};

static void *format_part(void *arg)
{
    struct format_part *f = arg;
    char *p = f->buf;
    int64_t i, k;

    for (i = 0; i < f->n; i++) {
        for (k = 0; k < f->ncol; k++) {
            p += format_field(p, f->cols[k * f->stride + i]);
            *p++ = k + 1 < f->ncol ? ',' : '\n';
        }
    }
    f->len = p - f->buf;
    return NULL;
}

/* Writes rows i = 0..n-1 of the ncol columns cols[k * stride + i] to buf as
 * CSV lines, each value as "%.17g" and NaN as nan, and returns the number of
 * bytes written.  buf holds at least 25 * ncol * n bytes: a field takes at
 * most 24 (-2.2250738585072014e-308, from snprintf; the exact path's longest
 * is 23, -0.00012345678901234567), and snprintf's terminating zero falls on
 * the separator that follows it.  The rows are split into nparts runs of
 * consecutive rows (see the header), each formatted at the offset of its
 * first row's 25 * ncol bytes, then moved down behind the part before it. */
int64_t liees_format_rows(const double *cols, int64_t ncol, int64_t stride, int64_t n,
                          int64_t nparts, char *buf)
{
    struct format_part parts[MAX_PARTS];
    int64_t j, len = 0;

    if (c_locale == (locale_t) 0)
        return -1;
    nparts = clamp_parts(nparts);
    for (j = 0; j < nparts; j++) {
        const int64_t first = n * j / nparts;
        parts[j] = (struct format_part) {cols + first, ncol, stride,
                                         n * (j + 1) / nparts - first,
                                         buf + 25 * ncol * first, 0};
    }
    run_parts(format_part, parts, sizeof parts[0], nparts);
    for (j = 0; j < nparts; j++) {
        memmove(buf + len, parts[j].buf, (size_t) parts[j].len);
        len += parts[j].len;
    }
    return len;
}

/* The end of the digits [0-9]* at p.  Each digit after the leading zeros
 * counts in *nd, and the first 19 of them accumulate in *w. */
static inline const char *digits(const char *p, const char *end, uint64_t *w, int64_t *nd)
{
    for (; p < end && (unsigned) (*p - '0') < 10; p++) {
        if (*nd || *p != '0') {
            if (*nd < 19)
                *w = 10 * *w + (uint64_t) (*p - '0');
            ++*nd;
        }
    }
    return p;
}

/* w 10^e for w < 2^64 and |e| <= POW10_MAX, with the sign neg, into *v
 * by Eisel-Lemire; returns 0 where it declines (see the header). */
static inline int eisel_lemire(uint64_t w, int e, int neg, double *v)
{
    const u128 m = POW10[e + POW10_MAX].m;
    u128 x;
    uint64_t hi, lo, mant, bits;
    int lz, msb, e2;

    if (w == 0) {
        *v = neg ? -0.0 : 0.0;
        return 1;
    }
    lz = __builtin_clzll(w);
    w <<= lz;
    x = (u128) w * (uint64_t) (m >> 64);
    hi = (uint64_t) (x >> 64);
    lo = (uint64_t) x;
    if ((hi & 0x1FF) == 0x1FF && lo + w < w) {
        /* the low word of m may carry into the kept bits: add its product */
        const u128 y = (u128) w * (uint64_t) m;
        const uint64_t ylo = (uint64_t) y;
        lo += (uint64_t) (y >> 64);
        hi += lo < (uint64_t) (y >> 64);
        if ((hi & 0x1FF) == 0x1FF && lo == UINT64_MAX && ylo + w < w)
            return 0;
    }
    /* the 54 bits kept lie above the lowest 9 of hi, or 10 when msb is set */
    msb = (int) (hi >> 63);
    mant = hi >> (msb + 9);
    if (lo == 0 && (hi & 0x1FF) == 0 && (mant & 3) == 1)
        return 0;
    mant = (mant + (mant & 1)) >> 1;
    /* w 10^e is about hi:lo 2^(64 + e2 - lz), and hi:lo has bit 126 + msb on top */
    e2 = POW10[e + POW10_MAX].e2 + 190 + msb - lz + 1023;
    if (mant >> 53) {
        mant >>= 1;
        e2++;
    }
    if (e2 < 1 || e2 > 0x7FE)
        return 0;
    bits = (uint64_t) neg << 63 | (uint64_t) e2 << 52 | (mant & 0x000FFFFFFFFFFFFFULL);
    memcpy(v, &bits, sizeof bits);
    return 1;
}

/* The end of the field at p if it is -?[0-9]+(\.[0-9]+)?(e[+-][0-9]+)?, inf,
 * -inf or nan, with its value in *v, else NULL: one pass that checks the
 * grammar and collects the significand and the exponent, converted by
 * Eisel-Lemire, or by strtod where that declines or cannot take them. */
static inline const char *parse_field(const char *p, const char *end, double *v)
{
    const char *const f = p, *q;
    uint64_t w = 0;
    int64_t nd = 0, e = 0, x = 0;
    int neg = 0;

    if (end - p >= 3 && memcmp(p, "nan", 3) == 0) {
        *v = NAN;
        return p + 3;
    }
    if (p < end && *p == '-') {
        neg = 1;
        p++;
    }
    if (end - p >= 3 && memcmp(p, "inf", 3) == 0) {
        *v = neg ? -INFINITY : INFINITY;
        return p + 3;
    }
    q = p;
    p = digits(p, end, &w, &nd);
    if (p == q)
        return NULL;
    if (p < end && *p == '.') {
        q = ++p;
        p = digits(p, end, &w, &nd);
        if (p == q)
            return NULL;
        e = q - p;
    }
    if (p < end && *p == 'e') {
        if (end - p < 2 || (p[1] != '+' && p[1] != '-'))
            return NULL;
        q = p += 2;
        /* past 10^6 the exponent is out of the table whatever the digits */
        for (; p < end && (unsigned) (*p - '0') < 10; p++)
            if (x < 1000000)
                x = 10 * x + (*p - '0');
        if (p == q)
            return NULL;
        e += q[-1] == '-' ? -x : x;
    }
    if (nd <= 19 && e >= -POW10_MAX && e <= POW10_MAX && eisel_lemire(w, (int) e, neg, v))
        return p;
    /* strtod would read past p only where more of a number follows (1E5,
     * 0x1p3), on a line refused anyway; it gets only a field followed by
     * its delimiter in text, where it stops, so it never reads past text */
    if (p < end && (*p == ',' || *p == '\n' || *p == '\r'))
        *v = strtod_l(f, NULL, c_locale);
    return p;
}

/* The number of line ends (\n) in text[0..len). */
int64_t liees_count_lines(const char *text, int64_t len)
{
    const char *p = text, *const end = text + len;
    int64_t n = 0;

    while ((p = memchr(p, '\n', (size_t) (end - p))) != NULL) {
        n++;
        p++;
    }
    return n;
}

/* One part of liees_parse_rows: up to max_rows lines of text[0..len) into
 * out, rows of them parsed, taking used bytes. */
struct parse_part {
    const char *text;
    int64_t len, ncol;
    double *out;
    int64_t stride, max_rows, rows, used;
};

static void *parse_part(void *arg)
{
    struct parse_part *f = arg;
    const char *p = f->text, *const end = f->text + f->len;
    int64_t r, k;

    for (r = 0; r < f->max_rows; r++) {
        const char *q = p;
        for (k = 0; k < f->ncol; k++) {
            q = parse_field(q, end, f->out + k * f->stride + r);
            if (q == NULL || q == end)
                goto stop;
            if (k + 1 < f->ncol) {
                if (*q != ',')
                    goto stop;
            } else if (*q == '\r') {
                if (++q == end || *q != '\n')
                    goto stop;
            } else if (*q != '\n') {
                goto stop;
            }
            q++;
        }
        p = q;
    }
stop:
    f->rows = r;
    f->used = p - f->text;
    return NULL;
}

/* Parses up to max_rows CSV lines of ncol fields each from text[0..len),
 * field k of line r into out[k * stride + r], and returns the number of lines
 * parsed, with the bytes they take (line ends included) in *used.  It stops
 * early at a line that does not end within text, and at the first line
 * outside the writer's grammar (see the header): -nan, for one, is not in
 * it, as the writer never writes it.  A file with such a line is not read
 * here at all: liees.sim reads it whole in Python.  The text is split at line
 * ends into nparts parts, each parsed from the row that its line ends place
 * it at (see the header). */
int64_t liees_parse_rows(const char *text, int64_t len, int64_t ncol, double *out,
                         int64_t stride, int64_t max_rows, int64_t nparts, int64_t *used)
{
    struct parse_part parts[MAX_PARTS];
    const char *start = text, *const end = text + len;
    int64_t j, rows = 0;

    if (c_locale == (locale_t) 0)
        return -1;
    nparts = clamp_parts(nparts);
    for (j = 0; j < nparts; j++) {
        const char *stop = end;
        const int64_t row = rows < max_rows ? rows : max_rows;

        if (j + 1 < nparts) {
            /* just past the first line end from the even split on */
            const char *mid = text + len * (j + 1) / nparts;
            if (mid < start)
                mid = start;
            stop = memchr(mid, '\n', (size_t) (end - mid));
            stop = stop != NULL ? stop + 1 : end;
            rows += liees_count_lines(start, stop - start);
        }
        parts[j] = (struct parse_part) {start, stop - start, ncol, out + row, stride,
                                        max_rows - row, 0, 0};
        start = stop;
    }
    run_parts(parse_part, parts, sizeof parts[0], nparts);
    rows = 0;
    *used = 0;
    for (j = 0; j < nparts; j++) {
        rows += parts[j].rows;
        *used += parts[j].used;
        if (parts[j].used < parts[j].len)
            break;
    }
    return rows;
}
