/* Classical RK4 for x' = f(x) * Q[c] + P[c]: the loop of liees.sim._rk4,
 * specialised to two stage functions f of a power cost
 * J(x) = alpha * (x - xstar)^m.  With no terms, f is J itself (the full
 * system, integrate).  With terms, f is the averaged Lie-bracket field of
 * integrate_lbs,
 *
 *     f(x) = -(0.0 + g_1 * (c_1 * (x - s_1)^p_1) + g_2 * (...) + ...),
 *
 * one (g, c, s, p) row per bracket term, c (x - s)^p being the analytic
 * derivative of J that costs.derivative evaluates.
 *
 * Every floating-point operation outside the powers happens in the order the
 * Python stepper performs it, so the stored states and their costs are
 * bitwise equal to the Python path as long as each power v^n is the double
 * CPython's float ** int returns, which is libm pow(v, n).  Most powers are
 * not computed by pow here:
 *
 *   - For n = 2, 3, 4 and 2^-64 <= |v| <= 2^64, pow_small forms |v|^n as a
 *     double-double hi + lo with Dekker's split product (no fused
 *     multiply-add), within 2^-103 relative of the exact power y, and
 *     returns hi = RN(y) when |lo| <= 0.45 ulp(hi) and hi is not a power of
 *     two.  Then y lies at least 0.05 ulp from a rounding midpoint, so every
 *     double other than hi is more than 0.55 ulp from y.  glibc's pow (2.28
 *     and later, sysdeps/ieee754/dbl-64/e_pow.c) documents a worst-case
 *     error of 0.54 ulp, so it returns hi too: the two paths give the same
 *     bits.  The band needs only 0.04 ulp plus the double-double's error;
 *     0.05 leaves room for both.
 *   - For n = 1 the kernel returns v: v is a double, so pow, within
 *     0.54 ulp, returns v too.  n = 0 and the bases 0, +-1, NaN and inf
 *     take CPython's own special cases, which call no pow.
 *   - Within that band of a midpoint, for a power of two hi, for every other
 *     exponent (n > 4, non-integral) and for |v| outside [2^-64, 2^64]
 *     (where v^n could overflow or underflow), the kernel calls pow and
 *     reads errno exactly as CPython does.
 *
 * The sign of v is taken as CPython takes it: the power of |v| is formed,
 * then negated for a negative v and an odd n.  Build with -ffp-contract=off
 * and without -ffast-math: a fused multiply-add in the split product or in
 * the stepper, or a pow expanded into multiplications, rounds differently.
 *
 * The same library holds the trajectory CSV codec of liees.sim.  Its bytes
 * and values equal those of the Python codec, which runs when this library
 * does not load:
 *
 *   - liees_format_rows writes each value as C's snprintf "%.17g".  Python's
 *     "%.17g" % v rounds the exact binary value to 17 significant digits,
 *     ties to even, and spells the exponent e+XX/e-XX with at least two
 *     digits; glibc's printf does the same, in the C locale.  The two differ
 *     only in NaN: glibc writes -nan for a NaN whose sign bit is set, Python
 *     always nan, so NaN is written as nan here.
 *   - liees_parse_rows reads only the writer's own grammar: fields
 *     -?[0-9]+(\.[0-9]+)?(e[+-][0-9]+)?, inf, -inf and nan, separated by
 *     commas, with \n or \r\n line ends.  glibc's strtod and CPython's float
 *     both round a decimal string correctly (to the nearest double, ties to
 *     even, overflow to inf and underflow to a subnormal or zero), so they
 *     agree on every such field; inf and nan are the constants float() returns.
 *     The first line outside that grammar stops the parser, and the caller
 *     reads the rest in Python.
 *
 * Python's codec ignores the process locale, while printf and strtod follow
 * LC_NUMERIC, which a host program may set to a decimal comma.  So both run
 * under a C locale object of their own (uselocale, strtod_l) and write and
 * read the same bytes under any locale.
 */

#define _GNU_SOURCE
#include <errno.h>
#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

enum {
    RK4_OK = 0, RK4_EXCEEDED = 1, RK4_OVERFLOW = 2, RK4_COST_OVERFLOW = 3,
    RK4_NONFINITE = 4
};

/* a * a = *p + *e exactly, by Dekker's split of a into 26-bit halves. */
static inline void two_sqr(double a, double *p, double *e)
{
    const double c = 134217729.0 * a; /* 2^27 + 1 */
    const double ah = c - (c - a), al = a - ah;

    *p = a * a;
    *e = ((ah * ah - *p) + 2.0 * ah * al) + al * al;
}

/* a * b = *p + *e exactly, by Dekker's split product. */
static inline void two_prod(double a, double b, double *p, double *e)
{
    const double ca = 134217729.0 * a, cb = 134217729.0 * b;
    const double ah = ca - (ca - a), al = a - ah;
    const double bh = cb - (cb - b), bl = b - bh;

    *p = a * b;
    *e = ((ah * bh - *p) + ah * bl + al * bh) + al * bl;
}

/* v^n for n = 2, 3, 4 and 2^-64 <= v <= 2^64, correctly rounded, in *r.
 * Returns 0, leaving *r alone, when v^n lies within 0.05 ulp of a rounding
 * midpoint or rounds to a power of two: there pow alone decides. */
static inline int pow_small(double v, int n, double *r)
{
    double hi, lo, q, f, ulp;
    uint64_t bits;

    two_sqr(v, &hi, &lo); /* v^2 = hi + lo */
    if (n != 2) {
        if (n == 3) {
            two_prod(hi, v, &q, &f);
            lo = f + lo * v;
        } else {
            /* v^4 = q + f + 2 hi lo + lo^2, and lo^2 <= 2^-106 v^4 is dropped */
            two_sqr(hi, &q, &f);
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
static int py_pow(double v, double w, int odd, double *r)
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
            && pow_small(v, (int) w, &ix)) {
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

static int is_odd(double w)
{
    return fmod(fabs(w), 2.0) == 1.0;
}

/* The stage function f(y), stored in *r.  Returns RK4_OVERFLOW where Python
 * raises OverflowError, and RK4_NONFINITE where costs.derivative raises
 * NumericFailureError, with the index of that term in *bad.  Inlined, so that
 * the cost's stages run as fast as in a loop of their own (a call costs about
 * 9% per step). */
static inline __attribute__((always_inline)) int stage(double alpha, double xstar, double m, int odd,
                 const double *terms, int64_t nterms, double y, double *r,
                 int64_t *bad)
{
    double p, acc = 0.0;
    int64_t t;

    if (nterms == 0) {
        if (py_pow(y - xstar, m, odd, &p))
            return RK4_OVERFLOW;
        *r = alpha * p;
        return RK4_OK;
    }
    for (t = 0; t < nterms; t++) {
        const double *g = terms + 4 * t;
        double d;
        if (py_pow(y - g[2], g[3], is_odd(g[3]), &p))
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
 * complete and it returns RK4_COST_OVERFLOW. */
int liees_rk4(double alpha, double xstar, double m,
              const double *terms, int64_t nterms,
              const double *P, const double *Q, int64_t ncol,
              double x0, double h, int64_t n_out, int64_t dec,
              double limit, double *out, double *jout,
              int64_t *k_fail, double *x_fail)
{
    const double hh = 0.5 * h;
    const double h6 = h / 6.0;
    const int odd = is_odd(m);
    double x = x0, y = x0, p, f1, k1, k2, k3, k4, xn;
    int64_t c = 0, i, j, bad = 0;
    int status, cost_overflow = 0;

#define STAGE(arg, res)                                                        \
    do {                                                                       \
        y = (arg);                                                             \
        status = stage(alpha, xstar, m, odd, terms, nterms, y, &(res), &bad); \
        if (status)                                                            \
            goto fail;                                                         \
    } while (0)

    out[0] = x0;
    for (i = 0; i < n_out; i++) {
        for (j = 0; j < dec; j++) {
            const int64_t b = c + 1;
            STAGE(x, f1);
            if (j == 0) {
                if (nterms == 0)
                    jout[i] = f1;
                else if (py_pow(x - xstar, m, odd, &p))
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
    if (py_pow(x - xstar, m, odd, &p))
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


/* The C locale, made once when the library loads; (locale_t) 0 if that
 * failed, and then the codec entry points return -1. */
static locale_t c_locale;

__attribute__((constructor)) static void make_c_locale(void)
{
    c_locale = newlocale(LC_ALL_MASK, "C", (locale_t) 0);
}

/* Writes rows i = 0..n-1 of the ncol columns cols[k * stride + i] to buf as
 * CSV lines, each value as "%.17g" and NaN as nan, and returns the number of
 * bytes written.  buf holds at least 25 * ncol * n bytes: a field takes at
 * most 24 (-2.2250738585072014e-308), and snprintf's terminating zero falls
 * on the separator that follows it. */
int64_t liees_format_rows(const double *cols, int64_t ncol, int64_t stride, int64_t n,
                          char *buf)
{
    locale_t old;
    char *p = buf;
    int64_t i, k;

    if (c_locale == (locale_t) 0)
        return -1;
    old = uselocale(c_locale);
    for (i = 0; i < n; i++) {
        for (k = 0; k < ncol; k++) {
            const double v = cols[k * stride + i];
            if (isnan(v)) {
                memcpy(p, "nan", 3);
                p += 3;
            } else {
                p += snprintf(p, 25, "%.17g", v);
            }
            *p++ = k + 1 < ncol ? ',' : '\n';
        }
    }
    uselocale(old);
    return p - buf;
}

/* The end of the digits [0-9]+ at p, or p when there are none. */
static const char *digits(const char *p, const char *end)
{
    while (p < end && *p >= '0' && *p <= '9')
        p++;
    return p;
}

/* The end of the field at p if it is -?[0-9]+(\.[0-9]+)?(e[+-][0-9]+)?, inf,
 * -inf or nan, else NULL; *special is set for the last three. */
static const char *scan_field(const char *p, const char *end, int *special)
{
    const char *q;

    *special = 1;
    if (end - p >= 3 && memcmp(p, "nan", 3) == 0)
        return p + 3;
    if (p < end && *p == '-')
        p++;
    if (end - p >= 3 && memcmp(p, "inf", 3) == 0)
        return p + 3;
    *special = 0;
    q = digits(p, end);
    if (q == p)
        return NULL;
    if (q < end && *q == '.') {
        p = q + 1;
        q = digits(p, end);
        if (q == p)
            return NULL;
    }
    if (q < end && *q == 'e') {
        if (end - q < 2 || (q[1] != '+' && q[1] != '-'))
            return NULL;
        p = q + 2;
        q = digits(p, end);
        if (q == p)
            return NULL;
    }
    return q;
}

/* Parses up to max_rows CSV lines of ncol fields each from text[0..len) into
 * out, row after row, and returns the number of lines parsed, with the bytes
 * they take (line ends included) in *used.  It stops early at a line that does
 * not end within text, and at the first line outside the writer's grammar
 * (see the header): -nan, for one, is not in it, as the writer never writes
 * it. */
int64_t liees_parse_rows(const char *text, int64_t len, int64_t ncol, double *out,
                         int64_t max_rows, int64_t *used)
{
    const char *p = text, *end = text + len;
    int64_t r, k;

    if (c_locale == (locale_t) 0)
        return -1;
    for (r = 0; r < max_rows; r++) {
        const char *q = p;
        for (k = 0; k < ncol; k++) {
            int special;
            const char *f = q;
            q = scan_field(f, end, &special);
            if (q == NULL || q == end)
                goto stop;
            if (k + 1 < ncol) {
                if (*q != ',')
                    goto stop;
            } else if (*q == '\r') {
                if (++q == end || *q != '\n')
                    goto stop;
            } else if (*q != '\n') {
                goto stop;
            }
            if (!special)
                out[r * ncol + k] = strtod_l(f, NULL, c_locale);
            else if (*f == 'n')
                out[r * ncol + k] = NAN;
            else
                out[r * ncol + k] = *f == '-' ? -INFINITY : INFINITY;
            q++;
        }
        p = q;
    }
stop:
    *used = p - text;
    return r;
}
