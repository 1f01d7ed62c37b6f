/* Classical RK4 for x' = J(x) * Q[c] + P[c] with the power cost
 * J(x) = alpha * (x - xstar)^m: the loop of liees.sim._rk4, specialised.
 *
 * Every floating-point operation happens in the order the Python stepper
 * performs it, and the power goes through libm pow exactly as CPython's
 * float ** int does, so the stored states and their costs are bitwise equal
 * to the Python path.  Build with -ffp-contract=off and without -ffast-math:
 * a fused multiply-add or a pow expanded into multiplications rounds
 * differently.
 */

#include <errno.h>
#include <math.h>
#include <stdint.h>

enum { RK4_OK = 0, RK4_EXCEEDED = 1, RK4_OVERFLOW = 2, RK4_COST_OVERFLOW = 3 };

/* CPython's float_pow for a positive integral exponent w (odd: w is odd).
 * Stores v ** w in *r; returns nonzero where Python raises OverflowError,
 * which is only when pow leaves the double range for a finite base. */
static int py_pow(double v, double w, int odd, double *r)
{
    int negate = 0;
    double ix;

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

/* Integrates n_out * dec steps of size h from x0, writing every dec-th state
 * to out[1..n_out] (out[0] = x0) and its cost J to jout[0..n_out].  Columns c
 * of P and Q index the step/half-step grid of one period and wrap at ncol.  On
 * divergence returns RK4_EXCEEDED (the state left (-limit, limit)) or
 * RK4_OVERFLOW, with the index of the failing step in *k_fail and the state at
 * its start in *x_fail.  Every stored state but the last starts a step, whose
 * first stage evaluates its cost; when the cost of the last state overflows,
 * the states are complete and it returns RK4_COST_OVERFLOW. */
int liees_rk4_power(double alpha, double xstar, double m,
                    const double *P, const double *Q, int64_t ncol,
                    double x0, double h, int64_t n_out, int64_t dec,
                    double limit, double *out, double *jout,
                    int64_t *k_fail, double *x_fail)
{
    const double hh = 0.5 * h;
    const double h6 = h / 6.0;
    const int odd = fmod(fabs(m), 2.0) == 1.0;
    double x = x0, p, j1, k1, k2, k3, k4, xn;
    int64_t c = 0, i, j;

    out[0] = x0;
    for (i = 0; i < n_out; i++) {
        for (j = 0; j < dec; j++) {
            const int64_t b = c + 1;
            if (py_pow(x - xstar, m, odd, &p))
                goto overflow;
            j1 = alpha * p;
            if (j == 0)
                jout[i] = j1;
            k1 = j1 * Q[c] + P[c];
            if (py_pow((x + hh * k1) - xstar, m, odd, &p))
                goto overflow;
            k2 = (alpha * p) * Q[b] + P[b];
            if (py_pow((x + hh * k2) - xstar, m, odd, &p))
                goto overflow;
            k3 = (alpha * p) * Q[b] + P[b];
            c += 2;
            if (c >= ncol)
                c -= ncol;
            if (py_pow((x + h * k3) - xstar, m, odd, &p))
                goto overflow;
            k4 = (alpha * p) * Q[c] + P[c];
            xn = x + h6 * (k1 + 2.0 * (k2 + k3) + k4);
            if (!(-limit < xn && xn < limit)) {
                *k_fail = i * dec + j;
                *x_fail = x;
                return RK4_EXCEEDED;
            }
            x = xn;
        }
        out[i + 1] = x;
    }
    if (py_pow(x - xstar, m, odd, &p))
        return RK4_COST_OVERFLOW;
    jout[n_out] = alpha * p;
    return RK4_OK;

overflow:
    *k_fail = i * dec + j;
    *x_fail = x;
    return RK4_OVERFLOW;
}
