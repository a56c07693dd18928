"""Regenerate ``mpmath_table.csv``: 80-digit CEV call prices in the tails.

Run from the repository root:

    python3 perfbench/mpmath_table.py

Each price is S0 Q(2z; 2+2nu, 2y) - K e^(-rT) [1 - Q(2y; 2nu, 2z)] with
both non-central chi-squared tails summed as Poisson mixtures of
regularized incomplete gamma functions at 100 working digits.  Unlike a
window fixed around the Poisson mode, the summation window here grows
until a rigorous bound on the omitted terms falls below 1e-40 of the sum,
so mass far from the mode (the deep-tail case) is never lost.  Phi(T) is
the defining integral evaluated by mpmath quadrature.  Nothing here
imports the library.
"""

from __future__ import annotations

import csv
import pathlib
import sys

import mpmath as mp

OUT = pathlib.Path(__file__).resolve().parent / "mpmath_table.csv"
SPOT = 100
RATE = mp.mpf("0.05")
HURST = mp.mpf("0.75")
ALPHAS = ("0", "0.5", "1", "1.5", "1.9", "1.99", "1.999")
MATURITIES = ("0.25", "1", "5")
STRIKES = (25, 100, 400)  # deep in the money, at the money, deep out
ATM_VOL = mp.mpf("0.3")  # sigma = 0.3 S0^(1 - alpha/2): 30% local vol at S0
REL_CUTOFF = mp.mpf(10) ** -40


def phi(model: str, sigma, alpha, hurst, rate, t):
    """Effective variance by quadrature of its defining integral."""
    kern_w = 2 - mp.mpf(2) ** (2 * hurst - 1) if model == "msfcev" else 1
    c = (2 - alpha) * rate

    if model == "cev":  # classical driver: beta_eff^2 = beta^2 + gamma^2 = 2
        def integrand(u):
            return mp.e ** (c * u)
    else:
        def integrand(u):
            lam = hurst * (t - u) ** (2 * hurst - 1) * kern_w
            return (mp.mpf(1) / 2 + lam) * mp.e ** (c * u)
    return sigma ** 2 * (2 - alpha) ** 2 * mp.quad(integrand, [0, t])


def _log_gamma_increment(a, y):
    """log of y^a e^-y / Gamma(a+1) = P(a, y) - P(a+1, y)."""
    return a * mp.log(y) - y - mp.loggamma(a + 1)


def _reg_p(a, y):
    """Lower regularized gamma P(a, y) by its series (y < a + 1)."""
    term = mp.e ** _log_gamma_increment(a, y)
    total = term
    k = 1
    while True:
        term *= y / (a + k)
        total += term
        if term < total * mp.mpf(10) ** (-mp.mp.dps):
            return total
        k += 1


def _reg_q_cf(a, y):
    """Upper regularized gamma Q(a, y) by Lentz's continued fraction (y > a + 1)."""
    tiny = mp.mpf(10) ** (-3 * mp.mp.dps)
    b = y + 1 - a
    c = 1 / tiny
    d = 1 / b
    h = d
    i = 1
    while True:
        an = -i * (i - a)
        b += 2
        d = an * d + b
        d = tiny if d == 0 else d
        c = b + an / c
        c = tiny if c == 0 else c
        d = 1 / d
        delta = d * c
        h *= delta
        if abs(delta - 1) < mp.mpf(10) ** (-mp.mp.dps):
            break
        i += 1
    return mp.e ** (a * mp.log(y) - y - mp.loggamma(a)) * h


def reg_pq(a, y):
    """(P(a, y), Q(a, y)), each computed on the side where it is accurate."""
    if y < a + 1:
        p = _reg_p(a, y)
        return p, 1 - p
    q = _reg_q_cf(a, y)
    return 1 - q, q


def _log_poisson_tail_bound(n, lam):
    """Chernoff bound on log P(X <= n) for n < lam, or log P(X >= n) for n > lam."""
    if n <= 0:
        return -lam
    return -lam + n - n * mp.log(n / lam)


def ncx2_tail(x, df, nc, upper: bool):
    """Survival (upper) or distribution function of chi2(df, nc) at x.

    sum_j pois(j; nc/2) T(df/2 + j, x/2), T = Q for the survival side and P
    for the distribution side.  Q ladders upward and P downward from the
    window edge, so every step adds a positive increment.
    """
    a0 = df / 2
    y = x / 2
    lam = nc / 2
    mode = int(lam)
    step = int(10 * mp.sqrt(lam + 1)) + 50
    j_lo = max(0, mode - step)
    j_hi = mode + step
    while True:
        total, edge = _ladder(a0, y, lam, j_lo, j_hi, upper)
        # omitted terms: below j_lo (Q side) T_j <= T(j_lo) times the Poisson
        # lower tail; above j_hi T_j <= 1 times the Poisson upper tail (and
        # mirror images on the P side)
        lo_bound = _log_poisson_tail_bound(j_lo - 1, lam) if j_lo > 0 else None
        hi_bound = _log_poisson_tail_bound(j_hi + 1, lam)
        if upper:
            lo_ok = lo_bound is None or lo_bound + mp.log(edge) < mp.log(total * REL_CUTOFF)
            hi_ok = hi_bound < mp.log(total * REL_CUTOFF)
        else:
            lo_ok = lo_bound is None or lo_bound < mp.log(total * REL_CUTOFF)
            hi_ok = hi_bound + mp.log(edge) < mp.log(total * REL_CUTOFF)
        if lo_ok and hi_ok:
            return total
        if not lo_ok:
            j_lo = max(0, j_lo - step)
        if not hi_ok:
            j_hi += step


def _ladder(a0, y, lam, j_lo, j_hi, upper: bool):
    """Mixture sum over [j_lo, j_hi] and the tail value at the start edge."""
    if upper:
        j = j_lo
        a = a0 + j
        t_val = reg_pq(a, y)[1]
        edge = t_val
        w = mp.e ** (j * mp.log(lam) - lam - mp.loggamma(j + 1)) if lam else mp.mpf(j == 0)
        g = mp.e ** _log_gamma_increment(a, y)
        total = w * t_val
        for j in range(j_lo + 1, j_hi + 1):
            t_val += g  # Q(a+1) = Q(a) + y^a e^-y / Gamma(a+1)
            g *= y / (a0 + j)
            w *= lam / j
            total += w * t_val
        return total, edge
    j = j_hi
    a = a0 + j
    t_val = reg_pq(a, y)[0]
    edge = t_val
    w = mp.e ** (j * mp.log(lam) - lam - mp.loggamma(j + 1))
    g = mp.e ** _log_gamma_increment(a - 1, y)
    total = w * t_val
    for j in range(j_hi - 1, j_lo - 1, -1):
        t_val += g  # P(a-1) = P(a) + y^(a-1) e^-y / Gamma(a)
        g *= (a0 + j) / y
        w *= (j + 1) / lam
        total += w * t_val
    return total, edge


def cev_call(model, sigma, alpha, hurst, rate, spot, t, strike):
    ph = phi(model, sigma, alpha, hurst, rate, t)
    k = 1 / ph
    y = k * spot ** (2 - alpha) * mp.e ** (rate * (2 - alpha) * t)
    z = k * strike ** (2 - alpha)
    df0 = 2 / (2 - alpha)
    sf1 = ncx2_tail(2 * z, 2 + df0, 2 * y, upper=True)
    cdf2 = ncx2_tail(2 * y, df0, 2 * z, upper=False)
    return spot * sf1 - strike * mp.e ** (-rate * t) * cdf2


def rows():
    for a_txt in ALPHAS:
        alpha = mp.mpf(a_txt)
        sigma = ATM_VOL * mp.mpf(SPOT) ** (1 - alpha / 2)
        for t_txt in MATURITIES:
            for strike in STRIKES:
                price = cev_call("msfcev", sigma, alpha, HURST, RATE,
                                 mp.mpf(SPOT), mp.mpf(t_txt), mp.mpf(strike))
                yield ["msfcev", mp.nstr(sigma, 30), a_txt, mp.nstr(HURST, 3),
                       mp.nstr(RATE, 3), SPOT, t_txt, strike,
                       mp.nstr(price, 25)]


def main() -> int:
    mp.mp.dps = 100
    with open(OUT, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["model", "sigma", "alpha", "hurst", "rate", "spot",
                      "maturity", "strike", "price"])
        for row in rows():
            out.writerow(row)
            fh.flush()
            print(",".join(str(v) for v in row), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
