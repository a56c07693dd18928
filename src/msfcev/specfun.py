"""Special-function kernel.

Domain-checked functions the pricing engine rests on:

* ``log_gamma`` -- log of the gamma function on the positive axis,
* ``bessel_i_scaled`` -- exponentially scaled modified Bessel function
  of the first kind, ``exp(-z) * I_nu(z)`` for real order ``nu >= 0``,
  overflow-free inside transition densities,
* ``chi2_noncentral_sf_cdf`` -- survival or distribution function of the
  non-central chi-squared distribution, the tail chosen per point.

The Bessel and chi-squared functions broadcast over array arguments and
evaluate through scipy's vectorised ufuncs: ``scipy.special.ive`` (Amos)
for Bessel I, and for the chi-squared tails Boost's survival function
(``scipy.special._ufuncs._ncx2_sf``, the kernel under
``scipy.stats.ncx2.sf``) and ``scipy.special.chndtr``, each of which keeps
relative accuracy in its own tail down to about 1e-60.  Above a
non-centrality of 5e3, and below 1e-60 from nc = 1 up, the tail is a
quadrature of the density, one batch of points per call: each point's
span is sized from the fall of its whole log-integrand, and one 24-point
Gauss-Legendre rule covers it.  The public functions check their
arguments and call the private ``_ive`` or ``_chi2_tails``, which
:mod:`msfcev.pricing` calls directly on inputs it has checked.

Everything here is pure and reentrant.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special
from scipy.special._ufuncs import _ncx2_sf

from .errors import DomainError

__all__ = [
    "log_gamma",
    "bessel_i_scaled",
    "chi2_noncentral_sf_cdf",
]


def log_gamma(x: float) -> float:
    """Return ``ln Gamma(x)`` for ``x > 0``.

    Thin domain-checked wrapper over the C library implementation, which
    is accurate to a few ulp across the range used here.
    """
    if not (x > 0.0) or math.isinf(x) or math.isnan(x):
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def _checked(value, ok, message: str) -> np.ndarray:
    """``value`` as a float64 array, with ``DomainError`` where ``ok`` fails.

    Always an array, 0-d for a scalar: scalars take the array path too.
    """
    v = np.asarray(value, dtype=np.float64)
    # each ok is an interval, so its two ends decide it; NaN fails both
    if v.size and not (ok(v.min()) and ok(v.max())):
        raise DomainError(f"{message}, got {float(v[~ok(v)][0])!r}")
    return v


def _finite_non_negative(v):
    return (v >= 0.0) & (v < math.inf)


def _float_if_scalar(out):
    """A ufunc result as a float when every argument was a scalar."""
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# Modified Bessel function I_nu
# ---------------------------------------------------------------------------

def bessel_i_scaled(order, z):
    """Return ``exp(-z) * I_order(z)``, broadcast over both arguments.

    The scaled form stays bounded for all admissible inputs, which is what
    the transition density needs.  Amos (``special.ive``) refuses z above
    2^30 and returns NaN; there Hankel's large-argument expansion takes
    over, wherever its terms fall below 1e-17 of the sum within 32 terms.
    """
    order = _checked(order, lambda v: v >= 0.0, "bessel_i_scaled requires order >= 0")
    z = _checked(z, _finite_non_negative, "bessel_i_scaled requires finite z >= 0")
    return _float_if_scalar(_ive(order, z))


def _ive(order, z) -> np.ndarray:
    """:func:`bessel_i_scaled` of arguments already checked, as an array."""
    out = np.asarray(special.ive(order, z))  # a 0-d ufunc result is a numpy scalar
    refused = np.isnan(out)
    if refused.any():
        order_b, z_b = np.broadcast_arrays(order, z)
        out[refused] = _ive_hankel(order_b[refused], z_b[refused])
    return out


def _ive_hankel(order: np.ndarray, z: np.ndarray) -> np.ndarray:
    """exp(-z) I_order(z) ~ (2 pi z)^(-1/2) sum_k a_k(order) (8z)^-k, by Horner's rule.

    a_k = prod_{j <= k} ((2j - 1)^2 - 4 order^2) / j, and the arguments
    broadcast.  The sum runs to the first k, at most 32, at which a bound
    on every term, from the largest order and the smallest z, is below
    1e-18; NaN where the last term is not below 1e-17 of the sum.
    """
    mu = 4.0 * np.square(order)
    inv_8z = 0.125 / z
    mu_max, w_max = float(mu.max(initial=0.0)), float(inv_8z.max(initial=0.0))
    coeffs, a, bound = [], 1.0, 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, 33):
            a = a * (((2 * k - 1) ** 2 - mu) / k)
            coeffs.append(a)
            bound *= max(mu_max, (2 * k - 1) ** 2) / k * w_max
            if bound <= 1e-18:
                break
        total = coeffs[-1] * inv_8z
        for a in coeffs[-2::-1]:
            total += a
            total *= inv_8z
        total += 1.0
        if bound > 1e-18:  # not within 32 terms everywhere: test the last one
            last = np.abs(coeffs[-1] * inv_8z ** len(coeffs))
            total = np.where(last <= 1e-17 * np.abs(total), total, np.nan)
    return total / np.sqrt(2.0 * np.pi * z)


# ---------------------------------------------------------------------------
# Non-central chi-squared survival / distribution functions
# ---------------------------------------------------------------------------

# Above this non-centrality _tail_quadrature takes both tails.  The Poisson
# series behind both kernels costs time growing with sqrt(nc) and loses
# digits: 2e-13 at 8 sd from the mean at nc 5e3, 5e-12 at nc 1e5, 1e-8 at
# nc 1.4e8, and past 1e9 Boost stops at its iteration cap.  The
# quadrature's cost does not grow with nc: it prices a 40-strike slice
# faster than the series from nc about 2e3 up.  The switch sits higher,
# at 5e3, because at df 2002 the quadrature rests on ive(1000, z), which is
# 1.6e-13 off at nc 3e3; from nc 5e3 up it stays within 7e-14 of mpmath.
_SERIES_NC_MAX = 5e3

# Below this value a series kernel's tail goes to _tail_quadrature too, at
# nc >= 1, where the quadrature is within 6e-15 of 40-digit mpmath (below
# nc = 1 Boost's survival function stays exact and the quadrature does not)
_KERNEL_FLOOR = 1e-60

# Each tail is integrated over the span in which its log-integrand falls by
# e^-_TAIL_FALL, on one 24-point Gauss-Legendre rule mapped to [0, 1]: nodes
# and weights on [-1, 1] from 40-digit Newton iterations, correctly rounded
# (numpy's leggauss(24) weights are 1e-13 off, which a tail that falls by
# e^-40 turns into 2e-14 of its value).  On integrands exp(-a s - b s^2 / 2)
# that fall by e^-36 to e^-45 over [0, 1] the rule is within 2e-16 of the
# integral to infinity, and within 2e-14 at e^-60
_TAIL_FALL = 42.0
_GAUSS_HALF_NODES = np.array([
    0.995187219997021360179997409700737, 0.974728555971309498198391993008169,
    0.938274552002732758523649001708721, 0.886415527004401034213154341982197,
    0.820001985973902921953949872669745, 0.740124191578554364243828103099978,
    0.648093651936975569252495786910748, 0.545421471388839535658375617218372,
    0.433793507626045138487084231913350, 0.315042679696163374386793291319810,
    0.191118867473616309158639820757070, 0.064056892862605626085043082624745])
_GAUSS_HALF_WEIGHTS = np.array([
    0.012341229799987199546805667070037, 0.028531388628933663181307815951878,
    0.044277438817419806168602748211338, 0.059298584915436780746367758500109,
    0.073346481411080305734033615253117, 0.086190161531953275917185202983743,
    0.097618652104113888269880664464247, 0.107444270115965634782577342446606,
    0.115505668053725601353344483906784, 0.121670472927803391204463153476262,
    0.125837456346828296121375382511184, 0.127938195346752156974056165224695])
# ascending on [0, 1], so the first node sits next to the start of the span
_TAIL_NODES = 0.5 * np.concatenate((1.0 - _GAUSS_HALF_NODES, 1.0 + _GAUSS_HALF_NODES[::-1]))
_TAIL_WEIGHTS = 0.5 * np.concatenate((_GAUSS_HALF_WEIGHTS, _GAUSS_HALF_WEIGHTS[::-1]))


def chi2_noncentral_sf_cdf(x, df, noncentrality, upper):
    """One tail of chi2(df, nc) at x per point: sf where ``upper``, else cdf.

    All four arguments broadcast; ``upper`` is a bool or bool array that
    picks the tail of every point, and each point goes through one kernel
    only.  The survival function is Boost's ``_ncx2_sf`` and the
    distribution function ``scipy.special.chndtr``, each computed directly
    rather than as ``1 - other``, so deep tails on either side keep
    relative accuracy.  Two edges follow ``scipy.stats.ncx2.sf``, bit for
    bit: the survival function is 1 at x = 0 (where Boost returns -0.0),
    and at nc = 0 it is the central ``chdtrc`` (Boost's non-central tail is
    an ulp off there).  The kernels run only up to nc = 5e3.  Every other
    point goes to one quadrature of the density
    (:func:`_tail_quadrature`), in one call: either tail above nc = 5e3,
    where both series grow slow and inexact, and any tail a kernel puts
    below 1e-60 at nc >= 1, where both kernels lose digits and return
    exactly 0 for some tails far above float64's floor.  A call with no
    such point makes no quadrature.  Returns an array (a float when every
    argument is scalar).
    """
    x = _checked(x, _finite_non_negative,
                 "chi-squared argument must be finite and >= 0")
    df = _checked(df, lambda v: (v > 0.0) & (v < math.inf),
                  "degrees of freedom must be positive")
    nc = _checked(noncentrality, _finite_non_negative, "non-centrality must be >= 0")
    return _float_if_scalar(_chi2_tails(*np.broadcast_arrays(
        x, df, nc, np.asarray(upper, dtype=bool))))


def _chi2_tails(x, df, nc, upper) -> np.ndarray:
    """:func:`chi2_noncentral_sf_cdf` as an array, of checked arrays of one shape."""
    out = np.ones(x.shape)
    series = np.less_equal(nc, _SERIES_NC_MAX)
    sf_inside = upper & np.greater(x, 0.0) & series
    lower = ~upper & series
    if np.count_nonzero(nc) < nc.size:  # some nc is 0; cheaper than .any()
        central = np.equal(nc, 0.0)
        special.chdtrc(df, x, out=out, where=sf_inside & central)
        sf_inside = sf_inside & ~central
    with np.errstate(over="ignore"):  # as ncx2.sf does (scipy gh-17432)
        _ncx2_sf(x, df, nc, out=out, where=sf_inside)
    special.chndtr(x, df, nc, out=out, where=lower)
    # both kernels lose their digits deep in the tails: chndtr's lower tails
    # are up to 10% off from about 1e-60 down, Boost's upper ones from about
    # 1e-160, and either returns exactly 0 for some tails far above
    # float64's floor; there the quadrature takes over where it holds, in
    # the same call as every point above the series' range
    if np.count_nonzero(series) < series.size or out.min(initial=1.0) < _KERNEL_FLOOR:
        quad = ~series | ((out < _KERNEL_FLOOR) & np.greater_equal(nc, 1.0)
                          & (sf_inside | (lower & np.greater(x, 0.0))))
        out[quad] = _tail_quadrature(x[quad], df[quad], nc[quad], upper[quad])
    return out


def _tail_quadrature(x, df, nc, upper):
    """sf (where ``upper``) or cdf of chi2(df, nc) at x, by quadrature of the density.

    In u = sqrt(t) the density of chi2(df, nc) is

        f(u) = u (u/c)^nu exp(-(u - c)^2 / 2) ive(nu, u c),  c = sqrt(nc), nu = df/2 - 1.

    Bessel's uniform asymptotics give the slope and the bend of log f,

        (log f)'  ~ (1 + nu + s) / u - u,
        -(log f)'' ~ 1 + (1 + nu + nu^2 / s) / u^2,   s = sqrt(nu^2 + u^2 c^2),

    and the bend falls as u grows, to 1.  The tail on the side of sqrt(x)
    to which log f falls is integrated; the other tail is one minus it.
    The span is the distance v over which slope v + bend v^2 / 2 reaches
    42, with the bend taken at u = sqrt(x) below it and as 1 above it, so
    that f falls by about e^-42 across it (by e^-41 to e^-48 on the
    benchmark's tails and the test pins, up to e^-61 at df 2002 and nc
    1e3, where the bend at sqrt(x) is 1.5, not 1), and it stops at u = 0.  Sized
    from the whole integrand, every span is one shape, and one 24-point
    Gauss-Legendre rule fits them all (the 64 nodes of a span sized from
    the Gaussian factor alone were too few where the power factor steepens
    the fall, and too many elsewhere).  Each node is taken relative to
    u = sqrt(x), so the common parts of log f cancel before they round.
    The Bessel factor of a point is Hankel's expansion, 2-7 times as fast
    as ``ive`` at z 1e5-1e8, where z >= 1e3 and its first term ratio
    4 nu^2 / 8z is at most 1 at every node, so that its terms only fall
    (there it is within 3e-16 of 30-digit mpmath at orders 99 and 1000);
    :func:`_ive` takes the other points.  log f(sqrt(x)), which runs to
    hundreds in deep tails, is taken in extended precision, so a tail near
    1e-160 keeps the digits a float64 rounding of it would cost (1e-13;
    where ``np.longdouble`` is float64, that is what it costs).  Below
    df = 2 the order is negative; ive(-nu, z)
    differs from ive(nu, z) by a term in exp(-2z), and z = u c stays above
    ~nc at every node that counts.
    """
    root_x, c = np.sqrt(x), np.sqrt(nc)
    half_df = 0.5 * df  # 1 + nu
    nu = half_df - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):  # x = 0: empty span
        s = np.hypot(nu, c * root_x)
        slope = (half_df + s) / root_x - root_x
        above = slope < 0.0
        bend = np.where(above, 1.0, 1.0 + (half_df + nu * nu / s) / x)
        span = 2.0 * _TAIL_FALL / (np.abs(slope) + np.sqrt(
            slope * slope + 2.0 * _TAIL_FALL * bend))
        step = np.where(above, span, -np.fmin(span, root_x))[:, None] * _TAIL_NODES
        gap = (x - nc) / (root_x + c)  # sqrt(x) - c
        # log f(u) - log f(sqrt(x)) without the Bessel factor:
        # (1 + nu) log(u / sqrt(x)) - step (gap + step / 2), step = u - sqrt(x)
        log_f = (half_df[:, None] * np.log1p(step / root_x[:, None])
                 - step * (gap[:, None] + 0.5 * step))
        z = c[:, None] * (root_x[:, None] + step)  # > 0, as the span stops at u = 0
        z_min = np.minimum(z[:, 0], z[:, -1])
        # first term ratio 4 nu^2 / 8z <= 1; below z = 1e3 the terms of small
        # orders fall too slowly to stop within 32
        hankel = (nu * nu <= 2.0 * z_min) & (z_min >= 1e3)
        if np.count_nonzero(hankel) == hankel.size:
            bessel = _ive_hankel(nu[:, None], z)
        else:  # ive, which can underflow where log f is large
            bessel = np.ones(z.shape)
            if hankel.any():
                bessel[hankel] = _ive_hankel(nu[hankel, None], z[hankel])
            slow = ~hankel
            log_f[slow] += np.log(_ive(np.abs(nu[slow, None]), z[slow]))
            # where ive underflows at the first node, next to the peak, but not
            # at the last, the tail is lost: NaN says so, not a wrong number
            log_f[np.isneginf(log_f[:, 0]) & np.isfinite(log_f[:, -1]), 0] = np.nan
        # the nodes are scaled by the first one, next to the integrand's peak,
        # so neither the sum nor the scale over- or underflows where the tail
        # itself does not.  log f(sqrt(x)) = log sqrt(x) + nu log(sqrt(x) / c)
        # - gap^2 / 2 runs to hundreds in deep tails, where one float64
        # rounding of it costs 1e-13 of the tail, so it is taken in extended
        # precision
        ref = log_f[:, 0]
        wide_x, wide_nc = x.astype(np.longdouble), nc.astype(np.longdouble)
        wide_gap = (wide_x - wide_nc) / (np.sqrt(wide_x) + np.sqrt(wide_nc))
        scale = np.exp(ref + 0.5 * (np.log(wide_x) + nu * np.log(wide_x / wide_nc)
                                    - wide_gap * wide_gap)).astype(np.float64)
        ref = np.where(np.isfinite(ref), ref, 0.0)  # x = 0, or ive underflows
        # vecdot, unlike a matrix product, sums every row the same way
        # whatever the batch, so a point's tail does not depend on its company
        f = np.exp(log_f - ref[:, None]) * bessel
        tail = np.where(span > 0.0, span * np.vecdot(f, _TAIL_WEIGHTS) * scale, 0.0)
    return np.where(above == upper, tail, 1.0 - tail)
