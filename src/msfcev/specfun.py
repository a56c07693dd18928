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
relative accuracy in its own tail down to about 1e-60; above a
non-centrality of 1e5, and below 1e-60 from nc = 1 up, the tail is a
Gauss-Legendre quadrature of the density, one batch of points per call.
The public functions check their arguments and call the private ``_ive``
or ``_chi2_tails``, which :mod:`msfcev.pricing` calls directly on inputs it
has checked.  The Kummer functions come from ``scipy.special.hyp1f1``.

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
    over, wherever its terms fall below 1e-17 of the sum within 30 terms.
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
    """exp(-z) I_order(z) ~ (2 pi z)^(-1/2) sum_k (-1)^k a_k(order) / z^k.

    NaN where the terms do not fall below 1e-17 of the sum within 30 terms.
    """
    mu = 4.0 * np.square(order)
    term = np.ones(z.shape)
    total = term.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, 31):
            term = -term * (mu - (2 * k - 1) ** 2) / (8.0 * k * z)
            total += term
            done = np.abs(term) <= 1e-17 * np.abs(total)
            if done.all():
                break
    return np.where(done & np.isfinite(total), total, np.nan) / np.sqrt(2.0 * np.pi * z)


# ---------------------------------------------------------------------------
# Non-central chi-squared survival / distribution functions
# ---------------------------------------------------------------------------

# Above this non-centrality _tail_quadrature takes both tails.  The Poisson
# series behind both kernels costs time growing with sqrt(nc) and loses
# digits: 5e-12 at 8 sd from the mean at nc 1e5, 1e-8 at nc 1.4e8, and past
# 1e9 Boost stops at its iteration cap.  The quadrature's cost does not grow
# with nc, and from nc 1e5 up it stays within 6e-14 of mpmath.
_SERIES_NC_MAX = 1e5

# Below this value a series kernel's tail goes to _tail_quadrature too, at
# nc >= 1, where the quadrature is within 5e-15 of 40-digit mpmath (below
# nc = 1 Boost's survival function stays exact and the quadrature does not)
_KERNEL_FLOOR = 1e-60

# composite Gauss-Legendre rule on [0, 1]: four panels of 16 nodes
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)
_TAIL_NODES = ((np.arange(4.0)[:, None] + 0.5 * (_GAUSS_NODES + 1.0)) / 4.0).ravel()
_TAIL_WEIGHTS = np.tile(_GAUSS_WEIGHTS, 4) / 8.0


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
    an ulp off there).  The kernels run only up to nc = 1e5.  Every other
    point goes to one quadrature of the density
    (:func:`_tail_quadrature`), in one call: either tail above nc = 1e5,
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

        u (u/c)^nu exp(-(u - c)^2 / 2) ive(nu, u c),  c = sqrt(nc), nu = df/2 - 1,

    close to a unit normal about sqrt(nc + df), the root of the mean, once
    nc is large.  The tail on the far side of sqrt(x) from that centre is
    integrated by the composite Gauss-Legendre rule over the span in which
    exp(-(d + v)^2 / 2) falls by e^-40 from its value at v = 0, d the
    distance of sqrt(x) from the centre; the other tail is one minus it.
    The Bessel factor at the nodes is Hankel's expansion, 2-7 times as
    fast as ``ive`` at z 1e5-1e8, wherever z >= 1e3 and its first term
    ratio 4 nu^2 / 8z is at most 1, so that its terms only fall (there it
    is within 3e-16 of 30-digit mpmath at orders 99 and 1000);
    :func:`_ive` takes the other nodes and any where the expansion does
    not converge.  The exponent's largest part,
    -(sqrt(x) - sqrt(nc))^2 / 2, is taken in extended precision, so a tail
    near 1e-160 keeps the digits a float64 rounding of it would cost (1e-13;
    where ``np.longdouble`` is float64, that is what it costs).  Below
    df = 2 the order is negative; ive(-nu, z) differs from ive(nu, z) by a
    term in exp(-2z), and z = u c stays above ~nc at every node that counts.
    """
    root_x, c, centre = np.sqrt(x), np.sqrt(nc), np.sqrt(nc + df)
    d = (x - (nc + df)) / (root_x + centre)  # sqrt(x) - centre, no cancellation
    above = d >= 0.0
    span = np.sqrt(d * d + 80.0) - np.abs(d)
    span = np.where(above, span, np.minimum(span, root_x))
    gap = (x - nc) / (root_x + c)  # sqrt(x) - c
    step = np.where(above, 1.0, -1.0)[:, None] * (span[:, None] * _TAIL_NODES)
    u = root_x[:, None] + step  # > 0 at every node, as the span stops at u = 0
    offset = gap[:, None] + step  # u - c
    nu = 0.5 * df[:, None] - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):  # x = 0: empty span
        order = np.broadcast_to(np.abs(nu), u.shape)
        z = c[:, None] * u
        # first term ratio 4 nu^2 / 8z <= 1; below z = 1e3 the terms of small
        # orders fall too slowly to stop within 30
        hankel = (order * order <= 2.0 * z) & (z >= 1e3)
        bessel = np.full(z.shape, np.nan)
        if hankel.any():
            bessel[hankel] = _ive_hankel(order[hankel], z[hankel])
        log_f = np.log(u) + nu * np.log1p(offset / c[:, None])  # nu log(u / c)
        # near u = 0, 1 + (u - c) / c rounds: there log u / c directly
        coarse = (gap - span) / c < -0.5
        if coarse.any():
            u_c = u[coarse]
            log_f[coarse] = np.log(u_c) + nu[coarse] * np.log(u_c / c[coarse, None])
        # -(u - c)^2 / 2 = -gap^2 / 2 - step (gap + step / 2).  The first term
        # runs to hundreds in deep tails, where one float64 rounding of it
        # costs 1e-13 of the tail, so it is added back in extended precision
        log_f -= step * (gap[:, None] + 0.5 * step)
        slow = np.isnan(bessel)
        if slow.any():  # ive, which can underflow where log f is large
            log_f[slow] += np.log(_ive(order[slow], z[slow]))
            bessel[slow] = 1.0
        # the nodes are scaled by the first one, at u ~ sqrt(x), next to the
        # integrand's peak, so neither the sum nor the scale over- or underflows
        # where the tail itself does not
        ref = log_f[:, 0]
        ref = np.where(np.isfinite(ref), ref, 0.0)
        wide_x, wide_nc = x.astype(np.longdouble), nc.astype(np.longdouble)
        wide_gap = (wide_x - wide_nc) / (np.sqrt(wide_x) + np.sqrt(wide_nc))
        scale = np.exp(ref - 0.5 * wide_gap * wide_gap).astype(np.float64)
        # vecdot, unlike a matrix product, sums every row the same way
        # whatever the batch, so a point's tail does not depend on its company
        f = np.exp(log_f - ref[:, None]) * bessel
        tail = np.where(span > 0.0, span * np.vecdot(f, _TAIL_WEIGHTS) * scale, 0.0)
    return np.where(above == upper, tail, 1.0 - tail)
