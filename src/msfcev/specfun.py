"""Special-function kernel.

Domain-checked functions the pricing engine rests on:

* ``log_gamma`` -- log of the gamma function on the positive axis,
* ``bessel_i_scaled`` -- exponentially scaled modified Bessel function
  of the first kind, ``exp(-z) * I_nu(z)`` for real order ``nu >= 0``,
  overflow-free inside transition densities,
* ``chi2_noncentral_sf_cdf`` -- survival and distribution functions of the
  non-central chi-squared distribution, together.

The Bessel and chi-squared functions broadcast over array arguments and
evaluate through scipy's vectorised ufuncs: ``scipy.special.ive`` (Amos)
for Bessel I, and for the chi-squared tails Boost's survival function
(``scipy.special._ufuncs._ncx2_sf``, the kernel under
``scipy.stats.ncx2.sf``) and ``scipy.special.chndtr``, each of which keeps
relative accuracy in its own tail.  The Kummer functions of the effective
variance come from ``scipy.special.hyp1f1`` in :mod:`msfcev.pricing`.

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


def _checked(value, ok, message: str):
    """``value`` as a float or float64 array, with ``DomainError`` where ``ok`` fails.

    Scalars stay Python floats: numpy's per-call overhead on 0-d arrays
    would dominate the scalar calls that quadrature makes.
    """
    if np.ndim(value) == 0:
        v = float(value)
        if not ok(v):
            raise DomainError(f"{message}, got {v!r}")
        return v
    v = np.asarray(value, dtype=np.float64)
    good = ok(v)
    if not good.all():
        raise DomainError(f"{message}, got {float(v[~good][0])!r}")
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
    out = _float_if_scalar(special.ive(order, z))
    if isinstance(out, float):  # one quadrature node: no array operations
        if math.isnan(out):
            out = float(_ive_hankel(np.array([order]), np.array([z]))[0])
        return out
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

def chi2_noncentral_sf_cdf(x, df, noncentrality):
    """Survival and distribution functions of chi2(df, nc) at x together.

    All three arguments broadcast.  The survival function is Boost's
    ``_ncx2_sf`` and the distribution function ``scipy.special.chndtr``,
    one vectorised call each; both are computed directly rather than as
    ``1 - other``, so deep tails on either side keep relative accuracy.
    Two edges follow ``scipy.stats.ncx2.sf``, bit for bit: the survival
    function is 1 at x = 0 (where Boost returns -0.0), and at nc = 0 it is
    the central ``chdtrc`` (Boost's non-central tail is an ulp off there).
    Returns a pair of arrays (or floats when every argument is scalar).
    """
    x = _checked(x, _finite_non_negative,
                 "chi-squared argument must be finite and >= 0")
    df = _checked(df, lambda v: (v > 0.0) & (v < math.inf),
                  "degrees of freedom must be positive")
    nc = _checked(noncentrality, _finite_non_negative, "non-centrality must be >= 0")
    inside = np.greater(x, 0.0)
    central = np.equal(nc, 0.0)
    sf = np.ones(np.broadcast_shapes(np.shape(x), np.shape(df), np.shape(nc)))
    with np.errstate(over="ignore"):  # as ncx2.sf does (scipy gh-17432)
        _ncx2_sf(x, df, nc, out=sf, where=inside & ~central)
    special.chdtrc(df, x, out=sf, where=inside & central)
    return (_float_if_scalar(sf),
            _float_if_scalar(special.chndtr(x, df, nc)))

