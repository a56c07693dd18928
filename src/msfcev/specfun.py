"""Special-function kernel.

Domain-checked functions the pricing engine rests on:

* ``log_gamma``            -- log of the gamma function on the positive axis,
* ``bessel_i``             -- modified Bessel function of the first kind,
  real order ``nu >= 0``, with an exponentially scaled companion
  ``bessel_i_scaled(nu, z) = exp(-z) * I_nu(z)`` for overflow-free use
  inside transition densities,
* ``kummer_m``             -- confluent hypergeometric function M(a, b, z),
* ``whittaker_m``          -- Whittaker function M_{kappa,mu}(z),
* ``chi2_noncentral_sf``   -- survival function of the non-central
  chi-squared distribution, plus its complementary ``chi2_noncentral_cdf``.

The Bessel and chi-squared functions broadcast over array arguments and
evaluate through scipy's vectorised ufuncs: ``scipy.special.ive`` (Amos)
for Bessel I, and for the chi-squared tails ``scipy.stats.ncx2.sf`` and
``scipy.special.chndtr`` (both Boost), each of which keeps relative
accuracy in its own tail.  ``kummer_m`` sums its defining series.

Everything here is pure and reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special, stats

from .errors import ConvergenceError, DomainError

__all__ = [
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "log_gamma",
    "bessel_i",
    "bessel_i_scaled",
    "log_bessel_i",
    "kummer_m",
    "whittaker_m",
    "chi2_noncentral_sf",
    "chi2_noncentral_cdf",
    "chi2_noncentral_sf_cdf",
]


@dataclass(frozen=True)
class Tolerance:
    """Termination control for the Kummer series in this module."""

    abs_tol: float = 1e-13
    rel_tol: float = 1e-12
    max_terms: int = 10_000

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise DomainError("abs_tol and rel_tol must be positive")
        if self.max_terms < 1:
            raise DomainError("max_terms must be >= 1")


DEFAULT_TOLERANCE = Tolerance()


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

def _bessel_args(order, z):
    return (_checked(order, lambda v: v >= 0.0, "bessel_i requires order >= 0"),
            _checked(z, _finite_non_negative, "bessel_i requires finite z >= 0"))


def bessel_i_scaled(order, z):
    """Return ``exp(-z) * I_order(z)``, broadcast over both arguments.

    The scaled form stays bounded for all admissible inputs, which is what
    the transition density needs.
    """
    return _float_if_scalar(special.ive(*_bessel_args(order, z)))


def log_bessel_i(order, z):
    """Return ``ln I_order(z)``.

    ``-inf`` at z = 0 for positive order, and wherever the scaled value
    ``exp(-z) I_order(z)`` underflows (order in the thousands at small z).
    """
    o, zz = _bessel_args(order, z)
    with np.errstate(divide="ignore"):
        return _float_if_scalar(np.log(special.ive(o, zz)) + zz)


def bessel_i(order, z):
    """Return ``I_order(z)``; overflows to ``inf`` only past z ~ 713."""
    return _float_if_scalar(special.iv(*_bessel_args(order, z)))


# ---------------------------------------------------------------------------
# Kummer M and Whittaker M
# ---------------------------------------------------------------------------

def kummer_m(a: float, b: float, z: float,
             tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Confluent hypergeometric function ``M(a, b, z)``.

    Evaluated by the defining series ``sum_k (a)_k z^k / ((b)_k k!)`` with
    term recurrence and compensated summation.  For the non-negative
    arguments arising here the terms are eventually positive, so the sum
    is well conditioned.
    """
    if b <= 0.0 and b == math.floor(b):
        raise DomainError(f"kummer_m undefined for non-positive integer b={b!r}")
    if z < 0.0 or not math.isfinite(z):
        raise DomainError(f"kummer_m requires finite z >= 0, got {z!r}")
    if z == 0.0:
        return 1.0
    total = 1.0
    comp = 0.0  # Kahan compensation
    term = 1.0
    for k in range(tol.max_terms):
        term *= (a + k) * z / ((b + k) * (k + 1.0))
        yk = term - comp
        t = total + yk
        comp = (t - total) - yk
        total = t
        if abs(term) <= tol.abs_tol + tol.rel_tol * abs(total) and k > 2:
            return total
    raise ConvergenceError(
        f"kummer_m({a}, {b}, {z}) did not converge in {tol.max_terms} terms")


def whittaker_m(kappa: float, mu: float, z: float,
                tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Whittaker function ``M_{kappa,mu}(z) = e^{-z/2} z^{mu+1/2} M(mu-kappa+1/2, 1+2mu, z)``."""
    if z <= 0.0 or not math.isfinite(z):
        raise DomainError(f"whittaker_m requires z > 0, got {z!r}")
    b = 1.0 + 2.0 * mu
    if b <= 0.0 and b == math.floor(b):
        raise DomainError(f"whittaker_m undefined for 1 + 2*mu = {b!r}")
    m = kummer_m(mu - kappa + 0.5, b, z, tol)
    return math.exp(-0.5 * z + (mu + 0.5) * math.log(z)) * m


# ---------------------------------------------------------------------------
# Non-central chi-squared survival / distribution functions
# ---------------------------------------------------------------------------

def chi2_noncentral_sf_cdf(x, df, noncentrality):
    """Survival and distribution functions of chi2(df, nc) at x together.

    All three arguments broadcast.  The survival function comes from
    ``scipy.stats.ncx2.sf`` and the distribution function from
    ``scipy.special.chndtr``, one vectorised call each; both are computed
    directly rather than as ``1 - other``, so deep tails on either side
    keep relative accuracy.  Returns a pair of arrays (or floats when every
    argument is scalar).
    """
    x = _checked(x, _finite_non_negative,
                 "chi-squared argument must be finite and >= 0")
    df = _checked(df, lambda v: (v > 0.0) & (v < math.inf),
                  "degrees of freedom must be positive")
    nc = _checked(noncentrality, _finite_non_negative, "non-centrality must be >= 0")
    return (_float_if_scalar(stats.ncx2.sf(x, df, nc)),
            _float_if_scalar(special.chndtr(x, df, nc)))


def chi2_noncentral_sf(x, df, noncentrality):
    """Survival function ``Q(x; df, nc) = P(chi2_df(nc) > x)``."""
    return chi2_noncentral_sf_cdf(x, df, noncentrality)[0]


def chi2_noncentral_cdf(x, df, noncentrality):
    """Distribution function ``1 - Q(x; df, nc)``, computed directly."""
    return chi2_noncentral_sf_cdf(x, df, noncentrality)[1]
