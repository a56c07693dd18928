"""Closed-form pricing under CEV dynamics with mixed (sub-)fractional drivers.

Six models are covered, the cross product of two families and three
drivers:

* family ``BS``  -- log-linear dynamics, price from the Black-Scholes
  formula with the driver's variance at maturity as total variance;
* family ``CEV`` -- ``dS = r S dt + sigma S^(alpha/2) dM`` with elasticity
  ``alpha`` in [0, 2), priced through a Feller-type transition density and
  the non-central chi-squared survival function.

Drivers: ``classical`` (Brownian), ``mixed_fractional`` and
``mixed_sub_fractional`` (Brownian plus an independent fractional or
sub-fractional component, weights beta and gamma, Hurst index H in
[1/2, 1)).

The whole non-Brownian effect enters through one scalar function of
maturity, the effective variance Phi(T):

    Phi(T) = sigma^2 (2-alpha)^2 * integral_0^T [beta^2/2
             + gamma^2 * lambda(T-u)] * exp((2-alpha) r u) du

where ``lambda`` is the driver's diffusion kernel (see
:func:`diffusion_kernel`).  The closed form evaluates the integral exactly
in terms of the Kummer functions M(1, 2, z) and M(1, 1+2H, z), taken from
``scipy.special.hyp1f1``; quadrature of the integrand is kept as an
independent oracle in :mod:`msfcev.verify`.

:func:`chain_prices` prices a whole option chain, every (maturity, rate,
strike) quote on one spot, with one vectorised Phi evaluation and one
chi-squared call over the two tails each quote uses (CEV) or one
normal-cdf pair (BS); :func:`call_prices` is its one-maturity case.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy import special

from . import specfun
from .errors import DomainError, NumericalError
from .process import MixedDriverParams

__all__ = [
    "Family",
    "Driver",
    "ModelSpec",
    "MarketEnv",
    "PricingIntermediates",
    "MODEL_NAMES",
    "diffusion_kernel",
    "driver_variance",
    "effective_variance",
    "cev_intermediates",
    "transition_density",
    "call_price",
    "call_prices",
    "chain_prices",
    "price_curve",
    "write_price_curve_csv",
    "write_density_csv",
    "black_scholes_call",
]

_ALPHA_MAX = 2.0 - 1e-6


def _check_finite(**values) -> None:
    """Reject NaN and infinite scalar inputs where they enter."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")


def _check_maturity(maturity: float) -> None:
    if not 0.0 < maturity < math.inf:
        raise DomainError(f"maturity must be positive and finite, got {maturity!r}")


class Family(str, Enum):
    BS = "bs"
    CEV = "cev"


class Driver(str, Enum):
    CLASSICAL = "classical"
    MIXED_FRACTIONAL = "mixed_fractional"
    MIXED_SUB_FRACTIONAL = "mixed_sub_fractional"


# short model names used by the CLI, calibration catalog and CSV output
MODEL_NAMES = {
    "bs": (Family.BS, Driver.CLASSICAL),
    "mfbs": (Family.BS, Driver.MIXED_FRACTIONAL),
    "msfbs": (Family.BS, Driver.MIXED_SUB_FRACTIONAL),
    "cev": (Family.CEV, Driver.CLASSICAL),
    "mfcev": (Family.CEV, Driver.MIXED_FRACTIONAL),
    "msfcev": (Family.CEV, Driver.MIXED_SUB_FRACTIONAL),
}


@dataclass(frozen=True)
class ModelSpec:
    """Full model identity: family x driver plus parameters.

    A classical driver is canonicalized to (beta_eff, gamma=0) with
    ``beta_eff = sqrt(beta^2 + gamma^2)``; mixed drivers require
    ``1/2 <= H < 1`` (H = 1/2 being the admitted classical limit).  The
    BS family ignores ``alpha`` and stores it as 2.
    """

    family: Family
    driver: Driver
    sigma: float
    alpha: float
    driver_params: MixedDriverParams

    def __post_init__(self) -> None:
        p = self.driver_params
        _check_finite(sigma=self.sigma, alpha=self.alpha)
        if not 0.0 < self.sigma < 2.0 ** 512:  # from 2^512 up, sigma ** 2 overflows
            raise DomainError(f"sigma must lie in (0, 2^512), got {self.sigma!r}")
        if self.family == Family.CEV:
            if not 0.0 <= self.alpha <= _ALPHA_MAX:
                raise DomainError(
                    f"alpha must lie in [0, {_ALPHA_MAX}], got {self.alpha!r}")
        else:
            object.__setattr__(self, "alpha", 2.0)
        if self.driver == Driver.CLASSICAL:
            beta_eff = math.hypot(p.beta, p.gamma)
            object.__setattr__(
                self, "driver_params",
                MixedDriverParams(hurst=0.5, beta=beta_eff, gamma=0.0))
        else:
            if not 0.5 <= p.hurst < 1.0:
                raise DomainError(
                    f"mixed drivers require 1/2 <= hurst < 1, got {p.hurst!r}")

    @staticmethod
    def make(name: str, sigma: float, alpha: float = 1.0, hurst: float = 0.7,
             beta: float | None = None,
             gamma: float | None = None) -> "ModelSpec":
        """Build a model from its short name (bs, mfbs, msfbs, cev, mfcev, msfcev).

        Unspecified weights default to beta = 1 and, for the classical
        names, gamma = 0 (plain Brownian driver); mixed names default to
        gamma = 1.
        """
        try:
            family, driver = MODEL_NAMES[name]
        except KeyError:
            raise DomainError(
                f"unknown model {name!r}; choose from {sorted(MODEL_NAMES)}") from None
        _check_finite(hurst=hurst)  # classical names drop it below
        if beta is None:
            beta = 1.0
        if gamma is None:
            gamma = 0.0 if driver == Driver.CLASSICAL else 1.0
        params = MixedDriverParams(hurst=hurst if driver != Driver.CLASSICAL else 0.5,
                                   beta=beta, gamma=gamma)
        return ModelSpec(family=family, driver=driver, sigma=sigma,
                         alpha=alpha, driver_params=params)


@dataclass(frozen=True)
class MarketEnv:
    """Risk-free rate (continuous compounding, per year) and spot."""

    rate: float
    spot: float

    def __post_init__(self) -> None:
        _check_finite(rate=self.rate, spot=self.spot)
        if self.rate < 0.0:
            raise DomainError(f"rate must be >= 0, got {self.rate!r}")
        if self.spot <= 0.0:
            raise DomainError(f"spot must be positive, got {self.spot!r}")


@dataclass(frozen=True)
class PricingIntermediates:
    """Scale constants of one (model, maturity, strike) evaluation.

    ``k_s = 1/Phi(T)``; ``y_s``, ``z_s`` are the spot and strike mapped to
    chi-squared coordinates.
    """

    phi: float
    k_s: float
    y_s: float
    z_s: float


def diffusion_kernel(driver: Driver, hurst: float, t: float) -> float:
    """Second-order kernel lambda(t) of the driver's Ito correction.

    classical              : 1/2
    mixed_fractional       : H t^(2H-1)
    mixed_sub_fractional   : H t^(2H-1) (2 - 2^(2H-1))

    All three coincide (= 1/2) at H = 1/2.  Defined for t >= 0 by
    continuity (value 0 at t = 0 when H > 1/2).
    """
    if not 0.5 <= hurst < 1.0:
        raise DomainError(f"hurst must lie in [1/2, 1), got {hurst!r}")
    if not 0.0 <= t < math.inf:
        raise DomainError(f"time must be finite and >= 0, got {t!r}")
    if driver == Driver.CLASSICAL:
        return 0.5
    return hurst * t ** (2.0 * hurst - 1.0) * _subfractional_weight(driver, hurst)


def _subfractional_weight(driver: Driver, hurst: float) -> float:
    """Weight of the t^(2H-1) kernel: 2 - 2^(2H-1) sub-fractional, 1 fractional."""
    if driver == Driver.MIXED_SUB_FRACTIONAL:
        return 2.0 - 2.0 ** (2.0 * hurst - 1.0)
    return 1.0


def driver_variance(driver: Driver, params: MixedDriverParams, t):
    """Marginal variance of the driver at time t (the BS total-variance input).

    Broadcasts over an array or a list of times.
    """
    t = np.asarray(t)[()]  # a scalar stays a scalar, priced as before
    if not (np.greater_equal(t, 0.0) & np.less(t, math.inf)).all():
        raise DomainError(f"time must be finite and >= 0, got {t!r}")
    return _driver_variance(driver, params, t)


def _driver_variance(driver: Driver, params: MixedDriverParams, t, hurst=None):
    """driver_variance; ``hurst``, if given, replaces H and broadcasts against t."""
    out = params.beta ** 2 * t
    if params.gamma != 0.0 and driver != Driver.CLASSICAL:
        hurst = params.hurst if hurst is None else hurst
        out = out + (params.gamma ** 2 * _subfractional_weight(driver, hurst)
                     * t ** (2.0 * hurst))
    return out


def _check_cev(model: ModelSpec) -> None:
    if model.family != Family.CEV:
        raise DomainError("operation defined for the CEV family only")


def _check_not_nan(model: ModelSpec, values, maturities, what: str) -> None:
    """Raise ``NumericalError`` naming the model and maturity of a NaN value.

    Near alpha = 2 with a wide distribution the Bessel function of the
    transition law has no float64 evaluation (see
    :func:`specfun.bessel_i_scaled`), and a NaN must not pass for a number.
    """
    bad = np.isnan(values)
    if np.count_nonzero(bad):
        name = next(k for k, v in MODEL_NAMES.items()
                    if v == (model.family, model.driver))
        t = float(np.broadcast_to(maturities, bad.shape)[bad][0])
        raise NumericalError(
            f"{name} {what} is NaN at maturity {t!r} (alpha {model.alpha!r}): "
            "the Bessel function of the transition law has no float64 "
            "evaluation there")


def _phi(model: ModelSpec, rate, maturity, hurst=None):
    """Phi(T) over arrays (or scalars) of rate and maturity; see effective_variance.

    ``hurst``, if given, replaces the model's H and broadcasts too.
    """
    p = model.driver_params
    a = model.alpha
    z = (2.0 - a) * rate * maturity
    total = 0.5 * p.beta ** 2 * maturity * special.hyp1f1(1.0, 2.0, z)
    if p.gamma != 0.0 and model.driver != Driver.CLASSICAL:
        h = p.hurst if hurst is None else hurst
        total = total + (0.5 * p.gamma ** 2 * _subfractional_weight(model.driver, h)
                         * maturity ** (2.0 * h)
                         * special.hyp1f1(1.0, 1.0 + 2.0 * h, z))
    return model.sigma ** 2 * (2.0 - a) ** 2 * total


def _clock(model: ModelSpec, rate, maturity, hurst=None):
    """The clock X = sigma^2 g(H) through which sigma and H move a price.

    Phi(T) for the CEV family, the total variance v = sigma^2 * driver
    variance for the BS family.  ``hurst``, if given, replaces the model's
    H and broadcasts against ``rate`` and ``maturity``, so one call
    evaluates g over a grid of H.
    """
    if model.family == Family.BS:
        return model.sigma ** 2 * _driver_variance(model.driver, model.driver_params,
                                                   maturity, hurst)
    return _phi(model, rate, maturity, hurst)


def effective_variance(model: ModelSpec, env: MarketEnv, maturity: float) -> float:
    """Effective variance Phi(T) of the CEV transition density.

    Closed form.  With z = (2-alpha) r T and the Kummer function M,

        Phi(T) = sigma^2 (2-alpha)^2 * [ beta^2/2 * T * M(1, 2, z)
                 + gamma^2/2 * w_H * T^(2H) * M(1, 1+2H, z) ]

    where w_H = 2 - 2^(2H-1) for the sub-fractional driver and 1 for the
    fractional one.  This is the Whittaker-function form of the integral
    with the z^(-H) prefactor absorbed analytically, so it is regular at
    r = 0, where both M terms are exactly 1.  M comes from
    ``scipy.special.hyp1f1``.
    """
    _check_cev(model)
    _check_maturity(maturity)
    return float(_phi(model, env.rate, maturity))


def cev_intermediates(model: ModelSpec, env: MarketEnv, maturity: float,
                      strike: float) -> PricingIntermediates:
    """Chi-squared coordinates k_s, y_s, z_s for one evaluation."""
    if not 0.0 < strike < math.inf:
        raise DomainError(f"strike must be positive and finite, got {strike!r}")
    _check_cev(model)
    _check_maturity(maturity)
    phi, y, z = map(float, _cev_coordinates(model, env.spot, maturity, env.rate,
                                            strike))
    return PricingIntermediates(phi=phi, k_s=1.0 / phi, y_s=y, z_s=z)


def transition_density(model: ModelSpec, env: MarketEnv, maturity: float,
                       terminal_price):
    """Transition density of S_T at ``terminal_price`` (scalar or array).

    With w = k_s S_T^(2-alpha), nu = 1/(2-alpha):

        P(S_T) = (2-alpha) k_s^nu (y_s w^(1-2 alpha))^(nu/2)
                 * exp(-y_s - w) * I_nu(2 sqrt(y_s w))

    evaluated through the scaled Bessel function so the product stays
    finite even where exp(-y-w) underflows and I_nu overflows.
    """
    _check_cev(model)
    _check_maturity(maturity)
    s_t = np.asarray(terminal_price, dtype=np.float64)
    if not np.all((s_t > 0.0) & np.isfinite(s_t)):
        raise DomainError("terminal price must be positive and finite")
    phi, y, w = _cev_coordinates(model, env.spot, maturity, env.rate, s_t)
    out = _density(model.alpha, 1.0 / phi, y, w)
    _check_not_nan(model, out, maturity, "density")
    return float(out) if np.ndim(terminal_price) == 0 else out


def _density(a: float, k_s, y_s, w):
    """The density formula of :func:`transition_density` at w = k_s S_T^(2-alpha).

    ``k_s``, ``y_s`` and ``w`` broadcast: one model at many points, or one
    point per quote of a chain.
    """
    nu = 1.0 / (2.0 - a)
    sqrt_y = y_s ** 0.5
    sqrt_w = np.sqrt(w)
    ive = specfun._ive(nu, 2.0 * sqrt_y * sqrt_w)  # checked: see _chi2_coordinates
    log_pref = (math.log(2.0 - a) + nu * np.log(k_s)
                + 0.5 * nu * (np.log(y_s) + (1.0 - 2.0 * a) * np.log(w)))
    # exp(-y - w) I_nu(2 sqrt(y w)) = ive * exp(-(sqrt y - sqrt w)^2)
    return np.exp(log_pref - (sqrt_y - sqrt_w) ** 2) * ive


def black_scholes_call(spot: float, strike, rate, maturity, total_variance):
    """Black-Scholes call from total variance v = sigma^2 * driver variance.

    Broadcasts over ``strike``, ``rate``, ``maturity`` and
    ``total_variance``; all-scalar arguments return a float.
    """
    k, r, t, v = (np.asarray(x, dtype=np.float64)
                  for x in (strike, rate, maturity, total_variance))
    discounted_strike = k * np.exp(-r * t)
    sv = np.sqrt(v)
    d1 = _bs_d1(spot, k, r, t, sv)
    with np.errstate(invalid="ignore"):
        out = spot * special.ndtr(d1) - discounted_strike * special.ndtr(d1 - sv)
    out = np.where(v > 0.0, out, np.maximum(spot - discounted_strike, 0.0))
    return float(out) if out.ndim == 0 else out


def _bs_d1(spot: float, k, r, t, sv):
    """Black-Scholes d1 from the total standard deviation ``sv``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return (np.log(spot / k) + r * t) / sv + 0.5 * sv


def _assemble_call(spot: float, discounted_strike, itm, q1, q2):
    """Stable assembly of S0 Q1 - E' (1 - Q2) by moneyness.

    ``q1`` is the Q1 side's distribution function in the money and its
    survival function out of the money; ``q2`` is the Q2 side's survival
    function in the money and its distribution function out of it.  Both
    forms are algebraically the same price.  In the money the
    complementary form keeps the tiny tail corrections on top of intrinsic
    value at full relative accuracy; out of the money the direct form adds
    two small positive tails.
    """
    intrinsic = spot - discounted_strike
    q1_part, q2_part = spot * q1, discounted_strike * q2
    price = np.where(itm, intrinsic + q2_part - q1_part, q1_part - q2_part)
    np.maximum(price, np.maximum(intrinsic, 0.0), out=price)
    return np.minimum(price, spot, out=price)


def _quote_array(values, name: str, zero_ok: bool = False) -> np.ndarray:
    """``values`` as a 1-d float64 array, finite and positive (or >= 0)."""
    v = np.array(values, dtype=np.float64, copy=None, ndmin=1)
    lo, hi = float(v.min()), float(v.max())  # NaN propagates into both
    if not ((lo >= 0.0 if zero_ok else lo > 0.0) and hi < math.inf):
        sign = ">= 0" if zero_ok else "positive"
        raise DomainError(f"{name} must be {sign} and finite, "
                          f"got values from {lo!r} to {hi!r}")
    return v


def _chain_arrays(spot: float, maturities, rates, strikes):
    """Checked per-quote maturity, rate and strike arrays of one chain."""
    if not 0.0 < spot < math.inf:
        raise DomainError(f"spot must be positive and finite, got {spot!r}")
    return (_quote_array(maturities, "maturity"),
            _quote_array(rates, "rate", zero_ok=True),
            _quote_array(strikes, "strikes"))


def _chi2_coordinates(a: float, spot: float, t, r, k, phi):
    """The chi-squared coordinates y, z at the effective variance ``phi``.

    y = S0^(2-alpha) e^((2-alpha) r T) / Phi takes the shape of ``t``, ``r``
    and ``phi``, and z = K^(2-alpha) / Phi that of ``k`` and ``phi``.  Raises
    ``DomainError`` where 2 (y + z), above every kernel argument, is not finite.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        k_s = 1.0 / phi
        y, z = k_s * spot ** (2.0 - a) * np.exp(r * (2.0 - a) * t), k_s * k ** (2.0 - a)
        ok = 2.0 * (y + z) < math.inf
    if np.count_nonzero(ok) == ok.size:
        return y, z
    t, phi = (float(np.broadcast_to(v, ok.shape)[~ok][0]) for v in (t, phi))
    raise DomainError(f"effective variance {phi!r} at maturity {t!r} is out of range")


def _cev_coordinates(model: ModelSpec, spot: float, t, r, k):
    """Phi and the chi-squared coordinates y, z over arrays (or scalars)."""
    phi = _phi(model, r, t)
    return (phi, *_chi2_coordinates(model.alpha, spot, t, r, k, phi))


def chain_prices(model: ModelSpec, spot: float, maturities, rates,
                 strikes) -> np.ndarray:
    """European call prices for every (maturity, rate, strike) quote on one spot.

    The three quote arguments broadcast against each other (per-quote
    arrays, or scalars shared by every quote); the result is a 1-d array.
    A CEV chain is one vectorised Phi evaluation and one chi-squared call
    over the Q1 side ``(2z, df1, 2y)`` and the Q2 side ``(2y, df0, 2z)``
    of every quote, each side in the one tail its quote's form of
    :func:`_assemble_call` uses.  A BS chain is one normal-cdf pair.
    """
    t, r, k = _chain_arrays(spot, maturities, rates, strikes)
    return _prices_at_clock(model, spot, t, r, k, _clock(model, r, t))


def _prices_at_clock(model: ModelSpec, spot: float, t, r, k, clock) -> np.ndarray:
    """Call prices of checked quotes (arrays, or floats) at the clock X of each.

    ``clock`` is Phi (CEV) or the total variance v (BS) and broadcasts
    against the quotes.  Of the model only the family and alpha enter:
    sigma and the driver act through the clock (see :func:`_clock`).
    """
    if model.family == Family.BS:
        return black_scholes_call(spot, k, r, t, clock)
    y, z = _chi2_coordinates(model.alpha, spot, t, r, k, clock)
    df0 = 2.0 / (2.0 - model.alpha)
    discounted_strike = k * np.exp(-r * t)
    itm = spot >= discounted_strike
    n = itm.size
    # the Q1 side (2z, df0 + 2, 2y), then the Q2 side (2y, df0, 2z)
    x, df, nc = np.empty(2 * n), np.empty(2 * n), np.empty(2 * n)
    x[:n] = nc[n:] = 2.0 * z
    x[n:] = nc[:n] = 2.0 * y
    df[:n], df[n:] = 2.0 + df0, df0
    tails = specfun._chi2_tails(x, df, nc, np.concatenate((~itm, itm)))
    prices = _assemble_call(spot, discounted_strike, itm, tails[:n], tails[n:])
    _check_not_nan(model, prices, t, "price")
    return prices


def _clock_slope(model: ModelSpec, spot: float, t, r, k, clock):
    """dC/dX of every quote at the clock X; arguments as for :func:`_prices_at_clock`.

        CEV: dC/dPhi = e^(-rT) K^alpha p(K) / (2-alpha)^2
        BS:  dC/dv   = S0 n(d1) / (2 sqrt(v))

    where p is the transition density (Dupire's forward identity in the
    clock Phi) and n the normal density.
    """
    if model.family == Family.BS:
        sv = np.sqrt(clock)
        d1 = _bs_d1(spot, k, r, t, sv)
        return spot * np.exp(-0.5 * d1 ** 2) / (2.0 * math.sqrt(2.0 * math.pi) * sv)
    a = model.alpha
    y, z = _chi2_coordinates(a, spot, t, r, k, clock)
    return np.exp(-r * t) * k ** a * _density(a, 1.0 / clock, y, z) / (2.0 - a) ** 2


def call_prices(model: ModelSpec, env: MarketEnv, maturity: float,
                strikes) -> np.ndarray:
    """European call prices for an array of strikes at one maturity.

    The one-maturity case of :func:`chain_prices`, to the bit: T and r stay
    floats, and numpy's loops, not Python's, take their powers and exponentials.
    """
    _check_maturity(maturity)
    t, r = float(maturity), float(env.rate)
    return _prices_at_clock(model, env.spot, t, r, _quote_array(strikes, "strikes"),
                            _clock(model, r, np.asarray(t)))  # T ** (2H): a numpy loop


def call_price(model: ModelSpec, env: MarketEnv, maturity: float,
               strike: float) -> float:
    """European call price; dispatches on the model family."""
    return float(call_prices(model, env, maturity, [strike])[0])


def price_curve(model_template: ModelSpec, env: MarketEnv, maturity: float,
                strike: float, alpha_grid, hurst_set) -> list:
    """Price table over (alpha, hurst) for both mixed drivers.

    Rows are ordered alpha-major, then hurst, then driver name
    (``mfcev`` before ``msfcev``).  Returns tuples
    ``(alpha, hurst, driver_name, price)``.
    """
    alphas = [float(a) for a in alpha_grid]
    hursts = [float(h) for h in hurst_set]
    if not alphas or not hursts:
        raise DomainError("alpha and hurst grids must be non-empty")
    rows = []
    for a in alphas:
        for h in hursts:
            for name, driver in (("mfcev", Driver.MIXED_FRACTIONAL),
                                 ("msfcev", Driver.MIXED_SUB_FRACTIONAL)):
                model = ModelSpec(family=Family.CEV, driver=driver,
                                  sigma=model_template.sigma, alpha=a,
                                  driver_params=replace(
                                      model_template.driver_params, hurst=h))
                rows.append((a, h, name, call_price(model, env, maturity, strike)))
    return rows


def write_price_curve_csv(rows, target) -> None:
    """Emit the curve table as ``alpha,hurst,driver,price`` CSV."""
    if isinstance(target, (str, bytes, os.PathLike)):
        with open(target, "w", encoding="utf-8") as fh:
            write_price_curve_csv(rows, fh)
        return
    target.write("alpha,hurst,driver,price\n")
    for a, h, name, price in rows:
        target.write(f"{a:.12g},{h:.12g},{name},{price:.12g}\n")


def write_density_csv(s_values, densities, target) -> None:
    """Emit ``S_T,density`` rows for external inspection."""
    if isinstance(target, (str, bytes, os.PathLike)):
        with open(target, "w", encoding="utf-8") as fh:
            write_density_csv(s_values, densities, fh)
        return
    target.write("S_T,density\n")
    for s_t, d in zip(s_values, densities):
        target.write(f"{s_t:.12g},{d:.12g}\n")
