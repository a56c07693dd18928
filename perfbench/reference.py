"""Reference pricer for the benchmark, written apart from the library.

It shares no code with ``msfcev``: the effective variance comes from
``scipy.special.hyp1f1``, CEV calls from scipy's non-central chi-squared
distribution (Boost), BS-family calls from ``scipy.stats.norm`` and the
transition density from ``scipy.special.ive`` in log space.  The model
conventions follow the library's README: mixed drivers weight the
Brownian part by ``beta`` and the (sub-)fractional part by ``gamma``, a
classical driver has ``beta_eff = hypot(beta, gamma)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special, stats

FAMILY = {"bs": "bs", "mfbs": "bs", "msfbs": "bs",
          "cev": "cev", "mfcev": "cev", "msfcev": "cev"}
DRIVER = {"bs": "classical", "cev": "classical",
          "mfbs": "fractional", "mfcev": "fractional",
          "msfbs": "sub_fractional", "msfcev": "sub_fractional"}


@dataclass(frozen=True)
class Point:
    """One model at one parameter point, in the library's conventions."""

    model: str
    sigma: float
    alpha: float = 1.0
    hurst: float = 0.5
    beta: float = 1.0
    gamma: float = 1.0

    def weights(self):
        """(beta, gamma, H) with the classical driver folded into beta."""
        if DRIVER[self.model] == "classical":
            return math.hypot(self.beta, self.gamma), 0.0, 0.5
        return self.beta, self.gamma, self.hurst

    def kernel_weight(self) -> float:
        h = self.weights()[2]
        if DRIVER[self.model] == "sub_fractional":
            return 2.0 - 2.0 ** (2.0 * h - 1.0)
        return 1.0


def driver_variance(pt: Point, t: float) -> float:
    beta, gamma, h = pt.weights()
    return beta ** 2 * t + gamma ** 2 * pt.kernel_weight() * t ** (2.0 * h)


def phi(pt: Point, rate: float, t: float) -> float:
    """Effective variance Phi(T) of a CEV model (Kummer closed form)."""
    beta, gamma, h = pt.weights()
    a = pt.alpha
    z = (2.0 - a) * rate * t
    total = 0.5 * beta ** 2 * t * special.hyp1f1(1.0, 2.0, z)
    if gamma:
        total += (0.5 * gamma ** 2 * pt.kernel_weight() * t ** (2.0 * h)
                  * special.hyp1f1(1.0, 1.0 + 2.0 * h, z))
    return pt.sigma ** 2 * (2.0 - a) ** 2 * total


def _cev_coords(pt: Point, spot: float, rate: float, t: float):
    a = pt.alpha
    k = 1.0 / phi(pt, rate, t)
    y = k * spot ** (2.0 - a) * math.exp(rate * (2.0 - a) * t)
    return k, y


def call_prices(pt: Point, spot: float, rate: float, t: float, strikes):
    """European calls at one maturity, for every model of the catalogue."""
    ks = np.asarray(strikes, dtype=np.float64)
    disc_k = ks * math.exp(-rate * t)
    if FAMILY[pt.model] == "bs":
        sv = math.sqrt(pt.sigma ** 2 * driver_variance(pt, t))
        d1 = (np.log(spot / ks) + rate * t) / sv + 0.5 * sv
        d2 = d1 - sv
        itm = spot * stats.norm.cdf(d1) - disc_k * stats.norm.cdf(d2)
        # out of the money the same price from the two survival tails
        otm = spot * stats.norm.sf(-d1) - disc_k * stats.norm.sf(-d2)
        return np.where(spot >= disc_k, itm, otm)
    a = pt.alpha
    k, y = _cev_coords(pt, spot, rate, t)
    z = k * ks ** (2.0 - a)
    df0 = 2.0 / (2.0 - a)
    df1 = 2.0 + df0
    sf1 = stats.ncx2.sf(2.0 * z, df1, 2.0 * y)
    cdf1 = special.chndtr(2.0 * z, df1, 2.0 * y)
    sf2 = stats.ncx2.sf(2.0 * y, df0, 2.0 * z)
    cdf2 = special.chndtr(2.0 * y, df0, 2.0 * z)
    itm = (spot - disc_k) + disc_k * sf2 - spot * cdf1
    otm = spot * sf1 - disc_k * cdf2
    return np.where(spot >= disc_k, itm, otm)


def density(pt: Point, spot: float, rate: float, t: float, s_t):
    """Transition density of S_T under a CEV model, through log(ive)."""
    a = pt.alpha
    nu = 1.0 / (2.0 - a)
    k, y = _cev_coords(pt, spot, rate, t)
    s_t = np.asarray(s_t, dtype=np.float64)
    w = k * s_t ** (2.0 - a)
    arg = 2.0 * np.sqrt(y * w)
    log_p = (math.log(2.0 - a) + nu * math.log(k)
             + 0.5 * nu * (math.log(y) + (1.0 - 2.0 * a) * np.log(w))
             - (math.sqrt(y) - np.sqrt(w)) ** 2
             + np.log(special.ive(nu, arg)))
    return np.exp(log_p)


def share_measure_quantiles(pt: Point, spot: float, rate: float, t: float,
                            probs):
    """Quantiles of S_T under the share measure of a CEV model.

    Under that measure 2 k S_T^(2-alpha) is non-central chi-squared with
    2 + 2/(2-alpha) degrees of freedom and non-centrality 2y, so the
    interval between two quantiles carries a known share of E[S_T].
    """
    a = pt.alpha
    k, y = _cev_coords(pt, spot, rate, t)
    x = stats.ncx2.ppf(np.asarray(probs), 2.0 + 2.0 / (2.0 - a), 2.0 * y)
    return (0.5 * x / k) ** (1.0 / (2.0 - a))
