"""Fit model parameters to an option chain by mean squared price error.

Protocol: minimize the mean of (model price - mid price)^2 over the
quotes, either jointly (one parameter set for all maturities) or per
maturity.  The quotes are grouped into maturities once, by maturity
rounded to 6 decimals, and a per-maturity fit is the joint fit of each
group's quotes.  Mixed drivers keep beta = gamma = 1 fixed; the free
parameters per model are

    bs            sigma
    mfbs, msfbs   sigma, hurst
    cev           sigma, alpha
    mfcev, msfcev sigma, alpha, hurst

The optimizer is trust-region least squares on the price residuals, in a
logistic reparameterization of the bounded box: :func:`_trf`, the
trust-region method of scipy's ``least_squares`` written out in this
module on numpy's SVD, so a fit imports neither scipy's optimizers nor
its linear algebra; deterministic for a given seed.

sigma and H move a price only through its clock X(T) = sigma^2 g(H)
(Phi for the CEV family, the total variance for the BS family).  So the
Jacobian's sigma and H columns are dX/dsigma = 2 X / sigma and dX/dH, a
central difference of the clock, times the closed-form dC/dX; its alpha
column is a forward difference.  And the first start is solved from the
term structure of clocks:

1. one least-squares solve over a common alpha and one log clock per
   (maturity, rate) group, every quote priced at its group's clock;
2. sigma and H read off those clocks with no pricing: a global search of
   H over its box, sigma in closed form for each H, each clock weighted
   by its quotes' price sensitivity to it;
3. the joint least-squares solve from that point.

That start lands in the global minimum where a single start from an
arbitrary point can end in a local one (for msfCEV near H 0.85).  Any
further starts are uniform random points drawn from
``default_rng(seed)``.  Seeds are unsigned 64-bit integers.
"""

from __future__ import annotations

import csv
import json
import os
import logging
import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import expit, logit

from .errors import CalibrationError, ChainFormatError, DomainError
from .pricing import (MODEL_NAMES, Driver, Family, MarketEnv, ModelSpec,
                      _chain_arrays, _clock, _clock_slope, _prices_at_clock,
                      _quote_array)
from .process import _check_seed

__all__ = [
    "MarketQuote",
    "OptionChain",
    "OptimizerConfig",
    "CalibrationReport",
    "ComparisonRow",
    "PARAM_BOUNDS",
    "free_parameters",
    "build_model",
    "load_chain",
    "fit",
    "compare_models",
    "synthetic_chain",
    "write_chain_csv",
]

log = logging.getLogger(__name__)

CHAIN_HEADER = ["quote_date", "spot", "rate", "strike", "maturity_years",
                "mid_price"]
PARAM_BOUNDS = {
    "sigma": (1e-4, 5.0),
    "alpha": (0.0, 1.999),
    "hurst": (0.5, 0.999),
}
_MATURITY_DECIMALS = 6  # grouping key resolution in years


@dataclass(frozen=True)
class MarketQuote:
    strike: float
    maturity: float
    mid_price: float
    spot: float
    rate: float


@dataclass(frozen=True)
class OptionChain:
    quote_date: str
    quotes: tuple

    def __post_init__(self) -> None:
        if not self.quotes:
            raise ChainFormatError("option chain is empty")
        spots = {q.spot for q in self.quotes}
        if len(spots) > 1:
            raise ChainFormatError(
                f"inconsistent spot values for {self.quote_date}: {sorted(spots)}")

    @property
    def spot(self) -> float:
        return self.quotes[0].spot


@dataclass(frozen=True)
class OptimizerConfig:
    """Starts and budgets of a fit.

    Start 0 is the clock start (see the module docstring); starts 1 to
    ``n_starts - 1`` are random points drawn from ``seed``.
    ``maxiter`` bounds the residual evaluations of each least-squares
    solve, the clock start's first stage included.
    """

    n_starts: int = 1
    seed: int = 0
    maxiter: int = 400
    polish_maxiter: int = 1500

    def __post_init__(self) -> None:
        for name in ("n_starts", "maxiter", "polish_maxiter"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be at least 1")
        _check_seed(self.seed)


@dataclass(frozen=True)
class CalibrationReport:
    """Result of :func:`fit`.

    ``iterations`` counts the optimizer's residual evaluations and
    ``evaluations`` every pricing call the fit made, the alpha Jacobian
    column's and the clock start's first stage included.  ``stderr``
    (parameter standard errors) and ``jac_cond`` (condition number of the
    price Jacobian) are keyed like ``fitted``.  A standard error is None
    when a fit has no more quotes than parameters or a rank-deficient
    Jacobian, a condition number when the Jacobian is singular.
    """

    mode: str
    fitted: dict
    mse_per_maturity: dict
    total_mse: float
    iterations: int
    converged: bool
    evaluations: int
    stderr: dict
    jac_cond: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


@dataclass(frozen=True)
class ComparisonRow:
    model: str
    failed: bool
    total_mse: float
    mse_per_maturity: dict
    fitted: dict
    error: str = ""


def free_parameters(model_name: str) -> tuple:
    """Names of the calibrated parameters for a short model name."""
    if model_name not in MODEL_NAMES:
        raise DomainError(f"unknown model {model_name!r}")
    family, driver = MODEL_NAMES[model_name]
    names = ["sigma"]
    if family.value == "cev":
        names.append("alpha")
    if driver != Driver.CLASSICAL:
        names.append("hurst")
    return tuple(names)


def build_model(model_name: str, values: dict) -> ModelSpec:
    """ModelSpec from fitted values; beta = gamma = 1 for mixed drivers."""
    return ModelSpec.make(model_name, **values)


# ---------------------------------------------------------------------------
# chain ingestion
# ---------------------------------------------------------------------------

def load_chain(source, moneyness_filter: bool = False) -> OptionChain:
    """Parse a ChainCsv stream or path into an OptionChain.

    Header (required, comma separated):
    ``quote_date,spot,rate,strike,maturity_years,mid_price``.
    Rows violating the quote invariants raise with their row number.  With
    ``moneyness_filter`` set, quotes deeper than 5% in the money
    (strike < 0.95 * spot) are dropped.
    """
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source, "r", encoding="utf-8-sig", newline="") as fh:
            return load_chain(fh, moneyness_filter)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ChainFormatError("empty chain file") from None
    header = [h.strip() for h in header]
    if header:  # a byte-order mark a stream kept, as spreadsheet exports write
        header[0] = header[0].removeprefix("\ufeff")
    if header != CHAIN_HEADER:
        raise ChainFormatError(
            f"bad header {header!r}; expected {','.join(CHAIN_HEADER)}")
    quotes = []
    dates = set()
    for row_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(CHAIN_HEADER):
            raise ChainFormatError(f"row {row_no}: expected "
                                   f"{len(CHAIN_HEADER)} fields, got {len(row)}")
        date = row[0].strip()
        try:
            values = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise ChainFormatError(f"row {row_no}: {exc}") from None
        for field, value in zip(CHAIN_HEADER[1:], values):
            if not math.isfinite(value):
                raise ChainFormatError(
                    f"row {row_no}: {field} must be finite, got {value!r}")
        spot, rate, strike, maturity, mid = values
        if strike <= 0.0:
            raise ChainFormatError(f"row {row_no}: strike must be positive")
        if maturity <= 0.0:
            raise ChainFormatError(f"row {row_no}: maturity must be positive")
        if mid <= 0.0:
            raise ChainFormatError(f"row {row_no}: mid price must be positive")
        if spot <= 0.0:
            raise ChainFormatError(f"row {row_no}: spot must be positive")
        if rate < 0.0:
            raise ChainFormatError(f"row {row_no}: rate must be >= 0")
        dates.add(date)
        if moneyness_filter and strike < 0.95 * spot:
            continue
        quotes.append(MarketQuote(strike=strike, maturity=maturity,
                                  mid_price=mid, spot=spot, rate=rate))
    if len(dates) > 1:
        raise ChainFormatError(f"multiple quote dates in one chain: {sorted(dates)}")
    if not quotes:
        raise ChainFormatError("no quotes after parsing/filtering")
    return OptionChain(quote_date=next(iter(dates)), quotes=tuple(quotes))


def write_chain_csv(chain: OptionChain, target) -> None:
    if isinstance(target, (str, bytes, os.PathLike)):
        with open(target, "w", encoding="utf-8", newline="") as fh:
            write_chain_csv(chain, fh)
        return
    writer = csv.writer(target)
    writer.writerow(CHAIN_HEADER)
    for q in chain.quotes:
        writer.writerow([chain.quote_date, f"{q.spot:.10g}", f"{q.rate:.10g}",
                         f"{q.strike:.10g}", f"{q.maturity:.10g}",
                         f"{q.mid_price:.10g}"])


# ---------------------------------------------------------------------------
# quote arrays
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Quotes:
    """A chain's quotes as per-quote arrays, built once per fit by _quote_arrays."""

    spot: float
    maturities: np.ndarray
    rates: np.ndarray
    strikes: np.ndarray
    mids: np.ndarray
    starts: np.ndarray  # index of each maturity group's first quote

    def keys(self) -> list:
        """Each maturity group's key: its first quote's maturity to 6 decimals."""
        return [f"{t:.{_MATURITY_DECIMALS}f}" for t in self.maturities[self.starts]]

    def groups(self) -> dict:
        """Each maturity group's quotes, as quotes of their own, by key."""
        ends = [*self.starts[1:], self.mids.size]
        return {key: _Quotes(self.spot, self.maturities[i:j], self.rates[i:j],
                             self.strikes[i:j], self.mids[i:j], np.zeros(1, int))
                for key, i, j in zip(self.keys(), self.starts, ends)}


def _quote_arrays(quotes) -> _Quotes:
    """Per-quote arrays sorted by (maturity group, rate, strike, mid), checked once.

    A maturity group is the quotes whose maturities round to the same 6
    decimals.  The sort makes every fit bit-identical under reordering of the
    input chain.  Quotes that break :func:`load_chain`'s invariants (spot,
    strike, maturity and mid positive and finite, rate finite and >= 0)
    raise ``DomainError`` here, because a fit prices the arrays unchecked.
    """
    rows = sorted(((round(q.maturity, _MATURITY_DECIMALS), q.rate, q.strike,
                    q.mid_price, q) for q in quotes), key=lambda row: row[:4])
    qs = [row[-1] for row in rows]
    rounded = np.array([row[0] for row in rows])
    maturities, rates, strikes = _chain_arrays(
        qs[0].spot, [q.maturity for q in qs], [q.rate for q in qs],
        [q.strike for q in qs])
    return _Quotes(spot=qs[0].spot, maturities=maturities, rates=rates,
                   strikes=strikes,
                   mids=_quote_array([q.mid_price for q in qs], "mid price"),
                   starts=np.flatnonzero(np.r_[True, rounded[1:] != rounded[:-1]]))


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

# relative step of the alpha column's forward difference, as in scipy's
# 2-point rule
_FD_STEP = math.sqrt(np.finfo(float).eps)
# H where a fit that cannot identify it (one maturity) starts
_MID_HURST = 0.5 * sum(PARAM_BOUNDS["hurst"])
_HURST_GRID = 65  # H values of each grid of the clock start's search
_HURST_LEVELS = 4  # grids of that search, each over the last one's best two cells
_HURST_STEP = 1e-6  # central-difference step of the clock in H
# the clock start's parameters stay this fraction of the box inside its
# edges, where the logistic coordinates are infinite
_EDGE = 1e-4


def _box(names):
    lo = np.array([PARAM_BOUNDS[n][0] for n in names])
    hi = np.array([PARAM_BOUNDS[n][1] for n in names])
    return lo, hi


def _to_box(u, lo, hi):
    """The logistic map p = lo + span * expit(u), clipped to the box."""
    return np.clip(lo + (hi - lo) * expit(u), lo, hi)


class _ScaledResiduals:
    """Price residuals (prices - mids) / sqrt(n_quotes), whose sum of squares is the MSE.

    A subclass maps its vector to a model and the clock of every quote in
    ``_at``; calling the instance prices the quotes there, and
    ``evaluations`` counts those calls.
    """

    def __init__(self, quotes: _Quotes):
        self.quotes = quotes
        self.scale = 1.0 / math.sqrt(quotes.mids.size)
        self.evaluations = 0

    def __call__(self, v):
        self.evaluations += 1
        model, clocks = self._at(v)
        q = self.quotes
        return self.scale * (_prices_at_clock(model, q.spot, q.maturities, q.rates,
                                              q.strikes, clocks) - q.mids)

    def _forward_column(self, u, res, j):
        """d residuals / du[j] by a 2-point forward difference from ``res``, those at u.

        The step is sqrt(eps) * max(1, |u[j]|) with the sign of u[j].
        """
        shifted = np.array(u, dtype=float)
        shifted[j] += _FD_STEP * (1.0 if u[j] >= 0.0 else -1.0) * max(1.0, abs(u[j]))
        return (self(shifted) - res) / (shifted[j] - u[j])


class _Problem(_ScaledResiduals):
    """Scaled price residuals of one fit and their Jacobian, in logistic coordinates.

    ``u`` maps onto the parameter box as p = lo + span * expit(u).
    """

    def __init__(self, model_name: str, names, quotes: _Quotes):
        super().__init__(quotes)
        self.model_name = model_name
        self.names = names
        self.lo, self.hi = _box(names)

    def params(self, u):
        return _to_box(u, self.lo, self.hi)

    def coordinates(self, params):
        """The ``u`` of parameters in the box, moved at least _EDGE of it inside."""
        frac = (np.asarray(params) - self.lo) / (self.hi - self.lo)
        return logit(np.clip(frac, _EDGE, 1.0 - _EDGE))

    def param_slopes(self, u):
        """dp/du; expit(u) * expit(-u) stays positive where 1 - expit(u) rounds to 0."""
        return (self.hi - self.lo) * expit(u) * expit(-u)

    def _at(self, u):
        model = build_model(self.model_name, dict(zip(self.names, self.params(u))))
        return model, _clock(model, self.quotes.rates, self.quotes.maturities)

    def jac(self, u, res):
        """d residuals / du at u, whose residuals are ``res``; sigma and H via the clock.

        dC/dX comes from :func:`_clock_slope`, dX/dsigma = 2 X / sigma and
        dX/dH is a central difference of :func:`_clock` in H; the alpha
        column is a forward difference from ``res``.
        """
        q = self.quotes
        model, clocks = self._at(u)
        d_clock = {"sigma": 2.0 * clocks / model.sigma}
        if "hurst" in self.names:
            h = model.driver_params.hurst + np.array([[_HURST_STEP], [-_HURST_STEP]])
            up, down = _clock(model, q.rates, q.maturities, h)
            d_clock["hurst"] = (up - down) / (2.0 * _HURST_STEP)
        slope = _clock_slope(model, q.spot, q.maturities, q.rates, q.strikes, clocks)
        slopes = self.param_slopes(u)
        jac = np.empty((q.mids.size, len(self.names)))
        for j, name in enumerate(self.names):
            if name == "alpha":
                jac[:, j] = self._forward_column(u, res, j)
            else:
                jac[:, j] = self.scale * slopes[j] * (d_clock[name] * slope)
        return jac

    def uncertainty(self, solution):
        """Standard errors of the parameters and the condition number of dC/dp.

        dC/dp comes from the solution's own Jacobian, so no pricing is
        needed; the covariance is (J^T J)^-1 * MSE * n / (n - p).  Standard
        errors are None when n <= p or J is rank-deficient, and the
        condition number when it is infinite.
        """
        jac = solution.jac / (self.scale * self.param_slopes(solution.x))
        if not np.all(np.isfinite(jac)):
            return None, None
        n, k = jac.shape
        _, sv, vt = np.linalg.svd(jac, full_matrices=False)
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0.0 else None
        if n <= k or sv[-1] <= sv[0] * max(n, k) * np.finfo(float).eps:
            return None, cond
        var = np.sum((vt / sv[:, None]) ** 2, axis=0) * 2.0 * solution.cost * n / (n - k)
        return dict(zip(self.names, (float(v) for v in np.sqrt(var)))), cond


class _ClockProblem(_ScaledResiduals):
    """Stage 1 of the clock start: the chain priced at one clock per (maturity, rate) group.

    ``v`` is [u_alpha, log X_1, ..., log X_G] for the CEV family, alpha on
    the logistic map of :class:`_Problem`, and [log X_1, ..., log X_G] for
    the BS family.  Every evaluation prices all quotes in one call.  The
    clock columns of the Jacobian are the analytic dC/dX times X, the
    alpha column a forward difference.
    """

    def __init__(self, model_name: str, quotes: _Quotes):
        super().__init__(quotes)
        self.model_name = model_name
        self.cev = MODEL_NAMES[model_name][0] == Family.CEV
        # the quotes are sorted by maturity group, then rate
        new = np.r_[True, quotes.rates[1:] != quotes.rates[:-1]]
        new[quotes.starts] = True
        self.group = np.cumsum(new) - 1
        self.first = np.flatnonzero(new)
        self.maturities = quotes.maturities[self.first]
        self.rates = quotes.rates[self.first]

    def alpha(self, v) -> float:
        return float(_to_box(v[0], *PARAM_BOUNDS["alpha"])) if self.cev else 2.0

    def unit_model(self, v) -> ModelSpec:
        """The model at sigma 1 and the alpha of ``v``; its H is not used."""
        return build_model(self.model_name, {"sigma": 1.0, "alpha": self.alpha(v)})

    def _at(self, v):
        return self.unit_model(v), np.exp(v[int(self.cev):])[self.group]

    def jac(self, v, res):
        q = self.quotes
        model, clocks = self._at(v)
        slope = _clock_slope(model, q.spot, q.maturities, q.rates, q.strikes, clocks)
        jac = np.zeros((q.mids.size, v.size))
        jac[np.arange(q.mids.size), int(self.cev) + self.group] = \
            self.scale * clocks * slope
        if self.cev:
            jac[:, 0] = self._forward_column(v, res, 0)
        return jac

    def start(self) -> np.ndarray:
        """alpha at the middle of its box, clocks from the at-the-money quotes.

        Each group's clock comes from the Brenner-Subrahmanyam variance
        v = 2 pi (C/S)^2 of its quote nearest the forward, mapped to the
        CEV clock as Phi = S^(2-alpha) (2-alpha)^2 v / 2.
        """
        q = self.quotes
        gap = np.abs(q.strikes - q.spot * np.exp(q.rates * q.maturities))
        atm = [i + int(np.argmin(g)) for i, g in
               zip(self.first, np.split(gap, self.first[1:]))]
        var = 2.0 * math.pi * (q.mids[atm] / q.spot) ** 2
        if not self.cev:
            return np.log(var)
        a = self.alpha([0.0])
        return np.concatenate(([0.0], np.log(
            q.spot ** (2.0 - a) * (2.0 - a) ** 2 * var / 2.0)))


def _clock_parameters(names, stage1: _ClockProblem, v, weights=None) -> np.ndarray:
    """Stage 2 of the clock start: the parameters from stage 1's clocks, without pricing.

    The clock of group i is X_i = sigma^2 g_i(H), so for each H, log
    sigma^2 is the mean of log X_i - log g_i(H), and H minimises the sum of
    squares left, both weighted by the groups' ``weights`` (equal if None
    or if their sum is not positive and finite).
    That profile is bimodal for the sub-fractional driver, whose weight
    w_H = 2 - 2^(2H-1) bends g, so a local search from the whole box can
    end in the wrong mode: H is taken from a grid over its box, then from
    a grid over the two cells around the best value, _HURST_LEVELS grids
    in all, each one broadcast evaluation of g; the last step is the
    vertex of the parabola through the last grid's best value and its
    neighbours.  With one maturity, H is not identified and stays at the
    middle of its box.  Returns the values in the order of ``names``.
    """
    unit = stage1.unit_model(v)
    log_clocks = v[int(stage1.cev):]
    if weights is None or not 0.0 < weights.sum() < math.inf:
        weights = np.ones(log_clocks.size)

    def profile(hurst):
        """log sigma^2 and the weighted squares left, at each H of a 1-d array."""
        misfit = log_clocks - np.log(np.atleast_2d(
            _clock(unit, stage1.rates, stage1.maturities, hurst[:, None])))
        log_var = np.sum(misfit * weights, axis=1) / np.sum(weights)
        return log_var, np.sum((misfit - log_var[:, None]) ** 2 * weights, axis=1)

    hurst = _MID_HURST
    if "hurst" in names and stage1.quotes.starts.size > 1:
        lo, hi = PARAM_BOUNDS["hurst"]
        for _ in range(_HURST_LEVELS):
            grid = np.linspace(lo, hi, _HURST_GRID)
            squares = profile(grid)[1]
            best = int(np.argmin(squares))
            lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
        i = min(max(best, 1), grid.size - 2)  # the middle of three grid values
        f0, f1, f2 = squares[i - 1:i + 2]
        bend = f0 - 2.0 * f1 + f2
        hurst = grid[best]
        if bend > 0.0:
            step = 0.5 * (grid[i] - grid[i - 1]) * (f0 - f2) / bend
            hurst = min(max(grid[i] + step, grid[i - 1]), grid[i + 1])
    values = {"sigma": math.exp(0.5 * profile(np.array([hurst]))[0][0]),
              "alpha": stage1.alpha(v), "hurst": hurst}
    return np.array([values[n] for n in names])


@dataclass(frozen=True)
class _Solution:
    """The kept least-squares solve of one parameter vector (see _fit_vector)."""

    params: np.ndarray
    residuals: np.ndarray
    iterations: int
    evaluations: int
    converged: bool
    stderr: dict | None
    jac_cond: float | None


def _random_start(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A further start in the logistic coordinates, uniform on the inner 96% of the box."""
    return logit(rng.uniform(0.02, 0.98, dim))  # keep logits finite


@dataclass(frozen=True)
class _TrfResult:
    """One least-squares solve by :func:`_trf`; ``cost`` is half the sum of squares."""

    x: np.ndarray
    cost: float
    fun: np.ndarray
    jac: np.ndarray
    nfev: int
    converged: bool  # a tolerance was met, not the budget spent


_TOL = 1e-8  # ftol, xtol and gtol


def _trf(target, x0, max_nfev) -> _TrfResult:
    """Least squares of ``target``'s residuals from ``x0`` by trust-region steps.

    The trust-region reflective method of scipy's ``least_squares`` with no
    bounds: the exact SVD subproblem, unit ``x_scale`` and ftol = xtol =
    gtol = 1e-8.  It follows scipy 1.17's ``trf_no_bounds`` and, in
    ``_lsq/common.py``, ``solve_lsq_trust_region``, ``update_tr_radius``
    and ``check_termination`` (BSD-3-Clause, Copyright (c) 2001-2002
    Enthought, Inc., 2003 SciPy Developers).  The subproblem is Moré's
    ("The Levenberg-Marquardt algorithm: implementation and theory",
    1977).  ``target.jac(x, f)`` gets the residuals ``f`` at x, so a
    forward-difference column needs no second evaluation at x.  ``nfev``
    counts residual evaluations.
    """
    norm = np.linalg.norm
    x = np.array(x0, dtype=float)
    f = target(x)
    if not np.all(np.isfinite(f)):
        raise ValueError("Residuals are not finite in the initial point.")
    jac = target.jac(x, f)
    m, n = jac.shape
    cost = 0.5 * np.dot(f, f)
    g = jac.T.dot(f)
    delta = norm(x) or 1.0
    nfev = 1
    lm = 0.0  # the Levenberg-Marquardt parameter
    converged = False
    while True:
        converged = converged or norm(g, ord=np.inf) < _TOL
        if converged or nfev >= max_nfev:
            break
        u, s, vt = np.linalg.svd(jac, full_matrices=False)
        v = vt.T
        uf = u.T.dot(f)
        reduction = -1
        while reduction <= 0 and nfev < max_nfev:
            step, lm = _trust_region_step(m, n, uf, s, v, delta, lm)
            js = jac.dot(step)
            predicted = -(0.5 * np.dot(js, js) + np.dot(step, g))
            x_new = x + step
            f_new = target(x_new)
            nfev += 1
            step_norm = norm(step)
            if not np.all(np.isfinite(f_new)):
                delta = 0.25 * step_norm
                continue
            cost_new = 0.5 * np.dot(f_new, f_new)
            reduction = cost - cost_new
            # update_tr_radius
            ratio = reduction / predicted if predicted > 0 else 0
            delta_new = delta
            if ratio < 0.25:
                delta_new = 0.25 * step_norm
            elif ratio > 0.75 and step_norm > 0.95 * delta:
                delta_new *= 2.0
            # check_termination: ftol or xtol
            if (reduction < _TOL * cost and ratio > 0.25
                    or step_norm < _TOL * (_TOL + norm(x))):
                converged = True
                break
            lm *= delta / delta_new
            delta = delta_new
        if reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            jac = target.jac(x, f)
            g = jac.T.dot(f)
    return _TrfResult(x=x, cost=cost, fun=f, jac=jac, nfev=nfev, converged=converged)


def _trust_region_step(m, n, uf, s, v, delta, lm):
    """The step of norm at most ``delta`` and its Levenberg-Marquardt parameter.

    After scipy's ``solve_lsq_trust_region`` (see :func:`_trf`), for an m x n
    Jacobian J = U diag(s) V^T, ``uf`` = U^T f, from the parameter ``lm``
    of the previous step: the Gauss-Newton step when J has full rank and
    that step fits, else Moré's safeguarded Newton iteration on
    ||p(lm)|| = delta, relative tolerance 0.01 and at most 10 iterations.
    """
    norm = np.linalg.norm

    def phi_and_derivative(lm):
        denom = s ** 2 + lm
        p_norm = norm(suf / denom)
        return p_norm - delta, -np.sum(suf ** 2 / denom ** 3) / p_norm

    suf = s * uf
    full_rank = m >= n and s[-1] > np.finfo(float).eps * m * s[0]
    if full_rank:
        p = -v.dot(uf / s)
        if norm(p) <= delta:
            return p, 0.0
    upper = norm(suf) / delta
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        lower = -phi / phi_prime
    else:
        lower = 0.0
    if not full_rank and lm == 0:
        lm = max(0.001 * upper, (lower * upper) ** 0.5)
    for _ in range(10):
        if lm < lower or lm > upper:
            lm = max(0.001 * upper, (lower * upper) ** 0.5)
        phi, phi_prime = phi_and_derivative(lm)
        if phi < 0:
            upper = lm
        ratio = phi / phi_prime
        lower = max(lower, lm - ratio)
        lm -= (phi + delta) * ratio / delta
        if np.abs(phi) < 0.01 * delta:
            break
    p = -v.dot(suf / (s ** 2 + lm))
    p *= delta / norm(p)  # onto the trust region's edge
    return p, lm


def _fit_vector(model_name: str, names, quotes: _Quotes,
                cfg: OptimizerConfig) -> _Solution:
    """Trust-region least squares from the clock start and any random starts.

    Every start runs :func:`_trf` on :class:`_Problem`'s residuals and
    Jacobian, with at most ``cfg.maxiter`` residual evaluations (the alpha
    Jacobian column's are not counted); the clock start first solves
    :class:`_ClockProblem` and :func:`_clock_parameters`, and each further
    start is drawn by :func:`_random_start` from one ``default_rng(cfg.seed)``
    when its turn comes.  Stage 2 weights each group's clock by the sum of
    squares of its column of stage 1's final Jacobian, its weight in the
    price MSE.  A start that leaves the pricing domain is skipped with one
    warning.  If the lowest-cost start stopped on its budget, it continues
    from its end point for at most ``cfg.polish_maxiter`` evaluations, and
    the continuation is kept when it is no worse.

    ``iterations`` is the residual evaluations of every start (stage 1 of
    the clock start included) and of the continuation, ``evaluations``
    every pricing call; ``converged`` means the kept solve met a
    least-squares tolerance.
    """
    problem = _Problem(model_name, names, quotes)
    stage1 = _ClockProblem(model_name, quotes)

    def clock_start():
        clocks = _trf(stage1, stage1.start(), cfg.maxiter)
        # a group's weight in the price MSE: the squares of its clock's column
        weights = np.sum(clocks.jac[:, int(stage1.cev):] ** 2, axis=0)
        params = _clock_parameters(names, stage1, clocks.x, weights)
        return clocks.nfev, problem.coordinates(params)

    rng = np.random.default_rng(cfg.seed) if cfg.n_starts > 1 else None
    best = None
    iterations = 0
    for k in range(cfg.n_starts):
        try:
            nfev, u0 = clock_start() if k == 0 else (0, _random_start(rng, len(names)))
            res = _trf(problem, u0, cfg.maxiter)
        except (DomainError, FloatingPointError) as exc:
            where = ("the clock start" if k == 0 else
                     f"random start {dict(zip(names, problem.params(u0)))}")
            log.warning("%s of %s left the domain: %s", where, model_name, exc)
            continue
        iterations += nfev + res.nfev
        if best is None or res.cost < best.cost:
            best = res
    if best is None:
        raise CalibrationError(
            f"no optimizer start stayed in the pricing domain for {model_name}")
    if not best.converged:  # stopped on its budget
        try:
            more = _trf(problem, best.x, cfg.polish_maxiter)
        except (DomainError, FloatingPointError) as exc:
            log.warning("continuation of %s left the domain: %s", model_name, exc)
        else:
            iterations += more.nfev
            if more.cost <= best.cost:
                best = more
    stderr, cond = problem.uncertainty(best)
    return _Solution(params=problem.params(best.x),
                     residuals=best.fun / problem.scale, iterations=iterations,
                     evaluations=problem.evaluations + stage1.evaluations,
                     converged=best.converged, stderr=stderr, jac_cond=cond)


def fit(chain: OptionChain, model_name: str, mode: str = "joint",
        cfg: OptimizerConfig = OptimizerConfig()) -> CalibrationReport:
    """Calibrate one model to the chain.

    ``mode`` is ``joint`` (one fit of every quote) or ``per_maturity``
    (each maturity group of :func:`_quote_arrays` fitted as a chain of its
    own; groups with fewer than two quotes are skipped with a warning).
    ``total_mse`` is the mean of squared errors over all quotes in scope,
    equivalently the quote-count-weighted combination of the fits' MSEs.
    """
    names = free_parameters(model_name)
    quotes = _quote_arrays(chain.quotes)  # checks every quote, in either mode
    if mode == "joint":
        scopes = {"joint": quotes}
    elif mode == "per_maturity":
        scopes = quotes.groups()
        for key in [k for k, q in scopes.items() if q.mids.size < 2]:
            warnings.warn(f"maturity {key}: fewer than two quotes, skipped",
                          RuntimeWarning, stacklevel=2)
            del scopes[key]
        if not scopes:
            raise CalibrationError("per-maturity fit found no usable maturity group")
    else:
        raise DomainError(f"mode must be 'joint' or 'per_maturity', got {mode!r}")
    sols = {key: _fit_vector(model_name, names, q, cfg) for key, q in scopes.items()}
    # every MSE is the mean of its quotes' squared residuals
    squares = {key: s.residuals ** 2 for key, s in sols.items()}
    mse_per_maturity = {k: float(np.mean(sq)) for key, q in scopes.items() for k, sq in
                        zip(q.keys(), np.split(squares[key], q.starts[1:]))}
    return CalibrationReport(
        mode=mode,
        fitted={key: dict(zip(names, map(float, s.params))) for key, s in sols.items()},
        mse_per_maturity=mse_per_maturity,
        total_mse=float(np.mean(np.concatenate(list(squares.values())))),
        iterations=sum(s.iterations for s in sols.values()),
        converged=all(s.converged for s in sols.values()),
        evaluations=sum(s.evaluations for s in sols.values()),
        stderr={key: s.stderr for key, s in sols.items()},
        jac_cond={key: s.jac_cond for key, s in sols.items()},
    )


def compare_models(chain: OptionChain, catalog, mode: str = "joint",
                   cfg: OptimizerConfig = OptimizerConfig()) -> list:
    """Fit every model in the catalog; failures become marked rows."""
    catalog = list(catalog)
    if not catalog:
        raise DomainError("catalog must be non-empty")
    rows = []
    for name in catalog:
        try:
            report = fit(chain, name, mode, cfg)
            rows.append(ComparisonRow(model=name, failed=False,
                                      total_mse=report.total_mse,
                                      mse_per_maturity=report.mse_per_maturity,
                                      fitted=report.fitted))
        except (CalibrationError, ChainFormatError, DomainError) as exc:
            rows.append(ComparisonRow(model=name, failed=True,
                                      total_mse=math.nan, mse_per_maturity={},
                                      fitted={}, error=str(exc)))
    return rows


def synthetic_chain(model: ModelSpec, env: MarketEnv, maturities,
                    n_strikes: int = 10, width: float = 1.3,
                    noise: float = 0.0, seed: int | None = None,
                    quote_date: str = "2024-01-02") -> OptionChain:
    """Model-generated chain for self-tests and demos.

    Strikes per maturity span the forward +/- ``width`` terminal standard
    deviations (never below 95% of spot, so the moneyness filter is a
    no-op).  Optional additive Gaussian price noise; noisy mids are
    floored at 0.01 to keep the quote invariants, which matters only for
    strikes placed far enough out that the floor is a tail event.
    """
    from .pricing import call_prices as _prices
    from .pricing import driver_variance as _dvar
    rng = np.random.default_rng(seed) if noise > 0.0 else None
    rel_vol = model.sigma * env.spot ** (0.5 * model.alpha - 1.0)
    quotes = []
    for t in maturities:
        sd = env.spot * rel_vol * math.sqrt(
            _dvar(model.driver, model.driver_params, t))
        fwd = env.spot * math.exp(env.rate * t)
        lo = max(0.95 * env.spot, fwd - width * sd)
        strikes = np.linspace(lo, fwd + width * sd, n_strikes)
        prices = _prices(model, env, t, strikes)
        if rng is not None:
            prices = np.maximum(prices + rng.normal(0.0, noise, prices.shape),
                                0.01)
        for k, p in zip(strikes, prices):
            quotes.append(MarketQuote(strike=float(k), maturity=float(t),
                                      mid_price=float(p), spot=env.spot,
                                      rate=env.rate))
    return OptionChain(quote_date=quote_date, quotes=tuple(quotes))


def comparison_to_json(rows) -> str:
    # JSON has no NaN: a failed row's total_mse goes out as null
    return json.dumps([{**asdict(r), "total_mse": None if math.isnan(r.total_mse)
                        else r.total_mse} for r in rows], indent=2)
