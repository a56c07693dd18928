"""The benchmark's workloads, built from a seed.

A workload is a list of operations.  Each operation is one call into the
public API of ``msfcev`` plus a check of its output against a computation
made apart from the library (``rounds.py``).  A run repeats the same list,
a round, until its time is up, so every run attempts whole rounds and the
share of failed operations does not depend on the run's length.

Only numpy and the library are imported here: a fresh interpreter that
measures set-up time builds the first operation from this module without
paying for the benchmark's own scipy imports.
"""

from __future__ import annotations

import io
import math
import pathlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from msfcev import calibrate, pricing, process, verify
from msfcev.errors import NumericalError

HERE = pathlib.Path(__file__).resolve().parent
SAMPLE_CHAIN = HERE.parent / "data" / "sample_chain.csv"
# generating parameters of data/sample_chain.csv (demos/05_calibration_workflow.py)
SAMPLE_TRUTH = {"sigma": 2.5, "alpha": 0.8, "hurst": 0.75}
SPOT = 100.0

# price_surface grid: fixed alpha, maturity and H levels keep the cost mix the
# same on every seed; the seed moves maturities and volatilities by 2%, the
# rates and the strikes
SURFACE_ALPHAS = (0.0, 0.3, 0.6, 0.9, 1.2, 1.5, 1.8, 1.99)
SURFACE_MATURITIES = (0.1, 0.2, 0.4, 0.8, 1.5, 2.5, 3.5, 5.0)
SURFACE_HURSTS = (0.5, 0.65, 0.8, 0.95)
SURFACE_STRIKES = 40
DENSITY_POINTS = 400

# deep out-of-the-money row of mpmath_table.csv that the library misprices:
# specfun._poisson_window centres on the Poisson mode and drops the
# lower-tail mass of the mixture
FAULT_DEEP_OTM = ("msfcev", 0.0, 0.25, 400.0)
# verify.quadrature_price integrates over [K, s_hi] with one breakpoint and
# misses the density's peak as alpha approaches 2
FAULT_QUADRATURE_ALPHA = 1.9


def no_check(result) -> list:
    return []


@dataclass
class Op:
    """One checked call into the library.

    ``kind`` names the metric family the call feeds: ``slice``, ``curve``,
    ``density``, ``fit``, ``oracle``, ``sample`` or ``table``.  ``items``
    counts the prices, density points or paths the call returns.  ``check``
    gets the result and returns the names of the checks that failed.  A
    ``known_fault`` names a fault of the library that makes the checks in
    ``fault_checks`` fail.  ``expected`` holds the independent prices a
    pricing result is compared with, for the accuracy figures of the traced
    run.
    """

    kind: str
    label: str
    call: Callable[[], object]
    items: int = 1
    check: Callable[[object], list] = no_check
    known_fault: str = ""
    fault_checks: tuple = ()
    expected: object = None


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def model(name: str, sigma: float, alpha: float, hurst: float) -> pricing.ModelSpec:
    """Library model with beta = gamma = 1 (gamma = 0 for classical drivers)."""
    return calibrate.build_model(name, {"sigma": sigma, "alpha": alpha, "hurst": hurst})


def cev_sigma(vol: float, alpha: float, mixed: bool) -> float:
    """sigma giving local volatility ``vol`` at the spot (driver variance ~2t if mixed)."""
    return vol * SPOT ** (1.0 - 0.5 * alpha) / (math.sqrt(2.0) if mixed else 1.0)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Slice:
    model: pricing.ModelSpec
    name: str
    rate: float
    maturity: float
    strikes: np.ndarray

    @property
    def env(self) -> pricing.MarketEnv:
        return pricing.MarketEnv(rate=self.rate, spot=SPOT)


def strike_ladder(vol: float, rate: float, t: float, lo: float, hi: float,
                  n: int) -> np.ndarray:
    """Strikes at forward * exp(m vol sqrt(t)), m evenly spaced in [lo, hi]."""
    fwd = SPOT * math.exp(rate * t)
    return fwd * np.exp(np.linspace(lo, hi, n) * vol * math.sqrt(t))


def jitter(rng: np.random.Generator, value: float, share: float = 0.02) -> float:
    """``value`` moved by at most ``share`` of itself."""
    return value * (1.0 + rng.uniform(-share, share))


def surface_slices(seed: int) -> list:
    """All six models over the (alpha, maturity) grid, 40 strikes each.

    H cycles through fixed levels across the grid and the ATM volatility is
    30%; the seed moves each cell's maturity, volatility and rate by a few
    percent and places a strike ladder from about six standard deviations
    in the money to six out.  These are the quantities the cost of a slice
    depends on, so the cost mix stays the same from seed to seed.  The BS
    family ignores alpha, so it is priced once per maturity level.
    """
    rng = rng_for(seed, 1)
    slices = []
    for i, t_level in enumerate(SURFACE_MATURITIES):
        t = jitter(rng, t_level)
        for j, alpha in enumerate(SURFACE_ALPHAS):
            hurst = SURFACE_HURSTS[(i + j) % len(SURFACE_HURSTS)]
            vol = jitter(rng, 0.3)
            rate = rng.uniform(0.02, 0.04)
            strikes = strike_ladder(vol, rate, t, -6.0 + rng.uniform(0, 0.5),
                                    6.0 - rng.uniform(0, 0.5), SURFACE_STRIKES)
            for name in ("cev", "mfcev", "msfcev"):
                sig = cev_sigma(vol, alpha, name != "cev")
                slices.append(Slice(model(name, sig, alpha, hurst), name, rate,
                                    t, strikes))
        hurst = SURFACE_HURSTS[i % len(SURFACE_HURSTS)]
        vol = jitter(rng, 0.3)
        rate = rng.uniform(0.02, 0.04)
        strikes = strike_ladder(vol, rate, t, -6.0, 6.0, SURFACE_STRIKES)
        for name in ("bs", "mfbs", "msfbs"):
            sig = vol / (1.0 if name == "bs" else math.sqrt(2.0))
            slices.append(Slice(model(name, sig, 2.0, hurst), name, rate, t,
                                strikes))
    return slices


def chain_csv(quotes, rate: float) -> str:
    """ChainCsv text for (strike, maturity, mid) triples."""
    buf = io.StringIO()
    buf.write(",".join(calibrate.CHAIN_HEADER) + "\n")
    for strike, t, mid in quotes:
        buf.write(f"2024-01-02,{SPOT:.10g},{rate:.10g},{strike:.17g},"
                  f"{t:.17g},{mid:.17g}\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# operations shared by the workloads
# ---------------------------------------------------------------------------

def slice_op(s: Slice, check=no_check) -> Op:
    return Op("slice", f"call_prices {s.name} a={s.model.alpha:.3g} T={s.maturity:.3g}",
              lambda: pricing.call_prices(s.model, s.env, s.maturity, s.strikes),
              items=len(s.strikes), check=check)


def fit_op(label: str, chain_text: str, name: str, mode: str,
           cfg: calibrate.OptimizerConfig, check=no_check) -> Op:
    """Parse the chain and fit it: the whole calibration of one model."""
    def call():
        chain = calibrate.load_chain(io.StringIO(chain_text))
        return calibrate.fit(chain, name, mode, cfg)
    return Op("fit", label, call, check=check)


def phi_quadrature(m, env, t):
    """The library's own quadrature oracle for Phi(T), wherever it lives."""
    for module in (pricing, verify):
        fn = getattr(module, "effective_variance_quadrature", None)
        if fn is not None:
            return fn(m, env, t)
    return None


def oracle_suite(m, env: pricing.MarketEnv, t: float, strike: float,
                 with_fpe: bool, mc_paths: int, mc_seed: int) -> dict:
    """What ``msfcev verify --with-mc --with-fpe`` computes at one point.

    Returns the raw values; the tolerances are applied by the checks.
    """
    out = {"price": pricing.call_price(m, env, t, strike)}
    if m.family == pricing.Family.BS:
        cfg = verify.McConfig(n_paths=mc_paths, seed=mc_seed)
        out["mc"] = verify.mc_price_msfbs(m, env, t, strike, cfg)
        return out
    out["phi"] = pricing.effective_variance(m, env, t)
    out["phi_quad"] = phi_quadrature(m, env, t)
    for key, k in (("quad_price", strike), ("quad_mass", 0.0)):
        try:
            out[key] = verify.quadrature_price(m, env, t, k)
        except NumericalError as exc:
            out[key] = exc
    if m.driver == pricing.Driver.CLASSICAL and mc_paths:
        cfg = verify.McConfig(n_paths=mc_paths, n_steps=max(10, int(200 * t)),
                              seed=mc_seed)
        out["mc"] = verify.mc_price_cev_classical(m, env, t, strike, cfg)
    if with_fpe:
        ints = pricing.cev_intermediates(m, env, t, strike)
        x0 = env.spot ** (2.0 - m.alpha)
        x_hi = (ints.y_s + 12.0 * math.sqrt(ints.y_s) + 60.0) / ints.k_s
        grid = verify.FpeGrid(x_min=0.0, x_max=max(x_hi, 1.5 * x0),
                              n_space=2400, n_time=600)
        sol = verify.solve_fpe(m, env, t, grid)
        keep = sol.s > 0
        closed = pricing.transition_density(m, env, t, sol.s[keep])
        out["fpe"] = sol
        out["fpe_l1"] = float(np.trapezoid(np.abs(sol.density_s[keep] - closed),
                                           sol.s[keep]))
    return out


@dataclass(frozen=True)
class OraclePoint:
    name: str
    sigma: float
    alpha: float
    hurst: float
    rate: float
    maturity: float
    strike: float
    with_fpe: bool
    mc_paths: int = 0
    mc_seed: int = 0

    @property
    def model(self):
        return model(self.name, self.sigma, self.alpha, self.hurst)

    @property
    def env(self):
        return pricing.MarketEnv(rate=self.rate, spot=SPOT)


def oracle_op(p: OraclePoint, check=no_check) -> Op:
    op = Op("oracle", f"oracle suite {p.name} a={p.alpha:g} T={p.maturity:g} K={p.strike:g}",
            lambda: oracle_suite(p.model, p.env, p.maturity, p.strike,
                                 p.with_fpe, p.mc_paths, p.mc_seed),
            check=check)
    if p.alpha == FAULT_QUADRATURE_ALPHA:
        op.known_fault = "quadrature oracle near alpha = 2"
        op.fault_checks = ("quadrature price vs reference", "quadrature martingale mass")
    return op


@dataclass(frozen=True)
class SampleJob:
    times: tuple
    hurst: float
    n_paths: int
    seed: int

    @property
    def params(self):
        return process.MixedDriverParams(hurst=self.hurst, beta=1.0, gamma=1.0)


def sample_op(job: SampleJob, check=no_check) -> Op:
    return Op("sample", f"sample_msfbm {job.n_paths} x {len(job.times) - 1}",
              lambda: process.sample_msfbm(process.TimeGrid(job.times),
                                           job.params, job.n_paths, job.seed),
              items=job.n_paths, check=check)


def sample_job(seed: int, stream: int, n_paths: int, n_times: int) -> SampleJob:
    rng = rng_for(seed, stream)
    gaps = rng.uniform(0.5, 1.5, n_times)
    times = (0.0,) + tuple(np.cumsum(gaps) / gaps.sum() * rng.uniform(0.5, 2.0))
    return SampleJob(times, float(rng.uniform(0.55, 0.95)), n_paths,
                     int(rng.integers(0, 2 ** 32)))


# ---------------------------------------------------------------------------
# first operations (what the set-up measurement runs in a fresh interpreter)
# ---------------------------------------------------------------------------

def first_op(workload: str, seed: int) -> Op:
    if workload == "price_surface":
        return slice_op(surface_slices(seed)[0])
    if workload == "calibrate_chain":
        return fit_op("fit msfbs joint sample chain",
                      SAMPLE_CHAIN.read_text(encoding="utf-8"), "msfbs",
                      "joint", CHAIN_CFG)
    if workload == "verify_oracles":
        return oracle_op(VERIFY_POINTS[0])
    raise KeyError(workload)


# optimizer settings of the calibrate_chain fits: two starts recover the
# sample chain's generating parameters to 1e-7
CHAIN_CFG = calibrate.OptimizerConfig(n_starts=2, seed=42, maxiter=100,
                                      polish_maxiter=400)

# verify_oracles points: fixed, so the Monte Carlo z-scores are the same on
# every seed; the last one is the quadrature fault near alpha = 2.  An odd
# count puts the median suite time inside one point's times.
VERIFY_POINTS = (
    OraclePoint("msfbs", 0.3 / math.sqrt(2.0), 2.0, 0.75, 0.05, 1.0, 100.0,
                with_fpe=False, mc_paths=200_000, mc_seed=11),
    OraclePoint("cev", 3.0, 1.0, 0.5, 0.05, 1.0, 100.0, with_fpe=True,
                mc_paths=50_000, mc_seed=12),
    OraclePoint("msfcev", cev_sigma(0.3, 0.5, True), 0.5, 0.75, 0.05, 0.5,
                105.0, with_fpe=True),
    OraclePoint("mfcev", cev_sigma(0.3, 1.5, True), 1.5, 0.6, 0.03, 2.0,
                110.0, with_fpe=True),
    OraclePoint("msfcev", 0.376, FAULT_QUADRATURE_ALPHA, 0.75, 0.05, 1.0,
                100.0, with_fpe=True),
)
