"""One round of each workload, every operation with its check.

The checks compare the library with ``reference.py`` (scipy, written apart
from the library), with ``mpmath_table.csv`` (80-digit prices), with the
known generating parameters of a chain, or with properties the method
must have: no-arbitrage bounds, monotone and convex prices in strike, the
martingale identity, least-squares optimality, Monte Carlo error bars and
sampling error of a covariance.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy import integrate

import reference as ref
from workloads import (CHAIN_CFG, DENSITY_POINTS, FAULT_DEEP_OTM, HERE,
                       SAMPLE_CHAIN, SAMPLE_TRUTH, SPOT, SURFACE_ALPHAS,
                       SURFACE_HURSTS, SURFACE_MATURITIES,
                       VERIFY_POINTS, Op, OraclePoint, SampleJob, Slice,
                       cev_sigma, chain_csv, fit_op, jitter, model, oracle_op, rng_for,
                       sample_job, sample_op, slice_op, strike_ladder,
                       surface_slices)
from msfcev import calibrate, pricing

# program against the scipy reference: the library's own tail accuracy is
# about 1e-12 absolute, and 1e-7 relative as alpha approaches 2
PRICE_RTOL = 1e-6
PRICE_ATOL = 1e-9 * SPOT
# program against the 80-digit table: relative, so deep tails count
MPMATH_RTOL = 1e-6
# the scipy reference itself against the table: tight where prices are of
# practical size, loose in the 1e-15 tails where Boost loses digits
REF_SELF_RTOL = 1e-9
REF_SELF_TAIL_RTOL = 1e-5
REF_SELF_FLOOR = 1e-10
# tolerances msfcev verify applies (cli._cmd_verify), and solve_fpe's own
PHI_RTOL = 1e-9
QUAD_RTOL = 1e-6
FPE_L1_TOL = 1e-2
FPE_DRIFT_TOL = 1e-3
MC_Z_MAX = 3.0
MARTINGALE_RTOL = 1e-6
DENSITY_MARTINGALE_RTOL = 1e-8
COV_Z_MAX = 6.0
RECOVERY_RTOL = 1e-4
MSE_SLACK = 1e-12
CHAIN_NOISE = 0.005  # price units; mids of the seeded chains carry it


def point_of(m: pricing.ModelSpec, name: str) -> ref.Point:
    p = m.driver_params
    return ref.Point(name, m.sigma, m.alpha, p.hurst, p.beta, p.gamma)


def name_of(m: pricing.ModelSpec) -> str:
    for name, pair in pricing.MODEL_NAMES.items():
        if pair == (m.family, m.driver):
            return name
    raise KeyError(m)


def reference_prices(m, rate, t, strikes):
    return ref.call_prices(point_of(m, name_of(m)), SPOT, rate, t, strikes)


def price_errors(prices, expected) -> list:
    prices = np.asarray(prices, dtype=float)
    if prices.shape != np.shape(expected) or not np.all(np.isfinite(prices)):
        return ["shape or non-finite"]
    if np.any(np.abs(prices - expected) > PRICE_ATOL + PRICE_RTOL * np.abs(expected)):
        return ["reference pricer"]
    return []


def arbitrage_errors(prices, strikes, rate, t) -> list:
    """Bounds, monotone decrease and convexity in strike."""
    prices = np.asarray(prices, dtype=float)
    disc = math.exp(-rate * t)
    tol = 1e-12 * SPOT
    fails = []
    if np.any(prices < np.maximum(SPOT - strikes * disc, 0.0) - tol) or \
            np.any(prices > SPOT + tol):
        fails.append("no-arbitrage bounds")
    slopes = np.diff(prices) / np.diff(strikes)
    slope_tol = 1e-9 * SPOT / np.min(np.diff(strikes))
    if np.any(slopes > slope_tol) or np.any(slopes < -disc - slope_tol):
        fails.append("decreasing in strike")
    if np.any(np.diff(slopes) < -slope_tol):
        fails.append("convex in strike")
    return fails


def checked_slice(s: Slice) -> Op:
    expected = reference_prices(s.model, s.rate, s.maturity, s.strikes)
    op = slice_op(s, lambda prices: price_errors(prices, expected)
                  + arbitrage_errors(prices, s.strikes, s.rate, s.maturity))
    op.expected = expected
    return op


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def density_op(m, rate: float, t: float) -> Op:
    """transition_density on a geometric grid between share-measure quantiles.

    The grid spans the 1e-10 and 1 - 1e-10 quantiles of S_T under the share
    measure, so the martingale identity int S p(S) dS = S0 e^(rT) holds on it
    to 2e-10, and it is checked with Simpson's rule in log S.
    """
    pt = point_of(m, name_of(m))
    lo, hi = ref.share_measure_quantiles(pt, SPOT, rate, t, [1e-10, 1 - 1e-10])
    grid = np.geomspace(lo, hi, DENSITY_POINTS)
    expected = ref.density(pt, SPOT, rate, t, grid)
    big = expected > 1e-6 * expected.max()
    env = pricing.MarketEnv(rate=rate, spot=SPOT)

    def check(dens):
        dens = np.asarray(dens, dtype=float)
        if dens.shape != grid.shape or not np.all(np.isfinite(dens)):
            return ["shape or non-finite"]
        fails = []
        if np.max(np.abs(dens[big] - expected[big]) / expected[big]) > PRICE_RTOL:
            fails.append("reference density")
        mean = integrate.simpson(grid * grid * dens, x=np.log(grid))
        target = SPOT * math.exp(rate * t) * (1.0 - 2e-10)
        if abs(mean / target - 1.0) > DENSITY_MARTINGALE_RTOL:
            fails.append("martingale identity")
        return fails

    return Op("density", f"transition_density {name_of(m)} a={m.alpha:.3g} T={t:.3g}",
              lambda: pricing.transition_density(m, env, t, grid),
              items=DENSITY_POINTS, check=check)


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------

def mse_by_reference(name: str, values: dict, chain_quotes) -> dict:
    """Per-maturity MSE of the model at ``values``, priced by the reference."""
    m = calibrate.build_model(name, values)
    out = {}
    for (t, rate), qs in chain_quotes.items():
        strikes = np.array([q[0] for q in qs])
        mids = np.array([q[1] for q in qs])
        out[(t, rate)] = float(np.mean((reference_prices(m, rate, t, strikes) - mids) ** 2))
    return out


def quotes_by_maturity(chain_text: str) -> dict:
    out = {}
    for row in csv.DictReader(io.StringIO(chain_text)):
        key = (float(row["maturity_years"]), float(row["rate"]))
        out.setdefault(key, []).append((float(row["strike"]),
                                        float(row["mid_price"])))
    return out


def total_mse(per_maturity: dict, quotes: dict) -> float:
    n = sum(len(v) for v in quotes.values())
    return sum(per_maturity[k] * len(quotes[k]) for k in quotes) / n


def fit_check(name: str, mode: str, chain_text: str, truth: dict | None,
              recover: bool):
    """Checks of a calibration report.

    * the reported MSE is the MSE of the fitted parameters, repriced by the
      reference (so the fit reports what it found);
    * with ``truth``: no worse than the MSE at the generating parameters,
      per maturity in per-maturity mode (least squares must find at least
      that);
    * with ``recover``: the generating parameters themselves (clean chains).
    """
    quotes = quotes_by_maturity(chain_text)
    truth_mse = mse_by_reference(name, truth, quotes) if truth else None

    def check(report):
        fails = []
        if mode == "joint":
            fitted = {"joint": report.fitted["joint"]}
            mse = total_mse(mse_by_reference(name, fitted["joint"], quotes), quotes)
            if abs(mse - report.total_mse) > 1e-6 * mse + MSE_SLACK:
                fails.append("reported MSE")
            if truth_mse and report.total_mse > total_mse(truth_mse, quotes) + MSE_SLACK:
                fails.append("worse than generating parameters")
        else:
            for key, values in report.fitted.items():
                sub = {k: v for k, v in quotes.items() if f"{k[0]:.6f}" == key}
                mse = total_mse(mse_by_reference(name, values, sub), sub)
                if abs(mse - report.mse_per_maturity[key]) > 1e-6 * mse + MSE_SLACK:
                    fails.append(f"reported MSE at T={key}")
                if truth_mse and mse > total_mse(
                        {k: truth_mse[k] for k in sub}, sub) + MSE_SLACK:
                    fails.append(f"worse than generating parameters at T={key}")
            if len(report.fitted) != len(quotes):
                fails.append("maturity count")
        if recover:
            got = report.fitted["joint"]
            for key, want in truth.items():
                if abs(got[key] - want) > RECOVERY_RTOL * abs(want):
                    fails.append(f"recover {key}")
        return fails

    return check


def seeded_chain(seed: int, stream: int, name: str, truth: dict, n_maturities: int,
                 n_strikes: int) -> str:
    """A chain whose mids come from the reference pricer plus seeded noise."""
    rng = rng_for(seed, stream)
    rate = jitter(rng, 0.03)
    m = calibrate.build_model(name, truth)
    vol = 0.25
    quotes = []
    for i in range(n_maturities):
        t = 2.0 * (i + 0.5 + rng.uniform(-0.1, 0.1)) / n_maturities
        strikes = strike_ladder(vol, rate, t, -1.2, 1.2, n_strikes) \
            * np.exp(rng.uniform(-0.02, 0.02, n_strikes))
        strikes.sort()
        mids = reference_prices(m, rate, t, strikes) \
            + rng.normal(0.0, CHAIN_NOISE, n_strikes)
        quotes.extend(zip(strikes, [t] * n_strikes, mids))
    return chain_csv(quotes, rate)


# generating parameters of the seeded chains: fixed, so the fits do the same
# work on every seed; the seed moves maturities, strikes and noise
SEEDED_TRUTHS = {
    "msfcev": {"sigma": cev_sigma(0.25, 1.0, True), "alpha": 1.0, "hurst": 0.75},
    "cev": {"sigma": cev_sigma(0.25, 1.0, False), "alpha": 1.0},
    "msfbs": {"sigma": 0.25 / math.sqrt(2.0), "hurst": 0.75},
}
# Nelder-Mead stalls on the sigma-H ridge of msfcev and msfbs on some seeds,
# far above the least-squares minimum, so "no worse than the generating
# parameters" holds for cev and the per-maturity fit only (see README.md)
TRUTH_BOUND_MODELS = ("cev",)


# ---------------------------------------------------------------------------
# oracle suites
# ---------------------------------------------------------------------------

def oracle_check(p: OraclePoint):
    """Tolerances of ``msfcev verify`` plus the martingale identity."""
    m = p.model
    price_ref = float(reference_prices(m, p.rate, p.maturity, [p.strike])[0])
    phi_ref = ref.phi(point_of(m, p.name), p.rate, p.maturity) \
        if m.family == pricing.Family.CEV else None

    def close(a, b, rtol):
        return abs(a - b) <= PRICE_ATOL * 1e-3 + rtol * abs(b)

    def check(out):
        fails = []
        if not close(out["price"], price_ref, PRICE_RTOL):
            fails.append("closed form vs reference")
        lower = max(SPOT - p.strike * math.exp(-p.rate * p.maturity), 0.0)
        if not lower - 1e-9 <= out["price"] <= SPOT + 1e-9:
            fails.append("rational bounds")
        if "mc" in out:
            mc = out["mc"]
            if mc.se <= 0 or abs(mc.price - out["price"]) / mc.se > MC_Z_MAX:
                fails.append("Monte Carlo z-score")
        if "phi" in out:
            if not close(out["phi"], phi_ref, PHI_RTOL):
                fails.append("Phi vs reference")
            if out["phi_quad"] is not None and not close(out["phi"], out["phi_quad"], PHI_RTOL):
                fails.append("Phi vs quadrature")
            quad = out["quad_price"]
            if isinstance(quad, Exception) or not close(quad, price_ref, QUAD_RTOL):
                fails.append("quadrature price vs reference")
            mass = out["quad_mass"]
            if isinstance(mass, Exception) or abs(mass / SPOT - 1.0) > MARTINGALE_RTOL:
                fails.append("quadrature martingale mass")
        if "fpe" in out:
            sol = out["fpe"]
            if out["fpe_l1"] > FPE_L1_TOL:
                fails.append("FPE L1")
            if sol.conservation_drift > FPE_DRIFT_TOL or \
                    abs(sol.mass + sol.absorbed - 1.0) > FPE_DRIFT_TOL:
                fails.append("FPE mass balance")
        return fails

    return check


def sample_check(job: SampleJob):
    """Grid, zero start and covariance against the driver's own formula.

    The covariance is computed here from the closed form and compared both
    with ``process.covariance_matrix`` (exactly) and with the sample (each
    entry within COV_Z_MAX standard errors, Var(x_i x_j) = C_ii C_jj + C_ij^2).
    """
    from msfcev import process

    ts = np.asarray(job.times[1:])
    h2 = 2.0 * job.hurst
    s_m, t_m = np.meshgrid(ts, ts, indexing="ij")
    cov = np.minimum(s_m, t_m) + (s_m ** h2 + t_m ** h2
                                  - 0.5 * ((s_m + t_m) ** h2 + np.abs(t_m - s_m) ** h2))
    se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / job.n_paths)

    def check(batch):
        paths = batch.paths
        if paths.shape != (job.n_paths, len(job.times)) or np.any(paths[:, 0] != 0.0):
            return ["shape or start"]
        fails = []
        lib = process.covariance_matrix(process.TimeGrid(job.times), job.params)
        if np.max(np.abs(lib - cov)) > 1e-12 * np.max(cov):
            fails.append("covariance_matrix formula")
        emp = paths[:, 1:].T @ paths[:, 1:] / job.n_paths
        if np.max(np.abs(emp - cov) / se) > COV_Z_MAX:
            fails.append("sample covariance")
        return fails

    return check


# ---------------------------------------------------------------------------
# the mpmath table
# ---------------------------------------------------------------------------

def mpmath_rows() -> list:
    with open(HERE / "mpmath_table.csv", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def reference_self_check() -> list:
    """The scipy reference must match the 80-digit table (where scipy is accurate)."""
    fails = []
    for row in mpmath_rows():
        pt = ref.Point(row["model"], float(row["sigma"]), float(row["alpha"]),
                       float(row["hurst"]))
        want = float(row["price"])
        got = float(ref.call_prices(pt, float(row["spot"]), float(row["rate"]),
                                    float(row["maturity"]),
                                    [float(row["strike"])])[0])
        rtol = REF_SELF_RTOL if want >= REF_SELF_FLOOR else REF_SELF_TAIL_RTOL
        if abs(got - want) > rtol * want:
            fails.append(f"reference vs mpmath at a={row['alpha']} T={row['maturity']} "
                         f"K={row['strike']}: {got!r} vs {want!r}")
    return fails


def table_ops() -> list:
    ops = []
    for row in mpmath_rows():
        key = (row["model"], float(row["alpha"]), float(row["maturity"]),
               float(row["strike"]))
        m = model(row["model"], float(row["sigma"]), key[1], float(row["hurst"]))
        env = pricing.MarketEnv(rate=float(row["rate"]), spot=float(row["spot"]))
        want = float(row["price"])
        ops.append(Op(
            "table", f"call_price vs mpmath a={row['alpha']} T={row['maturity']} K={row['strike']}",
            lambda m=m, env=env, t=key[2], k=key[3]: pricing.call_price(m, env, t, k),
            check=lambda got, want=want: [] if abs(got - want) <= MPMATH_RTOL * want
            else ["mpmath price"],
            known_fault="deep out-of-the-money price" if key == FAULT_DEEP_OTM else "",
            fault_checks=("mpmath price",), expected=want))
    return ops


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

def light_oracle(name, sigma, alpha, hurst, t, strike) -> Op:
    p = OraclePoint(name, sigma, alpha, hurst, 0.05, t, strike, with_fpe=False)
    return oracle_op(p, oracle_check(p))


def checked_sample(job: SampleJob) -> Op:
    return sample_op(job, sample_check(job))


def small_fit(name: str, truth: dict, maturities, label: str,
              recover: bool = True) -> Op:
    """A clean reference-priced chain, fitted back from one fixed start.

    ``recover`` checks the generating parameters and that the fit is no
    worse than them; it stays off for msfbs, whose sigma-H ridge stalls
    Nelder-Mead (see TRUTH_BOUND_MODELS).
    """
    rate = 0.05
    m = calibrate.build_model(name, truth)
    quotes = []
    for t in maturities:
        strikes = strike_ladder(0.3, rate, t, -1.0, 1.0, 5)
        quotes.extend(zip(strikes, [t] * 5, reference_prices(m, rate, t, strikes)))
    text = chain_csv(quotes, rate)
    cfg = calibrate.OptimizerConfig(n_starts=1, seed=0, maxiter=150,
                                    polish_maxiter=300)
    return fit_op(label, text, name, "joint", cfg,
                  fit_check(name, "joint", text, truth if recover else None, recover))


def price_surface(seed: int) -> list:
    """Pricing over the whole domain; calibrate, verify and process barely show."""
    rng = rng_for(seed, 2)
    ops = [checked_slice(s) for s in surface_slices(seed)]
    alphas = (0.9, 1.05, 1.2, 1.35, 1.5)
    for t in SURFACE_MATURITIES[::2]:
        vol = jitter(rng, 0.3)
        strike = float(strike_ladder(vol, 0.03, t, -1.0, 1.0, 3)[rng.integers(0, 3)])
        template = model("msfcev", cev_sigma(vol, 1.2, True), 1.2, 0.75)
        ops.append(curve_op(template, t, strike, alphas, (0.6, 0.85)))
    for i, (alpha, t) in enumerate(zip(SURFACE_ALPHAS, SURFACE_MATURITIES)):
        vol = jitter(rng, 0.3)
        hurst = SURFACE_HURSTS[i % len(SURFACE_HURSTS)]
        m = model("msfcev", cev_sigma(vol, alpha, True), alpha, hurst)
        ops.append(density_op(m, float(rng.uniform(0.02, 0.04)), t))
    ops.extend(table_ops())
    ops.extend(checked_sample(sample_job(seed, 3 + i, 8192, 10)) for i in range(4))
    # the short fit and oracle calls run three times a round, between parts
    # of the surface, so that their mean time covers more moments
    others = [small_fit("cev", {"sigma": 3.0, "alpha": 1.0}, (0.5,),
                        "fit cev joint one slice")]
    others.extend(light_oracle("cev", 3.0, 1.0, 0.5, 0.5, strike)
                  for strike in (90.0, 100.0, 110.0, 120.0))
    n = len(SURFACE_ALPHAS) * 3 + 3  # slices per maturity level
    third = n * len(SURFACE_MATURITIES) // 3
    return (ops[:third] + others + ops[third:2 * third] + others
            + ops[2 * third:] + others)


def curve_op(template, t: float, strike: float, alphas, hursts) -> Op:
    env = pricing.MarketEnv(rate=0.05, spot=SPOT)
    expected = []
    for a in alphas:
        for h in hursts:
            for name in ("mfcev", "msfcev"):
                pt = ref.Point(name, template.sigma, a, h)
                expected.append((a, h, name, float(ref.call_prices(
                    pt, SPOT, 0.05, t, [strike])[0])))

    def check(rows):
        if [r[:3] for r in rows] != [e[:3] for e in expected]:
            return ["row order"]
        return price_errors([r[3] for r in rows], np.array([e[3] for e in expected]))

    return Op("curve", f"price_curve T={t:.3g} K={strike:.4g}",
              lambda: pricing.price_curve(template, env, t, strike, alphas, hursts),
              items=len(expected), check=check)


def calibrate_chain(seed: int) -> list:
    """Fits dominate; every other layer is a small fixed share."""
    sample_text = SAMPLE_CHAIN.read_text(encoding="utf-8")
    chains = {name: seeded_chain(seed, 21 + i, name, truth, 5, 5)
              for i, (name, truth) in enumerate(SEEDED_TRUTHS.items())}
    # one start from a fixed point: the seed moves the data, not the path
    # the optimizer takes, which keeps the work of a fit the same across seeds
    cfg = calibrate.OptimizerConfig(n_starts=1, seed=CHAIN_CFG.seed,
                                    maxiter=CHAIN_CFG.maxiter,
                                    polish_maxiter=CHAIN_CFG.polish_maxiter)
    fits = [
        fit_op("fit msfbs joint sample chain", sample_text, "msfbs", "joint",
               CHAIN_CFG, fit_check("msfbs", "joint", sample_text, None, False)),
        fit_op("fit msfcev joint sample chain", sample_text, "msfcev", "joint",
               CHAIN_CFG, fit_check("msfcev", "joint", sample_text, SAMPLE_TRUTH,
                                    recover=True)),
    ]
    for name, truth in SEEDED_TRUTHS.items():
        bound = truth if name in TRUTH_BOUND_MODELS else None
        fits.append(fit_op(f"fit {name} joint seeded chain", chains[name], name,
                           "joint", cfg,
                           fit_check(name, "joint", chains[name], bound, False)))
    fits.append(fit_op("fit msfcev per_maturity seeded chain", chains["msfcev"],
                       "msfcev", "per_maturity", cfg,
                       fit_check("msfcev", "per_maturity", chains["msfcev"],
                                 SEEDED_TRUTHS["msfcev"], False)))
    # the other layers: the surfaces the chains were drawn from (15
    # maturities x 40 strikes each), the sample chain model's densities,
    # light oracle suites at its parameters and driver paths with its H.
    # The block runs after every fit, so each of these calls is timed
    # several times a round, at moments spread over the run.
    others = []
    generating = dict(SEEDED_TRUTHS, sample=SAMPLE_TRUTH)
    for key, truth in generating.items():
        name = "msfcev" if key == "sample" else key
        m = calibrate.build_model(name, truth)
        for t in np.linspace(0.1, 2.5, 15):
            others.append(checked_slice(Slice(m, name, 0.05, float(t),
                                              strike_ladder(0.25, 0.05, t, -4, 4, 40))))
    sample_model = calibrate.build_model("msfcev", SAMPLE_TRUTH)
    for t in (0.25, 0.5, 1.0, 1.5, 2.0):
        others.append(density_op(sample_model, 0.05, t))
    for strike in (80.0, 90.0, 100.0, 110.0, 120.0):
        others.append(light_oracle("msfcev", SAMPLE_TRUTH["sigma"], SAMPLE_TRUTH["alpha"],
                                   SAMPLE_TRUTH["hurst"], 1.0, strike))
    for i in range(4):
        others.append(checked_sample(SampleJob(tuple(np.linspace(0.0, 2.0, 11)),
                                               SAMPLE_TRUTH["hurst"], 16384,
                                               (seed + i) % 2 ** 32)))
    return [op for fit in fits for op in [fit] + others]


def verify_oracles(seed: int) -> list:
    """The oracle suite at fixed points, and a large driver sample.

    The suites and the sample are the long calls; the short ones (slices,
    densities, small fits) run twice a round, spread in even chunks between
    the long ones, so that every kind of call is timed many times and at
    moments spread over the whole run.
    """
    suites = [oracle_op(p, oracle_check(p)) for p in VERIFY_POINTS]
    short = []
    rng = rng_for(seed, 30)
    for p in VERIFY_POINTS:
        m = p.model
        for t in np.linspace(p.maturity / 12, p.maturity, 12):
            short.append(checked_slice(Slice(m, p.name, p.rate, float(t),
                                             strike_ladder(jitter(rng, 0.3), p.rate,
                                                           t, -4, 4, 40))))
        if m.family == pricing.Family.CEV:
            short.extend(density_op(m, p.rate, float(t))
                         for t in np.linspace(p.maturity / 5, p.maturity, 5))
    for hurst in (0.6, 0.75, 0.9):
        short.append(small_fit("msfbs", {"sigma": 0.3 / math.sqrt(2.0), "hurst": hurst},
                               (0.25, 1.0, 2.0), f"fit msfbs joint three slices H={hurst}",
                               recover=False))
    # all suites but the one with the Euler Monte Carlo run twice
    long = suites + [checked_sample(sample_job(seed, 31, 200_000, 20))]
    long.extend(op for op, p in zip(suites, VERIFY_POINTS) if p.name != "cev")
    short = short + short
    return [op for i, head in enumerate(long)
            for op in [head] + short[i::len(long)]]


ROUNDS = {
    "price_surface": price_surface,
    "calibrate_chain": calibrate_chain,
    "verify_oracles": verify_oracles,
}
