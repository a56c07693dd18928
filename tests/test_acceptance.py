"""Acceptance suite.

One test per criterion, each printing a pass/fail line with its runtime
(run with ``pytest tests/test_acceptance.py -v -s`` to see them live).
Tolerances and budgets are asserted as stated, never recalibrated here.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from msfcev import calibrate as cal
from msfcev.pricing import (MarketEnv, ModelSpec, black_scholes_call,
                            call_price, driver_variance, effective_variance,
                            price_curve, transition_density)
from msfcev.process import (MixedDriverParams, TimeGrid, increment_covariance,
                            msfbm_covariance, sample_msfbm)
from msfcev.verify import (FpeGrid, McConfig, effective_variance_quadrature,
                           mc_price_cev_classical, mc_price_msfbs,
                           quadrature_price, solve_fpe)

ENV = MarketEnv(rate=0.05, spot=100.0)


class Criterion:
    def __init__(self, label):
        self.label = label
        self.t0 = time.perf_counter()

    def finish(self, ok, detail, budget=None):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if ok else "FAIL"
        print(f"[acceptance] {self.label}: {status} ({elapsed:.2f}s) {detail}")
        assert ok, f"{self.label}: {detail}"
        if budget is not None:
            assert elapsed < budget, (
                f"{self.label}: runtime {elapsed:.2f}s exceeded {budget}s")


def test_criterion_1_reduction_identity():
    c = Criterion("1 reduction msfCEV(beta=1,gamma=0) == classical CEV")
    worst = 0.0
    for sigma in (0.2, 0.3):
        for alpha in (0.5, 1.0, 1.5):
            for t in (0.25, 2.0):
                msf = ModelSpec.make("msfcev", sigma=sigma, alpha=alpha,
                                     hurst=0.7, beta=1.0, gamma=0.0)
                classical = ModelSpec.make("cev", sigma=sigma, alpha=alpha)
                a = call_price(msf, ENV, t, 100.0)
                b = call_price(classical, ENV, t, 100.0)
                worst = max(worst, abs(a - b) / b)
    c.finish(worst <= 1e-10, f"worst relative gap {worst:.2e} (tol 1e-10)",
             budget=1.0)


def test_criterion_2_h_half_collapse():
    c = Criterion("2 H=1/2 collapse to classical with sigma*sqrt(2)")
    # Whittaker identity backing the collapse: M_{1/2,1}(z) reduces to
    # e^{-z/2} z^{3/2} * 2 (e^z - 1 - z)/z^2
    for z in (0.025, 0.1, 0.2):
        lhs = float(mpmath.whitm(0.5, 1.0, z))
        rhs = (math.exp(-0.5 * z) * z ** 1.5
               * 2.0 * (math.exp(z) - 1.0 - z) / z ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)
    worst = 0.0
    sigma = 0.3
    ref_sigma = sigma * math.sqrt(2.0)
    for alpha in (0.5, 1.0, 1.5):
        for t in (0.25, 2.0):
            ref = call_price(ModelSpec.make("cev", sigma=ref_sigma, alpha=alpha),
                             ENV, t, 100.0)
            for name in ("msfcev", "mfcev"):
                m = ModelSpec.make(name, sigma=sigma, alpha=alpha, hurst=0.5,
                                   beta=1.0, gamma=1.0)
                worst = max(worst, abs(call_price(m, ENV, t, 100.0) - ref) / ref)
    c.finish(worst <= 1e-8, f"worst relative gap {worst:.2e} (tol 1e-8)",
             budget=1.0)


def test_criterion_3_phi_quadrature_oracle():
    c = Criterion("3 Phi closed form vs quadrature")
    worst = 0.0
    for h in (0.55, 0.7, 0.9):
        for alpha in (0.5, 1.0, 1.5):
            for t in (0.25, 1.0, 2.0):
                for rate in (0.0, 0.05):
                    env = MarketEnv(rate=rate, spot=100.0)
                    for name in ("msfcev", "mfcev"):
                        m = ModelSpec.make(name, sigma=0.3, alpha=alpha,
                                           hurst=h, beta=1.0, gamma=1.0)
                        closed = effective_variance(m, env, t)
                        quad = effective_variance_quadrature(m, env, t)
                        worst = max(worst, abs(closed - quad) / quad)
    c.finish(worst <= 1e-9, f"worst relative gap {worst:.2e} (tol 1e-9)",
             budget=5.0)


def test_criterion_4_density_price_consistency():
    c = Criterion("4 payoff quadrature vs chi-squared price formula")
    worst = 0.0
    for alpha in (0.5, 1.0, 1.5):
        for h in (0.55, 0.7, 0.9):
            for t in (0.25, 2.0):
                m = ModelSpec.make("msfcev", sigma=0.3, alpha=alpha, hurst=h)
                quad = quadrature_price(m, ENV, t, 100.0)
                closed = call_price(m, ENV, t, 100.0)
                worst = max(worst, abs(quad - closed) / closed)
    c.finish(worst <= 1e-6, f"worst relative gap {worst:.2e} (tol 1e-6)",
             budget=30.0)


def test_criterion_5_fpe_oracle():
    c = Criterion("5 Crank-Nicolson forward equation vs closed density")
    cases = [
        (ModelSpec.make("cev", sigma=0.3, alpha=1.0), 1.0,
         FpeGrid(x_min=0.0, x_max=450.0, n_space=2400, n_time=600)),
        (ModelSpec.make("msfcev", sigma=0.3, alpha=1.5, hurst=0.7), 0.25,
         FpeGrid(x_min=0.0, x_max=14.0, n_space=1400, n_time=500)),
    ]
    worst = 0.0
    for model, t, grid in cases:
        sol = solve_fpe(model, ENV, t, grid)
        keep = sol.s > 1e-9
        closed = transition_density(model, ENV, t, sol.s[keep])
        l1 = float(np.trapezoid(np.abs(sol.density_s[keep] - closed),
                                sol.s[keep]))
        worst = max(worst, l1)
        assert sol.conservation_drift <= 1e-3
    c.finish(worst <= 1e-2, f"worst L1 distance {worst:.2e} (tol 1e-2), "
             "grids: classical 2400x600 on x<=450, msf 1400x500 on x<=14",
             budget=60.0)


def test_criterion_6_monte_carlo_oracles():
    c = Criterion("6 Monte Carlo oracles (exact msfBS, Euler classical CEV)")
    details = []
    ok = True
    for h in (0.6, 0.9):
        m = ModelSpec.make("msfbs", sigma=0.3, hurst=h)
        v = m.sigma ** 2 * driver_variance(m.driver, m.driver_params, 1.0)
        closed = black_scholes_call(100.0, 100.0, 0.05, 1.0, v)
        mc = mc_price_msfbs(m, ENV, 1.0, 100.0,
                            McConfig(n_paths=10 ** 6, seed=60))
        z = abs(mc.price - closed) / mc.se
        details.append(f"msfBS H={h}: z={z:.2f}")
        ok &= z <= 3.0
    m = ModelSpec.make("cev", sigma=3.0, alpha=1.0)
    closed = call_price(m, ENV, 1.0, 100.0)
    mc = mc_price_cev_classical(m, ENV, 1.0, 100.0,
                                McConfig(n_paths=10 ** 5, n_steps=400, seed=61))
    z = abs(mc.price - closed) / mc.se
    details.append(f"Euler CEV: z={z:.2f}")
    ok &= z <= 3.0
    c.finish(ok, "; ".join(details) + " (all |z| <= 3)", budget=120.0)


ALPHA_GRID = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 1.99]


def _curves(t):
    template = ModelSpec.make("msfcev", sigma=0.3, alpha=1.0, hurst=0.7)
    rows = price_curve(template, ENV, t, 100.0, ALPHA_GRID, [0.5, 0.7, 0.9])
    return {(a, h, d): p for a, h, d, p in rows}


def test_criterion_7i_subfractional_below_fractional():
    c = Criterion("7(i) msfCEV < mfCEV pointwise (H in {0.7, 0.9})")
    violations = []
    for t in (0.25, 2.0):
        table = _curves(t)
        for h in (0.7, 0.9):
            for a in ALPHA_GRID:
                msf = table[(a, h, "msfcev")]
                mf = table[(a, h, "mfcev")]
                if not msf < mf:
                    violations.append(f"T={t} H={h} alpha={a} "
                                      f"(msf={msf!r}, mf={mf!r})")
    # Known limitation: at (T=2, alpha in {0, 0.25}) the options are 9-18
    # terminal standard deviations in the money and the true gap
    # (~1e-18..1e-59) lies below one ulp of the ~9.52 price, so both
    # models round to the same float64 and the strict inequality cannot
    # hold.  See the project notes for the full analysis.
    c.finish(not violations,
             f"{len(violations)} grid points tie at float64 resolution: "
             + "; ".join(violations) if violations else
             "strict ordering holds at all 36 grid points", budget=10.0)


def test_criterion_7ii_h_half_equality():
    c = Criterion("7(ii) equality of drivers at H=0.5")
    worst = 0.0
    for t in (0.25, 2.0):
        table = _curves(t)
        for a in ALPHA_GRID:
            msf = table[(a, 0.5, "msfcev")]
            mf = table[(a, 0.5, "mfcev")]
            worst = max(worst, abs(msf - mf) / mf)
    c.finish(worst <= 1e-8, f"worst relative gap {worst:.2e} (tol 1e-8)",
             budget=10.0)


def test_criterion_7iii_bs_limit():
    c = Criterion("7(iii) alpha=1.999 CEV within 0.1% of matched BS")
    alpha = 1.999
    scale = 100.0 ** (alpha / 2.0 - 1.0)  # matched volatility scale
    worst = 0.0
    for t in (0.25, 2.0):
        for h in (0.7, 0.9):
            for cev_name, bs_name in (("msfcev", "msfbs"), ("mfcev", "mfbs")):
                cev = call_price(ModelSpec.make(cev_name, sigma=0.3,
                                                alpha=alpha, hurst=h),
                                 ENV, t, 100.0)
                bs = call_price(ModelSpec.make(bs_name, sigma=0.3 * scale,
                                               hurst=h), ENV, t, 100.0)
                worst = max(worst, abs(cev - bs) / bs)
    c.finish(worst <= 1e-3, f"worst relative gap {worst:.2e} (tol 1e-3)",
             budget=10.0)


def test_criterion_8_process_statistics():
    c = Criterion("8 sample moments of exact msfBm paths")
    n = 10 ** 5
    grid = TimeGrid([0.0, 1.0, 2.0])
    ok = True
    details = []
    for h in (0.7, 0.9):
        p = MixedDriverParams(hurst=h, beta=1.0, gamma=1.0)
        batch = sample_msfbm(grid, p, n, seed=80 + int(10 * h))
        m1, m2 = batch.paths[:, 1], batch.paths[:, 2]
        for (s, t, xs, ys) in ((1.0, 1.0, m1, m1), (1.0, 2.0, m1, m2),
                               (2.0, 2.0, m2, m2)):
            sample = float(np.mean(xs * ys))
            closed = msfbm_covariance(s, t, p)
            se = math.sqrt((msfbm_covariance(s, t, p) ** 2
                            + msfbm_covariance(s, s, p)
                            * msfbm_covariance(t, t, p)) / n)
            z = abs(sample - closed) / se
            ok &= z <= 3.0
            details.append(f"H={h} cov({s:g},{t:g}) z={z:.2f}")
        # increment covariance sign (positively correlated for H > 1/2)
        inc_sample = float(np.mean(m1 * (m2 - m1)))
        inc_closed = increment_covariance(0.0, 1.0, 1.0, 2.0, p)
        ok &= inc_closed > 0.0 and inc_sample > 0.0
    c.finish(ok, "; ".join(details) + "; increment covariance positive",
             budget=60.0)


FULL_CFG = cal.OptimizerConfig(n_starts=8, seed=900, maxiter=400,
                               polish_maxiter=1500)
NOISY_CFG = cal.OptimizerConfig(n_starts=2, seed=901, maxiter=200,
                                polish_maxiter=400)
MATURITIES = (0.25, 0.5, 1.0, 1.5, 2.0)


def test_criterion_9_calibration_recovery():
    c = Criterion("9 synthetic calibration recovery")
    truth = ModelSpec.make("msfcev", sigma=0.3, alpha=1.2, hurst=0.75)
    clean = cal.synthetic_chain(truth, ENV, MATURITIES)
    report = cal.fit(clean, "msfcev", "joint", FULL_CFG)
    sigma_err = abs(report.fitted["joint"]["sigma"] - 0.3) / 0.3
    ok = report.total_mse <= 1e-6 and sigma_err <= 0.02
    noise_sd = 0.05
    floor = noise_sd ** 2
    mses = []
    for rep in range(20):
        noisy = cal.synthetic_chain(truth, ENV, MATURITIES, noise=noise_sd,
                                    seed=7000 + rep)
        mses.append(cal.fit(noisy, "msfcev", "joint", NOISY_CFG).total_mse)
    mean_mse = float(np.mean(mses))
    # the 1.2x floor bound is a statistical statement; it is asserted on
    # the mean over the 20 seeds (a single seed's MSE is ~ chi-squared
    # with 47 dof scaled, exceeding 1.2x with ~9% probability by design)
    ok &= mean_mse <= 1.2 * floor
    ok &= max(mses) <= 2.0 * floor
    c.finish(ok, f"clean MSE={report.total_mse:.2e}, sigma err={sigma_err:.2%}, "
             f"noisy mean MSE={mean_mse:.4f} (floor {floor}, bound "
             f"{1.2 * floor}), max {max(mses):.4f}", budget=300.0)


def test_criterion_10_model_ordering_on_synthetic_data():
    c = Criterion("10 joint-fit MSE ordering msfCEV < CEV < BS")
    # H = 0.9 chain with realistic vol level (~16% at the money) and wide
    # strike coverage, so the elasticity skew carries real signal: the
    # classical CEV then beats BS structurally while only the
    # sub-fractional driver captures the maturity structure
    truth = ModelSpec.make("msfcev", sigma=2.5, alpha=0.8, hurst=0.9)
    chain = cal.synthetic_chain(truth, ENV, MATURITIES, width=2.5)
    rows = cal.compare_models(chain, ["msfcev", "cev", "bs"], "joint", FULL_CFG)
    mse = {r.model: r.total_mse for r in rows}
    ok = (not any(r.failed for r in rows)
          and mse["msfcev"] < mse["cev"] < mse["bs"])
    c.finish(ok, f"msfcev={mse['msfcev']:.2e} < cev={mse['cev']:.2e} "
             f"< bs={mse['bs']:.2e}", budget=300.0)
