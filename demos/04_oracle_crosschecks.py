"""Cross-check the closed forms against every independent oracle.

Four routes to the same numbers:
  1. effective variance: closed form vs adaptive quadrature of its
     defining integral;
  2. call price: chi-squared formula vs quadrature of the discounted
     payoff against the transition density;
  3. terminal density: closed form vs a Crank-Nicolson solve of the
     forward equation;
  4. price again: closed form vs Monte Carlo (exact sampling for the BS
     family, Euler for the classical CEV).
"""

import numpy as np

from msfcev.pricing import (MarketEnv, ModelSpec, black_scholes_call,
                            call_price, driver_variance, effective_variance,
                            transition_density)
from msfcev.verify import (FpeGrid, McConfig, effective_variance_quadrature,
                           mc_price_cev_classical, mc_price_msfbs,
                           quadrature_price, solve_fpe)

env = MarketEnv(rate=0.05, spot=100.0)
model = ModelSpec.make("msfcev", sigma=0.3, alpha=1.2, hurst=0.75)

print("1) effective variance Phi(T), closed vs quadrature")
for t in (0.25, 1.0, 2.0):
    closed = effective_variance(model, env, t)
    quad = effective_variance_quadrature(model, env, t)
    print(f"   T = {t}: closed = {closed:.10e}, "
          f"rel gap = {abs(closed - quad) / quad:.2e}")

print()
print("2) price, chi-squared formula vs payoff quadrature")
for strike in (90.0, 100.0, 115.0):
    a = call_price(model, env, 1.0, strike)
    b = quadrature_price(model, env, 1.0, strike)
    print(f"   E = {strike:5.1f}: formula = {a:.8f}, "
          f"rel gap = {abs(a - b) / b:.2e}")

print()
print("3) forward-equation solve vs closed density (L1 distance)")
fpe_model = ModelSpec.make("msfcev", sigma=0.3, alpha=1.5, hurst=0.7)
sol = solve_fpe(fpe_model, env, 0.25,
                FpeGrid(x_min=0.0, x_max=14.0, n_space=1400, n_time=500))
keep = sol.s > 1e-9
closed = transition_density(fpe_model, env, 0.25, sol.s[keep])
l1 = float(np.trapezoid(np.abs(sol.density_s[keep] - closed), sol.s[keep]))
print(f"   L1 = {l1:.2e}   (mass {sol.mass:.6f}, absorbed {sol.absorbed:.2e})")

print()
print("4) Monte Carlo")
bs_model = ModelSpec.make("msfbs", sigma=0.3, hurst=0.7)
v = bs_model.sigma ** 2 * driver_variance(bs_model.driver,
                                          bs_model.driver_params, 1.0)
closed = black_scholes_call(100.0, 100.0, 0.05, 1.0, v)
mc = mc_price_msfbs(bs_model, env, 1.0, 100.0,
                    McConfig(n_paths=500_000, seed=17))
print(f"   msfBS exact sampling: closed = {closed:.5f}, "
      f"mc = {mc.price:.5f} +- {mc.se:.5f}, |z| = "
      f"{abs(mc.price - closed) / mc.se:.2f}")
cev_model = ModelSpec.make("cev", sigma=3.0, alpha=1.0)
closed = call_price(cev_model, env, 1.0, 100.0)
mc = mc_price_cev_classical(cev_model, env, 1.0, 100.0,
                            McConfig(n_paths=100_000, n_steps=400, seed=18))
print(f"   classical CEV Euler:  closed = {closed:.5f}, "
      f"mc = {mc.price:.5f} +- {mc.se:.5f}, |z| = "
      f"{abs(mc.price - closed) / mc.se:.2f}")
