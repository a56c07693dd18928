"""End-to-end calibration workflow on a synthetic chain.

Generates the repository's sample chain (an msfCEV surface, 5 maturities
by 10 strikes), writes it as ChainCsv, fits the model back jointly and
per maturity, and compares the six-model catalog on it.  Everything is
seeded and reproducible.
"""

import pathlib

from msfcev import calibrate as cal
from msfcev.pricing import MarketEnv, ModelSpec

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"

env = MarketEnv(rate=0.05, spot=100.0)
# 15.8% at-the-money volatility with a pronounced elasticity skew
truth = ModelSpec.make("msfcev", sigma=2.5, alpha=0.8, hurst=0.75)
chain = cal.synthetic_chain(truth, env, (0.25, 0.5, 1.0, 1.5, 2.0),
                            width=2.5, quote_date="2024-01-02")
target = DATA / "sample_chain.csv"
cal.write_chain_csv(chain, str(target))
print(f"wrote {len(chain.quotes)} quotes to {target}")

chain = cal.load_chain(str(target), moneyness_filter=True)
print(f"reloaded {len(chain.quotes)} quotes "
      "(moneyness filter keeps strikes >= 95% of spot)")

cfg = cal.OptimizerConfig(seed=42)  # one start, solved from the clock term structure
print()
print("joint fit of msfcev (true parameters sigma=2.5, alpha=0.8, H=0.75):")
report = cal.fit(chain, "msfcev", "joint", cfg)
for name, value in report.fitted["joint"].items():
    print(f"   {name:6s} = {value:.6f}")
print(f"   total MSE = {report.total_mse:.3e}, "
      f"iterations = {report.iterations}, converged = {report.converged}")

print()
print("per-maturity fit (sigma by maturity):")
per = cal.fit(chain, "msfcev", "per_maturity", cfg)
for key in sorted(per.fitted):
    print(f"   T = {key}: sigma = {per.fitted[key]['sigma']:.4f}, "
          f"MSE = {per.mse_per_maturity[key]:.2e}")

print()
print("model comparison (joint mode):")
rows = cal.compare_models(chain, ["bs", "mfbs", "msfbs", "cev", "mfcev",
                                  "msfcev"], "joint", cfg)
for row in sorted(rows, key=lambda r: r.total_mse):
    print(f"   {row.model:7s} total MSE = {row.total_mse:.3e}")
