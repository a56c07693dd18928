import csv
import pathlib

import pytest

from msfcev import calibrate as cal
from msfcev import pricing


@pytest.fixture(scope="session")
def mpmath_table_rows():
    """Rows of the benchmark's 80-digit price table (perfbench/mpmath_table.csv)."""
    path = (pathlib.Path(__file__).resolve().parent.parent / "perfbench"
            / "mpmath_table.csv")
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="session")
def env100():
    return pricing.MarketEnv(rate=0.05, spot=100.0)


@pytest.fixture(scope="session")
def msfcev_chain(env100):
    """Noise-free 5 x 10 chain generated by msfCEV(0.3, 1.2, 0.75)."""
    model = pricing.ModelSpec.make("msfcev", sigma=0.3, alpha=1.2, hurst=0.75)
    return cal.synthetic_chain(model, env100, (0.25, 0.5, 1.0, 1.5, 2.0))


@pytest.fixture(scope="session")
def small_chain(env100):
    """Quick 2 x 5 chain for optimizer unit tests."""
    model = pricing.ModelSpec.make("msfcev", sigma=0.3, alpha=1.2, hurst=0.75)
    return cal.synthetic_chain(model, env100, (0.5, 1.0), n_strikes=5)


def rel_err(a, b):
    return abs(a - b) / abs(b)


@pytest.fixture(scope="session")
def quick_optimizer():
    return cal.OptimizerConfig(n_starts=2, seed=7, maxiter=80,
                               polish_maxiter=250)
