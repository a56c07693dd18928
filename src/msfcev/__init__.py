"""Option pricing under CEV dynamics driven by mixed (sub-)fractional noise.

Library layout:

* :mod:`msfcev.specfun`   -- special-function kernel (scaled Bessel I,
  non-central chi-squared tails);
* :mod:`msfcev.process`   -- driver covariances and exact path sampling;
* :mod:`msfcev.pricing`   -- effective variance (Kummer M from
  ``scipy.special.hyp1f1``), transition density and closed-form call
  prices for the six-model catalog, one option chain per call;
* :mod:`msfcev.verify`    -- independent oracles (forward-equation solver,
  Monte Carlo, payoff and effective-variance quadrature) and the
  ``msfcev verify`` suite with its tolerances, ``run_checks``;
* :mod:`msfcev.calibrate` -- MSE fitting of option chains;
* :mod:`msfcev.cli`       -- command-line front end.
"""

from .errors import (CalibrationError, ChainFormatError, DomainError,
                     NumericalError)
from .pricing import (Driver, Family, MarketEnv, ModelSpec, call_price,
                      call_prices, chain_prices, diffusion_kernel,
                      effective_variance, price_curve, transition_density)
from .process import MixedDriverParams, PathBatch, TimeGrid, sample_msfbm

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CalibrationError",
    "ChainFormatError",
    "DomainError",
    "NumericalError",
    "Driver",
    "Family",
    "MarketEnv",
    "ModelSpec",
    "MixedDriverParams",
    "PathBatch",
    "TimeGrid",
    "call_price",
    "call_prices",
    "chain_prices",
    "diffusion_kernel",
    "effective_variance",
    "price_curve",
    "sample_msfbm",
    "transition_density",
]
