"""Shrinkage estimation of the Weibull shape parameter under type-II censoring.

The library works in the pivotal parameterization: for a censored sample of the
m smallest of n lifetimes, the statistic t = h * b_hat is treated as a scaled
chi-square with h degrees of freedom, so every estimator and every risk formula
is a function of (h, t) plus the prior guess interval (beta1, beta2).

Modules:
    model       -- validated value types and the one copy of each input rule
    specfun     -- regularized lower incomplete gamma and its downward recurrence
    estimators  -- point estimators of the shape parameter
    risk        -- exact relative bias / relative MSE / efficiency formulas
    montecarlo  -- seeded simulation of a model.SimulationPlan: empirical risk,
                   calibration constants
    writers     -- generic CSV/JSON writers and the encoding of a range
    tables      -- efficiency table grids, their cell writers, reference audit
    cli         -- command line front end
"""

from weibull_shrink.model import (
    CensoredSample,
    GuessInterval,
    PivotalContext,
    RiskReport,
    ShrinkageConfig,
    WeibullParams,
)

__version__ = "0.11.0"

__all__ = [
    "CensoredSample",
    "GuessInterval",
    "PivotalContext",
    "RiskReport",
    "ShrinkageConfig",
    "WeibullParams",
    "__version__",
]
