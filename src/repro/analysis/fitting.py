"""Curve fits for wearout data: power law, Arrhenius, lognormal TTF.

These are the standard reductions used throughout the reliability
literature (and by the paper's own compact models): degradation vs
time is summarized by ``A * t^n``, temperature dependence by an
activation energy, and EM failure-time populations by a lognormal
(median TTF + sigma).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import units
from repro.errors import CalibrationError


@dataclass(frozen=True)
class PowerLawFit:
    """``y = prefactor * t^exponent`` fitted in log-log space.

    Attributes:
        prefactor: the coefficient ``A``.
        exponent: the exponent ``n``.
        r_squared: goodness of fit in log space.
    """

    prefactor: float
    exponent: float
    r_squared: float

    def predict(self, t: float) -> float:
        """Evaluate the fitted law."""
        if t <= 0.0:
            raise ValueError("t must be positive")
        return self.prefactor * t ** self.exponent


def fit_power_law(times: Sequence[float],
                  values: Sequence[float]) -> PowerLawFit:
    """Least-squares power-law fit (both inputs must be positive)."""
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.shape != y.shape or t.size < 2:
        raise CalibrationError("need at least two matching samples")
    if np.any(t <= 0.0) or np.any(y <= 0.0):
        raise CalibrationError("power-law fit needs positive data")
    log_t, log_y = np.log(t), np.log(y)
    exponent, intercept = np.polyfit(log_t, log_y, 1)
    predicted = exponent * log_t + intercept
    residual = np.sum((log_y - predicted) ** 2)
    total = np.sum((log_y - log_y.mean()) ** 2)
    r_squared = 1.0 - residual / total if total > 0.0 else 1.0
    return PowerLawFit(prefactor=float(np.exp(intercept)),
                       exponent=float(exponent),
                       r_squared=float(r_squared))


@dataclass(frozen=True)
class ArrheniusFit:
    """``rate = prefactor * exp(-Ea / kT)`` fitted in log space.

    Attributes:
        prefactor: the coefficient.
        activation_energy_ev: the fitted ``Ea``.
        r_squared: goodness of fit in log space.
    """

    prefactor: float
    activation_energy_ev: float
    r_squared: float

    def predict(self, temperature_k: float) -> float:
        """Evaluate the fitted law."""
        if temperature_k <= 0.0:
            raise ValueError("temperature must be positive")
        return self.prefactor * np.exp(
            -self.activation_energy_ev
            / (units.BOLTZMANN_EV * temperature_k))


def fit_arrhenius(temperatures_k: Sequence[float],
                  rates: Sequence[float]) -> ArrheniusFit:
    """Least-squares Arrhenius fit (rates must be positive)."""
    temp = np.asarray(temperatures_k, dtype=float)
    rate = np.asarray(rates, dtype=float)
    if temp.shape != rate.shape or temp.size < 2:
        raise CalibrationError("need at least two matching samples")
    if np.any(temp <= 0.0) or np.any(rate <= 0.0):
        raise CalibrationError("Arrhenius fit needs positive data")
    x = 1.0 / (units.BOLTZMANN_EV * temp)
    y = np.log(rate)
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    residual = np.sum((y - predicted) ** 2)
    total = np.sum((y - y.mean()) ** 2)
    r_squared = 1.0 - residual / total if total > 0.0 else 1.0
    return ArrheniusFit(prefactor=float(np.exp(intercept)),
                        activation_energy_ev=float(-slope),
                        r_squared=float(r_squared))


@dataclass(frozen=True)
class LognormalFit:
    """Lognormal TTF population summary.

    Attributes:
        median_s: the lognormal median (t50).
        sigma: the log-space standard deviation.
    """

    median_s: float
    sigma: float

    def quantile(self, fraction: float) -> float:
        """TTF below which ``fraction`` of the population fails."""
        from scipy.special import ndtri
        if not 0.0 < fraction < 1.0:
            raise ValueError("fraction must be in (0, 1)")
        return float(self.median_s
                     * np.exp(self.sigma * ndtri(fraction)))


def fit_lognormal_ttf(ttfs_s: Sequence[float]) -> LognormalFit:
    """Fit a lognormal to a population of failure times."""
    ttf = np.asarray(ttfs_s, dtype=float)
    if ttf.size < 2:
        raise CalibrationError("need at least two failure times")
    if np.any(ttf <= 0.0):
        raise CalibrationError("failure times must be positive")
    logs = np.log(ttf)
    return LognormalFit(median_s=float(np.exp(logs.mean())),
                        sigma=float(logs.std(ddof=1)))
