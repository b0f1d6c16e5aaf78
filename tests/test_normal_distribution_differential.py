"""Differential test of the normal-distribution call sites.

The library evaluates the standard normal CDF and quantile through the
``scipy.special`` ufuncs ``ndtr`` and ``ndtri``, which keeps
``scipy.stats`` (about a second of import) off its import path.  The
reference here is independent of that choice: each public result is
recomputed from its formula with ``scipy.stats.norm`` (and, for the
chip quantile, ``scipy.optimize.brentq``) and compared by exact float
``repr``, so ``-0.0`` and ``inf`` must match too.

The tier-1 run uses a small derandomized budget; CI reruns the file
under ``--hypothesis-profile=deep`` (registered in
``tests/conftest.py``).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri
from scipy.stats import norm

from repro.analysis.fitting import LognormalFit
from repro.bti.variability import BtiVariabilityModel
from repro.em.statistics import WirePopulationSpec
from repro.errors import SimulationError


def _differential_settings() -> settings:
    """A fixed tier-1 budget, or the ``deep`` profile when it is loaded."""
    deep = settings.get_profile("deep")
    if settings.default is deep:
        return deep
    return settings(max_examples=200, derandomize=True, deadline=None)


#: Probabilities in the open unit interval, subnormals included.
fractions = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
              exclude_max=True),
    st.sampled_from((5e-324, 1e-300, 1e-12, 0.5, 1.0 - 1e-12,
                     1.0 - 2.0 ** -53)))

populations = st.builds(
    WirePopulationSpec,
    n_wires=st.integers(1, 10 ** 6),
    median_ttf_s=st.floats(1e-3, 1e12),
    sigma=st.floats(0.01, 3.0))


def _same(got, expected):
    assert repr(got) == repr(expected), (got, expected)


def _wire_cdf(spec, time_s):
    ratio = time_s / spec.median_ttf_s
    z = (math.log(ratio) if ratio > 0.0 else -math.inf) / spec.sigma
    return float(norm.cdf(z))


def _wire_quantile(spec, fraction):
    return spec.median_ttf_s * math.exp(
        spec.sigma * float(norm.ppf(fraction)))


def _chip_quantile(spec, fraction, tolerance):
    def chip_cdf(time_s):
        survival = 1.0 - _wire_cdf(spec, time_s)
        if survival <= 0.0:
            return 1.0
        return 1.0 - math.exp(spec.n_wires * math.log(survival))

    low_q = min(1e-12, max(fraction / spec.n_wires * 1e-3, 1e-300))
    low = _wire_quantile(spec, low_q)
    high = _wire_quantile(spec, 1.0 - 1e-12)

    def excess(log_time):
        return chip_cdf(math.exp(log_time)) - fraction

    log_low, log_high = math.log(low), math.log(high)
    if excess(log_low) >= 0.0:
        return low
    if excess(log_high) <= 0.0:
        return high
    return math.exp(brentq(excess, log_low, log_high,
                           xtol=math.log1p(tolerance)))


@_differential_settings()
@given(spec=populations,
       time_s=st.one_of(st.just(0.0), st.floats(0.0, 1e16)))
def test_wire_failure_probability_matches_scipy_stats(spec, time_s):
    _same(spec.wire_failure_probability(time_s), _wire_cdf(spec, time_s))


@_differential_settings()
@given(spec=populations, fraction=fractions)
def test_wire_quantile_matches_scipy_stats(spec, fraction):
    _same(spec.wire_quantile(fraction), _wire_quantile(spec, fraction))


@_differential_settings()
@given(spec=populations, fraction=fractions,
       tolerance=st.sampled_from((1e-6, 1e-9, 1e-3)))
def test_chip_quantile_matches_scipy_stats(spec, fraction, tolerance):
    _same(spec.chip_quantile(fraction, tolerance),
          _chip_quantile(spec, fraction, tolerance))


@_differential_settings()
@given(per_trap_impact_v=st.floats(1e-6, 1e-1),
       mean_shift_v=st.floats(0.0, 1.0), fraction=fractions)
def test_bti_quantile_matches_scipy_stats(per_trap_impact_v,
                                          mean_shift_v, fraction):
    model = BtiVariabilityModel(per_trap_impact_v=per_trap_impact_v)
    count = mean_shift_v / per_trap_impact_v
    std = math.sqrt(2.0 * count) * per_trap_impact_v
    expected = max(mean_shift_v + float(norm.ppf(fraction)) * std, 0.0)
    _same(model.quantile_v(mean_shift_v, fraction), expected)


@_differential_settings()
@given(median_s=st.floats(1e-3, 1e12), sigma=st.floats(0.0, 5.0),
       fraction=fractions)
def test_lognormal_fit_quantile_matches_scipy_stats(median_s, sigma,
                                                    fraction):
    expected = float(median_s * np.exp(sigma * norm.ppf(fraction)))
    _same(LognormalFit(median_s=median_s, sigma=sigma).quantile(fraction),
          expected)


def test_wire_failure_probability_of_an_underflowing_time_is_zero():
    # 2.2e-313 / 9e10 underflows to 0.0; taking its log used to raise
    # "math domain error" instead of returning the CDF's limit.
    spec = WirePopulationSpec(n_wires=1, median_ttf_s=90071992548.0,
                              sigma=1.0)
    _same(spec.wire_failure_probability(2.2250738585e-313), 0.0)


def test_ufuncs_equal_scipy_stats_on_edge_inputs():
    z = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300,
                  8.2, -8.2, 37.5, -37.5, 40.0, -40.0])
    q = np.array([0.0, 1.0, 5e-324, 1e-300, 1e-16, 0.5,
                  1.0 - 1e-16, 1.0 - 2.0 ** -53])
    assert ndtr(z).tobytes() == norm.cdf(z).tobytes()
    assert ndtri(q).tobytes() == norm.ppf(q).tobytes()
    for value in z:
        _same(float(ndtr(value)), float(norm.cdf(value)))
    for value in q:
        _same(float(ndtri(value)), float(norm.ppf(value)))
    # ndtri(nan) is a NaN with the sign bit set where norm.ppf returns
    # the positive one.  No caller can reach it: each rejects a NaN
    # fraction first, as it rejects any fraction outside (0, 1).
    assert np.isnan(ndtri(np.nan)) and np.isnan(norm.ppf(np.nan))
    spec = WirePopulationSpec(n_wires=4, median_ttf_s=1e8, sigma=0.4)
    for quantile in (spec.wire_quantile, spec.chip_quantile,
                     lambda f: BtiVariabilityModel().quantile_v(1e-2, f)):
        with pytest.raises(SimulationError):
            quantile(math.nan)
    with pytest.raises(ValueError):
        LognormalFit(median_s=1e8, sigma=0.4).quantile(math.nan)
