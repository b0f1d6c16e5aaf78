"""Analysis utilities: model fitting, wearout statistics, reporting.

Support code shared by the examples and the benchmark harness:

* :mod:`~repro.analysis.fitting` -- power-law and Arrhenius fits used
  to extract compact-model coefficients from simulated (or measured)
  traces, plus lognormal TTF fitting for EM populations.
* :mod:`~repro.analysis.stats` -- summary statistics over wearout
  populations (percentiles, failure fractions, Monte Carlo TTF).
* :mod:`~repro.analysis.reporting` -- plain-text tables matching the
  rows/series the paper's tables and figures report.
* :mod:`~repro.analysis.sensitivity` -- one-at-a-time parameter
  sensitivity and tornado rows.

The re-exported names resolve on first access (PEP 562), so importing
one submodule -- the CLI needs only ``reporting`` -- does not load the
others or what they import (``sensitivity`` pulls in
:mod:`repro.solvers` and ``scipy.linalg``).
"""

import importlib

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "SensitivityResult": "sensitivity",
    "one_at_a_time": "sensitivity",
    "tornado_rows": "sensitivity",
    "ArrheniusFit": "fitting",
    "PowerLawFit": "fitting",
    "LognormalFit": "fitting",
    "fit_arrhenius": "fitting",
    "fit_power_law": "fitting",
    "fit_lognormal_ttf": "fitting",
    "failure_fraction": "stats",
    "population_percentiles": "stats",
    "monte_carlo_ttf": "stats",
    "format_table": "reporting",
    "format_series": "reporting",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
