"""Geometry-aware stochastic optimization with noise-adaptive layer-wise rates.

Submodules:

* :mod:`lanton.checks`      typed config value checks, ConfigError
* :mod:`lanton.linalg`      dense float64 kernels (Frobenius norm, LAPACK singular values)
* :mod:`lanton.norms`       per-group primal and dual norms
* :mod:`lanton.lmo`         linear minimization oracles, Newton-Schulz and exact polar
* :mod:`lanton.optimizer`   the adaptive optimizer and reference baselines
* :mod:`lanton.tasks`       synthetic noise-controlled objectives
* :mod:`lanton.diagnostics` tracker/ratio bound checks on telemetry
* :mod:`lanton.harness`     config-driven runs, CSV metrics, comparisons
* :mod:`lanton.cli`         the `lanton` command
"""

__version__ = "0.1.0"
