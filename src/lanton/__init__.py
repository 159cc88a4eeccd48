"""Geometry-aware stochastic optimization with noise-adaptive layer-wise rates.

Submodules:

* :mod:`lanton.checks`      typed config value checks, ConfigError
* :mod:`lanton.linalg`      dense float64 kernels (Frobenius norm, Jacobi SVD)
* :mod:`lanton.norms`       per-group primal and dual norms
* :mod:`lanton.lmo`         linear minimization oracles, Newton-Schulz polar
* :mod:`lanton.optimizer`   the adaptive optimizer and reference baselines
* :mod:`lanton.tasks`       synthetic noise-controlled objectives
* :mod:`lanton.diagnostics` tracker/ratio bound checks on telemetry
* :mod:`lanton.harness`     config-driven runs, CSV metrics, comparisons
* :mod:`lanton.cli`         the `lanton` command
"""

from .linalg import SvdResult, frobenius_norm, jacobi_svd
from .norms import Group, dual_norm, nuclear_norm, primal_norm, rms_norm
from .lmo import lmo, newton_schulz, polar_exact
from .optimizer import (
    LantonConfig,
    LantonState,
    LayerSpec,
    alpha_and_ratio,
    baseline_step,
    cosine_schedule_lr,
    init_state,
    lanton_step,
    update_noise_tracker,
)
from .tasks import (
    MlpTask,
    NoiseProfile,
    QuadraticTask,
    gen_dataset,
    mlp_value_grad,
    quadratic_value_grad,
    sample_dual_noise,
    stochastic_grad,
)
from .diagnostics import (
    BoundParams,
    alpha_ratio_envelope,
    h_bounds_check,
    noise_range_estimate,
    rank_correlation,
)
from .harness import (
    ExperimentConfig,
    RunRecord,
    compare_runs,
    emit_metrics,
    parse_config,
    run_experiment,
)

__version__ = "0.1.0"
