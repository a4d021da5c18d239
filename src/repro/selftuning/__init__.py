"""Self-tuning DNN architecture (paper Sec. III).

A trained QAVAT model is wrapped with tuning modules that measure the
correlated (between-chip) component of variation at inference time and
correct each layer's MVM outputs in the digital domain:

* :class:`~repro.selftuning.gtm.GlobalTuningModule` — one per chip;
  estimates ``eps_B`` from a reference crossbar column.
* :class:`~repro.selftuning.ltm.LayerTuningModule` — one (or more columns)
  per layer; estimates the per-output-position input-activation sums needed
  under the layer-fixed variance model.
* :class:`~repro.selftuning.tuner.SelfTuner` — applies the correction that
  matches the variance model ("global" for weight-proportional, "layer" for
  layer-fixed); applying the wrong one reproduces the destructive
  "QAVAT + Wrong ST" rows of Fig. 6 / Table II.
"""

from repro.selftuning.gtm import GlobalTuningModule
from repro.selftuning.ltm import LayerTuningModule
from repro.selftuning.tuner import SelfTuner, SelfTuningConfig, correct_kind_for
from repro.selftuning.wrap import attach_self_tuning, detach_self_tuning
from repro.selftuning.overhead import (
    area_overhead,
    gtm_area_overhead,
    model_flops,
)
from repro.selftuning.analysis import (
    check_st_matches_variance_model,
    correction_gain_db,
    gtm_cells_for_target,
    gtm_standard_error,
    ltm_columns_for_target,
    ltm_measurement_noise_std,
    residual_epsilon_std,
    size_quality_table,
)
from repro.selftuning.driftcomp import DriftCompensator, run_drift_timeline

__all__ = [
    "GlobalTuningModule",
    "LayerTuningModule",
    "SelfTuner",
    "SelfTuningConfig",
    "correct_kind_for",
    "attach_self_tuning",
    "detach_self_tuning",
    "area_overhead",
    "gtm_area_overhead",
    "model_flops",
    "gtm_standard_error",
    "gtm_cells_for_target",
    "residual_epsilon_std",
    "correction_gain_db",
    "ltm_measurement_noise_std",
    "ltm_columns_for_target",
    "check_st_matches_variance_model",
    "size_quality_table",
    "DriftCompensator",
    "run_drift_timeline",
]
