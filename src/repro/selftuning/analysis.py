"""Closed-form estimator statistics for sizing self-tuning modules.

Fig. 7b explores the GTM/LTM size-quality trade-off empirically; this
module gives the matching analytic quantities so a designer can size the
modules without a Monte Carlo sweep:

* the GTM estimate of ``eps_B`` averages ``n`` cells whose fabrication
  noise has std ``sigma_W``, so its standard error is ``sigma_W / sqrt(n)``;
* an LTM column measuring ``sum_j x_j`` carries per-cell noise
  ``eps_{W,j} * W_max``, so the measurement noise std for input vector
  ``x`` is ``sigma_W * W_max * ||x||_2 / sqrt(columns)``.

These formulas are cross-validated against the simulated modules in the
test suite.
"""

from __future__ import annotations

import math

from repro.selftuning.tuner import SelfTuningConfig, correct_kind_for


def gtm_standard_error(sigma_within: float, gtm_cells: int) -> float:
    """Standard error of the GTM's eps_B estimate."""
    if gtm_cells < 1:
        raise ValueError("need at least one GTM cell")
    return sigma_within / math.sqrt(gtm_cells)


def gtm_cells_for_target(sigma_within: float, target_error: float) -> int:
    """Smallest GTM size whose standard error is at most ``target_error``."""
    if target_error <= 0.0:
        raise ValueError("target_error must be positive")
    if sigma_within == 0.0:
        return 1
    return max(1, math.ceil((sigma_within / target_error) ** 2))


def residual_epsilon_std(sigma_within: float, gtm_cells: int) -> float:
    """Std of the *residual* correlated error after GTM correction.

    Without correction the correlated error is ``sigma_B``; with it, the
    residual is the GTM estimation error, ``sigma_W / sqrt(n)`` —
    independent of ``sigma_B``.  This is why self-tuning keeps working at
    arbitrarily large between-chip variation (Table II).
    """
    return gtm_standard_error(sigma_within, gtm_cells)


def correction_gain_db(sigma_between: float, sigma_within: float, gtm_cells: int) -> float:
    """Suppression of correlated error by the GTM correction, in dB."""
    residual = residual_epsilon_std(sigma_within, gtm_cells)
    if residual == 0.0:
        return math.inf
    if sigma_between == 0.0:
        return 0.0
    return 20.0 * math.log10(sigma_between / residual)


def ltm_measurement_noise_std(
    sigma_within: float,
    w_max: float,
    input_norm: float,
    columns: int,
) -> float:
    """Std of one LTM sum-measurement's within-chip noise term.

    ``input_norm`` is the L2 norm of the driving activation vector; the
    averaged columns cut the noise by ``sqrt(columns)``.
    """
    if columns < 1:
        raise ValueError("need at least one LTM column")
    return sigma_within * w_max * input_norm / math.sqrt(columns)


def ltm_columns_for_target(
    sigma_within: float,
    w_max: float,
    typical_input_norm: float,
    target_std: float,
) -> int:
    """Smallest LTM column count meeting a measurement-noise target."""
    if target_std <= 0.0:
        raise ValueError("target_std must be positive")
    if sigma_within == 0.0 or w_max == 0.0:
        return 1
    needed = (sigma_within * w_max * typical_input_norm / target_std) ** 2
    return max(1, math.ceil(needed))


def check_st_matches_variance_model(
    config: SelfTuningConfig, variance_model_name: str
) -> tuple[bool, str]:
    """Diagnose the Fig. 6 "Wrong ST" failure mode before deployment.

    Returns ``(matches, message)``.  Mismatched self-tuning is *worse* than
    none (Table II: 3.78% vs 19.89% at sigma 0.5), so this check belongs in
    any deployment pipeline.
    """
    expected = correct_kind_for(variance_model_name)
    if config.kind == expected:
        return True, (
            f"self-tuning kind {config.kind!r} matches variance model "
            f"{variance_model_name!r}"
        )
    return False, (
        f"self-tuning kind {config.kind!r} does NOT match variance model "
        f"{variance_model_name!r} (expected {expected!r}); the paper shows "
        "mismatched tuning degrades accuracy below the untuned model"
    )


def size_quality_table(
    sigma_within: float,
    sigma_between: float,
    gtm_sizes=(10, 100, 1_000, 10_000, 100_000),
) -> list[dict]:
    """The analytic backbone of Fig. 7b: residual error per GTM size."""
    rows = []
    for cells in gtm_sizes:
        rows.append(
            {
                "gtm_cells": int(cells),
                "standard_error": gtm_standard_error(sigma_within, cells),
                "residual_std": residual_epsilon_std(sigma_within, cells),
                "gain_db": correction_gain_db(sigma_between, sigma_within, cells),
            }
        )
    return rows
