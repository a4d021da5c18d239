"""The self-tuning controller: applies GTM/LTM corrections to MVM outputs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autograd import Tensor
from repro.selftuning.gtm import GlobalTuningModule
from repro.selftuning.ltm import LayerTuningModule
from repro.validation import require_int, require_real

TUNER_KINDS = ("global", "layer")


def correct_kind_for(variance_model_name: str) -> str:
    """The ST architecture matching a variance model (Fig. 2).

    Weight-proportional variance needs only the GTM ("global"); layer-fixed
    variance needs GTM + per-layer LTMs ("layer").
    """
    if "proportional" in variance_model_name:
        return "global"
    if "fixed" in variance_model_name:
        return "layer"
    raise KeyError(f"no self-tuning architecture for {variance_model_name!r}")


@dataclass(frozen=True)
class SelfTuningConfig:
    """Sizing and kind of the self-tuning architecture.

    ``kind="global"`` divides every MVM output by ``1 + eps_hat_B``
    (weight-proportional variance); ``kind="layer"`` subtracts the
    LTM-estimated additive error (layer-fixed variance).  The paper's default
    deployment is 10^3 GTM cells and 1 LTM column; the hardest layer-fixed
    settings use 10^5 cells and 16 columns.  ``gtm_cells`` and
    ``ltm_columns`` must be ints >= 1 and ``w_l_relative`` a finite
    real > 0.
    """

    kind: str = "global"
    gtm_cells: int = 1000
    ltm_columns: int = 1
    w_l_relative: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in TUNER_KINDS:
            raise ValueError(f"kind must be one of {TUNER_KINDS}, got {self.kind!r}")
        require_int("gtm_cells", self.gtm_cells, minimum=1)
        require_int("ltm_columns", self.ltm_columns, minimum=1)
        require_real("w_l_relative", self.w_l_relative, minimum=0.0, strict=True)


class SelfTuner:
    """Applies the configured correction to each quantized layer's output.

    One instance is shared by all layers of a model (mirroring "one GTM per
    chip"); it is installed by :func:`repro.selftuning.wrap.attach_self_tuning`.
    """

    def __init__(self, config: SelfTuningConfig) -> None:
        self.config = config
        self.gtm = GlobalTuningModule(config.gtm_cells)
        self.ltm = LayerTuningModule(config.ltm_columns, config.w_l_relative)

    def correct(self, layer, y_mvm: Tensor, x_q: Tensor) -> Tensor:
        """Corrected MVM output (pre-bias) for one layer on the current chip."""
        chip = layer.current_chip
        if chip is None:
            return y_mvm
        if self.config.kind == "global":
            return self._correct_global(chip, y_mvm)
        return self._correct_layer(layer, chip, y_mvm, x_q)

    # ------------------------------------------------------------------
    def _correct_global(self, chip, y_mvm: Tensor) -> Tensor:
        eps_hat = self.gtm.estimate(chip)
        denominator = 1.0 + eps_hat
        # A chip with eps_B near -1 has lost essentially all conductance;
        # clamp to keep the correction finite.
        if abs(denominator) < 1e-3:
            denominator = np.sign(denominator or 1.0) * 1e-3
        return y_mvm * (1.0 / denominator)

    def _correct_layer(self, layer, chip, y_mvm: Tensor, x_q: Tensor) -> Tensor:
        eps_hat = self.gtm.estimate(chip)
        w_max = layer.ideal_weight_max()
        if w_max == 0.0:
            return y_mvm
        patches = layer.patch_matrix(x_q.data)
        layer_key = getattr(layer, "_st_key", layer.__class__.__name__)
        y_ltm = self.ltm.measure(chip, layer_key, patches, w_max)
        w_l = self.ltm.w_l(w_max)
        denominator = w_l + eps_hat * w_max
        if abs(denominator) < 1e-12:
            return y_mvm
        correction = (eps_hat * w_max / denominator) * y_ltm
        if y_mvm.ndim == 4:  # conv: (N, C, H, W), correction (N, H, W)
            correction = correction[:, None, :, :]
        elif y_mvm.ndim == 2:  # linear: (N, out), correction (N,)
            correction = correction[:, None]
        return y_mvm - Tensor(correction)

    def __repr__(self) -> str:
        return f"SelfTuner({self.config})"
