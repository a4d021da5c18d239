"""End-to-end tests pinning the paper's qualitative claims.

These are the "money" tests: each reproduces one headline phenomenon from
the paper on a scaled-down workload.  They are slower than unit tests
(seconds each) but fast enough for the default suite.
"""

import numpy as np
import pytest

from repro.datasets import batch_source, synthetic_mnist
from repro.eval import evaluate_clean, evaluate_robustness
from repro.models import build_model
from repro.nn import init
from repro.quant import QConfig
from repro.selftuning import SelfTuningConfig, attach_self_tuning, detach_self_tuning
from repro.training.baselines import train_qat, train_qavat
from repro.variability import LayerFixedVariance, VariabilitySpec

QC = QConfig.from_notation("A4W2")
SIGMA = 0.5


@pytest.fixture(scope="module")
def data():
    return synthetic_mnist(train_per_class=32, test_per_class=8)


def fresh_model():
    init.seed(1)
    return build_model("lenet5-mini")


@pytest.fixture(scope="module")
def qavat_model(data):
    """QAVAT trained under within-chip layer-fixed variation (sigma 0.5)."""
    train, _ = data
    spec = VariabilitySpec.within_only(SIGMA, LayerFixedVariance())
    model = fresh_model()
    train_qavat(
        model,
        batch_source(train, 32, seed=0),
        QC,
        spec,
        epochs=12,
        lr=0.02,
        float_pretrain_epochs=6,
        n_variation_samples=4,
    )
    return model


@pytest.fixture(scope="module")
def qat_model(data):
    """Variability-oblivious QAT with the same budget."""
    train, _ = data
    model = fresh_model()
    train_qat(
        model,
        batch_source(train, 32, seed=0),
        QC,
        epochs=12,
        lr=0.02,
        float_pretrain_epochs=6,
    )
    return model


class TestScenario1WithinChip:
    """Paper Sec. IV-A: QAVAT beats QAT under within-chip variation."""

    def test_qat_learns_the_task(self, qat_model, data):
        _, test = data
        assert evaluate_clean(qat_model, test) > 0.85

    def test_qavat_preserves_clean_accuracy(self, qavat_model, data):
        _, test = data
        assert evaluate_clean(qavat_model, test) > 0.85

    def test_qavat_more_robust_than_qat_at_high_sigma(self, qavat_model, qat_model, data):
        _, test = data
        spec = VariabilitySpec.within_only(SIGMA, LayerFixedVariance())
        qavat = evaluate_robustness(qavat_model, test, spec, num_chips=20, seed=7).mean
        qat = evaluate_robustness(qat_model, test, spec, num_chips=20, seed=7).mean
        assert qavat > qat + 0.05

    def test_qat_degrades_as_sigma_grows(self, qat_model, data):
        _, test = data
        accs = []
        for sigma in (0.1, 0.3, 0.5):
            spec = VariabilitySpec.within_only(sigma, LayerFixedVariance())
            accs.append(evaluate_robustness(qat_model, test, spec, num_chips=12, seed=3).mean)
        assert accs[0] > accs[2]


class TestScenario2MixedVariation:
    """Paper Sec. IV-B: training alone fails under between-chip variation;
    self-tuning recovers; the wrong self-tuning is destructive."""

    @pytest.fixture(scope="class")
    def mixed_setup(self, data):
        train, test = data
        sigma_each = SIGMA / np.sqrt(2.0)  # sigma_tot = 0.5
        variance_model = LayerFixedVariance()
        train_spec = VariabilitySpec.within_only(sigma_each, variance_model)
        eval_spec = VariabilitySpec.mixed(sigma_each, variance_model)
        model = fresh_model()
        train_qavat(
            model,
            batch_source(train, 32, seed=0),
            QC,
            train_spec,
            epochs=12,
            lr=0.02,
            float_pretrain_epochs=6,
            n_variation_samples=4,
        )
        return model, test, eval_spec

    def test_mixed_variation_defeats_training_alone(self, mixed_setup):
        model, test, eval_spec = mixed_setup
        clean = evaluate_clean(model, test)
        mixed = evaluate_robustness(model, test, eval_spec, num_chips=20, seed=11).mean
        assert clean - mixed > 0.25  # large loss, as in Fig. 5

    def test_self_tuning_recovers_accuracy(self, mixed_setup):
        model, test, eval_spec = mixed_setup
        base = evaluate_robustness(model, test, eval_spec, num_chips=20, seed=11).mean
        attach_self_tuning(model, SelfTuningConfig(kind="layer", gtm_cells=1000, ltm_columns=1))
        tuned = evaluate_robustness(model, test, eval_spec, num_chips=20, seed=11).mean
        detach_self_tuning(model)
        clean = evaluate_clean(model, test)
        assert tuned > base + 0.2
        assert clean - tuned < 0.15  # loss reduced to near the clean level

    def test_wrong_self_tuning_is_destructive(self, mixed_setup):
        model, test, eval_spec = mixed_setup
        attach_self_tuning(model, SelfTuningConfig(kind="layer", gtm_cells=1000))
        right = evaluate_robustness(model, test, eval_spec, num_chips=15, seed=11).mean
        attach_self_tuning(model, SelfTuningConfig(kind="global", gtm_cells=1000))
        wrong = evaluate_robustness(model, test, eval_spec, num_chips=15, seed=11).mean
        detach_self_tuning(model)
        assert wrong < right - 0.15


class TestMultiSampling:
    """Paper Fig. 7a: more variation samples per step improve the result."""

    def test_multi_sampling_beats_single_at_fixed_epochs(self, data):
        train, test = data
        spec = VariabilitySpec.within_only(SIGMA, LayerFixedVariance())
        results = {}
        for n in (1, 4):
            model = fresh_model()
            train_qavat(
                model,
                batch_source(train, 32, seed=0),
                QC,
                spec,
                epochs=10,
                lr=0.02,
                float_pretrain_epochs=6,
                n_variation_samples=n,
            )
            results[n] = evaluate_robustness(model, test, spec, num_chips=15, seed=5).mean
        assert results[4] > results[1]


class TestGtmSizeTradeoff:
    """Paper Fig. 7b: more GTM cells improve self-tuned accuracy."""

    def test_more_cells_help(self, qavat_model, data):
        _, test = data
        sigma_each = SIGMA / np.sqrt(2.0)
        eval_spec = VariabilitySpec.mixed(sigma_each, LayerFixedVariance())
        means = {}
        for cells in (10, 100_000):
            attach_self_tuning(
                qavat_model, SelfTuningConfig(kind="layer", gtm_cells=cells, ltm_columns=16)
            )
            means[cells] = evaluate_robustness(
                qavat_model, test, eval_spec, num_chips=15, seed=13
            ).mean
        detach_self_tuning(qavat_model)
        assert means[100_000] >= means[10]
