"""repro — differentially-private learning through PAC-Bayes and information
theory.

A from-scratch reproduction of Darakhshan Mir, *"Differentially-private
Learning and Information Theory"* (PAIS workshop @ EDBT 2012). The library
contains:

* the paper's contribution (:mod:`repro.core`): the Gibbs estimator, its
  privacy guarantee (Theorem 4.1), PAC-Bayes bounds and their Gibbs
  minimizer (Theorem 3.1 / Lemma 3.2), the mutual-information-regularized
  learning objective and its Gibbs fixed point (Theorem 4.2), and the
  Figure-1 learning channel;
* every substrate it stands on: a DP mechanism library
  (:mod:`repro.mechanisms`), privacy auditing (:mod:`repro.privacy`),
  information theory (:mod:`repro.information`), discrete distributions and
  samplers (:mod:`repro.distributions`), and a statistical-learning stack
  (:mod:`repro.learning`, :mod:`repro.private_learning`).

Quickstart::

    import numpy as np
    from repro import BernoulliTask, GibbsEstimator, PredictorGrid

    task = BernoulliTask(p=0.8)
    sample = task.sample(100, random_state=0)
    grid = PredictorGrid.linspace(task.loss, 0.0, 1.0, 21)
    learner = GibbsEstimator.from_privacy(grid, epsilon=1.0,
                                          expected_sample_size=100)
    theta = learner.release(list(sample), random_state=0)

Every export other than the exceptions and ``__version__`` is imported on
first use (PEP 562), so ``import repro`` loads no subpackage and a program
that needs only :mod:`repro.serving` or :mod:`repro.mechanisms` never pays
for SciPy.
"""

from importlib import import_module as _import_module

from repro.exceptions import (
    ConvergenceError,
    DPAuditError,
    NotFittedError,
    PrivacyBudgetError,
    ReproError,
    SensitivityError,
    ValidationError,
)

__version__ = "1.0.0"

__all__ = [
    "BernoulliTask",
    "ContinuousGibbsPosterior",
    "ConvergenceError",
    "DPAuditError",
    "DiscreteChannel",
    "DiscreteDistribution",
    "ExactPrivacyAuditor",
    "ExponentialMechanism",
    "ExponentialMechanismLearner",
    "GaussianMechanism",
    "GaussianThresholdTask",
    "GeometricMechanism",
    "GibbsERMClassifier",
    "GibbsEstimator",
    "GibbsPosterior",
    "LaplaceMechanism",
    "LearningChannel",
    "LinearSVM",
    "LogisticRegressionModel",
    "LogisticTask",
    "Mechanism",
    "NotFittedError",
    "ObjectivePerturbationClassifier",
    "OutputPerturbationClassifier",
    "PredictorGrid",
    "PrivacyAccountant",
    "PrivacyBudgetError",
    "PrivacySpec",
    "RandomizedResponse",
    "RegularizedExponentialMechanism",
    "ReproError",
    "SensitivityError",
    "StatisticalAuditReport",
    "TwoGaussiansTask",
    "ValidationError",
    "assert_dp",
    "audit_mechanism",
    "catoni_bound",
    "channel_capacity",
    "entropy",
    "evaluate_all_bounds",
    "kl_divergence",
    "mcallester_bound",
    "minimize_tradeoff",
    "mutual_information_from_joint",
    "rate_distortion",
    "seeger_bound",
    "tradeoff_curve",
    "__version__",
]

#: Each lazily exported name and the subpackage that defines it.
_LAZY_EXPORTS = {
    "DiscreteDistribution": "repro.distributions",
    "DiscreteChannel": "repro.information",
    "channel_capacity": "repro.information",
    "entropy": "repro.information",
    "kl_divergence": "repro.information",
    "mutual_information_from_joint": "repro.information",
    "rate_distortion": "repro.information",
    "ExponentialMechanism": "repro.mechanisms",
    "GaussianMechanism": "repro.mechanisms",
    "GeometricMechanism": "repro.mechanisms",
    "LaplaceMechanism": "repro.mechanisms",
    "Mechanism": "repro.mechanisms",
    "PrivacyAccountant": "repro.mechanisms",
    "PrivacySpec": "repro.mechanisms",
    "RandomizedResponse": "repro.mechanisms",
    "ExactPrivacyAuditor": "repro.privacy",
    "StatisticalAuditReport": "repro.testing",
    "assert_dp": "repro.testing",
    "audit_mechanism": "repro.testing",
    "BernoulliTask": "repro.learning",
    "GaussianThresholdTask": "repro.learning",
    "LinearSVM": "repro.learning",
    "LogisticRegressionModel": "repro.learning",
    "LogisticTask": "repro.learning",
    "PredictorGrid": "repro.learning",
    "TwoGaussiansTask": "repro.learning",
    "ContinuousGibbsPosterior": "repro.core",
    "GibbsEstimator": "repro.core",
    "GibbsPosterior": "repro.core",
    "LearningChannel": "repro.core",
    "catoni_bound": "repro.core",
    "evaluate_all_bounds": "repro.core",
    "mcallester_bound": "repro.core",
    "minimize_tradeoff": "repro.core",
    "seeger_bound": "repro.core",
    "tradeoff_curve": "repro.core",
    "ExponentialMechanismLearner": "repro.private_learning",
    "GibbsERMClassifier": "repro.private_learning",
    "ObjectivePerturbationClassifier": "repro.private_learning",
    "OutputPerturbationClassifier": "repro.private_learning",
    "RegularizedExponentialMechanism": "repro.private_learning",
}


def __getattr__(name: str):
    """Import the subpackage behind a lazy export and cache the value."""
    try:
        module = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(_import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    """Module attributes, including exports not yet imported."""
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
