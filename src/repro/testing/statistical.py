"""Statistical test policy: seeds, tolerances, retries, sample sizes.

Monte-Carlo verification of a privacy guarantee is a hypothesis test, and a
test suite full of hypothesis tests needs an explicit policy or it flakes:
every statistical test in this repository (the ``statistical`` pytest tier)
derives its seed deterministically from a stable name, certifies failures
at a declared confidence level, and retries a certified failure a bounded
number of times with a *fresh derived seed* before reporting it.

With per-audit confidence ``c`` and ``r`` retries, a correct mechanism
fails spuriously with probability at most ``(1 - c)^(r + 1)`` — at the
defaults (``c = 0.999``, ``r = 1``) that is one in a million per audit —
while a genuinely broken mechanism keeps failing every attempt because the
violation is in the distribution, not in the draw. Since all seeds are
derived (never wall-clock), the whole tier is bit-for-bit reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ValidationError
from repro.utils.seeding import BASE_SEED, derive_seed
from repro.utils.validation import check_confidence, check_positive


@dataclass(frozen=True)
class StatisticalPolicy:
    """Tier-wide knobs for statistical tests.

    Parameters
    ----------
    base_seed:
        Root of every derived seed (see :func:`derive_seed`).
    n_samples:
        Default Monte-Carlo draws per dataset in an audit.
    confidence:
        Certification level of a reported violation: a failing audit is
        wrong with probability at most ``1 - confidence``.
    max_retries:
        How many times a certified failure is retried with a fresh derived
        seed before it is reported (flake control; see module docstring).
    tolerance:
        Additive slack on the claimed ε when deciding pass/fail, absorbing
        floating-point noise in the claim itself.
    n_bins:
        Default bin count for continuous-output audits.
    """

    base_seed: int = BASE_SEED
    n_samples: int = 12_000
    confidence: float = 0.999
    max_retries: int = 1
    tolerance: float = 1e-9
    n_bins: int = 16

    def __post_init__(self) -> None:
        check_confidence(self.confidence, name="confidence")
        if self.n_samples < 2:
            raise ValidationError("n_samples must be >= 2")
        if self.max_retries < 0:
            raise ValidationError("max_retries must be >= 0")
        if self.tolerance < 0:
            raise ValidationError("tolerance must be >= 0")
        if self.n_bins < 2:
            raise ValidationError("n_bins must be >= 2")

    def seed_for(self, name: str, attempt: int = 0) -> int:
        """The derived seed for attempt ``attempt`` of the test ``name``.

        Parameters
        ----------
        name:
            Stable identifier of the test or audit.
        attempt:
            Zero-based retry counter; each attempt gets a fresh stream.
        """
        return derive_seed(name, int(attempt), base_seed=self.base_seed)

    def false_failure_probability(self) -> float:
        """Upper bound on the chance a *correct* mechanism fails the tier.

        ``(1 - confidence) ** (max_retries + 1)`` — every attempt must
        independently certify a violation for the test to report one.
        """
        return (1.0 - self.confidence) ** (self.max_retries + 1)


#: The policy the shipped statistical tier runs under.
DEFAULT_POLICY = StatisticalPolicy()


def samples_to_witness(event_probability: float, confidence: float) -> int:
    """Draws needed to observe an event at least once with high probability.

    Solves ``1 - (1 - p)^n >= confidence`` for ``n``: the minimum number of
    i.i.d. draws so that an event of probability ``event_probability``
    appears at least once with probability ``confidence``. A violation
    concentrated on an event the sampler never sees is invisible to any
    frequency-based audit, so this is the floor on audit sample sizes.

    Parameters
    ----------
    event_probability:
        Probability of the rarest event the audit must be able to see.
    confidence:
        Required probability of witnessing it at least once.
    """
    probability = check_confidence(event_probability, name="event_probability")
    confidence = check_confidence(confidence, name="confidence")
    return int(math.ceil(math.log1p(-confidence) / math.log1p(-probability)))


def samples_to_separate(
    p: float,
    q: float,
    target_epsilon: float,
    confidence: float,
) -> int:
    """Per-dataset draws for a certified log-ratio above ``target_epsilon``.

    If an event truly has probabilities ``p`` and ``q`` on the two
    neighbouring datasets with ``log(p/q) > target_epsilon``, this returns
    a sample size at which Hoeffding confidence bounds at level
    ``confidence`` separate the certified lower bound
    ``log((p - w) / (q + w))`` from ``target_epsilon``, where
    ``w = sqrt(log(1/alpha) / (2 n))``. Hoeffding is looser than the
    Clopper–Pearson bounds the auditor actually uses, so the answer is a
    safe (conservative) planning figure.

    Parameters
    ----------
    p:
        True event probability on the first dataset.
    q:
        True event probability on the second dataset (``q < p``).
    target_epsilon:
        The claimed ε the audit must certifiably exceed.
    confidence:
        Certification level of the audit.

    Raises
    ------
    ValidationError
        If the true log-ratio does not exceed ``target_epsilon`` — no
        sample size can certify a separation that is not there.
    """
    p = check_confidence(p, name="p")
    q = check_confidence(q, name="q")
    target_epsilon = check_positive(target_epsilon, name="target_epsilon")
    confidence = check_confidence(confidence, name="confidence")
    if math.log(p / q) <= target_epsilon:
        raise ValidationError(
            "log(p/q) must exceed target_epsilon for a separation to exist"
        )
    alpha = 1.0 - confidence
    n = 16
    while n < 2**34:
        width = math.sqrt(math.log(1.0 / alpha) / (2.0 * n))
        if p - width > 0 and math.log((p - width) / (q + width)) > target_epsilon:
            return n
        n *= 2
    raise ValidationError(
        "no feasible sample size below 2^34; the margin is too thin"
    )
