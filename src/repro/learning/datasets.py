"""Synthetic prediction tasks with *known* data-generating laws.

The paper's quantities — true risk ``R(θ) = E_Z l_θ(Z)``, the expectation
``E_Ẑ`` over samples, the mutual information ``I(Ẑ; θ)`` — are all defined
against the unknown distribution Q. Using synthetic tasks where Q is chosen
by us makes every one of them computable, either in closed form or by
controlled Monte Carlo, so bound-validity and tradeoff experiments can
compare against ground truth instead of proxies.

Each task exposes ``sample(n, random_state)`` and task-specific exact risk
functions.
"""

from __future__ import annotations

import abc

import numpy as np
from scipy.stats import norm

from repro.exceptions import ValidationError
from repro.learning.erm import GridLoss
from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_random_state,
)


class SyntheticTask(abc.ABC):
    """A data-generating distribution Q with exactly computable risks."""

    @abc.abstractmethod
    def sample(self, n: int, random_state=None):
        """Draw an i.i.d. sample Ẑ of size n."""

    def _check_n(self, n: int) -> int:
        if n < 1:
            raise ValidationError("n must be >= 1")
        return int(n)


def _absolute_loss(theta: float, z) -> np.ndarray:
    return np.abs(float(theta) - np.asarray(z, dtype=float))


def _absolute_loss_matrix(thetas, sample) -> np.ndarray:
    return np.abs(
        np.asarray(thetas, dtype=float) - np.asarray(sample, dtype=float)[:, None]
    )


class BernoulliTask(SyntheticTask):
    """Z ~ Bernoulli(p); predictors θ ∈ [0, 1] guess the next outcome.

    Loss is the absolute loss ``l_θ(z) = |θ - z|``, bounded in [0, 1], with
    closed-form true risk ``R(θ) = p(1-θ) + (1-p)θ = p + θ(1 - 2p)``. The
    simplest task on which every theorem of the paper can be checked
    end-to-end with no estimation error anywhere.
    """

    def __init__(self, p: float) -> None:
        self.p = check_in_range(p, name="p", low=0.0, high=1.0)

    def sample(self, n: int, random_state=None) -> np.ndarray:
        """n i.i.d. Bernoulli(p) outcomes as a 0/1 integer array."""
        n = self._check_n(n)
        rng = check_random_state(random_state)
        return (rng.uniform(size=n) < self.p).astype(int)

    #: Absolute loss ``|θ - z|`` of predictor θ on outcomes z, with the
    #: batch kernel :class:`~repro.learning.erm.PredictorGrid` uses.
    loss = GridLoss(_absolute_loss, _absolute_loss_matrix)

    def empirical_risk(self, theta: float, sample) -> float:
        """``R̂(θ)`` on a sample."""
        return float(self.loss(theta, sample).mean())

    def true_risk(self, theta: float) -> float:
        """Exact ``R(θ) = p + θ(1 - 2p)``."""
        theta = check_in_range(theta, name="theta", low=0.0, high=1.0)
        return self.p + theta * (1.0 - 2.0 * self.p)

    def bayes_risk(self) -> float:
        """Risk of the best predictor: ``min(p, 1-p)``."""
        return min(self.p, 1.0 - self.p)


def _threshold_zero_one(threshold, x, y) -> np.ndarray:
    margins = np.asarray(y, dtype=float) * (
        np.asarray(x, dtype=float) - np.asarray(threshold, dtype=float)
    )
    return (margins <= 0).astype(float)


def _threshold_record_loss(threshold: float, z) -> float:
    return float(_threshold_zero_one(threshold, [z[0]], [z[1]])[0])


def _threshold_record_matrix(thresholds, sample) -> np.ndarray:
    x, y = np.asarray(sample, dtype=float).T
    return _threshold_zero_one(thresholds, x[:, None], y[:, None])


class GaussianThresholdTask(SyntheticTask):
    """1-D two-class Gaussians; predictors are decision thresholds.

    ``y`` uniform on {-1, +1}, ``X | y ~ N(y·mu, sigma²)``. A threshold
    predictor t classifies ``sign(x - t)`` and its 0-1 risk has the closed
    form ``½ Φ((t-μ)/σ) + ½ Φ(-(t+μ)/σ)``.
    """

    def __init__(self, mu: float = 1.0, sigma: float = 1.0) -> None:
        self.mu = check_positive(mu, name="mu")
        self.sigma = check_positive(sigma, name="sigma")

    def sample(self, n: int, random_state=None) -> tuple[np.ndarray, np.ndarray]:
        """n labelled points: y uniform on {-1,+1}, x ~ N(y·mu, sigma²)."""
        n = self._check_n(n)
        rng = check_random_state(random_state)
        y = rng.choice([-1, 1], size=n)
        x = rng.normal(loc=y * self.mu, scale=self.sigma, size=n)
        return x, y

    #: 0-1 loss of a threshold on one labelled record ``z = (x, y)``: the
    #: per-record loss of a :class:`~repro.learning.erm.PredictorGrid` of
    #: thresholds, with its batch kernel.
    record_loss = GridLoss(_threshold_record_loss, _threshold_record_matrix)

    def zero_one_loss(self, threshold: float, x, y) -> np.ndarray:
        """0-1 loss of the threshold predictor on points (x, y)."""
        return _threshold_zero_one(float(threshold), x, y)

    def empirical_risk(self, threshold: float, x, y) -> float:
        """``R̂(t)`` on a sample."""
        return float(self.zero_one_loss(threshold, x, y).mean())

    def true_risk(self, threshold: float) -> float:
        """Exact 0-1 risk of the threshold predictor."""
        t = float(threshold)
        return float(
            0.5 * norm.cdf((t - self.mu) / self.sigma)
            + 0.5 * norm.cdf(-(t + self.mu) / self.sigma)
        )

    def bayes_risk(self) -> float:
        """Risk of the optimal threshold t = 0: ``Φ(-μ/σ)``."""
        return float(norm.cdf(-self.mu / self.sigma))


class TwoGaussiansTask(SyntheticTask):
    """d-dimensional two-class Gaussians for linear classification.

    ``y`` uniform on {-1, +1}, ``X | y ~ N(y·mean, I_d)``. Any linear
    predictor θ has exact 0-1 risk ``Φ(-⟨θ, mean⟩ / ‖θ‖)`` by rotational
    symmetry. Features can optionally be clipped to the unit ball, which
    the Chaudhuri-style private ERM algorithms require.
    """

    def __init__(self, mean, *, clip_features: bool = False) -> None:
        self.mean = np.asarray(mean, dtype=float)
        if self.mean.ndim != 1 or self.mean.size == 0:
            raise ValidationError("mean must be a nonempty 1-D vector")
        if not np.any(self.mean != 0):
            raise ValidationError("mean must be nonzero (classes must differ)")
        self.clip_features = bool(clip_features)

    @property
    def dimension(self) -> int:
        return self.mean.shape[0]

    def sample(self, n: int, random_state=None) -> tuple[np.ndarray, np.ndarray]:
        """n labelled rows: y uniform on {-1,+1}, x ~ N(y·mean, I_d)."""
        n = self._check_n(n)
        rng = check_random_state(random_state)
        y = rng.choice([-1, 1], size=n)
        x = rng.normal(size=(n, self.dimension)) + y[:, None] * self.mean[None, :]
        if self.clip_features:
            norms = np.linalg.norm(x, axis=1, keepdims=True)
            x = x / np.maximum(norms, 1.0)
        return x, y

    def true_risk(self, theta) -> float:
        """Exact 0-1 risk of the linear predictor ``sign(⟨θ, x⟩)``.

        Only exact when features are *not* clipped; with clipping it is an
        excellent approximation for well-separated classes.
        """
        theta = np.asarray(theta, dtype=float)
        if theta.shape != self.mean.shape:
            raise ValidationError("theta has the wrong dimension")
        norm_theta = float(np.linalg.norm(theta))
        if norm_theta == 0:
            return 0.5
        return float(norm.cdf(-float(theta @ self.mean) / norm_theta))

    def bayes_risk(self) -> float:
        """Risk of the optimal direction θ ∝ mean: ``Φ(-‖mean‖)``."""
        return float(norm.cdf(-np.linalg.norm(self.mean)))


class LogisticTask(SyntheticTask):
    """Well-specified logistic model over the unit ball.

    ``X`` uniform on the unit ball in R^d (so ‖x‖ ≤ 1 as private ERM
    requires), ``P(y = +1 | x) = sigmoid(⟨θ*, x⟩)``. True risks are
    computed by Monte Carlo against a large fixed-seed evaluation sample.
    """

    def __init__(self, theta_star, *, eval_size: int = 200_000, eval_seed: int = 7) -> None:
        self.theta_star = np.asarray(theta_star, dtype=float)
        if self.theta_star.ndim != 1 or self.theta_star.size == 0:
            raise ValidationError("theta_star must be a nonempty 1-D vector")
        if eval_size < 1_000:
            raise ValidationError("eval_size must be >= 1000")
        self._eval_size = int(eval_size)
        self._eval_seed = int(eval_seed)
        self._eval_cache: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def dimension(self) -> int:
        return self.theta_star.shape[0]

    def _sample_ball(self, n: int, rng: np.random.Generator) -> np.ndarray:
        directions = rng.normal(size=(n, self.dimension))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = rng.uniform(size=(n, 1)) ** (1.0 / self.dimension)
        return directions * radii

    def sample(self, n: int, random_state=None) -> tuple[np.ndarray, np.ndarray]:
        """n rows: x uniform on the unit ball, y ~ logistic(⟨θ*, x⟩)."""
        n = self._check_n(n)
        rng = check_random_state(random_state)
        x = self._sample_ball(n, rng)
        probabilities = 1.0 / (1.0 + np.exp(-(x @ self.theta_star)))
        y = np.where(rng.uniform(size=n) < probabilities, 1, -1)
        return x, y

    def _evaluation_sample(self) -> tuple[np.ndarray, np.ndarray]:
        if self._eval_cache is None:
            self._eval_cache = self.sample(
                self._eval_size, random_state=self._eval_seed
            )
        return self._eval_cache

    def true_zero_one_risk(self, theta) -> float:
        """Monte-Carlo 0-1 risk of the linear predictor against Q."""
        theta = np.asarray(theta, dtype=float)
        x, y = self._evaluation_sample()
        margins = y * (x @ theta)
        return float((margins <= 0).mean())

    def bayes_zero_one_risk(self) -> float:
        """Risk of the true parameter θ* (the Bayes-optimal direction)."""
        return self.true_zero_one_risk(self.theta_star)


class LinearRegressionTask(SyntheticTask):
    """Linear-Gaussian regression over the unit ball.

    ``X`` uniform on the unit ball, ``y = ⟨θ*, x⟩ + N(0, noise²)``. The
    true squared risk of any θ has the closed form
    ``E[(⟨θ-θ*, X⟩)²] + noise² = ‖θ-θ*‖² · E[X₁²] + noise²`` with
    ``E[X₁²] = 1/(d+2)`` for the unit ball.
    """

    def __init__(self, theta_star, noise: float = 0.1) -> None:
        self.theta_star = np.asarray(theta_star, dtype=float)
        if self.theta_star.ndim != 1 or self.theta_star.size == 0:
            raise ValidationError("theta_star must be a nonempty 1-D vector")
        self.noise = check_positive(noise, name="noise")

    @property
    def dimension(self) -> int:
        return self.theta_star.shape[0]

    def sample(self, n: int, random_state=None) -> tuple[np.ndarray, np.ndarray]:
        """n rows: x uniform on the unit ball, y = ⟨θ*, x⟩ + noise."""
        n = self._check_n(n)
        rng = check_random_state(random_state)
        directions = rng.normal(size=(n, self.dimension))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = rng.uniform(size=(n, 1)) ** (1.0 / self.dimension)
        x = directions * radii
        y = x @ self.theta_star + rng.normal(scale=self.noise, size=n)
        return x, y

    def true_squared_risk(self, theta) -> float:
        """Exact squared-loss risk of θ."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != self.theta_star.shape:
            raise ValidationError("theta has the wrong dimension")
        gap = theta - self.theta_star
        second_moment = 1.0 / (self.dimension + 2.0)
        return float(gap @ gap) * second_moment + self.noise**2

    def bayes_squared_risk(self) -> float:
        """Irreducible risk ``noise²``."""
        return self.noise**2
