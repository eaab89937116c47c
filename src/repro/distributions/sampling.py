"""Generic samplers.

The Gibbs posterior over a *continuous* parameter space has an intractable
normalizer, but its unnormalized log-density ``log π(θ) - ε R̂(θ)`` is cheap
to evaluate — exactly the setting Metropolis–Hastings handles. The discrete
inverse-CDF sampler backs the exponential mechanism on finite ranges, and
the batched Langevin (MALA) sampler opens the ``d ≫ 1`` regime: many
chains advanced in lock-step as one set of numpy array operations, under a
single stream-disciplined :class:`numpy.random.Generator`, in
contiguous blocks of chains that step in parallel threads.

All Metropolis acceptance arithmetic stays in log-space
(:func:`log_acceptance_ratio`): at Gibbs temperatures of order ``ε·n`` the
density *ratio* overflows ``float64`` long before the log-ratio leaves
``[-10⁹, 10⁹]``, and a non-finite proposal density must reject rather
than wedge the chain in a state it can never leave.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import check_positive, check_random_state


def log_acceptance_ratio(
    proposal_log_density, current_log_density, log_correction=0.0
):
    """Metropolis–Hastings log-acceptance ratio, hardened for extremes.

    Returns ``log π(θ') - log π(θ) + c`` (``c`` is the proposal-density
    correction, zero for symmetric random walks) without ever forming the
    ratio itself, so temperatures of order ``ε·n`` cannot overflow
    ``exp``. Non-finite proposal densities — ``+inf`` spikes, ``-inf``
    barriers, ``nan`` from domain errors — yield ``-inf``: the proposal
    is rejected instead of being accepted into a state whose subsequent
    ratios would all be ``inf - inf = nan`` (a silently wedged chain).

    Parameters
    ----------
    proposal_log_density:
        Scalar or array of unnormalized log-densities at the proposals.
    current_log_density:
        Matching log-densities at the current states (finite by chain
        invariant: only finite states are ever accepted).
    log_correction:
        Optional asymmetric-proposal correction
        ``log q(θ|θ') - log q(θ'|θ)``, broadcast against the densities.
    """
    proposal = np.asarray(proposal_log_density, dtype=float)
    current = np.asarray(current_log_density, dtype=float)
    with np.errstate(invalid="ignore"):
        raw = proposal - current + log_correction
        ratio = np.where(
            np.isfinite(proposal) & ~np.isnan(raw), raw, -np.inf
        )
    if ratio.ndim == 0:
        return float(ratio)
    return ratio


def _worker_count() -> int:
    """Cores this process may run on: its CPU affinity where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _log_uniform(rng: np.random.Generator, size=None):
    """``log U`` for the acceptance test, warning-free at ``U == 0``."""
    with np.errstate(divide="ignore"):
        return np.log(rng.uniform(size=size))


def inverse_cdf_sample(probabilities, uniforms) -> np.ndarray:
    """Map uniform variates to indices by inverting the discrete CDF.

    Deterministic given ``uniforms``, which makes mechanism tests
    reproducible down to the draw.
    """
    probs = np.asarray(probabilities, dtype=float)
    if probs.ndim != 1 or np.any(probs < 0):
        raise ValidationError("probabilities must be a nonnegative vector")
    cdf = np.cumsum(probs)
    if not np.isclose(cdf[-1], 1.0, atol=1e-8):
        raise ValidationError("probabilities must sum to one")
    cdf[-1] = 1.0
    uniforms = np.asarray(uniforms, dtype=float)
    return np.searchsorted(cdf, uniforms, side="right").clip(0, probs.size - 1)


@dataclass
class MetropolisHastingsResult:
    """Samples and diagnostics from an MH run."""

    samples: np.ndarray
    acceptance_rate: float
    log_densities: np.ndarray


class MetropolisHastingsSampler:
    """Random-walk Metropolis–Hastings over ``R^d``.

    Parameters
    ----------
    log_density:
        Unnormalized log-density, callable on a length-``d`` array.
    dimension:
        Dimension ``d`` of the state space.
    step_size:
        Standard deviation of the Gaussian proposal.
    """

    def __init__(
        self,
        log_density: Callable[[np.ndarray], float],
        dimension: int,
        step_size: float = 0.5,
    ) -> None:
        if dimension < 1:
            raise ValidationError("dimension must be >= 1")
        self.log_density = log_density
        self.dimension = int(dimension)
        self.step_size = check_positive(step_size, name="step_size")

    def run(
        self,
        n_samples: int,
        *,
        initial=None,
        burn_in: int = 500,
        thin: int = 1,
        random_state=None,
    ) -> MetropolisHastingsResult:
        """Run the chain and return ``n_samples`` (post burn-in, thinned).

        Parameters
        ----------
        initial:
            Starting state; defaults to the origin.
        burn_in:
            Number of initial iterations discarded.
        thin:
            Keep one state out of every ``thin`` post-burn-in iterations —
            reduces autocorrelation in downstream risk estimates.
        """
        if n_samples < 1:
            raise ValidationError("n_samples must be >= 1")
        if burn_in < 0 or thin < 1:
            raise ValidationError("burn_in must be >= 0 and thin >= 1")
        rng = check_random_state(random_state)

        state = (
            np.zeros(self.dimension)
            if initial is None
            else np.asarray(initial, dtype=float).copy()
        )
        if state.shape != (self.dimension,):
            raise ValidationError(
                f"initial state must have shape ({self.dimension},)"
            )
        current_log_density = float(self.log_density(state))
        if not np.isfinite(current_log_density):
            raise ValidationError(
                "log_density must be finite at the initial state"
            )

        total_iterations = burn_in + n_samples * thin
        samples = np.empty((n_samples, self.dimension))
        log_densities = np.empty(n_samples)
        accepted = 0
        kept = 0

        for iteration in range(total_iterations):
            proposal = state + rng.normal(scale=self.step_size, size=self.dimension)
            proposal_log_density = float(self.log_density(proposal))
            log_ratio = log_acceptance_ratio(
                proposal_log_density, current_log_density
            )
            if _log_uniform(rng) < log_ratio:
                state = proposal
                current_log_density = proposal_log_density
                accepted += 1
            if iteration >= burn_in and (iteration - burn_in) % thin == 0:
                samples[kept] = state
                log_densities[kept] = current_log_density
                kept += 1

        return MetropolisHastingsResult(
            samples=samples,
            acceptance_rate=accepted / total_iterations,
            log_densities=log_densities,
        )


@dataclass
class LangevinResult:
    """Final chain states and diagnostics from a batched MALA run.

    Attributes
    ----------
    samples:
        ``(n_chains, dimension)`` array — each row is one chain's state
        after all steps (one independent draw per chain).
    acceptance_rate:
        Mean acceptance probability over all chains and steps.
    log_densities:
        ``(n_chains,)`` unnormalized log-densities at the final states.
    """

    samples: np.ndarray
    acceptance_rate: float
    log_densities: np.ndarray


class BatchedLangevinSampler:
    """Metropolis-adjusted Langevin (MALA) over ``R^d``, many chains at once.

    Each chain proposes ``θ' = θ + (h²/2)·∇log π(θ) + h·ξ`` with
    ``ξ ~ N(0, I_d)`` and accepts with the exact MH correction for the
    asymmetric proposal, so every chain targets ``π`` exactly. The batch
    advances ``m`` chains in lock-step: one step is a handful of numpy
    operations on ``(m, d)`` arrays instead of ``m`` Python-level
    iterations, which is where the batched speedup comes from.

    **Stream discipline.** All randomness comes from one injected
    :class:`numpy.random.Generator`, consumed in per-chain blocks — chain
    ``i`` draws its ``(steps, d)`` Gaussian block and then its
    ``(steps,)`` uniform block before chain ``i+1`` draws anything. A
    batch of ``m`` chains is therefore bit-identical to ``m`` sequential
    single-chain runs sharing the generator, which is what lets
    ``Mechanism.release_many`` keep its stream-equivalence contract on
    top of this sampler. The step arithmetic is elementwise/`einsum`-free
    per row (callables permitting), so row ``i`` of a batch equals the
    lone row of a one-chain run bit for bit.

    **Blocks on every core.** :meth:`run` splits the chains into
    contiguous blocks, one per core the process may run on (its CPU
    affinity). The calling thread draws each block's stream in chain
    order and hands the block to a thread pool, so the stepping of early
    blocks overlaps the drawing of later ones; numpy releases the GIL in
    its array loops, so the blocks step in parallel. Because rows never
    interact and the stream is drawn in the serial order, samples,
    log-densities, the acceptance count and the generator's end state do
    not depend on the split. A single block runs inline, with no pool.

    Each proposal is evaluated once: one call returns both the
    log-density and its gradient, which the acceptance test and the next
    drift share.

    Parameters
    ----------
    log_density_and_grad:
        Vectorized unnormalized log-density and its gradient: maps
        ``(m, d)`` states to ``((m,) values, (m, d) gradients)``. Row
        ``i`` of both results must depend only on row ``i`` of the input
        (no cross-chain reductions), or batched and sequential runs will
        diverge. It is called from several threads at once, on disjoint
        blocks of rows, so it must be thread-safe: a pure function of its
        input is.
    dimension:
        Dimension ``d`` of the state space.
    step_size:
        The Langevin step ``h`` (target ~0.5–0.6 acceptance; shrink it if
        acceptance collapses, grow it if acceptance nears 1).
    """

    def __init__(
        self,
        log_density_and_grad: Callable[
            [np.ndarray], tuple[np.ndarray, np.ndarray]
        ],
        dimension: int,
        step_size: float = 0.1,
    ) -> None:
        if dimension < 1:
            raise ValidationError("dimension must be >= 1")
        self.log_density_and_grad = log_density_and_grad
        self.dimension = int(dimension)
        self.step_size = check_positive(step_size, name="step_size")

    def _evaluate(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Log-densities and gradients at ``theta`` as float arrays."""
        values, grads = self.log_density_and_grad(theta)
        return np.asarray(values, dtype=float), np.asarray(grads, dtype=float)

    def _draw_blocks(
        self, n_chains: int, steps: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-chain RNG blocks in sequential-run order.

        The loop exists *only* to pin the stream layout; the O(steps·d)
        work per chain is a bulk generator fill, so this is cheap even
        for thousands of chains. The acceptance uniforms take one
        in-place ``log`` for the whole batch.
        """
        noise = np.empty((n_chains, steps, self.dimension))
        log_uniforms = np.empty((n_chains, steps))
        for chain in range(n_chains):
            noise[chain] = rng.standard_normal((steps, self.dimension))
            log_uniforms[chain] = rng.uniform(size=steps)
        with np.errstate(divide="ignore"):
            np.log(log_uniforms, out=log_uniforms)
        return noise, log_uniforms

    def run(
        self,
        n_chains: int,
        *,
        steps: int = 100,
        initial=None,
        random_state=None,
    ) -> LangevinResult:
        """Advance ``n_chains`` independent chains ``steps`` steps each.

        Parameters
        ----------
        n_chains:
            Number of chains (= independent draws returned).
        steps:
            MALA steps per chain; doubles as burn-in since only final
            states are returned.
        initial:
            Shared starting state, shape ``(dimension,)``; defaults to
            the origin. Must have finite log-density.
        random_state:
            Seed or :class:`numpy.random.Generator`.
        """
        if n_chains < 1:
            raise ValidationError("n_chains must be >= 1")
        if steps < 1:
            raise ValidationError("steps must be >= 1")
        rng = check_random_state(random_state)
        start = (
            np.zeros(self.dimension)
            if initial is None
            else np.asarray(initial, dtype=float)
        )
        if start.shape != (self.dimension,):
            raise ValidationError(
                f"initial state must have shape ({self.dimension},)"
            )

        state = np.repeat(start[None, :], n_chains, axis=0)
        state_log_density, state_grad = self._evaluate(state)
        if state_log_density.shape != (n_chains,):
            raise ValidationError(
                "log_density must map (m, d) states to (m,) values"
            )
        if not np.all(np.isfinite(state_log_density)):
            raise ValidationError(
                "log_density must be finite at the initial state"
            )
        if state_grad.shape != state.shape:
            raise ValidationError(
                "grad_log_density must map (m, d) states to (m, d) gradients"
            )

        blocks = min(_worker_count(), n_chains)
        edges = [n_chains * block // blocks for block in range(blocks + 1)]
        # Drawn lazily, in chain order, on this thread only: each block's
        # stream is drawn just before the block is handed to a worker.
        work = (
            (state[lo:hi], state_log_density[lo:hi], state_grad[lo:hi],
             *self._draw_blocks(hi - lo, steps, rng))
            for lo, hi in zip(edges, edges[1:])
        )
        if blocks == 1:
            outcomes = [self._advance(*next(work))]
        else:
            with ThreadPoolExecutor(max_workers=blocks) as pool:
                futures = [pool.submit(self._advance, *args) for args in work]
                outcomes = [future.result() for future in futures]

        samples, log_densities, accepted = zip(*outcomes)
        return LangevinResult(
            samples=np.concatenate(samples),
            acceptance_rate=sum(accepted) / (n_chains * steps),
            log_densities=np.concatenate(log_densities),
        )

    def _advance(self, state, state_log_density, state_grad, noise,
                 log_uniforms):
        """Step one block of chains through its pre-drawn stream.

        Returns the block's final states, their log-densities and the
        number of accepted proposals. Rows never interact, so any split
        of the chains into blocks gives the same rows.
        """
        h = self.step_size
        half_h2 = 0.5 * h * h
        inv_2h2 = 1.0 / (2.0 * h * h)
        accepted = 0

        for step in range(noise.shape[1]):
            drift = state + half_h2 * state_grad
            proposal = drift + h * noise[:, step, :]
            proposal_log_density, proposal_grad = self._evaluate(proposal)
            reverse_drift = proposal + half_h2 * proposal_grad
            with np.errstate(invalid="ignore"):
                log_forward = -inv_2h2 * ((proposal - drift) ** 2).sum(axis=1)
                log_backward = -inv_2h2 * ((state - reverse_drift) ** 2).sum(
                    axis=1
                )
                log_ratio = log_acceptance_ratio(
                    proposal_log_density,
                    state_log_density,
                    log_correction=log_backward - log_forward,
                )
            accept = log_uniforms[:, step] < log_ratio
            state = np.where(accept[:, None], proposal, state)
            state_log_density = np.where(
                accept, proposal_log_density, state_log_density
            )
            state_grad = np.where(accept[:, None], proposal_grad, state_grad)
            accepted += int(accept.sum())
        return state, state_log_density, accepted
