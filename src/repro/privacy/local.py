"""Local differential privacy: randomization at the data source.

The paper's model is central DP (a trusted curator runs the Gibbs
estimator). The local model removes the curator: each individual
randomizes their own record before sending it. This module defines the
shared :class:`LocalMechanism` interface — per-record :meth:`privatize`
plus a vectorized, stream-equivalent :meth:`privatize_many` batch kernel
following the ``release_many`` discipline — and implements it for
categorical frequency estimation:

* :class:`KRandomizedResponse` — generalized randomized response over k
  categories (report the truth w.p. ``e^ε/(e^ε+k-1)``, else uniform over
  the other categories);
* :class:`UnaryEncoding` — symmetric unary encoding (RAPPOR-style): each
  user perturbs a k-bit one-hot vector bitwise; better than k-RR for
  large k.

Both come with unbiased frequency estimators and closed-form variances,
so the local-vs-central accuracy gap (the price of removing trust) is
measurable (Experiments E15 and E18). The continuous-domain DJW sampling
mechanisms for mean/median estimation build on the same interface in
:mod:`repro.local_privacy`.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.exceptions import ValidationError
from repro.mechanisms.base import Mechanism, PrivacySpec, _draw_loop, _recorded
from repro.utils.validation import check_positive, check_random_state


def _check_categories(categories) -> tuple:
    categories = tuple(categories)
    if len(categories) < 2:
        raise ValidationError("need at least two categories")
    if len(set(categories)) != len(categories):
        raise ValidationError("categories must be distinct")
    return categories


def clip_and_renormalize(estimates) -> np.ndarray:
    """Project debiased frequency estimates back onto the simplex.

    The unbiased inversion ``(ȳ - q)/(p - q)`` can leave individual
    coordinates negative (small n) or the total away from one. Clipping
    at zero and renormalizing is pure post-processing of the privatized
    reports, so it costs no privacy and never increases the worst-case
    ℓ∞ error of a coordinate that was already in ``[0, 1]``.

    Parameters
    ----------
    estimates:
        One-dimensional array of debiased frequency estimates (may
        contain negative coordinates).

    Returns
    -------
    numpy.ndarray
        Non-negative vector of the same length summing to one. If every
        coordinate clips to zero the uniform distribution is returned.
    """
    arr = np.asarray(estimates, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("estimates must be a non-empty 1-d array")
    if not np.isfinite(arr).all():
        raise ValidationError("estimates must be finite")
    clipped = np.clip(arr, 0.0, None)
    total = float(clipped.sum())
    if total <= 0.0:
        return np.full(arr.size, 1.0 / arr.size)
    return clipped / total


class LocalMechanism(Mechanism):
    """A per-record ε-LDP randomizer behind the central-DP interface.

    Local mechanisms privatize one record at a time — the guarantee
    holds between any two *records*, not datasets — so the natural unit
    of work is :meth:`privatize`. The batch entry point
    :meth:`privatize_many` follows the ``release_many`` discipline: its
    outputs are bit-identical to sequential :meth:`privatize` calls
    sharing one :class:`numpy.random.Generator`, subclasses vectorize
    via :meth:`_privatize_many`, and observability records one
    aggregated :class:`~repro.observability.events.MechanismReleaseEvent`
    with ``count == len(records)`` (each record spends the per-record ε).

    :meth:`release` treats a sequence of records as the dataset and
    privatizes every one, which keeps local mechanisms drop-in
    compatible with auditors and accountants built for the central
    :class:`~repro.mechanisms.base.Mechanism` interface.
    """

    @abc.abstractmethod
    def privatize(self, record, random_state=None):
        """Privatize one record under the per-record ε guarantee.

        Parameters
        ----------
        record:
            One raw client record in the mechanism's input domain.
        random_state:
            Seed or :class:`numpy.random.Generator` for the draw.
        """

    def privatize_many(self, records, random_state=None):
        """Privatize a batch of records with one shared generator.

        Stream equivalence contract: the outputs are bit-identical to
        ``[self.privatize(r, rng) for r in records]`` with the same
        ``rng``. Families with a vectorized kernel override
        :meth:`_privatize_many`; the base fallback loops
        :meth:`privatize`.

        Parameters
        ----------
        records:
            Non-empty sequence of records.
        random_state:
            Seed or :class:`numpy.random.Generator` shared by the batch.

        Returns
        -------
        numpy.ndarray or list
            One privatized output per record, leading axis of length
            ``len(records)``.
        """
        records = self._check_records(records)
        rng = check_random_state(random_state)
        return _recorded(
            self, "privatize_many", len(records), self._privatize_many, records, rng
        )

    def _check_records(self, records):
        """Materialize and validate the batch before any RNG is consumed.

        Parameters
        ----------
        records:
            Candidate batch of records.

        Returns
        -------
        list
            The records as a list of length ≥ 1.
        """
        records = list(records)
        if not records:
            raise ValidationError("records must not be empty")
        return records

    def _privatize_many(self, records, rng):
        """Batch kernel fallback: loop :meth:`privatize` on a shared rng.

        Mirrors ``Mechanism._release_many``: if a record raises
        mid-batch, the records already privatized consumed their budget,
        so :meth:`privatize_many` still records them (see
        :func:`~repro.mechanisms.base._draw_loop`).

        Parameters
        ----------
        records:
            Validated list of records (length ≥ 1).
        rng:
            A ready :class:`numpy.random.Generator`.
        """
        return _draw_loop(
            self, lambda record: self.privatize(record, random_state=rng), records
        )

    def release(self, dataset, random_state=None):
        """Privatize every record of ``dataset`` independently.

        Parameters
        ----------
        dataset:
            Sequence of records; each is privatized under the per-record
            ε so the whole release is ε-DP in any single record.
        random_state:
            Seed or :class:`numpy.random.Generator` for the batch.
        """
        rng = check_random_state(random_state)
        records = self._check_records(dataset)
        return self._privatize_many(records, rng)

    def _release_many(self, dataset, n, rng):
        """Batch kernel: one :meth:`_privatize_many` over ``n`` copies.

        Every kernel draws a fixed-width block per record in order, so
        privatizing the n-fold tiled dataset consumes the stream exactly
        like ``n`` sequential :meth:`release` calls. The dataset is
        validated once; the result is split back into ``n`` releases. A
        looped kernel that raises mid-batch records only the releases
        whose every record completed (see
        :func:`~repro.mechanisms.base._draw_loop`).

        Parameters
        ----------
        dataset:
            Sequence of records, as :meth:`release` expects it.
        n:
            Number of releases (already validated, ≥ 1).
        rng:
            A ready :class:`numpy.random.Generator`.

        Returns
        -------
        numpy.ndarray or list
            An ``(n, m, …)`` array for array outputs, else ``n`` lists of
            ``m`` outputs, where ``m`` is the number of records.
        """
        records = self._check_records(dataset)
        m = len(records)
        # A list of records, or the (m, d) matrix of the sampling channels.
        if isinstance(records, np.ndarray):
            tiled = np.tile(records, (n, 1))
        else:
            tiled = records * n
        outputs = self._privatize_many(tiled, rng)
        if isinstance(outputs, np.ndarray):
            return outputs.reshape((n, m) + outputs.shape[1:])
        return [outputs[i * m : (i + 1) * m] for i in range(n)]


class _CategoricalLocalMechanism(LocalMechanism):
    """Shared category bookkeeping for the frequency-oracle mechanisms."""

    def __init__(self, categories, epsilon: float) -> None:
        super().__init__(PrivacySpec(epsilon=epsilon))
        self.categories = _check_categories(categories)
        self._index = {c: i for i, c in enumerate(self.categories)}
        arr = np.empty(len(self.categories), dtype=object)
        arr[:] = self.categories
        self._category_array = arr

    def _encode(self, records) -> np.ndarray:
        """Map records to category indices, rejecting unknown values.

        Parameters
        ----------
        records:
            List of records, each expected in the category set.

        Returns
        -------
        numpy.ndarray
            Integer index array of shape ``(len(records),)``.
        """
        out = np.empty(len(records), dtype=np.intp)
        for i, record in enumerate(records):
            try:
                index = self._index.get(record)
            except TypeError:
                index = None
            if index is None:
                raise ValidationError(
                    "records contain a value outside the category set"
                )
            out[i] = index
        return out

    def randomize(self, value, random_state=None):
        """Backward-compatible alias for :meth:`privatize`.

        Parameters
        ----------
        value:
            One record in the category set.
        random_state:
            Seed or :class:`numpy.random.Generator` for the draw.
        """
        return self.privatize(value, random_state=random_state)


class KRandomizedResponse(_CategoricalLocalMechanism):
    """Generalized randomized response over k categories, ε-LDP per record.

    Truth probability ``p = e^ε / (e^ε + k - 1)``; any specific lie has
    probability ``q = 1 / (e^ε + k - 1)``; the ratio p/q = e^ε makes each
    report exactly ε-DP in its own record.

    Each :meth:`privatize` call consumes exactly one uniform double: the
    single draw both decides truth-vs-lie and, via the inverse CDF of
    the uniform lie distribution, selects which lie. One draw per record
    is what lets :meth:`privatize_many` consume the generator in a
    single ``uniform(size=n)`` block while staying bit-identical to the
    sequential loop.

    Parameters
    ----------
    categories:
        The fixed, data-independent category list.
    epsilon:
        Per-record local privacy parameter.
    """

    def __init__(self, categories, epsilon: float) -> None:
        epsilon = check_positive(epsilon, name="epsilon")
        super().__init__(categories, epsilon)
        k = len(self.categories)
        self.truth_probability = float(np.exp(epsilon) / (np.exp(epsilon) + k - 1))
        self.lie_probability = float(1.0 / (np.exp(epsilon) + k - 1))

    def _lie_index(self, true_index, offsets):
        """Map uniform lie offsets in ``[0, k-2]`` to category indices.

        Parameters
        ----------
        true_index:
            Index (or index array) of the true category being skipped.
        offsets:
            Integer offsets into the "all categories but the truth" list.
        """
        return offsets + (offsets >= true_index)

    def privatize(self, record, random_state=None):
        """Randomize one record with a single uniform draw.

        Parameters
        ----------
        record:
            One record; must be a known category.
        random_state:
            Seed or :class:`numpy.random.Generator` for the draw.
        """
        index = self._encode([record])[0]
        rng = check_random_state(random_state)
        u = rng.uniform()
        p, q = self.truth_probability, self.lie_probability
        if u < p:
            return self.categories[int(index)]
        k = len(self.categories)
        offset = min(int((u - p) / q), k - 2)
        return self.categories[int(self._lie_index(index, offset))]

    def _privatize_many(self, records, rng):
        """Vectorized kernel: one ``uniform(size=n)`` block for the batch.

        Parameters
        ----------
        records:
            Validated list of records.
        rng:
            A ready :class:`numpy.random.Generator`.
        """
        indices = self._encode(records)
        n = indices.size
        u = rng.uniform(size=n)
        p, q = self.truth_probability, self.lie_probability
        k = len(self.categories)
        offsets = np.minimum(((u - p) / q).astype(np.intp), k - 2)
        lie_indices = self._lie_index(indices, np.maximum(offsets, 0))
        out = np.where(u < p, indices, lie_indices)
        return list(self._category_array[out])

    def channel_matrix(self) -> np.ndarray:
        """The k×k row-stochastic matrix of this local channel.

        ``K[i, j] = p`` on the diagonal and ``q`` off it; rows are the
        conditional report laws, so the matrix feeds directly into the
        :mod:`repro.information` divergence toolkit for numerical
        data-processing-inequality checks.
        """
        k = len(self.categories)
        p, q = self.truth_probability, self.lie_probability
        matrix = np.full((k, k), q)
        np.fill_diagonal(matrix, p)
        return matrix / matrix.sum(axis=1, keepdims=True)

    def as_channel(self):
        """This mechanism as a :class:`~repro.information.DiscreteChannel`."""
        from repro.information.channel import DiscreteChannel

        return DiscreteChannel(
            self.categories, self.categories, self.channel_matrix()
        )

    def estimate_frequencies(self, reports, *, clip: bool = False) -> np.ndarray:
        """Frequency estimates from the randomized reports.

        If ȳ_c is the observed report fraction of category c, the debiased
        estimate is ``(ȳ_c - q) / (p - q)`` — unbiased but possibly
        negative at small n; ``clip=True`` applies
        :func:`clip_and_renormalize` (pure post-processing).

        Parameters
        ----------
        reports:
            Randomized category reports from :meth:`privatize_many`.
        clip:
            Project the debiased estimates back onto the simplex.
        """
        reports = list(reports)
        if not reports:
            raise ValidationError("reports must not be empty")
        counts = np.zeros(len(self.categories))
        indices = self._encode(reports)
        np.add.at(counts, indices, 1.0)
        observed = counts / len(reports)
        p, q = self.truth_probability, self.lie_probability
        estimates = (observed - q) / (p - q)
        if clip:
            return clip_and_renormalize(estimates)
        return estimates

    def estimator_variance(self, n: int) -> float:
        """Worst-case per-category variance of the frequency estimator.

        Parameters
        ----------
        n:
            Number of privatized reports averaged by the estimator.
        """
        if n < 1:
            raise ValidationError("n must be >= 1")
        p, q = self.truth_probability, self.lie_probability
        # Var(ȳ)/ (p-q)^2 with Var(ȳ) <= 1/(4n).
        return 1.0 / (4.0 * n * (p - q) ** 2)


class UnaryEncoding(_CategoricalLocalMechanism):
    """Symmetric unary encoding (RAPPOR-style), ε-LDP per record.

    Each record becomes a k-bit one-hot vector; the true bit is kept with
    probability ``p = e^{ε/2}/(e^{ε/2}+1)``, every other bit is set with
    probability ``q = 1 - p``. Each bit flip contributes ε/2, the pair
    (true bit, any other bit) bounds the total at ε.

    Parameters
    ----------
    categories:
        The fixed, data-independent category list.
    epsilon:
        Per-record local privacy parameter.
    """

    def __init__(self, categories, epsilon: float) -> None:
        epsilon = check_positive(epsilon, name="epsilon")
        super().__init__(categories, epsilon)
        half = np.exp(epsilon / 2.0)
        self.keep_probability = float(half / (half + 1.0))
        self.flip_probability = 1.0 - self.keep_probability

    def privatize(self, record, random_state=None) -> np.ndarray:
        """Perturbed one-hot vector for one record.

        Parameters
        ----------
        record:
            One record; must be a known category.
        random_state:
            Seed or :class:`numpy.random.Generator` for the k bit flips.
        """
        index = self._encode([record])[0]
        rng = check_random_state(random_state)
        k = len(self.categories)
        bits = np.zeros(k, dtype=int)
        bits[index] = 1
        keep = rng.uniform(size=k) < self.keep_probability
        return np.where(keep, bits, 1 - bits)

    def _privatize_many(self, records, rng):
        """Vectorized kernel: one ``uniform(size=(n, k))`` block.

        Bit-identical to the sequential loop because ``n`` consecutive
        ``uniform(size=k)`` calls and one ``uniform(size=(n, k))`` call
        consume the generator's stream identically.

        Parameters
        ----------
        records:
            Validated list of records.
        rng:
            A ready :class:`numpy.random.Generator`.
        """
        indices = self._encode(records)
        n = indices.size
        k = len(self.categories)
        bits = np.zeros((n, k), dtype=int)
        bits[np.arange(n), indices] = 1
        keep = rng.uniform(size=(n, k)) < self.keep_probability
        return np.where(keep, bits, 1 - bits)

    def estimate_frequencies(
        self, report_matrix, *, clip: bool = False
    ) -> np.ndarray:
        """Frequency estimates from the stacked reports.

        Each bit has expectation ``q + (p - q)·f_c``; invert per column.
        The unbiased inversion can go negative at small n; ``clip=True``
        applies :func:`clip_and_renormalize` (pure post-processing).

        Parameters
        ----------
        report_matrix:
            Stacked perturbed one-hot rows from :meth:`privatize_many`.
        clip:
            Project the debiased estimates back onto the simplex.
        """
        matrix = np.asarray(report_matrix)
        if matrix.ndim != 2 or matrix.shape[1] != len(self.categories):
            raise ValidationError(
                "report_matrix must have one column per category"
            )
        observed = matrix.mean(axis=0)
        p = self.keep_probability
        q = self.flip_probability
        estimates = (observed - q) / (p - q)
        if clip:
            return clip_and_renormalize(estimates)
        return estimates

    def estimator_variance(self, n: int) -> float:
        """Per-category variance of the frequency estimator (dominant
        ``q(1-q)`` term).

        Parameters
        ----------
        n:
            Number of privatized reports averaged by the estimator.
        """
        if n < 1:
            raise ValidationError("n must be >= 1")
        p = self.keep_probability
        q = self.flip_probability
        return q * (1.0 - q) / (n * (p - q) ** 2)
