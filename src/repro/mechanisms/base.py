"""Mechanism interface and privacy specifications.

Definition 2.1 of the paper: a randomized function ``f`` is ε-DP if for all
neighbouring datasets ``D, D'`` and all output events ``Y``,
``Pr[f(D) ∈ Y] ≤ e^ε · Pr[f(D') ∈ Y]``. Every mechanism in this package
carries its claimed :class:`PrivacySpec` so accountants and auditors can
read guarantees off the object rather than trusting call sites.
"""

from __future__ import annotations

import abc
import functools
import numbers
from dataclasses import dataclass

from repro.exceptions import ValidationError
from repro.observability import tracer as _trace
from repro.observability.events import MechanismReleaseEvent
from repro.utils.validation import check_in_range, check_positive, check_random_state


@dataclass(frozen=True)
class PrivacySpec:
    """An (ε, δ) differential-privacy guarantee.

    ``delta == 0`` is pure ε-DP — the only flavour the paper uses — while
    ``delta > 0`` covers the Gaussian mechanism extension.
    """

    epsilon: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        check_positive(self.epsilon, name="epsilon")
        check_in_range(self.delta, name="delta", low=0.0, high=1.0)

    @property
    def is_pure(self) -> bool:
        """True when the guarantee is pure ε-DP (δ = 0)."""
        return self.delta == 0.0

    def compose(self, other: "PrivacySpec") -> "PrivacySpec":
        """Sequential (basic) composition: parameters add."""
        return PrivacySpec(self.epsilon + other.epsilon, self.delta + other.delta)

    def __str__(self) -> str:
        if self.is_pure:
            return f"{self.epsilon:.6g}-DP"
        return f"({self.epsilon:.6g}, {self.delta:.3g})-DP"


def _record_release(tracer, mechanism, count):
    """Record ``count`` releases of ``mechanism`` in the ledger and counter."""
    spec = mechanism.privacy
    name = type(mechanism).__name__
    tracer.record(
        MechanismReleaseEvent(
            label=name,
            epsilon=spec.epsilon,
            delta=spec.delta,
            mechanism=name,
            count=count,
        )
    )
    tracer.count("mechanism.releases", count)


def _recorded(mechanism, entry, count, kernel, /, *args, **kwargs):
    """Run ``kernel(*args, **kwargs)`` as the release entry point ``entry``.

    The one recorder behind ``release``, ``release_many`` and
    ``privatize_many``. With no active tracer it only delegates, and
    ``random_state`` flows through untouched, so outputs are
    bit-identical with tracing on or off. With one, the kernel runs in an
    ``<entry>:<Class>`` span and, if it returns, one event records
    ``count`` releases (``None``: a single release, with no count on the
    span). A kernel that raises records nothing here.
    """
    tracer = _trace.current()
    if tracer is None:
        return kernel(*args, **kwargs)
    name = type(mechanism).__name__
    attributes = {"mechanism": name}
    if count is not None:
        attributes["count"] = count
    with tracer.span(f"{entry}:{name}", **attributes):
        result = kernel(*args, **kwargs)
    _record_release(tracer, mechanism, 1 if count is None else count)
    return result


#: Spans of the entry points that account for partial batches.
_BATCH_ENTRIES = ("release_many:", "privatize_many:")


def _draw_loop(mechanism, draw, items):
    """``[draw(item) for item in items]``, the looped batch kernel.

    The draws are real releases made one at a time, so one that raises
    leaves the earlier ones done — noise consumed, state mutated — while
    the batch's event is never reached. Called directly under a batch
    entry point, the loop records the releases that completed before
    re-raising: the ledger never under-counts a release that happened. A
    single ``release`` that raises records nothing.

    The entry point's span carries its release count ``n``, and the
    loop's ``N`` items split evenly over those releases (``N/n`` records
    per local release, one draw otherwise). So ``k`` completed items are
    ``⌊k·n/N⌋`` completed releases: a partly privatized release is not
    charged, as a raising ``release`` is not.
    """
    outputs = []
    try:
        for item in items:
            outputs.append(draw(item))
    except BaseException:
        tracer = _trace.current()
        span = tracer and tracer.active_span
        if span and span.name.startswith(_BATCH_ENTRIES):
            completed = len(outputs) * span.attributes["count"] // len(items)
            if completed:
                _record_release(tracer, mechanism, completed)
        raise
    return outputs


def _traced_release(release):
    """Wrap a subclass ``release`` in the recorder (see :func:`_recorded`)."""

    @functools.wraps(release)
    def traced(self, *args, **kwargs):
        if _trace.current() is None:  # per-draw hot path: skip the recorder
            return release(self, *args, **kwargs)
        return _recorded(self, "release", None, release, self, *args, **kwargs)

    traced._dp_traced = True
    return traced


class Mechanism(abc.ABC):
    """A randomized function of a dataset with a declared privacy guarantee.

    Subclasses implement :meth:`release` (one randomized output for one
    dataset). The base class stores the nominal :class:`PrivacySpec`;
    auditors in :mod:`repro.privacy` measure whether the implementation
    actually honours it.

    Every concrete ``release`` is wrapped at class-creation time with the
    observability hook (see :mod:`repro.observability`): all mechanism
    families emit release spans, ledger events, and counters without any
    per-subclass instrumentation, and without touching their math or RNG
    streams. With no active tracer the hook is a near-free no-op.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        """Install the tracing wrapper around a subclass's ``release``."""
        super().__init_subclass__(**kwargs)
        release = cls.__dict__.get("release")
        if (
            release is not None
            and callable(release)
            and not getattr(release, "__isabstractmethod__", False)
            and not getattr(release, "_dp_traced", False)
        ):
            cls.release = _traced_release(release)

    def __init__(self, privacy: PrivacySpec) -> None:
        if not isinstance(privacy, PrivacySpec):
            raise ValidationError("privacy must be a PrivacySpec")
        self._privacy = privacy

    @property
    def privacy(self) -> PrivacySpec:
        """The nominal differential-privacy guarantee of this mechanism."""
        return self._privacy

    @property
    def epsilon(self) -> float:
        """Shorthand for ``privacy.epsilon``."""
        return self._privacy.epsilon

    @property
    def delta(self) -> float:
        """Shorthand for ``privacy.delta``."""
        return self._privacy.delta

    @abc.abstractmethod
    def release(self, dataset, random_state=None):
        """Produce one randomized, privacy-preserving output for ``dataset``."""

    def release_many(self, dataset, n, random_state=None):
        """Draw ``n`` independent releases of ``dataset`` in one call.

        The batch contract is *stream equivalence*: the outputs are
        bit-identical to ``n`` sequential :meth:`release` calls sharing
        the same :class:`numpy.random.Generator` (in particular,
        ``release_many(d, 1, rng)[0] == release(d, rng)`` under equal
        seeds). Families with a vectorized kernel override
        :meth:`_release_many`; the base fallback loops ``release``.

        Observability records the whole batch as *one* aggregated ledger
        event with ``count == n`` (and bumps ``mechanism.releases`` by
        ``n``), so traced ε totals match ``n`` individual releases while
        traces stay O(1) per batch.

        Parameters
        ----------
        dataset:
            The dataset to query, exactly as :meth:`release` expects it.
        n:
            Number of releases to draw (integer ≥ 1).
        random_state:
            Seed or :class:`numpy.random.Generator` shared by the whole
            batch.

        Returns
        -------
        numpy.ndarray or list
            ``n`` outputs, leading axis of length ``n`` — an array for
            numeric mechanisms, a list for structured outputs.
        """
        if not isinstance(n, numbers.Integral) or isinstance(n, bool):
            raise ValidationError(f"n must be an integer, got {n!r}")
        n = int(n)
        if n < 1:
            raise ValidationError(f"n must be >= 1, got {n}")
        rng = check_random_state(random_state)
        return _recorded(
            self, "release_many", n, self._release_many, dataset, n, rng
        )

    def _release_many(self, dataset, n, rng):
        """Batch kernel: ``n`` draws from one shared generator.

        The fallback loops the *untraced* ``release`` (the raw subclass
        method underneath the observability wrapper) so a batch never
        emits per-draw ledger events; :meth:`release_many` records the
        single aggregated event. Override with a numpy kernel that
        consumes the RNG stream exactly as the loop would.

        A draw that raises mid-batch still ledgers the draws before it
        (see :func:`_draw_loop`).

        Parameters
        ----------
        dataset:
            The dataset to query.
        n:
            Number of releases (already validated, ≥ 1).
        rng:
            A ready :class:`numpy.random.Generator`.
        """
        release = type(self).release
        release = getattr(release, "__wrapped__", release)
        return _draw_loop(
            self, lambda _: release(self, dataset, random_state=rng), range(n)
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._privacy})"
