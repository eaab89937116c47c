"""Performance baselines and the ``repro bench --compare`` regression gate.

The benchmark engine gives every commit a perf fingerprint (the
``BENCH_<id>.json`` manifests); this module turns the fingerprint into a
*gate*. A committed :class:`PerfBaseline` (``benchmarks/perf_baseline.json``)
records the blessed per-experiment compute seconds, and
:func:`compare_to_baseline` diffs a fresh run against it under a
configurable slowdown tolerance — so wins like the vectorized
``release_many`` kernels are enforced by CI rather than just claimed.

The gate judges plain ``(id, seconds, configurations)`` measurements, so
``repro bench`` and ``repro loadtest --compare`` share one verdict. For a
bench run the seconds are the manifest's ``executed_seconds`` (per-config
compute); :func:`fresh_measurements` refuses manifests with cache hits,
which is why the CLI forces fresh timings whenever ``--compare`` or
``--write-baseline`` is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import ValidationError
from repro.experiments.manifest import RunManifest

__all__ = [
    "PERF_SCHEMA_VERSION",
    "PerfBaseline",
    "PerfComparison",
    "compare_to_baseline",
    "fresh_measurements",
    "load_baseline",
]

#: Schema version of the perf-baseline JSON document.
PERF_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class PerfBaseline:
    """Blessed per-experiment timings, committed next to the bench files.

    Parameters
    ----------
    experiments:
        Mapping experiment id → ``{"seconds": float, "configurations": int}``
        where ``seconds`` is the manifest's ``executed_seconds``.
    note:
        Free-form provenance line (machine, commit, why re-baselined).
    """

    experiments: dict = field(default_factory=dict)
    note: str = ""

    @classmethod
    def from_manifests(cls, manifests, note: str = "") -> "PerfBaseline":
        """Build a baseline from the manifests of a fresh (uncached) run.

        Parameters
        ----------
        manifests:
            Iterable of :class:`~repro.experiments.manifest.RunManifest`.
        note:
            Provenance line stored verbatim in the baseline.
        """
        experiments = {
            experiment_id: {"seconds": seconds, "configurations": configurations}
            for experiment_id, seconds, configurations in fresh_measurements(
                manifests
            )
        }
        return cls(experiments=experiments, note=str(note))

    def to_dict(self) -> dict:
        """The baseline as a JSON-serializable dict."""
        return {
            "schema_version": PERF_SCHEMA_VERSION,
            "note": self.note,
            "experiments": {
                key: dict(value)
                for key, value in sorted(self.experiments.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PerfBaseline":
        """Rebuild a baseline from its :meth:`to_dict` form.

        Parameters
        ----------
        payload:
            Parsed JSON document.
        """
        if not isinstance(payload, dict):
            raise ValidationError("perf baseline must be a JSON object")
        version = payload.get("schema_version")
        if version != PERF_SCHEMA_VERSION:
            raise ValidationError(
                f"unsupported perf-baseline schema version {version!r} "
                f"(supported: {PERF_SCHEMA_VERSION})"
            )
        experiments = payload.get("experiments")
        if not isinstance(experiments, dict) or not experiments:
            raise ValidationError(
                "perf baseline must map at least one experiment"
            )
        parsed = {}
        for key, value in experiments.items():
            if not isinstance(value, dict) or "seconds" not in value:
                raise ValidationError(
                    f"baseline entry {key!r} must be an object with "
                    "'seconds'"
                )
            seconds = float(value["seconds"])
            if seconds <= 0:
                raise ValidationError(
                    f"baseline entry {key!r} has non-positive seconds"
                )
            parsed[str(key)] = {
                "seconds": seconds,
                "configurations": int(value.get("configurations", 0)),
            }
        return cls(parsed, note=str(payload.get("note", "")))

    def write(self, path) -> Path:
        """Write the baseline JSON to ``path`` and return it.

        Parameters
        ----------
        path:
            Destination file path.
        """
        import json

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path


def load_baseline(path) -> PerfBaseline:
    """Load and validate a committed perf baseline.

    Parameters
    ----------
    path:
        Path to a ``perf_baseline.json`` document.
    """
    import json

    path = Path(path)
    if not path.exists():
        raise ValidationError(f"perf baseline not found: {path}")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise ValidationError(f"perf baseline {path} is not valid JSON: {error}")
    return PerfBaseline.from_dict(payload)


@dataclass(frozen=True)
class PerfEntry:
    """One experiment's measured-vs-baseline comparison row.

    Parameters
    ----------
    experiment_id:
        The experiment compared.
    baseline_seconds:
        Blessed compute seconds from the committed baseline.
    measured_seconds:
        The fresh measurement's seconds.
    ratio:
        ``measured / baseline`` — > 1 means slower than the baseline.
    tolerance:
        Largest acceptable ratio.
    configurations_changed:
        True when the sweep size differs from the baseline's record of it
        (a ratio across different workloads is not meaningful).
    """

    experiment_id: str
    baseline_seconds: float
    measured_seconds: float
    ratio: float
    tolerance: float
    configurations_changed: bool = False

    @property
    def regressed(self) -> bool:
        """True when this experiment fails the gate."""
        return self.configurations_changed or self.ratio > self.tolerance

    def to_dict(self) -> dict:
        """The row as a JSON-serializable dict."""
        return {
            "experiment": self.experiment_id,
            "baseline_seconds": self.baseline_seconds,
            "measured_seconds": self.measured_seconds,
            "ratio": self.ratio,
            "tolerance": self.tolerance,
            "configurations_changed": self.configurations_changed,
            "regressed": self.regressed,
        }


@dataclass(frozen=True)
class PerfComparison:
    """A full fresh-run-vs-baseline comparison.

    Parameters
    ----------
    entries:
        One :class:`PerfEntry` per compared experiment.
    tolerance:
        The slowdown tolerance the entries were judged against.
    """

    entries: tuple
    tolerance: float

    @property
    def regressions(self) -> tuple:
        """The entries that fail the gate."""
        return tuple(entry for entry in self.entries if entry.regressed)

    @property
    def ok(self) -> bool:
        """True when every compared experiment is within tolerance."""
        return not self.regressions

    def to_dict(self) -> dict:
        """The comparison as a JSON-serializable report."""
        return {
            "schema_version": PERF_SCHEMA_VERSION,
            "tolerance": self.tolerance,
            "ok": self.ok,
            "regressions": [e.experiment_id for e in self.regressions],
            "entries": [entry.to_dict() for entry in self.entries],
        }


def fresh_measurements(manifests) -> list[tuple[str, float, int]]:
    """The ``(id, seconds, configurations)`` measurements of fresh manifests.

    Parameters
    ----------
    manifests:
        Iterable of :class:`~repro.experiments.manifest.RunManifest`. A
        manifest with cache hits raises
        :class:`~repro.exceptions.ValidationError`: cached timings are not
        timings.
    """
    measurements = []
    for manifest in manifests:
        if not isinstance(manifest, RunManifest):
            raise ValidationError("fresh_measurements expects RunManifests")
        if manifest.cache_hits:
            raise ValidationError(
                f"manifest for {manifest.experiment_id} contains "
                f"{manifest.cache_hits} cache hits; perf timings need a "
                "fresh run (cache disabled)"
            )
        measurements.append(
            (
                manifest.experiment_id,
                float(manifest.executed_seconds),
                len(manifest.records),
            )
        )
    return measurements


def compare_to_baseline(
    measurements, baseline: PerfBaseline, tolerance: float = 1.5
) -> PerfComparison:
    """Judge fresh measurements against a committed baseline.

    An entry regresses when ``measured / baseline > tolerance`` or when
    its workload size no longer matches the baseline's record of it (in
    which case the ratio compares different workloads and the baseline
    must be regenerated; a baseline entry without ``configurations`` is
    not checked for drift). An id missing from the baseline is a usage
    error and raises :class:`~repro.exceptions.ValidationError`.

    Parameters
    ----------
    measurements:
        Iterable of ``(id, seconds, configurations)`` triples, e.g.
        :func:`fresh_measurements` of a bench run or one load test's wall
        seconds and request count.
    baseline:
        The committed :class:`PerfBaseline`.
    tolerance:
        Largest acceptable ``measured / baseline`` slowdown ratio.
    """
    if tolerance <= 0:
        raise ValidationError("tolerance must be > 0")
    entries = []
    for experiment_id, seconds, configurations in measurements:
        blessed = baseline.experiments.get(experiment_id)
        if blessed is None:
            known = ", ".join(sorted(baseline.experiments))
            raise ValidationError(
                f"{experiment_id} is not in the perf baseline (has: {known}); "
                "regenerate the baseline"
            )
        entries.append(
            PerfEntry(
                experiment_id=experiment_id,
                baseline_seconds=blessed["seconds"],
                measured_seconds=float(seconds),
                ratio=float(seconds) / blessed["seconds"],
                tolerance=float(tolerance),
                configurations_changed=bool(
                    blessed["configurations"]
                    and blessed["configurations"] != configurations
                ),
            )
        )
    return PerfComparison(entries=tuple(entries), tolerance=float(tolerance))
