"""The perf-regression gate: baselines, comparisons, and CLI exit codes.

Unit tests judge synthetic ``(id, seconds, configurations)`` measurements
and :class:`RunManifest` objects so the gate logic (tolerance, sweep-size
drift, cache-hit rejection, missing experiments) is exercised without
running a benchmark. The CLI tests then do one real
``repro bench E5`` dry run per scenario — write a baseline, pass against
it, fail against a deliberately slowed (÷1000 seconds) baseline — pinning
the 0/1/2 exit-code contract the CI perf-gate job relies on.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.exceptions import ValidationError
from repro.experiments import (
    PERF_SCHEMA_VERSION,
    PerfBaseline,
    compare_to_baseline,
    fresh_measurements,
    load_baseline,
)
from repro.experiments.manifest import ConfigurationRecord, RunManifest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _manifest(experiment_id, seconds, configurations=3, cached=0):
    records = [
        ConfigurationRecord(
            parameters={"i": i},
            outputs={"y": 1.0},
            seconds=seconds / configurations,
            cache_hit=i < cached,
        )
        for i in range(configurations)
    ]
    return RunManifest(
        experiment_id=experiment_id,
        claim="synthetic",
        bench="benchmarks/bench_fake.py",
        code_digest="deadbeef",
        workers=1,
        cache_enabled=False,
        records=records,
    )


class TestPerfBaseline:
    def test_from_manifests_round_trips(self, tmp_path):
        baseline = PerfBaseline.from_manifests(
            [_manifest("E5", 1.2), _manifest("E8", 0.4, configurations=7)],
            note="seed machine",
        )
        path = baseline.write(tmp_path / "perf_baseline.json")
        loaded = load_baseline(path)
        assert loaded == baseline
        assert loaded.experiments["E8"]["configurations"] == 7
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == PERF_SCHEMA_VERSION
        assert payload["note"] == "seed machine"

    def test_from_manifests_rejects_cache_hits(self):
        with pytest.raises(ValidationError, match="cache hits"):
            PerfBaseline.from_manifests([_manifest("E5", 1.0, cached=1)])

    def test_load_missing_file_is_validation_error(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_baseline(tmp_path / "absent.json")

    def test_load_invalid_json_is_validation_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_baseline(path)

    @pytest.mark.parametrize(
        "payload",
        [
            {"schema_version": 99, "experiments": {"E5": {"seconds": 1.0}}},
            {"schema_version": PERF_SCHEMA_VERSION, "experiments": {}},
            {"schema_version": PERF_SCHEMA_VERSION, "experiments": {"E5": 3}},
            {
                "schema_version": PERF_SCHEMA_VERSION,
                "experiments": {"E5": {"seconds": -1.0}},
            },
        ],
    )
    def test_from_dict_rejects_malformed_payloads(self, payload):
        with pytest.raises(ValidationError):
            PerfBaseline.from_dict(payload)


class TestCompareToBaseline:
    def test_within_tolerance_is_ok(self):
        baseline = PerfBaseline.from_manifests([_manifest("E5", 1.0)])
        comparison = compare_to_baseline([("E5", 1.4, 3)], baseline, tolerance=1.5)
        assert comparison.ok
        assert comparison.regressions == ()
        (entry,) = comparison.entries
        assert entry.ratio == pytest.approx(1.4)
        assert not entry.regressed

    def test_slowdown_past_tolerance_regresses(self):
        baseline = PerfBaseline.from_manifests([_manifest("E5", 1.0)])
        comparison = compare_to_baseline([("E5", 1.6, 3)], baseline, tolerance=1.5)
        assert not comparison.ok
        assert [e.experiment_id for e in comparison.regressions] == ["E5"]
        report = comparison.to_dict()
        assert report["ok"] is False
        assert report["regressions"] == ["E5"]
        assert report["entries"][0]["regressed"] is True

    def test_exactly_at_tolerance_passes(self):
        # The gate is "> tolerance", so ratio == tolerance is a pass.
        baseline = PerfBaseline.from_manifests([_manifest("E5", 1.0)])
        comparison = compare_to_baseline([("E5", 1.5, 3)], baseline, tolerance=1.5)
        assert comparison.ok

    def test_sweep_size_drift_regresses_even_when_faster(self):
        baseline = PerfBaseline.from_manifests(
            [_manifest("E5", 1.0, configurations=3)]
        )
        comparison = compare_to_baseline([("E5", 0.1, 2)], baseline)
        (entry,) = comparison.entries
        assert entry.configurations_changed
        assert entry.regressed
        assert not comparison.ok

    def test_missing_experiment_is_validation_error(self):
        baseline = PerfBaseline.from_manifests([_manifest("E5", 1.0)])
        with pytest.raises(ValidationError, match="not in the perf baseline"):
            compare_to_baseline([("E8", 1.0, 3)], baseline)

    def test_cache_hits_in_manifest_are_rejected(self):
        with pytest.raises(ValidationError, match="cache hits"):
            fresh_measurements([_manifest("E5", 1.0, cached=2)])

    def test_fresh_manifest_measures_id_seconds_and_configurations(self):
        (measurement,) = fresh_measurements([_manifest("E5", 1.2)])
        assert measurement == ("E5", pytest.approx(1.2), 3)

    @pytest.mark.parametrize("tolerance", [0.0, -1.0])
    def test_non_positive_tolerance_is_validation_error(self, tolerance):
        baseline = PerfBaseline.from_manifests([_manifest("E5", 1.0)])
        with pytest.raises(ValidationError, match="tolerance"):
            compare_to_baseline(
                [("E5", 1.0, 3)], baseline, tolerance=tolerance
            )


def _run_module(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        timeout=300,
    )


class TestBenchCompareExitCodes:
    """One E5 dry run per scenario (E5 is the fastest registered bench)."""

    def test_write_baseline_then_compare_passes(self, tmp_path):
        baseline_path = tmp_path / "perf_baseline.json"
        write = _run_module(
            "bench",
            "E5",
            "--write-baseline",
            str(baseline_path),
            "--output-dir",
            str(tmp_path / "write"),
        )
        assert write.returncode == 0, write.stderr
        baseline = load_baseline(baseline_path)
        assert "E5" in baseline.experiments

        compare = _run_module(
            "bench",
            "E5",
            "--compare",
            str(baseline_path),
            "--tolerance",
            "20.0",
            "--compare-output",
            str(tmp_path / "PERF_COMPARE.json"),
            "--output-dir",
            str(tmp_path / "compare"),
        )
        assert compare.returncode == 0, compare.stderr
        assert "bench perf OK" in compare.stderr
        report = json.loads((tmp_path / "PERF_COMPARE.json").read_text())
        assert report["ok"] is True
        assert report["regressions"] == []

    def test_compare_fails_a_slowed_kernel_dry_run(self, tmp_path):
        # Simulate a 1000x kernel slowdown by shrinking the blessed
        # seconds instead of actually slowing the code: the gate only
        # sees the ratio, so the exit path is identical.
        baseline_path = tmp_path / "perf_baseline.json"
        write = _run_module(
            "bench",
            "E5",
            "--write-baseline",
            str(baseline_path),
            "--output-dir",
            str(tmp_path / "write"),
        )
        assert write.returncode == 0, write.stderr
        payload = json.loads(baseline_path.read_text())
        for entry in payload["experiments"].values():
            entry["seconds"] /= 1000.0
        baseline_path.write_text(json.dumps(payload))

        compare = _run_module(
            "bench",
            "E5",
            "--compare",
            str(baseline_path),
            "--tolerance",
            "1.5",
            "--compare-output",
            str(tmp_path / "PERF_COMPARE.json"),
            "--output-dir",
            str(tmp_path / "compare"),
        )
        assert compare.returncode == 1
        assert "PERF REGRESSION" in compare.stderr
        report = json.loads((tmp_path / "PERF_COMPARE.json").read_text())
        assert report["ok"] is False
        assert report["regressions"] == ["E5"]

    def test_missing_baseline_is_usage_error(self, tmp_path):
        compare = _run_module(
            "bench",
            "E5",
            "--compare",
            str(tmp_path / "absent.json"),
            "--output-dir",
            str(tmp_path / "out"),
        )
        assert compare.returncode == 2
        assert "not found" in compare.stderr

    def test_bad_tolerance_is_usage_error(self, tmp_path):
        baseline_path = tmp_path / "perf_baseline.json"
        PerfBaseline({"E5": {"seconds": 1.0, "configurations": 1}}).write(
            baseline_path
        )
        compare = _run_module(
            "bench",
            "E5",
            "--compare",
            str(baseline_path),
            "--tolerance",
            "-2",
            "--output-dir",
            str(tmp_path / "out"),
        )
        assert compare.returncode == 2
