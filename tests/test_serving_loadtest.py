"""Load-test harness tests: determinism, batching wins, budget safety.

The acceptance bar for the serving PR lives here: identical reports
across runs (modulo wall-clock fields), a ≥5× batching speedup at 1 000
simulated clients, and zero tenant over-spend under every workload.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.exceptions import ValidationError
from repro.serving import (
    LOADTEST_SCHEMA_VERSION,
    LoadTestSpec,
    deterministic_view,
    measure_speedup,
    run_loadtest,
    validate_report,
    write_report,
)

SMOKE = LoadTestSpec(
    loadtest_id="smoke", clients=16, requests_per_client=4, tenants=3, seed=7
)


class TestDeterminism:
    def test_reports_are_bit_identical_modulo_wall_clock(self):
        first = run_loadtest(SMOKE)
        second = run_loadtest(SMOKE)
        assert deterministic_view(first) == deterministic_view(second)
        # Wall-clock fields exist but are excluded from the comparison.
        assert "seconds" in first["wall_clock"]

    def test_seed_changes_the_outputs(self):
        import dataclasses

        first = run_loadtest(SMOKE)
        second = run_loadtest(dataclasses.replace(SMOKE, seed=8))
        assert (
            first["deterministic"]["outputs_digest"]
            != second["deterministic"]["outputs_digest"]
        )

    def test_batched_and_unbatched_serve_identical_outputs(self):
        """Coalescing is invisible: the stream-equivalence contract makes
        the batched fleet's outputs bit-identical to unbatched serving.

        One request per client, so the submission order — and hence the
        order each tenant's stream is consumed in — is the same in both
        modes. (Multi-round clients pace their *later* submissions by
        completion times, which batching legitimately shifts; the
        per-batch equivalence for a fixed arrival order is pinned down in
        the service-level suite.)"""
        import dataclasses

        single_round = dataclasses.replace(
            SMOKE, clients=64, requests_per_client=1
        )
        batched, unbatched, _ = measure_speedup(single_round)
        assert (
            batched["deterministic"]["outputs_digest"]
            == unbatched["deterministic"]["outputs_digest"]
        )
        assert (
            batched["deterministic"]["outcomes"]
            == unbatched["deterministic"]["outcomes"]
        )


class TestBatchingThroughput:
    def test_batching_wins_5x_at_1000_clients(self):
        """The acceptance criterion: coalescing must buy ≥5× throughput
        on a mechanism whose batch kernel amortizes per-release work
        (the exponential mechanism tilts once per flush)."""
        spec = LoadTestSpec(
            loadtest_id="throughput",
            clients=1000,
            requests_per_client=1,
            tenants=4,
            seed=3,
            mechanism="exponential",
            candidates=256,
            epsilon=0.05,
            budget_epsilon=100.0,
            mean_think=0.01,
            flush_window=0.05,
            max_batch=1024,
        )
        batched, unbatched, speedup = measure_speedup(spec)
        assert speedup >= 5.0, (
            f"batching only bought {speedup:.2f}x "
            f"(batched {batched['wall_clock']['seconds']:.4f}s, "
            f"unbatched {unbatched['wall_clock']['seconds']:.4f}s)"
        )
        # Far fewer flushes, same releases.
        assert (
            batched["deterministic"]["serving"]["flushes"]
            < unbatched["deterministic"]["serving"]["flushes"] / 5
        )
        assert (
            batched["deterministic"]["serving"]["released"]
            == unbatched["deterministic"]["serving"]["released"]
            == 1000
        )


class TestBudgetSafety:
    def test_zero_over_spend_even_under_refusal_pressure(self):
        """Demand exceeding every tenant budget must produce refusals,
        never overshoot."""
        spec = LoadTestSpec(
            loadtest_id="pressure",
            clients=8,
            requests_per_client=20,
            tenants=2,
            seed=5,
            epsilon=0.05,
            budget_epsilon=1.0,
            shards=4,
        )
        report = run_loadtest(spec)
        deterministic = report["deterministic"]
        assert deterministic["serving"]["refusals"] > 0
        assert deterministic["outcomes"]["refused"] > 0
        for tenant in deterministic["tenants"]:
            assert not tenant["over_spend"]
            assert tenant["spent_epsilon"] <= tenant["budget_epsilon"] * (
                1 + 1e-9
            )

    def test_timeouts_refund_everything(self):
        """A timeout shorter than the flush window abandons every queued
        request; all reservations must roll back to zero spend."""
        spec = LoadTestSpec(
            loadtest_id="timeouts",
            clients=6,
            requests_per_client=2,
            tenants=2,
            seed=9,
            mean_think=0.0,
            flush_window=0.5,
            request_timeout=0.01,
        )
        report = run_loadtest(spec)
        deterministic = report["deterministic"]
        assert deterministic["outcomes"] == {"timeout": 12}
        assert deterministic["serving"]["timeouts"] == 12
        assert deterministic["serving"]["released"] == 0
        for tenant in deterministic["tenants"]:
            assert tenant["spent_epsilon"] == 0.0


class TestReportSchema:
    def test_write_and_validate_roundtrip(self, tmp_path):
        report = run_loadtest(SMOKE)
        path = write_report(report, tmp_path)
        assert path.name == "LOADTEST_smoke.json"
        loaded = json.loads(path.read_text())
        validate_report(loaded)
        assert loaded["schema_version"] == LOADTEST_SCHEMA_VERSION
        assert deterministic_view(loaded) == deterministic_view(report)

    def test_validate_rejects_malformed_reports(self):
        with pytest.raises(ValidationError, match="must be a dict"):
            validate_report([])
        with pytest.raises(ValidationError, match="missing keys"):
            validate_report({"schema_version": LOADTEST_SCHEMA_VERSION})
        report = run_loadtest(SMOKE)
        report["schema_version"] = 99
        with pytest.raises(ValidationError, match="schema_version"):
            validate_report(report)
        report["schema_version"] = LOADTEST_SCHEMA_VERSION
        del report["deterministic"]["outcomes"]
        with pytest.raises(ValidationError, match="missing keys"):
            validate_report(report)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            LoadTestSpec(clients=0)
        with pytest.raises(ValidationError):
            LoadTestSpec(mechanism="gaussian")
        with pytest.raises(ValidationError):
            LoadTestSpec(mean_think=-1.0)
        with pytest.raises(ValidationError):
            run_loadtest({"clients": 4})
        for bad_id in ("", "../x", "a/b", "a\\b", ".hidden", "-x", "a b", 7):
            with pytest.raises(ValidationError, match="loadtest_id"):
                LoadTestSpec(loadtest_id=bad_id)
        for good_id in ("smoke", "a", "run-2.v1_b"):
            assert LoadTestSpec(loadtest_id=good_id).loadtest_id == good_id


class TestCli:
    def test_loadtest_writes_report_and_exits_zero(self, tmp_path, capsys):
        code = main(
            [
                "loadtest", "--id", "cli", "--clients", "8", "--seed", "2",
                "--output-dir", str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "LOADTEST_cli.json").read_text())
        validate_report(payload)
        err = capsys.readouterr().err
        assert "LOADTEST_cli.json" in err

    def test_loadtest_id_with_path_separator_exits_two(self, tmp_path, capsys):
        code = main(["loadtest", "--id", "../x", "--output-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("loadtest: loadtest_id must match")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_serve_demo_exits_zero(self, capsys):
        code = main(
            [
                "serve", "--clients", "4", "--requests-per-client", "2",
                "--mean-think", "0.001", "--flush-window", "0.005",
            ]
        )
        assert code == 0
        assert "Serving demo" in capsys.readouterr().out
