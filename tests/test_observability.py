"""Unit tests for repro.observability: spans, metrics, events, export, sinks.

The tracing-equivalence guarantees (bit-identical mechanism outputs with
tracing on/off, accountant–ledger agreement) live in
``test_observability_equivalence.py``; this file covers the subsystem
itself: span nesting, counter accuracy, the event vocabulary, the JSON
schema round-trip, the sinks, and the near-zero-cost disabled path.
"""

from __future__ import annotations

import io
import json
import time

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.mechanisms import LaplaceMechanism
from repro.mechanisms import base as mechanisms_base
from repro.observability import (
    BudgetChargeEvent,
    BudgetRefusalEvent,
    CalibrationEvent,
    ConsoleSink,
    FileSink,
    HistogramSummary,
    LedgerEvent,
    MechanismReleaseEvent,
    MetricSet,
    TRACE_SCHEMA_VERSION,
    Tracer,
    activate,
    current,
    deactivate,
    event_from_dict,
    ledger_totals,
    load_trace,
    render_trace,
    tracing,
    validate_trace,
    write_trace,
)
from repro.observability import tracer as tracer_module


class TestSpans:
    def test_nesting_parent_ids(self):
        tracer = Tracer("t")
        with tracer.span("outer"):
            with tracer.span("inner-1"):
                pass
            with tracer.span("inner-2"):
                with tracer.span("leaf"):
                    pass
        names = {s.name: s for s in tracer.spans}
        assert names["outer"].parent_id is None
        assert names["inner-1"].parent_id == names["outer"].span_id
        assert names["inner-2"].parent_id == names["outer"].span_id
        assert names["leaf"].parent_id == names["inner-2"].span_id

    def test_span_ids_are_start_ordered(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert [s.span_id for s in tracer.spans] == [1, 2]

    def test_durations_measured_and_closed(self):
        tracer = Tracer()
        with tracer.span("timed"):
            time.sleep(0.01)
        (span,) = tracer.spans
        assert span.seconds is not None
        assert span.seconds >= 0.009

    def test_open_span_has_no_duration(self):
        tracer = Tracer()
        with tracer.span("open"):
            assert tracer.spans[0].seconds is None
            assert tracer.active_span is tracer.spans[0]
        assert tracer.active_span is None

    def test_span_closed_even_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert tracer.spans[0].seconds is not None
        assert tracer.active_span is None

    def test_attributes_stored(self):
        tracer = Tracer()
        with tracer.span("s", mechanism="Laplace", n=3):
            pass
        assert tracer.spans[0].attributes == {"mechanism": "Laplace", "n": 3}


class TestMetrics:
    def test_counter_accuracy(self):
        metrics = MetricSet()
        for _ in range(7):
            metrics.count("hits")
        metrics.count("hits", 3)
        assert metrics.counter("hits") == 10
        assert metrics.counter("never") == 0

    def test_counter_rejects_non_finite(self):
        metrics = MetricSet()
        with pytest.raises(ValidationError):
            metrics.count("x", float("nan"))

    def test_histogram_summary(self):
        h = HistogramSummary()
        for value in (3.0, 1.0, 2.0):
            h.observe(value)
        assert h.count == 3
        assert h.total == 6.0
        assert h.minimum == 1.0
        assert h.maximum == 3.0
        assert h.mean == 2.0

    def test_empty_histogram_serializes_null_extremes(self):
        assert HistogramSummary().to_dict() == {
            "count": 0,
            "total": 0.0,
            "min": None,
            "max": None,
        }

    def test_observe_rejects_non_finite(self):
        metrics = MetricSet()
        with pytest.raises(ValidationError):
            metrics.observe("x", float("inf"))

    def test_to_dict_sorted_and_lazy(self):
        metrics = MetricSet()
        metrics.count("zeta")
        metrics.count("alpha")
        metrics.observe("lat", 0.5)
        payload = metrics.to_dict()
        assert list(payload["counters"]) == ["alpha", "zeta"]
        assert payload["histograms"]["lat"]["count"] == 1


class TestEvents:
    def test_round_trip_every_kind(self):
        events = [
            MechanismReleaseEvent(label="L", epsilon=0.5, mechanism="L"),
            BudgetChargeEvent(
                label="c", epsilon=0.25, delta=1e-6, remaining_epsilon=0.75
            ),
            BudgetRefusalEvent(label="r", epsilon=9.0, remaining_epsilon=0.1),
            CalibrationEvent(
                label="t", epsilon=1.0, temperature=2.0, loss_range=1.0, n=4
            ),
        ]
        for event in events:
            assert event_from_dict(event.to_dict()) == event

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            event_from_dict({"kind": "mystery", "label": "x", "epsilon": 1.0})

    def test_extra_fields_rejected(self):
        payload = MechanismReleaseEvent(label="L", epsilon=0.5).to_dict()
        payload["surprise"] = 1
        with pytest.raises(ValidationError):
            event_from_dict(payload)

    def test_ledger_totals_sums_charges_only(self):
        events = [
            BudgetChargeEvent(label="a", epsilon=0.5, delta=1e-7),
            MechanismReleaseEvent(label="b", epsilon=99.0),
            BudgetChargeEvent(label="c", epsilon=0.25),
            BudgetRefusalEvent(label="d", epsilon=5.0),
        ]
        epsilon, delta = ledger_totals(events)
        assert epsilon == 0.75
        assert delta == 1e-7

    def test_ledger_totals_accepts_dict_forms_and_kind_filter(self):
        events = [
            BudgetChargeEvent(label="a", epsilon=0.5).to_dict(),
            MechanismReleaseEvent(label="b", epsilon=0.25).to_dict(),
        ]
        epsilon, _ = ledger_totals(events, kinds=("charge", "release"))
        assert epsilon == 0.75

    def test_events_are_frozen(self):
        event = BudgetChargeEvent(label="a", epsilon=0.5)
        with pytest.raises(AttributeError):
            event.epsilon = 1.0


class TestTracerLedger:
    def test_record_requires_ledger_event(self):
        tracer = Tracer()
        with pytest.raises(ValidationError):
            tracer.record({"kind": "charge"})

    def test_recorded_events_export_in_order(self):
        tracer = Tracer()
        tracer.record(BudgetChargeEvent(label="a", epsilon=0.5))
        tracer.record(BudgetChargeEvent(label="b", epsilon=0.25))
        payload = tracer.to_dict()
        assert [e["label"] for e in payload["ledger"]] == ["a", "b"]


class TestActivation:
    def test_disabled_by_default(self):
        assert current() is None

    def test_tracing_context_restores_previous(self):
        outer = Tracer("outer")
        with tracing(outer):
            assert current() is outer
            inner = Tracer("inner")
            with tracing(inner):
                assert current() is inner
            assert current() is outer
        assert current() is None

    def test_tracing_creates_fresh_tracer_when_omitted(self):
        with tracing() as tracer:
            assert current() is tracer
        assert current() is None

    def test_activate_deactivate(self):
        tracer = Tracer()
        assert activate(tracer) is None
        try:
            assert current() is tracer
        finally:
            assert deactivate() is tracer
        assert current() is None

    def test_activate_rejects_non_tracer(self):
        with pytest.raises(ValidationError):
            activate("not a tracer")

    def test_module_helpers_are_noops_when_disabled(self):
        with tracer_module.span("nothing") as opened:
            assert opened is None
        tracer_module.record(BudgetChargeEvent(label="x", epsilon=1.0))
        assert current() is None

    def test_module_helpers_delegate_when_active(self):
        with tracing() as tracer:
            with tracer_module.span("s") as opened:
                assert opened is tracer.spans[0]
            tracer_module.record(BudgetChargeEvent(label="x", epsilon=1.0))
        assert len(tracer.events) == 1


class TestExportSchema:
    def _trace(self):
        tracer = Tracer("unit")
        with tracer.span("outer", kind="test"):
            with tracer.span("inner"):
                pass
        tracer.count("mechanism.releases", 3)
        tracer.observe("latency", 0.5)
        tracer.record(BudgetChargeEvent(label="c", epsilon=0.5))
        return tracer

    def test_json_round_trip(self, tmp_path):
        # Capture one document: `seconds` is live, so to_dict() varies.
        payload = validate_trace(self._trace().to_dict())
        path = write_trace(payload, tmp_path / "deep" / "trace.json")
        loaded = load_trace(path)
        assert loaded == payload
        assert loaded["schema_version"] == TRACE_SCHEMA_VERSION
        assert loaded["counters"]["mechanism.releases"] == 3
        assert [e["kind"] for e in loaded["ledger"]] == ["charge"]

    def test_validate_rejects_wrong_version(self):
        payload = self._trace().to_dict()
        payload["schema_version"] = 99
        with pytest.raises(ValidationError):
            validate_trace(payload)

    def test_validate_rejects_missing_keys(self):
        payload = self._trace().to_dict()
        del payload["ledger"]
        with pytest.raises(ValidationError):
            validate_trace(payload)

    def test_validate_rejects_unknown_span_parent(self):
        payload = self._trace().to_dict()
        payload["spans"][1]["parent_id"] = 777
        with pytest.raises(ValidationError):
            validate_trace(payload)

    def test_validate_rejects_malformed_ledger_entry(self):
        payload = self._trace().to_dict()
        payload["ledger"].append({"kind": "charge"})
        with pytest.raises(ValidationError):
            validate_trace(payload)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            load_trace(tmp_path / "nope.json")

    def test_load_rejects_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValidationError):
            load_trace(bad)

    def test_render_mentions_spans_and_totals(self):
        text = render_trace(self._trace())
        assert "outer" in text
        assert "inner" in text
        assert "mechanism.releases" in text
        assert "ε=0.5" in text


class TestSinks:
    def test_console_sink_writes_summary(self):
        tracer = Tracer("sinky")
        with tracer.span("work"):
            pass
        stream = io.StringIO()
        ConsoleSink(stream).emit(tracer)
        assert "sinky" in stream.getvalue()
        assert "work" in stream.getvalue()

    def test_file_sink_writes_valid_document(self, tmp_path):
        tracer = Tracer()
        tracer.record(BudgetChargeEvent(label="a", epsilon=0.5))
        path = FileSink(tmp_path / "out" / "t.json").emit(tracer)
        payload = json.loads(path.read_text())
        assert validate_trace(payload) == payload


class TestDisabledOverhead:
    def test_disabled_hook_reads_tracer_once_and_records_nothing(
        self, monkeypatch
    ):
        """With tracing off, a release costs the hook one ``current()`` read.

        No span, counter, histogram or ledger event is touched or built,
        on ``release`` or ``release_many``. This is the exact form of the
        near-zero disabled overhead; ``tools/hook_overhead.py`` reports
        the wall-clock ratio, which depends on the host.
        """
        assert current() is None
        calls = []
        real_current = tracer_module.current

        def counting_current():
            calls.append("current")
            return real_current()

        def spy(name):
            return lambda *args, **kwargs: calls.append(name)

        monkeypatch.setattr(tracer_module, "current", counting_current)
        for name in ("span", "record", "count", "observe"):
            monkeypatch.setattr(Tracer, name, spy(f"Tracer.{name}"))
        for name in ("span", "record", "activate"):
            monkeypatch.setattr(tracer_module, name, spy(name))
        monkeypatch.setattr(
            mechanisms_base, "MechanismReleaseEvent", spy("event")
        )
        mechanism = LaplaceMechanism(
            lambda d: float(np.log1p(np.abs(d)).sum()), 1.0, 1.0
        )
        mechanism.release(np.ones(64), random_state=0)
        assert calls == ["current"]
        calls.clear()
        mechanism.release_many(np.ones(64), 5, random_state=0)
        assert calls == ["current"]
