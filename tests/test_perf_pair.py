"""The paired perf gate's verdict, judged on synthetic perfbench lines.

``tools/perf_pair.py`` is a script, not part of the package, so it is
loaded by path. Nothing here runs the real benchmark: the verdict is a
pure function of ``BENCHMARK.json`` and the JSON lines of each run.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "perf_pair", REPO_ROOT / "tools" / "perf_pair.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


perf_pair = _load_tool()


def _line(run_s=8.0, work_per_s=2.0, failed=0, attempted=12, correct=True,
          **metrics):
    """One perfbench JSON line; other metrics default to 1.0."""
    values = {"setup_s": 1.0, "run_s": run_s, "work_per_s": work_per_s,
              "peak_rss_mb": 100.0, **metrics}
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": "x"}
                    for name, value in values.items()},
    })


def _judge(base_line, head_line, workloads=WORKLOADS):
    """Judge ``PAIRS`` copies of one line per side on every workload."""
    runs = {
        workload: {
            "base": [json.loads(base_line)] * perf_pair.PAIRS,
            "head": [json.loads(head_line)] * perf_pair.PAIRS,
        }
        for workload in workloads
    }
    return perf_pair.judge(SPEC, runs)


class TestVerdict:
    def test_identical_runs_pass(self):
        verdict = _judge(_line(), _line())
        assert verdict["exit"] == 0
        assert verdict["failures"] == []
        assert len(verdict["rows"]) == len(WORKLOADS) * len(SPEC["end_to_end"])

    def test_worse_than_bound_fails_and_names_the_metric(self):
        # run_s bound is 0.25: 8.0 -> 10.5 is +31 %.
        verdict = _judge(_line(run_s=8.0), _line(run_s=10.5))
        assert verdict["exit"] == 1
        assert any(text.startswith("audit/run_s:")
                   for text in verdict["failures"])

    def test_exactly_at_bound_passes(self):
        verdict = _judge(_line(run_s=8.0), _line(run_s=10.0))
        assert verdict["exit"] == 0
        (row,) = [row for row in verdict["rows"]
                  if row["workload"] == "audit" and row["metric"] == "run_s"]
        assert row["worse_by"] == 0.25

    def test_higher_is_better_for_work_per_s(self):
        faster = _judge(_line(work_per_s=2.0), _line(work_per_s=4.0))
        assert faster["exit"] == 0
        slower = _judge(_line(work_per_s=2.0), _line(work_per_s=1.0))
        assert slower["exit"] == 1
        assert any("/work_per_s:" in text for text in slower["failures"])

    def test_larger_failed_share_fails_even_when_every_metric_improves(self):
        verdict = _judge(
            _line(failed=0),
            _line(run_s=4.0, work_per_s=4.0, setup_s=0.5, peak_rss_mb=50.0,
                  failed=1),
        )
        assert all(row["ok"] for row in verdict["rows"])
        assert verdict["exit"] == 1
        assert any("failed share" in text for text in verdict["failures"])

    def test_failed_correctness_check_in_the_change_fails(self):
        verdict = _judge(_line(), _line(correct=False))
        assert verdict["exit"] == 1
        assert any("correctness check" in text
                   for text in verdict["failures"])

    def test_faster_on_every_metric_passes(self):
        verdict = _judge(
            _line(),
            _line(run_s=4.0, work_per_s=4.0, setup_s=0.5, peak_rss_mb=50.0),
        )
        assert verdict["exit"] == 0
        assert all(row["worse_by"] < 0 for row in verdict["rows"])

    def test_median_ignores_one_outlier_run(self):
        runs = {workload: {"base": [json.loads(_line())] * 5,
                           "head": [json.loads(_line())] * 4
                           + [json.loads(_line(run_s=800.0))]}
                for workload in WORKLOADS}
        assert perf_pair.judge(SPEC, runs)["exit"] == 0

    def test_missing_workload_is_an_error(self):
        verdict = _judge(_line(), _line(), workloads=WORKLOADS[:-1])
        assert verdict["exit"] == 2
        assert verdict["errors"]

    def test_missing_metric_is_an_error(self):
        head = json.loads(_line())
        del head["metrics"]["peak_rss_mb"]
        verdict = _judge(_line(), json.dumps(head))
        assert verdict["exit"] == 2
        assert "peak_rss_mb" in verdict["errors"][0]


class TestMain:
    def _checkout(self, tmp_path, name, command):
        checkout = tmp_path / name
        checkout.mkdir()
        spec = {**SPEC, "workloads": SPEC["workloads"][:1],
                "command": command}
        (checkout / "BENCHMARK.json").write_text(json.dumps(spec))
        return checkout

    def test_paired_runs_end_in_one_json_verdict(self, tmp_path, capsys):
        command = [sys.executable, "-c", f"print({_line()!r})"]
        base = self._checkout(tmp_path, "base", command)
        head = self._checkout(tmp_path, "head", command)
        assert perf_pair.main([str(base), str(head)]) == 0
        out = capsys.readouterr()
        verdict = json.loads(out.out.strip().splitlines()[-1])
        assert verdict["exit"] == 0
        assert out.err.count(" base: ") == perf_pair.PAIRS
        assert out.err.count(" head: ") == perf_pair.PAIRS

    def test_run_without_json_line_exits_two(self, tmp_path, capsys):
        command = [sys.executable, "-c", "print('no json here')"]
        base = self._checkout(tmp_path, "base", command)
        head = self._checkout(tmp_path, "head", command)
        assert perf_pair.main([str(base), str(head)]) == 2
        verdict = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert "no JSON line" in verdict["errors"][0]

    def test_run_that_cannot_start_exits_two(self, tmp_path, capsys):
        command = [str(tmp_path / "missing-interpreter")]
        base = self._checkout(tmp_path, "base", command)
        head = self._checkout(tmp_path, "head", command)
        assert perf_pair.main([str(base), str(head)]) == 2
        verdict = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert "missing-interpreter" in verdict["errors"][0]

    def test_missing_benchmark_json_exits_two(self, tmp_path, capsys):
        assert perf_pair.main([str(tmp_path), str(tmp_path)]) == 2
        verdict = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert "BENCHMARK.json" in verdict["errors"][0]

    def test_wrong_argument_count_exits_two(self, capsys):
        assert perf_pair.main(["only-one"]) == 2
        assert "usage" in capsys.readouterr().err
