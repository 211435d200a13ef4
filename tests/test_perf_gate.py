"""The pair gate of ``benchmarks/bench_perf_core.py``, fed synthetic passes.

A pass is one ``collect_metrics`` dict; ``gate(baseline, change,
tolerance)`` pairs ``baseline[i]`` with ``change[i]``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = (Path(__file__).resolve().parents[1] / "benchmarks"
          / "bench_perf_core.py")


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_perf_core", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def passes(**series):
    """``passes(a=[1, 2], b=[3, 4])`` is
    ``[{"a": 1, "b": 3}, {"a": 2, "b": 4}]``."""
    count = len(next(iter(series.values())))
    return [{name: values[i] for name, values in series.items()}
            for i in range(count)]


def rows(bench, baseline, change):
    return {row.metric: row for row in bench.gate(baseline, change, 0.30)}


class TestRelativeGate:
    def test_median_ratio_bound(self, bench):
        baseline = passes(gemm_point_s=[0.01] * 10)
        slow = rows(bench, baseline, passes(gemm_point_s=[0.0131] * 10))
        assert slow["gemm_point_s"].verdict == "FAIL"
        assert slow["gemm_point_s"].ratio == pytest.approx(1.31)
        assert slow["gemm_point_s"].won == (0, 10)
        ok = rows(bench, baseline, passes(gemm_point_s=[0.0129] * 10))
        assert ok["gemm_point_s"].verdict == "ok"
        assert ok["gemm_point_s"].ratio == pytest.approx(1.29)

    def test_higher_is_better_metrics_are_oriented(self, bench):
        assert "event_throughput_eps" in bench.HIGHER_IS_BETTER
        baseline = passes(event_throughput_eps=[1e6] * 10)
        fewer = rows(bench, baseline,
                     passes(event_throughput_eps=[1e6 / 1.31] * 10))
        assert fewer["event_throughput_eps"].verdict == "FAIL"
        assert fewer["event_throughput_eps"].ratio == pytest.approx(1.31)
        more = rows(bench, baseline,
                    passes(event_throughput_eps=[1.31e6] * 10))
        assert more["event_throughput_eps"].verdict == "ok"
        assert more["event_throughput_eps"].ratio == pytest.approx(1 / 1.31)
        assert more["event_throughput_eps"].won == (10, 10)

    def test_one_outlier_pair_does_not_flip_the_verdict(self, bench):
        baseline = passes(fig6_grid_s=[0.05] * 10)
        spike = rows(bench, baseline,
                     passes(fig6_grid_s=[0.05] * 9 + [0.5]))
        assert spike["fig6_grid_s"].verdict == "ok"
        assert spike["fig6_grid_s"].ratio == pytest.approx(1.0)
        lucky = rows(bench, baseline,
                     passes(fig6_grid_s=[0.07] * 9 + [0.005]))
        assert lucky["fig6_grid_s"].verdict == "FAIL"
        assert lucky["fig6_grid_s"].won == (1, 10)

    def test_ratios_are_taken_pair_by_pair(self, bench):
        # The host drifts 2x over the run; each pair shares its minutes.
        drift = [0.01 * (1 + i / 9) for i in range(10)]
        row = rows(bench, passes(snapshot_us=drift),
                   passes(snapshot_us=[v * 1.1 for v in drift]))
        assert row["snapshot_us"].ratio == pytest.approx(1.1)
        assert row["snapshot_us"].verdict == "ok"

    def test_metric_missing_from_the_baseline_is_ungated(self, bench):
        baseline = passes(gemm_point_s=[0.01] * 10)
        change = passes(gemm_point_s=[0.01] * 10, fig8_grid_s=[99.0] * 10)
        result = rows(bench, baseline, change)
        assert result["fig8_grid_s"].verdict == "ungated"
        assert result["fig8_grid_s"].baseline is None
        assert result["gemm_point_s"].verdict == "ok"
        # Without a baseline at all every relative metric is ungated.
        alone = rows(bench, [], change)
        assert {row.verdict for row in alone.values()} == {"ungated"}

    def test_metric_missing_from_this_tree_fails(self, bench):
        baseline = passes(gemm_point_s=[0.01] * 10, p2p_transfer_s=[1.0] * 10)
        result = rows(bench, baseline, passes(gemm_point_s=[0.01] * 10))
        assert result["p2p_transfer_s"].verdict == "FAIL"


class TestAbsoluteGates:
    def test_tracer_overhead_pools_every_difference(self, bench):
        # Six passes whose own median is 3%, four whose median is 0: the
        # median of per-pass medians would read 3%, the pooled 90 read 0.
        noisy = [0.03] * 5 + [-0.01] * 4
        change = passes(tracer_off_overhead=[noisy] * 6 + [[0.0] * 9] * 4)
        result = rows(bench, [], change)["tracer_off_overhead"]
        assert result.verdict == "ok"
        assert result.change[1] == 0.0
        over = passes(tracer_off_overhead=[[0.025] * 5 + [0.0] * 4] * 10)
        assert rows(bench, [], over)["tracer_off_overhead"].verdict == "FAIL"

    def test_tracer_overhead_clamps_at_zero_and_ignores_the_baseline(
            self, bench):
        baseline = passes(tracer_off_overhead=[[0.5] * 9] * 10)
        change = passes(tracer_off_overhead=[[-0.04] * 9] * 10)
        result = rows(bench, baseline, change)["tracer_off_overhead"]
        assert result.verdict == "ok"
        assert result.ratio is None
        assert "0.0000" in result.rule

    def test_coalesce_floor_reads_the_median(self, bench):
        broke = passes(serve_coalesce_x=[8.0] * 4 + [1.0] * 6)
        assert rows(bench, [], broke)["serve_coalesce_x"].verdict == "FAIL"
        mostly = passes(serve_coalesce_x=[8.0] * 6 + [1.0] * 4)
        assert rows(bench, [], mostly)["serve_coalesce_x"].verdict == "ok"


class TestRecord:
    def test_schema_2_quartiles_per_mode(self, bench, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"schema": 1, "quick": {"after": {}}}))
        quick = passes(gemm_point_s=[float(v) for v in range(1, 11)],
                       tracer_off_overhead=[[0.0, 0.01]] * 10)
        bench.record(path, "quick", quick)
        bench.record(path, "full", passes(gemm_point_s=[2.0] * 10))
        doc = json.loads(path.read_text())
        assert doc["schema"] == 2
        assert doc["meta"]["passes"] == 10
        assert doc["quick"]["gemm_point_s"] == [3.25, 5.5, 7.75]
        assert doc["quick"]["tracer_off_overhead"] == [0.0, 0.005, 0.01]
        assert doc["full"] == {"gemm_point_s": [2.0, 2.0, 2.0]}
        assert set(doc) == {"schema", "meta", "quick", "full"}
