"""Smoke tests for the experiment harness (tiny configurations).

These tests verify that every figure's ``run()`` produces structurally valid
results and that the cheap, deterministic claims (capacity gain > 1, monotone
trade-off, analytic validation) hold.  The full-size reproductions live in the
benchmark suite.
"""

import pytest

from repro.experiments import (
    fig1_phases,
    fig3_tradeoff,
    fig5_traffic,
    fig7_ablation,
    fig8_slo_sweep,
    runtime_overhead,
    validation,
)
from repro.experiments.common import format_table, off_peak_mean_workers, run_system
from repro.scenarios import SweepRunner
from repro.workloads import constant_trace
from repro.zoo import traffic_analysis_pipeline


class TestCommonHelpers:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_run_system_rejects_unknown_system(self):
        pipeline = traffic_analysis_pipeline()
        with pytest.raises(KeyError):
            run_system("clipper", pipeline, constant_trace(10.0, 5))

    def test_off_peak_ignores_zero_demand_intervals(self, small_pipeline):
        run = run_system(
            "loki",
            small_pipeline,
            constant_trace(30.0, 8),
            num_workers=10,
            slo_ms=150.0,
            seed=1,
        )
        assert off_peak_mean_workers(run.summary) > 0


class TestFig1:
    def test_capacity_gain_exceeds_one(self):
        result = fig1_phases.run(num_points=5)
        assert result.hardware_capacity_qps > 0
        assert result.max_capacity_qps > result.hardware_capacity_qps
        assert result.capacity_gain_max > 1.5
        assert 0.0 <= result.accuracy_drop_max <= 1.0

    def test_phases_ordered(self):
        result = fig1_phases.run(num_points=6)
        # Phase index must be non-decreasing as demand grows.
        phases = [p.phase for p in sorted(result.points, key=lambda p: p.demand_qps)]
        assert phases == sorted(phases)
        # Phase 1 points are hardware mode with full accuracy.
        for point in result.points:
            if point.phase == 1:
                assert point.system_accuracy == pytest.approx(1.0, abs=1e-6)

    def test_parallel_sweep_reproduces_serial_results(self):
        """Fanning the demand points across processes must not change them."""
        serial = fig1_phases.run(num_points=5, sweep_runner=SweepRunner(parallel=False))
        parallel = fig1_phases.run(num_points=5, sweep_runner=SweepRunner(max_workers=2, parallel=True))
        assert serial.points == parallel.points
        assert serial.hardware_capacity_qps == parallel.hardware_capacity_qps
        assert serial.max_capacity_qps == parallel.max_capacity_qps


class TestFig3:
    def test_tradeoff_is_monotone(self):
        result = fig3_tradeoff.run()
        assert result.is_monotone_tradeoff
        assert result.throughput_range > 3.0
        assert len(result.points) == 8

    def test_custom_batch_size(self):
        result = fig3_tradeoff.run(batch_size=1)
        assert all(p.latency_ms > 0 for p in result.points)


class TestFig5Smoke:
    @pytest.mark.slow
    def test_loki_beats_baselines_on_short_trace(self):
        result = fig5_traffic.run(duration_s=45, num_workers=12)
        loki = result.runs["loki"].slo_violation_ratio
        proteus = result.runs["proteus"].slo_violation_ratio
        inferline = result.runs["inferline"].slo_violation_ratio
        assert loki <= proteus
        assert loki <= inferline
        assert result.effective_capacity_gain > 1.5


class TestFig7Smoke:
    @pytest.mark.slow
    def test_all_policies_evaluated(self):
        result = fig7_ablation.run(duration_s=30, num_workers=12)
        assert set(result.violation_ratio) == set(fig7_ablation.ABLATION_ORDER)
        assert all(0.0 <= v <= 1.0 for v in result.violation_ratio.values())
        assert result.best_policy in result.violation_ratio

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError):
            fig7_ablation.run(duration_s=10, policies=["teleportation"])


class TestFig8:
    def test_min_feasible_slo_is_positive(self):
        value = fig8_slo_sweep.min_feasible_slo_ms()
        assert value > 0

    @pytest.mark.slow
    def test_sweep_structure(self):
        result = fig8_slo_sweep.run(slos_ms=(250.0, 400.0), duration_s=30, num_workers=12)
        assert len(result.points) == 2
        assert result.points[0].slo_ms == 250.0
        assert all(0.0 <= p.slo_violation_ratio <= 1.0 for p in result.points)

    @pytest.mark.slow
    def test_parallel_sweep_reproduces_serial_results(self):
        """The SweepRunner fan-out must not change the figure's numbers."""
        kwargs = dict(slos_ms=(250.0, 300.0), duration_s=20, num_workers=12, seed=5)
        serial = fig8_slo_sweep.run(sweep_runner=SweepRunner(parallel=False), **kwargs)
        parallel = fig8_slo_sweep.run(sweep_runner=SweepRunner(max_workers=2, parallel=True), **kwargs)
        assert serial.points == parallel.points


class TestValidation:
    def test_simulator_close_to_analytic_plan(self):
        result = validation.run(demands_qps=(120.0,), duration_s=12)
        assert result.mean_accuracy_difference < 0.05
        assert result.mean_violation_ratio < 0.2
        point = result.points[0]
        assert point.predicted_workers > 0
        assert point.measured_workers > 0


class TestRuntimeOverhead:
    def test_means_average_over_pipelines(self):
        result = runtime_overhead.RuntimeResult(
            resource_manager_ms={"a": 100.0, "b": 300.0},
            load_balancer_ms={"a": 0.1, "b": 0.3},
            demands_qps={"a": [10.0], "b": [20.0]},
        )
        assert result.mean_resource_manager_ms == pytest.approx(200.0)
        assert result.mean_load_balancer_ms == pytest.approx(0.2)
        empty = runtime_overhead.RuntimeResult({}, {}, {})
        assert empty.mean_resource_manager_ms == 0.0 and empty.mean_load_balancer_ms == 0.0

    def test_runtimes_measured(self):
        result = runtime_overhead.run(demand_fractions=(0.4,), repeats=1)
        assert result.mean_resource_manager_ms > 0
        # The Load Balancer must be orders of magnitude faster than the MILP.
        assert result.mean_load_balancer_ms < result.mean_resource_manager_ms / 10
        assert set(result.resource_manager_ms) == {"traffic_analysis", "social_media"}

    def test_report_prints_both_runtimes_per_pipeline(self, capsys):
        result = runtime_overhead.main(demand_fractions=(0.4,), repeats=1)
        report = capsys.readouterr().out
        for name in ("traffic_analysis", "social_media"):
            assert name in report
        assert f"mean Resource Manager runtime: {result.mean_resource_manager_ms:.1f} ms" in report
        assert f"mean Load Balancer runtime:    {result.mean_load_balancer_ms:.3f} ms" in report
