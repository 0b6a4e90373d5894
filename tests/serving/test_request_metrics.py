"""Tests for request records and serving metrics."""

import numpy as np
import pytest

from repro.serving.metrics import ClusterMetrics, PoolMetrics, ServingMetrics
from repro.serving.request import Request, Response, make_requests
from repro.workloads.video import make_video_workload


def make_response(request_id=0, latency=10.0, correct=True, dropped=False,
                  exited=False, queueing=2.0):
    return Response(request_id=request_id, arrival_ms=0.0, scheduled_ms=queueing,
                    completion_ms=latency, queueing_ms=queueing,
                    serving_ms=latency - queueing, latency_ms=latency,
                    batch_size=1, exited=exited, correct=correct, dropped=dropped)


def test_make_requests_pairs_trace_and_arrivals():
    workload = make_video_workload("urban-day", num_frames=50, seed=0)
    requests = make_requests(workload.trace, workload.arrival_times_ms, slo_ms=20.0)
    assert len(requests) == 50
    assert requests[10].sample.index == 10
    assert requests[10].deadline_ms() == pytest.approx(requests[10].arrival_ms + 20.0)


def test_make_requests_length_mismatch():
    workload = make_video_workload("urban-day", num_frames=50, seed=0)
    with pytest.raises(ValueError):
        make_requests(workload.trace, workload.arrival_times_ms[:10], slo_ms=20.0)


def test_response_met_slo():
    response = make_response(latency=15.0)
    assert response.met_slo(20.0)
    assert not response.met_slo(10.0)
    dropped = make_response(dropped=True)
    assert not dropped.met_slo(100.0)


class TestServingMetrics:
    def build(self):
        metrics = ServingMetrics()
        for i, (latency, correct, exited) in enumerate([
                (10.0, True, True), (20.0, True, False), (30.0, False, True),
                (40.0, True, False)]):
            metrics.add_response(make_response(i, latency, correct, exited=exited))
        metrics.add_response(make_response(99, 5.0, dropped=True))
        metrics.add_batch(12.0)
        metrics.add_batch(14.0)
        metrics.makespan_ms = 100.0
        return metrics

    def test_served_and_dropped_partition(self):
        metrics = self.build()
        assert len(metrics.served()) == 4
        assert len(metrics.dropped()) == 1
        assert metrics.drop_rate() == pytest.approx(1 / 5)

    def test_latency_summary(self):
        metrics = self.build()
        assert metrics.median_latency() == pytest.approx(25.0)
        assert metrics.p95_latency() == pytest.approx(np.percentile([10, 20, 30, 40], 95))

    def test_accuracy_and_exit_rate(self):
        metrics = self.build()
        assert metrics.accuracy() == pytest.approx(3 / 4)
        assert metrics.exit_rate() == pytest.approx(2 / 4)

    def test_throughput_and_batches(self):
        metrics = self.build()
        assert metrics.throughput_qps() == pytest.approx(1000.0 * 4 / 100.0)
        assert metrics.average_batch_size() == pytest.approx(2.0)
        assert metrics.gpu_utilization() == pytest.approx(26.0 / 100.0)

    def test_goodput_counts_only_slo_compliant(self):
        metrics = self.build()
        assert metrics.goodput_qps(25.0) == pytest.approx(1000.0 * 2 / 100.0)

    def test_slo_violation_rate(self):
        metrics = self.build()
        assert metrics.slo_violation_rate(25.0) == pytest.approx(0.5)

    def test_empty_metrics_are_benign(self):
        metrics = ServingMetrics()
        assert metrics.accuracy() == 1.0
        assert metrics.throughput_qps() == 0.0
        assert metrics.latency_summary()["count"] == 0

    def test_summary_keys(self):
        summary = self.build().summary()
        assert {"p25_ms", "p50_ms", "p95_ms", "p99_ms", "throughput_qps",
                "accuracy", "exit_rate", "avg_batch_size", "drop_rate"} <= set(summary)


class TestServingMetricsEdgeCases:
    def test_empty_run_summary_is_all_zero_and_safe(self):
        metrics = ServingMetrics()
        summary = metrics.summary()
        for key in ("p25_ms", "p50_ms", "p95_ms", "p99_ms", "mean_ms",
                    "throughput_qps", "avg_batch_size", "drop_rate", "num_served"):
            assert summary[key] == 0.0
        assert summary["accuracy"] == 1.0  # vacuous: no served requests
        assert metrics.exit_rate() == 0.0
        assert metrics.slo_violation_rate(10.0) == 0.0
        assert metrics.goodput_qps(10.0) == 0.0
        assert metrics.latencies().shape == (0,)

    def test_all_dropped_run(self):
        metrics = ServingMetrics()
        for i in range(5):
            metrics.add_response(make_response(i, latency=50.0, dropped=True))
        metrics.makespan_ms = 100.0
        assert metrics.drop_rate() == 1.0
        assert len(metrics.served()) == 0
        # Percentiles are computed over *served* responses only.
        summary = metrics.summary()
        assert summary["p50_ms"] == 0.0 and summary["p99_ms"] == 0.0
        assert summary["throughput_qps"] == 0.0
        assert metrics.goodput_qps(1000.0) == 0.0
        assert metrics.accuracy() == 1.0
        assert metrics.slo_violation_rate(10.0) == 0.0

    def test_single_response_run(self):
        metrics = ServingMetrics()
        metrics.add_response(make_response(0, latency=12.0))
        metrics.add_batch(10.0)
        metrics.makespan_ms = 12.0
        summary = metrics.summary()
        # Every percentile of a singleton distribution is that value.
        for key in ("p25_ms", "p50_ms", "p95_ms", "p99_ms", "mean_ms"):
            assert summary[key] == pytest.approx(12.0)
        assert summary["num_served"] == 1.0
        assert metrics.average_batch_size() == pytest.approx(1.0)
        assert metrics.throughput_qps() == pytest.approx(1000.0 / 12.0)

    def test_zero_makespan_guards(self):
        metrics = ServingMetrics()
        metrics.add_response(make_response(0, latency=12.0))
        assert metrics.throughput_qps() == 0.0
        assert metrics.gpu_utilization() == 0.0


class TestClusterMetrics:
    def build(self):
        replicas = []
        for offset in (0.0, 20.0):
            m = ServingMetrics()
            for i in range(4):
                m.add_response(make_response(int(offset) + i, latency=10.0 + offset + i))
            m.add_batch(30.0 + offset)
            m.makespan_ms = 80.0 + offset
            replicas.append(m)
        return ClusterMetrics(replicas=replicas,
                              pool=PoolMetrics(dispatch_counts=[4, 4]),
                              makespan_ms=120.0)

    def test_aggregate_merges_all_responses(self):
        cluster = self.build()
        agg = cluster.aggregate()
        assert len(agg.responses) == 8
        assert agg.num_batches == 2
        assert agg.gpu_busy_ms == pytest.approx(80.0)
        # Fleet throughput is measured on the global clock, not per-replica.
        assert agg.makespan_ms == pytest.approx(120.0)
        assert agg.throughput_qps() == pytest.approx(1000.0 * 8 / 120.0)

    def test_per_replica_vs_aggregate_consistency(self):
        cluster = self.build()
        agg = cluster.aggregate()
        assert len(agg.served()) == sum(len(m.served()) for m in cluster.replicas)
        assert agg.gpu_busy_ms == pytest.approx(sum(m.gpu_busy_ms for m in cluster.replicas))
        assert len(cluster.per_replica_summaries()) == 2

    def test_fleet_rollups(self):
        cluster = self.build()
        assert cluster.pool.num_replicas() == 2
        assert cluster.pool.dispatch_imbalance() == pytest.approx(1.0)
        # busy = 80ms over 2 replicas x 120ms of wall clock.
        assert cluster.fleet_gpu_utilization() == pytest.approx(80.0 / 240.0)
        summary = cluster.summary(slo_ms=15.0)
        assert summary["num_replicas"] == 2.0
        assert "fleet_goodput_qps" in summary and "fleet_slo_violation_rate" in summary
        # Requests with latency <= 15ms: 10,11,12,13 -> 4 of 8.
        assert cluster.aggregate().slo_violation_rate(15.0) == pytest.approx(0.5)
        assert summary["fleet_slo_violation_rate"] == pytest.approx(0.5)

    def test_empty_cluster_metrics(self):
        cluster = ClusterMetrics()
        assert cluster.aggregate().throughput_qps() == 0.0
        assert cluster.fleet_gpu_utilization() == 0.0
        assert cluster.pool.dispatch_imbalance() == 1.0

    def test_cluster_latency_summary_is_nan_safe_when_nothing_completes(self):
        """All-dropped or drained-to-empty runs report zeroed percentiles and
        count fields instead of raising or emitting NaN."""
        import math
        cluster = ClusterMetrics(replicas=[ServingMetrics(), ServingMetrics()],
                                 pool=PoolMetrics(dispatch_counts=[0, 0]),
                                 makespan_ms=100.0)
        aggregate = cluster.aggregate()
        summary = aggregate.latency_summary()
        assert summary == {"p25": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
                           "mean": 0.0, "count": 0}
        assert aggregate.p99_latency() == 0.0
        assert aggregate.median_latency() == 0.0
        assert all(math.isfinite(v) for v in cluster.summary().values())

    def test_latency_summary_filters_non_finite_samples(self):
        from repro.utils.stats import summarize_latencies
        summary = summarize_latencies([float("nan"), 10.0, float("inf"), 20.0])
        assert summary["count"] == 2
        assert summary["p50"] == pytest.approx(15.0)
        all_bad = summarize_latencies([float("nan")])
        assert all_bad["count"] == 0 and all_bad["p99"] == 0.0

    def test_merged_respects_explicit_makespan(self):
        a, b = ServingMetrics(), ServingMetrics()
        a.makespan_ms, b.makespan_ms = 50.0, 70.0
        assert ServingMetrics.merged([a, b]).makespan_ms == pytest.approx(70.0)
        assert ServingMetrics.merged([a, b], makespan_ms=90.0).makespan_ms == pytest.approx(90.0)
