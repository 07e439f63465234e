"""Benchmark harness: report structure and the inline equivalence check."""

import json

import pytest

from frn import head
from frn.bench import BenchConfig, run_benchmark


class TestBenchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(b=0)
        with pytest.raises(ValueError):
            BenchConfig(iterations=0)


class TestRunBenchmark:
    def test_small_run_produces_timings(self):
        cfg = BenchConfig(b=2, k=1, r=4, d=8, iterations=10, warmup=2, seed=0)
        report = run_benchmark(cfg)
        for timing in (report.direct, report.woodbury):
            assert timing.iterations == 10
            assert timing.median_ns > 0
            assert timing.p95_ns >= timing.median_ns
        assert report.equivalence_max_delta < 1e-4

    def test_f64_equivalence_is_tight(self):
        cfg = BenchConfig(b=2, k=2, r=3, d=10, iterations=5, warmup=1,
                          precision="f64", seed=1)
        report = run_benchmark(cfg)
        assert report.equivalence_max_delta <= 1e-10

    def test_report_serialization(self):
        cfg = BenchConfig(b=1, k=1, r=2, d=4, iterations=3, warmup=0, seed=2)
        report = run_benchmark(cfg)
        data = json.loads(report.to_json())
        assert data["config"]["d"] == 4
        assert "median_ns" in data["direct"]
        text = report.to_text()
        assert "direct median" in text and "woodbury median" in text

    def test_timings_are_data_not_judgement(self):
        # tiny shapes give no reliable ordering; the report must not assert one
        cfg = BenchConfig(b=1, k=1, r=2, d=2, iterations=3, warmup=0, seed=3)
        report = run_benchmark(cfg)
        assert report.direct.median_ns > 0 and report.woodbury.median_ns > 0

    @pytest.mark.parametrize("blas_threads", [None, "1"])
    def test_report_records_thread_settings(self, monkeypatch, blas_threads):
        # direct timings depend on both; a report must say which it ran with
        monkeypatch.setattr(head, "_WORKERS", 3)
        if blas_threads is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
        report = run_benchmark(BenchConfig(b=2, k=1, r=2, d=4, iterations=2, warmup=0))
        data = json.loads(report.to_json())
        assert data["threads"] == {"direct_workers": 2, "OPENBLAS_NUM_THREADS": blas_threads}
        assert "direct workers    2" in report.to_text()
