import statistics

import pytest

from mpfkap import ParameterError, bench
from mpfkap.bench import (
    BenchRecord,
    REPORT_HEADER,
    bench_rdmpf,
    bench_report,
    ratios_vs_baseline,
)


def rec(dim, p, exp_max, median):
    return BenchRecord(dim, p, exp_max, trials=10, median_s=median)


class TestRecordValidation:
    def test_minimum_trials(self):
        with pytest.raises(ParameterError):
            BenchRecord(5, 997, 1000, trials=9, median_s=0.1)

    def test_positive_timing(self):
        with pytest.raises(ParameterError):
            BenchRecord(5, 997, 1000, trials=10, median_s=0.0)


class TestRatios:
    def test_single_row_self_baseline(self):
        r = rec(5, 997, 1000, 0.5)
        assert ratios_vs_baseline([r]) == {(5, 997, 1000): 1.0}

    def test_identical_rows_ratio_one(self):
        rows = [rec(5, 997, 1000, 0.25), rec(5, 997, 5000, 0.25)]
        ratios = ratios_vs_baseline(rows, baseline=(5, 997, 1000))
        assert ratios[(5, 997, 5000)] == pytest.approx(1.0)

    def test_missing_baseline_errors(self):
        with pytest.raises(ParameterError):
            ratios_vs_baseline([rec(5, 997, 1000, 0.1)], baseline=(25, 997, 1000))

    def test_empty_errors(self):
        with pytest.raises(ParameterError):
            ratios_vs_baseline([])


class TestReport:
    def test_csv_shape(self):
        rows = [rec(5, 997, 1000, 0.001), rec(25, 997, 1000, 0.6)]
        csv_text, summary = bench_report(rows, baseline=(5, 997, 1000))
        lines = csv_text.strip().splitlines()
        assert lines[0] == "dim,p,expMax,trials,median_s,ratio_vs_baseline"
        assert lines[1].startswith("5,997,1000,10,")
        assert lines[2].startswith("25,997,1000,10,")
        assert lines[2].endswith("600")
        assert REPORT_HEADER in summary

    def test_report_names_baseline(self):
        _, summary = bench_report([rec(5, 997, 1000, 0.3)])
        assert "baseline point: dim=5 p=997 expMax=1000" in summary


class TestHarness:
    def test_tiny_grid_smoke(self):
        records = bench_rdmpf([(2, 7, 10), (4, 7, 10)], trials=10)
        assert [r.point for r in records] == [(2, 7, 10), (4, 7, 10)]
        assert all(r.median_s > 0 for r in records)
        # every trial is kept, and the median is taken over them
        assert all(len(r.samples) == 10 for r in records)
        assert all(r.median_s == statistics.median(r.samples) for r in records)
        # dim 2 -> 4 multiplies the inner loop 16-fold; timer noise
        # cannot invert that separation
        assert records[1].median_s > records[0].median_s

    def test_sweeps_run_cheap_points_back_to_back(self, monkeypatch):
        # cheap points adjacent in every sweep, alternating direction, and
        # the costliest point last; records stay in grid order
        order = []
        trial = bench._Workload.trial

        def logged(wl):
            order.append(wl.point[0])
            trial(wl)

        monkeypatch.setattr(bench._Workload, "trial", logged)
        grid = [(2, 7, 10), (6, 7, 10), (3, 7, 10)]
        records = bench_rdmpf(grid, trials=10)
        assert [r.point for r in records] == grid
        sweeps = [order[i : i + 3] for i in range(0, 30, 3)]
        assert all(s[2] == 6 and sorted(s[:2]) == [2, 3] for s in sweeps)
        assert all(a[:2] == b[1::-1] for a, b in zip(sweeps, sweeps[1:]))

    def test_empty_grid_rejected(self):
        with pytest.raises(ParameterError):
            bench_rdmpf([], trials=10)
