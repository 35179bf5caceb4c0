"""Parameter-sensitivity harness for the rank-deficient double action.

Each grid point times single rdmpf evaluations (setup sampling and the
private matrix powers stay outside the timed region) and reports the
median over trials plus ratios against a designated baseline point.
Absolute numbers are hardware-bound; only the ratios are meaningful.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Sequence

from .core import Record, mat_pow_mod
from .errors import ParameterError
from .rdmpf import rdmpf
from .wire import generate_setup

TABLE_GRID = ((5, 997, 1000), (25, 997, 1000), (5, 4973, 1000), (5, 997, 5000))
BASELINE_POINT = (5, 997, 1000)

# Each trial repeats the evaluation until it spans at least this long, so
# sub-millisecond points are not drowned in timer noise.
_MIN_TRIAL_SECONDS = 0.02

REPORT_HEADER = (
    "timed operation: one rank-deficient double-action evaluation "
    "(token-sized, one round); private-matrix powers excluded"
)


class BenchRecord(Record):
    """Median seconds for one evaluation at one parameter point; samples
    holds every trial's seconds, in the order they ran."""

    __slots__ = ("dim", "p", "exp_max", "trials", "median_s", "samples")

    def __init__(
        self, dim: int, p: int, exp_max: int, trials: int, median_s: float,
        samples: tuple[float, ...] = ()
    ):
        if trials < 10:
            raise ParameterError(f"need at least 10 trials, got {trials}")
        if median_s <= 0:
            raise ParameterError("timings must be positive")
        self._set(dim, p, exp_max, trials, median_s, samples)

    @property
    def point(self) -> tuple[int, int, int]:
        return (self.dim, self.p, self.exp_max)


class _Workload:
    """One grid point's prepared evaluation, ready to be timed."""

    def __init__(self, dim: int, p: int, exp_max: int, rng: random.Random):
        self.point = (dim, p, exp_max)
        self.p = p
        setup = generate_setup(dim, p, exp_max, rounds=1, rng=rng)
        em = p - 1
        self.w = setup.w
        self.xe = mat_pow_mod(setup.base_xu, rng.randint(1, exp_max), em)
        self.ye = mat_pow_mod(setup.base_yv, rng.randint(1, exp_max), em)
        self.samples: list[float] = []
        # warm-up, excluded from the median; also sizes the per-trial
        # repeat count so short evaluations are not lost in timer noise
        once = self.once_s = self._run(1)
        self.inner = max(1, int(_MIN_TRIAL_SECONDS / once) + 1) if once < _MIN_TRIAL_SECONDS else 1

    def _run(self, repeats: int) -> float:
        start = time.perf_counter()
        for _ in range(repeats):
            rdmpf(self.xe, self.w, self.ye, self.p)
        return (time.perf_counter() - start) / repeats

    def trial(self) -> None:
        self.samples.append(self._run(self.inner))


def bench_rdmpf(
    points: Sequence[tuple[int, int, int]] = TABLE_GRID,
    trials: int = 10,
    rng: random.Random | None = None,
) -> list[BenchRecord]:
    """Time every (dim, p, exp_max) point; trials must be >= 10.

    Trials are interleaved across the grid in sweeps, so clock-speed
    drift over the run biases every point alike and cancels out of the
    ratios.  Each sweep runs the points in order of cost, cheapest first,
    so the cheap points that ratios compare run back to back, in the
    same phase of the machine's speed; they alternate direction from
    sweep to sweep, and the costliest point closes every sweep.  Records
    keep grid order.  Each point reports its median trial, so one
    descheduled trial cannot move a ratio the way it moves a mean.
    """
    if not points:
        raise ParameterError("benchmark grid is empty")
    if trials < 10:
        raise ParameterError(f"need at least 10 trials, got {trials}")
    repeated = next((pt for i, pt in enumerate(points) if pt in points[:i]), None)
    if repeated is not None:
        # ratios key on the point, so a repeat would hide one of its rows
        raise ParameterError(f"grid point {':'.join(map(str, repeated))} is given twice")
    if rng is None:
        rng = random.Random(0x5EED)
    workloads = [_Workload(dim, p, exp_max, rng) for dim, p, exp_max in points]
    *cheap, costliest = sorted(workloads, key=lambda wl: wl.once_s)
    for sweep in range(trials):
        for wl in cheap if sweep % 2 == 0 else cheap[::-1]:
            wl.trial()
        costliest.trial()
    return [
        BenchRecord(*wl.point, trials, statistics.median(wl.samples), tuple(wl.samples))
        for wl in workloads
    ]


def ratios_vs_baseline(
    records: Sequence[BenchRecord],
    baseline: tuple[int, int, int] | None = None,
) -> dict[tuple[int, int, int], float]:
    """Per-point median divided by the baseline point's median."""
    if not records:
        raise ParameterError("no benchmark records")
    if baseline is None:
        base = records[0]
    else:
        base = next((r for r in records if r.point == baseline), None)
        if base is None:
            raise ParameterError(f"baseline row {baseline} missing from the records")
    return {r.point: r.median_s / base.median_s for r in records}


def bench_report(
    records: Sequence[BenchRecord],
    baseline: tuple[int, int, int] | None = None,
) -> tuple[str, str]:
    """Render (csv_text, summary_text) with ratios against the baseline."""
    ratios = ratios_vs_baseline(records, baseline)
    lines = ["dim,p,expMax,trials,median_s,ratio_vs_baseline"]
    for r in records:
        lines.append(
            f"{r.dim},{r.p},{r.exp_max},{r.trials},{r.median_s:.6g},{ratios[r.point]:.4g}"
        )
    csv_text = "\n".join(lines) + "\n"

    base_point = baseline if baseline is not None else records[0].point
    summary = [REPORT_HEADER, f"baseline point: dim={base_point[0]} p={base_point[1]} expMax={base_point[2]}"]
    for r in records:
        summary.append(
            f"dim={r.dim} p={r.p} expMax={r.exp_max}: median {r.median_s * 1e3:.3f} ms "
            f"over {r.trials} trials, ratio {ratios[r.point]:.3g}"
        )
    return csv_text, "\n".join(summary) + "\n"
