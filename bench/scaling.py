"""Scaling curve of `run()` host time (reported, not gated).

    python3 bench/scaling.py

Runs deep_queue's shape at 1k, 2k and 4k jobs (50, 100 and 200 bursts of
20 jobs, so the overload and the queue growth per second stay the same)
and wide_grid's shape at 25, 50 and 100 sites (10 jobs per site).  Each
point is the median `run()` time of REPEATS passes at seed 42; the slope
is the least-squares fit of log(time) on log(size), so 2 means time
grows with the square of the size.  Writes .bench_out/scaling.json.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import sys
import time

import run  # puts the checkout's src/ on sys.path
import workloads
from dianasched import engine, scenario

REPEATS = 5
CURVES = {
    "deep_queue": ("jobs", [(n * 20, workloads.deep_queue(bursts=n))
                            for n in (50, 100, 200)]),
    "wide_grid": ("sites", [(n, workloads.wide_grid(sites=n))
                            for n in (25, 50, 100)]),
}


def run_seconds(text: str, seed: int) -> float:
    sim = engine.Simulation(scenario.parse_scenario(text), seed)
    gc.collect()
    t0 = time.perf_counter()
    sim.run()
    return time.perf_counter() - t0


def slope(points) -> float:
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def main() -> int:
    report = {"environment": run.environment(), "seed": run.DEFAULT_SEED,
              "repeats": REPEATS, "curves": {}}
    for name, (axis, sizes) in CURVES.items():
        points = []
        for size, text in sizes:
            t = statistics.median(run_seconds(text, run.DEFAULT_SEED)
                                  for _ in range(REPEATS))
            points.append((size, t))
            print(f"{name:12s} {axis} {size:5d}  run() {t:8.3f} s")
        k = slope(points)
        print(f"{name:12s} log-log slope {k:.2f}")
        report["curves"][name] = {"axis": axis, "points": points, "slope": k}
    run.OUT.mkdir(exist_ok=True)
    (run.OUT / "scaling.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
