"""In-process A/B timing of the simulator against a base revision.

    python3 tools/ab.py                           # HEAD against the working tree
    python3 tools/ab.py --base HEAD~1 --rounds 20 --workload wide_grid

Extracts `src/` of the base revision with `git archive <rev> src | tar -x`
into a temporary directory, and loads that copy and the working tree's
`src/dianasched` into this one process as two packages.  For each
workload of `bench/workloads.py` it first checks that both sides give
the same `outcome_digest` (from `bench/run.py`).  It then times each
side for N rounds, alternating which side goes first, in two parts:
setup, `parse_scenario` -> `Simulation(scenario, seed)`, and run,
`run()`.  A round runs the two sides in turn REPEATS times and takes
each side's least setup time and least run time.  Per workload and part
it prints the median and the least change/base ratio of those times,
and the rounds the change won (a ratio below 1).

Both sides run in the same process, moments apart, so a change of the
host's speed from one process to the next does not enter the ratio.
Standard library only; it needs git and tar, and no network.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import ModuleType
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
# Runs per side per round; the least of them is the round's time.
REPEATS = 5


def _load_bench_run() -> ModuleType:
    sys.path.insert(0, str(BENCH))  # run.py imports spans and workloads
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


bench_run = _load_bench_run()


def load_package(name: str, package_dir: Path) -> ModuleType:
    """Import the dianasched package in `package_dir` under `name`; its
    modules import each other relatively, so they load as `name.engine`
    and so on."""
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py",
        submodule_search_locations=[str(package_dir)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("engine", "scenario"):
        importlib.import_module(f"{name}.{module}")
    return package


def extract_src(rev: str, dest: Path) -> Path:
    """Write `src/` of git revision `rev` under `dest` and return the
    package directory in it."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev, "src"],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or untar.returncode:
        raise SystemExit(f"ab: cannot extract src/ of revision {rev!r}")
    return dest / "src" / "dianasched"


PARTS = ("setup", "run")


def run_once(package: ModuleType, text: str, seed: int):
    """One parse -> Simulation -> run(): (result, setup seconds, run
    seconds)."""
    gc.collect()
    t0 = time.perf_counter()
    sim = package.engine.Simulation(package.scenario.parse_scenario(text), seed)
    t1 = time.perf_counter()
    result = sim.run()
    return result, t1 - t0, time.perf_counter() - t1


def compare(base: ModuleType, change: ModuleType, texts: Dict[str, str],
            seed: int, rounds: int) -> Dict[str, Dict[str, List[float]]]:
    """Per workload and part ("setup", "run"), the change/base time
    ratio of each round.

    Raises SystemExit when the two sides' outcomes differ on a workload.
    """
    ratios = {}
    for name, text in texts.items():
        digests = {bench_run.outcome_digest(run_once(side, text, seed)[0])
                   for side in (base, change)}
        if len(digests) != 1:
            raise SystemExit(f"ab: {name}: base and change outcomes differ")
        ratios[name] = {part: [] for part in PARTS}
        for i in range(rounds):
            order = (base, change) if i % 2 == 0 else (change, base)
            best = {side: [float("inf")] * len(PARTS) for side in order}
            for _ in range(REPEATS):
                for side in order:
                    times = run_once(side, text, seed)[1:]
                    best[side] = [min(b, t) for b, t in zip(best[side], times)]
            for part, b, c in zip(PARTS, best[base], best[change]):
                ratios[name][part].append(c / b)
    return ratios


def main(argv: Optional[List[str]] = None) -> int:
    workloads = bench_run.WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", help="git revision to compare with")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--seed", type=int, default=bench_run.DEFAULT_SEED)
    ap.add_argument("--workload", default="all", choices=sorted(workloads) + ["all"])
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")
    names = sorted(workloads) if args.workload == "all" else [args.workload]
    with tempfile.TemporaryDirectory(prefix="dianasched-ab-") as tmp:
        base = load_package("ab_base", extract_src(args.base, Path(tmp)))
        change = load_package("ab_change", ROOT / "src" / "dianasched")
        ratios = compare(base, change,
                         {name: workloads[name].text for name in names},
                         args.seed, args.rounds)
    print(f"change/base time ratio, base {args.base}, {args.rounds} rounds, "
          f"least of {REPEATS} runs per side per round, seed {args.seed}")
    for name, parts in ratios.items():
        print(f"{name:18}" + "  ".join(
            f"  {part} median {statistics.median(values):.3f} "
            f"min {min(values):.3f} won {sum(r < 1 for r in values)}/{len(values)}"
            for part, values in parts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
