"""Compare the set-up time of two checkouts in alternating pairs.

    python3 tools/setup_pairs.py ../base . --workload verify-3d --pairs 20

Each run is a fresh ``perfbench/workload.py --setup-only`` interpreter of
one checkout, started with the thread caps and ``PYTHONHASHSEED`` that
``perfbench/run.py`` gives its children, so it imports that checkout's
``src``.  A run records two numbers:

- wall time from start until the child prints ``READY``, the span that
  ``run.py`` reports as ``setup_s``;
- the child's CPU time (user plus system, from ``RUSAGE_CHILDREN``), which
  also covers its exit and moves far less with the host's load.

Each pair runs both checkouts, and the side that runs first alternates.
The summary gives each side's median with its quartiles, and in how many
pairs the second checkout was faster, by wall time and by CPU time.
Nothing under ``perfbench/`` is changed; its workloads are only run.
"""

import argparse
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from run import WORKLOADS, child_env  # noqa: E402


def _cpu_of_children():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_run(checkout, workload, seed, out_dir):
    """(wall seconds to READY, CPU seconds of the child) for one set-up."""
    cmd = [sys.executable, str(checkout / "perfbench" / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0", "--out", str(out_dir / "result.json"),
           "--setup-only"]
    cpu = _cpu_of_children()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=checkout, env=child_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    wall = time.perf_counter() - start
    proc.communicate()
    if line.strip() != "READY" or proc.returncode != 0:
        raise SystemExit(f"setup_pairs: {checkout} {workload} did not set up "
                         f"(printed {line.strip()!r}, exit {proc.returncode})")
    return wall, _cpu_of_children() - cpu


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{q2:.4f} [{q1:.4f}-{q3:.4f}]"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout measured first in even pairs")
    parser.add_argument("change", type=Path, help="checkout compared with it")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    sides = (args.base.resolve(), args.change.resolve())

    runs = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        for pair in range(args.pairs):
            for side in sides if pair % 2 == 0 else sides[::-1]:
                runs[side].append(setup_run(side, args.workload, args.seed, Path(tmp)))
            (bw, bc), (cw, cc) = runs[sides[0]][-1], runs[sides[1]][-1]
            print(f"pair {pair + 1:3d}  wall {bw:.4f} -> {cw:.4f} s  cpu {bc:.4f} -> {cc:.4f} s",
                  flush=True)

    print(f"{args.workload}, {args.pairs} pairs, base {sides[0]}, change {sides[1]}")
    for metric, index in (("wall to READY", 0), ("child CPU", 1)):
        base, change = ([run[index] for run in runs[side]] for side in sides)
        wins = sum(c < b for b, c in zip(base, change))
        print(f"  {metric:13s}  base {summary(base)} s  change {summary(change)} s  "
              f"change wins {wins}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
