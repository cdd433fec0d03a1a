"""twistbench benchmark: one command runs a workload, checks it, prints metrics.

    python3 perfbench/run.py --workload maximal-2d --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout that holds ``src/twistbench``.  Each run
starts fresh interpreters with the BLAS/OpenMP thread variables capped
before numpy loads: several that only set up, and one that also runs ops
in a closed loop with one client; ``setup_s`` is the median set-up time of
them all.  With
``--trace 0`` the last line of output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run.
Lines before it give every metric with its unit and sample count, the
environment, and the per-op fingerprints file.
"""

import argparse
import json
import os
import platform
import select
import shutil
import subprocess
import sys
import time
from pathlib import Path

from spans import METRICS, harrell_davis_median, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("maximal-2d", "refuse-1d", "verify-3d")
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 4        # set-up-only interpreters, plus the measuring one
RUN_LIMIT_S = 170.0      # a run never outlives this, whatever the workload does
TAIL = (99, 95, 90, 75, 50)  # the highest with >= 10 samples beyond it is printed


def child_env():
    env = dict(os.environ)
    env.pop("TWISTBENCH_THREADS", None)   # the benchmark sets the caps itself
    env.pop("PYTHONPATH", None)
    for var in THREAD_VARS:
        env[var] = THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """One workload interpreter; times its start-up until it prints READY."""

    def __init__(self, args, out, setup_only, deadline):
        cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out)]
        if setup_only:
            cmd.append("--setup-only")
        self.deadline = deadline
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                     stdout=subprocess.PIPE, text=True)
        waiting, _, _ = select.select([self.proc.stdout], [], [],
                                      max(1.0, deadline - time.monotonic()))
        line = self.proc.stdout.readline() if waiting else ""
        self.setup_s = time.perf_counter() - start
        self.ready = line.strip() == "READY"

    def finish(self):
        """Wait for the child; kill it at the deadline.  Returns its exit code,
        or None if it had to be killed."""
        try:
            self.proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return None
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.communicate()
        return self.proc.returncode


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-p * len(ordered) // 100))
    return ordered[int(rank) - 1]


def environment(args, record):
    """What the numbers depend on: machine, versions, threads, grid, arrays."""
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    extra = record.get("extra", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "caches": caches,
        "python": extra.get("python"),
        "numpy": extra.get("numpy"),
        "scipy": extra.get("scipy"),
        "threads_set": {var: THREADS for var in THREAD_VARS},
        "workload": args.workload,
        "grid": record.get("grid"),
        "seed": args.seed,
        "seconds": args.seconds,
        "loop": "closed, 1 client",
        "largest_array_bytes_computed": extra.get("largest_array_bytes"),
    }


def end_to_end(ops, setups, record):
    durations = [op["duration_s"] for op in ops]
    done = sum(1 for op in ops if op["ok"])
    return {
        "setup_s": {"value": median(setups), "unit": "s"},
        "op_s.p50": {"value": harrell_davis_median(durations), "unit": "s"},
        "ops_per_s": {"value": done / record["elapsed_s"], "unit": "1/s"},
        "peak_rss_mb": {"value": record["extra"]["peak_rss_mb"], "unit": "MB"},
    }


def print_end_to_end(metrics, ops, setups, failed, elapsed):
    n = len(ops)
    durations = [op["duration_s"] for op in ops]
    print(f"  setup_s      {metrics['setup_s']['value']:.4f} s    "
          f"median of {len(setups)} fresh interpreters")
    print(f"  op_s.p50     {metrics['op_s.p50']['value']:.4f} s    {n} ops, Harrell-Davis "
          f"(sample median {median(durations):.4f} s)")
    tail = [p for p in TAIL if n * (100 - p) / 100 >= 10]
    if tail:
        p = tail[0]
        print(f"  tail p{p}      {percentile(durations, p):.4f} s    "
              f"{n} ops, {int(n * (100 - p) / 100)} beyond it")
    else:
        print(f"  (no tail percentile: {n} ops, 20 needed for ten beyond p50)")
    print(f"  ops_per_s    {metrics['ops_per_s']['value']:.4f} 1/s  "
          f"{n - failed} ops over the {elapsed:.2f} s timed loop, checks included")
    print(f"  fail_ratio   {failed / n:.4f}      {failed} of {n} ops failed")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB   workload process")


def print_layers(values, record):
    pairs = record["pairs"]
    print(f"  {pairs} inputs run untraced and traced, input 0 traced again; "
          f"spans: {record['spans']} ({record['spans_file']})")
    print(f"  tracing overhead: traced op_s.p50 {values['trace.op_s.p50']:.4f} s, untraced "
          f"{record['untraced_op_s.p50']:.4f} s on the same {pairs} inputs")
    for name, (unit, _, _, _, moves, where) in METRICS.items():
        value = values[name]
        shown = value if isinstance(value, str) else f"{value:.6g}"
        print(f"  {name:36s} {shown:>12s} {unit:6s} -> {moves} on {', '.join(where)}")
    if record["missing"]:
        print(f"  wrapped functions that no longer exist: {record['missing']}")


def run(args):
    if not (ROOT / "src" / "twistbench" / "__init__.py").is_file():
        print(f"perfbench: no twistbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = OUT_DIR / f"{tag}.json"
    out.unlink(missing_ok=True)

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            child = Child(args, OUT_DIR / "setup-only.json", True, deadline)
            code = child.finish()
            if not child.ready or code != 0:
                print(f"perfbench: set-up failed (exit {code})", file=sys.stderr)
                return 1
            setups.append(child.setup_s)
    child = Child(args, out, False, deadline)
    code = child.finish()
    for work in OUT_DIR.glob(f"work-{args.workload}-*"):
        shutil.rmtree(work, ignore_errors=True)
    if not child.ready or code != 0 or not out.is_file():
        print(f"perfbench: workload process failed (exit {code})", file=sys.stderr)
        return 1
    setups.append(child.setup_s)

    record = json.loads(out.read_text())
    ops = record["ops"]
    failed = sum(1 for op in ops if not op["ok"])
    correct = failed == 0
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: closed loop, 1 client, grid {record['grid']}")
    print("env: " + json.dumps(environment(args, record), sort_keys=True))
    if args.trace:
        metrics = {name: {"value": value, "unit": METRICS[name][0]}
                   for name, value in record["layer_metrics"].items()}
        print_layers(record["layer_metrics"], record)
        if record["count_mismatch"]:
            correct = False
            print(f"  input 0 did not repeat exactly: {record['count_mismatch']}")
    else:
        metrics = end_to_end(ops, setups, record)
        print_end_to_end(metrics, ops, setups, failed, record["elapsed_s"])
    for op in ops:
        if not op["ok"]:
            print(f"  FAILED op on input {op['input']}: {op['problems']}")
    print(f"  per-op fingerprints and counts: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that the correctness checks reject wrong outcomes")
    args = parser.parse_args(argv)
    if args.self_test:
        from selftest import main as self_test

        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
