"""One workload in one fresh interpreter: set up, then run ops in a closed loop.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S
                                  --trace 0|1 --out RESULT.json [--setup-only]

``run.py`` starts this script with the BLAS/OpenMP thread variables already
in its environment, so they are in place before numpy loads.  The script
prints ``READY`` once the first op can start; the parent times that as the
set-up.  With ``--setup-only`` it exits there.  Otherwise one client runs
ops back to back (a closed loop) for ``--seconds``, give or take half an
op, checks every op, and writes the per-op record to ``--out``.

With ``--trace 1`` the tracer from ``spans.py`` wraps the twistbench
modules: set-up runs traced, then each input runs once untraced and once
traced, in alternating order (the tracing overhead, and a check that tracing
leaves every result unchanged), until the time is up; the first input runs
traced once more to check that its counts repeat exactly.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    src = ROOT / "src"
    if not (src / "twistbench" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no twistbench sources under {src}")
    sys.path.insert(0, str(src))


# ---------------------------------------------------------------------------
# workloads: set-up builds everything the first op needs; op() is one op

def _fiber(dim, resolution):
    return {"dim": dim, "periods": [1.0] * dim, "resolution": [resolution] * dim}


def _separable(g, dim):
    wave = [1] + [0] * (dim - 1)
    return {"family": "separable", "g": g, "eps": 0.1,
            "s": {"modes": [{"coeff": 1.0, "wavevec": wave}]}}


def _config(task, fiber, twist, interval, out_dir, extra):
    cfg = {"task": task, "seed": 0,
           "spacetime": {"interval": list(interval), "fiber": fiber, "twist": twist},
           "output": {"directory": str(out_dir), "formats": ["json"]}}
    cfg.update(extra)
    return cfg


class _SolveWorkload:
    """Shared set-up of the solve workloads: a solve config written to disk,
    loaded and validated, the model built, and the initial graphs resolved."""

    inputs_per_run = 32

    def __init__(self, seed, work_dir):
        import numpy as np

        from twistbench import config, initializers

        self.specs = self.draw_inputs(np.random.default_rng(seed), self.inputs_per_run)
        path = work_dir / "solve.json"
        path.write_text(json.dumps(_config(
            "solve", self.fiber, self.twist, self.interval, work_dir,
            {"solve": {"target": 0.0, "initializer": self.specs[0]}})))
        cfg = config.resolve(config.load_config(path))
        self.model = config.build_model(cfg)
        self.graphs = [initializers.resolve_initializer(self.model, s) for s in self.specs]

    def input(self, k):
        return k % len(self.graphs)

    def largest_array_bytes(self):
        # the per-node n x n induced metric (computed, nodes * n^2 * 8)
        return self.nodes * self.dim * self.dim * 8


class MaximalWorkload(_SolveWorkload):
    """solve() + rigidity_report() with target 0 in the separable_gauss
    transition model; random_trig starts, amplitude 0.1, centre U(-0.5, 0.5)."""

    interval = (-1.5, 1.5)

    def __init__(self, dim, resolution, seed, work_dir):
        self.dim, self.nodes = dim, resolution ** dim
        self.fiber = _fiber(dim, resolution)
        self.twist = _separable({"kind": "gauss"}, dim)
        super().__init__(seed, work_dir)

    @staticmethod
    def draw_inputs(rng, count):
        """Centres are U(-0.5, 0.5), stratified: each block of four inputs
        takes one |centre| from each of [0, 1/8), [1/8, 1/4), [1/4, 3/8) and
        [3/8, 1/2), in random order and with random signs.  A start within
        about 0.1 of the transition slice needs less than half the residual
        evaluations of one farther out, so unstratified runs of a few ops
        differ mostly in how many near starts they happened to draw."""
        specs = []
        while len(specs) < count:
            for band in rng.permutation(4):
                distance = (band + rng.uniform()) / 8.0
                centre = distance if rng.uniform() < 0.5 else -distance
                specs.append({"kind": "random_trig", "seed": int(rng.integers(0, 2**31 - 1)),
                              "amplitude": 0.1, "center": float(centre)})
        return specs[:count]

    def op(self, k):
        from twistbench import solver

        cfg = solver.SolveConfig(target=0.0, initial=self.graphs[k])
        outcome = solver.solve(self.model, cfg)
        return outcome, solver.rigidity_report(outcome)

    def check(self, result):
        from checks import check_maximal, fingerprint_maximal, solver_stats

        outcome, rigidity = result
        return (check_maximal(outcome, rigidity), fingerprint_maximal(outcome, rigidity),
                solver_stats([outcome]))


class RefuseWorkload(_SolveWorkload):
    """The criterion-9 pair in separable_exp on (-1, 1): each input solved
    with the certificate on, then with check_certificate=False."""

    interval = (-1.0, 1.0)
    dim, nodes = 1, 128
    fiber = _fiber(1, 128)
    twist = _separable({"kind": "exp", "params": {"rate": 1.0}}, 1)
    inputs_per_run = 64

    @staticmethod
    def draw_inputs(rng, count):
        return [{"kind": "random_trig", "seed": int(rng.integers(0, 2**31 - 1)),
                 "amplitude": 0.1} for _ in range(count)]

    def op(self, k):
        from twistbench import solver

        graph = self.graphs[k]
        bounded = solver.solve(self.model, solver.SolveConfig(target=0.0, initial=graph))
        free = solver.solve(
            self.model,
            solver.SolveConfig(target=0.0, initial=graph, check_certificate=False))
        return bounded, free

    def check(self, result):
        from checks import check_refuse, fingerprint_refuse, solver_stats

        bounded, free = result
        return (check_refuse(bounded, free), fingerprint_refuse(bounded, free),
                solver_stats([bounded, free]))


class VerifyWorkload:
    """In-process twistbench.cli.main: verify, then convergence, on the 3-D
    desk config (16^3 -> 32^3 -> 64^3), JSON written under the run directory.

    verify runs its default suite (every identity, five corpus graphs on
    16^3).  The convergence study refines one corpus graph and gates one
    quantity, the fiber/coordinate two-path of the Laplacian of tau: its
    coordinate path factors the 64^3 per-node metric (19 MB) with batched
    LAPACK.  The default study (three graphs, five quantities) takes 15-19 s
    an op, so a run would hold one or two ops; this one takes about 2.5 s.
    """

    tasks = ("verify", "convergence")
    task_blocks = {"verify": {},
                   "convergence": {"convergence": {"corpus_count": 1,
                                                   "quantities": ["laplacian_tau_two_path"]}}}

    def __init__(self, seed, work_dir):
        import numpy as np

        from twistbench import config

        self.work_dir = work_dir
        fiber, twist = _fiber(3, 16), _separable({"kind": "gauss"}, 3)
        self.paths = {}
        for task in self.tasks:
            path = work_dir / f"{task}.json"
            path.write_text(json.dumps(
                _config(task, fiber, twist, (-1.5, 1.5), work_dir / task,
                        self.task_blocks[task])))
            cfg = config.resolve(config.load_config(path))
            self.paths[task] = path
        self.model = config.build_model(cfg)
        rng = np.random.default_rng(seed)
        self.seeds = [int(s) for s in rng.integers(0, 10**6, size=8)]

    def input(self, k):
        return k % len(self.seeds)

    def op(self, k):
        from twistbench import cli

        codes = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for task in self.tasks:
                codes[task] = cli.main([task, "--config", str(self.paths[task]),
                                        "--seed", str(self.seeds[k])])
        return codes

    def check(self, codes):
        from checks import check_verify, fingerprint_verify

        tables = {}
        for task in self.tasks:
            path = self.work_dir / task / f"{task}.json"
            tables[task] = json.loads(path.read_text()) if path.is_file() else None
            path.unlink(missing_ok=True)   # the next op must write its own
        return check_verify(codes, tables), fingerprint_verify(codes, tables), {}

    def largest_array_bytes(self):
        return 64 ** 3 * 3 * 3 * 8   # the 64^3 per-node 3 x 3 metric (computed)


def make_workload(name, seed, work_dir):
    if name == "maximal-2d":
        return MaximalWorkload(2, 64, seed, work_dir)
    if name == "refuse-1d":
        return RefuseWorkload(seed, work_dir)
    if name == "verify-3d":
        return VerifyWorkload(seed, work_dir)
    raise SystemExit(f"perfbench: unknown workload {name!r}")


GRIDS = {"maximal-2d": "64^2", "refuse-1d": "128",
         "verify-3d": "16^3 -> 32^3 -> 64^3"}


# ---------------------------------------------------------------------------
# the closed loop

def _run_one(workload, k, runner):
    """Time one op, then check it outside the timed region."""
    start = time.perf_counter()
    try:
        result = runner(workload.op, k)
        error = None
    except Exception:  # an exception is a failed op, recorded with its traceback
        error = traceback.format_exc()
    duration = time.perf_counter() - start
    record = {"input": k, "duration_s": duration}
    if error is not None:
        record.update(ok=False, problems=[error], fingerprint=None, stats={})
        return record
    try:
        problems, fingerprint, stats = workload.check(result)
    except Exception:
        problems, fingerprint, stats = [traceback.format_exc()], None, {}
    record.update(ok=not problems, problems=problems, fingerprint=fingerprint, stats=stats)
    return record


def _plain(fn, k):
    return fn(k)


def closed_loop(step, seconds):
    """Call ``step(i)`` for i = 0, 1, ... back to back, at least once, while
    the next call is expected to end within half a call of ``seconds``
    (expected: the mean time per call so far, checks included), so a run
    lasts ``seconds`` give or take half a call."""
    steps = []
    begin = time.perf_counter()
    while True:
        steps.append(step(len(steps)))
        elapsed = time.perf_counter() - begin
        if elapsed + 0.5 * elapsed / len(steps) > seconds:
            return steps, elapsed


def run_untraced(args, work_dir):
    _import_program()
    workload = make_workload(args.workload, args.seed, work_dir)
    _ready()
    if args.setup_only:
        return None
    ops, elapsed = closed_loop(
        lambda i: _run_one(workload, workload.input(i), _plain), args.seconds)
    return {"ops": ops, "elapsed_s": elapsed, "extra": _describe(workload)}


def run_traced(args, work_dir):
    _import_program()
    from spans import Tracer, harrell_davis_median, layer_metrics

    tracer = Tracer()
    tracer.install()
    workload = make_workload(args.workload, args.seed, work_dir)
    tracer.uninstall()
    _ready()

    op_ids = itertools.count()

    def traced(fn, k):
        tracer.install()
        try:
            return tracer.run_op(next(op_ids), fn, k)
        finally:
            tracer.uninstall()

    def pair(i):
        # untraced first on even pairs, traced first on odd ones, so neither
        # side always runs on warmer caches or at the later host speed
        k = workload.input(i)
        if i % 2:
            traced_op = _run_one(workload, k, traced)
            return _run_one(workload, k, _plain), traced_op
        plain_op = _run_one(workload, k, _plain)
        return plain_op, _run_one(workload, k, traced)

    pairs, elapsed = closed_loop(pair, args.seconds)
    repeat = _run_one(workload, workload.input(0), traced)
    plain = [p for p, _ in pairs]
    ops = [t for _, t in pairs]

    # every input ran untraced and traced, and input 0 traced twice: results
    # must not move, and every count of input 0 must repeat exactly
    counts, _, _, _ = tracer.per_op(range(len(ops) + 1))
    first, again = counts[0], counts[len(ops)]
    mismatch = sorted(n for n in set(first) | set(again) if first[n] != again[n])
    if repeat["stats"] != ops[0]["stats"]:
        mismatch.append("solver outcome counts of input 0")
    if repeat["fingerprint"] != ops[0]["fingerprint"]:
        mismatch.append("fingerprint of input 0 traced twice")
    for p, t in zip(plain, ops):
        if p["fingerprint"] != t["fingerprint"] or p["stats"] != t["stats"]:
            mismatch.append(f"untraced and traced result of input {p['input']}")
    for i, op in enumerate(ops):
        op["counts"] = dict(counts[i])
        op["traced"] = True
    repeat["traced"] = True

    traced_ids = range(len(ops))
    traced_p50 = harrell_davis_median([op["duration_s"] for op in ops])
    plain_p50 = harrell_davis_median([op["duration_s"] for op in plain])
    overhead = {"trace.op_s.p50": traced_p50, "trace.overhead": traced_p50 / plain_p50 - 1.0}
    metrics = layer_metrics(tracer, traced_ids, {i: ops[i]["stats"] for i in traced_ids},
                            overhead)
    spans_path = args.out.with_suffix(".spans.tsv.gz")
    tracer.write(spans_path)
    return {
        "ops": [op for p in pairs for op in p] + [repeat],
        "elapsed_s": elapsed,
        "layer_metrics": metrics,
        "missing": sorted(tracer.missing),
        "count_mismatch": mismatch,
        "pairs": len(pairs),
        "untraced_op_s.p50": plain_p50,
        "spans": tracer.span_count(),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "extra": _describe(workload),
    }


def _describe(workload):
    import numpy
    import scipy

    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "largest_array_bytes": workload.largest_array_bytes(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _ready():
    sys.stdout.write("READY\n")
    sys.stdout.flush()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work_dir = args.out.parent / f"work-{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        record = run_traced(args, work_dir)
    else:
        record = run_untraced(args, work_dir)
    if record is not None:
        record["grid"] = GRIDS[args.workload]
        args.out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
