"""Per-layer tracing of twistbench from outside the package.

The tracer replaces public functions and methods of the ``src/twistbench``
modules with wrappers that record one span per call: (span id, parent span
id, span name, op id, start, end).  Spans stay in memory and are written
out when the run ends.  Counts per op are the number of spans of a name;
self time per layer is a span's duration minus the part covered by its
wrapped children.  Nothing under ``src/`` is edited: ``install`` patches
module and class attributes and ``uninstall`` puts the originals back, so
an untraced op runs the program exactly as shipped.
"""

import gzip
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import Counter, defaultdict

# (span name, module, attribute, layer that receives the span's self time)
TARGETS = [
    ("fiber_grid.diff", "twistbench.fiber_grid", "FiberGrid.diff", "fiber_grid.stencil"),
    ("profiles.trig_value", "twistbench.profiles", "TrigPolynomial.value", "profiles.trig"),
    ("profiles.trig_partial", "twistbench.profiles", "TrigPolynomial.partial", "profiles.trig"),
    ("spacetime.value", "twistbench.spacetime", "TwistedFunction.value", "spacetime.twist"),
    ("spacetime.dt", "twistbench.spacetime", "TwistedFunction.dt", "spacetime.twist"),
    ("spacetime.fiber_partials", "twistbench.spacetime", "TwistedFunction.fiber_partials",
     "spacetime.twist"),
    ("spacetime.dlog_dt", "twistbench.spacetime", "TwistedFunction.dlog_dt", "spacetime.twist"),
    ("graphs.kit", "twistbench.graphs", "_Kit.__init__", "graphs.kit"),
    ("graphs.mean_curvature", "twistbench.graphs", "mean_curvature", "graphs.mean_curvature"),
    ("graphs.warped_obstruction", "twistbench.graphs", "warped_obstruction",
     "graphs.warped_obstruction"),
    ("graphs.coordinate_laplacian", "twistbench.graphs", "coordinate_laplacian",
     "graphs.coordinate_laplacian"),
    ("conformal.conformal_laplacian_check", "twistbench.conformal", "conformal_laplacian_check",
     "conformal.check"),
    ("conformal.static_laplacian_check", "twistbench.conformal", "static_laplacian_check",
     "conformal.check"),
    ("conformal.maximal_power_check", "twistbench.conformal", "maximal_power_check",
     "conformal.check"),
    ("verify.identity_suite", "twistbench.verify", "run_identity_suite", "verify.identity"),
    ("verify.convergence_study", "twistbench.verify", "run_convergence_study",
     "verify.convergence"),
    ("solver.solve", "twistbench.solver", "solve", "solver.self"),
    ("solver.residual", "twistbench.solver", "residual_field", "solver.residual"),
    ("solver.krylov", "twistbench.solver", "lgmres", "solver.krylov"),
    ("solver.certificate", "twistbench.solver", "certificate_check", "solver.certificate"),
    ("initializers.constant_graph", "twistbench.initializers", "constant_graph", "initializers"),
    ("initializers.random_trig_graph", "twistbench.initializers", "random_trig_graph",
     "initializers"),
    ("initializers.resolve_initializer", "twistbench.initializers", "resolve_initializer",
     "initializers"),
    ("initializers.corpus_graphs", "twistbench.initializers", "corpus_graphs", "initializers"),
    ("config.load_config", "twistbench.config", "load_config", "config"),
    ("config.resolve", "twistbench.config", "resolve", "config"),
    ("config.build_model", "twistbench.config", "build_model", "config"),
    ("serialize.write_json", "twistbench.serialize", "write_json", "serialize"),
    ("serialize.write_jsonl", "twistbench.serialize", "write_jsonl", "serialize"),
    ("serialize.write_metadata", "twistbench.serialize", "write_metadata", "serialize"),
    ("serialize.write_gnuplot_data", "twistbench.serialize", "write_gnuplot_data", "serialize"),
    ("serialize.write_table_csv", "twistbench.serialize", "write_table_csv", "serialize"),
    ("serialize.write_field_csv", "twistbench.serialize", "write_field_csv", "serialize"),
    ("serialize.write_field_binary", "twistbench.serialize", "write_field_binary", "serialize"),
    ("cli.main", "twistbench.cli", "main", "cli.self"),
]
# the matvec of the operator handed to lgmres, wrapped by the solver.krylov span
MATVEC_SPAN = "solver.matvec"
MATVEC_LAYER = "solver.krylov"
OP_SPAN = "bench.op"
OP_LAYER = "bench.unattributed"

SETUP_OP = -1   # op id of spans recorded while the workload sets up
IDLE_OP = -2    # op id of spans recorded between ops (correctness checks)

ALL_WORKLOADS = ("maximal-2d", "refuse-1d", "verify-3d")
SOLVES = ("maximal-2d", "refuse-1d")
MAXIMAL = ("maximal-2d",)

# Per-layer metrics: name -> (unit, better, kind, source, moves, workloads).
#   kind "count": spans of the listed names per op
#   kind "self":  self time of the layer per op
#   kind "total": inclusive duration of the listed spans per op
#   kind "extra": a per-op quantity a span hook or the op itself records
#   kind "setup": self time of the layer while the workload sets up (per run)
#   kind "trace": the tracer's own overhead, from the same inputs run once
#                 untraced and once traced
# "moves" and "workloads" say which end-to-end metric the layer metric should
# move, and where; they are printed with the trace and listed in README.md.
METRICS = {
    "fiber_grid.stencil_calls": ("count", "lower", "count", ["fiber_grid.diff"],
                                 "op_s.p50", ("maximal-2d", "refuse-1d")),
    "fiber_grid.stencil_s": ("s", "lower", "self", "fiber_grid.stencil",
                             "op_s.p50", ("maximal-2d", "refuse-1d")),
    "profiles.trig_evals": ("count", "lower", "count",
                            ["profiles.trig_value", "profiles.trig_partial"],
                            "op_s.p50", ("maximal-2d", "refuse-1d")),
    "profiles.trig_s": ("s", "lower", "self", "profiles.trig",
                        "op_s.p50", ("maximal-2d", "refuse-1d")),
    "spacetime.twist_evals": ("count", "lower", "count",
                              ["spacetime.value", "spacetime.dt", "spacetime.fiber_partials",
                               "spacetime.dlog_dt"],
                              "op_s.p50", ("maximal-2d", "refuse-1d")),
    "spacetime.twist_s": ("s", "lower", "self", "spacetime.twist",
                          "op_s.p50", ("maximal-2d", "refuse-1d")),
    "graphs.kit_builds": ("count", "lower", "count", ["graphs.kit"], "op_s.p50", SOLVES),
    "graphs.kit_s": ("s", "lower", "self", "graphs.kit", "op_s.p50", SOLVES),
    "graphs.mean_curvature_calls": ("count", "lower", "count", ["graphs.mean_curvature"],
                                    "op_s.p50", ALL_WORKLOADS),
    "graphs.mean_curvature_s": ("s", "lower", "self", "graphs.mean_curvature",
                                "op_s.p50", ALL_WORKLOADS),
    "graphs.warped_obstruction_s": ("s", "lower", "self", "graphs.warped_obstruction",
                                    "op_s.p50", ALL_WORKLOADS),
    "graphs.coordinate_laplacian_calls": ("count", "lower", "count",
                                          ["graphs.coordinate_laplacian"],
                                          "op_s.p50 and peak_rss_mb", ("verify-3d",)),
    "graphs.coordinate_laplacian_s": ("s", "lower", "self", "graphs.coordinate_laplacian",
                                      "op_s.p50 and peak_rss_mb", ("verify-3d",)),
    "graphs.coordinate_laplacian_bytes": ("bytes", "lower", "extra",
                                          ["graphs.coordinate_laplacian"],
                                          "op_s.p50 and peak_rss_mb", ("verify-3d",)),
    "conformal.check_calls": ("count", "lower", "count",
                              ["conformal.conformal_laplacian_check",
                               "conformal.static_laplacian_check",
                               "conformal.maximal_power_check"],
                              "op_s.p50", ("verify-3d",)),
    "conformal.check_s": ("s", "lower", "self", "conformal.check", "op_s.p50", ("verify-3d",)),
    "verify.identity_s": ("s", "lower", "self", "verify.identity", "op_s.p50", ("verify-3d",)),
    "verify.convergence_s": ("s", "lower", "self", "verify.convergence",
                             "op_s.p50", ("verify-3d",)),
    "solver.residual_evals": ("count", "lower", "count", ["solver.residual"],
                              "op_s.p50", MAXIMAL),
    "solver.residual_s": ("s", "lower", "self", "solver.residual", "op_s.p50", MAXIMAL),
    "solver.matvecs": ("count", "lower", "count", [MATVEC_SPAN], "op_s.p50", MAXIMAL),
    "solver.krylov_solves": ("count", "lower", "count", ["solver.krylov"], "op_s.p50", MAXIMAL),
    "solver.krylov_s": ("s", "lower", "self", "solver.krylov", "op_s.p50", MAXIMAL),
    "solver.krylov_total_s": ("s", "lower", "total", ["solver.krylov"], "op_s.p50", MAXIMAL),
    "solver.krylov_unconverged": ("count", "lower", "extra", ["solver.krylov"],
                                  "op_s.p50", MAXIMAL),
    "solver.newton_iters": ("count", "lower", "extra", ["solver.solve"],
                            "op_s.p50 (constant on maximal-2d)", ("refuse-1d",)),
    "solver.newton_accept_ratio": ("ratio", "higher", "extra", ["solver.solve"],
                                   "op_s.p50 (constant on maximal-2d)", ("refuse-1d",)),
    "solver.fallback_sweeps": ("count", "lower", "extra", ["solver.solve"],
                               "op_s.p50 (constant on maximal-2d)", ("refuse-1d",)),
    "solver.certificate_s": ("s", "lower", "self", "solver.certificate",
                             "op_s.p50", ("refuse-1d",)),
    "solver.self_s": ("s", "lower", "self", "solver.self", "op_s.p50", SOLVES),
    "initializers.s": ("s", "lower", "setup", "initializers", "setup_s", ALL_WORKLOADS),
    "initializers.op_s": ("s", "lower", "self", "initializers", "op_s.p50", ("verify-3d",)),
    "config.s": ("s", "lower", "setup", "config", "setup_s", ALL_WORKLOADS),
    "config.op_s": ("s", "lower", "self", "config", "op_s.p50", ("verify-3d",)),
    "serialize.s": ("s", "lower", "self", "serialize", "op_s.p50", ("verify-3d",)),
    "serialize.bytes": ("bytes", "lower", "extra", ["serialize.write_json"],
                        "op_s.p50", ("verify-3d",)),
    "cli.self_s": ("s", "lower", "self", "cli.self", "op_s.p50", ("verify-3d",)),
    "bench.unattributed_s": ("s", "lower", "self", OP_LAYER, "op_s.p50", ALL_WORKLOADS),
    "trace.op_s.p50": ("s", "lower", "trace", None, "none (traced op time)", ALL_WORKLOADS),
    "trace.overhead": ("ratio", "lower", "trace", None, "none (traced/untraced - 1)",
                       ALL_WORKLOADS),
}

# spans whose self time is attributed to a layer other than their own name
_LAYER_OF_SPAN = {name: layer for name, _, _, layer in TARGETS}
_LAYER_OF_SPAN[MATVEC_SPAN] = MATVEC_LAYER
_LAYER_OF_SPAN[OP_SPAN] = OP_LAYER

MISSING = "missing"


class Tracer:
    """In-memory span recorder and attribute patcher for one process."""

    def __init__(self):
        # span columns (id, parent, name index, op, start, end): compact
        # arrays, since a traced run of a few solves records over a million
        self._columns = tuple(array(code) for code in "qqiqdd")
        self._names = []           # name index -> span name
        self._index = {}           # span name -> name index
        self.extras = defaultdict(Counter)   # op -> quantity -> value
        self.op = SETUP_OP
        self.missing = set()       # span names whose target no longer exists
        self._stack = [0]
        self._next_id = 1
        self._patches = []         # (owner, attribute, original raw value)

    # -- recording -----------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(args, kwargs, result)`` may
        return extra per-op quantities as a dict."""
        clock = time.perf_counter
        stack = self._stack
        ids, parents, names, ops, starts, ends = self._columns
        index = self._index.setdefault(name, len(self._names))
        if index == len(self._names):
            self._names.append(name)

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ids.append(sid)
                parents.append(parent)
                names.append(index)
                ops.append(self.op)
                starts.append(start)
                ends.append(end)
            if after is not None:
                for key, value in after(args, kwargs, result).items():
                    self.extras[self.op][key] += value
            return result

        return traced

    def run_op(self, op_id, fn, *args):
        """Run one op under a root span, so unwrapped time has a home."""
        self.op = op_id
        try:
            return self.wrap(OP_SPAN, fn)(*args)
        finally:
            self.op = IDLE_OP

    # -- patching ------------------------------------------------------------

    def install(self):
        """Wrap every target that exists; remember the ones that do not."""
        for name, module_name, attribute, _ in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            owner_name, _, member = attribute.rpartition(".")
            owner = module
            if owner is not None and owner_name:
                owner = getattr(module, owner_name, None)
            raw = None if owner is None else vars(owner).get(member)
            if not callable(raw):
                self.missing.add(name)
                if name == "solver.krylov":
                    self.missing.add(MATVEC_SPAN)   # matvecs are counted through it
                continue
            wrapped = self.wrap(name, *self._adapter(name, raw))
            if owner_name:
                self._patch(owner, member, raw, wrapped)
            else:
                self._patch_function(member, raw, wrapped)

    def uninstall(self):
        for owner, member, raw in reversed(self._patches):
            setattr(owner, member, raw)
        self._patches.clear()

    def _patch(self, owner, member, raw, wrapped):
        self._patches.append((owner, member, raw))
        setattr(owner, member, wrapped)

    def _patch_function(self, member, raw, wrapped):
        """Rebind a function in its module and wherever it was imported by name."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "twistbench" or mod_name.startswith("twistbench."):
                if vars(module).get(member) is raw:
                    self._patch(module, member, raw, wrapped)

    def _adapter(self, name, raw):
        """The callable to wrap for a target, and its per-op quantity hook."""
        if name == "solver.krylov":
            return self._krylov_adapter(raw), _krylov_after
        if name == "graphs.coordinate_laplacian":
            return raw, _metric_bytes_after
        if name.startswith("serialize.") and name != "serialize.write_metadata":
            # write_metadata writes through write_json, which counts the bytes
            return raw, _file_bytes_after(raw)
        return raw, None

    def _krylov_adapter(self, lgmres):
        """lgmres with its operator's matvec wrapped in a span (same numbers)."""
        from scipy.sparse.linalg import LinearOperator

        tracer = self

        def krylov(A, b, *args, **kwargs):
            matvec = tracer.wrap(MATVEC_SPAN, A.matvec)
            op = LinearOperator(A.shape, matvec=matvec, dtype=A.dtype)
            return lgmres(op, b, *args, **kwargs)

        return krylov

    # -- reduction -----------------------------------------------------------

    def spans(self):
        """(id, parent, name, op, start, end) per span, in the order spans
        ended, so every child comes before its parent."""
        names = self._names
        for sid, parent, index, op, start, end in zip(*self._columns):
            yield sid, parent, names[index], op, start, end

    def span_count(self):
        return len(self._columns[0])

    def per_op(self, op_ids):
        """Per-op counts, self times per layer and inclusive span totals."""
        counts = {op: Counter() for op in op_ids}
        self_s = {op: defaultdict(float) for op in op_ids}
        total_s = {op: defaultdict(float) for op in op_ids}
        setup_self = defaultdict(float)
        covered = defaultdict(float)  # span id -> time its children cover
        for sid, parent, name, op, start, end in self.spans():
            duration = end - start
            own = duration - covered.pop(sid, 0.0)
            covered[parent] += duration
            if op == SETUP_OP:
                setup_self[_LAYER_OF_SPAN[name]] += own
            if op not in counts:
                continue
            counts[op][name] += 1
            self_s[op][_LAYER_OF_SPAN[name]] += own
            total_s[op][name] += duration
        return counts, self_s, total_s, setup_self

    def write(self, path):
        """Write the spans as gzipped tab-separated lines, times in whole
        nanoseconds from the first span's start (written once, at the end)."""
        origin = min(self._columns[4], default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\top\tstart_ns\tend_ns\n")
            for sid, parent, name, op, start, end in self.spans():
                start_ns = round((start - origin) * 1e9)
                end_ns = round((end - origin) * 1e9)
                fh.write(f"{sid}\t{parent}\t{name}\t{op}\t{start_ns}\t{end_ns}\n")


def _krylov_after(args, kwargs, result):
    _, info = result
    return {"solver.krylov_unconverged": int(info != 0)}


def _metric_bytes_after(args, kwargs, result):
    # nodes * n^2 * 8: the per-node metric array the call factors (computed)
    metric = args[1] if len(args) > 1 else kwargs["metric"]
    return {"graphs.coordinate_laplacian_bytes": int(metric.size) * 8}


def _file_bytes_after(raw):
    signature = inspect.signature(raw)

    def after(args, kwargs, result):
        path = signature.bind(*args, **kwargs).arguments["path"]
        return {"serialize.bytes": os.path.getsize(path)}

    return after


def layer_metrics(tracer, traced_ops, op_stats, overhead):
    """Per-layer metric values: the median over the traced ops of each per-op
    value.  ``op_stats`` maps op id -> quantities the op reported itself
    (Newton iterations, fallback sweeps); ``overhead`` holds the traced
    op_s.p50 and its ratio to the untraced one, less 1."""
    counts, self_s, total_s, setup_self = tracer.per_op(traced_ops)
    values = {}
    for metric, (unit, _, kind, source, _, _) in METRICS.items():
        needs = source if isinstance(source, list) else []
        if kind == "self":
            needs = [n for n, layer in _LAYER_OF_SPAN.items() if layer == source]
        if any(name in tracer.missing for name in needs):
            values[metric] = MISSING
            continue
        if kind == "count":
            per = [sum(counts[op][n] for n in source) for op in traced_ops]
        elif kind == "self":
            per = [self_s[op][source] for op in traced_ops]
        elif kind == "total":
            per = [sum(total_s[op][n] for n in source) for op in traced_ops]
        elif kind == "extra":
            per = [_extra(tracer, op_stats, op, metric) for op in traced_ops]
        elif kind == "setup":
            values[metric] = setup_self[source]
            continue
        else:
            values[metric] = overhead[metric]
            continue
        values[metric] = median(per)
    return values


def _extra(tracer, op_stats, op, metric):
    if metric in op_stats.get(op, {}):
        return op_stats[op][metric]
    return tracer.extras[op][metric]


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def harrell_davis_median(values):
    """Harrell-Davis estimate of the median (Biometrika 1982): a Beta-weighted
    mean of all order statistics.  Op costs come in a few discrete levels
    (Newton steps), and the sample median of a few ops jumps between them;
    this estimator moves smoothly.  One value is returned as it is."""
    from scipy.special import betainc

    ordered = sorted(values)
    n = len(ordered)
    a = (n + 1) / 2.0
    cdf = [float(betainc(a, a, i / n)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))
