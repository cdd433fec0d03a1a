"""Hash twistbench's numerical results to JSON, one digest per result.

    python3 tools/fingerprint.py > after.json
    python3 tools/fingerprint.py --src ../base/src > before.json
    diff before.json after.json

Run it on two checkouts (``--src`` picks the package to import; the default
is the ``src`` beside this script) and diff the files: a change that
leaves every result bitwise unchanged gives no differences.  Each entry is
the SHA-256 prefix of one result: arrays by dtype, shape and bytes (signed
zeros and NaN payloads included), floats by ``float.hex``, everything else
by ``repr``.

The matrix covers the twist evaluators (6 twists, fiber dimensions 1-3,
flat and curved fibers, scalar, per-node and blocked times), every time
profile kind and every conformal factor kind at the same times, every kit
field in graph and pointwise form, both mean-curvature paths, the unit
normal, ``grad_tau`` and the ``"generalized"`` residual, the conformal and
static-picture checks, the area's first-variation check on 20 sampled
nodes and on every node, every row of the identity suite at the desk grids
(three twists, flat and curved fibers) and of a one-graph
``laplacian_tau_two_path`` convergence study, ``classify``, ``is_grw``,
``dlog_dt_range``, seven full solves, the positivity verdicts of
adversarial twists and the geometry tables the command line writes as CSV
and as gnuplot columns.  It takes a few seconds on one core.

Each solve also gets a ``solve/<name>/decisions`` digest that holds no
floats: the tag, the Newton iterations, the certificate reason and, per
log entry, the phase, the gauge, whether lgmres converged and the
fallback reason.  A change to the Newton step that moves results only by
round-off changes the other ``solve/*`` digests but must leave these equal.

    python3 tools/fingerprint.py --solve-baseline tools/solve_baseline.json

writes those decisions, unhashed, with each solve's headline floats
(``headlines``) instead, and the model checks of every ``default_model``
twist in fiber dimensions 1-3 at the desk resolutions (``model_checks``:
the ``classify`` tag and t0, ``dlog_dt_range`` and the slice mean
curvature).  The digests depend on the numpy build, so Tier-1 holds the
solves and the models to this baseline: ``tests/test_solve_baseline.py``
requires equal decisions and tags and each float within 1e-12 of it.  A
change that moves a solve's or a model's results on purpose regenerates
the baseline in the same commit.
"""

import argparse
import hashlib
import json
import re
import sys
import tempfile
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

TWISTS = ("grw_exp", "grw_gauss", "separable_gauss", "separable_exp", "additive", "traveling")


def _feed(h, value):
    if isinstance(value, (np.ndarray, np.generic)):
        arr = np.asarray(value)
        h.update(f"array {arr.dtype.str} {arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    elif isinstance(value, float):
        h.update(f"float {value.hex()}".encode())
    elif isinstance(value, (list, tuple)):
        h.update(f"seq {len(value)}".encode())
        for item in value:
            _feed(h, item)
    elif isinstance(value, dict):
        h.update(f"dict {len(value)}".encode())
        for key in sorted(value, key=repr):
            h.update(repr(key).encode())
            _feed(h, value[key])
    elif is_dataclass(value):
        _feed(h, {f.name: getattr(value, f.name) for f in fields(value)})
    else:
        h.update(repr(value).encode())


def digest(value):
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()[:20]


def _outcome(call):
    """``call()``, or the type and message of the exception it raised."""
    try:
        return call()
    except ValueError as exc:  # a refusal is a result too
        return f"{type(exc).__name__}: {exc}"


def _cases():
    for twist in TWISTS:
        for dim in (1, 2, 3):
            if twist == "traveling" and dim > 1:
                continue
            for curved in (False, True):
                yield twist, dim, curved


def _case_times(model):
    """A case's times: a scalar, per-node heights and a block of times."""
    heights = 0.3 + 0.2 * np.sin(2.0 * np.pi * model.fiber.coords[0])
    return {"scalar": 0.2, "heights": heights, "block": model.time_blocks(5)[0]}


def twist_results(tb, out):
    for twist, dim, curved in _cases():
        model = tb.default_model(dim, resolution=8, twist=twist, curved=curved)
        fn, grid = model.twist, model.fiber
        for label, t in _case_times(model).items():
            key = f"twist/{twist}/d{dim}/{'curved' if curved else 'flat'}/{label}"
            for name in ("value", "dt", "fiber_partials", "dlog_dt", "fiber_grad_norm"):
                out[f"{key}/{name}"] = digest(getattr(fn, name)(t, grid))
        out[f"model/{twist}/d{dim}/{'curved' if curved else 'flat'}"] = digest([
            tb.classify(model, t_samples=37), tb.is_grw(model, t_samples=33),
            model.dlog_dt_range(40), tb.slice_mean_curvature(model, 0.1),
        ])


# each time profile kind with its default params and with params of its own
PROFILE_PARAMS = {
    "constant": {"c": 1.7},
    "linear": {"a": 0.6, "b": -0.35},
    "exp": {"rate": -0.8},
    "cosh": {},
    "sech": {},
    "gauss": {},
}


def profile_results(tb, out):
    for twist, dim, curved in _cases():
        model = tb.default_model(dim, resolution=8, twist=twist, curved=curved)
        for label, t in _case_times(model).items():
            key = f"profile/{twist}/d{dim}/{'curved' if curved else 'flat'}/{label}"
            for kind, params in PROFILE_PARAMS.items():
                for name, profile in (("default", tb.TimeProfile(kind)),
                                      ("params", tb.TimeProfile(kind, dict(params)))):
                    out[f"{key}/{kind}/{name}"] = digest([profile.value(t), profile.deriv(t)])


def conformal_factors(tb, model):
    """One factor of each kind, and the static picture at power 2."""
    ripple = tb.TrigPolynomial.from_specs(
        [{"coeff": 0.3, "wavevec": (1,) + (0,) * (model.fiber.dim - 1), "phase": 0.4}],
        model.fiber.periods)
    return [tb.ConformalFactor.constant(0.3),
            tb.ConformalFactor.static_picture(model.twist),
            tb.ConformalFactor.static_picture(model.twist, power=2.0),
            tb.ConformalFactor.fiber_only(ripple)]


def factor_results(tb, out):
    for twist, dim, curved in _cases():
        model = tb.default_model(dim, resolution=8, twist=twist, curved=curved)
        grid = model.fiber
        for label, t in _case_times(model).items():
            key = f"factor/{twist}/d{dim}/{'curved' if curved else 'flat'}/{label}"
            for j, phi in enumerate(conformal_factors(tb, model)):
                for name in ("value", "dt", "fiber_partials"):
                    out[f"{key}/{j}/{name}"] = digest(getattr(phi, name)(t, grid))


KIT_FIELDS = ("f", "dtf", "dlogf", "fiber_df", "mu", "rho", "cosh", "sinh_sq", "H", "support")


def kit_results(tb, out):
    from twistbench.graphs import _Kit

    for twist, dim, curved in _cases():
        model = tb.default_model(dim, resolution=8, twist=twist, curved=curved)
        graph = tb.random_trig_graph(model, seed=dim, amplitude=0.05)
        key = f"kit/{twist}/d{dim}/{'curved' if curved else 'flat'}"
        for form, du in (("graph", None), ("pointwise", 0.5 * model.fiber.partials(graph.u))):
            kit = _Kit(model, graph.u, du, require_spacelike=False)
            for name in KIT_FIELDS:
                out[f"{key}/{form}/{name}"] = digest(getattr(kit, name))
            for name in ("metric", "det_factored", "composed_df", "flux", "curvature_terms"):
                out[f"{key}/{form}/{name}()"] = digest(getattr(kit, name)())
        out[f"{key}/H_fiber"] = digest(tb.mean_curvature(graph))
        out[f"{key}/unit_normal"] = digest(tb.unit_normal(graph))
        out[f"{key}/grad_tau"] = digest(tb.grad_tau(graph))
        out[f"{key}/residual_generalized"] = digest(tb.residual_field(graph, "generalized"))
        out[f"{key}/H_coordinate"] = digest(tb.mean_curvature_from_laplacian(graph))
        out[f"{key}/laplacian_tau"] = digest(
            [tb.laplacian_tau_fiber(graph), tb.laplacian_tau_coordinate(graph)])
        out[f"{key}/obstruction"] = digest(tb.warped_obstruction(graph))
        out[f"{key}/slice_report"] = digest(tb.slice_condition_report(graph))
        out[f"{key}/static"] = digest(_outcome(lambda: tb.static_laplacian_check(graph)))
        h = np.cos(2.0 * np.pi * model.fiber.coords[-1])
        for j, phi in enumerate(conformal_factors(tb, model)):
            out[f"{key}/conformal{j}"] = digest([
                tb.transform_mean_curvature(graph, phi),
                tb.conformal_laplacian_check(h, phi, graph),
                tb.slice_shape_transform(model, 0.1, phi),
            ])


def area_results(tb, out):
    """The first-variation check on 20 sampled nodes and on every node."""
    for twist, dim, curved in _cases():
        model = tb.default_model(dim, resolution=8, twist=twist, curved=curved)
        graph = tb.random_trig_graph(model, seed=dim, amplitude=0.05)
        key = f"area_gradient/{twist}/d{dim}/{'curved' if curved else 'flat'}"
        for count in (20, model.fiber.n_nodes):
            check = tb.area_gradient_check(graph, count=count, seed=dim)
            for name in ("nodes", "fd_gradient", "predicted", "rel_error"):
                out[f"{key}/count{count}/{name}"] = digest(getattr(check, name))


IDENTITY_TWISTS = ("separable_gauss", "additive", "grw_exp")


def identity_results(tb, out):
    """Every identity-suite row at the desk grids (three twists, fiber
    dimensions 1-3, flat and curved fibers), and the rows of a one-graph
    ``laplacian_tau_two_path`` study 8^3 -> 16^3 -> 32^3."""
    from twistbench.verify import run_convergence_study, run_identity_suite

    for twist, dim, curved in _cases():
        if twist not in IDENTITY_TWISTS:
            continue
        model = tb.default_model(dim, twist=twist, curved=curved)
        key = f"suite/{twist}/d{dim}/{'curved' if curved else 'flat'}"
        for row in run_identity_suite(model):
            out[f"{key}/{row['identity']}"] = digest(row)
    study = run_convergence_study(
        tb.default_model(3, resolution=8), quantities=["laplacian_tau_two_path"], count=1)
    out["study/laplacian_tau_two_path/d3/8-32"] = digest(study)


def solve_runs(tb):
    """The fingerprinted solves: name -> (model, initializer, options)."""
    refuse = tb.default_model(1, twist="separable_exp", interval=(-1.0, 1.0))
    no_certificate = {"check_certificate": False}
    return {
        "maximal-1d": (tb.default_model(1), {"seed": 1, "center": 0.2}, {}),
        "maximal-2d": (tb.default_model(2, resolution=24), {"seed": 2, "center": -0.3}, {}),
        "generalized-1d": (tb.default_model(1, twist="additive"), {"seed": 3},
                           {"target": "generalized"}),
        "bound-1d": (refuse, {"seed": 4}, {}),
        "drift-1d": (refuse, {"seed": 4}, no_certificate),
        # short chunks and budgets: chunk boundaries and the best residual
        "budget-1d": (refuse, {"seed": 3}, {**no_certificate, "fallback_chunk": 3,
                                            "fallback_max_sweeps": 17, "max_newton_iters": 4}),
        # a non-slice maximal graph whose relaxed mean moves only by round-off
        "additive-2d": (tb.default_model(2, resolution=16, twist="additive"), {"seed": 0},
                        no_certificate),
    }


def run_solve(tb, model, start, options):
    initial = {"kind": "random_trig", "amplitude": 0.1, **start}
    return tb.solve(model, tb.SolveConfig(initial=initial, **options))


def decisions(outcome):
    """What a solve decided, with no floats: the tag, the Newton iterations,
    the certificate reason and, per log entry, the phase, the gauge, whether
    lgmres converged and the fallback reason."""
    return {
        "tag": outcome.tag,
        "iterations": outcome.iterations,
        "certificate": (outcome.certificate or {}).get("reason"),
        "log": [[e["phase"], e.get("gauge"), e.get("krylov_info") == 0, e.get("fallback_reason")]
                for e in outcome.log],
    }


def headlines(tb, model, outcome):
    """A solve's headline floats: the residual, the best residual of an
    exhausted budget and the final mean height of a solve that iterated,
    for a converged u its distance sup|u - t*| from the transition slice t*
    (from its own mean when the model has no transition), and the
    certificate's floats (its bounds, target, endpoint and residual)."""
    floats = {}
    if outcome.log:
        floats["residual_norm"] = outcome.residual_norm
        if "best_residual" in outcome.diagnostics:
            floats["best_residual"] = outcome.diagnostics["best_residual"]
        floats["u_mean"] = outcome.log[-1]["u_mean"]
    if outcome.tag == "converged":
        u = outcome.graph.u
        cls = tb.classify(model)
        t_star = cls.t0 if cls.tag == "transition" else float(u.mean())
        floats["sup_u_minus_t_star"] = float(np.max(np.abs(u - t_star)))
    for key, value in (outcome.certificate or {}).items():
        if isinstance(value, float):
            floats[f"certificate/{key}"] = value
    return floats


def baseline_models(tb):
    """The baseline's models: name -> every ``default_model`` twist in fiber
    dimensions 1-3 at the desk resolution (``traveling`` in 1-D)."""
    return {f"{twist}/d{dim}": tb.default_model(dim, twist=twist)
            for twist, dim, curved in _cases() if not curved}


def model_checks(tb, model):
    """A model's headline checks: the ``classify`` tag, and as floats its t0
    (transitions only), ``dlog_dt_range`` at the certificate's default
    sample count and the least and largest slice mean curvature at t = 0.1."""
    cls = tb.classify(model)
    lo, hi = model.dlog_dt_range(tb.SolveConfig().certificate_samples)
    slice_h = tb.slice_mean_curvature(model, 0.1)
    floats = {} if cls.t0 is None else {"classify/t0": cls.t0}
    floats.update({"dlog_dt_range/inf": lo, "dlog_dt_range/sup": hi,
                   "slice_mean_curvature/min": float(slice_h.min()),
                   "slice_mean_curvature/max": float(slice_h.max())})
    return {"tag": cls.tag, "floats": floats}


def solve_baseline(tb):
    """Decisions and headline floats of every fingerprinted solve, and the
    model checks of every baseline model: the baseline that
    ``tests/test_solve_baseline.py`` holds results to."""
    solves = {}
    for name, (model, start, options) in solve_runs(tb).items():
        outcome = run_solve(tb, model, start, options)
        solves[name] = {"decisions": decisions(outcome),
                        "floats": headlines(tb, model, outcome)}
    models = {name: model_checks(tb, model) for name, model in baseline_models(tb).items()}
    return {"solves": solves, "models": models}


def solve_results(tb, out):
    for name, (model, start, options) in solve_runs(tb).items():
        outcome = run_solve(tb, model, start, options)
        out[f"solve/{name}"] = digest([
            outcome.tag, outcome.residual_norm, outcome.iterations, outcome.certificate,
            outcome.diagnostics, outcome.log, None if outcome.graph is None else outcome.graph.u,
        ])
        # no floats: equal on a Newton-step change that moves only round-off
        out[f"solve/{name}/decisions"] = digest(list(decisions(outcome).values()))
        if outcome.report is not None:
            report = outcome.report
            out[f"solve/{name}/report"] = digest(
                {f.name: getattr(report, f.name) for f in fields(report) if f.name != "graph"})
        if outcome.tag == "converged" and "target" not in options:
            out[f"solve/{name}/rigidity"] = digest(tb.rigidity_report(outcome))


def positivity_results(tb, out):
    """Build verdicts of twists whose values over the fiber reach zero, go
    negative, overflow, underflow to zero or stay positive."""
    g_profiles = [
        tb.TimeProfile("constant", {"c": 0.0}),
        tb.TimeProfile("linear", {"a": 0.2, "b": -1.0}),
        tb.TimeProfile("exp", {"rate": 800.0}),
        tb.TimeProfile("constant", {"c": 1e-320}),
        tb.TimeProfile("gauss"),
    ]
    q_profiles = [tb.TimeProfile("linear", {"a": 0.0, "b": 1.0}), tb.TimeProfile("cosh")]
    with np.errstate(all="ignore"):
        for dim in (1, 2, 3):
            grid = tb.default_fiber(dim, resolution=9)
            s = tb.TrigPolynomial.from_specs(
                [{"coeff": 1.0, "wavevec": (1,) + (0,) * (dim - 1), "phase": 0.3}], grid.periods)
            twists = [tb.TwistedFunction("pure_time", g=g) for g in g_profiles]
            for g in g_profiles:
                for eps in (0.1, 0.999, 1.0, -1.0, 2.0, -0.5, -0.0):
                    twists.append(tb.TwistedFunction("separable", g=g, eps=eps, s=s))
                    twists += [tb.TwistedFunction("additive", g=g, eps=eps, s=s, q=q)
                               for q in q_profiles]
            if dim == 1:
                twists += [tb.TwistedFunction("traveling", amp=a, period=0.5) for a in (0.3, -0.9)]
            verdicts = []
            for twist in twists:
                for interval in ((-1.0, 1.0), (-2.0, 3.0)):
                    verdicts.append(_outcome(
                        lambda: tb.SpacetimeModel(interval, grid, twist) and "ok"))
            out[f"positivity/d{dim}"] = digest(verdicts)
            out[f"positivity/d{dim}/count"] = len(verdicts)
        # a traveling check past one sweep block: 64 times x 4096 nodes
        grid, wave = tb.default_fiber(1, resolution=4096), tb.TwistedFunction("traveling", amp=0.9)
        out["positivity/traveling-4096"] = digest([
            _outcome(lambda: tb.SpacetimeModel(interval, grid, wave) and "ok")
            for interval in ((-1.0, 1.0), (-np.inf, 1.0))])


def csv_results(tb, out):
    from twistbench.serialize import (
        geometry_report_table,
        write_field_csv,
        write_gnuplot_data,
        write_table_csv,
    )

    with tempfile.TemporaryDirectory() as tmp:
        for dim in (1, 2, 3):
            twist = "additive" if dim == 2 else "separable_gauss"
            model = tb.default_model(dim, resolution=8, twist=twist)
            graph = tb.random_trig_graph(model, seed=5, amplitude=0.05)
            report = tb.geometry_report(graph)
            out[f"geometry/d{dim}/summary"] = digest(report.summary())
            path = Path(tmp) / "report.csv"
            table = geometry_report_table(report)
            write_table_csv(table, path)
            out[f"csv/d{dim}/table"] = digest(path.read_bytes())
            write_gnuplot_data(table, path)
            out[f"gnuplot/d{dim}/table"] = digest(path.read_bytes())
            write_field_csv(model.fiber, graph.u, path, name="u")
            out[f"csv/d{dim}/field"] = digest(path.read_bytes())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the twistbench package to fingerprint")
    parser.add_argument("--out", default=None, help="write the JSON here instead of stdout")
    parser.add_argument("--solve-baseline", default=None, metavar="PATH",
                        help="write the solves' decisions and headline floats to PATH "
                             "as readable JSON, instead of the digests")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import twistbench as tb

    if args.solve_baseline is not None:
        baseline = solve_baseline(tb)
        text = json.dumps(baseline, indent=1) + "\n"
        # one line per innermost list: a log entry reads as one line
        text = re.sub(r"\[[^\[\]{}]*\]", lambda m: json.dumps(json.loads(m[0])), text)
        Path(args.solve_baseline).write_text(text)
        print(f"{len(baseline['solves'])} solves and {len(baseline['models'])} models "
              f"from {tb.__file__}", file=sys.stderr)
        return
    out = {}
    parts = (twist_results, profile_results, factor_results, kit_results, area_results,
             identity_results, solve_results, positivity_results, csv_results)
    for part in parts:
        part(tb, out)
    text = json.dumps(out, indent=1, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    print(f"{len(out)} results from {tb.__file__}", file=sys.stderr)


if __name__ == "__main__":
    main()
