"""Self-test of the benchmark's own checks: ``python3 perfbench/run.py --self-test``.

Hand-built outcomes that are wrong in one way each must count as failed, a
hand-built right one must pass, a wrapped function that no longer exists
must read ``missing`` (never 0), and BENCHMARK.json must list exactly the
workloads and per-layer metrics the code produces.
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _maximal_cases(np, SolveOutcome, RigidityReport):
    def outcome(tag="converged", residual=1e-12, u=0.0):
        log = [{"phase": "newton", "area": 1.0}]
        return SolveOutcome(tag=tag, graph=SimpleNamespace(u=np.full((8, 8), u)),
                            residual_norm=residual, iterations=4, log=log)

    def rigidity(gap=1e-12):
        return RigidityReport(constancy_defect=0.0, mean_height=0.0, max_abs_dtf_at_mean=0.0,
                              product_sign_min=0.0, product_sign_max=0.0,
                              transition_time=0.0, transition_gap=gap)

    return {
        "converged with sup|u| = 0.1": (outcome(u=0.1), rigidity()),
        "converged with residual 1e-8": (outcome(residual=1e-8), rigidity()),
        "not_converged": (outcome(tag="not_converged"), rigidity()),
        "rigidity gap 0.2": (outcome(), rigidity(gap=0.2)),
        "no transition gap": (outcome(), rigidity(gap=None)),
    }, (outcome(), rigidity())


def _refuse_cases(SolveOutcome):
    bound = SolveOutcome(tag="nonexistence", certificate={"reason": "bound"})
    drift = SolveOutcome(tag="nonexistence", certificate={"reason": "drift"})
    return {
        "certificate-off solve converged": (bound, SolveOutcome(tag="converged")),
        "certificate-on solve gave drift": (drift, drift),
        "certificate-on solve not_converged": (SolveOutcome(tag="not_converged"), drift),
        "certificate-off nonexistence/bound": (bound, bound),
    }, (bound, drift)


def _verify_cases():
    row = {"identity": "mean_curvature_two_path", "max_defect": 1e-3, "pass": True}
    good = {"verify": {"identities": [row], "pass": True},
            "convergence": {"quantities": [dict(row, observed_order=2.0)], "pass": True}}
    bad_row = {"verify": {"identities": [dict(row, **{"pass": False})], "pass": False},
               "convergence": good["convergence"]}
    return {
        "verify exit code 4": ({"verify": 4, "convergence": 0}, good),
        "convergence exit code 2": ({"verify": 0, "convergence": 2}, good),
        "a failing gate row": ({"verify": 0, "convergence": 0}, bad_row),
        "no JSON table written": ({"verify": 0, "convergence": 0},
                                  {"verify": None, "convergence": good["convergence"]}),
    }, ({"verify": 0, "convergence": 0}, good)


def _metrics_without(module, attribute):
    """Layer metrics of a tracer installed while ``module.attribute`` is gone."""
    from spans import Tracer, layer_metrics

    original = getattr(module, attribute)
    delattr(module, attribute)
    tracer = Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
        setattr(module, attribute, original)
    return layer_metrics(tracer, [0], {}, {"trace.op_s.p50": 1.0, "trace.overhead": 0.0})


def _missing_reads_missing():
    """A removed wrapped function, and every count made through it, must
    read 'missing'; the other counts must not."""
    from spans import MISSING

    import twistbench.graphs as graphs
    import twistbench.solver as solver

    curvature = _metrics_without(graphs, "mean_curvature")
    krylov = _metrics_without(solver, "lgmres")
    return (curvature["graphs.mean_curvature_calls"] == MISSING
            and curvature["graphs.mean_curvature_s"] == MISSING
            and curvature["graphs.kit_builds"] != MISSING
            and krylov["solver.krylov_solves"] == MISSING
            and krylov["solver.matvecs"] == MISSING
            and krylov["solver.residual_evals"] != MISSING)


def _benchmark_json_matches():
    from run import WORKLOADS
    from spans import METRICS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    produced = {name: (unit, better) for name, (unit, better, *_) in METRICS.items()}
    workloads = tuple(w["name"] for w in spec["workloads"])
    return listed == produced and workloads == WORKLOADS


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from checks import check_maximal, check_refuse, check_verify
    from twistbench.solver import RigidityReport, SolveOutcome

    results = []
    wrong, right = _maximal_cases(np, SolveOutcome, RigidityReport)
    results += [(f"maximal: {k}", bool(check_maximal(*v))) for k, v in wrong.items()]
    results.append(("maximal: right outcome passes", not check_maximal(*right)))
    wrong, right = _refuse_cases(SolveOutcome)
    results += [(f"refuse: {k}", bool(check_refuse(*v))) for k, v in wrong.items()]
    results.append(("refuse: right outcome passes", not check_refuse(*right)))
    wrong, right = _verify_cases()
    results += [(f"verify: {k}", bool(check_verify(*v))) for k, v in wrong.items()]
    results.append(("verify: right outcome passes", not check_verify(*right)))
    results.append(("a removed wrapped function reads 'missing'", _missing_reads_missing()))
    results.append(("BENCHMARK.json matches the code", _benchmark_json_matches()))

    for name, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    failed = sum(1 for _, ok in results if not ok)
    print(f"{len(results) - failed} of {len(results)} self-checks passed")
    return 1 if failed else 0
