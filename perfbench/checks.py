"""Per-op correctness checks and fingerprints.

Each check takes what one op produced and returns the list of problems it
found; an empty list means the op passed.  The checks read only public
outcome fields, so a hand-built wrong outcome (see ``selftest.py``) fails
them the same way a wrong solve would.  Fingerprints carry every digit, so
two commits can be compared for "converged solutions match to <= 1e-12".
"""

RESIDUAL_TOL = 1e-10   # maximal solves: sup-norm residual at convergence
SUP_U_TOL = 1e-6       # acceptance criterion 7: sup|u| of the maximal slice
GAP_TOL = 1e-6         # rigidity report: |mean height - transition time|


def _sup_abs(values, shift=0.0):
    return max(abs(float(v) - shift) for v in values.ravel())


def check_maximal(outcome, rigidity):
    problems = []
    if outcome.tag != "converged":
        return [f"tag {outcome.tag!r}, expected 'converged'"]
    if not outcome.residual_norm <= RESIDUAL_TOL:
        problems.append(f"residual {outcome.residual_norm!r} > {RESIDUAL_TOL}")
    sup_u = _sup_abs(outcome.graph.u)
    if not sup_u <= SUP_U_TOL:
        problems.append(f"sup|u| {sup_u!r} > {SUP_U_TOL}")
    gap = getattr(rigidity, "transition_gap", None)
    if gap is None or not gap <= GAP_TOL:
        problems.append(f"rigidity transition gap {gap!r} not <= {GAP_TOL}")
    return problems


def fingerprint_maximal(outcome, rigidity):
    t_star = getattr(rigidity, "transition_time", None) or 0.0
    return {
        "tag": outcome.tag,
        "iterations": outcome.iterations,
        "residual": outcome.residual_norm,
        "sup_u_minus_t_star": _sup_abs(outcome.graph.u, t_star),
        "area": outcome.log[-1]["area"] if outcome.log else None,
        "transition_gap": getattr(rigidity, "transition_gap", None),
    }


def check_refuse(bounded, free):
    """Certificate on must give a bound; certificate off must never converge."""
    problems = []
    reason = (bounded.certificate or {}).get("reason")
    if bounded.tag != "nonexistence" or reason != "bound":
        problems.append(f"certificate-on solve gave {bounded.tag!r}/{reason!r}, expected bound")
    reason = (free.certificate or {}).get("reason")
    if free.tag == "nonexistence":
        if reason != "drift":
            problems.append(f"certificate-off solve gave nonexistence/{reason!r}, expected drift")
    elif free.tag != "not_converged":
        problems.append(f"certificate-off solve gave {free.tag!r}, expected drift or not_converged")
    return problems


def fingerprint_refuse(bounded, free):
    last = free.log[-1] if free.log else {}
    return {
        "bound": {"tag": bounded.tag, "reason": (bounded.certificate or {}).get("reason")},
        "free": {
            "tag": free.tag,
            "reason": (free.certificate or {}).get("reason"),
            "iterations": free.iterations,
            "fallback_sweeps": sum(1 for e in free.log if e["phase"] == "fallback"),
            "residual": free.residual_norm,
            "u_mean": last.get("u_mean"),
            "area": last.get("area"),
        },
    }


def check_verify(codes, tables):
    """Both CLI calls exit 0 and every gate row in their JSON passes."""
    problems = [f"{task} exited {code}, expected 0" for task, code in codes.items() if code != 0]
    for task, table in tables.items():
        if table is None:
            problems.append(f"{task} wrote no JSON table")
            continue
        rows = table.get("identities", table.get("quantities", []))
        if not rows:
            problems.append(f"{task} table has no gate rows")
        failed = [r.get("identity") for r in rows if r.get("pass") is not True]
        if failed or table.get("pass") is not True:
            problems.append(f"{task} gates failed: {failed}")
    return problems


def fingerprint_verify(codes, tables):
    out = {"codes": dict(codes)}
    for task, table in tables.items():
        rows = (table or {}).get("identities", (table or {}).get("quantities", []))
        # verify rows carry max_defect, convergence rows the defect per level
        out[task] = {r["identity"]: r.get("max_defect", r.get("defects")) for r in rows}
    return out


def solver_stats(outcomes):
    """Newton iterations, accepted Newton steps and fallback sweeps from the
    public outcome fields and iteration logs of one op's solves."""
    iters = sum(o.iterations for o in outcomes)
    accepted = sum(1 for o in outcomes for e in o.log if e["phase"] == "newton")
    sweeps = sum(1 for o in outcomes for e in o.log if e["phase"] == "fallback")
    return {
        "solver.newton_iters": iters,
        "solver.newton_accept_ratio": accepted / iters if iters else 0.0,
        "solver.fallback_sweeps": sweeps,
    }
