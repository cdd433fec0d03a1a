"""Command line driver: geometry reports, solves, verification, convergence.

    twistbench <geometry|solve|verify|convergence> --config cfg.json
               [--out DIR] [--seed N]

Exit codes are part of the interface: 0 success (or converged), 1 config or
schema error, 2 constraint violation (non-spacelike graph or domain error),
3 non-existence certificate, 4 not converged or a failed verification gate.
The TWISTBENCH_THREADS environment variable caps BLAS/OpenMP parallelism:
each thread variable keeps the smaller of its own value and the cap (0 or
unset leaves them as they are, and a cap that is not a non-negative
integer exits 1).
"""

import argparse
import os
import sys


# the thread-count variables of the BLAS and OpenMP libraries numpy may load
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _apply_thread_cap():
    """Cap each of ``_THREAD_VARS`` at TWISTBENCH_THREADS: a variable set to
    a positive integer keeps the smaller of it and the cap, any other takes
    the cap.  A cap of 0, or none, leaves them as they are.  Returns an
    error message when the cap is not a non-negative integer, else None."""
    raw = os.environ.get("TWISTBENCH_THREADS", "").strip()
    if not raw:
        return None
    if not (raw.isascii() and raw.isdigit()):
        return f"TWISTBENCH_THREADS must be a non-negative integer, got {raw!r}"
    cap = int(raw)
    if cap:
        for var in _THREAD_VARS:
            value = os.environ.get(var, "").strip()
            own = int(value) if value.isascii() and value.isdigit() else 0
            os.environ[var] = str(min(own, cap) if own else cap)
    return None


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="twistbench",
        description="numerical workbench for spacelike graphs in twisted products",
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for name, text in [
        ("geometry", "evaluate the geometry report for a configured graph"),
        ("solve", "run the prescribed-mean-curvature solver"),
        ("verify", "run the identity verification suite"),
        ("convergence", "run the grid-refinement order study"),
    ]:
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def _initializer_spec(block, default_seed):
    spec = dict(block["initializer"])
    if spec.get("kind") == "random_trig":
        spec.setdefault("seed", default_seed)
    return spec


def _run_geometry(model, cfg, out_dir):
    from .graphs import geometry_report
    from .initializers import resolve_initializer
    from .serialize import (
        geometry_report_table,
        write_field_binary,
        write_gnuplot_data,
        write_json,
        write_table_csv,
    )

    graph = resolve_initializer(model, _initializer_spec(cfg["geometry"], cfg["seed"]))
    report = geometry_report(graph)
    formats = cfg["output"]["formats"]
    table = geometry_report_table(report)
    if "csv" in formats:
        write_table_csv(table, out_dir / "report.csv")
    if "binary" in formats:
        write_field_binary(model.fiber, graph.u, out_dir / "u.bin")
    if "gnuplot-data" in formats:
        write_gnuplot_data(table, out_dir / "report.dat")
    write_json({"summary": report.summary(), "config": cfg}, out_dir / "summary.json")
    return 0


def _outcome_payload(outcome, cfg):
    payload = {
        "tag": outcome.tag,
        "residual_norm": outcome.residual_norm,
        "iterations": outcome.iterations,
        "certificate": outcome.certificate,
        "diagnostics": outcome.diagnostics,
        "config": cfg,
    }
    if outcome.report is not None:
        payload["summary"] = outcome.report.summary()
    return payload


def _run_solve(model, cfg, out_dir):
    from dataclasses import asdict

    from .config import SolveConfig
    from .serialize import (
        write_field_binary,
        write_field_csv,
        write_json,
        write_jsonl,
    )
    from .solver import rigidity_report, solve

    block = cfg["solve"]
    options = {key: value for key, value in block.items() if key != "initializer"}
    solve_cfg = SolveConfig(initial=_initializer_spec(block, cfg["seed"]), **options)
    outcome = solve(model, solve_cfg)

    formats = cfg["output"]["formats"]
    write_jsonl(outcome.log, out_dir / "iterations.jsonl")
    write_json(_outcome_payload(outcome, cfg), out_dir / "outcome.json")
    if outcome.tag == "converged":
        if "csv" in formats:
            write_field_csv(model.fiber, outcome.graph.u, out_dir / "solution.csv", name="u")
        if "binary" in formats:
            write_field_binary(model.fiber, outcome.graph.u, out_dir / "u.bin")
        if solve_cfg.target == 0.0:
            write_json(asdict(rigidity_report(outcome)), out_dir / "rigidity.json")
        return 0
    if outcome.tag == "nonexistence":
        return 3
    return 4


def _report_rows(task, key, rows, columns, cfg, out_dir, shown):
    """Write a verify or convergence table, and its gnuplot ``columns`` when
    asked; print one PASS/FAIL line per row, ``shown(row)`` after the name.
    Returns the exit code: 0 if every row passes, else 4."""
    from .serialize import write_gnuplot_data, write_json

    all_pass = all(r["pass"] for r in rows)
    write_json({key: rows, "pass": all_pass, "config": cfg}, out_dir / f"{task}.json")
    if "gnuplot-data" in cfg["output"]["formats"]:
        write_gnuplot_data(columns, out_dir / f"{task}.dat")
    for r in rows:
        print(f"{'PASS' if r['pass'] else 'FAIL'} {r['identity']}: {shown(r)}")
    return 0 if all_pass else 4


def _run_verify(model, cfg, out_dir):
    from .verify import run_identity_suite

    block = cfg["verify"]
    rows = run_identity_suite(
        model,
        count=block["corpus_count"],
        seed0=100 + cfg["seed"],
        amplitude=block["amplitude"],
        identities=block.get("identities"),
        thresholds=block.get("thresholds"),
    )
    columns = {
        "index": list(range(len(rows))),
        "max_defect": [r["max_defect"] for r in rows],
        "threshold": [r["threshold"] for r in rows],
    }
    return _report_rows(
        "verify", "identities", rows, columns, cfg, out_dir,
        lambda r: f"max defect {r['max_defect']:.3e} (threshold {r['threshold']:.1e})",
    )


def _run_convergence(model, cfg, out_dir):
    from .verify import run_convergence_study

    block = cfg["convergence"]
    rows = run_convergence_study(
        model,
        quantities=block.get("quantities"),
        count=block["corpus_count"],
        seed0=100 + cfg["seed"],
        amplitude=block["amplitude"],
        factors=tuple(block["factors"]),
        min_order=block["min_order"],
    )
    columns = {"level": list(range(len(rows[0]["defects"])))}
    for r in rows:
        columns[f"defect_{r['identity']}"] = r["defects"]
    return _report_rows(
        "convergence", "quantities", rows, columns, cfg, out_dir,
        lambda r: "exact" if r["observed_order"] is None else f"order {r['observed_order']:.2f}",
    )


def main(argv=None):
    error = _apply_thread_cap()
    if error is not None:
        print(f"config error: {error}", file=sys.stderr)
        return 1
    args = _build_parser().parse_args(argv)

    from pathlib import Path

    from .config import build_model, load_config, resolve
    from .errors import ConfigError, DomainError, SpacelikeError

    try:
        raw = load_config(args.config)
        if raw["task"] != args.task:
            raise ConfigError(
                f"config task {raw['task']!r} does not match subcommand {args.task!r}"
            )
        cfg = resolve(raw, seed=args.seed, out_dir=args.out)
        model = build_model(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    out_dir = Path(cfg["output"]["directory"])
    out_dir.mkdir(parents=True, exist_ok=True)

    from .serialize import write_metadata

    runner = {
        "geometry": _run_geometry,
        "solve": _run_solve,
        "verify": _run_verify,
        "convergence": _run_convergence,
    }[args.task]
    try:
        code = runner(model, cfg, out_dir)
    except (SpacelikeError, DomainError) as exc:
        print(f"constraint error: {exc}", file=sys.stderr)
        return 2
    write_metadata(out_dir / "metadata.json", task=args.task, exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main())
