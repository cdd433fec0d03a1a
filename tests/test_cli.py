import json
import subprocess
import sys
from pathlib import Path

import pytest

import twistbench
from twistbench.cli import main


def base_config(task, out_dir, twist=None, fiber=None, interval=(-1.5, 1.5)):
    cfg = {
        "task": task,
        "seed": 3,
        "spacetime": {
            "interval": list(interval),
            "fiber": fiber
            or {"dim": 1, "periods": [1.0], "resolution": [128]},
            "twist": twist
            or {
                "family": "separable",
                "g": {"kind": "gauss"},
                "eps": 0.1,
                "s": {"modes": [{"coeff": 1.0, "wavevec": [1]}]},
            },
        },
        "output": {"directory": str(out_dir), "formats": ["csv", "json"]},
    }
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestGeometryCommand:
    def test_slice_summary_matches_slice_curvature(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config("geometry", out)
        cfg["geometry"] = {"initializer": {"kind": "constant", "value": 0.4}}
        code = main(["geometry", "--config", str(write_config(tmp_path, cfg))])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())["summary"]
        # H extrema equal the slice-law extrema of d/dt log f at t0 = 0.4
        from twistbench import default_model, slice_mean_curvature

        model = default_model(1, twist="separable_gauss")
        ref = slice_mean_curvature(model, 0.4)
        assert abs(summary["mean_curvature"]["min"] - ref.min()) <= 1e-12
        assert abs(summary["mean_curvature"]["max"] - ref.max()) <= 1e-12
        assert (out / "report.csv").exists()
        assert (out / "metadata.json").exists()

    def test_traveling_slice_reports_nonzero_obstruction(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(
            "geometry", out, twist={"family": "traveling", "amp": 0.3, "period": 1.0}
        )
        cfg["geometry"] = {"initializer": {"kind": "constant", "value": 0.0}}
        code = main(["geometry", "--config", str(write_config(tmp_path, cfg))])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())["summary"]
        assert summary["obstruction_norm_max"] > 0.01

    def test_nonspacelike_initializer_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = base_config(
            "geometry",
            out,
            twist={"family": "pure_time", "g": {"kind": "constant", "params": {"c": 1.0}}},
        )
        cfg["geometry"] = {
            "initializer": {
                "kind": "random_trig",
                "seed": 1,
                "amplitude": 3.0,
                "rescale": False,
            }
        }
        code = main(["geometry", "--config", str(write_config(tmp_path, cfg))])
        assert code == 2
        err = capsys.readouterr().err
        assert "not spacelike" in err and "node" in err

    def test_slice_outside_interval_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = base_config("geometry", out)
        cfg["geometry"] = {"initializer": {"kind": "constant", "value": 5.0}}
        code = main(["geometry", "--config", str(write_config(tmp_path, cfg))])
        assert code == 2
        err = capsys.readouterr().err
        assert "constraint error: slice time t0 outside the open interval" in err

    def test_summary_embeds_resolved_config_for_reruns(self, tmp_path):
        out1 = tmp_path / "out1"
        cfg = base_config("geometry", out1)
        cfg["geometry"] = {"initializer": {"kind": "constant", "value": 0.2}}
        assert main(["geometry", "--config", str(write_config(tmp_path, cfg))]) == 0
        embedded = json.loads((out1 / "summary.json").read_text())["config"]
        out2 = tmp_path / "out2"
        embedded_path = write_config(tmp_path, embedded, name="embedded.json")
        assert main(["geometry", "--config", str(embedded_path), "--out", str(out2)]) == 0
        a = json.loads((out1 / "summary.json").read_text())["summary"]
        b = json.loads((out2 / "summary.json").read_text())["summary"]
        assert a == b


class TestConfigErrors:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = base_config("geometry", tmp_path / "out")
        cfg["geometry"] = {"initializer": {"kind": "constant", "value": 0.0}}
        cfg["surprise"] = 1
        assert main(["geometry", "--config", str(write_config(tmp_path, cfg))]) == 1

    def test_task_mismatch_rejected(self, tmp_path):
        cfg = base_config("geometry", tmp_path / "out")
        cfg["geometry"] = {"initializer": {"kind": "constant", "value": 0.0}}
        assert main(["solve", "--config", str(write_config(tmp_path, cfg))]) == 1

    def test_missing_task_block_rejected(self, tmp_path):
        cfg = base_config("solve", tmp_path / "out")
        assert main(["solve", "--config", str(write_config(tmp_path, cfg))]) == 1

    def test_missing_file_rejected(self, tmp_path):
        assert main(["geometry", "--config", str(tmp_path / "absent.json")]) == 1

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["geometry", "--config", str(path)]) == 1

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_number_is_a_config_error(self, tmp_path, capsys, literal):
        # NaN passes the schema's bounds; it used to end in a ValueError
        # traceback from SolveConfig
        cfg = base_config("solve", tmp_path / "out")
        cfg["solve"] = {"initializer": {"kind": "constant", "value": 0.1},
                        "residual_tol": "PLACEHOLDER"}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg).replace('"PLACEHOLDER"', literal))
        assert main(["solve", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert literal in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "task, block, where",
        [
            ("verify", {"identities": ["support_identity", "nonsense"]}, "verify/identities/1"),
            ("verify", {"thresholds": {"mean_curvatre_two_path": 1e-3}}, "verify/thresholds"),
            ("convergence", {"quantities": ["support_identity", "nonsense"]},
             "convergence/quantities/1"),
        ],
    )
    def test_unknown_identity_is_a_config_error(self, tmp_path, capsys, task, block, where):
        # an unknown name used to end in a KeyError traceback after the
        # output directory was made; a misspelled threshold was ignored
        cfg = base_config(task, tmp_path / "out")
        cfg[task] = block
        assert main([task, "--config", str(write_config(tmp_path, cfg))]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config schema violation at {where}:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("task, block, where", [
        ("verify", {"identities": []}, "verify/identities"),
        ("convergence", {"quantities": []}, "convergence/quantities"),
    ])
    def test_empty_identity_list_is_a_config_error(self, tmp_path, capsys, task, block, where):
        # an empty list used to run the default set: 16 rows for verify
        cfg = base_config(task, tmp_path / "out")
        cfg[task] = block
        assert main([task, "--config", str(write_config(tmp_path, cfg))]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config schema violation at {where}:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("g", [{"kind": "exp", "params": {"c": 3}},
                                   {"kind": "gauss", "params": {"rate": 1.0}}], ids=str)
    def test_a_param_the_kind_never_reads_is_a_config_error(self, tmp_path, capsys, g):
        # exp with c used to validate and run as exp(t)
        cfg = base_config("verify", tmp_path / "out", twist={"family": "pure_time", "g": g})
        assert main(["verify", "--config", str(write_config(tmp_path, cfg))]) == 1
        (param,) = g["params"]
        assert capsys.readouterr().err == (
            "config error: config schema violation at spacetime/twist/g/params: "
            f"Additional properties are not allowed ({param!r} was unexpected)\n"
        )
        assert not (tmp_path / "out").exists()


class TestSolveCommand:
    def test_transition_solve_exits_0_with_artifacts(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config("solve", out)
        cfg["solve"] = {
            "target": 0.0,
            "initializer": {"kind": "random_trig", "amplitude": 0.1, "center": 0.3},
        }
        code = main(["solve", "--config", str(write_config(tmp_path, cfg))])
        assert code == 0
        outcome = json.loads((out / "outcome.json").read_text())
        assert outcome["tag"] == "converged"
        assert outcome["residual_norm"] <= 1e-10
        assert (out / "iterations.jsonl").exists()
        assert (out / "solution.csv").exists()
        rigidity = json.loads((out / "rigidity.json").read_text())
        assert rigidity["constancy_defect"] <= 1e-6

    def test_bound_certificate_exits_3(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(
            "solve",
            out,
            twist={"family": "pure_time", "g": {"kind": "exp", "params": {"rate": 1.0}}},
            interval=(-1.0, 1.0),
        )
        cfg["solve"] = {"target": -0.5, "initializer": {"kind": "constant", "value": 0.0}}
        code = main(["solve", "--config", str(write_config(tmp_path, cfg))])
        assert code == 3
        outcome = json.loads((out / "outcome.json").read_text())
        assert outcome["certificate"]["reason"] == "bound"

    def test_budget_exhaustion_exits_4(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(
            "solve",
            out,
            twist={
                "family": "separable",
                "g": {"kind": "exp", "params": {"rate": 1.0}},
                "eps": 0.1,
                "s": {"modes": [{"coeff": 1.0, "wavevec": [1]}]},
            },
            interval=(-1.0, 1.0),
        )
        cfg["solve"] = {
            "target": 0.0,
            "initializer": {"kind": "random_trig", "amplitude": 0.1},
            "check_certificate": False,
            "max_newton_iters": 2,
            "fallback_chunk": 2,
            "fallback_max_sweeps": 2,
        }
        code = main(["solve", "--config", str(write_config(tmp_path, cfg))])
        assert code == 4

    def test_solve_reruns_from_its_embedded_config(self, tmp_path):
        from twistbench.config import SCHEMA

        out1 = tmp_path / "out1"
        cfg = base_config("solve", out1)
        cfg["solve"] = {"initializer": {"kind": "random_trig", "amplitude": 0.1, "center": 0.3}}
        assert main(["solve", "--config", str(write_config(tmp_path, cfg))]) == 0
        embedded = json.loads((out1 / "outcome.json").read_text())["config"]
        assert set(embedded["solve"]) == set(SCHEMA["properties"]["solve"]["properties"])
        out2 = tmp_path / "out2"
        path = write_config(tmp_path, embedded, name="embedded.json")
        assert main(["solve", "--config", str(path), "--out", str(out2)]) == 0
        first = (out1 / "outcome.json").read_text()
        assert first.count(json.dumps(str(out1))) == 1
        assert (out2 / "outcome.json").read_text() == first.replace(
            json.dumps(str(out1)), json.dumps(str(out2))
        )
        assert (out2 / "iterations.jsonl").read_bytes() == (out1 / "iterations.jsonl").read_bytes()

    def test_schema_options_are_solve_config_fields(self):
        from dataclasses import fields

        from twistbench.config import SCHEMA
        from twistbench.solver import SolveConfig

        options = set(SCHEMA["properties"]["solve"]["properties"]) - {"initializer"}
        assert options <= {f.name for f in fields(SolveConfig)}

    def test_every_schema_option_reaches_solve_config(self, tmp_path, monkeypatch):
        from twistbench import solver
        from twistbench.config import SCHEMA

        settings = {
            "target": "generalized",
            "residual_tol": 3e-9,
            "max_newton_iters": 7,
            "krylov_rtol": 2e-7,
            "krylov_maxiter": 33,
            "spacelike_cap": 0.9,
            "interval_margin": 2e-5,
            "check_certificate": False,
            "certificate_samples": 40,
            "fallback_chunk": 5,
            "fallback_max_sweeps": 11,
            "drift_window": 4,
        }
        assert set(settings) == set(SCHEMA["properties"]["solve"]["properties"]) - {"initializer"}
        seen = []

        def capture(model, config):
            seen.append(config)
            return solver.SolveOutcome("not_converged", residual_norm=1.0)

        monkeypatch.setattr(solver, "solve", capture)
        out = tmp_path / "out"
        cfg = base_config("solve", out)
        cfg["solve"] = {"initializer": {"kind": "constant", "value": 0.1}, **settings}
        assert main(["solve", "--config", str(write_config(tmp_path, cfg))]) == 4
        (config,) = seen
        for key, value in settings.items():
            assert getattr(config, key) == value, key
        # the spec as given: solve resolves it
        assert config.initial == {"kind": "constant", "value": 0.1}


class TestVerifyCommand:
    def test_default_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = base_config("verify", out)
        code = main(["verify", "--config", str(write_config(tmp_path, cfg))])
        assert code == 0
        table = json.loads((out / "verify.json").read_text())
        assert table["pass"]
        assert {row["identity"] for row in table["identities"]} >= {
            "mean_curvature_two_path",
            "laplacian_tau_two_path",
            "det_two_path",
        }
        assert "PASS" in capsys.readouterr().out

    def test_impossible_threshold_exits_4(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config("verify", out)
        cfg["verify"] = {
            "identities": ["mean_curvature_two_path"],
            "thresholds": {"mean_curvature_two_path": 1e-30},
        }
        code = main(["verify", "--config", str(write_config(tmp_path, cfg))])
        assert code == 4


class TestConvergenceCommand:
    def test_order_study_passes(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(
            "convergence",
            out,
            fiber={"dim": 1, "periods": [1.0], "resolution": [32]},
        )
        cfg["convergence"] = {
            "quantities": ["mean_curvature_two_path", "support_identity"],
            "corpus_count": 2,
        }
        code = main(["convergence", "--config", str(write_config(tmp_path, cfg))])
        assert code == 0
        table = json.loads((out / "convergence.json").read_text())
        by_name = {r["identity"]: r for r in table["quantities"]}
        assert by_name["mean_curvature_two_path"]["observed_order"] >= 1.9
        assert by_name["support_identity"]["orders"] is None


class TestIdempotence:
    def test_rerun_is_byte_identical_outside_metadata(self, tmp_path):
        cfg = base_config("solve", tmp_path / "out1")
        cfg["solve"] = {
            "target": 0.0,
            "initializer": {"kind": "random_trig", "amplitude": 0.1, "center": 0.3},
        }
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", str(path)]) == 0
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out2")]) == 0
        for name in ("iterations.jsonl", "solution.csv"):
            a = (tmp_path / "out1" / name).read_bytes()
            b = (tmp_path / "out2" / name).read_bytes()
            assert a == b
        # outcome.json differs only through the embedded output directory
        oa = json.loads((tmp_path / "out1" / "outcome.json").read_text())
        ob = json.loads((tmp_path / "out2" / "outcome.json").read_text())
        oa["config"]["output"].pop("directory")
        ob["config"]["output"].pop("directory")
        assert oa == ob


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "out"
    cfg = base_config("geometry", out)
    cfg["geometry"] = {"initializer": {"kind": "constant", "value": 0.1}}
    path = write_config(tmp_path, cfg)
    package_root = Path(twistbench.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "twistbench.cli", "geometry", "--config", str(path)],
        capture_output=True,
        text=True,
        # Scrubbed on purpose; PYTHONPATH is the imported package's root, so no install is needed.
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": str(package_root),
            "TWISTBENCH_THREADS": "1",
        },
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.json").exists()


def _scrubbed_python(code, **env):
    """Run ``code`` in a fresh interpreter that sees only this package."""
    package_root = Path(twistbench.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(package_root), **env},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestImportGraph:
    def test_config_does_not_load_scipy(self):
        # the verify and convergence commands load config but never the
        # solver, and the solve commands never load the identity suite
        result = _scrubbed_python(
            "import json, sys\n"
            "import twistbench.config\n"
            "scipy = 'scipy' in sys.modules\n"
            "verify = 'twistbench.verify' in sys.modules\n"
            "import twistbench.solver\n"
            "print(json.dumps({'scipy': scipy, 'verify': verify,\n"
            "                  'same': twistbench.solver.SolveConfig\n"
            "                  is twistbench.config.SolveConfig}))\n"
        )
        assert result == {"scipy": False, "verify": False, "same": True}


class TestThreadCap:
    def test_importing_the_cli_does_not_load_numpy(self):
        result = _scrubbed_python(
            "import json, sys\n"
            "import twistbench.cli\n"
            "before = 'numpy' in sys.modules\n"
            "import twistbench\n"
            "print(json.dumps({'before': before, 'solve': twistbench.solve.__module__,\n"
            "                  'after': 'numpy' in sys.modules}))\n"
        )
        assert result == {"before": False, "solve": "twistbench.solver", "after": True}

    def test_cap_is_in_the_environment_when_numpy_loads(self, tmp_path):
        cfg = base_config("geometry", tmp_path / "out")
        cfg["geometry"] = {"initializer": {"kind": "constant", "value": 0.1}}
        path = write_config(tmp_path, cfg)
        result = _scrubbed_python(
            "import json, os, sys\n"
            "seen = {}\n"
            "class Spy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy' and not seen:\n"
            "            seen['cap'] = os.environ.get('OPENBLAS_NUM_THREADS')\n"
            "sys.meta_path.insert(0, Spy())\n"
            "from twistbench.cli import main\n"
            f"code = main(['geometry', '--config', {str(path)!r}])\n"
            "print(json.dumps({'code': code, **seen}))\n",
            TWISTBENCH_THREADS="1",
        )
        assert result == {"code": 0, "cap": "1"}

    THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

    def capped(self, **env):
        """The thread variables after the cap, in a fresh interpreter."""
        return _scrubbed_python(
            "import json, os\n"
            "from twistbench.cli import _apply_thread_cap\n"
            "error = _apply_thread_cap()\n"
            f"print(json.dumps([error] + [os.environ.get(v) for v in {self.THREAD_VARS!r}]))\n",
            **env,
        )

    def test_cap_lowers_a_larger_setting(self):
        result = self.capped(OMP_NUM_THREADS="8", OPENBLAS_NUM_THREADS="4", TWISTBENCH_THREADS="1")
        assert result == [None, "1", "1", "1", "1", "1"]

    def test_cap_keeps_a_smaller_setting(self):
        result = self.capped(OMP_NUM_THREADS="1", MKL_NUM_THREADS="auto", TWISTBENCH_THREADS="2")
        assert result == [None, "1", "2", "2", "2", "2"]

    @pytest.mark.parametrize("cap", ["0", ""])
    def test_zero_or_empty_cap_changes_nothing(self, cap):
        result = self.capped(OMP_NUM_THREADS="8", TWISTBENCH_THREADS=cap)
        assert result == [None, "8", None, None, None, None]

    @pytest.mark.parametrize("cap", ["two", "-1", "1.5", "\u0662"])
    def test_a_cap_that_is_not_a_count_exits_1(self, cap):
        result = _scrubbed_python(
            "import contextlib, io, json, os, sys\n"
            "from twistbench.cli import main\n"
            "err = io.StringIO()\n"
            "with contextlib.redirect_stderr(err):\n"
            "    code = main(['geometry', '--config', 'absent.json'])\n"
            "print(json.dumps({'code': code, 'stderr': err.getvalue(),\n"
            "                  'omp': os.environ.get('OMP_NUM_THREADS'),\n"
            "                  'numpy': 'numpy' in sys.modules}))\n",
            TWISTBENCH_THREADS=cap,
        )
        assert result == {
            "code": 1,
            "stderr": f"config error: TWISTBENCH_THREADS must be a non-negative integer, "
                      f"got {cap!r}\n",
            "omp": None,
            "numpy": False,
        }
