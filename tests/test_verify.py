import json

import numpy as np
import pytest

from twistbench import FiberGrid, TwistedFunction, conformal, default_model, graphs, verify
from twistbench.verify import (
    DEFAULT_THRESHOLDS,
    IDENTITY_KINDS,
    run_convergence_study,
    run_identity_suite,
)


class TestIdentitySuite:
    def test_default_suite_passes_on_standard_2d_model(self):
        model = default_model(2, resolution=64, twist="separable_gauss")
        rows = run_identity_suite(model, count=3, seed0=100)
        assert rows
        failing = [r["identity"] for r in rows if not r["pass"]]
        assert failing == []

    def test_rows_carry_grid_and_threshold_metadata(self):
        model = default_model(1, resolution=64, twist="separable_gauss")
        rows = run_identity_suite(model, count=2, identities=["support_identity"])
        row = rows[0]
        assert row["dim"] == 1
        assert row["resolution"] == [64]
        assert row["kind"] == "exact"
        assert row["max_defect"] <= row["threshold"]

    def test_unknown_identity_rejected(self):
        model = default_model(1, resolution=32, twist="separable_gauss")
        with pytest.raises(KeyError):
            run_identity_suite(model, identities=["nonsense"])

    def test_threshold_override(self):
        model = default_model(1, resolution=128, twist="separable_gauss")
        rows = run_identity_suite(
            model,
            count=2,
            identities=["mean_curvature_two_path"],
            thresholds={"mean_curvature_two_path": 1e-30},
        )
        assert not rows[0]["pass"]

    def test_corrupted_stencil_fails_with_named_identity(self, monkeypatch):
        # negative control: break the central difference and expect the
        # stencil-sensitive identities to fail while exact ones survive
        def lopsided(self, field, axis):
            h = self.spacing[axis]
            return (np.roll(field, -1, axis=axis) - field) / h

        monkeypatch.setattr(FiberGrid, "diff", lopsided)
        model = default_model(1, resolution=128, twist="separable_gauss")
        rows = run_identity_suite(
            model,
            count=2,
            identities=["fiber_gradient_accuracy", "support_identity"],
        )
        by_name = {r["identity"]: r for r in rows}
        assert not by_name["fiber_gradient_accuracy"]["pass"]
        assert by_name["support_identity"]["pass"]

    def test_conformal_identity_is_exact_only_in_dimension_two(self):
        rows2 = run_identity_suite(
            default_model(2, resolution=16, twist="separable_gauss"),
            count=1,
            identities=["conformal_laplacian"],
        )
        assert rows2[0]["kind"] == "exact"
        rows1 = run_identity_suite(
            default_model(1, resolution=32, twist="separable_gauss"),
            count=1,
            identities=["conformal_laplacian"],
        )
        assert rows1[0]["kind"] == "order2"


class TestConvergenceStudy:
    def test_orders_and_exact_skips(self):
        model = default_model(1, resolution=32, twist="separable_gauss")
        rows = run_convergence_study(
            model,
            quantities=[
                "mean_curvature_two_path",
                "laplacian_tau_two_path",
                "support_identity",
            ],
            count=2,
        )
        by_name = {r["identity"]: r for r in rows}
        for name in ("mean_curvature_two_path", "laplacian_tau_two_path"):
            row = by_name[name]
            assert row["observed_order"] >= 1.9
            assert row["pass"]
            assert len(row["defects"]) == 3
        exact = by_name["support_identity"]
        assert exact["orders"] is None
        assert exact["pass"]
        assert "skipped" in exact["note"]

    def test_levels_report_the_refined_resolutions(self):
        model = default_model(1, resolution=32, twist="separable_gauss")
        rows = run_convergence_study(model, quantities=["product_rule"], count=1)
        assert rows[0]["levels"] == [[32], [64], [128]]

    def test_registry_kinds_are_consistent(self):
        assert IDENTITY_KINDS["support_identity"] == "exact"
        assert IDENTITY_KINDS["mean_curvature_two_path"] == "order2"
        assert set(DEFAULT_THRESHOLDS) >= set(IDENTITY_KINDS)


class TestVerifyPathCounts:
    """Count ceilings for the 3-D verify path: the default suite on the 16^3
    desk model (five corpus graphs), then the one-graph laplacian_tau
    convergence study 16^3 -> 32^3 -> 64^3."""

    @staticmethod
    def counting(monkeypatch, owner, name, calls):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def test_ceilings(self, monkeypatch):
        calls = dict.fromkeys(
            ("det", "solve", "static_laplacian_check", "coordinate_laplacian", "value"), 0
        )
        self.counting(monkeypatch, TwistedFunction, "value", calls)
        self.counting(monkeypatch, np.linalg, "det", calls)
        self.counting(monkeypatch, np.linalg, "solve", calls)
        self.counting(monkeypatch, verify, "static_laplacian_check", calls)
        # imported by name into conformal as well
        self.counting(monkeypatch, graphs, "coordinate_laplacian", calls)
        monkeypatch.setattr(conformal, "coordinate_laplacian", graphs.coordinate_laplacian)

        model = default_model(3, resolution=16, twist="separable_gauss")
        rows = run_identity_suite(model, count=5)
        assert all(r["pass"] for r in rows)
        assert calls["static_laplacian_check"] == 5      # once per corpus graph
        suite_laplacians = calls["coordinate_laplacian"]
        suite_values = calls["value"]
        run_convergence_study(model, quantities=["laplacian_tau_two_path"], count=1)
        assert calls["det"] == 0 and calls["solve"] == 0
        # the refined models check positivity on their fiber factors, and the
        # kits evaluate f with the partials: 100 value calls when each model
        # build swept the twist over the fiber
        assert calls["value"] == suite_values
        # measured: 55 in the suite (5 mean-curvature and 5 laplacian_tau
        # two-paths, 5 x 4 conformal factors x 2 sides, 5 static checks)
        # and 3 in the study; 68 when each static identity ran its own check
        assert suite_laplacians <= 55
        assert calls["coordinate_laplacian"] <= 58

    def test_rows_match_one_static_check_per_identity(self, monkeypatch):
        model = default_model(3, resolution=8, twist="separable_gauss", curved=True)
        shared = run_identity_suite(model, count=2)

        def per_identity(field):
            def evaluate(ctx):
                return [
                    getattr(verify.static_laplacian_check(g), field).max_defect
                    for g in ctx.graphs
                ]
            return evaluate

        for name, field in [
            ("static_main", "main"),
            ("static_laplacian_relation", "laplacian_relation"),
            ("static_gradient_pairing", "gradient_pairing"),
        ]:
            monkeypatch.setitem(verify._REGISTRY, name, (per_identity(field), "order2"))
        separate = run_identity_suite(model, count=2)
        assert json.dumps(shared) == json.dumps(separate)
