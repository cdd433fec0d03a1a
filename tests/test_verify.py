import json
import tracemalloc

import numpy as np
import pytest

from twistbench import FiberGrid, TwistedFunction, conformal, default_model, graphs, verify
from twistbench.identities import DEFAULT_QUANTITIES
from twistbench.initializers import corpus_graphs
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

    def test_empty_identity_list_is_refused(self):
        # an empty list used to run the whole suite, 16 rows
        model = default_model(1, resolution=32, twist="separable_gauss")
        with pytest.raises(ValueError, match="^identities must name at least one identity$"):
            run_identity_suite(model, identities=[])
        with pytest.raises(ValueError, match="^quantities must name at least one identity$"):
            run_convergence_study(model, quantities=[])

    def test_none_runs_the_default_sets(self, monkeypatch):
        model = default_model(1, resolution=32, twist="separable_gauss")
        rows = run_identity_suite(model, count=1, identities=None)
        assert [r["identity"] for r in rows] == list(IDENTITY_KINDS)
        monkeypatch.setattr(verify, "run_identity_suite", lambda model, **kwargs: [
            {"kind": "exact", "threshold": 1.0, "max_defect": 0.0, "resolution": [32]}
            for _ in kwargs["identities"]])
        rows = run_convergence_study(model, quantities=None)
        assert tuple(r["identity"] for r in rows) == DEFAULT_QUANTITIES

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

    def test_each_level_runs_the_identity_suite(self, monkeypatch):
        suites = []
        real = verify.run_identity_suite

        def recorded(model, **kwargs):
            rows = real(model, **kwargs)
            suites.append((list(model.fiber.resolution), kwargs, rows))
            return rows

        monkeypatch.setattr(verify, "run_identity_suite", recorded)
        model = default_model(1, resolution=32, twist="separable_gauss")
        names = ["support_identity", "mean_curvature_two_path"]
        thresholds = {"support_identity": 1e-30}
        rows = run_convergence_study(model, quantities=names, count=2, seed0=7, amplitude=0.04,
                                     factors=(1, 2), thresholds=thresholds)
        assert [level for level, _, _ in suites] == [[32], [64]]
        for _, kwargs, _ in suites:
            assert kwargs == {"count": 2, "seed0": 7, "amplitude": 0.04, "identities": names,
                              "thresholds": thresholds}
        for i, row in enumerate(rows):
            assert row["defects"] == [level_rows[i]["max_defect"] for _, _, level_rows in suites]
        # the suite's kind and gate: the exact identity fails its override
        assert rows[0]["kind"] == "exact" and not rows[0]["pass"]

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
            ("det", "solve", "static_laplacian_check", "coordinate_laplacian", "value", "dt",
             "__init__"),
            0,
        )
        self.counting(monkeypatch, graphs._Kit, "__init__", calls)
        self.counting(monkeypatch, TwistedFunction, "value", calls)
        self.counting(monkeypatch, TwistedFunction, "dt", calls)
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
        # measured 10: 2 per area-variation check; 20 when the conformal
        # factors read f through ``value`` rather than ``along``, 210 when
        # each moved copy of the area check took its own
        assert suite_values <= 20
        suite_rates = calls["dt"]
        # measured 65: one per corpus graph and per graph of each identity
        # that reads one, 10 more for the warped companion's corpus and
        # obstruction; 95 when each public one-graph function built its own
        suite_kits = calls["__init__"]
        assert suite_kits <= 65
        run_convergence_study(model, quantities=["laplacian_tau_two_path"], count=1)
        # the corpus graph and the two-path's kit on each of three levels: 9
        # when the fiber and coordinate forms each built one
        assert calls["__init__"] - suite_kits <= 6
        assert calls["det"] == 0 and calls["solve"] == 0
        # the refined models check positivity on their fiber factors, and the
        # kits evaluate f with the partials: 100 value calls when each model
        # build swept the twist over the fiber
        assert calls["value"] == suite_values
        # kits compute d/dt f on first read: measured 35 in the suite and
        # none in the study, 120 and 9 when every kit computed it
        assert suite_rates <= 35
        assert calls["dt"] == suite_rates
        # measured: 35 in the suite (5 mean-curvature and 5 laplacian_tau
        # two-paths, 5 x 4 rescaled sides of the conformal law, 5 static
        # checks) and 3 in the study; 55 when the conformal law's unrescaled
        # side took a Laplacian of its own, 68 when each static identity
        # ran its own check
        assert suite_laplacians <= 35
        assert calls["coordinate_laplacian"] <= 38

    def test_area_check_evaluates_the_twist_once_per_sign(self, monkeypatch):
        calls = {"value": 0}
        self.counting(monkeypatch, TwistedFunction, "value", calls)
        model = default_model(3, resolution=16, twist="separable_gauss")
        graph = corpus_graphs(model, count=1)[0]
        for count in (20, model.fiber.n_nodes):
            calls["value"] = 0
            graphs.area_gradient_check(graph, count=count)
            # f at every sampled node moved by +step, then by -step; the base
            # reads the kit's f: 40 for count=20 with a twist call per area
            assert calls["value"] == 2

    def test_one_kit_per_graph_for_the_conformal_law(self, monkeypatch):
        model = default_model(3, resolution=16, twist="separable_gauss")
        ctx = verify._Context(model=model, graphs=corpus_graphs(model, count=2), seed0=100)
        calls = {"__init__": 0}
        self.counting(monkeypatch, graphs._Kit, "__init__", calls)
        verify._conformal_laplacian(ctx)
        # one per catalog factor (4 a graph) when each check built its own
        assert calls["__init__"] == len(ctx.graphs)

    @pytest.mark.parametrize("identity", [
        "mean_curvature_two_path",
        "laplacian_tau_two_path",
        "unit_normal_norm",
        "support_identity",
        "grad_tau_contraction",
    ])
    def test_one_kit_per_graph_for_each_identity(self, monkeypatch, identity):
        model = default_model(3, resolution=8, twist="separable_gauss", curved=True)
        ctx = verify._Context(model=model, graphs=corpus_graphs(model, count=2), seed0=100)
        calls = {"__init__": 0}
        self.counting(monkeypatch, graphs._Kit, "__init__", calls)
        verify._REGISTRY[identity](ctx)
        # 3 a graph for the mean-curvature two-path and 2 for the others when
        # each public one-graph function built its own
        assert calls["__init__"] == len(ctx.graphs)

    def test_two_paths_call_coordinate_laplacian_through_graphs(self, monkeypatch):
        # this class's count patches rebind graphs.coordinate_laplacian (and
        # conformal's import of it): a name imported into verify would escape
        model = default_model(3, resolution=8, twist="separable_gauss")
        ctx = verify._Context(model=model, graphs=corpus_graphs(model, count=2), seed0=100)
        calls = {"coordinate_laplacian": 0}
        self.counting(monkeypatch, graphs, "coordinate_laplacian", calls)
        for name in ("mean_curvature_two_path", "laplacian_tau_two_path"):
            calls["coordinate_laplacian"] = 0
            verify._REGISTRY[name](ctx)
            assert calls["coordinate_laplacian"] == len(ctx.graphs)

    @pytest.mark.parametrize("dim, resolution", [(1, 32), (2, 16), (3, 8)])
    def test_rows_match_the_public_one_graph_functions(self, monkeypatch, dim, resolution):
        model = default_model(dim, resolution=resolution, twist="separable_gauss", curved=True)
        names = ["mean_curvature_two_path", "laplacian_tau_two_path", "unit_normal_norm",
                 "support_identity", "grad_tau_contraction"]
        shared = run_identity_suite(model, count=2, identities=names)

        def unit_normal_norm(g):
            kit = graphs._kit(g)
            N0, NF = graphs.unit_normal(g)
            return -N0 * N0 + kit.f ** 2 * kit.grid.inner(NF, NF) + 1.0

        def support_identity(g):
            kit = graphs._kit(g)
            return graphs.rho_field(g) * kit.f * np.sqrt(kit.support) - 1.0

        def grad_tau_contraction(g):
            kit = graphs._kit(g)
            gt = graphs.grad_tau(g)
            return np.einsum("...i,...ij,...j->...", gt, kit.metric(), gt) - kit.sinh_sq

        public = {
            "mean_curvature_two_path": lambda g: (
                graphs.mean_curvature(g) - graphs.mean_curvature_from_laplacian(g)),
            "laplacian_tau_two_path": lambda g: (
                graphs.laplacian_tau_fiber(g) - graphs.laplacian_tau_coordinate(g)),
            "unit_normal_norm": unit_normal_norm,
            "support_identity": support_identity,
            "grad_tau_contraction": grad_tau_contraction,
        }
        for name, defect in public.items():
            monkeypatch.setitem(verify._REGISTRY, name, lambda ctx, defect=defect: [
                float(np.max(np.abs(defect(g)))) for g in ctx.graphs])
        separate = run_identity_suite(model, count=2, identities=names)
        assert json.dumps(shared) == json.dumps(separate)

    # 32^3, one corpus graph, measured after a first call has sampled the
    # twist's fiber factor: 5.27 MB for the area check, 6.56 MB with two
    # full-grid areas per sampled node; 9.70 MB for the conformal law,
    # 11.02 MB with a kit, g1 and unrescaled Laplacian per factor; 6.03 MB
    # for the laplacian_tau two-path, 7.87 MB when it holds the kit through
    # the coordinate path's per-node algebra
    @pytest.mark.parametrize("identity, ceiling", [
        ("area", 5.6e6), ("conformal", 10.2e6), ("laplacian_tau", 6.6e6)])
    def test_area_and_conformal_memory(self, identity, ceiling):
        model = default_model(3, resolution=32, twist="separable_gauss")
        ctx = verify._Context(model=model, graphs=corpus_graphs(model, count=1), seed0=100)
        if identity == "area":
            def check():
                graphs.area_gradient_check(ctx.graphs[0], count=20, seed=100)
        elif identity == "conformal":
            def check():
                verify._conformal_laplacian(ctx)
        else:
            def check():
                verify._laplacian_tau_two_path(ctx)
        check()
        tracemalloc.start()
        try:
            check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ceiling

    def test_study_memory(self):
        # 8^3 -> 32^3: measured 9.19 MB with deferred twist derivatives,
        # 11.04 MB when every kit held d/dt f, d/dt log f and the partials
        model = default_model(3, resolution=8, twist="separable_gauss")
        tracemalloc.start()
        try:
            run_convergence_study(model, quantities=["laplacian_tau_two_path"], count=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9.6e6

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
            monkeypatch.setitem(verify._REGISTRY, name, per_identity(field))
        separate = run_identity_suite(model, count=2)
        assert json.dumps(shared) == json.dumps(separate)
