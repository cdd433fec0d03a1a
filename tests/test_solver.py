import copy
import json

import numpy as np
import pytest
from scipy.linalg import svdvals
from scipy.sparse.linalg import LinearOperator

import twistbench.graphs as graphs_mod
import twistbench.solver as solver_mod
from twistbench import (
    DomainError,
    FiberGrid,
    GraphField,
    SolveConfig,
    SpacelikeError,
    SpacetimeModel,
    TimeProfile,
    TwistedFunction,
    certificate_check,
    default_model,
    mean_curvature,
    random_trig_graph,
    residual_field,
    rigidity_report,
    solve,
)

from conftest import count_calls, flat_grw_model


def transition_model(resolution=128):
    return default_model(1, resolution=resolution, twist="separable_gauss")


def count_kits_and_residuals(monkeypatch):
    """Count ``_Kit`` builds and solver residual evaluations from here on."""
    kits, residuals = [], []
    init = graphs_mod._Kit.__init__
    real = solver_mod._residual

    def counted_init(self, *args, **kwargs):
        kits.append(1)
        init(self, *args, **kwargs)

    def counted_residual(kit, target):
        residuals.append(1)
        return real(kit, target)

    monkeypatch.setattr(graphs_mod._Kit, "__init__", counted_init)
    monkeypatch.setattr(solver_mod, "_residual", counted_residual)
    return kits, residuals


def count_curvature_passes(monkeypatch):
    """Count fiber-form mean-curvature passes from here on."""
    passes = []
    real = graphs_mod._mean_curvature

    def counted(kit):
        passes.append(1)
        return real(kit)

    monkeypatch.setattr(graphs_mod, "_mean_curvature", counted)
    return passes


class TestResidual:
    def test_slice_at_matching_target_is_zero(self):
        model = default_model(1, twist="grw_exp", interval=(-1.0, 1.0))
        graph = GraphField.constant(model, 0.3)
        R = residual_field(graph, target=1.0)
        assert np.max(np.abs(R)) == 0.0

    def test_transition_slice_is_maximal(self):
        model = default_model(1, twist="grw_gauss")
        R = residual_field(GraphField.constant(model, 0.0), target=0.0)
        assert np.max(np.abs(R)) == 0.0

    def test_offset_slice_closed_form(self):
        # f = exp(-t^2): d/dt log f = -2t, so u = 0.5 gives R = -n
        model = default_model(1, twist="grw_gauss")
        R = residual_field(GraphField.constant(model, 0.5), target=0.0)
        assert np.max(np.abs(R + 1.0)) <= 1e-12

    def test_one_kit_per_residual(self, monkeypatch):
        model = default_model(2, resolution=16, twist="separable_gauss")
        graph = random_trig_graph(model, seed=4, amplitude=0.05)
        expected = {}
        for target in (0.0, 0.2, "generalized"):
            kit = graphs_mod._kit(graph)
            expected[target] = kit.n * (
                mean_curvature(graph) - solver_mod._target_field(kit, target)
            )

        builds = []
        init = graphs_mod._Kit.__init__

        def counted(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(graphs_mod._Kit, "__init__", counted)
        for target, R in expected.items():
            builds.clear()
            assert np.array_equal(residual_field(graph, target=target), R)
            assert len(builds) == 1

    def test_nonspacelike_input_raises(self):
        model = flat_grw_model()
        grid = model.fiber
        h = grid.spacing[0]
        amp = 1.01 * h / np.sin(2 * np.pi * h)
        graph = GraphField(model, amp * np.sin(2 * np.pi * grid.coords[0]))
        with pytest.raises(SpacelikeError):
            residual_field(graph, target=0.0)


class TestCertificates:
    def test_exponential_model_excludes_low_targets(self):
        model = default_model(1, twist="grw_exp", interval=(-1.0, 1.0))
        cert = certificate_check(model, -0.5)
        assert cert is not None
        assert cert["reason"] == "bound"
        assert abs(cert["inf_dlog_f"] - 1.0) <= 1e-12
        assert abs(cert["sup_dlog_f"] - 1.0) <= 1e-12
        assert "interval" in cert and "note" in cert

    def test_matching_target_has_no_certificate(self):
        model = default_model(1, twist="grw_exp", interval=(-1.0, 1.0))
        assert certificate_check(model, 1.0) is None

    def test_gaussian_interval_bound(self):
        model = default_model(1, twist="grw_gauss", interval=(-2.0, 2.0))
        cert = certificate_check(model, 5.0)
        assert cert is not None
        assert cert["sup_dlog_f"] < 4.0
        assert certificate_check(model, 3.0) is None

    @pytest.mark.parametrize("count", [0, -1])
    def test_sample_counts_below_one_are_rejected(self, count):
        # default_model(2) has a maximal slice: no bound may exclude target 0
        model = default_model(2)
        with pytest.raises(ValueError, match="time sample count must be at least 1"):
            certificate_check(model, 0.0, t_samples=count)

    @pytest.mark.parametrize("count", [15, 0, -1])
    def test_solve_rejects_fewer_than_16_certificate_samples(self, count):
        model = default_model(2)
        with pytest.raises(ValueError, match="certificate_samples must be at least 16"):
            solve(model, SolveConfig(target=0.0, initial={"kind": "constant", "value": 0.1},
                                     certificate_samples=count))

    @pytest.mark.parametrize("dim, resolution, ceiling", [(1, 128, 1), (2, 64, 16)])
    def test_one_twist_call_per_block_of_times(self, monkeypatch, dim, resolution, ceiling):
        # the refuse-1d model, and the 64^2 fiber: 256 samples in blocks of
        # 512 and 16 times
        model = default_model(dim, resolution=resolution, twist="separable_exp",
                              interval=(-1.0, 1.0))
        calls = count_calls(monkeypatch, TwistedFunction, "dlog_dt")
        assert certificate_check(model, -5.0, t_samples=256)["reason"] == "bound"
        assert len(calls) <= ceiling


class TestSolve:
    def test_transition_model_converges_to_transition_slice(self):
        model = transition_model()
        grid = model.fiber
        u0 = 0.3 + 0.1 * np.sin(2 * np.pi * grid.coords[0])
        cfg = SolveConfig(target=0.0, initial=GraphField(model, u0))
        outcome = solve(model, cfg)
        assert outcome.tag == "converged"
        assert outcome.residual_norm <= 1e-10
        assert np.max(np.abs(outcome.graph.u)) <= 1e-6
        assert outcome.report is not None

    def test_converged_outcome_passes_both_curvature_paths(self):
        model = transition_model()
        cfg = SolveConfig(target=0.0, initial={"kind": "random_trig", "seed": 4, "amplitude": 0.1})
        outcome = solve(model, cfg)
        assert outcome.tag == "converged"
        assert outcome.diagnostics["residual_primary"] <= 2e-10
        assert outcome.diagnostics["residual_secondary"] <= 2e-10
        assert outcome.diagnostics["max_margin"] <= 0.99

    @pytest.mark.parametrize("target", [0.0, "generalized"])
    def test_primary_recheck_is_the_iterate_residual(self, monkeypatch, target):
        # the fiber-form curvature runs once per residual, and the log
        # entries and the re-verification read it from the iterate's kit;
        # the one extra pass is geometry_report's own kit
        model = transition_model()
        cfg = SolveConfig(target=target, initial={"kind": "random_trig", "seed": 4, "amplitude": 0.1})
        _, residuals = count_kits_and_residuals(monkeypatch)
        curvatures = count_curvature_passes(monkeypatch)
        outcome = solve(model, cfg)
        assert outcome.tag == "converged"
        assert all(e["phase"] != "fallback" for e in outcome.log)
        assert len(curvatures) == len(residuals) + 1
        primary = float(np.max(np.abs(residual_field(outcome.graph, target))))
        assert outcome.diagnostics["residual_primary"] == primary == outcome.residual_norm

    def test_extremum_inequalities_on_converged(self):
        model = transition_model()
        cfg = SolveConfig(target=0.0, initial={"kind": "random_trig", "seed": 5, "amplitude": 0.1})
        outcome = solve(model, cfg)
        assert outcome.diagnostics["extremum_gap_min"] >= -1e-8
        assert outcome.diagnostics["extremum_gap_max"] >= -1e-8

    def test_grw_slice_family_converges_to_a_constant(self):
        model = default_model(1, twist="grw_exp", interval=(-1.0, 1.0))
        cfg = SolveConfig(target=1.0, initial={"kind": "random_trig", "seed": 8, "amplitude": 0.1})
        outcome = solve(model, cfg)
        assert outcome.tag == "converged"
        assert float(outcome.graph.u.max() - outcome.graph.u.min()) <= 1e-6

    def test_bound_certificate_returned_before_iterating(self):
        model = default_model(1, twist="grw_exp", interval=(-1.0, 1.0))
        cfg = SolveConfig(target=-0.5, initial={"kind": "constant", "value": 0.0})
        outcome = solve(model, cfg)
        assert outcome.tag == "nonexistence"
        assert outcome.certificate["reason"] == "bound"
        assert all(entry["phase"] != "newton" for entry in outcome.log)

    def test_nonspacelike_initializer_raises_constraint_error(self):
        model = flat_grw_model()
        cfg = SolveConfig(
            target=0.0,
            initial={"kind": "random_trig", "seed": 1, "amplitude": 3.0, "rescale": False},
        )
        with pytest.raises(SpacelikeError):
            solve(model, cfg)

    def test_budget_exhaustion_returns_not_converged(self):
        model = default_model(1, twist="separable_exp", interval=(-1.0, 1.0))
        cfg = SolveConfig(
            target=0.0,
            initial={"kind": "random_trig", "seed": 2, "amplitude": 0.1},
            check_certificate=False,
            max_newton_iters=2,
            fallback_chunk=3,
            fallback_max_sweeps=3,
        )
        outcome = solve(model, cfg)
        assert outcome.tag == "not_converged"
        assert "best_residual" in outcome.diagnostics

    def test_expanding_model_yields_drift_diagnostic(self):
        model = default_model(1, twist="separable_exp", interval=(-1.0, 1.0))
        cfg = SolveConfig(
            target=0.0,
            initial={"kind": "random_trig", "seed": 3, "amplitude": 0.1},
            check_certificate=False,
        )
        outcome = solve(model, cfg)
        assert outcome.tag in ("nonexistence", "not_converged")
        if outcome.tag == "nonexistence":
            assert outcome.certificate["reason"] == "drift"
            assert "note" in outcome.certificate

    def test_one_curvature_pass_per_residual_on_the_fallback_path(self, monkeypatch):
        # the drift solve logs Newton and fallback entries and takes the
        # relaxation flow; all of them read H from the kit of their residual
        model = default_model(1, twist="separable_exp", interval=(-1.0, 1.0))
        cfg = SolveConfig(
            target=0.0,
            initial={"kind": "random_trig", "seed": 3, "amplitude": 0.1},
            check_certificate=False,
        )
        _, residuals = count_kits_and_residuals(monkeypatch)
        curvatures = count_curvature_passes(monkeypatch)
        outcome = solve(model, cfg)
        assert outcome.tag == "nonexistence"
        assert any(e["phase"] == "fallback" for e in outcome.log)
        assert len(curvatures) == len(residuals)

    def test_deterministic_iteration_log(self):
        model = transition_model()

        def run():
            cfg = SolveConfig(
                target=0.0,
                initial={"kind": "random_trig", "seed": 5, "amplitude": 0.1, "center": 0.3},
            )
            return solve(model, cfg)

        log_a = json.dumps(run().log, sort_keys=True)
        log_b = json.dumps(run().log, sort_keys=True)
        assert log_a == log_b

    def test_fallback_area_is_monotone_nondecreasing(self, monkeypatch):
        # force the fallback path by making Newton directions unavailable
        monkeypatch.setattr(solver_mod, "_krylov_step", lambda driver, u, R: None)
        model = transition_model()
        cfg = SolveConfig(
            target=0.0,
            initial={"kind": "random_trig", "seed": 6, "amplitude": 0.2, "center": 0.4},
            max_newton_iters=3,
            fallback_chunk=30,
            fallback_max_sweeps=60,
        )
        outcome = solve(model, cfg)
        areas = [e["area"] for e in outcome.log if e["phase"] == "fallback"]
        assert len(areas) >= 10
        assert all(b >= a - 1e-12 for a, b in zip(areas, areas[1:]))

    def test_fallback_products_have_descent_sign_in_transition_model(self, monkeypatch):
        # (d/dt f) H stays nonnegative along the relaxation toward the
        # transition slice, matching the sign hypothesis that forces slices
        monkeypatch.setattr(solver_mod, "_krylov_step", lambda driver, u, R: None)
        model = transition_model()
        cfg = SolveConfig(
            target=0.0,
            initial={"kind": "constant", "value": 0.4},
            max_newton_iters=3,
            fallback_chunk=30,
            fallback_max_sweeps=60,
        )
        outcome = solve(model, cfg)
        fallback = [e for e in outcome.log if e["phase"] == "fallback"]
        assert fallback
        assert all(e["dtf_H_min"] >= -1e-10 for e in fallback)


class TestOneLoop:
    """One step per pass: Newton steps, and chunks of relaxation sweeps after
    a failed one, both backtracking through ``_backtrack``."""

    def refusing_driver(self, model):
        driver = solver_mod._Driver(model, SolveConfig())
        tried = []
        driver.trial = lambda values: tried.append(values) or None
        return driver, tried

    def test_line_search_tries_27_steps_from_1_to_2_pow_minus_26(self):
        model = transition_model()
        driver, tried = self.refusing_driver(model)
        u = np.zeros(model.fiber.shape)
        direction = np.full(model.fiber.shape, 0.1)
        assert solver_mod._line_search(driver, u, u, 1.0, direction) is None
        assert [float(t[0]) for t in tried] == [0.1 * 0.5**k for k in range(27)]

    def test_relaxation_sweep_tries_16_steps(self):
        model = transition_model()
        driver, tried = self.refusing_driver(model)
        kit = graphs_mod._kit(random_trig_graph(model, seed=6, amplitude=0.2))
        assert solver_mod._relaxation_step(driver, kit, 1.0, 1e-2) is None
        assert len(tried) == 16

    def test_a_chunk_after_the_last_newton_attempt_still_runs(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "_krylov_step", lambda driver, u, R: None)
        model = transition_model()
        cfg = SolveConfig(
            target=0.0,
            initial={"kind": "random_trig", "seed": 6, "amplitude": 0.2, "center": 0.4},
            max_newton_iters=1,
            fallback_chunk=7,
        )
        outcome = solve(model, cfg)
        assert outcome.tag == "not_converged"
        assert outcome.diagnostics["failure"] == "iteration budget exhausted"
        assert outcome.diagnostics["newton_iters"] == 1
        assert outcome.diagnostics["fallback_sweeps"] == 7
        assert [e["phase"] for e in outcome.log] == ["init"] + ["fallback"] * 7

    def test_the_sweep_budget_ends_a_chunk(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "_krylov_step", lambda driver, u, R: None)
        model = transition_model()
        cfg = SolveConfig(
            target=0.0,
            initial={"kind": "random_trig", "seed": 6, "amplitude": 0.2, "center": 0.4},
            fallback_chunk=5,
            fallback_max_sweeps=12,
        )
        outcome = solve(model, cfg)
        assert outcome.diagnostics["failure"] == "iteration budget exhausted"
        assert outcome.diagnostics["newton_iters"] == 3
        fallback = [e for e in outcome.log if e["phase"] == "fallback"]
        assert len(fallback) == 12
        assert [i for i, e in enumerate(fallback) if "fallback_reason" in e] == [0, 5, 10]


class TestDriftFloor:
    """A monotone drift must move the mean by more than ``_DRIFT_FLOOR``
    times the interval; round-off creep does not read as a drift."""

    def driver(self, model):
        return solver_mod._Driver(model, SolveConfig(target=0.0))

    def feed(self, driver, means, rnorm=1.0):
        return [driver.update_drift(float(m), rnorm) for m in means][-1]

    def test_round_off_creep_is_not_a_drift(self):
        driver = self.driver(refuse_1d_model())
        assert self.feed(driver, -0.5 + 1e-14 * np.arange(21)) is None

    @pytest.mark.parametrize("sign, endpoint", [(1.0, 1.0), (-1.0, -1.0)])
    def test_a_monotone_move_past_the_floor_is_a_drift(self, sign, endpoint):
        # 1e-5 of the interval over the window, 10 times the floor; genuine
        # drifts moved the mean 9.8e-5 to 2.4e-2 on intervals of length 2-3
        driver = self.driver(refuse_1d_model())
        step = 1e-5 * driver.span / 20
        assert self.feed(driver, sign * step * np.arange(21)) == endpoint

    def test_a_mean_pinned_next_to_an_endpoint_is_a_drift(self):
        driver = self.driver(refuse_1d_model())
        assert self.feed(driver, np.full(21, 0.99)) == 1.0

    @pytest.mark.parametrize(
        "dim, seed, target", [(2, 0, 0.0), (2, 1, 0.2), (3, 1, 0.0)],
        ids=["16x16-maximal", "16x16-target-0.2", "16x16x16-maximal"],
    )
    def test_additive_solves_do_not_end_in_nonexistence(self, dim, seed, target):
        # a non-slice solution: the relaxed mean moves only by round-off
        # (2e-15-4e-15 on 16^2, 1.4e-13 on 16^3), which without the floor
        # read as a drift toward t_max
        model = default_model(dim, resolution=16, twist="additive")
        initial = {"kind": "random_trig", "seed": seed, "amplitude": 0.1}
        cfg = SolveConfig(target=target, initial=initial, check_certificate=False)
        outcome = solve(model, cfg)
        assert outcome.tag == "not_converged"
        assert outcome.diagnostics["failure"] == "iteration budget exhausted"


class TestJacobian:
    @pytest.mark.parametrize("shape", [(9,), (128,), (10, 12), (8, 8, 8)])
    def test_rows_are_the_wrapped_stencil(self, shape):
        rows = solver_mod._jacobian_pattern(shape)
        offsets = solver_mod._lattice_ball(len(shape), solver_mod._RESIDUAL_REACH)
        assert rows.shape == (int(np.prod(shape)), {1: 5, 2: 13, 3: 25}[len(shape)])
        nodes = np.indices(shape).reshape(len(shape), -1)
        for k, offset in enumerate(offsets):
            moved = (nodes + offset[:, None]) % np.array(shape)[:, None]
            assert np.array_equal(rows[:, k], np.ravel_multi_index(tuple(moved), shape))

    @pytest.mark.parametrize(
        "dim, m, curved, target, twist",
        [
            (1, 32, False, 0.0, "separable_gauss"),
            (1, 32, True, "generalized", "separable_gauss"),
            (2, 12, True, 0.0, "separable_gauss"),
            (2, 12, False, "generalized", "separable_gauss"),
            (2, 12, True, 0.3, "additive"),
            (3, 8, True, 0.0, "separable_gauss"),
        ],
    )
    def test_matches_directional_derivative(self, dim, m, curved, target, twist):
        model = default_model(dim, resolution=m, curved=curved, twist=twist)
        u = random_trig_graph(model, seed=3, amplitude=0.05).u
        driver = solver_mod._Driver(model, SolveConfig(target=target))
        J, _ = solver_mod._jacobian(driver, u)
        rng = np.random.default_rng(dim)
        h = 1e-6
        for _ in range(3):
            v = rng.standard_normal(u.shape)
            fd = (
                residual_field(GraphField(model, u + h * v), target)
                - residual_field(GraphField(model, u - h * v), target)
            ) / (2.0 * h)
            Jv = (J @ v.ravel()).reshape(u.shape)
            assert np.max(np.abs(Jv - fd)) <= 1e-6 * np.max(np.abs(fd))

    def test_canonicalising_J_leaves_the_stencil_and_preconditioner(self):
        # J's rows are stored in stencil order, which wraps, so abs(J) and
        # sort_indices reorder J.data in place; the stencil must not follow
        model = default_model(2, resolution=16, twist="separable_gauss")
        shape = model.fiber.shape
        u = random_trig_graph(model, seed=3, amplitude=0.05).u
        driver = solver_mod._Driver(model, SolveConfig(target=0.0))
        J, values = solver_mod._jacobian(driver, u)
        assert not J.has_sorted_indices
        x = np.random.default_rng(0).standard_normal(u.size)
        before = values.copy()

        def preconditioned():
            symbol = solver_mod._circulant_symbol(values, shape)
            return solver_mod._circulant_preconditioner(symbol, shape).matvec(x)

        Mx, dense = preconditioned(), J.toarray()
        abs(J)
        J.sort_indices()
        J.sum_duplicates()
        assert not np.shares_memory(J.data, values)
        assert np.array_equal(values, before)
        assert np.array_equal(preconditioned(), Mx)
        # no row holds a column twice, so sorting only permutes the entries
        assert np.array_equal(J.toarray(), dense)

    @pytest.mark.parametrize("dim, m", [(1, 32), (2, 12), (3, 8)])
    def test_rows_hold_the_stencil_at_their_offsets(self, dim, m):
        # row x holds values[:, x] at the columns rows[x]
        model = default_model(dim, resolution=m, twist="separable_gauss")
        u = random_trig_graph(model, seed=3, amplitude=0.05).u
        J, values = solver_mod._jacobian(solver_mod._Driver(model, SolveConfig()), u)
        rows = solver_mod._jacobian_pattern(u.shape)
        dense = J.toarray()
        for k in range(len(values)):
            assert np.array_equal(dense[np.arange(u.size), rows[:, k]], values[k])

    def test_canonicalising_J_leaves_the_next_J(self):
        # J owns its indices too: sorting them in place must not reach the
        # cached rows that the next Jacobian is built from
        model = default_model(2, resolution=16, twist="separable_gauss")
        u = random_trig_graph(model, seed=3, amplitude=0.05).u
        driver = solver_mod._Driver(model, SolveConfig(target=0.0))
        J, values = solver_mod._jacobian(driver, u)
        expected = (J.data.copy(), J.indices.copy(), J.indptr.copy(), values.copy())
        J.sort_indices()
        J.sum_duplicates()
        again, values = solver_mod._jacobian(driver, u)
        for actual, saved in zip((again.data, again.indices, again.indptr, values), expected):
            assert actual.tobytes() == saved.tobytes()

    @pytest.mark.parametrize("dim, m", [(1, 32), (2, 12), (3, 8)])
    @pytest.mark.parametrize("target", [0.0, "generalized"])
    def test_built_from_pointwise_kits_alone(self, monkeypatch, dim, m, target):
        # 2 (n + 1) kits, one pair for u and one per covector component,
        # and no residual
        model = default_model(dim, resolution=m, twist="separable_gauss")
        u = random_trig_graph(model, seed=3, amplitude=0.05).u
        driver = solver_mod._Driver(model, SolveConfig(target=target))
        kits, residuals = count_kits_and_residuals(monkeypatch)
        solver_mod._jacobian(driver, u)
        assert len(kits) == 2 * (dim + 1)
        assert residuals == []

    def test_maximal_2d_solve_uses_few_residual_evaluations(self, monkeypatch):
        # 4 Newton steps, each taking its full step: one residual for the
        # start and one per trial point (133 with the colored Jacobian); 6
        # kits per step for the Jacobians and 4 for the two-path
        # re-verification and geometry_report (137 kits before)
        kits, residuals = count_kits_and_residuals(monkeypatch)
        model = default_model(2, resolution=64, twist="separable_gauss")
        cfg = SolveConfig(target=0.0, initial={"kind": "random_trig", "seed": 7, "amplitude": 0.1})
        outcome = solve(model, cfg)
        assert outcome.tag == "converged"
        assert len(residuals) <= 5
        assert len(kits) <= 5 + 4 * 6 + 4

    def test_maximal_3d_solve_uses_few_residual_evaluations(self, monkeypatch):
        # as on 64^2, with 8 Jacobian kits per step on 16^3 (261 residuals
        # and 265 kits with the colored Jacobian)
        kits, residuals = count_kits_and_residuals(monkeypatch)
        model = default_model(3, twist="separable_gauss")
        assert model.fiber.shape == (16, 16, 16)
        cfg = SolveConfig(target=0.0, initial={"kind": "random_trig", "seed": 4, "amplitude": 0.1})
        outcome = solve(model, cfg)
        assert outcome.tag == "converged"
        assert len(residuals) <= 5
        assert len(kits) <= 5 + 4 * 8 + 4

    def test_builder_fault_propagates(self, monkeypatch):
        # a programming error must not be read as "fall back to relaxation"
        def broken(driver, u):
            raise IndexError("broken assembly")

        monkeypatch.setattr(solver_mod, "_jacobian", broken)
        model = transition_model()
        cfg = SolveConfig(target=0.0, initial={"kind": "random_trig", "seed": 4, "amplitude": 0.1})
        with pytest.raises(IndexError):
            solve(model, cfg)

    def test_newton_entries_carry_krylov_info(self):
        model = transition_model()
        cfg = SolveConfig(target=0.0, initial={"kind": "random_trig", "seed": 4, "amplitude": 0.1})
        newton = [e for e in solve(model, cfg).log if e["phase"] == "newton"]
        assert newton
        assert all(e["krylov_info"] == 0 for e in newton)
        # the expanding model ends in drift, and every step reports lgmres's
        # exit code and its J products
        model = default_model(1, twist="separable_exp", interval=(-1.0, 1.0))
        cfg = SolveConfig(
            target=0.0,
            initial={"kind": "random_trig", "seed": 3, "amplitude": 0.1},
            check_certificate=False,
        )
        outcome = solve(model, cfg)
        assert outcome.tag == "nonexistence"
        assert outcome.certificate["reason"] == "drift"
        newton = [e for e in outcome.log if e["phase"] == "newton"]
        assert newton
        for e in newton:
            assert type(e["krylov_info"]) is int and e["krylov_info"] >= 0
            assert type(e["krylov_matvecs"]) is int and e["krylov_matvecs"] >= 1


def _wide_stencil(offsets):
    """Coefficients on ``offsets`` of sum_i (D0_i)^2 + 0.3 D0_1 at unit
    spacing, D0 the centred difference: a non-symmetric stencil whose null
    modes are the constant and the sublattice modes."""
    reach = np.abs(offsets).sum(axis=1)
    stencil = np.where(reach == 0, -0.5 * offsets.shape[1], 0.0)
    stencil = np.where(np.abs(offsets).max(axis=1) == 2, 0.25, stencil)
    # x_{i+o} enters node i, so offset e_1 carries x_{i+1}
    return stencil + np.where(reach == 1, 0.15 * offsets[:, 0], 0.0)


class TestPreconditioner:
    @pytest.mark.parametrize("dim, m", [(1, 32), (2, 12), (3, 8)])
    def test_inverts_the_circulant_jacobian_of_a_grw_slice(self, dim, m):
        # on a slice of a flat-fiber GRW model every column of J carries
        # the same stencil, so J is its own nearest circulant
        model = default_model(dim, resolution=m, twist="grw_gauss")
        shape = model.fiber.shape
        driver = solver_mod._Driver(model, SolveConfig(target=0.0))
        J, values = solver_mod._jacobian(driver, np.full(shape, 0.3))
        assert np.max(np.abs(values - values[:, :1])) <= 1e-10 * np.max(np.abs(values))
        # J's symbol is the FFT of its first column; x avoids its round-off modes
        axes = tuple(range(dim))
        column = (J @ np.eye(1, J.shape[0]).ravel()).reshape(shape)
        symbol = np.abs(np.fft.rfftn(column, axes=axes))
        modes = np.fft.rfftn(np.random.default_rng(dim).standard_normal(shape), axes=axes)
        modes[symbol <= 1e-14 * symbol.max()] = 0.0
        x = np.fft.irfftn(modes, s=shape, axes=axes).ravel()
        M = solver_mod._circulant_preconditioner(
            solver_mod._circulant_symbol(values, shape), shape
        )
        assert np.max(np.abs(M.matvec(J @ x) - x)) <= 1e-10 * np.max(np.abs(x))

    @pytest.mark.parametrize("dim, m", [(1, 32), (2, 12), (3, 8)])
    def test_round_off_modes_pass_unchanged(self, dim, m):
        # wide centred stencils annihilate the constant and the 2^dim - 1
        # sublattice modes; M must pass those unchanged and undo the
        # stencil on the rest
        shape = (m,) * dim
        offsets = solver_mod._lattice_ball(dim, solver_mod._RESIDUAL_REACH)
        stencil = _wide_stencil(offsets)
        symbol = solver_mod._circulant_symbol(np.tile(stencil[:, None], m**dim), shape)
        M = solver_mod._circulant_preconditioner(symbol, shape)
        x = np.random.default_rng(dim).standard_normal(shape)
        sublattice_means = np.empty(shape)
        for corner in np.ndindex(*(2,) * dim):
            part = tuple(slice(c, None, 2) for c in corner)
            sublattice_means[part] = x[part].mean()
        null = sublattice_means.ravel()
        assert np.max(np.abs(M.matvec(null) - null)) <= 1e-12
        Lx = sum(
            c * np.roll(x, tuple(-o), axis=tuple(range(dim)))
            for c, o in zip(stencil, offsets)
        )
        rest = x.ravel() - null
        assert np.max(np.abs(M.matvec(Lx.ravel()) - rest)) <= 1e-10 * np.max(np.abs(x))

    def test_maximal_2d_solve_makes_few_jacobian_products(self):
        # the solve of test_maximal_2d_solve_uses_few_residual_evaluations;
        # unpreconditioned lgmres needed about 850 products here
        model = default_model(2, resolution=64, twist="separable_gauss")
        cfg = SolveConfig(target=0.0, initial={"kind": "random_trig", "seed": 7, "amplitude": 0.1})
        outcome = solve(model, cfg)
        assert outcome.tag == "converged"
        newton = [e for e in outcome.log if e["phase"] == "newton"]
        assert newton
        assert sum(e["krylov_matvecs"] for e in newton) <= 120

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_transition_solves_converge_every_lgmres(self, dim):
        model = default_model(dim, twist="separable_gauss")
        cfg = SolveConfig(target=0.0, initial={"kind": "random_trig", "seed": 4, "amplitude": 0.1})
        outcome = solve(model, cfg)
        assert outcome.tag == "converged"
        newton = [e for e in outcome.log if e["phase"] == "newton"]
        assert newton
        assert all(e["krylov_info"] == 0 for e in newton)


def perturbed_grw_slice(shape, amplitude=1e-3):
    """f = exp(t), flat fiber: every slice has H = 1.  Returns the model, a
    slice at 0.3 plus a small ripple, and the ripple."""
    grid = FiberGrid(len(shape), (1.0,) * len(shape), shape)
    twist = TwistedFunction("pure_time", g=TimeProfile("exp", {"rate": 1.0}))
    ripple = amplitude * np.sin(2 * np.pi * grid.coords[0])
    return SpacetimeModel((-1.0, 1.0), grid, twist), 0.3 + ripple, ripple


def parity_labels(shape):
    """Class of each flat node among the parity sublattices: the binary
    digits of the label are its coordinates mod 2 on the even-sized axes."""
    index = np.indices(shape).reshape(len(shape), -1)
    labels = np.zeros(index.shape[1], dtype=int)
    for axis, m in enumerate(shape):
        if m % 2 == 0:
            labels = 2 * labels + index[axis] % 2
    return labels


def sublattice_means(x, labels):
    classes = int(labels.max()) + 1
    return np.bincount(labels, weights=x.ravel(), minlength=classes) * classes / labels.size


def class_indicators(shape):
    labels = parity_labels(shape)
    return (labels[:, None] == np.arange(labels.max() + 1)).astype(float)


def count_lgmres(monkeypatch):
    """Count lgmres solves, those that end unconverged, and J products."""
    stats = {"solves": 0, "unconverged": 0, "products": 0}
    real = solver_mod.lgmres

    def counted(A, b, **kwargs):
        def matvec(x):
            stats["products"] += 1
            return A.matvec(x)

        d, info = real(LinearOperator(A.shape, matvec=matvec, dtype=A.dtype), b, **kwargs)
        stats["solves"] += 1
        stats["unconverged"] += int(info != 0)
        return d, info

    monkeypatch.setattr(solver_mod, "lgmres", counted)
    return stats


class TestGauge:
    @pytest.mark.parametrize("shape", [(67,), (128,), (9, 12), (8, 8, 8), (9, 9, 10)])
    def test_parity_basis(self, shape):
        W, modes = solver_mod._parity_basis(shape)
        even = sum(m % 2 == 0 for m in shape)
        size = int(np.prod(shape))
        assert W.shape == (size, 2**even)
        assert np.array_equal(W[:, 0], np.ones(size))
        assert np.array_equal(W.T @ W, size * np.eye(2**even))
        # each class indicator lies in the span of W
        Z = class_indicators(shape)
        assert np.max(np.abs(W @ (W.T @ Z) / size - Z)) <= 1e-12
        # the marked modes have wavenumber 0 or m/2 on every axis, and they
        # are the modes of the characters
        waves = np.meshgrid(*[np.arange(n) for n in modes.shape], indexing="ij")
        marked = np.logical_and.reduce([(k == 0) | (2 * k == m) for k, m in zip(waves, shape)])
        assert modes.shape == (*shape[:-1], shape[-1] // 2 + 1)
        assert np.array_equal(modes, marked)
        assert int(modes.sum()) == 2**even
        axes = tuple(range(len(shape)))
        for column in W.T:
            spectrum = np.fft.rfftn(column.reshape(shape), axes=axes)
            assert np.max(np.abs(spectrum[~modes])) <= 1e-12
        # kept read-only, with the Jacobian's pattern, and built once
        assert solver_mod._parity_basis(shape)[0] is W
        rows = solver_mod._jacobian_pattern(shape)
        offsets = solver_mod._lattice_ball(len(shape), solver_mod._RESIDUAL_REACH)
        for array in (W, modes, rows, offsets):
            assert not array.flags.writeable

    @staticmethod
    def jacobian_of_an_expanding_model(shape):
        twist = default_model(len(shape), resolution=8, twist="separable_exp").twist
        grid = FiberGrid(len(shape), (1.0,) * len(shape), shape)
        model = SpacetimeModel((-1.0, 1.0), grid, twist)
        u = 0.2 + 0.05 * np.cos(2 * np.pi * grid.coords[-1])
        return solver_mod._jacobian(solver_mod._Driver(model, SolveConfig()), u)

    @pytest.mark.parametrize("shape", [(67,), (128,), (9, 12), (10, 10), (8, 9, 10)])
    def test_coarse_operator_has_the_singular_values_of_the_class_operator(self, shape):
        # W^T J W / N is an orthogonal similarity of Z^T J Z / |class|
        J, _ = self.jacobian_of_an_expanding_model(shape)
        W, _ = solver_mod._parity_basis(shape)
        Z = class_indicators(shape)
        classes = Z.shape[1]
        expected = svdvals(Z.T @ (J @ Z) / (J.shape[0] // classes))
        coarse = svdvals(W.T @ (J @ W) / J.shape[0])
        assert np.max(np.abs(coarse - expected)) <= 1e-10 * expected[0]

    @pytest.mark.parametrize("shape", [(67,), (128,), (9, 12), (10, 10), (8, 9, 10)])
    def test_dropping_the_parity_modes_is_the_projected_preconditioner(self, shape):
        _, values = self.jacobian_of_an_expanding_model(shape)
        W, modes = solver_mod._parity_basis(shape)
        symbol = solver_mod._circulant_symbol(values, shape)
        M = solver_mod._circulant_preconditioner(symbol, shape)
        dropped = solver_mod._circulant_preconditioner(symbol, shape, drop=modes)
        labels = parity_labels(shape)

        def project(x):
            return x - sublattice_means(x, labels)[labels]

        for seed in range(3):
            x = np.random.default_rng(seed).standard_normal(W.shape[0])
            expected = project(M.matvec(project(x)))
            assert np.max(np.abs(dropped.matvec(x) - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("shape", [(67,), (128,), (9, 12), (10, 10), (8, 9, 10)])
    def test_ungated_filter_keeps_the_common_mean(self, shape):
        # dropping every character but the constant is P d + mean(d)
        W, _ = solver_mod._parity_basis(shape)
        labels = parity_labels(shape)
        d = np.random.default_rng(1).standard_normal(W.shape[0])
        filtered = d - solver_mod._parity_part(d, W[:, 1:])
        expected = d - sublattice_means(d, labels)[labels] + d.mean()
        assert np.max(np.abs(filtered - expected)) <= 1e-14 * np.max(np.abs(d))
        spread = np.max(np.abs(sublattice_means(d - d.mean(), labels)))
        assert solver_mod._sublattice_spread(d.reshape(shape)) == pytest.approx(
            spread, rel=1e-12, abs=1e-15)

    def test_ungated_direction_keeps_the_mean_and_no_grid_scale_mode(self):
        # a start at 0.3 above the transition slice: the step moves the mean
        model = default_model(2, resolution=16, twist="separable_gauss")
        u = random_trig_graph(model, seed=4, amplitude=0.1, center=0.3).u
        driver = solver_mod._Driver(model, SolveConfig(target=0.0))
        _, R = driver.trial(u)
        d = solver_mod._krylov_step(driver, u, R)
        assert driver.direction["gauge"] == "none"
        assert d.mean() < -0.2
        means = sublattice_means(d, parity_labels(u.shape))
        assert np.max(np.abs(means - d.mean())) <= 1e-14 * np.max(np.abs(d))

    @pytest.mark.parametrize("shape", [(128,), (67,), (9, 12), (8, 8, 8)])
    def test_gauge_degenerate_slice_is_deflated(self, monkeypatch, shape):
        # near a slice of a slice family J is near-null on the constant
        # (and the checkerboards of even axes): the step runs gauge-fixed,
        # keeps the sublattice means and undoes the ripple
        model, u, ripple = perturbed_grw_slice(shape)
        driver = solver_mod._Driver(model, SolveConfig(target=1.0))
        _, R = driver.trial(u)
        preconditioners = []
        real = solver_mod.lgmres

        def recorded(A, b, **kwargs):
            preconditioners.append(kwargs["M"])
            return real(A, b, **kwargs)

        monkeypatch.setattr(solver_mod, "lgmres", recorded)
        d = solver_mod._krylov_step(driver, u, R)
        assert driver.direction["gauge"] == "sublattice"
        assert driver.direction["krylov_info"] == 0
        labels = parity_labels(shape)
        assert np.max(np.abs(sublattice_means(d, labels))) <= 1e-12 * np.max(np.abs(d))
        assert np.max(np.abs(d + ripple)) <= 0.05 * np.max(np.abs(ripple))
        # the preconditioner is gauge-fixed as well: it keeps no sublattice mean
        x = np.random.default_rng(0).standard_normal(u.size)
        Mx = preconditioners[0].matvec(x)
        assert np.max(np.abs(sublattice_means(Mx, labels))) <= 1e-12 * np.max(np.abs(Mx))

    def test_pure_gauge_residual_hands_over_to_the_fallback(self):
        # on a slice with an unattainable target all of R is the constant,
        # which no gauge-fixed step can remove
        model, _, _ = perturbed_grw_slice((128,))
        driver = solver_mod._Driver(model, SolveConfig(target=1.001))
        u = np.full(model.fiber.shape, 0.3)
        _, R = driver.trial(u)
        assert solver_mod._krylov_step(driver, u, R) is None
        assert driver.direction == {"fallback_reason": "gauge_handover"}

    def test_non_finite_jacobian_keeps_the_gate_shut(self, monkeypatch):
        real = solver_mod._jacobian

        def poisoned(driver, u):
            J, values = real(driver, u)
            values[0, 0] = J.data[0] = np.nan
            return J, values

        monkeypatch.setattr(solver_mod, "_jacobian", poisoned)
        model = transition_model()
        u = random_trig_graph(model, seed=4, amplitude=0.1).u
        driver = solver_mod._Driver(model, SolveConfig(target=0.0))
        _, R = driver.trial(u)
        # the gate stays shut instead of raising; what lgmres makes of the
        # poisoned J is the ungated step's business
        with np.errstate(invalid="ignore"):
            solver_mod._krylov_step(driver, u, R)
        assert driver.direction["gauge"] == "none"

    @pytest.mark.parametrize("center", [1.2, -1.2, 1.3, -1.3])
    @pytest.mark.parametrize("dim, resolution", [(2, 64), (1, 512)])
    def test_transition_starts_keep_their_mean_motion(self, dim, resolution, center):
        # far from the transition slice the mean must still move: the gate
        # stays shut on every step
        model = default_model(dim, resolution=resolution, twist="separable_gauss")
        initial = {"kind": "random_trig", "seed": 4, "amplitude": 0.1, "center": center}
        outcome = solve(model, SolveConfig(target=0.0, initial=initial))
        assert outcome.tag == "converged"
        newton = [e for e in outcome.log if e["phase"] == "newton"]
        assert newton
        assert all(e["gauge"] == "none" for e in newton)

    @pytest.mark.parametrize("seed", [1, 3, 6])
    def test_drift_solve_converges_every_lgmres(self, monkeypatch, seed):
        # the expanding model's Jacobian is near-null on the constant and
        # the checkerboard; without the gauge these solves made 536-1,596
        # J products, with 1-3 lgmres solves run to the budget
        stats = count_lgmres(monkeypatch)
        model = default_model(1, twist="separable_exp", interval=(-1.0, 1.0))
        initial = {"kind": "random_trig", "seed": seed, "amplitude": 0.1}
        outcome = solve(
            model, SolveConfig(target=0.0, initial=initial, check_certificate=False)
        )
        assert outcome.tag == "nonexistence"
        assert outcome.certificate["reason"] == "drift"
        fallback = [e for e in outcome.log if e["phase"] == "fallback"]
        assert len(fallback) == 21
        assert fallback[0]["fallback_reason"] == "gauge_handover"
        assert stats["solves"] >= 1
        assert stats["unconverged"] == 0
        assert stats["products"] <= 100
        gauges = [e["gauge"] for e in outcome.log if e["phase"] == "newton"]
        assert "sublattice" in gauges and set(gauges) <= {"none", "sublattice"}

    @pytest.mark.parametrize(
        "patched, reason", [("_line_search", "line_search"), ("_krylov_step", "no_direction")]
    )
    def test_first_sweep_after_a_newton_attempt_logs_why(self, monkeypatch, patched, reason):
        monkeypatch.setattr(solver_mod, patched, lambda *args: None)
        model = transition_model()
        cfg = SolveConfig(
            target=0.0,
            initial={"kind": "random_trig", "seed": 6, "amplitude": 0.2, "center": 0.4},
            max_newton_iters=3,
            fallback_chunk=30,
            fallback_max_sweeps=60,
        )
        fallback = [e for e in solve(model, cfg).log if e["phase"] == "fallback"]
        assert len(fallback) == 60
        logged = [(i, e["fallback_reason"]) for i, e in enumerate(fallback)
                  if "fallback_reason" in e]
        assert logged == [(0, reason), (30, reason)]


def parity_class_means(u):
    """Means of u - mean(u) over the 2^dim parity classes of an even grid."""
    v = u - u.mean()
    return np.array([v[tuple(slice(c, None, 2) for c in corner)].mean()
                     for corner in np.ndindex(*(2,) * u.ndim)])


class TestGridScaleModes:
    """A mode on the parity sublattices has a zero centred gradient: the
    margin, the residual and both curvature paths cannot see it, so the
    solver must neither inject it nor report it as a solution."""

    @staticmethod
    def solve_sawtooth(dim):
        # every slice of grw_exp has H = 1, and so does the sawtooth's
        # centred difference: the residual is 0 before any iteration
        model = default_model(dim, twist="grw_exp", interval=(-1.0, 1.0))
        parity = np.indices(model.fiber.shape).sum(axis=0) % 2
        sawtooth = GraphField(model, 0.1 + 0.05 * (-1.0) ** parity)
        return solve(model, SolveConfig(target=1.0, initial=sawtooth))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_sawtooth_is_not_converged(self, dim):
        outcome = self.solve_sawtooth(dim)
        assert outcome.tag == "not_converged"
        assert outcome.residual_norm == 0.0
        assert outcome.diagnostics["failure"] == "grid-scale sublattice mode"
        assert outcome.diagnostics["sublattice_spread"] == pytest.approx(0.05, rel=1e-12)
        assert outcome.diagnostics["edge_margin"] >= 1.0

    def test_edge_margin_alone_rejects_the_sawtooth(self, monkeypatch):
        # the edge check stands on its own: with the spread blinded, the
        # sawtooth still fails, on its forward-difference slopes
        monkeypatch.setattr(solver_mod, "_sublattice_spread", lambda u: 0.0)
        outcome = self.solve_sawtooth(1)
        assert outcome.tag == "not_converged"
        assert outcome.diagnostics["failure"] == "edge spacelike margin at or above 1"

    @pytest.mark.parametrize("seed", [21, 22, 23])
    @pytest.mark.parametrize("dim, resolution", [(1, 128), (2, 64), (3, 16)])
    def test_generalized_solves_end_as_slices(self, dim, resolution, seed):
        # the criterion-6 setting, where every slice is a solution; without
        # the projection of Newton's directions these ended with sublattice
        # means up to 0.38 (3-D seed 22)
        model = default_model(dim, resolution=resolution, twist="separable_gauss")
        initial = {"kind": "random_trig", "seed": seed, "amplitude": 0.1, "center": 0.3}
        outcome = solve(model, SolveConfig(target="generalized", initial=initial))
        assert outcome.tag == "converged"
        spread = float(np.max(np.abs(parity_class_means(outcome.graph.u))))
        assert spread <= 1e-14
        # the diagnostic projects u on the parity characters, which rounds
        # apart from these class means by an ulp of u (2.2e-16 against 0.0
        # on 1-D seed 21)
        assert outcome.diagnostics["sublattice_spread"] == pytest.approx(spread, abs=1e-15)

    def test_three_dimensional_seed_22_has_an_edge_margin_below_one(self):
        # without the projection of Newton's directions this solve ended
        # with a forward-difference margin of 31.6 and a centred one of 2e-15
        model = default_model(3, resolution=16, twist="separable_gauss")
        initial = {"kind": "random_trig", "seed": 22, "amplitude": 0.1, "center": 0.3}
        outcome = solve(model, SolveConfig(target="generalized", initial=initial))
        assert outcome.tag == "converged"
        u = outcome.graph.u
        grid = model.fiber
        slope_sq = sum(
            ((np.roll(u, -1, axis=i) - u) / grid.spacing[i]) ** 2 / grid.metric_diag[..., i]
            for i in range(3)
        )
        edge = float(np.max(np.sqrt(slope_sq) / model.twist.value(u, grid)))
        assert edge < 1.0
        assert outcome.diagnostics["edge_margin"] == pytest.approx(edge, rel=1e-12, abs=1e-15)

    def test_edge_margin_sees_what_the_centred_margin_skips(self):
        # f = 1 and u = a sin(pi i / 2 + pi / 4), heights (1, 1, -1, -1)
        # a / sqrt(2): the centred slope peaks at a / (sqrt(2) h), the
        # forward one at sqrt(2) a / h, twice as steep and past the light cone
        model = flat_grw_model()
        h = model.fiber.spacing[0]
        a = 0.6 * np.sqrt(2.0) * h
        u = a * np.sin(0.5 * np.pi * np.arange(model.fiber.shape[0]) + 0.25 * np.pi)
        kit = graphs_mod._kit(GraphField(model, u))
        assert float(kit.mu.max()) == pytest.approx(0.6, rel=1e-12)
        assert solver_mod._edge_margin(kit) == pytest.approx(1.2, rel=1e-12)


class TestTrialPoints:
    def test_values_above_the_box_are_rejected(self):
        model = transition_model()
        driver = solver_mod._Driver(model, SolveConfig())
        values = np.full(model.fiber.shape, 0.5 * (driver.hi + model.interval[1]))
        assert driver.trial(values) is None

    def test_nonspacelike_values_are_rejected_without_raising(self):
        model = flat_grw_model()
        grid = model.fiber
        h = grid.spacing[0]
        amp = 1.01 * h / np.sin(2 * np.pi * h)
        values = amp * np.sin(2 * np.pi * grid.coords[0])
        assert float(graphs_mod.spacelike_margin(GraphField(model, values)).max()) >= 1.0
        driver = solver_mod._Driver(model, SolveConfig())
        assert driver.trial(values) is None

    @pytest.mark.parametrize("target", [0.0, "generalized"])
    def test_residual_matches_residual_field(self, target):
        model = default_model(2, resolution=16, twist="separable_gauss")
        values = random_trig_graph(model, seed=4, amplitude=0.05).u
        driver = solver_mod._Driver(model, SolveConfig(target=target))
        kit, R = driver.trial(values)
        assert np.array_equal(kit.u, values)
        assert np.array_equal(R, residual_field(GraphField(model, values), target))

    def test_solution_does_not_share_the_initial_array(self):
        model = transition_model()
        graph0 = GraphField.constant(model, 0.0)
        outcome = solve(model, SolveConfig(target=0.0, initial=graph0))
        assert outcome.tag == "converged"
        assert np.array_equal(outcome.graph.u, graph0.u)
        assert not np.shares_memory(outcome.graph.u, graph0.u)

    @pytest.mark.parametrize(
        "dim, twist, interval, seed, check_certificate",
        [
            (2, "separable_gauss", (-1.5, 1.5), 7, True),
            (1, "separable_exp", (-1.0, 1.0), 3, False),
        ],
        ids=["maximal-64x64", "drift-1d"],
    )
    def test_one_kit_per_trial_point(
        self, monkeypatch, dim, twist, interval, seed, check_certificate
    ):
        model = default_model(
            dim, resolution=64 if dim == 2 else None, twist=twist, interval=interval
        )
        # built before counting: the initializer's own margin check is not
        # the solver's kit
        initial = random_trig_graph(model, seed=seed, amplitude=0.1)
        cfg = SolveConfig(
            target=0.0, initial=initial, check_certificate=check_certificate
        )
        kits, residuals = count_kits_and_residuals(monkeypatch)
        jacobians = []
        real = solver_mod._jacobian

        def counted(driver, u):
            jacobians.append(1)
            return real(driver, u)

        monkeypatch.setattr(solver_mod, "_jacobian", counted)
        solve(model, cfg)
        # each Jacobian reads 2 (n + 1) pointwise kits; the spare 5 cover
        # the two-path re-verification and geometry_report
        assert jacobians
        assert len(kits) <= len(residuals) + 2 * (dim + 1) * len(jacobians) + 5


class TestRigidityReport:
    def test_transition_solution_report(self):
        model = transition_model()
        cfg = SolveConfig(target=0.0, initial={"kind": "random_trig", "seed": 7, "amplitude": 0.1})
        outcome = solve(model, cfg)
        report = rigidity_report(outcome)
        assert report.constancy_defect <= 1e-6
        assert report.max_abs_dtf_at_mean <= 1e-6
        assert report.transition_time is not None
        assert report.transition_gap <= 1e-6

    def test_requires_converged_maximal_outcome(self):
        model = default_model(1, twist="grw_exp", interval=(-1.0, 1.0))
        outcome = solve(model, SolveConfig(target=-0.5, initial={"kind": "constant", "value": 0.0}))
        with pytest.raises(DomainError):
            rigidity_report(outcome)
        cmc = solve(model, SolveConfig(target=1.0, initial={"kind": "constant", "value": 0.0}))
        assert cmc.tag == "converged"
        with pytest.raises(DomainError):
            rigidity_report(cmc)


def maximal_2d_model():
    """The benchmark's maximal-2d model: separable_gauss on 64^2 over (-1.5, 1.5)."""
    return default_model(2, resolution=64, twist="separable_gauss", interval=(-1.5, 1.5))


def refuse_1d_model():
    return default_model(1, twist="separable_exp", interval=(-1.0, 1.0))


def outcome_record(outcome):
    """Every reported field of an outcome, floats by their repr."""
    return json.dumps(
        {
            "tag": outcome.tag,
            "certificate": outcome.certificate,
            "log": outcome.log,
            "diagnostics": outcome.diagnostics,
            "residual_norm": outcome.residual_norm,
            "iterations": outcome.iterations,
            "u": None if outcome.graph is None else outcome.graph.u.tobytes().hex(),
        },
        sort_keys=True,
    )


class TestKeptModelChecks:
    """The certificate bounds and the classify verdict are computed once per
    model; later solves and reports reuse them."""

    def test_second_solve_sweeps_no_twist(self, monkeypatch):
        logs = count_calls(monkeypatch, TwistedFunction, "dlog_dt")
        for model, target in ((transition_model(), 0.0), (refuse_1d_model(), -0.5)):
            cfg = SolveConfig(target=target, initial={"kind": "constant", "value": 0.1})
            logs.clear()
            solve(model, cfg)
            assert len(logs) == 1  # 256 samples on 128 nodes: one block
            logs.clear()
            solve(model, cfg)
            assert logs == []

    def test_second_rigidity_report_reads_one_rate(self, monkeypatch):
        model = transition_model()
        cfg = SolveConfig(target=0.0, initial={"kind": "random_trig", "seed": 7, "amplitude": 0.1})
        outcomes = [solve(model, cfg) for _ in range(2)]
        rates = count_calls(monkeypatch, TwistedFunction, "dt")
        first = rigidity_report(outcomes[0])
        assert len(rates) > 2  # d/dt f at the mean height, and classify's sweep
        rates.clear()
        assert rigidity_report(outcomes[1]) == first
        assert len(rates) == 1  # d/dt f at the mean height only

    def test_callers_cannot_change_a_kept_certificate(self):
        model = refuse_1d_model()
        first = certificate_check(model, -5.0)
        expected = copy.deepcopy(first)
        first["inf_dlog_f"] = -99.0
        first["interval"].append(3.0)
        second = certificate_check(model, -5.0)
        assert second == expected
        assert certificate_check(model, 7.0)["target"] == 7.0
        assert certificate_check(model, 1.0) is None

    def test_results_equal_those_of_a_fresh_model(self):
        # two ops on one model, each against the same calls on a model
        # built for it alone
        starts = [{"kind": "random_trig", "seed": seed, "amplitude": 0.1} for seed in (7, 8)]
        kept = maximal_2d_model()
        for initial in starts:
            results = []
            for model in (kept, maximal_2d_model()):
                outcome = solve(model, SolveConfig(target=0.0, initial=initial))
                assert outcome.tag == "converged"
                results.append((outcome_record(outcome), rigidity_report(outcome)))
            assert results[0] == results[1]
        kept = refuse_1d_model()
        for initial in starts:
            results = []
            for model in (kept, refuse_1d_model()):
                bound = solve(model, SolveConfig(target=0.0, initial=initial))
                drift = solve(model, SolveConfig(target=0.0, initial=initial,
                                                 check_certificate=False))
                assert (bound.certificate["reason"], drift.certificate["reason"]) == (
                    "bound", "drift")
                results.append((outcome_record(bound), outcome_record(drift)))
            assert results[0] == results[1]

    def test_maximal_2d_ops_pin_the_sampled_check_calls(self, monkeypatch):
        # per op: d/dt log f calls of the certificate (256 samples in blocks
        # of 16 times on 64^2) and d/dt f calls of rigidity_report (its own
        # at the mean height, then classify's 4 sampling blocks and 29
        # bisection passes); the second op reuses both
        model = maximal_2d_model()
        logs = count_calls(monkeypatch, TwistedFunction, "dlog_dt")
        rates = count_calls(monkeypatch, TwistedFunction, "dt")
        calls = []
        for seed in (7, 8):
            cfg = SolveConfig(target=0.0,
                              initial={"kind": "random_trig", "seed": seed, "amplitude": 0.1})
            logs.clear()
            outcome = solve(model, cfg)
            assert outcome.tag == "converged"
            rates.clear()
            rigidity_report(outcome)
            calls.append((len(logs), len(rates)))
        assert calls == [(16, 1 + 4 + 29), (0, 1)]
