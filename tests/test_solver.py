import json

import numpy as np
import pytest

import twistbench.graphs as graphs_mod
import twistbench.solver as solver_mod
from twistbench import (
    DomainError,
    GraphField,
    SolveConfig,
    SpacelikeError,
    certificate_check,
    default_model,
    mean_curvature,
    random_trig_graph,
    residual_field,
    rigidity_report,
    solve,
)

from conftest import flat_grw_model


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
        # the fiber-form curvature runs once per residual and once per log
        # entry; the re-verification reuses the converged iterate's norm
        model = transition_model()
        cfg = SolveConfig(target=target, initial={"kind": "random_trig", "seed": 4, "amplitude": 0.1})
        _, residuals = count_kits_and_residuals(monkeypatch)
        curvatures = []
        real = solver_mod._mean_curvature

        def counted(kit):
            curvatures.append(1)
            return real(kit)

        monkeypatch.setattr(solver_mod, "_mean_curvature", counted)
        outcome = solve(model, cfg)
        assert outcome.tag == "converged"
        assert all(e["phase"] != "fallback" for e in outcome.log)
        assert len(curvatures) == len(residuals) + len(outcome.log)
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


class TestJacobian:
    @pytest.mark.parametrize(
        "shape", [(9,), (128,), (10, 12), (64, 64), (8, 8, 8)]
    )
    def test_same_colored_columns_share_no_row(self, shape):
        rows, colors = solver_mod._jacobian_pattern(shape)
        cols = np.repeat(np.arange(colors.size), rows.shape[1])
        assert rows.shape == (colors.size, {1: 5, 2: 13, 3: 25}[len(shape)])
        # every (row, color) pair is hit by exactly one column
        pairs = np.unique(np.stack([rows.ravel(), colors[cols]]), axis=1)
        assert pairs.shape[1] == rows.size

    @pytest.mark.parametrize(
        "dim, m, curved, target",
        [
            (1, 32, False, 0.0),
            (1, 32, True, "generalized"),
            (2, 12, True, 0.0),
            (2, 12, False, "generalized"),
            (3, 8, True, 0.0),
        ],
    )
    def test_matches_directional_derivative(self, dim, m, curved, target):
        model = default_model(dim, resolution=m, curved=curved, twist="separable_gauss")
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

    def test_maximal_2d_solve_uses_few_residual_evaluations(self, monkeypatch):
        calls = []
        real = solver_mod._residual

        def counting(kit, target):
            calls.append(1)
            return real(kit, target)

        # _residual sees both the Jacobian's and the trial points' residuals
        monkeypatch.setattr(solver_mod, "_residual", counting)
        model = default_model(2, resolution=64, twist="separable_gauss")
        cfg = SolveConfig(target=0.0, initial={"kind": "random_trig", "seed": 7, "amplitude": 0.1})
        outcome = solve(model, cfg)
        assert outcome.tag == "converged"
        assert len(calls) < 400

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
    # x_{i-o} enters node i, so offset -e_1 carries x_{i+1}
    return stencil + np.where(reach == 1, -0.15 * offsets[:, 0], 0.0)


class TestPreconditioner:
    @pytest.mark.parametrize("dim, m", [(1, 32), (2, 12), (3, 8)])
    def test_inverts_the_circulant_jacobian_of_a_grw_slice(self, dim, m):
        # on a slice of a flat-fiber GRW model every column of J carries
        # the same stencil, so J is its own nearest circulant
        model = default_model(dim, resolution=m, twist="grw_gauss")
        shape = model.fiber.shape
        driver = solver_mod._Driver(model, SolveConfig(target=0.0))
        J, values = solver_mod._jacobian(driver, np.full(shape, 0.3))
        assert np.max(np.abs(values - values[0])) <= 1e-10 * np.max(np.abs(values))
        # J's symbol is the FFT of its first column; x avoids its round-off modes
        axes = tuple(range(dim))
        column = (J @ np.eye(1, J.shape[0]).ravel()).reshape(shape)
        symbol = np.abs(np.fft.rfftn(column, axes=axes))
        modes = np.fft.rfftn(np.random.default_rng(dim).standard_normal(shape), axes=axes)
        modes[symbol <= 1e-14 * symbol.max()] = 0.0
        x = np.fft.irfftn(modes, s=shape, axes=axes).ravel()
        M = solver_mod._circulant_preconditioner(values, shape)
        assert np.max(np.abs(M.matvec(J @ x) - x)) <= 1e-10 * np.max(np.abs(x))

    @pytest.mark.parametrize("dim, m", [(1, 32), (2, 12), (3, 8)])
    def test_round_off_modes_pass_unchanged(self, dim, m):
        # wide centred stencils annihilate the constant and the 2^dim - 1
        # sublattice modes; M must pass those unchanged and undo the
        # stencil on the rest
        shape = (m,) * dim
        offsets = solver_mod._lattice_ball(dim, solver_mod._RESIDUAL_REACH)
        stencil = _wide_stencil(offsets)
        M = solver_mod._circulant_preconditioner(np.tile(stencil, (m**dim, 1)), shape)
        x = np.random.default_rng(dim).standard_normal(shape)
        sublattice_means = np.empty(shape)
        for corner in np.ndindex(*(2,) * dim):
            part = tuple(slice(c, None, 2) for c in corner)
            sublattice_means[part] = x[part].mean()
        null = sublattice_means.ravel()
        assert np.max(np.abs(M.matvec(null) - null)) <= 1e-12
        Lx = sum(
            c * np.roll(x, tuple(o), axis=tuple(range(dim)))
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
        solve(model, cfg)
        # the spare 5 cover the two-path re-verification and geometry_report
        assert len(kits) <= len(residuals) + 5


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
