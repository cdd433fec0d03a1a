import numpy as np
import pytest

from twistbench import (
    ConformalFactor,
    DomainError,
    GraphField,
    SolveConfig,
    TwistedFunction,
    conformal_laplacian_check,
    default_model,
    maximal_power_check,
    random_trig_graph,
    slice_mean_curvature,
    slice_shape_transform,
    solve,
    static_laplacian_check,
    transform_mean_curvature,
)

from twistbench.conformal import _conformal_laplacian_checks
from twistbench.fiber_grid import component_sum
from twistbench.graphs import _Kit, _kit, _small_det, _small_solve, coordinate_laplacian

from conftest import assert_bitwise, count_calls, random_trig_field, ripple


def closed_forms(phi, t, grid):
    """(phi, d/dt phi, d_F phi) of a factor, written out apart from the
    kind table."""
    shape = np.broadcast(np.asarray(t), grid.coords[0]).shape
    zeros = np.zeros(shape + (grid.dim,))
    if phi.kind == "constant":
        return np.full(shape, phi.const), np.zeros(shape), zeros
    if phi.kind == "fiber":
        for i in range(grid.dim):
            zeros[..., i] = grid.sample(phi.fiber_profile, i)
        value = np.broadcast_to(grid.sample(phi.fiber_profile), shape).copy()
        return value, np.zeros(shape), zeros
    f = phi.twist.value(t, grid)
    return (-phi.power * np.log(f), -phi.power * phi.twist.dlog_dt(t, grid),
            -phi.power * phi.twist.fiber_partials(t, grid) / f[..., None])


class TestFactorKinds:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_each_kind_matches_its_closed_form(self, dim):
        model = default_model(dim, resolution=8, twist="additive", curved=True)
        grid = model.fiber
        heights = 0.3 + 0.2 * np.sin(2.0 * np.pi * grid.coords[0])
        factors = [
            ConformalFactor.constant(0.3),
            ConformalFactor.static_picture(model.twist),
            ConformalFactor.static_picture(model.twist, power=2.5),
            ConformalFactor.fiber_only(ripple(grid, coeff=0.3, phase=0.4)),
        ]
        for phi in factors:
            for t in (0.2, heights):
                got = (phi.value(t, grid), phi.dt(t, grid), phi.fiber_partials(t, grid))
                for actual, expected in zip(got, closed_forms(phi, t, grid)):
                    assert_bitwise(actual, expected)

    @pytest.mark.parametrize("method", ["value", "dt", "fiber_partials"])
    def test_neg_log_twist_reads_the_twist_once_per_call(self, monkeypatch, method):
        model = default_model(2, resolution=8, twist="separable_gauss")
        phi = ConformalFactor.static_picture(model.twist, power=2.0)
        alongs = count_calls(monkeypatch, TwistedFunction, "along")
        getattr(phi, method)(0.3, model.fiber)
        assert len(alongs) == 1


class TestTransformMeanCurvature:
    def test_constant_factor_rescales(self):
        model = default_model(1, twist="separable_gauss")
        graph = random_trig_graph(model, seed=1, amplitude=0.08)
        from twistbench import mean_curvature

        H1 = mean_curvature(graph)
        H2 = transform_mean_curvature(graph, ConformalFactor.constant(0.7))
        assert np.max(np.abs(H2 - np.exp(-0.7) * H1)) <= 1e-13

    def test_static_picture_makes_slices_geodesic(self):
        model = default_model(1, twist="separable_gauss")
        graph = GraphField.constant(model, 0.35)
        H2 = transform_mean_curvature(graph, ConformalFactor.static_picture(model.twist))
        assert np.max(np.abs(H2)) <= 1e-13

    def test_generalized_solution_has_tiny_static_curvature(self):
        model = default_model(1, twist="separable_gauss")
        cfg = SolveConfig(
            target="generalized",
            initial={"kind": "random_trig", "seed": 2, "amplitude": 0.08, "center": 0.3},
        )
        outcome = solve(model, cfg)
        assert outcome.tag == "converged"
        H2 = transform_mean_curvature(
            outcome.graph, ConformalFactor.static_picture(model.twist)
        )
        assert np.max(np.abs(H2)) <= 1e-8


class TestSliceShapeTransform:
    def test_static_picture_kills_umbilic_factor(self):
        model = default_model(1, twist="separable_gauss")
        lam2 = slice_shape_transform(model, 0.4, ConformalFactor.static_picture(model.twist))
        assert np.max(np.abs(lam2)) <= 1e-14

    def test_constant_factor_rescales_umbilic_factor(self):
        model = default_model(1, twist="separable_gauss")
        lam1 = -slice_mean_curvature(model, 0.4)
        lam2 = slice_shape_transform(model, 0.4, ConformalFactor.constant(0.5))
        assert np.max(np.abs(lam2 - np.exp(-0.5) * lam1)) <= 1e-14

    def test_fiber_only_factor_rescales_pointwise(self):
        model = default_model(1, twist="separable_gauss")
        phi = ConformalFactor.fiber_only(ripple(model.fiber, coeff=0.3))
        lam1 = -slice_mean_curvature(model, 0.4)
        phi_vals = phi.value(0.4, model.fiber)
        lam2 = slice_shape_transform(model, 0.4, phi)
        assert np.max(np.abs(lam2 - np.exp(-phi_vals) * lam1)) <= 1e-14


def catalog(model):
    return [
        ConformalFactor.constant(0.3),
        ConformalFactor.static_picture(model.twist),
        ConformalFactor.static_picture(model.twist, power=2.0),
        ConformalFactor.fiber_only(ripple(model.fiber, coeff=0.3, phase=0.4)),
    ]


class TestConformalLaplacian:
    def test_trivial_factor_gives_roundoff_defect(self):
        model = default_model(2, resolution=16, twist="separable_gauss")
        graph = random_trig_graph(model, seed=3, amplitude=0.08)
        h = random_trig_field(model.fiber, seed=4)
        check = conformal_laplacian_check(h, ConformalFactor.constant(0.0), graph)
        assert check.max_defect <= 1e-12

    def test_dimension_two_is_exact_for_all_factors(self):
        model = default_model(2, resolution=32, twist="separable_gauss")
        graph = random_trig_graph(model, seed=5, amplitude=0.08)
        h = random_trig_field(model.fiber, seed=6)
        for phi in catalog(model):
            assert conformal_laplacian_check(h, phi, graph).max_defect <= 1e-10

    @pytest.mark.parametrize("dim,base", [(1, 32), (3, 8)])
    def test_defect_decays_at_second_order(self, dim, base):
        worst = []
        for factor in (1, 2, 4):
            model = default_model(dim, resolution=base * factor, twist="separable_gauss")
            graph = random_trig_graph(model, seed=7, amplitude=0.05, max_mode=1)
            h = random_trig_field(model.fiber, seed=8)
            worst.append(
                max(conformal_laplacian_check(h, phi, graph).max_defect for phi in catalog(model))
            )
        assert np.log2(worst[-2] / worst[-1]) >= 1.9

    @pytest.mark.parametrize("dim, m", [(1, 32), (2, 12), (3, 8)])
    @pytest.mark.parametrize("curved", [False, True])
    def test_bitwise_two_separate_solves(self, dim, m, curved):
        # reference: the unrescaled Laplacian and the pairing, each with its
        # own determinant and solve of g1 x = dh
        model = default_model(dim, resolution=m, twist="separable_gauss", curved=curved)
        graph = random_trig_graph(model, seed=9, amplitude=0.05)
        grid = model.fiber
        h = random_trig_field(grid, seed=10)
        g1 = _kit(graph).metric()
        factors = catalog(model)
        loop = list(_conformal_laplacian_checks(h, factors, graph))
        for phi, from_loop in zip(factors, loop, strict=True):
            phi_vals = phi.value(graph.u, grid)
            g2 = np.exp(2.0 * phi_vals)[..., None, None] * g1
            x = _small_solve(g1, grid.partials(h), _small_det(g1))
            pairing = component_sum(grid.partials(phi_vals) * x)
            rhs = np.exp(-2.0 * phi_vals) * (
                coordinate_laplacian(grid, g1, h) + (dim - 2) * pairing
            )
            check = conformal_laplacian_check(h, phi, graph)
            assert_bitwise(check.lhs, coordinate_laplacian(grid, g2, h))
            assert_bitwise(check.rhs, rhs)
            # the factor loop's entry is the one-factor check
            assert_bitwise(from_loop.lhs, check.lhs)
            assert_bitwise(from_loop.rhs, check.rhs)


class TestStaticPicture:
    def test_slice_defects_vanish(self):
        model = default_model(2, resolution=16, twist="separable_gauss")
        checks = static_laplacian_check(GraphField.constant(model, 0.3))
        assert checks.main.max_defect <= 1e-12
        assert checks.laplacian_relation.max_defect <= 1e-12
        assert checks.gradient_pairing.max_defect <= 1e-12

    def test_grw_normal_term_reduces_to_boost_only(self):
        model = default_model(1, twist="grw_gauss")
        graph = random_trig_graph(model, seed=9, amplitude=0.08)
        checks = static_laplacian_check(graph)
        # fiber partials vanish, so all three identities still close at O(h^2)
        assert checks.main.max_defect <= 1e-2
        assert checks.gradient_pairing.max_defect <= 1e-3

    def test_separable_defects_decay_at_second_order(self):
        defects = {"main": [], "relation": [], "pairing": []}
        for m in (16, 32, 64):
            model = default_model(2, resolution=m, twist="separable_gauss")
            graph = random_trig_graph(model, seed=10, amplitude=0.05, max_mode=1)
            checks = static_laplacian_check(graph)
            defects["main"].append(checks.main.max_defect)
            defects["relation"].append(checks.laplacian_relation.max_defect)
            defects["pairing"].append(checks.gradient_pairing.max_defect)
        for values in defects.values():
            assert np.log2(values[-2] / values[-1]) >= 1.9


    @pytest.mark.parametrize(
        "twist, dim", [("separable_gauss", 2), ("additive", 3), ("grw_exp", 1), ("traveling", 1)]
    )
    def test_main_rhs_is_bitwise_the_static_picture_factor(self, twist, dim):
        # the check reads log alpha and its derivatives from its own kit; its
        # H_tilde is bitwise transform_mean_curvature under static_picture
        model = default_model(dim, resolution=8, twist=twist, curved=True)
        graph = random_trig_graph(model, seed=dim, amplitude=0.05)
        kit = _kit(graph)
        alpha, dlog_alpha_dt = 1.0 / kit.f, -kit.dlogf
        H_tilde = transform_mean_curvature(graph, ConformalFactor.static_picture(model.twist))
        normal_log_alpha = kit.f * (
            kit.cosh * dlog_alpha_dt
            + component_sum(-kit.fiber_df / kit.f[..., None] * kit.rho[..., None] * kit.grad_u)
        )
        rhs = alpha ** -2 * (
            (1.0 + kit.cosh ** 2) * dlog_alpha_dt
            + dim * H_tilde * alpha * kit.cosh
            - 2.0 * alpha * kit.cosh * normal_log_alpha
        )
        assert_bitwise(static_laplacian_check(graph).main.rhs, rhs)

    def test_one_kit_and_no_twist_call_per_check(self, monkeypatch):
        model = default_model(3, resolution=8, twist="separable_gauss")
        graph = random_trig_graph(model, seed=3, amplitude=0.05)
        kits = count_calls(monkeypatch, _Kit, "__init__")
        twist_calls = [
            count_calls(monkeypatch, TwistedFunction, name)
            for name in ("value", "dt", "fiber_partials", "dlog_dt")
        ]
        static_laplacian_check(graph)
        assert len(kits) == 1
        assert [len(calls) for calls in twist_calls] == [0, 0, 0, 0]


class TestMaximalPowerRescaling:
    def test_maximal_slice_in_transition_model(self):
        model = default_model(3, resolution=10, twist="separable_gauss")
        graph = GraphField.constant(model, 0.0)  # transition slice: H = 0
        check = maximal_power_check(graph)
        assert check.max_defect <= 1e-13

    def test_requires_three_dimensional_fiber(self):
        model = default_model(2, resolution=16, twist="separable_gauss")
        with pytest.raises(DomainError):
            maximal_power_check(GraphField.constant(model, 0.0))

    def test_rejects_non_maximal_input(self):
        model = default_model(3, resolution=10, twist="separable_gauss")
        with pytest.raises(DomainError):
            maximal_power_check(GraphField.constant(model, 0.4))

    def test_chained_power_factors_decay_at_second_order(self):
        # the nondegenerate content routes through the rescaling law with
        # phi = -log f and phi = -p log f, p = 2/(n-2) = 2 in dimension 3
        worst = []
        for m in (16, 32, 64):
            model = default_model(3, resolution=m, twist="separable_gauss")
            graph = random_trig_graph(model, seed=11, amplitude=0.05, max_mode=1)
            h = random_trig_field(model.fiber, seed=12)
            worst.append(
                max(
                    conformal_laplacian_check(
                        h, ConformalFactor.static_picture(model.twist, power=p), graph
                    ).max_defect
                    for p in (1.0, 2.0)
                )
            )
        assert np.log2(worst[-2] / worst[-1]) >= 1.9
