import numpy as np
import pytest

from twistbench import (
    DomainError,
    GraphField,
    SpacelikeError,
    SpacetimeModel,
    TimeProfile,
    TrigPolynomial,
    TwistedFunction,
    area,
    area_gradient_check,
    coordinate_laplacian,
    default_model,
    geometry_report,
    grad_tau,
    hyperbolic_angle,
    induced_metric,
    laplacian_tau_coordinate,
    laplacian_tau_fiber,
    mean_curvature,
    mean_curvature_from_laplacian,
    random_trig_graph,
    rho_field,
    slice_condition_report,
    spacelike_check,
    spacelike_margin,
    unit_normal,
    warped_obstruction,
)
from twistbench.fiber_grid import component_sum
from twistbench.graphs import (
    _Kit,
    _kit,
    _laplacian_tau_fiber,
    _mean_curvature,
    _small_det,
    _small_solve,
    _warped_obstruction,
)

from twistbench.spacetime import TwistAlong

from conftest import (
    assert_bitwise,
    count_calls,
    count_reads,
    flat_grw_model,
    is_component_major,
    random_trig_field,
    stack_partials,
    sum_inner,
    unit_torus,
    zeros_divergence,
)


def near_critical_sine(model, delta):
    """Sine graph whose discrete max slope is (1 - delta) times critical.

    The discrete derivative of A sin(2 pi x) peaks at A sin(2 pi h)/h, so A
    is chosen to land the margin exactly at 1 - delta on the lattice.
    """
    grid = model.fiber
    h = grid.spacing[0]
    peak_slope = np.sin(2.0 * np.pi * h) / h
    amplitude = (1.0 - delta) / peak_slope
    return GraphField(model, amplitude * np.sin(2.0 * np.pi * grid.coords[0]))


class TestSpacelikeCheck:
    def test_slice_has_zero_margin(self):
        model = default_model(1, twist="separable_gauss")
        ok, mu = spacelike_check(GraphField.constant(model, 0.3))
        assert ok
        assert np.all(mu == 0.0)

    def test_near_critical_sine_passes(self):
        model = flat_grw_model()
        graph = near_critical_sine(model, delta=1e-3)
        ok, mu = spacelike_check(graph)
        assert ok
        assert abs(float(mu.max()) - (1.0 - 1e-3)) <= 1e-12

    def test_supercritical_sine_fails_with_indefinite_metric(self):
        model = flat_grw_model()
        graph = near_critical_sine(model, delta=-1e-3)
        ok, mu = spacelike_check(graph)
        assert not ok
        assert float(mu.max()) >= 1.0
        g = _kit(graph, require_spacelike=False).metric()
        min_eig = np.linalg.eigvalsh(g)[..., 0]
        worst = np.unravel_index(int(np.argmax(mu)), mu.shape)
        assert min_eig[worst] <= 0.0

    def test_values_outside_interval_rejected(self):
        model = flat_grw_model(interval=(-0.5, 0.5))
        with pytest.raises(DomainError):
            GraphField(model, np.full(model.fiber.shape, 0.7))

    def test_spacelike_required_operations_raise_with_worst_node(self):
        model = flat_grw_model()
        graph = near_critical_sine(model, delta=-1e-3)
        with pytest.raises(SpacelikeError) as err:
            rho_field(graph)
        assert err.value.worst_index is not None
        assert err.value.margin >= 1.0


class TestRho:
    def test_slice_value(self):
        model = default_model(1, twist="separable_gauss")
        graph = GraphField.constant(model, 0.3)
        f = model.twist.value(0.3, model.fiber)
        assert np.max(np.abs(rho_field(graph) - f**-2)) <= 1e-14

    def test_half_slope_node_gives_sqrt_two(self):
        # flat model, discrete |grad u| = 1/sqrt(2) at the zero-phase node
        model = flat_grw_model()
        grid = model.fiber
        h = grid.spacing[0]
        amplitude = (1.0 / np.sqrt(2.0)) * h / np.sin(2.0 * np.pi * h)
        graph = GraphField(model, amplitude * np.sin(2.0 * np.pi * grid.coords[0]))
        assert abs(rho_field(graph)[0] - np.sqrt(2.0)) <= 1e-12

    def test_defining_identity_pointwise(self):
        model = default_model(2, resolution=32, twist="separable_gauss")
        graph = random_trig_graph(model, seed=8, amplitude=0.1)
        kit = _kit(graph)
        value = rho_field(graph) * kit.f * np.sqrt(kit.f**2 - kit.grad_u_sq)
        assert np.max(np.abs(value - 1.0)) <= 1e-12


class TestHyperbolicAngle:
    def test_slice_is_unboosted(self):
        model = default_model(1, twist="separable_gauss")
        cosh, sinh_sq = hyperbolic_angle(GraphField.constant(model, 0.2))
        assert np.max(np.abs(cosh - 1.0)) <= 1e-14
        assert np.all(sinh_sq == 0.0)

    def test_identity_holds_pointwise(self):
        model = default_model(2, resolution=32, twist="separable_gauss")
        graph = random_trig_graph(model, seed=9, amplitude=0.1)
        cosh, sinh_sq = hyperbolic_angle(graph)
        assert np.max(np.abs(cosh**2 - sinh_sq - 1.0)) <= 1e-12
        assert np.all(cosh >= 1.0)


class TestInducedMetric:
    def test_slice_metric_is_scaled_fiber_metric(self):
        model = default_model(2, resolution=32, twist="separable_gauss")
        graph = GraphField.constant(model, 0.25)
        result = induced_metric(graph)
        f = model.twist.value(0.25, model.fiber)
        expected = (f**2)[..., None, None] * model.fiber.metric_matrix()
        assert np.max(np.abs(result.matrix - expected)) <= 1e-14
        expected_det = f**4 * model.fiber.det_metric
        assert np.max(np.abs(result.det_direct - expected_det) / expected_det) <= 1e-12

    def test_1d_flat_determinant(self):
        model = flat_grw_model()
        graph = near_critical_sine(model, delta=0.5)
        kit = _kit(graph)
        result = induced_metric(graph)
        expected = 1.0 - kit.du[..., 0] ** 2
        assert np.max(np.abs(result.det_direct - expected)) <= 1e-14

    def test_kit_metric_is_bitwise_the_assembled_form(self):
        model = default_model(3, resolution=12, twist="separable_gauss", curved=True)
        for graph in (
            random_trig_graph(model, seed=5, amplitude=0.08),
            GraphField.constant(model, 0.3),
        ):
            kit = _kit(graph)
            expected = (kit.f * kit.f)[..., None, None] * model.fiber.metric_matrix()
            expected -= kit.du[..., :, None] * kit.du[..., None, :]
            got = kit.metric()
            assert np.array_equal(got, expected)
            # signed zeros included: the slice's off-diagonal entries are +0.0
            assert got.tobytes() == expected.tobytes()

    def test_coordinate_laplacian_path_unchanged(self):
        model = default_model(3, resolution=12, twist="separable_gauss", curved=True)
        graph = random_trig_graph(model, seed=6, amplitude=0.08)
        kit = _kit(graph)
        expected = coordinate_laplacian(model.fiber, kit.metric(), graph.u)
        assert np.array_equal(laplacian_tau_coordinate(graph), expected)
        H = (expected + (kit.n + kit.sinh_sq) * kit.dlogf) / (kit.n * kit.cosh)
        assert np.array_equal(mean_curvature_from_laplacian(graph), H)

    def test_two_path_determinant_agreement(self):
        for dim, m in [(1, 128), (2, 32), (3, 12)]:
            model = default_model(dim, resolution=m, twist="separable_gauss")
            graph = random_trig_graph(model, seed=10 + dim, amplitude=0.08)
            result = induced_metric(graph)
            rel = np.abs(result.det_direct - result.det_factored) / result.det_direct
            assert np.max(rel) <= 1e-10


class TestSmallMetricAlgebra:
    """The closed-form per-node determinant and adjugate solve against LAPACK."""

    @staticmethod
    def node_rel(x, y):
        """Per-node relative difference of vectors (or scalars) x and y."""
        if x.ndim == y.ndim == 1:
            return np.abs(x - y) / np.abs(y)
        return np.linalg.norm(x - y, axis=-1) / np.linalg.norm(y, axis=-1)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_random_spd_metrics_match_lapack(self, dim):
        rng = np.random.default_rng(100 + dim)
        A = rng.normal(size=(500, dim, dim))
        g = A @ np.swapaxes(A, -1, -2) + 0.5 * np.eye(dim)
        v = rng.normal(size=(500, dim))
        det = _small_det(g)
        assert np.max(self.node_rel(det, np.linalg.det(g))) <= 1e-13
        x = _small_solve(g, v, det)
        assert x.shape == v.shape
        assert np.max(self.node_rel(x, np.linalg.solve(g, v[..., None])[..., 0])) <= 1e-13

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_general_matrices_match_lapack(self, dim):
        # no symmetry assumed: a transposed cofactor shows on these
        rng = np.random.default_rng(200 + dim)
        g = rng.normal(size=(500, dim, dim)) + 3.0 * np.eye(dim)
        v = rng.normal(size=(500, dim))
        det = _small_det(g)
        assert np.max(self.node_rel(det, np.linalg.det(g))) <= 1e-13
        x = _small_solve(g, v, det)
        assert np.max(self.node_rel(x, np.linalg.solve(g, v[..., None])[..., 0])) <= 1e-13

    @pytest.mark.parametrize("dim, m", [(1, 64), (2, 16), (3, 8)])
    @pytest.mark.parametrize("target", [0.5, 0.9, 0.99])
    def test_induced_metrics_up_to_margin_099(self, dim, m, target):
        # f = 1 over a curved fiber: the margin is |grad_F u|, linear in the
        # amplitude, so the graph is scaled onto the target margin.  The
        # metric's smallest eigenvalue is about f^2 (1 - mu^2) times the fiber
        # metric's, so the tolerance scales with 1 / (1 - mu^2).
        grid = unit_torus(dim, m, curved=True)
        twist = TwistedFunction("pure_time", g=TimeProfile("constant", {"c": 1.0}))
        model = SpacetimeModel((-1.0, 1.0), grid, twist)
        u = random_trig_field(grid, seed=30 + dim)
        u *= target / float(spacelike_margin(GraphField(model, u)).max())
        graph = GraphField(model, u)
        mu = float(spacelike_margin(graph).max())
        assert abs(mu - target) <= 1e-12
        tol = 1e-13 / (1.0 - mu * mu)
        kit = _kit(graph)
        g = kit.metric()
        det = _small_det(g)
        assert np.max(self.node_rel(det, np.linalg.det(g))) <= tol
        x = _small_solve(g, kit.du, det)
        assert np.max(self.node_rel(x, np.linalg.solve(g, kit.du[..., None])[..., 0])) <= tol
        assert np.max(np.abs(induced_metric(graph).det_direct - det)) == 0.0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_coordinate_laplacian_rejects_non_positive_determinant(self, dim):
        grid = unit_torus(dim, 8)
        phi = np.sin(2.0 * np.pi * grid.coords[0])
        flipped = grid.metric_matrix()
        flipped[..., 0, 0] *= -1.0          # det < 0
        singular = grid.metric_matrix()
        singular[..., 0, 0] = 0.0           # det = 0
        for metric in (flipped, singular):
            with pytest.raises(ValueError):
                coordinate_laplacian(grid, metric, phi)

    def test_coordinate_laplacian_matches_a_lapack_reference(self):
        model = default_model(3, resolution=12, twist="separable_gauss", curved=True)
        graph = random_trig_graph(model, seed=7, amplitude=0.08)
        grid = model.fiber
        g = _kit(graph).metric()
        sq = np.sqrt(np.linalg.det(g))
        X = np.linalg.solve(g, grid.partials(graph.u)[..., None])[..., 0]
        reference = sum(grid.diff(sq * X[..., i], axis=i) for i in range(3)) / sq
        got = coordinate_laplacian(grid, g, graph.u)
        assert np.max(np.abs(got - reference)) <= 1e-12 * np.max(np.abs(reference))


class TestGradTau:
    def test_slice_gives_zero(self):
        model = default_model(1, twist="separable_gauss")
        assert np.all(grad_tau(GraphField.constant(model, 0.1)) == 0.0)

    def test_1d_flat_closed_form(self):
        model = flat_grw_model()
        graph = near_critical_sine(model, delta=0.4)
        kit = _kit(graph)
        up = kit.du[..., 0]
        expected = up / (1.0 - up**2)
        assert np.max(np.abs(grad_tau(graph)[..., 0] - expected)) <= 1e-12

    def test_contraction_recovers_boost(self):
        model = default_model(2, resolution=32, twist="separable_gauss")
        graph = random_trig_graph(model, seed=12, amplitude=0.1)
        kit = _kit(graph)
        gt = grad_tau(graph)
        contraction = np.einsum("...i,...ij,...j->...", gt, kit.metric(), gt)
        assert np.max(np.abs(contraction - kit.sinh_sq)) <= 1e-10


class TestLaplacianTau:
    def test_slice_gives_exact_zero_on_both_paths(self):
        model = default_model(2, resolution=32, twist="separable_gauss")
        graph = GraphField.constant(model, 0.3)
        assert np.all(laplacian_tau_fiber(graph) == 0.0)
        assert np.all(laplacian_tau_coordinate(graph) == 0.0)

    def test_two_paths_agree_at_second_order(self):
        defects = []
        for m in (32, 64, 128):
            model = default_model(1, resolution=m, twist="separable_gauss")
            graph = random_trig_graph(model, seed=3, amplitude=0.08)
            defects.append(
                np.max(np.abs(laplacian_tau_fiber(graph) - laplacian_tau_coordinate(graph)))
            )
        assert np.log2(defects[-2] / defects[-1]) >= 1.9

    def test_small_amplitude_expansion_on_flat_model(self):
        # u = eps sin(2 pi x) in the flat model: against the discrete
        # linear eigenvalue the residual is the cubic nonlinearity only
        model = flat_grw_model()
        grid = model.fiber
        h = grid.spacing[0]
        k = 2.0 * np.pi
        lam_h = -((np.sin(k * h) / h) ** 2)
        for eps in (1e-2, 1e-3):
            u = eps * np.sin(k * grid.coords[0])
            graph = GraphField(model, u)
            linear = lam_h * u
            defect = np.max(np.abs(laplacian_tau_coordinate(graph) - linear))
            assert defect <= 10.0 * eps**3 * k**4


class TestMeanCurvature:
    def test_flat_model_reduces_to_classical_operator(self):
        model = flat_grw_model()
        graph = near_critical_sine(model, delta=0.5)
        grid = model.fiber
        du = grid.partials(graph.u)
        rho = 1.0 / np.sqrt(1.0 - np.sum(du * du, axis=-1))
        classical = grid.divergence(rho[..., None] * du)
        assert np.max(np.abs(mean_curvature(graph) - classical)) <= 1e-13

    def test_grw_formula_drops_fiber_pairing(self):
        model = default_model(1, twist="grw_gauss")
        graph = random_trig_graph(model, seed=4, amplitude=0.08)
        kit = _kit(graph)
        grid = model.fiber
        div = grid.divergence(kit.rho[..., None] * kit.grad_u)
        middle = kit.f**2 * kit.rho * (1 + kit.grad_u_sq / kit.f**2) * kit.dlogf
        assert np.max(np.abs(mean_curvature(graph) - (div + middle))) <= 1e-13

    def test_two_paths_agree_at_second_order(self):
        defects = []
        for m in (32, 64, 128):
            model = default_model(1, resolution=m, twist="separable_gauss")
            graph = random_trig_graph(model, seed=5, amplitude=0.08)
            defects.append(
                np.max(np.abs(mean_curvature(graph) - mean_curvature_from_laplacian(graph)))
            )
        assert np.log2(defects[-2] / defects[-1]) >= 1.9

    def test_slice_law_is_exact(self):
        model = default_model(1, twist="traveling")
        graph = GraphField.constant(model, 0.2)
        expected = model.twist.dlog_dt(0.2, model.fiber)
        rel = np.abs(mean_curvature(graph) - expected) / np.maximum(np.abs(expected), 1e-300)
        assert np.max(rel) <= 1e-12


def reference_mean_curvature(graph):
    """Fiber-form H with the np.roll / np.stack / np.sum kernels throughout."""
    grid, twist, u = graph.grid, graph.model.twist, graph.u
    n = grid.dim
    f = twist.value(u, grid)
    dlogf = twist.dt(u, grid) / f
    grad_u = stack_partials(grid, u) / grid.metric_diag
    grad_u_sq = sum_inner(grid, grad_u, grad_u)
    rho = 1.0 / (f * np.sqrt(f * f - grad_u_sq))
    div = zeros_divergence(grid, rho[..., None] * grad_u)
    middle = f ** 2 * rho * (n + grad_u_sq / f ** 2) * dlogf
    pairing = n * rho * np.sum(
        (twist.fiber_partials(u, grid) / f[..., None]) * grad_u, axis=-1
    )
    return (div + middle + pairing) / n


class TestBitwiseMeanCurvature:
    @pytest.mark.parametrize("dim, m", [(1, 16), (2, 12), (3, 8)])
    @pytest.mark.parametrize("curved", [False, True])
    def test_matches_the_reference_kernels(self, dim, m, curved):
        model = default_model(dim, resolution=m, curved=curved, twist="separable_gauss")
        graph = random_trig_graph(model, seed=dim, amplitude=0.05)
        expected = reference_mean_curvature(graph)
        kit = _kit(graph)
        assert_bitwise(_mean_curvature(kit), expected)
        assert_bitwise(kit.H, expected)
        assert_bitwise(mean_curvature(graph), expected)


STANDARD_TWISTS = ("grw_exp", "grw_gauss", "separable_gauss", "separable_exp", "additive")


def deferred_kit(dim, twist, curved, form):
    """A kit on a small spacelike graph, in the graph form or the pointwise
    form (a given covector du, as the solver's linearization builds)."""
    model = default_model(dim, resolution=8, twist=twist, curved=curved)
    u = random_trig_graph(model, seed=dim, amplitude=0.05).u
    du = None if form == "graph" else 0.5 * model.fiber.partials(u)
    return model, _Kit(model, u, du, require_spacelike=False)


class TestDeferredTwistFields:
    """A kit computes d/dt f, d/dt log f and the fiber partials of f on first
    read, bitwise what ``value``, ``dt`` and ``fiber_partials`` give, and
    only for the kits that read them."""

    @pytest.mark.parametrize("form", ["graph", "pointwise"])
    @pytest.mark.parametrize("curved", [False, True])
    @pytest.mark.parametrize(
        "twist, dim",
        [(t, d) for t in STANDARD_TWISTS for d in (1, 2, 3)] + [("traveling", 1)],
    )
    def test_bitwise_the_evaluators(self, twist, dim, curved, form):
        model, kit = deferred_kit(dim, twist, curved, form)
        fn, grid = model.twist, model.fiber
        f, dtf, partials = fn.value(kit.u, grid), fn.dt(kit.u, grid), fn.fiber_partials(kit.u, grid)
        assert not {"dtf", "dlogf", "fiber_df"} & set(vars(kit))
        assert_bitwise(kit.f, f)
        assert_bitwise(kit.fiber_df, partials)
        # the time profiles f shared with the partials are dropped once both exist
        assert "_g_and_q" not in vars(kit._twist)
        assert_bitwise(kit.dlogf, dtf / f)
        assert_bitwise(kit.dtf, dtf)
        assert kit.fiber_df is kit.fiber_df and kit.dtf is kit.dtf

    @pytest.mark.parametrize("read", ["mu", "metric", "laplacian_tau_fiber"])
    @pytest.mark.parametrize(
        "twist, dim", [("separable_gauss", 2), ("additive", 3), ("traveling", 1)]
    )
    def test_unread_fields_cost_nothing(self, monkeypatch, twist, dim, read):
        derivs = count_calls(monkeypatch, TimeProfile, "deriv")
        rates = count_reads(monkeypatch, TwistAlong, "dt")
        partials = count_reads(monkeypatch, TwistAlong, "partials")
        model, kit = deferred_kit(dim, twist, False, "graph")
        {"mu": lambda: kit.mu, "metric": kit.metric,
         "laplacian_tau_fiber": lambda: _laplacian_tau_fiber(kit)}[read]()
        assert (len(derivs), len(rates), len(partials)) == (0, 0, 0)
        assert not {"dtf", "dlogf", "fiber_df"} & set(vars(kit))

    def test_one_evaluator_per_kit(self, monkeypatch):
        # f, d/dt f and the partials all come from the evaluator along u
        model, kit = deferred_kit(2, "additive", False, "graph")
        alongs = count_calls(monkeypatch, TwistedFunction, "along")
        _Kit(model, kit.u).H
        assert len(alongs) == 1


class TestUnitNormal:
    def test_slice_normal_is_comoving(self):
        model = default_model(1, twist="separable_gauss")
        N0, NF = unit_normal(GraphField.constant(model, 0.1))
        assert np.max(np.abs(N0 - 1.0)) <= 1e-14
        assert np.all(NF == 0.0)

    def test_unit_norm_and_boost_pairings(self):
        model = default_model(2, resolution=32, twist="separable_gauss")
        graph = random_trig_graph(model, seed=6, amplitude=0.1)
        kit = _kit(graph)
        N0, NF = unit_normal(graph)
        norm = -N0**2 + kit.f**2 * model.fiber.inner(NF, NF)
        assert np.max(np.abs(norm + 1.0)) <= 1e-12
        # pairing with the comoving field and with f d/dt
        assert np.max(np.abs(-N0 - (-kit.cosh))) == 0.0
        assert np.max(np.abs(-kit.f * N0 - (-kit.f * kit.cosh))) == 0.0

    def test_half_slope_node_boost(self):
        model = flat_grw_model()
        grid = model.fiber
        h = grid.spacing[0]
        amplitude = (1.0 / np.sqrt(2.0)) * h / np.sin(2.0 * np.pi * h)
        graph = GraphField(model, amplitude * np.sin(2.0 * np.pi * grid.coords[0]))
        N0, _ = unit_normal(graph)
        assert abs(N0[0] - np.sqrt(2.0)) <= 1e-12


class TestWarpedObstruction:
    def test_vanishes_on_grw(self):
        for twist in ("grw_exp", "grw_gauss"):
            model = default_model(1, twist=twist, interval=(-1.0, 1.0))
            graph = random_trig_graph(model, seed=7, amplitude=0.1)
            assert warped_obstruction(graph).max_norm <= 1e-10

    def test_traveling_slice_matches_closed_form(self):
        model = default_model(1, twist="traveling")
        graph = GraphField.constant(model, 0.0)
        result = warped_obstruction(graph)
        grid = model.fiber
        f = model.twist.value(0.0, grid)
        dfx = model.twist.fiber_partials(0.0, grid)[..., 0]
        closed = np.abs(dfx) / f
        assert np.max(np.abs(result.norm - closed)) <= 1e-12 * np.max(closed)
        assert result.max_norm > 0.01

    def test_separable_slice_scales_with_eps(self):
        model = default_model(1, twist="separable_gauss")
        graph = GraphField.constant(model, 0.3)
        result = warped_obstruction(graph)
        grid = model.fiber
        eps = model.twist.eps
        s = model.twist.s.value(*grid.coords)
        ds = model.twist.s.partial(0, *grid.coords)
        closed = np.abs(eps * ds / (1.0 + eps * s))
        assert np.max(np.abs(result.norm - closed)) <= 1e-12


class TestArea:
    def test_exponential_slice_area_growth(self):
        model = default_model(1, twist="grw_exp", interval=(-1.0, 1.0))
        a0 = area(GraphField.constant(model, 0.0))
        a1 = area(GraphField.constant(model, 0.3))
        assert abs(a1 / a0 - np.exp(0.3)) <= 1e-12
        # first variation of slices: dA/dt0 = n * A for f = exp(t)
        delta = 1e-6
        fd = (area(GraphField.constant(model, delta)) - area(GraphField.constant(model, -delta))) / (2 * delta)
        assert abs(fd - a0) <= 1e-6 * a0

    def test_variational_pairing_at_random_nodes(self):
        for dim, m in [(1, 128), (2, 32)]:
            model = default_model(dim, resolution=m, twist="separable_gauss")
            graph = random_trig_graph(model, seed=13 + dim, amplitude=0.1)
            check = area_gradient_check(graph, count=20, seed=1)
            assert np.max(check.rel_error) <= 1e-5


def full_grid_area(model, values):
    """The area sum of heights ``values`` by the whole-grid formula, the
    reference for the windowed differences of ``area_gradient_check``."""
    grid = model.fiber
    f = model.twist.value(values, grid)
    du = grid.partials(values)
    grad_sq = component_sum(du * du / grid.metric_diag)
    support = f * f - grad_sq
    if np.any(support <= 0.0):
        raise SpacelikeError("area evaluation left the spacelike regime")
    dens = f ** (grid.dim - 1) * np.sqrt(support) * grid.sqrt_det
    return float(np.sum(dens) * grid.cell_volume)


def full_grid_differences(graph, nodes, step=1e-5):
    """Centred differences of the area from two whole-grid areas per node."""
    fd = np.empty(len(nodes))
    for j, idx in enumerate(nodes):
        up = graph.u.copy()
        up[idx] += step
        um = graph.u.copy()
        um[idx] -= step
        fd[j] = (full_grid_area(graph.model, up) - full_grid_area(graph.model, um)) / (2.0 * step)
    return fd


AREA_CASES = [
    (dim, twist, curved)
    for dim in (1, 2, 3)
    for twist in ("grw_exp", "grw_gauss", "separable_gauss", "separable_exp", "additive",
                  "traveling")
    if twist != "traveling" or dim == 1
    for curved in (False, True)
]


class TestAreaWindows:
    @pytest.mark.parametrize("dim, twist, curved", AREA_CASES)
    def test_windowed_differences_are_the_full_grid_ones_bitwise(self, dim, twist, curved):
        model = default_model(dim, resolution=8, twist=twist, curved=curved)
        graph = random_trig_graph(model, seed=dim, amplitude=0.05)
        # 20 nodes, then every node, so that all windows overlap
        for count in (20, model.fiber.n_nodes):
            check = area_gradient_check(graph, count=count, seed=5)
            assert len(check.nodes) == min(count, model.fiber.n_nodes)
            assert_bitwise(check.fd_gradient, full_grid_differences(graph, check.nodes))

    def test_a_moved_node_that_leaves_the_spacelike_regime_raises(self):
        model = default_model(1, resolution=16, twist="separable_gauss")
        graph = random_trig_graph(model, seed=2, amplitude=0.1)
        nodes = area_gradient_check(graph, count=1, seed=0).nodes
        # a centred difference next to the moved node shifts by step / (2 h)
        step = 0.5
        with pytest.raises(SpacelikeError, match="^area evaluation left the spacelike regime$"):
            full_grid_differences(graph, nodes, step)
        with pytest.raises(SpacelikeError, match="^area evaluation left the spacelike regime$"):
            area_gradient_check(graph, count=1, seed=0, step=step)


class TestSliceConditions:
    def test_slice_in_expanding_model_satisfies_first_case(self):
        model = default_model(1, twist="separable_exp", interval=(-1.0, 1.0))
        report = slice_condition_report(GraphField.constant(model, 0.2))
        assert report.expanding_case
        assert report.slice_expected
        assert report.constancy_defect == 0.0

    def test_slice_in_contracting_model_satisfies_second_case(self):
        from twistbench import SpacetimeModel, TimeProfile, TwistedFunction

        model = default_model(1, twist="grw_exp", interval=(-1.0, 1.0))
        contracting = SpacetimeModel(
            (-1.0, 1.0),
            model.fiber,
            TwistedFunction("pure_time", g=TimeProfile("exp", {"rate": -1.0})),
        )
        report = slice_condition_report(GraphField.constant(contracting, 0.2))
        assert report.contracting_case

    def test_nonconstant_graphs_fail_the_bound_in_expanding_models(self):
        # contrapositive of the rigidity statement: a visibly non-constant
        # spacelike graph cannot satisfy either hypothesis set globally
        model = default_model(1, twist="separable_exp", interval=(-1.0, 1.0))
        for seed in range(8):
            graph = random_trig_graph(model, seed=seed, amplitude=0.1)
            if float(graph.u.max() - graph.u.min()) <= 1e-6:
                continue
            report = slice_condition_report(graph)
            assert not report.slice_expected


class TestGeometryReport:
    def test_report_fields_and_flags(self):
        model = default_model(2, resolution=16, twist="separable_gauss")
        graph = random_trig_graph(model, seed=20, amplitude=0.05)
        report = geometry_report(graph)
        assert report.margin.shape == model.fiber.shape
        assert report.metric.shape == model.fiber.shape + (2, 2)
        assert not report.ill_conditioned.any()
        summary = report.summary()
        assert summary["nodes"] == model.fiber.n_nodes
        assert summary["det_two_path_rel_defect"] <= 1e-10

    @pytest.mark.parametrize("dim, m", [(1, 64), (2, 16), (3, 8)])
    def test_one_kit_report_is_bytewise_the_per_function_one(self, dim, m):
        model = default_model(dim, resolution=m, twist="additive", curved=True)
        graph = random_trig_graph(model, seed=21, amplitude=0.05)
        report = geometry_report(graph)
        # the same report from fresh kits, one per function, as the public
        # functions compute it
        kit = _kit(graph)
        obstruction = warped_obstruction(graph)
        expected = {
            "metric": kit.metric(),
            "det_direct": induced_metric(graph).det_direct,
            "laplacian_tau": laplacian_tau_fiber(graph),
            "obstruction": obstruction.components,
            "obstruction_norm": obstruction.norm,
            "mean_curvature": mean_curvature(graph),
        }
        for name, value in expected.items():
            assert_bitwise(getattr(report, name), value)

    def test_kit_forms_match_the_public_functions(self):
        model = default_model(3, resolution=8, twist="separable_gauss")
        graph = random_trig_graph(model, seed=22, amplitude=0.05)
        kit = _kit(graph)
        assert_bitwise(_laplacian_tau_fiber(kit), laplacian_tau_fiber(graph))
        got = _warped_obstruction(kit, kit.metric())
        want = warped_obstruction(graph)
        assert_bitwise(got.components, want.components)
        assert got.max_norm == want.max_norm

    def test_near_lightlike_nodes_are_flagged(self):
        model = flat_grw_model()
        graph = near_critical_sine(model, delta=0.02)
        report = geometry_report(graph)
        assert report.ill_conditioned.any()


# ---------------------------------------------------------------------------
# storage layout: vector and matrix fields are stored component by component


def node_major_metric(self):
    """The induced metric as a broadcast outer product, stored node by node."""
    g = self.du[..., :, None] * self.du[..., None, :]
    np.subtract(0.0, g, out=g)
    f_sq = self.f * self.f
    for i in range(self.n):
        g[..., i, i] += f_sq * self.grid.metric_diag[..., i]
    return g


def node_major_partials(self, phi):
    out = np.empty(np.shape(phi) + (self.dim,))
    for i in range(self.dim):
        out[..., i] = self.diff(phi, i)
    return out


def node_major_array(shape, *counts, zeros=False):
    return (np.zeros if zeros else np.empty)(tuple(shape) + counts)


def use_node_major_layout(patch):
    """Put back the node-major reference: C-order vector and matrix fields,
    the broadcast outer-product metric and np.sum over the trailing axis."""
    from twistbench import conformal, fiber_grid, graphs, solver, spacetime
    from twistbench.fiber_grid import FiberGrid
    from twistbench.graphs import _Kit

    for module in (fiber_grid, graphs, spacetime, conformal):
        patch.setattr(module, "component_array", node_major_array)
    for module in (fiber_grid, graphs, spacetime, conformal, solver):
        patch.setattr(module, "component_sum", lambda X: np.sum(X, axis=-1))
    patch.setattr(_Kit, "metric", node_major_metric)
    patch.setattr(FiberGrid, "partials", node_major_partials)


def layout_model(dim, m, curved, twist):
    """A model from ``default_model``, or with ``twist="oblique"`` a separable
    twist whose fiber profile varies along every axis."""
    if twist != "oblique":
        return default_model(dim, resolution=m, curved=curved, twist=twist)
    model = default_model(dim, resolution=m, curved=curved)
    s = TrigPolynomial.from_specs(
        [{"coeff": 0.6, "wavevec": (1,) * dim, "phase": 0.4},
         {"coeff": -0.3, "wavevec": (0,) * (dim - 1) + (1,), "phase": 1.1}],
        model.fiber.periods,
    )
    twist = TwistedFunction("separable", g=TimeProfile("gauss"), eps=0.15, s=s)
    return SpacetimeModel(model.interval, model.fiber, twist)


def layout_fields(dim, m, curved, twist):
    """Every per-node array the storage layout could reach, by name."""
    from twistbench.conformal import (
        ConformalFactor,
        conformal_laplacian_check,
        maximal_power_check,
        static_laplacian_check,
    )
    from twistbench.solver import residual_field

    model = layout_model(dim, m, curved, twist)
    grid = model.fiber
    out = {"metric_diag": grid.metric_diag, "det_metric": grid.det_metric}
    graphs = {"random": random_trig_graph(model, seed=dim, amplitude=0.05),
              "slice": GraphField.constant(model, 0.0)}
    h = np.sin(2.0 * np.pi * grid.coords[0]) + 0.3 * np.cos(2.0 * np.pi * grid.coords[-1])
    wave = TrigPolynomial.from_specs([{"coeff": 0.2, "wavevec": (1,) * dim}], grid.periods)
    factors = {"const": ConformalFactor.constant(0.3),
               "static": ConformalFactor.static_picture(model.twist),
               "fiber": ConformalFactor.fiber_only(wave)}
    for key, graph in graphs.items():
        kit = _kit(graph)
        g = kit.metric()
        det = _small_det(g)
        obstruction = warped_obstruction(graph)
        static = static_laplacian_check(graph)
        out.update({
            f"{key}/metric": g,
            f"{key}/small_det": det,
            f"{key}/small_solve": _small_solve(g, kit.composed_df(), det),
            f"{key}/coordinate_laplacian": coordinate_laplacian(grid, g, h),
            f"{key}/laplacian_tau_coordinate": laplacian_tau_coordinate(graph),
            f"{key}/laplacian_tau_fiber": laplacian_tau_fiber(graph),
            f"{key}/mean_curvature": mean_curvature(graph),
            f"{key}/mean_curvature_from_laplacian": mean_curvature_from_laplacian(graph),
            f"{key}/obstruction": obstruction.components,
            f"{key}/obstruction_norm": obstruction.norm,
            f"{key}/area": np.array(area(graph)),
            f"{key}/area_gradient": area_gradient_check(graph, count=4).fd_gradient,
            f"{key}/residual_generalized": residual_field(graph, "generalized"),
            f"{key}/static.main": static.main.defect,
            f"{key}/static.laplacian_relation": static.laplacian_relation.defect,
            f"{key}/static.gradient_pairing": static.gradient_pairing.defect,
        })
        for name, phi in factors.items():
            out[f"{key}/conformal.{name}"] = conformal_laplacian_check(h, phi, graph).defect
    if dim == 3 and twist == "separable_gauss":
        # the t = 0 slice of exp(-t^2)(1 + eps s) is maximal
        out["slice/maximal_power"] = maximal_power_check(graphs["slice"]).defect
    return out


LAYOUT_CASES = [
    (dim, m, curved, twist)
    for dim, m in ((1, 16), (2, 12), (3, 8))
    for curved in (False, True)
    for twist in ("separable_gauss", "additive", "oblique")
]


class TestComponentMajorLayout:
    @pytest.mark.parametrize("dim, m, curved, twist", LAYOUT_CASES)
    def test_per_node_arrays_are_bitwise_the_node_major_ones(
        self, monkeypatch, dim, m, curved, twist
    ):
        got = layout_fields(dim, m, curved, twist)
        with monkeypatch.context() as patch:
            use_node_major_layout(patch)
            expected = layout_fields(dim, m, curved, twist)
        assert got.keys() == expected.keys()
        for name, value in expected.items():
            assert_bitwise(got[name], value)

    def test_the_reference_is_node_major(self, monkeypatch):
        with monkeypatch.context() as patch:
            use_node_major_layout(patch)
            model = default_model(3, resolution=8, twist="separable_gauss")
            kit = _kit(random_trig_graph(model, seed=3, amplitude=0.05))
            assert not is_component_major(kit.du)
            assert not is_component_major(kit.metric(), 2)
            assert kit.metric().flags.c_contiguous

    @pytest.mark.parametrize("dim, m", [(2, 12), (3, 8)])
    def test_kit_fields_are_stored_component_by_component(self, dim, m):
        model = layout_model(dim, m, True, "oblique")
        kit = _kit(random_trig_graph(model, seed=dim, amplitude=0.05))
        g = kit.metric()
        assert g.shape == model.fiber.shape + (dim, dim)
        assert is_component_major(g, 2)
        assert not g.flags.c_contiguous  # InducedMetric.matrix is a view
        for field in (kit.du, kit.fiber_df, kit.grad_u, kit.flux(),
                      _small_solve(g, kit.du, _small_det(g))):
            assert field.shape == model.fiber.shape + (dim,)
            assert is_component_major(field)
