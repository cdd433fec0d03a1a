import numpy as np
import pytest

from twistbench import ConformalFactor, FiberGrid, TimeProfile, TrigPolynomial, TwistedFunction
from twistbench.fiber_grid import component_array, component_sum

from conftest import (
    assert_bitwise,
    is_component_major,
    random_trig_field,
    roll_diff,
    stack_partials,
    sum_inner,
    unit_torus,
    zeros_divergence,
)


def observed_order(defects):
    return np.log2(defects[-2] / defects[-1])


class TestGradient:
    def test_constant_field_gives_exact_zero(self, grid1d):
        grad = grid1d.gradient(np.full(grid1d.shape, 3.7))
        assert np.all(grad == 0.0)

    def test_sine_matches_analytic_derivative(self):
        defects = []
        for m in (32, 64, 128):
            grid = unit_torus(1, m)
            x = grid.coords[0]
            phi = np.sin(2.0 * np.pi * x)
            exact = 2.0 * np.pi * np.cos(2.0 * np.pi * x)
            defects.append(np.max(np.abs(grid.gradient(phi)[..., 0] - exact)))
        assert observed_order(defects) >= 1.9
        assert defects[-1] <= 5e-3

    def test_2d_product_field_within_refinement_constant(self):
        # constant C estimated from the coarsest level, then checked on finer
        defects = []
        spacings = []
        for m in (32, 64, 128):
            grid = unit_torus(2, m)
            x, y = grid.coords
            phi = np.sin(2.0 * np.pi * x) * np.sin(2.0 * np.pi * y)
            exact_x = 2.0 * np.pi * np.cos(2.0 * np.pi * x) * np.sin(2.0 * np.pi * y)
            exact_y = 2.0 * np.pi * np.sin(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y)
            grad = grid.gradient(phi)
            defect = max(
                np.max(np.abs(grad[..., 0] - exact_x)),
                np.max(np.abs(grad[..., 1] - exact_y)),
            )
            defects.append(defect)
            spacings.append(grid.spacing[0])
        C = defects[0] / spacings[0] ** 2
        for defect, h in zip(defects[1:], spacings[1:]):
            assert defect <= 1.1 * C * h * h


class TestDivergence:
    def test_constant_vector_field_on_flat_torus(self, grid2d):
        V = np.ones(grid2d.shape + (2,))
        assert np.max(np.abs(grid2d.divergence(V))) <= 1e-13

    def test_gradient_of_sine_recovers_eigenvalue(self):
        defects = []
        for m in (32, 64, 128):
            grid = unit_torus(1, m)
            phi = np.sin(2.0 * np.pi * grid.coords[0])
            lap = grid.divergence(grid.gradient(phi))
            defects.append(np.max(np.abs(lap + (2.0 * np.pi) ** 2 * phi)))
        assert observed_order(defects) >= 1.9

    def test_product_rule_defect_is_second_order(self):
        defects = []
        for m in (32, 64, 128):
            grid = unit_torus(2, m)
            r = 1.5 + random_trig_field(grid, seed=5)
            u = random_trig_field(grid, seed=6)
            lhs = grid.divergence(r[..., None] * grid.gradient(u))
            rhs = grid.inner(grid.gradient(r), grid.gradient(u)) + r * grid.laplacian(u)
            defects.append(np.max(np.abs(lhs - rhs)))
        assert observed_order(defects) >= 1.9


class TestLaplacian:
    def test_constant_field(self, grid2d):
        assert np.max(np.abs(grid2d.laplacian(np.full(grid2d.shape, -2.0)))) <= 1e-13

    def test_eigenfunction(self):
        # composed central differences: eigenvalue error k^2 (kh)^2 / 3
        grid = unit_torus(1, 128)
        k = 2.0 * np.pi
        phi = np.sin(k * grid.coords[0])
        lap = grid.laplacian(phi)
        bound = 1.2 * k**2 * (k * grid.spacing[0]) ** 2 / 3.0
        assert np.max(np.abs(lap + k * k * phi)) <= bound

    def test_curved_metric_matches_closed_form(self):
        # diagonal metric G = 1 + 0.2 cos(2 pi x):
        # lap phi = phi'' / G - G' phi' / (2 G^2)
        defects = []
        for m in (32, 64, 128):
            grid = unit_torus(1, m, curved=True)
            x = grid.coords[0]
            k = 2.0 * np.pi
            phi = np.sin(k * x)
            G = 1.0 + 0.2 * np.cos(k * x)
            Gp = -0.2 * k * np.sin(k * x)
            exact = -k * k * phi / G - Gp * k * np.cos(k * x) / (2.0 * G * G)
            defects.append(np.max(np.abs(grid.laplacian(phi) - exact)))
        assert observed_order(defects) >= 1.9


class TestInnerProduct:
    def test_zero_field(self, grid2d):
        V = np.zeros(grid2d.shape + (2,))
        assert np.all(grid2d.norm_sq(V) == 0.0)

    def test_unit_axis_field_on_flat_torus(self, grid2d):
        V = np.zeros(grid2d.shape + (2,))
        V[..., 0] = 1.0
        assert np.max(np.abs(grid2d.norm_sq(V) - 1.0)) == 0.0

    def test_norm_sq_matches_per_node_bruteforce(self):
        grid = unit_torus(2, 16, curved=True)
        rng = np.random.default_rng(3)
        V = rng.normal(size=grid.shape + (2,))
        fast = grid.norm_sq(V)
        slow = np.empty(grid.shape)
        for i in range(grid.shape[0]):
            for j in range(grid.shape[1]):
                acc = 0.0
                for a in range(2):
                    acc += grid.metric_diag[i, j, a] * V[i, j, a] ** 2
                slow[i, j] = acc
        assert np.max(np.abs(fast - slow)) <= 1e-14


class TestGlobalIdentities:
    @pytest.mark.parametrize("curved", [False, True])
    def test_laplacian_self_adjointness(self, curved):
        grid = unit_torus(2, 32, curved=curved)
        phi = random_trig_field(grid, seed=11)
        psi = random_trig_field(grid, seed=12)
        w = grid.weights
        lhs = float(np.sum(phi * grid.laplacian(psi) * w))
        rhs = float(np.sum(psi * grid.laplacian(phi) * w))
        norm_phi = np.sqrt(np.sum(phi * phi * w))
        norm_psi = np.sqrt(np.sum(psi * psi * w))
        assert abs(lhs - rhs) <= 1e-10 * norm_phi * norm_psi

    @pytest.mark.parametrize("curved", [False, True])
    def test_closed_fiber_integral_of_laplacian_vanishes(self, curved):
        grid = unit_torus(2, 32, curved=curved)
        phi = random_trig_field(grid, seed=13)
        assert abs(grid.integrate(grid.laplacian(phi))) <= 1e-10

    def test_shift_equivariance_is_bitwise(self):
        grid = unit_torus(2, 16)
        phi = random_trig_field(grid, seed=14)
        for shift in (1, 5, grid.shape[0]):
            rolled_then_lap = grid.laplacian(np.roll(phi, shift, axis=0))
            lap_then_rolled = np.roll(grid.laplacian(phi), shift, axis=0)
            assert np.array_equal(rolled_then_lap, lap_then_rolled)


GRIDS = [(dim, m, curved) for dim, m in ((1, 16), (2, 12), (3, 8)) for curved in (False, True)]


def signed_zero_field(grid):
    """A field of +0.0 and -0.0 only: its differences carry -0.0 at nodes
    whose forward neighbour is -0.0 and backward neighbour +0.0."""
    rng = np.random.default_rng(grid.dim)
    return np.where(rng.random(grid.shape) < 0.5, -0.0, 0.0)


class TestBitwiseKernels:
    """The sliced kernels against the np.roll / np.stack / np.sum forms."""

    @pytest.mark.parametrize("dim, m, curved", GRIDS)
    def test_diff_and_partials(self, dim, m, curved):
        grid = unit_torus(dim, m, curved=curved)
        for phi in (random_trig_field(grid, seed=dim), signed_zero_field(grid)):
            for axis in range(dim):
                assert_bitwise(grid.diff(phi, axis), roll_diff(grid, phi, axis))
            assert_bitwise(grid.partials(phi), stack_partials(grid, phi))

    @pytest.mark.parametrize("dim, m, curved", GRIDS)
    def test_divergence_inner_and_laplacian(self, dim, m, curved):
        grid = unit_torus(dim, m, curved=curved)
        phi = random_trig_field(grid, seed=dim + 1)
        V = stack_partials(grid, phi)
        W = stack_partials(grid, phi * phi)
        Z = np.stack([signed_zero_field(grid)] * dim, axis=-1)
        for field in (V, Z):
            assert_bitwise(grid.divergence(field), zeros_divergence(grid, field))
            assert_bitwise(grid.inner(field, W), sum_inner(grid, field, W))
        assert_bitwise(grid.norm_sq(V), sum_inner(grid, V, V))
        gradient = stack_partials(grid, phi) / grid.metric_diag
        assert_bitwise(grid.laplacian(phi), zeros_divergence(grid, gradient))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_component_sum_starts_from_positive_zero(self, n):
        X = np.random.default_rng(n).standard_normal((7, 5, n))
        X[0] = -0.0
        X[1, :, 0] = -0.0
        assert_bitwise(component_sum(X), np.sum(X, axis=-1))
        assert not np.any(np.signbit(component_sum(X)[0]))


class TestComponentMajorLayout:
    """Vector and matrix fields keep their trailing-axis shapes but are
    stored component by component; node-major storage fails these."""

    def test_the_guard_rejects_node_major_storage(self):
        assert not is_component_major(np.empty((8, 8, 3)))
        assert not is_component_major(np.empty((8, 8, 3, 3)), 2)
        assert is_component_major(np.empty((3, 8, 8)).transpose(1, 2, 0))

    @pytest.mark.parametrize("zeros", [False, True])
    def test_component_array_is_a_transposed_block_per_component(self, zeros):
        x = component_array((4, 5), 2, 3, zeros=zeros)
        assert x.shape == (4, 5, 2, 3)
        assert is_component_major(x, 2)
        assert x[..., 1, 2].flags.c_contiguous
        assert x.base.shape == (2, 3, 4, 5)
        if zeros:
            assert not np.any(x)

    @pytest.mark.parametrize("dim, m", [(2, 12), (3, 8)])
    @pytest.mark.parametrize("curved", [False, True])
    def test_grid_fields_are_stored_component_by_component(self, dim, m, curved):
        grid = unit_torus(dim, m, curved=curved)
        phi = random_trig_field(grid, seed=dim)
        for field in (grid.partials(phi), grid.gradient(phi), grid.metric_diag):
            assert field.shape == grid.shape + (dim,)
            assert is_component_major(field)
        g = grid.metric_matrix()
        assert g.shape == grid.shape + (dim, dim)
        assert is_component_major(g, 2)


class TestValidation:
    def test_rejects_low_resolution(self):
        with pytest.raises(ValueError):
            FiberGrid(1, (1.0,), (4,))

    def test_rejects_nonpositive_metric(self):
        with pytest.raises(ValueError):
            FiberGrid(1, (1.0,), (16,), metric_coeffs=[lambda x: np.cos(2 * np.pi * x)])

    def test_rejects_wrong_field_shape(self, grid1d):
        with pytest.raises(ValueError):
            grid1d.check_scalar(np.zeros(7))
        with pytest.raises(ValueError):
            grid1d.check_vector(np.zeros(grid1d.shape))

    def test_rejects_non_finite_values(self, grid1d):
        bad = np.zeros(grid1d.shape)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            grid1d.check_scalar(bad)


@pytest.fixture
def count_trig_evals(monkeypatch):
    """Count TrigPolynomial.value / .partial calls while the test runs."""
    calls = {"value": 0, "partial": 0}
    for name in calls:
        original = getattr(TrigPolynomial, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(TrigPolynomial, name, counted)
    return calls


def two_mode_profile(grid):
    return TrigPolynomial.from_specs(
        [
            {"coeff": 0.7, "wavevec": (1, 2), "phase": 0.3},
            {"coeff": -0.2, "wavevec": (0, 1)},
        ],
        grid.periods,
    )


class TestProfileSamples:
    def test_each_key_is_evaluated_once(self, grid2d, count_trig_evals):
        poly = two_mode_profile(grid2d)
        for _ in range(3):
            grid2d.sample(poly)
            grid2d.sample(poly, 0)
            grid2d.sample(poly, 1)
        assert count_trig_evals == {"value": 1, "partial": 2}
        # an equal profile built separately is the same key
        grid2d.sample(two_mode_profile(grid2d), 1)
        assert count_trig_evals == {"value": 1, "partial": 2}

    def test_samples_equal_direct_evaluation_and_are_read_only(self, grid2d):
        poly = two_mode_profile(grid2d)
        cases = [(None, poly.value(*grid2d.coords))] + [
            (axis, poly.partial(axis, *grid2d.coords)) for axis in range(2)
        ]
        for axis, direct in cases:
            cached = grid2d.sample(poly, axis)
            assert np.array_equal(cached, direct)
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0, 0] = 1.0
            assert np.array_equal(grid2d.sample(poly, axis), direct)

    def test_refined_grid_does_not_share_samples(self, grid2d, count_trig_evals):
        poly = two_mode_profile(grid2d)
        coarse = grid2d.sample(poly)
        fine_grid = grid2d.refined()
        fine = fine_grid.sample(poly)
        assert count_trig_evals["value"] == 2
        assert fine.shape == fine_grid.shape != coarse.shape
        assert np.array_equal(fine, poly.value(*fine_grid.coords))

    def test_twist_and_conformal_factor_read_the_cache(self, grid2d, count_trig_evals):
        poly = two_mode_profile(grid2d)
        twist = TwistedFunction("separable", g=TimeProfile("gauss"), eps=0.1, s=poly)
        phi = ConformalFactor.fiber_only(poly)
        for t in (0.1, 0.2, 0.3):
            twist.value(t, grid2d)
            twist.dt(t, grid2d)
            twist.fiber_partials(t, grid2d)
            phi.value(t, grid2d)
            phi.fiber_partials(t, grid2d)
        assert count_trig_evals == {"value": 1, "partial": 2}
