import numpy as np
import pytest

from twistbench import (
    DomainError,
    SpacetimeModel,
    TimeProfile,
    TrigPolynomial,
    TwistedFunction,
    classify,
    default_model,
    is_grw,
    slice_mean_curvature,
    slice_umbilicity,
    torqued_one_form,
)
from twistbench.verify import _spectral_diff

from conftest import assert_bitwise, ripple, unit_torus


STANDARD_TWISTS = (
    "grw_exp",
    "grw_gauss",
    "separable_gauss",
    "separable_exp",
    "additive",
    "traveling",
)


def all_builtin_models():
    return {name: default_model(1, resolution=64, twist=name) for name in STANDARD_TWISTS}


class TestClassify:
    def test_exponential_is_expanding(self):
        assert classify(default_model(1, twist="grw_exp")).tag == "expanding"

    def test_reversed_exponential_is_contracting(self):
        grid = unit_torus(1, 64)
        twist = TwistedFunction("pure_time", g=TimeProfile("exp", {"rate": -1.0}))
        model = SpacetimeModel((-1.0, 1.0), grid, twist)
        assert classify(model).tag == "contracting"

    def test_separable_gaussian_transitions_at_zero(self):
        grid = unit_torus(1, 64)
        twist = TwistedFunction(
            "separable", g=TimeProfile("gauss"), eps=0.1, s=ripple(grid)
        )
        model = SpacetimeModel((-2.0, 2.0), grid, twist)
        result = classify(model)
        assert result.tag == "transition"
        assert abs(result.t0) <= 1e-10

    def test_traveling_wave_is_mixed(self):
        # f = 1 + 0.5 sin(t + x): both signs of d/dt f at any fixed t
        from twistbench import FiberGrid

        grid = FiberGrid(1, (2.0 * np.pi,), (64,))
        model = SpacetimeModel(
            (-1.0, 1.0), grid, TwistedFunction("traveling", amp=0.5, period=2.0 * np.pi)
        )
        result = classify(model)
        assert result.tag == "mixed"
        assert result.evidence["frac_positive"] > 0
        assert result.evidence["frac_negative"] > 0

    def test_tag_stable_under_time_refinement(self):
        for name, model in all_builtin_models().items():
            tags = {classify(model, t_samples=n).tag for n in (64, 128, 256)}
            assert len(tags) == 1, name

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError):
            classify(default_model(1, twist="grw_exp"), t_samples=8)


class TestIsGrw:
    def test_pure_time_families(self):
        assert is_grw(default_model(1, twist="grw_exp"))
        assert is_grw(default_model(1, twist="grw_gauss"))

    def test_separable_is_twisted_with_lower_bound(self):
        model = default_model(1, twist="separable_exp", interval=(-1.0, 1.0))
        assert not is_grw(model)
        # the fiber variation |grad f| / f is bounded below by ~0.1
        grid = model.fiber
        worst = 0.0
        for t in model.time_samples(33):
            ratio = model.twist.fiber_grad_norm(t, grid) / model.twist.value(t, grid)
            worst = max(worst, float(ratio.max()))
        assert worst >= 0.1

    def test_traveling_is_twisted(self):
        assert not is_grw(default_model(1, twist="traveling"))


class TestExactDerivatives:
    @pytest.mark.parametrize("name", ["grw_exp", "grw_gauss", "separable_gauss", "additive", "traveling"])
    def test_dt_against_central_difference(self, name):
        model = default_model(1, resolution=64, twist=name, interval=(-1.0, 1.0))
        grid = model.fiber
        rng = np.random.default_rng(42)
        delta = 1e-6
        for _ in range(100):
            t = rng.uniform(-0.9, 0.9)
            fd = (model.twist.value(t + delta, grid) - model.twist.value(t - delta, grid)) / (2 * delta)
            exact = model.twist.dt(t, grid)
            scale = np.maximum(1.0, np.abs(exact))
            assert np.max(np.abs(fd - exact) / scale) <= 1e-8

    @pytest.mark.parametrize("curved", [False, True])
    @pytest.mark.parametrize(
        "name, dim",
        [(name, dim) for name in STANDARD_TWISTS for dim in (1, 2, 3)
         if name != "traveling" or dim == 1],
    )
    def test_fiber_partials_against_spectral_derivative(self, name, dim, curved):
        # at fixed t every family is a trig polynomial in x, so the Fourier
        # derivative of the sampled value is exact up to round-off
        model = default_model(dim, twist=name, curved=curved)
        grid = model.fiber
        for t in (-0.9, 0.2, 1.3):
            partials = model.twist.fiber_partials(t, grid)
            assert partials.shape == grid.shape + (dim,)
            values = model.twist.value(t, grid)
            for i in range(dim):
                spectral = _spectral_diff(grid, values, i)
                assert np.max(np.abs(partials[..., i] - spectral)) <= 1e-10, (name, i)


class TestEvaluate:
    """``evaluate`` returns f, d/dt f and the fiber partials together, bitwise
    what the three separate evaluators give, with one pass over each time
    profile for f and the partials."""

    @pytest.mark.parametrize(
        "name, dim",
        [(name, dim) for name in STANDARD_TWISTS for dim in (1, 2, 3)
         if name != "traveling" or dim == 1],
    )
    def test_bitwise_the_separate_evaluators(self, name, dim):
        model = default_model(dim, resolution=8, twist=name, curved=True)
        grid = model.fiber
        heights = 0.3 + 0.2 * np.sin(2.0 * np.pi * grid.coords[0])
        for t in (0.2, heights):
            f, dtf, partials = model.twist.evaluate(t, grid)
            assert_bitwise(f, model.twist.value(t, grid))
            assert_bitwise(dtf, model.twist.dt(t, grid))
            assert_bitwise(partials, model.twist.fiber_partials(t, grid))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_separable_matches_the_closed_form(self, dim):
        # reference: g(t) (1 + eps s), g'(t) (1 + eps s) and g(t) eps d_i s,
        # each with g evaluated on its own, as the evaluators did before
        model = default_model(dim, resolution=8, twist="separable_exp", curved=True)
        twist, grid = model.twist, model.fiber
        t = 0.3 + 0.2 * np.cos(2.0 * np.pi * grid.coords[-1])
        f, dtf, partials = twist.evaluate(t, grid)
        assert_bitwise(f, twist.g.value(t) * (1.0 + twist.eps * grid.sample(twist.s)))
        assert_bitwise(dtf, twist.g.deriv(t) * (1.0 + twist.eps * grid.sample(twist.s)))
        expected = np.zeros(grid.shape + (dim,))
        for i in range(dim):
            expected[..., i] = twist.g.value(t) * twist.eps * grid.sample(twist.s, i)
        assert_bitwise(partials, expected)

    def test_one_profile_pass_per_kit(self, monkeypatch):
        from twistbench import random_trig_graph
        from twistbench.graphs import _kit

        model = default_model(2, resolution=16, twist="separable_gauss")
        graph = random_trig_graph(model, seed=3, amplitude=0.05)
        calls = {"value": 0, "deriv": 0}
        for method in calls:
            original = getattr(TimeProfile, method)

            def counted(self, t, _original=original, _method=method):
                calls[_method] += 1
                return _original(self, t)

            monkeypatch.setattr(TimeProfile, method, counted)
        _kit(graph)
        assert calls == {"value": 1, "deriv": 1}


class TestConstructor:
    @pytest.mark.parametrize(
        "family, missing, message",
        [
            ("pure_time", "g", "family 'pure_time' needs a time profile g"),
            ("separable", "g", "family 'separable' needs a time profile g"),
            ("separable", "s", "family 'separable' needs a fiber profile s"),
            ("additive", "g", "family 'additive' needs a time profile g"),
            ("additive", "s", "family 'additive' needs a fiber profile s"),
            ("additive", "q", "family 'additive' needs a time profile q"),
        ],
    )
    def test_each_missing_argument_is_named(self, family, missing, message):
        args = {"g": TimeProfile("gauss"), "s": ripple(unit_torus(1, 16)), "q": TimeProfile("cosh")}
        del args[missing]
        with pytest.raises(ValueError) as exc:
            TwistedFunction(family, eps=0.1, **args)
        assert str(exc.value) == message

    def test_unknown_family_and_traveling_amplitude(self):
        with pytest.raises(ValueError, match="unknown twist family 'spiral'"):
            TwistedFunction("spiral", g=TimeProfile("gauss"))
        with pytest.raises(ValueError, match=r"traveling twist needs \|amp\| < 1"):
            TwistedFunction("traveling", amp=1.0)


class TestTorquedOneForm:
    def test_vanishes_for_grw(self):
        model = default_model(1, twist="grw_exp", interval=(-1.0, 1.0))
        grid = model.fiber
        V = grid.gradient(np.sin(2 * np.pi * grid.coords[0]))
        assert np.max(np.abs(torqued_one_form(model, 0.2, V))) == 0.0

    def test_zero_field_gives_zero(self):
        model = default_model(1, twist="separable_gauss")
        grid = model.fiber
        V = np.zeros(grid.shape + (1,))
        assert np.all(torqued_one_form(model, 0.2, V) == 0.0)

    def test_separable_closed_form(self):
        model = default_model(1, twist="separable_gauss")
        grid = model.fiber
        s = model.twist.s.value(*grid.coords)
        ds_exact = model.twist.s.partial(0, *grid.coords)
        V = grid.gradient(s)
        omega = torqued_one_form(model, 0.3, V)
        eps = model.twist.eps
        # algebraic form with the exact fiber partial paired against V
        exact_pairing = eps * ds_exact * V[..., 0] / (1.0 + eps * s)
        assert np.max(np.abs(omega - exact_pairing)) <= 1e-14
        # continuum closed form eps |grad s|^2 / (1 + eps s) up to O(h^2)
        closed = eps * ds_exact**2 / (1.0 + eps * s)
        assert np.max(np.abs(omega - closed)) <= 1e-2

    def test_vanishing_iff_grw_across_catalog(self):
        for name, model in all_builtin_models().items():
            grid = model.fiber
            V = grid.gradient(np.cos(2 * np.pi * grid.coords[0] / grid.periods[0]))
            worst = max(
                float(np.max(np.abs(torqued_one_form(model, t, V))))
                for t in model.time_samples(9)
            )
            assert (worst <= 1e-12) == is_grw(model), name


class TestSliceGeometry:
    def test_exponential_slice_curvature_is_one(self):
        model = default_model(1, twist="grw_exp", interval=(-1.0, 1.0))
        H = slice_mean_curvature(model, 0.25)
        assert np.max(np.abs(H - 1.0)) <= 1e-14

    def test_gaussian_transition_slice_is_maximal(self):
        model = default_model(1, twist="separable_gauss")
        assert np.max(np.abs(slice_mean_curvature(model, 0.0))) == 0.0

    def test_traveling_closed_form(self):
        model = default_model(1, twist="traveling")
        grid = model.fiber
        a, T = model.twist.amp, model.twist.period
        w = 2.0 * np.pi / T
        x = grid.coords[0]
        expected = a * w * np.cos(w * x) / (1.0 + a * np.sin(w * x))
        assert np.max(np.abs(slice_mean_curvature(model, 0.0) - expected)) <= 1e-14

    def test_umbilicity_is_negated_curvature(self):
        model = default_model(1, twist="separable_gauss")
        H = slice_mean_curvature(model, 0.4)
        lam = slice_umbilicity(model, 0.4)
        assert np.array_equal(lam, -H)

    def test_endpoint_evaluation_is_domain_error(self):
        model = default_model(1, twist="grw_exp", interval=(-1.0, 1.0))
        with pytest.raises(DomainError):
            slice_mean_curvature(model, 1.0)
        with pytest.raises(DomainError):
            slice_mean_curvature(model, -1.5)


class TestModelValidation:
    def test_positivity_enforced(self):
        grid = unit_torus(1, 64)
        with pytest.raises(ValueError):
            SpacetimeModel(
                (-1.0, 1.0),
                grid,
                TwistedFunction(
                    "separable", g=TimeProfile("constant", {"c": 1.0}), eps=1.5, s=ripple(grid)
                ),
            )

    def test_traveling_needs_matching_periods(self):
        grid = unit_torus(1, 64)
        with pytest.raises(ValueError):
            SpacetimeModel(
                (-1.0, 1.0), grid, TwistedFunction("traveling", amp=0.3, period=0.7)
            )

    def test_interval_must_be_ordered(self):
        grid = unit_torus(1, 64)
        with pytest.raises(ValueError):
            SpacetimeModel(
                (1.0, -1.0),
                grid,
                TwistedFunction("pure_time", g=TimeProfile("gauss")),
            )
