import dataclasses
import tracemalloc

import numpy as np
import pytest

from twistbench import (
    DomainError,
    ExpansionClass,
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
from twistbench.solver import certificate_check
from twistbench.spacetime import _SWEEP_ELEMENTS, SIGN_TOL, TwistAlong
from twistbench.verify import _spectral_diff

from conftest import assert_bitwise, count_calls, count_reads, ripple, unit_torus


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

    def test_sampling_memory_stays_at_block_size(self):
        # 64 samples on 32^3 nodes: a stack of every d/dt f would hold 16.8 MB
        model = default_model(3, resolution=32)
        tracemalloc.start()
        try:
            assert classify(model).tag == "transition"
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

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


# Per-time reference loops: one twist call per sampled time.  The blocked
# sweeps of the sampled model checks must reproduce them bit for bit.


def per_time_certificate_bounds(model, t_samples):
    lo, hi = np.inf, -np.inf
    for t in model.time_samples(t_samples):
        vals = model.twist.dlog_dt(t, model.fiber)
        lo = min(lo, float(vals.min()))
        hi = max(hi, float(vals.max()))
    return lo, hi


def per_time_is_grw(model, t_samples):
    worst = 0.0
    for t in model.time_samples(t_samples):
        ratio = model.twist.fiber_grad_norm(t, model.fiber) / model.twist.value(t, model.fiber)
        worst = max(worst, float(ratio.max()))
    return worst <= 1e-12


def per_time_classify(model, t_samples):
    """(tag, t0, evidence) of ``classify`` with a per-time sampling stage."""
    grid = model.fiber
    times = model.time_samples(t_samples)
    dft = np.stack([model.twist.dt(t, grid) for t in times])
    pos = dft > SIGN_TOL
    neg = dft < -SIGN_TOL
    evidence = {
        "t_samples": int(t_samples),
        "min_dt": float(dft.min()),
        "max_dt": float(dft.max()),
        "frac_positive": float(pos.mean()),
        "frac_negative": float(neg.mean()),
    }
    if evidence["min_dt"] > SIGN_TOL:
        return "expanding", None, evidence
    if evidence["max_dt"] < -SIGN_TOL:
        return "contracting", None, evidence
    if np.all(pos.any(axis=0)) and np.all(neg.any(axis=0)):
        last_pos = (t_samples - 1) - np.argmax(pos[::-1], axis=0)
        first_neg = np.argmax(neg, axis=0)
        if np.all(last_pos < first_neg):
            lo = times[last_pos].astype(float)
            hi = times[first_neg].astype(float)
            for _ in range(64):
                mid = 0.5 * (lo + hi)
                take_lo = model.twist.dt(mid, grid) > 0.0
                lo = np.where(take_lo, mid, lo)
                hi = np.where(take_lo, hi, mid)
                if float(np.max(hi - lo)) < 1e-10:
                    break
            roots = 0.5 * (lo + hi)
            evidence["root_spread"] = float(roots.max() - roots.min())
            if evidence["root_spread"] <= 1e-8:
                return "transition", float(roots.mean()), evidence
    return "mixed", None, evidence


def sweep_models():
    """Every standard twist in dims 1-3, a curved fiber, a fiber with more
    nodes than one sweep block holds, so that each block is one time, and a
    twist that overflows near t_max on lattices finer than 64 times, so that
    d/dt log f and |grad f| / f hold NaN at the last times of a block."""
    models = {
        f"{name}-{dim}d": default_model(dim, twist=name)
        for dim in (1, 2, 3)
        for name in STANDARD_TWISTS
        if name != "traveling" or dim == 1
    }
    models["additive-2d-curved"] = default_model(2, twist="additive", curved=True)
    models["separable_gauss-wide"] = default_model(
        1, resolution=_SWEEP_ELEMENTS + 8, twist="separable_gauss"
    )
    models["separable_exp-overflow"] = default_model(
        1, twist="separable_exp", interval=(-1.0, 712.0)
    )
    return models


SWEEP_MODELS = sweep_models()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
class TestBlockedTimeSweeps:
    @pytest.mark.parametrize(
        "name, count",
        [("additive-1d", 256), ("additive-1d", 600), ("additive-2d", 37),
         ("additive-3d", 16), ("separable_gauss-wide", 5)],
    )
    def test_blocks_tile_the_time_lattice(self, name, count):
        model = SWEEP_MODELS[name]
        k = max(1, _SWEEP_ELEMENTS // model.fiber.n_nodes)
        blocks = model.time_blocks(count)
        assert [b.shape for b in blocks] == [
            (min(k, count - start),) + (1,) * model.fiber.dim for start in range(0, count, k)
        ]
        assert_bitwise(np.concatenate([b.ravel() for b in blocks]), model.time_samples(count))

    @pytest.mark.parametrize("count", [0, -1])
    def test_sample_counts_below_one_are_rejected(self, count):
        model = default_model(2)
        for sweep in (model.time_samples, model.time_blocks):
            with pytest.raises(ValueError, match="time sample count must be at least 1"):
                sweep(count)
        with pytest.raises(ValueError, match="time sample count must be at least 1"):
            is_grw(model, t_samples=count)

    @pytest.mark.parametrize("name", sorted(SWEEP_MODELS))
    def test_certificate_bounds_match_per_time_loop(self, name):
        model = SWEEP_MODELS[name]
        # 37 and 600 are not multiples of the 16- and 512-time blocks
        for count in (37, 256, 600):
            cert = certificate_check(model, np.inf, t_samples=count)
            lo, hi = per_time_certificate_bounds(model, count)
            assert (cert["inf_dlog_f"].hex(), cert["sup_dlog_f"].hex()) == (lo.hex(), hi.hex())

    @pytest.mark.parametrize("name", sorted(SWEEP_MODELS))
    def test_classify_matches_per_time_loop(self, name):
        model = SWEEP_MODELS[name]
        for count in (37, 64):
            result = classify(model, t_samples=count)
            assert (result.tag, result.t0, result.evidence) == per_time_classify(model, count)

    @pytest.mark.parametrize("name", sorted(SWEEP_MODELS))
    def test_is_grw_matches_per_time_loop(self, name):
        model = SWEEP_MODELS[name]
        for count in (33, 256, 600):
            assert is_grw(model, t_samples=count) == per_time_is_grw(model, count)
        # the ratio is_grw thresholds, block by block, against per-time
        # numpy sums over the partials
        grid = model.fiber
        block = model.time_blocks(37)[0]
        per_time = [
            np.sqrt(np.sum(model.twist.fiber_partials(t, grid) ** 2 / grid.metric_diag, axis=-1))
            / model.twist.value(t, grid)
            for t in block.ravel()
        ]
        blocked = model.twist.fiber_grad_norm(block, grid) / model.twist.value(block, grid)
        assert_bitwise(blocked, np.stack(per_time))

    @pytest.mark.parametrize("dim, resolution, blocks", [(1, 128, (1, 1)), (2, 64, (4, 3))])
    def test_one_twist_call_per_block(self, monkeypatch, dim, resolution, blocks):
        # (classify, is_grw) blocks: 64 and 33 samples in blocks of 512
        # times on 128 nodes and of 16 times on 64^2; the positivity check
        # of a separable twist reads its fiber factor and calls no evaluator
        values = count_calls(monkeypatch, TwistedFunction, "value")
        norms = count_calls(monkeypatch, TwistedFunction, "fiber_grad_norm")
        rates = count_calls(monkeypatch, TwistedFunction, "dt")
        model = default_model(dim, resolution=resolution, twist="separable_exp")
        assert (len(values), len(norms), len(rates)) == (0, 0, 0)
        # an expanding model needs no bisection: every dt call samples
        assert classify(model).tag == "expanding"
        assert len(rates) == blocks[0]
        assert not is_grw(model)
        assert len(values) == len(norms) == blocks[1]

    @pytest.mark.parametrize(
        "twist, dim, resolution, sweeps",
        [("additive", 2, 64, []), ("grw_exp", 1, 128, []), ("grw_exp", 2, 64, []),
         ("traveling", 1, 128, [(64, 128)])],
    )
    def test_positivity_reads_f_at_the_factor_extremes(
        self, monkeypatch, twist, dim, resolution, sweeps
    ):
        # one evaluator on the column of 64 sampled times, which reads f at
        # min a and max a of the fiber factor (1 for pure_time); a traveling
        # twist reads f over the fiber, here in one block of every time
        values = count_calls(monkeypatch, TwistedFunction, "value")
        reads = count_reads(monkeypatch, TwistAlong, "f")
        times = []
        along = TwistedFunction.along

        def counted(self, t, grid):
            times.append(np.shape(t))
            return along(self, t, grid)

        monkeypatch.setattr(TwistedFunction, "along", counted)
        default_model(dim, resolution=resolution, twist=twist)
        column = (64,) + (1,) * dim
        assert len(values) == 0
        assert times == [column]
        assert reads == sweeps

    def test_traveling_positivity_sweeps_in_blocks(self, monkeypatch):
        # 64 times over 4096 nodes: 4 blocks of 16 times, never one array
        # of more than _SWEEP_ELEMENTS values
        reads = count_reads(monkeypatch, TwistAlong, "f")
        grid = unit_torus(1, 4096)
        twist = TwistedFunction("traveling", amp=0.3, period=0.5)
        SpacetimeModel((-1.0, 1.0), grid, twist)
        assert reads == [(16, 4096)] * 4
        assert 16 * 4096 == _SWEEP_ELEMENTS
        # each block's range is its f's smallest and largest over the fiber
        times = np.linspace(-1.0, 1.0, 16)[:, None]
        low, high = twist.along(times, grid).fiber_range()
        f = twist.value(times, grid)
        assert_bitwise(low, f.min(axis=1))
        assert_bitwise(high, f.max(axis=1))

    def test_positivity_error_names_the_first_failing_time(self):
        # g = 0.5 - t; all 64 samples share one block on 128 nodes
        twist = TwistedFunction("pure_time", g=TimeProfile("linear", {"a": 0.5, "b": -1.0}))
        with pytest.raises(ValueError, match=r"^twist function is not positive near t=0\.515625$"):
            SpacetimeModel((-1.0, 1.0), unit_torus(1, 128), twist)


def reference_positivity(interval, grid, twist, t_samples=64):
    """The model build's verdict from a sweep over every node: None, or the
    ValueError message.  f comes from its literal formula."""
    t_min, t_max = interval
    times = t_min + (np.arange(t_samples) + 0.5) * ((t_max - t_min) / t_samples)
    t = times.reshape((-1,) + (1,) * grid.dim)
    s = twist.s.value(*grid.coords)
    if twist.family == "separable":
        values = twist.g.value(t) * (1.0 + twist.eps * s)
    else:
        values = twist.g.value(t) + twist.eps * s * twist.q.value(t)
    values = values.reshape(t_samples, -1)
    bad = np.any(~np.isfinite(values) | (values <= 0.0), axis=1)
    if bad.any():
        return f"twist function is not positive near t={times[np.argmax(bad)]:.6g}"
    if twist.family == "separable" and abs(twist.eps) * float(np.max(np.abs(s))) >= 1.0:
        return "separable twist needs |eps| * max|s| < 1"
    return None


def adversarial_twists(grid):
    """Separable and additive twists whose values over the fiber reach zero,
    go negative, overflow, underflow to zero or stay positive."""
    g_profiles = [
        TimeProfile("constant", {"c": 0.0}),
        TimeProfile("linear", {"a": 0.2, "b": -1.0}),   # crosses zero
        TimeProfile("exp", {"rate": 800.0}),            # overflows
        TimeProfile("constant", {"c": 1e-320}),         # subnormal: g a underflows
        TimeProfile("gauss"),
    ]
    q_profiles = [TimeProfile("linear", {"a": 0.0, "b": 1.0}), TimeProfile("cosh")]
    for phase in (0.0, 0.3):
        s = ripple(grid, phase=phase)
        for g in g_profiles:
            for eps in (0.1, 0.999, 1.0, -1.0, 2.0, -0.5):
                yield TwistedFunction("separable", g=g, eps=eps, s=s)
                for q in q_profiles:
                    yield TwistedFunction("additive", g=g, eps=eps, s=s, q=q)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
class TestPositivity:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_verdicts_match_the_per_node_sweep(self, dim):
        # odd resolutions reach the separable |eps| max|s| rule: no node of
        # a 9-node axis sits where 1 - |s| vanishes
        verdicts = set()
        for resolution in (8, 9):
            grid = unit_torus(dim, resolution)
            for twist in adversarial_twists(grid):
                for interval in ((-1.0, 1.0), (-2.0, 3.0)):
                    expected = reference_positivity(interval, grid, twist)
                    try:
                        SpacetimeModel(interval, grid, twist)
                        message = None
                    except ValueError as exc:
                        message = str(exc)
                    assert message == expected, (twist.family, twist.eps, interval)
                    verdicts.add(None if message is None else message.split(" near")[0])
        assert verdicts == {
            None,
            "twist function is not positive",
            "separable twist needs |eps| * max|s| < 1",
        }

    def test_extremes_cover_blocks_past_the_first(self):
        # 64^2 nodes: the per-node sweep took 4 blocks of 16 times;
        # f = 0.6 - t + 0.1 s first reaches zero at t = 0.5, in the last block
        grid = unit_torus(2, 64)
        twist = TwistedFunction(
            "additive", g=TimeProfile("linear", {"a": 0.6, "b": -1.0}), eps=0.1,
            s=ripple(grid), q=TimeProfile("constant", {"c": 1.0}),
        )
        expected = reference_positivity((-1.0, 1.0), grid, twist)
        assert expected == "twist function is not positive near t=0.515625"
        with pytest.raises(ValueError) as exc:
            SpacetimeModel((-1.0, 1.0), grid, twist)
        assert str(exc.value) == expected


class TestFiberFactor:
    """separable and additive twists read a fiber factor a = 1 + eps s or
    eps s kept on the grid, pure_time twists the unit factor; f, d/dt f
    and the partials stay bitwise the literal formulas."""

    @pytest.mark.parametrize("curved", [False, True])
    @pytest.mark.parametrize(
        "name", ["grw_exp", "grw_gauss", "separable_gauss", "separable_exp", "additive"]
    )
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_evaluators_match_the_literal_formulas(self, dim, name, curved):
        model = default_model(dim, resolution=8, twist=name, curved=curved)
        twist, grid = model.twist, model.fiber
        heights = 0.3 + 0.2 * np.cos(2.0 * np.pi * grid.coords[-1])
        for t in (0.2, heights, model.time_blocks(5)[0]):
            g, dg = twist.g.value(t), twist.g.deriv(t)
            shape = np.broadcast(t, grid.coords[0]).shape
            if twist.family == "pure_time":
                f, dtf = np.broadcast_to(g, shape).copy(), np.broadcast_to(dg, shape).copy()
                partials = [np.zeros(shape)] * dim
            else:
                eps, s = twist.eps, twist.s.value(*grid.coords)
                ds = [twist.s.partial(i, *grid.coords) for i in range(dim)]
            if twist.family == "separable":
                f, dtf = g * (1.0 + eps * s), dg * (1.0 + eps * s)
                partials = [g * eps * d for d in ds]
            elif twist.family == "additive":
                q, dq = twist.q.value(t), twist.q.deriv(t)
                f, dtf = g + eps * s * q, dg + eps * s * dq
                partials = [eps * d * q for d in ds]
            partials = np.stack(partials, axis=-1)
            assert_bitwise(twist.value(t, grid), f)
            assert_bitwise(twist.dt(t, grid), dtf)
            assert_bitwise(twist.fiber_partials(t, grid), partials)
            along = twist.along(t, grid)
            for actual, expected in zip((along.f, along.dt, along.partials), (f, dtf, partials)):
                assert_bitwise(actual, expected)

    def test_pure_time_ignores_a_fiber_profile(self):
        # the family picks the formula, not which arguments are given
        grid = unit_torus(2, 8)
        g = TimeProfile("gauss")
        plain = TwistedFunction("pure_time", g=g)
        with_s = TwistedFunction("pure_time", g=g, eps=0.5, s=ripple(grid))
        for t in (0.3, np.full(grid.shape, -0.2)):
            for method in ("value", "dt", "fiber_partials"):
                assert_bitwise(getattr(with_s, method)(t, grid), getattr(plain, method)(t, grid))

    @pytest.mark.parametrize("family", ["separable", "additive"])
    def test_factor_is_cached_read_only(self, family):
        grid = unit_torus(2, 16)
        s = ripple(grid, phase=0.3)
        twist = TwistedFunction(family, g=TimeProfile("gauss"), eps=0.1, s=s, q=TimeProfile("cosh"))
        a = twist.along(0.0, grid)._factor
        eps_s = 0.1 * s.value(*grid.coords)
        assert_bitwise(a, 1.0 + eps_s if family == "separable" else eps_s)
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
        # every evaluator on the grid shares it, at any time
        assert twist.along(np.full(grid.shape, 0.3), grid)._factor is a
        # an equal twist built separately shares the factor; a refined grid does not
        twin = TwistedFunction(family, g=TimeProfile("exp"), eps=0.1, s=s, q=TimeProfile("gauss"))
        assert twin.along(0.0, grid)._factor is a
        assert twist.along(0.0, grid.refined())._factor.shape == (32, 32)

    def test_signed_zero_eps_keeps_its_own_factor(self):
        grid = unit_torus(1, 16)
        s = ripple(grid)
        factors = [
            TwistedFunction("additive", g=TimeProfile("gauss"), eps=eps, s=s,
                            q=TimeProfile("cosh")).along(0.0, grid)._factor
            for eps in (0.0, -0.0)
        ]
        assert_bitwise(factors[0], 0.0 * s.value(*grid.coords))
        assert_bitwise(factors[1], -0.0 * s.value(*grid.coords))


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


class TestAlong:
    """``along`` computes f, d/dt f and the fiber partials on first read,
    bitwise what the three separate evaluators give, with one pass over
    each time profile for f and the partials."""

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
            along = model.twist.along(t, grid)
            assert not {"f", "dt", "partials"} & set(vars(along))
            assert_bitwise(along.partials, model.twist.fiber_partials(t, grid))
            assert_bitwise(along.f, model.twist.value(t, grid))
            assert_bitwise(along.dt, model.twist.dt(t, grid))
            assert along.f is along.f and along.partials is along.partials

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_separable_matches_the_closed_form(self, dim):
        # reference: g(t) (1 + eps s), g'(t) (1 + eps s) and g(t) eps d_i s,
        # each with g evaluated on its own
        model = default_model(dim, resolution=8, twist="separable_exp", curved=True)
        twist, grid = model.twist, model.fiber
        t = 0.3 + 0.2 * np.cos(2.0 * np.pi * grid.coords[-1])
        along = twist.along(t, grid)
        assert_bitwise(along.f, twist.g.value(t) * (1.0 + twist.eps * grid.sample(twist.s)))
        assert_bitwise(along.dt, twist.g.deriv(t) * (1.0 + twist.eps * grid.sample(twist.s)))
        expected = np.zeros(grid.shape + (dim,))
        for i in range(dim):
            expected[..., i] = twist.g.value(t) * twist.eps * grid.sample(twist.s, i)
        assert_bitwise(along.partials, expected)

    @pytest.mark.parametrize("first", ["f", "partials"])
    @pytest.mark.parametrize("name", ["grw_gauss", "separable_gauss", "additive"])
    def test_f_and_the_partials_share_one_profile_pass(self, monkeypatch, name, first):
        model = default_model(2, resolution=8, twist=name)
        values = count_calls(monkeypatch, TimeProfile, "value")
        derivs = count_calls(monkeypatch, TimeProfile, "deriv")
        along = model.twist.along(0.4, model.fiber)
        for field in (first, {"f": "partials", "partials": "f"}[first]):
            getattr(along, field)
        profiles = 2 if name == "additive" else 1  # g, and q for an additive twist
        assert (len(values), len(derivs)) == (profiles, 0)
        along.dt
        assert (len(values), len(derivs)) == (profiles, profiles)

    @pytest.mark.parametrize("reads", [("f",), ("f", "partials"), ("partials", "f"),
                                       ("f", "dt", "partials")])
    @pytest.mark.parametrize("name", sorted(STANDARD_TWISTS))
    def test_keeps_no_profiles_it_no_longer_needs(self, name, reads):
        # the order-0 profiles live until f and every partial that reads
        # them are kept, and a traveling phase is never kept: past its
        # inputs and the grid's fiber factor, an evaluator holds its results
        model = default_model(1, resolution=8, twist=name)
        grid = model.fiber
        along = model.twist.along(0.3 + 0.2 * np.sin(2.0 * np.pi * grid.coords[0]), grid)
        for field in reads:
            getattr(along, field)
        family, expected = model.twist.family, set(reads)
        if family in ("separable", "additive") and "partials" not in reads:
            expected.add("_g_and_q")  # the partials will read them
        if family == "traveling" and "partials" in reads:
            expected.add("dt")  # its partial is d/dt f
        assert set(vars(along)) - {"twist", "t", "grid", "_factor"} == expected

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
        kit = _kit(graph)
        # d/dt f waits for its first read
        assert calls == {"value": 1, "deriv": 0}
        kit.H  # reads d/dt f and the fiber partials, which reuse g
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

    @pytest.mark.parametrize("period", [0.0, -1.0])
    def test_traveling_period_must_be_positive(self, period):
        with pytest.raises(ValueError) as exc:
            TwistedFunction("traveling", amp=0.3, period=period)
        assert str(exc.value) == "traveling twist needs period > 0"


class TestImmutableTwist:
    """A twist refuses every assignment after ``__init__``, so neither a model
    built on it nor a kit's deferred derivatives can go stale."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("family", "pure_time"),
            ("g", TimeProfile("exp")),
            ("q", TimeProfile("cosh")),
            ("s", None),
            ("eps", 0.5),
            ("amp", 0.2),
            ("period", 0.5),
        ],
    )
    def test_each_field_refuses_assignment(self, field, value):
        model = default_model(1, twist="additive")
        twist = model.twist
        before = getattr(twist, field)
        with pytest.raises(AttributeError, match=f"cannot set '{field}'"):
            setattr(twist, field, value)
        with pytest.raises(AttributeError, match=f"cannot delete '{field}'"):
            delattr(twist, field)
        assert getattr(twist, field) is before

    def test_no_attribute_can_be_added(self):
        twist = default_model(1, twist="traveling").twist
        with pytest.raises(AttributeError, match="cannot set 'phase'"):
            twist.phase = 0.25
        assert not hasattr(twist, "phase")

    def test_a_built_model_keeps_its_checked_twist(self):
        # eps = 0.5 makes this twist vanish near t = 0.0234, which a model
        # refuses at build time; the kept range must stay the eps = 0.1 one
        model = default_model(1, twist="additive")
        kept = model.dlog_dt_range(256)
        with pytest.raises(AttributeError):
            model.twist.eps = 0.5
        assert model.twist.eps == 0.1
        fresh = default_model(1, twist="additive").dlog_dt_range(256)
        assert model.dlog_dt_range(256) == kept == fresh


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

    @pytest.mark.parametrize(
        "interval", [(-np.inf, 1.0), (-1.0, np.inf), (np.nan, 1.0), (-1.0, np.nan)]
    )
    @pytest.mark.parametrize("g", [TimeProfile("constant", {"c": 1.0}), TimeProfile("exp")])
    def test_interval_must_be_finite(self, interval, g):
        # an infinite endpoint used to build, with NaN sample times
        with pytest.raises(ValueError, match="interval endpoints must be finite"):
            SpacetimeModel(interval, unit_torus(1, 64), TwistedFunction("pure_time", g=g))


class TestKeptResults:
    """Results that depend on the model alone are computed on first use per
    sample count and kept with the frozen model."""

    def test_model_is_frozen(self):
        model = default_model(1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.interval = (-1.0, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.twist = TwistedFunction("pure_time", g=TimeProfile("gauss"))
        assert model.interval == (-1.5, 1.5)

    def test_classify_is_computed_once_per_sample_count(self, monkeypatch):
        model = default_model(1, twist="separable_gauss")
        expected = {count: per_time_result(model, count) for count in (64, 37)}
        rates = count_calls(monkeypatch, TwistedFunction, "dt")
        for count in (64, 37):
            rates.clear()
            assert classify(model, t_samples=count) == expected[count]
            # one sampling block and the bisection of a transition
            assert len(rates) > 1
            rates.clear()
            assert classify(model, t_samples=count) == expected[count]
            assert rates == []
        assert classify(model) == expected[64]
        assert rates == []

    def test_a_fresh_model_recomputes(self, monkeypatch):
        rates = count_calls(monkeypatch, TwistedFunction, "dt")
        logs = count_calls(monkeypatch, TwistedFunction, "dlog_dt")
        kept = default_model(1, twist="separable_exp")
        classify(kept)
        kept.dlog_dt_range(256)
        fresh = default_model(1, twist="separable_exp")
        rates.clear()
        logs.clear()
        assert classify(fresh) == classify(kept)
        assert fresh.dlog_dt_range(256) == kept.dlog_dt_range(256)
        # 128 nodes: one sampling block each; dlog_dt calls dt once
        assert (len(rates), len(logs)) == (2, 1)
        # dataclasses.replace builds a new model, which keeps its own results
        kept = default_model(1, twist="separable_gauss")
        wide = kept.dlog_dt_range(256)
        narrow = dataclasses.replace(kept, interval=(-1.0, 1.0))
        expected = per_time_certificate_bounds(narrow, 256)
        logs.clear()
        assert narrow.dlog_dt_range(256) == expected != wide
        assert len(logs) == 1

    def test_dlog_dt_range_is_kept_per_sample_count(self, monkeypatch):
        logs = count_calls(monkeypatch, TwistedFunction, "dlog_dt")
        model = SWEEP_MODELS["additive-2d"]
        for count in (37, 256):
            expected = per_time_certificate_bounds(model, count)
            logs.clear()
            first = model.dlog_dt_range(count)
            again = model.dlog_dt_range(count)
            assert [v.hex() for v in first] == [v.hex() for v in expected]
            assert again == first
            assert len(logs) <= -(-count // 16)  # none for the second call

    def test_callers_cannot_change_a_kept_verdict(self):
        model = default_model(1, twist="separable_gauss")
        first = classify(model)
        expected = (first.tag, first.t0, dict(first.evidence))
        first.evidence["min_dt"] = 99.0
        first.evidence.clear()
        first.tag, first.t0 = "expanding", None
        second = classify(model)
        assert second is not first and second.evidence is not first.evidence
        assert (second.tag, second.t0, second.evidence) == expected

    def test_failed_calls_keep_nothing(self):
        model = default_model(1)
        for _ in range(2):
            with pytest.raises(ValueError, match="t_samples must be at least 16"):
                classify(model, t_samples=8)
            with pytest.raises(ValueError, match="time sample count must be at least 1"):
                model.dlog_dt_range(0)


def per_time_result(model, t_samples):
    """``per_time_classify`` as an ExpansionClass."""
    tag, t0, evidence = per_time_classify(model, t_samples)
    return ExpansionClass(tag, t0=t0, evidence=evidence)
