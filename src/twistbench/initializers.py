"""Seeded graph initializers and the standard test corpus.

Random graphs are low-mode trigonometric perturbations of a constant
height, rescaled so they start comfortably spacelike and clear of the
interval endpoints.  Everything is a pure function of the seed so solver
logs and test corpora reproduce bit for bit.
"""

import numpy as np

from .errors import ConfigError
from .fiber_grid import FiberGrid
from .graphs import GraphField, spacelike_margin
from .profiles import TimeProfile, TrigPolynomial
from .spacetime import SpacetimeModel, TwistedFunction

__all__ = [
    "constant_graph",
    "random_trig_graph",
    "resolve_initializer",
    "default_fiber",
    "default_model",
    "corpus_graphs",
]


def constant_graph(model, t_c):
    return GraphField.constant(model, t_c)


def random_trig_graph(
    model,
    seed,
    center=None,
    amplitude=0.05,
    max_mode=2,
    n_modes=3,
    margin_cap=0.5,
    rescale=True,
):
    """Random low-mode trig perturbation around ``center``.

    With ``rescale`` (the default) the deviation is shrunk if needed so the
    spacelike margin stays at or below ``margin_cap``; disabling it keeps
    the amplitude literal, which is how deliberately non-spacelike inputs
    are produced for failure-path tests.  The graph always keeps 5% of the
    interval clear on both sides.
    """
    rng = np.random.default_rng(seed)
    grid = model.fiber
    t_min, t_max = model.interval
    span = t_max - t_min
    if center is None:
        center = 0.5 * (t_min + t_max)
    center = float(center)

    modes = []
    for _ in range(n_modes):
        wavevec = tuple(int(k) for k in rng.integers(-max_mode, max_mode + 1, grid.dim))
        if all(k == 0 for k in wavevec):
            wavevec = (1,) + (0,) * (grid.dim - 1)
        modes.append(
            {
                "coeff": float(rng.uniform(-1.0, 1.0)) * amplitude / n_modes,
                "wavevec": wavevec,
                "phase": float(rng.uniform(0.0, 2.0 * np.pi)),
            }
        )
    poly = TrigPolynomial.from_specs(modes, grid.periods)
    deviation = poly.value(*grid.open_coords)

    lo = t_min + 0.05 * span
    hi = t_max - 0.05 * span
    center = min(max(center, lo), hi)
    room = min(hi - center, center - lo)
    peak = float(np.max(np.abs(deviation)))
    if peak > 0 and peak > room:
        deviation *= room / peak

    graph = GraphField(model, center + deviation)
    if rescale:
        mu_max = float(spacelike_margin(graph).max())
        if mu_max > margin_cap:
            deviation *= margin_cap / mu_max
            graph = GraphField(model, center + deviation)
    return graph


def resolve_initializer(model, spec):
    """Build a graph from a GraphField or an initializer spec dict."""
    if isinstance(spec, GraphField):
        return spec
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("initializer must be a GraphField or a {kind: ...} dict")
    kind = spec["kind"]
    if kind == "constant":
        return constant_graph(model, spec["value"])
    if kind == "random_trig":
        return random_trig_graph(
            model,
            seed=int(spec.get("seed", 0)),
            center=spec.get("center"),
            amplitude=float(spec.get("amplitude", 0.05)),
            max_mode=int(spec.get("max_mode", 2)),
            n_modes=int(spec.get("n_modes", 3)),
            rescale=bool(spec.get("rescale", True)),
        )
    raise ConfigError(f"unknown initializer kind {kind!r}")


# ---------------------------------------------------------------------------
# standard corpus used by the verification suites and the tests

_DEFAULT_RES = {1: 128, 2: 64, 3: 16}


def default_fiber(dim, resolution=None, curved=False):
    """Unit torus at the standard desk resolution for the dimension.

    ``curved=True`` bends the first metric coefficient by a 20% cosine.
    """
    m = resolution or _DEFAULT_RES[dim]
    coeffs = None
    if curved:
        def G0(*coords):
            return 1.0 + 0.2 * np.cos(2.0 * np.pi * coords[0])

        coeffs = [G0] + [None] * (dim - 1)
    return FiberGrid(dim, (1.0,) * dim, (m,) * dim, metric_coeffs=coeffs)


def default_model(dim, resolution=None, twist="separable_gauss", curved=False, interval=(-1.5, 1.5)):
    """A standard model for each twist flavour used across the test suites.

    twist:
        "grw_exp"          f = exp(t)
        "grw_gauss"        f = exp(-t^2)
        "separable_gauss"  f = exp(-t^2)(1 + 0.1 cos 2 pi x_1)
        "separable_exp"    f = exp(t)(1 + 0.1 cos 2 pi x_1)
        "additive"         f = cosh(t) + 0.1 cos(2 pi x_1) (2 + t/4)
        "traveling"        f = 1 + 0.3 sin(2 pi (t + x)) (dim 1 only)
    """
    fiber = default_fiber(dim, resolution=resolution, curved=curved)
    wave = (1,) + (0,) * (dim - 1)
    ripple = TrigPolynomial.from_specs(
        [{"coeff": 1.0, "wavevec": wave}], fiber.periods
    )
    if twist == "grw_exp":
        fn = TwistedFunction("pure_time", g=TimeProfile("exp", {"rate": 1.0}))
    elif twist == "grw_gauss":
        fn = TwistedFunction("pure_time", g=TimeProfile("gauss"))
    elif twist == "separable_gauss":
        fn = TwistedFunction("separable", g=TimeProfile("gauss"), eps=0.1, s=ripple)
    elif twist == "separable_exp":
        fn = TwistedFunction(
            "separable", g=TimeProfile("exp", {"rate": 1.0}), eps=0.1, s=ripple
        )
    elif twist == "additive":
        fn = TwistedFunction(
            "additive",
            g=TimeProfile("cosh"),
            eps=0.1,
            s=ripple,
            q=TimeProfile("linear", {"a": 2.0, "b": 0.25}),
        )
    elif twist == "traveling":
        fn = TwistedFunction("traveling", amp=0.3, period=1.0)
    else:
        raise ValueError(f"unknown standard twist {twist!r}")
    return SpacetimeModel(interval, fiber, fn)


def corpus_graphs(model, count=10, seed0=100, amplitude=0.05, max_mode=None):
    """Seeded family of smooth random spacelike graphs on a model.

    Mode content is capped at one full period per axis above dimension one
    so the standard desk resolutions stay well inside the asymptotic
    second-order regime.
    """
    if max_mode is None:
        max_mode = 2 if model.fiber.dim == 1 else 1
    return [
        random_trig_graph(model, seed=seed0 + k, amplitude=amplitude, max_mode=max_mode)
        for k in range(count)
    ]
