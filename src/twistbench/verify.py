"""Identity verification suites and grid-refinement order studies.

Each identity is evaluated through two independent code paths and reduced
to a scalar defect per corpus member.  Identities come in two kinds:
"order2" defects shrink at second order under refinement and are gated by
calibrated thresholds, while "exact" identities hold to roundoff at every
resolution and are gated by fixed tolerances (their order study is skipped).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .conformal import (
    ConformalFactor,
    conformal_laplacian_check,
    static_laplacian_check,
)
from .graphs import (
    _kit,
    area_gradient_check,
    grad_tau,
    hyperbolic_angle,
    induced_metric,
    laplacian_tau_coordinate,
    laplacian_tau_fiber,
    mean_curvature,
    mean_curvature_from_laplacian,
    rho_field,
    unit_normal,
    warped_obstruction,
)
from .initializers import corpus_graphs
from .profiles import TimeProfile, TrigPolynomial
from .spacetime import SpacetimeModel, TwistedFunction

__all__ = [
    "IDENTITY_KINDS",
    "DEFAULT_THRESHOLDS",
    "run_identity_suite",
    "run_convergence_study",
]


_STATIC_FIELDS = ("main", "laplacian_relation", "gradient_pairing")


@dataclass
class _Context:
    model: object
    graphs: list
    seed0: int

    @cached_property
    def static_defects(self):
        """Per corpus graph, the max defect of each static-frame identity,
        keyed by its ``StaticFrameChecks`` field: one check per graph serves
        all three identities, and only the scalars are kept."""
        return [
            {name: getattr(check, name).max_defect for name in _STATIC_FIELDS}
            for check in map(static_laplacian_check, self.graphs)
        ]

    def random_scalar(self, offset, amplitude=0.4):
        grid = self.model.fiber
        rng = np.random.default_rng(self.seed0 + 7919 * offset)
        modes = []
        for _ in range(3):
            wavevec = tuple(int(k) for k in rng.integers(-1, 2, grid.dim))
            if all(k == 0 for k in wavevec):
                wavevec = (1,) + (0,) * (grid.dim - 1)
            modes.append(
                {
                    "coeff": float(rng.uniform(-amplitude, amplitude)),
                    "wavevec": wavevec,
                    "phase": float(rng.uniform(0.0, 2.0 * np.pi)),
                }
            )
        poly = TrigPolynomial.from_specs(modes, grid.periods)
        return poly.value(*grid.open_coords)

    def conformal_catalog(self):
        twist = self.model.twist
        grid = self.model.fiber
        wave = (1,) + (0,) * (grid.dim - 1)
        ripple = TrigPolynomial.from_specs(
            [{"coeff": 0.3, "wavevec": wave, "phase": 0.4}], grid.periods
        )
        return [
            ConformalFactor.constant(0.3),
            ConformalFactor.static_picture(twist),
            ConformalFactor.static_picture(twist, power=2.0),
            ConformalFactor.fiber_only(ripple),
        ]


# ---------------------------------------------------------------------------
# identity evaluators: one scalar defect per corpus member (or sub-case)

def _mean_curvature_two_path(ctx):
    return [
        float(np.max(np.abs(mean_curvature(g) - mean_curvature_from_laplacian(g))))
        for g in ctx.graphs
    ]


def _laplacian_tau_two_path(ctx):
    return [
        float(np.max(np.abs(laplacian_tau_fiber(g) - laplacian_tau_coordinate(g))))
        for g in ctx.graphs
    ]


def _conformal_laplacian(ctx):
    defects = []
    factors = ctx.conformal_catalog()
    for j, g in enumerate(ctx.graphs):
        h = ctx.random_scalar(j)
        for phi in factors:
            defects.append(conformal_laplacian_check(h, phi, g).max_defect)
    return defects


def _static_main(ctx):
    return [d["main"] for d in ctx.static_defects]


def _static_laplacian_relation(ctx):
    return [d["laplacian_relation"] for d in ctx.static_defects]


def _static_gradient_pairing(ctx):
    return [d["gradient_pairing"] for d in ctx.static_defects]


def _product_rule(ctx):
    """Discrete defect of div(r grad u) = <grad r, grad u> + r lap u."""
    grid = ctx.model.fiber
    defects = []
    for j in range(len(ctx.graphs)):
        r = 1.5 + ctx.random_scalar(101 + j)
        u = ctx.random_scalar(211 + j)
        lhs = grid.divergence(r[..., None] * grid.gradient(u))
        rhs = grid.inner(grid.gradient(r), grid.gradient(u)) + r * grid.laplacian(u)
        defects.append(float(np.max(np.abs(lhs - rhs))))
    return defects


def _fiber_gradient_accuracy(ctx):
    grid = ctx.model.fiber
    L = grid.periods[0]
    x = grid.coords[0]
    phi = np.sin(2.0 * np.pi * x / L)
    exact = (2.0 * np.pi / L) * np.cos(2.0 * np.pi * x / L) / grid.metric_diag[..., 0]
    return [float(np.max(np.abs(grid.gradient(phi)[..., 0] - exact)))]


def _spectral_diff(grid, field, axis):
    """Fourier-series derivative; exact for band-limited periodic fields and
    spectrally accurate otherwise (an independent reference for the stencils)."""
    m = grid.resolution[axis]
    freqs = 2.0 * np.pi * np.fft.fftfreq(m, d=grid.spacing[axis])
    shape = [1] * grid.dim
    shape[axis] = m
    return np.real(np.fft.ifft(1j * freqs.reshape(shape) * np.fft.fft(field, axis=axis), axis=axis))


def _spectral_laplacian(grid, phi):
    out = np.zeros(grid.shape)
    for i in range(grid.dim):
        flux = grid.sqrt_det * _spectral_diff(grid, phi, i) / grid.metric_diag[..., i]
        out += _spectral_diff(grid, flux, i)
    return out / grid.sqrt_det


def _fiber_laplacian_accuracy(ctx):
    grid = ctx.model.fiber
    L = grid.periods[0]
    phi = np.sin(2.0 * np.pi * grid.coords[0] / L)
    reference = _spectral_laplacian(grid, phi)
    return [float(np.max(np.abs(grid.laplacian(phi) - reference)))]


def _det_two_path(ctx):
    defects = []
    for g in ctx.graphs:
        m = induced_metric(g)
        defects.append(float(np.max(np.abs(m.det_direct - m.det_factored) / m.det_direct)))
    return defects


def _unit_normal_norm(ctx):
    defects = []
    for g in ctx.graphs:
        kit = _kit(g)
        N0, NF = unit_normal(g)
        norm = -N0 * N0 + kit.f ** 2 * kit.grid.inner(NF, NF)
        defects.append(float(np.max(np.abs(norm + 1.0))))
    return defects


def _hyperbolic_identity(ctx):
    defects = []
    for g in ctx.graphs:
        cosh, sinh_sq = hyperbolic_angle(g)
        defects.append(float(np.max(np.abs(cosh * cosh - sinh_sq - 1.0))))
    return defects


def _support_identity(ctx):
    defects = []
    for g in ctx.graphs:
        kit = _kit(g)
        value = rho_field(g) * kit.f * np.sqrt(kit.support)
        defects.append(float(np.max(np.abs(value - 1.0))))
    return defects


def _grad_tau_contraction(ctx):
    defects = []
    for g in ctx.graphs:
        kit = _kit(g)
        gt = grad_tau(g)
        contraction = np.einsum("...i,...ij,...j->...", gt, kit.metric(), gt)
        defects.append(float(np.max(np.abs(contraction - kit.sinh_sq))))
    return defects


def _obstruction_grw(ctx):
    """Obstruction norm on a warped companion model with the same fiber."""
    companion = SpacetimeModel(
        ctx.model.interval,
        ctx.model.fiber,
        TwistedFunction("pure_time", g=TimeProfile("gauss")),
    )
    defects = []
    for k in range(len(ctx.graphs)):
        g = corpus_graphs(companion, count=1, seed0=ctx.seed0 + k)[0]
        defects.append(warped_obstruction(g).max_norm)
    return defects


def _area_variation(ctx):
    return [
        float(area_gradient_check(g, count=20, seed=ctx.seed0 + 17 * j).rel_error.max())
        for j, g in enumerate(ctx.graphs)
    ]


_REGISTRY = {
    "mean_curvature_two_path": (_mean_curvature_two_path, "order2"),
    "laplacian_tau_two_path": (_laplacian_tau_two_path, "order2"),
    "conformal_laplacian": (_conformal_laplacian, "order2"),
    "static_main": (_static_main, "order2"),
    "static_laplacian_relation": (_static_laplacian_relation, "order2"),
    "static_gradient_pairing": (_static_gradient_pairing, "order2"),
    "product_rule": (_product_rule, "order2"),
    "fiber_gradient_accuracy": (_fiber_gradient_accuracy, "order2"),
    "fiber_laplacian_accuracy": (_fiber_laplacian_accuracy, "order2"),
    "det_two_path": (_det_two_path, "exact"),
    "unit_normal_norm": (_unit_normal_norm, "exact"),
    "hyperbolic_identity": (_hyperbolic_identity, "exact"),
    "support_identity": (_support_identity, "exact"),
    "grad_tau_contraction": (_grad_tau_contraction, "exact"),
    "obstruction_grw": (_obstruction_grw, "exact"),
    "area_variation": (_area_variation, "exact"),
}

IDENTITY_KINDS = {name: kind for name, (_, kind) in _REGISTRY.items()}

# Order2 thresholds were measured on the standard corpus at the desk
# resolutions (128 / 64^2 / 16^3) and carry roughly 20x headroom, keyed by
# fiber dimension since the constants grow with it; exact entries use the
# pointwise tolerances.  Runs at other resolutions should supply their own
# thresholds through the config.
DEFAULT_THRESHOLDS = {
    "mean_curvature_two_path": {1: 1e-2, 2: 1e-2, 3: 2e-1},
    "laplacian_tau_two_path": {1: 2e-2, 2: 2e-3, 3: 3e-1},
    "conformal_laplacian": {1: 3e-1, 2: 1e-10, 3: 3e1},
    "static_main": {1: 2e-2, 2: 2e-2, 3: 3e-1},
    "static_laplacian_relation": {1: 1e-2, 2: 2e-3, 3: 2e-1},
    "static_gradient_pairing": {1: 1e-3, 2: 2e-3, 3: 5e-2},
    "product_rule": {1: 3e-1, 2: 1.0, 3: 3e1},
    "fiber_gradient_accuracy": {1: 5e-2, 2: 2e-1, 3: 3.0},
    "fiber_laplacian_accuracy": {1: 6e-1, 2: 3.0, 3: 4e1},
    "det_two_path": 1e-10,
    "unit_normal_norm": 1e-10,
    "hyperbolic_identity": 1e-12,
    "support_identity": 1e-12,
    "grad_tau_contraction": 1e-10,
    "obstruction_grw": 1e-10,
    "area_variation": 1e-5,
}


def _kind_and_threshold(name, dim, table):
    """Identity kind and gate, resolving the dimension-2 conformal special case.

    In dimension 2 the Laplacian rescaling law has no gradient coupling and
    the two sides share their stencil arithmetic, so the defect sits at
    roundoff and the identity is gated as exact instead of by decay order.
    """
    kind = _REGISTRY[name][1]
    entry = table[name]
    threshold = float(entry[dim]) if isinstance(entry, dict) else float(entry)
    if name == "conformal_laplacian" and dim == 2:
        kind = "exact"
    return kind, threshold


def run_identity_suite(
    model, count=5, seed0=100, amplitude=0.05, identities=None, thresholds=None
):
    """Evaluate the identity defects on a seeded corpus over one model.

    Returns a list of rows {identity, kind, max_defect, mean_defect,
    threshold, pass}; overall pass is the conjunction.
    """
    names = list(identities) if identities else list(_REGISTRY)
    table = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        table.update(thresholds)
    ctx = _Context(
        model=model,
        graphs=corpus_graphs(model, count=count, seed0=seed0, amplitude=amplitude),
        seed0=seed0,
    )
    rows = []
    for name in names:
        if name not in _REGISTRY:
            raise KeyError(f"unknown identity {name!r}")
        func, _ = _REGISTRY[name]
        kind, threshold = _kind_and_threshold(name, model.fiber.dim, table)
        defects = np.asarray(func(ctx), dtype=float)
        rows.append(
            {
                "identity": name,
                "kind": kind,
                "max_defect": float(defects.max()),
                "mean_defect": float(defects.mean()),
                "threshold": threshold,
                "pass": bool(defects.max() <= threshold),
                "dim": model.fiber.dim,
                "resolution": list(model.fiber.resolution),
            }
        )
    return rows


def run_convergence_study(
    model,
    quantities=None,
    count=3,
    seed0=100,
    amplitude=0.05,
    factors=(1, 2, 4),
    min_order=1.9,
    thresholds=None,
):
    """Refine the fiber m -> 2m -> 4m and report observed defect orders.

    The observed order of an "order2" identity is log2 of the defect drop
    over the finest refinement pair and must reach ``min_order``; "exact"
    identities skip the order test and are gated by their fixed tolerance at
    every level.
    """
    names = list(quantities) if quantities else [
        "mean_curvature_two_path",
        "laplacian_tau_two_path",
        "conformal_laplacian",
        "static_main",
        "support_identity",
    ]
    table = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        table.update(thresholds)

    per_level = []
    levels = []
    for factor in factors:
        fiber = model.fiber if factor == 1 else model.fiber.refined(factor)
        refined = SpacetimeModel(model.interval, fiber, model.twist)
        levels.append(list(fiber.resolution))
        ctx = _Context(
            model=refined,
            graphs=corpus_graphs(refined, count=count, seed0=seed0, amplitude=amplitude),
            seed0=seed0,
        )
        level_defects = {}
        for name in names:
            func, _ = _REGISTRY[name]
            level_defects[name] = float(np.max(func(ctx)))
        per_level.append(level_defects)

    rows = []
    for name in names:
        kind, threshold = _kind_and_threshold(name, model.fiber.dim, table)
        defects = [lvl[name] for lvl in per_level]
        if kind == "exact":
            ok = all(d <= threshold for d in defects)
            rows.append(
                {
                    "identity": name,
                    "kind": kind,
                    "levels": levels,
                    "defects": defects,
                    "orders": None,
                    "observed_order": None,
                    "pass": bool(ok),
                    "note": "exact identity: defect at roundoff, order test skipped",
                }
            )
            continue
        orders = [
            float(np.log2(defects[k] / defects[k + 1]))
            for k in range(len(defects) - 1)
        ]
        observed = orders[-1]
        rows.append(
            {
                "identity": name,
                "kind": kind,
                "levels": levels,
                "defects": defects,
                "orders": orders,
                "observed_order": observed,
                "pass": bool(observed >= min_order),
            }
        )
    return rows
