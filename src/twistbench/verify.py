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

from . import graphs
from .conformal import (
    ConformalFactor,
    _conformal_laplacian_checks,
    static_laplacian_check,
)
from .graphs import (
    _grad_tau,
    _kit,
    _laplacian_tau_coordinate,
    _laplacian_tau_fiber,
    _mean_curvature_from_laplacian,
    _unit_normal,
    area_gradient_check,
    hyperbolic_angle,
    induced_metric,
    warped_obstruction,
)
from .identities import (
    CONVERGENCE_DEFAULTS,
    DEFAULT_QUANTITIES,
    DEFAULT_THRESHOLDS,
    IDENTITY_KINDS,
    VERIFY_DEFAULTS,
)
from .initializers import _random_modes, corpus_graphs
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
        modes = _random_modes(
            rng, grid.dim, 3, 1, lambda: float(rng.uniform(-amplitude, amplitude))
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
# identity evaluators: one scalar defect per corpus member (or sub-case).
# An identity that reads a graph's kit builds it once per graph and hands it
# to the kit-taking forms of the public one-graph functions (the same bits).

def _mean_curvature_two_path(ctx):
    defects = []
    for g in ctx.graphs:
        kit = _kit(g)
        coordinate = _mean_curvature_from_laplacian(kit, _laplacian_tau_coordinate(kit))
        defects.append(float(np.max(np.abs(kit.H - coordinate))))
    return defects


def _laplacian_tau_two_path(ctx):
    defects = []
    for g in ctx.graphs:
        kit = _kit(g)
        fiber = _laplacian_tau_fiber(kit)
        metric = kit.metric()
        # released before the per-node algebra of the coordinate path, which
        # reads only the assembled metric and u
        del kit
        coordinate = graphs.coordinate_laplacian(g.grid, metric, g.u)
        defects.append(float(np.max(np.abs(fiber - coordinate))))
    return defects


def _conformal_laplacian(ctx):
    factors = ctx.conformal_catalog()
    return [
        check.max_defect
        for j, g in enumerate(ctx.graphs)
        for check in _conformal_laplacian_checks(ctx.random_scalar(j), factors, g)
    ]


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
        grad_u = grid.gradient(u)
        lhs = grid.divergence(r[..., None] * grad_u)
        # divergence(grad_u) is grid.laplacian(u)
        rhs = grid.inner(grid.gradient(r), grad_u) + r * grid.divergence(grad_u)
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
        N0, NF = _unit_normal(kit)
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
        value = kit.rho * kit.f * np.sqrt(kit.support)
        defects.append(float(np.max(np.abs(value - 1.0))))
    return defects


def _grad_tau_contraction(ctx):
    defects = []
    for g in ctx.graphs:
        kit = _kit(g)
        gt = _grad_tau(kit)
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


# name -> check; a missing check fails the import
_REGISTRY = {name: globals()[f"_{name}"] for name in IDENTITY_KINDS}


def _names(names, default, what):
    """The identity names to run: ``default`` for None; an empty list or an
    unknown name is refused."""
    if names is None:
        return list(default)
    names = list(names)
    if not names:
        raise ValueError(f"{what} must name at least one identity")
    for name in names:
        if name not in _REGISTRY:
            raise KeyError(f"unknown identity {name!r}")
    return names


def run_identity_suite(
    model,
    count=VERIFY_DEFAULTS["corpus_count"],
    seed0=100,
    amplitude=VERIFY_DEFAULTS["amplitude"],
    identities=None,
    thresholds=None,
):
    """Evaluate the identity defects on a seeded corpus over one model.

    ``identities`` None runs every identity; a ``count`` below 1 is
    refused.  Returns a list of rows {identity, kind, max_defect,
    mean_defect, threshold, pass}; overall pass is the conjunction.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count!r}")
    names = _names(identities, _REGISTRY, "identities")
    ctx = _Context(
        model=model,
        graphs=corpus_graphs(model, count=count, seed0=seed0, amplitude=amplitude),
        seed0=seed0,
    )
    dim = model.fiber.dim
    rows = []
    for name in names:
        entry = (thresholds or {}).get(name, DEFAULT_THRESHOLDS[name])
        threshold = float(entry[dim]) if isinstance(entry, dict) else float(entry)
        # in dimension 2 the Laplacian rescaling law has no gradient coupling
        # and its two sides share their stencil arithmetic, so the defect sits
        # at roundoff and the identity is gated as exact, not by decay order
        kind = "exact" if name == "conformal_laplacian" and dim == 2 else IDENTITY_KINDS[name]
        defects = np.asarray(_REGISTRY[name](ctx), dtype=float)
        rows.append(
            {
                "identity": name,
                "kind": kind,
                "max_defect": float(defects.max()),
                "mean_defect": float(defects.mean()),
                "threshold": threshold,
                "pass": bool(defects.max() <= threshold),
                "dim": dim,
                "resolution": list(model.fiber.resolution),
            }
        )
    return rows


def run_convergence_study(
    model,
    quantities=None,
    count=CONVERGENCE_DEFAULTS["corpus_count"],
    seed0=100,
    amplitude=CONVERGENCE_DEFAULTS["amplitude"],
    factors=tuple(CONVERGENCE_DEFAULTS["factors"]),
    min_order=CONVERGENCE_DEFAULTS["min_order"],
    thresholds=None,
):
    """Refine the fiber m -> 2m -> 4m and report observed defect orders.

    Each level runs the identity suite on ``quantities`` (None for
    ``DEFAULT_QUANTITIES``).  The observed order of an "order2" identity is
    log2 of the defect drop over the finest refinement pair and must reach
    ``min_order``; "exact" identities skip the order test and are gated by
    their fixed tolerance at every level.  Fewer than two ``factors`` are
    refused.
    """
    if len(factors) < 2:
        raise ValueError(f"factors must list at least two refinement factors, got {factors!r}")
    names = _names(quantities, DEFAULT_QUANTITIES, "quantities")
    per_level = []
    for factor in factors:
        fiber = model.fiber if factor == 1 else model.fiber.refined(factor)
        refined = SpacetimeModel(model.interval, fiber, model.twist)
        per_level.append(run_identity_suite(
            refined, count=count, seed0=seed0, amplitude=amplitude, identities=names,
            thresholds=thresholds,
        ))

    levels = [level_rows[0]["resolution"] for level_rows in per_level]
    rows = []
    for i, name in enumerate(names):
        # every level has the model's fiber dimension, so its kind and gate
        kind, threshold = per_level[0][i]["kind"], per_level[0][i]["threshold"]
        defects = [level[i]["max_defect"] for level in per_level]
        row = {"identity": name, "kind": kind, "levels": levels, "defects": defects}
        if kind == "exact":
            row.update({
                "orders": None,
                "observed_order": None,
                "pass": all(d <= threshold for d in defects),
                "note": "exact identity: defect at roundoff, order test skipped",
            })
        else:
            orders = [float(np.log2(a / b)) for a, b in zip(defects, defects[1:])]
            row.update({"orders": orders, "observed_order": orders[-1],
                        "pass": bool(orders[-1] >= min_order)})
        rows.append(row)
    return rows
