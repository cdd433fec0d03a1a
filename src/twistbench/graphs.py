"""Geometry of spacelike graphs over the fiber.

A graph hangs a scalar field u over the torus fiber inside a twisted model;
it is spacelike exactly when |grad_F u| < f along itself.  This module
computes the induced metric, the boost (hyperbolic angle) against the
comoving observers, the time-height Laplacian, the mean curvature, and the
warped-obstruction field, each with an independent second computational
path where the workbench verifies identities.

Sign conventions: the unit normal N is future directed, the shape operator
is A(X) = -D_X N and the mean curvature is H = -(1/n) trace A, so a level
slice {t = t0} has H = d/dt log f (t0, x).  The slice case pins every sign
in this module.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, SpacelikeError
from .fiber_grid import component_array, component_sum

__all__ = [
    "GraphField",
    "GeometryReport",
    "spacelike_margin",
    "spacelike_check",
    "rho_field",
    "hyperbolic_angle",
    "induced_metric",
    "grad_tau",
    "laplacian_tau_fiber",
    "laplacian_tau_coordinate",
    "coordinate_laplacian",
    "mean_curvature",
    "mean_curvature_from_laplacian",
    "unit_normal",
    "warped_obstruction",
    "area",
    "area_gradient_check",
    "slice_condition_report",
    "geometry_report",
]

ILL_CONDITIONED_MARGIN = 0.95  # nodes with margin above this get flagged


@dataclass
class GraphField:
    """Scalar field u : F -> I defining the graph {(u(p), p)}."""

    model: object
    u: np.ndarray

    def __post_init__(self):
        grid = self.model.fiber
        self.u = grid.check_scalar(self.u, "graph function u")
        t_min, t_max = self.model.interval
        if float(self.u.min()) <= t_min or float(self.u.max()) >= t_max:
            raise DomainError(
                "graph values must lie strictly inside the open interval "
                f"({t_min:g}, {t_max:g})"
            )

    @property
    def grid(self):
        return self.model.fiber

    @staticmethod
    def constant(model, t0):
        t0 = float(model.require_inside(t0, "slice time t0"))
        return GraphField(model, np.full(model.fiber.shape, t0))


class _Kit:
    """Shared per-graph quantities; one stencil pass feeding every operation.

    Construction computes f, the gradient of u, the spacelike support and
    rho, which every operation reads.  Everything else is computed on first
    read and then kept: the margin, the boost, the mean curvature and the
    twist's derivatives along the graph, which the kit reads from the
    twist's evaluator along u (``TwistedFunction.along``).  Operations that
    need only f (the induced metric, the boost, the time-height Laplacian)
    never pay for d/dt f or the fiber partials.

    The kit reads the heights ``u`` and, unless ``du`` gives it, their
    covector D_i u.  A given covector makes the kit pointwise: every
    quantity but H is then a function of (u, du) node by node, which is
    what the solver's Jacobian differentiates.  Kits at the same heights
    may share one evaluator through ``twist`` (``model.twist.along(u,
    grid)``).  The heights are not checked against the model's interval;
    ``GraphField`` does that.
    """

    def __init__(self, model, u, du=None, require_spacelike=True, twist=None):
        grid = model.fiber

        self.grid = grid
        self.n = grid.dim
        self.u = u
        # dtf and fiber_df read it too
        self._twist = model.twist.along(u, grid) if twist is None else twist
        self.f = self._twist.f

        self.du = grid.partials(u) if du is None else du  # covector D_i u
        self.grad_u = self.du / grid.metric_diag         # contravariant
        self.grad_u_sq = grid.inner(self.grad_u, self.grad_u)
        self.support = self.f * self.f - self.grad_u_sq  # f^2 - |grad u|^2

        if require_spacelike and np.any(self.support <= 0.0):
            worst = tuple(
                int(i) for i in np.unravel_index(int(np.argmax(self.mu)), grid.shape)
            )
            coords = tuple(float(ax[i]) for ax, i in zip(grid.axes, worst))
            raise SpacelikeError(
                f"graph is not spacelike: margin {float(self.mu.max()):.6g} >= 1 "
                f"at node {worst} (coordinates {coords})",
                worst_index=worst,
                worst_coords=coords,
                margin=float(self.mu.max()),
            )

        with np.errstate(invalid="ignore", divide="ignore"):
            self.rho = 1.0 / (self.f * np.sqrt(self.support))

    @cached_property
    def dtf(self):
        """d/dt f along the graph."""
        return self._twist.dt

    @cached_property
    def dlogf(self):
        """d/dt log f along the graph."""
        return self.dtf / self.f

    @cached_property
    def fiber_df(self):
        """Exact fiber partials of f along the graph."""
        return self._twist.partials

    @cached_property
    def mu(self):
        """Spacelike margin |grad_F u| / f."""
        return np.sqrt(self.grad_u_sq) / self.f

    @cached_property
    def cosh(self):
        """cosh theta = f^2 rho."""
        return self.f * self.f * self.rho

    @cached_property
    def sinh_sq(self):
        """sinh^2 theta = f^2 rho^2 |grad_F u|^2."""
        return (self.f * self.rho) ** 2 * self.grad_u_sq

    @cached_property
    def H(self):
        """Mean curvature, fiber form (``mean_curvature``)."""
        return _mean_curvature(self)

    def flux(self):
        """rho grad_F u, the field whose fiber divergence is the first term
        of n H."""
        return self.rho[..., None] * self.grad_u

    def curvature_terms(self):
        """The pointwise terms of n H, in the order it adds them:
        f^2 rho (n + |grad_F u|^2 / f^2) d/dt log f, then
        n rho g_F(grad_F log f, grad_F u)."""
        n = self.n
        middle = self.f ** 2 * self.rho * (n + self.grad_u_sq / self.f ** 2) * self.dlogf
        twist_pairing = n * self.rho * component_sum(
            (self.fiber_df / self.f[..., None]) * self.grad_u
        )
        return middle, twist_pairing

    def metric(self):
        """Induced metric matrices g_ij = -D_i u D_j u + f^2 (g_F)_ij, stored
        component by component (``component_array``), one entry at a time."""
        n, du = self.n, self.du
        g = component_array(self.grid.shape, n, n)
        f_sq = self.f * self.f
        for i in range(n):
            for j in range(i):
                g[..., i, j] = g[..., j, i]  # D_j u D_i u, the same product
            for j in range(i, n):
                entry = g[..., i, j]
                np.multiply(du[..., i], du[..., j], out=entry)
                # 0 - x rather than -x: zero off-diagonal products stay +0.0
                np.subtract(0.0, entry, out=entry)
                if i == j:
                    entry += f_sq * self.grid.metric_diag[..., i]
        return g

    def det_factored(self):
        """det g via the closed form rho^-2 f^(2n-4) det g_F."""
        return self.rho ** -2 * self.f ** (2 * self.n - 4) * self.grid.det_metric

    def composed_df(self):
        """Covector of the composed differential d(f o graph) on the fiber.

        Chain rule with the discrete D_i u and the exact fiber partials of f.
        """
        return self.dtf[..., None] * self.du + self.fiber_df


def _kit(graph, require_spacelike=True):
    return _Kit(graph.model, graph.u, require_spacelike=require_spacelike)


# ---------------------------------------------------------------------------
# per-node algebra of assembled n x n metrics, n = 1, 2, 3 (FiberGrid's range)

def _small_det(g):
    """Per-node determinant of ``g`` (shape ``+ (n, n)``) by cofactor expansion."""
    n = g.shape[-1]
    if n == 1:
        return g[..., 0, 0].copy()
    if n == 2:
        return g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    # expansion along the first row
    det = g[..., 0, 0] * (g[..., 1, 1] * g[..., 2, 2] - g[..., 1, 2] * g[..., 2, 1])
    det -= g[..., 0, 1] * (g[..., 1, 0] * g[..., 2, 2] - g[..., 1, 2] * g[..., 2, 0])
    det += g[..., 0, 2] * (g[..., 1, 0] * g[..., 2, 1] - g[..., 1, 1] * g[..., 2, 0])
    return det


def _small_solve(g, v, det):
    """Per-node solution x of g x = v through the adjugate: x = adj(g) v / det.

    ``v`` has shape ``+ (n,)`` and ``det`` is ``_small_det(g)``.  No symmetry
    of ``g`` is assumed.  Each output component is accumulated from the
    cofactors of one column of ``g``, so no n x n intermediate is formed;
    ``x`` is stored component by component.  For n = 3 the cofactor
    products go into two node arrays reused for all nine cofactors.
    """
    n = g.shape[-1]
    x = component_array(v.shape[:-1], n)
    if n == 1:
        np.divide(v[..., 0], g[..., 0, 0], out=x[..., 0])
        return x
    if n == 2:
        a, b, c, d = g[..., 0, 0], g[..., 0, 1], g[..., 1, 0], g[..., 1, 1]
        v0, v1 = v[..., 0], v[..., 1]
        np.divide(d * v0 - b * v1, det, out=x[..., 0])
        np.divide(a * v1 - c * v0, det, out=x[..., 1])
        return x
    cof, product = np.empty(det.shape), np.empty(det.shape)
    for i in range(3):
        # x_i = sum_j C_ji v_j / det, with C_ji the cofactor of entry (j, i):
        # the 2 x 2 minor on the other rows p, q and columns k, l, taken in
        # cyclic order, which carries the sign (-1)^(i+j)
        k, l = (i + 1) % 3, (i + 2) % 3
        acc = x[..., i]
        for j in range(3):
            p, q = (j + 1) % 3, (j + 2) % 3
            term = cof if j else acc  # the first term is written in place
            np.multiply(g[..., p, k], g[..., q, l], out=term)
            np.multiply(g[..., p, l], g[..., q, k], out=product)
            term -= product
            term *= v[..., j]
            if j:
                acc += term
        acc /= det
    return x


# ---------------------------------------------------------------------------
# causal character

def spacelike_margin(graph):
    """Margin field mu = |grad_F u| / f; the graph is spacelike iff max < 1."""
    return _kit(graph, require_spacelike=False).mu


def spacelike_check(graph):
    """Return (is_spacelike, margin field).

    Cross-validates the margin criterion against positive definiteness of
    the assembled induced metric (smallest eigenvalue per node); the two are
    algebraically equivalent and must give the same verdict.
    """
    kit = _kit(graph, require_spacelike=False)
    ok = bool(kit.mu.max() < 1.0)
    min_eig = np.linalg.eigvalsh(kit.metric())[..., 0]
    eig_ok = bool(np.all(min_eig > 0.0))
    if ok != eig_ok:
        raise RuntimeError(
            "internal inconsistency: margin and metric-eigenvalue spacelike "
            f"verdicts disagree (margin max {kit.mu.max():.17g})"
        )
    return ok, kit.mu


def rho_field(graph):
    """Density 1/(f sqrt(f^2 - |grad_F u|^2)) tying fiber and graph calculus."""
    return _kit(graph).rho


def hyperbolic_angle(graph):
    """Boost of the graph normal against the comoving observers.

    Returns (cosh theta, sinh^2 theta) with cosh theta = f^2 rho and
    sinh^2 theta = f^2 rho^2 |grad_F u|^2; cosh^2 - sinh^2 = 1 identically.
    """
    kit = _kit(graph)
    return kit.cosh, kit.sinh_sq


@dataclass
class InducedMetric:
    matrix: np.ndarray        # shape + (n, n)
    det_direct: np.ndarray    # per-node determinant of `matrix`
    det_factored: np.ndarray  # closed-form rho^-2 f^(2n-4) det g_F


def induced_metric(graph):
    """Assemble the induced metric with its determinant computed two ways."""
    kit = _kit(graph)
    g = kit.metric()
    return InducedMetric(
        matrix=g,
        det_direct=_small_det(g),
        det_factored=kit.det_factored(),
    )


# ---------------------------------------------------------------------------
# time-height calculus

def grad_tau(graph):
    """Graph gradient of the time-height function: f^2 rho^2 (grad_F u)^i."""
    return _grad_tau(_kit(graph))


def _grad_tau(kit):
    """``grad_tau`` from a kit the caller already holds."""
    return ((kit.f * kit.rho) ** 2)[..., None] * kit.grad_u


def coordinate_laplacian(grid, metric, phi):
    """Divergence-form Laplacian of phi for an arbitrary per-node metric.

    lap phi = det(g)^{-1/2} sum_i D_i( det(g)^{1/2} (g^{-1} d phi)^i ).

    det g and g^{-1} d phi come from the closed-form cofactor expansion and
    adjugate of each node's matrix, a generic inverse that reads nothing but
    ``metric``.
    """
    return _coordinate_laplacian(grid, metric, phi)[0]


def _coordinate_laplacian(grid, metric, phi):
    """(``coordinate_laplacian``, the metric gradient g^{-1} d phi it takes
    the divergence of), for a caller that pairs the gradient as well."""
    det = _small_det(metric)
    if np.any(det <= 0.0):
        raise ValueError("metric must be positive definite for the coordinate Laplacian")
    X = _small_solve(metric, grid.partials(phi), det)
    sq = np.sqrt(det)
    out = np.zeros(grid.shape)
    for i in range(grid.dim):
        out += grid.diff(sq * X[..., i], axis=i)
    return out / sq, X


def laplacian_tau_fiber(graph):
    """Time-height Laplacian written in fiber calculus.

    lap tau = rho f^(2-n) g_F(grad_F(rho f^n), grad_F u) + rho^2 f^2 lap_F u.
    """
    return _laplacian_tau_fiber(_kit(graph))


def _laplacian_tau_fiber(kit):
    """``laplacian_tau_fiber`` from a kit the caller already holds."""
    grid = kit.grid
    weight = kit.rho * kit.f ** kit.n
    term1 = kit.rho * kit.f ** (2 - kit.n) * grid.inner(grid.gradient(weight), kit.grad_u)
    term2 = (kit.rho * kit.f) ** 2 * grid.laplacian(kit.u)
    return term1 + term2


def laplacian_tau_coordinate(graph):
    """Independent path: coordinate Laplacian of u under the induced metric.

    Assembles g per node, takes its determinant and solves for the metric
    gradient by the adjugate of each assembled matrix (not via the closed
    form rho^-2 f^(2n-4) det g_F) and applies the divergence-form stencil
    with weight sqrt(det g).  The kit is released before the per-node
    algebra.
    """
    return coordinate_laplacian(graph.grid, _kit(graph).metric(), graph.u)


def _laplacian_tau_coordinate(kit):
    """``laplacian_tau_coordinate`` from a kit the caller already holds; the
    coordinate path reads only the kit's assembled metric and u."""
    return coordinate_laplacian(kit.grid, kit.metric(), kit.u)


# ---------------------------------------------------------------------------
# curvature

def mean_curvature(graph):
    """Mean curvature of the graph along its future unit normal.

    n H = div_F(rho grad_F u)
        + f^2 rho (n + |grad_F u|^2 / f^2) d/dt log f
        + n rho g_F(grad_F log f, grad_F u),

    everything evaluated along the graph; the last term pairs the exact
    fiber partials of log f with the discrete gradient of u.  On a level
    slice all gradient terms vanish identically and H reduces to
    d/dt log f (t0, x) exactly.
    """
    return _mean_curvature(_kit(graph))


def _mean_curvature(kit):
    """``mean_curvature`` from a kit the caller already holds."""
    div = kit.grid.divergence(kit.flux())
    middle, twist_pairing = kit.curvature_terms()
    return (div + middle + twist_pairing) / kit.n


def _variational_mean_curvature(kit):
    """Conservation-form H whose discrete area pairing is exact.

    Regroups the divergence and twist-gradient terms of the curvature
    formula into the single flux D_i(sqrt(det g_F) f^n rho (grad_F u)^i)
    plus rho (n f^2 - (n-1)|grad_F u|^2) d/dt log f.  Algebraically the same
    continuum operator as ``mean_curvature``; discretely it is the exact
    functional gradient of the area sum, which the variational check needs.
    """
    grid = kit.grid
    n = kit.n
    flux = grid.sqrt_det[..., None] * (kit.f ** n * kit.rho)[..., None] * kit.grad_u
    div = np.zeros(grid.shape)
    for i in range(n):
        div += grid.diff(flux[..., i], axis=i)
    div /= grid.sqrt_det * kit.f ** n
    pointwise = kit.rho * (n * kit.f ** 2 - (n - 1) * kit.grad_u_sq) * kit.dlogf
    return (div + pointwise) / n


def mean_curvature_from_laplacian(graph):
    """Second path: solve the ambient Laplacian identity for H.

    H = (lap tau + (n + sinh^2 theta) d/dt log f) / (n cosh theta), with
    lap tau from the coordinate path, hence fully independent of the
    fiber-form flux evaluation above.
    """
    kit = _kit(graph)
    return _mean_curvature_from_laplacian(kit, _laplacian_tau_coordinate(kit))


def _mean_curvature_from_laplacian(kit, lap):
    """``mean_curvature_from_laplacian`` from a kit and the coordinate-path
    time-height Laplacian ``lap`` of its graph."""
    return (lap + (kit.n + kit.sinh_sq) * kit.dlogf) / (kit.n * kit.cosh)


def unit_normal(graph):
    """Future unit normal split into time and fiber components.

    Returns (N0, NF) with N0 = cosh theta = f^2 rho and NF^i = rho (grad_F u)^i;
    the ambient norm -N0^2 + f^2 |NF|^2 equals -1 pointwise.
    """
    return _unit_normal(_kit(graph))


def _unit_normal(kit):
    """``unit_normal`` from a kit the caller already holds."""
    return kit.cosh.copy(), kit.rho[..., None] * kit.grad_u


@dataclass
class ObstructionResult:
    components: np.ndarray  # shape + (n,), graph coordinate frame
    norm: np.ndarray        # per-node induced-metric norm
    max_norm: float


def warped_obstruction(graph):
    """Tangential field -(d/dt f) grad tau + grad f and its metric norm.

    grad tau comes from the closed form; grad f is the induced-metric
    gradient of the composed field p -> f(u(p), p) obtained by per-node
    inversion.  The field vanishes identically exactly when the twist has no
    fiber dependence, so its sup norm is a numerical warped-versus-twisted
    detector.
    """
    kit = _kit(graph)
    return _warped_obstruction(kit, kit.metric())


def _warped_obstruction(kit, g):
    """``warped_obstruction`` from a kit and its assembled metric ``g``."""
    grad_f = _small_solve(g, kit.composed_df(), _small_det(g))
    X = -kit.dtf[..., None] * _grad_tau(kit) + grad_f
    norm_sq = np.einsum("...i,...ij,...j->...", X, g, X)
    norm = np.sqrt(np.maximum(norm_sq, 0.0))
    return ObstructionResult(components=X, norm=norm, max_norm=float(norm.max()))


# ---------------------------------------------------------------------------
# area functional

def area(graph):
    """Total area of the graph: sum of sqrt(det g) times the cell volume."""
    return _area(_kit(graph))


def _area(kit):
    return float(np.sum(np.sqrt(kit.det_factored())) * kit.grid.cell_volume)


def _area_density(f, du, metric_diag, sqrt_det, dim):
    """Area density f^(n-1) sqrt(f^2 - |D u|^2) sqrt(det g_F) node by node,
    and the mask of nodes where f^2 - |D u|^2 <= 0 (NaN density where it is
    negative).

    Every operation is pointwise, so a gather of nodes gets the bits the
    whole grid has at them.
    """
    support = f * f - component_sum(du * du / metric_diag)
    with np.errstate(invalid="ignore"):
        density = f ** (dim - 1) * np.sqrt(support) * sqrt_det
    return density, support <= 0.0


@dataclass
class AreaGradientCheck:
    nodes: list
    fd_gradient: np.ndarray
    predicted: np.ndarray
    rel_error: np.ndarray


def area_gradient_check(graph, count=20, seed=0, step=1e-5):
    """Check the first variation of the area at randomly sampled nodes.

    The centered finite difference of the area with respect to a single
    node value must match n H cosh(theta) sqrt(det g) times the cell
    volume, with H in the conservation form that is the exact discrete
    functional gradient of the area sum; relative errors are measured
    against the largest sampled prediction.  The slice case
    d(area)/dt0 = sum n (d/dt log f) f^n sqrt(det g_F) h pins the sign.

    Moving node x by +-step changes the area density only on x's window:
    x itself, where f moves, and its 2n neighbours x +- e_i, whose centred
    differences read u at x.  The density of u is computed once, and each
    moved area recomputes it on the window alone: f at x from one twist
    evaluation per sign with every sampled node moved (f is pointwise in
    t), D u from the window's neighbours with x alone moved.  The sums stay
    over the whole grid, the window's entries replaced: ``np.sum`` adds
    pairwise over the grid, so a total rebuilt from a window-sized change
    would round differently, and the differences of whole-grid sums are
    bitwise those of two full area evaluations per node.  Raises
    ``SpacelikeError`` if a moved copy leaves the spacelike regime.
    """
    kit = _kit(graph)
    grid = kit.grid
    n = kit.n
    rng = np.random.default_rng(seed)
    flat = rng.choice(grid.n_nodes, size=min(count, grid.n_nodes), replace=False)
    centres = np.unravel_index(flat, grid.shape)
    nodes = list(zip(*centres))

    predicted_field = (
        kit.n
        * _variational_mean_curvature(kit)
        * kit.cosh
        * np.sqrt(kit.det_factored())
        * grid.cell_volume
    )
    predicted = predicted_field[centres]

    # the window of each sampled node, (count, 2n + 1) lattice points: the
    # node, then its neighbours +e_0 .. +e_(n-1), then -e_0 .. -e_(n-1)
    unit = np.eye(n, dtype=int)
    lattice = np.stack(centres, axis=-1)[:, None, :] + np.concatenate(
        [np.zeros((1, n), dtype=int), unit, -unit]
    )

    def at(points):
        """Index tuple of lattice points, wrapped onto the torus."""
        return tuple(np.moveaxis(points % grid.shape, -1, 0))

    window = at(lattice)
    # u at the neighbours each window node's centred differences read
    behind = [graph.u[at(lattice - unit[i])] for i in range(n)]
    ahead = [graph.u[at(lattice + unit[i])] for i in range(n)]

    density, outside = _area_density(kit.f, kit.du, grid.metric_diag, grid.sqrt_det, n)
    metric_diag, sqrt_det = grid.metric_diag[window], grid.sqrt_det[window]
    f = kit.f[window]
    du = np.empty(f.shape + (n,))
    # a moved copy keeps u's nodes outside the window as they are
    left_regime = np.count_nonzero(outside) > np.sum(outside[window], axis=-1)
    moved_densities = []
    for delta in (step, -step):
        moved = graph.u.copy()
        moved[centres] += delta
        moved_centres = moved[centres]
        f[:, 0] = graph.model.twist.value(moved, grid)[centres]
        for i in range(n):
            # x - e_i reads x ahead of it, x + e_i reads x behind it
            ahead[i][:, n + 1 + i] = moved_centres
            behind[i][:, 1 + i] = moved_centres
            du[..., i] = (ahead[i] - behind[i]) / (2.0 * grid.spacing[i])
        moved_density, moved_outside = _area_density(f, du, metric_diag, sqrt_det, n)
        left_regime |= moved_outside.any(axis=-1)
        moved_densities.append(moved_density)
    if left_regime.any():
        raise SpacelikeError("area evaluation left the spacelike regime")

    work = density.copy()
    areas = np.empty((2, len(nodes)))
    for j in range(len(nodes)):
        cells = tuple(axis[j] for axis in window)
        for k, moved_density in enumerate(moved_densities):
            work[cells] = moved_density[j]
            areas[k, j] = np.sum(work) * grid.cell_volume
        work[cells] = density[cells]
    fd = (areas[0] - areas[1]) / (2.0 * step)
    scale = float(np.max(np.abs(predicted)))
    rel = np.abs(fd - predicted) / max(scale, 1e-300)
    return AreaGradientCheck(nodes=nodes, fd_gradient=fd, predicted=predicted, rel_error=rel)


# ---------------------------------------------------------------------------
# slice rigidity conditions

@dataclass
class SliceConditionReport:
    """Evaluation of the expanding/contracting bound that forces slices.

    The hypothesis pairs are: expanding side, d/dt f >= 0 together with
    d/dt(log f) - H cosh(theta) >= 0 at every node (so that the time-height
    Laplacian is one-signed); contracting side, both reversed.  Level
    slices sit exactly at equality.  When one pair holds at every node of a
    compact graph, the graph must be a level slice; consumers assert the
    constancy defect accordingly.
    """

    expanding_case: bool
    contracting_case: bool
    slice_expected: bool
    constancy_defect: float
    dtf_range: tuple
    bound_gap_min: float      # min over nodes of d/dt(log f) - H cosh(theta)
    bound_gap_max: float      # max over nodes of the same quantity


def slice_condition_report(graph, tol=1e-12):
    kit = _kit(graph)
    gap = kit.dlogf - kit.H * kit.cosh
    expanding_case = bool(np.all(kit.dtf >= -tol) and np.all(gap >= -tol))
    contracting_case = bool(np.all(kit.dtf <= tol) and np.all(gap <= tol))
    return SliceConditionReport(
        expanding_case=expanding_case,
        contracting_case=contracting_case,
        slice_expected=expanding_case or contracting_case,
        constancy_defect=float(graph.u.max() - graph.u.min()),
        dtf_range=(float(kit.dtf.min()), float(kit.dtf.max())),
        bound_gap_min=float(gap.min()),
        bound_gap_max=float(gap.max()),
    )


# ---------------------------------------------------------------------------
# aggregate report

@dataclass
class GeometryReport:
    """Per-node geometric inventory of one spacelike graph."""

    graph: GraphField
    margin: np.ndarray
    rho: np.ndarray
    cosh_theta: np.ndarray
    sinh_sq: np.ndarray
    mean_curvature: np.ndarray
    laplacian_tau: np.ndarray
    metric: np.ndarray
    det_direct: np.ndarray
    det_factored: np.ndarray
    area_element: np.ndarray
    obstruction: np.ndarray
    obstruction_norm: np.ndarray
    ill_conditioned: np.ndarray
    area: float

    def summary(self):
        u = self.graph.u
        return {
            "nodes": int(u.size),
            "u": _min_mean_max(u),
            "margin": _min_mean_max(self.margin),
            "rho": _min_mean_max(self.rho),
            "cosh_theta": _min_mean_max(self.cosh_theta),
            "mean_curvature": _min_mean_max(self.mean_curvature),
            "laplacian_tau": _min_mean_max(self.laplacian_tau),
            "obstruction_norm_max": float(self.obstruction_norm.max()),
            "det_two_path_rel_defect": float(
                np.max(np.abs(self.det_direct - self.det_factored) / self.det_direct)
            ),
            "area": self.area,
            "ill_conditioned_nodes": int(np.count_nonzero(self.ill_conditioned)),
        }


def _min_mean_max(arr):
    return {"min": float(arr.min()), "mean": float(arr.mean()), "max": float(arr.max())}


def geometry_report(graph):
    kit = _kit(graph)
    g = kit.metric()
    det_factored = kit.det_factored()
    obstruction = _warped_obstruction(kit, g)
    return GeometryReport(
        graph=graph,
        margin=kit.mu,
        rho=kit.rho,
        cosh_theta=kit.cosh,
        sinh_sq=kit.sinh_sq,
        mean_curvature=kit.H,
        laplacian_tau=_laplacian_tau_fiber(kit),
        metric=g,
        det_direct=_small_det(g),
        det_factored=det_factored,
        area_element=np.sqrt(det_factored),
        obstruction=obstruction.components,
        obstruction_norm=obstruction.norm,
        ill_conditioned=kit.mu > ILL_CONDITIONED_MARGIN,
        area=float(np.sum(np.sqrt(det_factored)) * kit.grid.cell_volume),
    )
