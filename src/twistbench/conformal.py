"""Conformal rescaling laws, verified as executable identities.

Under g -> e^{2 phi} g a hypersurface keeps its umbilic character, its mean
curvature transforms as H' = e^{-phi}(H + g(N, grad phi)), and Laplacians
of functions pick up a (n-2) gradient coupling.  Every operation here
evaluates both sides of such a law through genuinely different code paths
and returns the pointwise defect, so the identities double as discretization
diagnostics.  The factor phi = -log f produces the static picture in which
level slices become totally geodesic; that special case is wired in as its
own check.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fiber_grid import component_array, component_sum
from .graphs import (
    _coordinate_laplacian,
    _kit,
    _laplacian_tau_fiber,
    _small_det,
    _small_solve,
    coordinate_laplacian,
)
from .profiles import TrigPolynomial

__all__ = [
    "ConformalFactor",
    "ConformalCheck",
    "StaticFrameChecks",
    "transform_mean_curvature",
    "slice_shape_transform",
    "conformal_laplacian_check",
    "static_laplacian_check",
    "maximal_power_check",
]

def _shape(t, grid):
    return np.broadcast(np.asarray(t), grid.coords[0]).shape


def _fiber_only_partials(phi, t, grid):
    """d_F phi of a fiber factor: the profile's partials at each time."""
    out = component_array(_shape(t, grid), grid.dim, zeros=True)
    for i in range(grid.dim):
        out[..., i] = grid.sample(phi.fiber_profile, i)
    return out


def _of_twist(formula):
    """A neg_log_twist part: ``formula(power, along)`` on one evaluation of
    the twist at (t, grid)."""
    return lambda phi, t, grid: formula(phi.power, phi.twist.along(t, grid))


# kind -> (phi, d/dt phi, d_F phi), each a function of (factor, t, grid)
_KINDS = {
    # phi = c
    "constant": (
        lambda phi, t, grid: np.full(_shape(t, grid), phi.const),
        lambda phi, t, grid: np.zeros(_shape(t, grid)),
        lambda phi, t, grid: component_array(_shape(t, grid), grid.dim, zeros=True),
    ),
    # phi = -power log f (power 1 is the static picture)
    "neg_log_twist": (
        _of_twist(lambda p, along: -p * np.log(along.f)),
        _of_twist(lambda p, along: -p * (along.dt / along.f)),
        _of_twist(lambda p, along: -p * along.partials / along.f[..., None]),
    ),
    # phi = s(x), a fiber-only trig polynomial
    "fiber": (
        lambda phi, t, grid: np.broadcast_to(
            grid.sample(phi.fiber_profile), _shape(t, grid)).copy(),
        lambda phi, t, grid: np.zeros(_shape(t, grid)),
        _fiber_only_partials,
    ),
}


class ConformalFactor:
    """Closed-form conformal exponent phi on the spacetime, of a kind in
    ``_KINDS``."""

    def __init__(self, kind, value=0.0, power=1.0, twist=None, fiber_profile=None):
        if kind not in _KINDS:
            raise ValueError(f"unknown conformal factor kind {kind!r}")
        self.kind = kind
        self.const = float(value)
        self.power = float(power)
        self.twist = twist
        self.fiber_profile = fiber_profile
        if kind == "neg_log_twist" and twist is None:
            raise ValueError("neg_log_twist factor needs the twist function")
        if kind == "fiber" and not isinstance(fiber_profile, TrigPolynomial):
            raise ValueError("fiber factor needs a TrigPolynomial")

    @staticmethod
    def constant(c):
        return ConformalFactor("constant", value=c)

    @staticmethod
    def static_picture(twist, power=1.0):
        """phi = -power log f; power 1 rescales the model onto -f^-2 dt^2 + g_F."""
        return ConformalFactor("neg_log_twist", power=power, twist=twist)

    @staticmethod
    def fiber_only(profile):
        return ConformalFactor("fiber", fiber_profile=profile)

    def value(self, t, grid):
        return _KINDS[self.kind][0](self, t, grid)

    def dt(self, t, grid):
        return _KINDS[self.kind][1](self, t, grid)

    def fiber_partials(self, t, grid):
        return _KINDS[self.kind][2](self, t, grid)


def transform_mean_curvature(graph, phi):
    """Mean curvature of the graph after rescaling the ambient metric.

    H' = e^{-phi} (H + g(N, grad phi)), evaluated with the graph's future
    unit normal.  With phi = -log f this measures the defect from the
    condition H = g(N, grad log f): inputs satisfying it to epsilon give
    |H'| <= max(f) * epsilon.
    """
    kit = _kit(graph)
    u, grid = kit.u, kit.grid
    return _transformed_mean_curvature(
        kit, phi.value(u, grid), phi.dt(u, grid), phi.fiber_partials(u, grid)
    )


def _transformed_mean_curvature(kit, phi, phi_dt, phi_partials):
    """``transform_mean_curvature`` from a kit and phi, d/dt phi and d_F phi
    along its graph: g(N, grad phi) = (d/dt phi) cosh(theta) + d_F phi (N_F)."""
    normal = phi_dt * kit.cosh + component_sum(phi_partials * kit.rho[..., None] * kit.grad_u)
    return np.exp(-phi) * (kit.H + normal)


def slice_shape_transform(model, t0, phi):
    """Umbilic factor of the slice {t = t0} after rescaling.

    Slices have shape operator lambda Id with lambda = -d/dt log f; the
    rescaled slice stays umbilic with factor
    e^{-phi} (lambda - d phi(normal)) where the normal is the comoving unit.
    Returns the rescaled factor field; identically zero for the static
    picture phi = -log f.
    """
    t0 = float(model.require_inside(t0, "slice time t0"))
    grid = model.fiber
    lam1 = -model.twist.dlog_dt(t0, grid)
    phi_vals = phi.value(t0, grid)
    return np.exp(-phi_vals) * (lam1 - phi.dt(t0, grid))


@dataclass
class ConformalCheck:
    lhs: np.ndarray
    rhs: np.ndarray

    @property
    def defect(self):
        return self.lhs - self.rhs

    @property
    def max_defect(self):
        return float(np.max(np.abs(self.defect)))


def conformal_laplacian_check(h, phi, graph):
    """Laplacian rescaling law on the graph, both sides independently.

    lhs: coordinate Laplacian of h under e^{2 phi} g (phi restricted to the
    graph).  rhs: e^{-2 phi}(lap h + (n-2) g^{-1}(d phi, d h)) from the
    unrescaled metric, with d phi the discrete differential of the sampled
    restriction.  In dimension 2 the coupling drops and the two sides agree
    to roundoff; otherwise the defect decays at second order.
    """
    return next(_conformal_laplacian_checks(h, (phi,), graph))


def _conformal_laplacian_checks(h, factors, graph):
    """``conformal_laplacian_check`` for each factor in turn, yielded one at
    a time.  The kit, the induced metric g1 and the unrescaled Laplacian and
    metric gradient of h depend on (graph, h) alone and are built once."""
    grid = graph.grid
    h = grid.check_scalar(h, "h")
    g1 = _kit(graph).metric()
    # lap h and g^{-1}(d phi, d h) share one solve of g1 x = d h
    lap1, grad_h = _coordinate_laplacian(grid, g1, h)
    for phi in factors:
        phi_vals = phi.value(graph.u, grid)
        # the rescaled metric is freed when its Laplacian returns
        lhs = coordinate_laplacian(grid, np.exp(2.0 * phi_vals)[..., None, None] * g1, h)
        pairing = component_sum(grid.partials(phi_vals) * grad_h)
        rhs = np.exp(-2.0 * phi_vals) * (lap1 + (grid.dim - 2) * pairing)
        yield ConformalCheck(lhs=lhs, rhs=rhs)


@dataclass
class StaticFrameChecks:
    """Defects of the three static-picture identities on one graph.

    main:              time-height Laplacian under alpha^2 g versus the
                       boost/mean-curvature closed form.
    laplacian_relation: same Laplacian versus the rescaling law applied to
                       the fiber-form time-height Laplacian.
    gradient_pairing:  induced-metric pairing <grad log alpha, grad tau>
                       versus its boost closed form.
    """

    main: ConformalCheck
    laplacian_relation: ConformalCheck
    gradient_pairing: ConformalCheck


def static_laplacian_check(graph):
    """Verify the static-picture (alpha = 1/f) identities on a graph.

    The graph is re-read as a hypersurface of the rescaled model with metric
    -alpha^2 dt^2 + g_F.  Each identity is evaluated through two unrelated
    code paths; see ``StaticFrameChecks`` for the breakdown.
    """
    kit = _kit(graph)
    grid = kit.grid
    n = grid.dim

    alpha = 1.0 / kit.f
    dlog_alpha_dt = -kit.dlogf
    # Exact ambient fiber partials of log alpha evaluated along the graph.
    fiber_dlog_alpha = -kit.fiber_df / kit.f[..., None]

    g1 = kit.metric()
    g_tilde = (alpha * alpha)[..., None, None] * g1
    lap_tilde = coordinate_laplacian(grid, g_tilde, kit.u)

    # the static picture's mean curvature, with phi = log alpha = -log f
    H_tilde = _transformed_mean_curvature(kit, -np.log(kit.f), dlog_alpha_dt, fiber_dlog_alpha)
    normal_log_alpha = kit.f * (
        kit.cosh * dlog_alpha_dt
        + component_sum(fiber_dlog_alpha * kit.rho[..., None] * kit.grad_u)
    )

    rhs_main = alpha ** -2 * (
        (1.0 + kit.cosh ** 2) * dlog_alpha_dt
        + n * H_tilde * alpha * kit.cosh
        - 2.0 * alpha * kit.cosh * normal_log_alpha
    )
    main = ConformalCheck(lhs=lap_tilde, rhs=rhs_main)

    # Discrete differential of the sampled restriction of log alpha; an
    # independent route from the exact chain-rule partials used above.
    dlog_alpha_cov = grid.partials(np.log(alpha))
    pairing = component_sum(dlog_alpha_cov * _small_solve(g1, kit.du, _small_det(g1)))

    lap_fiber = _laplacian_tau_fiber(kit)
    relation = ConformalCheck(
        lhs=lap_tilde, rhs=alpha ** -2 * (lap_fiber + (n - 2) * pairing)
    )

    rhs_pairing = -dlog_alpha_dt + alpha * kit.cosh * normal_log_alpha
    gradient_pairing = ConformalCheck(lhs=pairing, rhs=rhs_pairing)

    return StaticFrameChecks(
        main=main, laplacian_relation=relation, gradient_pairing=gradient_pairing
    )


def maximal_power_check(graph, h_tol=1e-8):
    """Power-law rescaling that isolates the boost term for maximal graphs.

    With alpha = 1/f and exponent p = 2/(n-2), the time-height Laplacian of
    a maximal graph under alpha^{2p+2} g reduces to
    alpha^{-2p-2} sinh^2(theta) d/dt log alpha; this evaluates both sides.
    Needs a three-dimensional fiber (the exponent degenerates at n = 2) and
    a maximal input (sup |H| <= h_tol).
    """
    kit = _kit(graph)
    grid = kit.grid
    n = grid.dim
    if n != 3:
        raise DomainError("the power rescaling check needs a 3-dimensional fiber")
    h_max = float(np.max(np.abs(kit.H)))
    if h_max > h_tol:
        raise DomainError(
            f"input is not maximal: sup |H| = {h_max:.3e} exceeds {h_tol:.1e}"
        )
    p = 2.0 / (n - 2)
    alpha = 1.0 / kit.f
    g_hat = (alpha ** (2.0 * p + 2.0))[..., None, None] * kit.metric()
    lhs = coordinate_laplacian(grid, g_hat, kit.u)
    rhs = alpha ** (-2.0 * p - 2.0) * kit.sinh_sq * (-kit.dlogf)
    return ConformalCheck(lhs=lhs, rhs=rhs)
