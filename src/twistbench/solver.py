"""Prescribed-mean-curvature solver on the closed fiber.

Solves H[u] = H0 (maximal for H0 = 0) with a damped Newton-Krylov outer
loop, a pseudo-transient relaxation fallback for poor initializers, and two
kinds of non-existence reporting: an analytic bound certificate from the
extrema of d/dt log f, and a drift diagnostic when the relaxed iterate runs
away toward an interval endpoint.  Converged outcomes are re-verified
through both mean-curvature code paths before being reported.

Newton directions come from lgmres on the assembled sparse Jacobian.  The
residual at a node reads u only on the L1 ball of radius 2 around it (the
wide central stencil applied twice), so columns whose stencils never share
a row are perturbed together: a greedy Curtis-Powell-Reid coloring of the
periodic lattice, computed once per grid shape, builds the whole Jacobian
from one pair of central-difference residuals per color.

The Jacobian is a variable-coefficient elliptic stencil on a periodic
lattice, so lgmres is preconditioned with the inverse of its
Frobenius-nearest circulant (T. F. Chan, SIAM J. Sci. Stat. Comput. 1988):
the stencil averaged over the lattice, inverted mode by mode with the FFT.
"""

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csc_array
from scipy.sparse.linalg import LinearOperator, lgmres

from .errors import DomainError, SpacelikeError
from .graphs import (
    GraphField,
    _kit,
    _mean_curvature,
    geometry_report,
    mean_curvature_from_laplacian,
)
from .initializers import resolve_initializer
from .spacetime import classify

__all__ = [
    "SolveConfig",
    "SolveOutcome",
    "residual_field",
    "certificate_check",
    "solve",
    "rigidity_report",
    "RigidityReport",
]

# errors that mean "this Newton direction cannot be built", as
# opposed to a fault in the program, which must propagate
_STEP_ERRORS = (SpacelikeError, DomainError, np.linalg.LinAlgError)

# the residual at a node reads u on the L1 ball of this radius around it
_RESIDUAL_REACH = 2


@dataclass
class SolveConfig:
    """Solver parameters; every safeguard is tunable but defaults are sane.

    target:
        a float H0 for constant mean curvature, or the string
        "generalized" for the residual H - g(N, grad log f).
    initial:
        a GraphField, or an initializer spec such as
        {"kind": "constant", "value": 0.3} or
        {"kind": "random_trig", "seed": 7, "amplitude": 0.1}.
    """

    target: object = 0.0
    initial: object = None
    residual_tol: float = 1e-10
    max_newton_iters: int = 50
    krylov_rtol: float = 1e-8
    krylov_maxiter: int = 500  # total inner-iteration budget
    linesearch_factor: float = 0.5
    min_step: float = 1e-8
    spacelike_cap: float = 0.99
    interval_margin: float = 1e-6
    check_certificate: bool = True
    certificate_samples: int = 256
    fallback_chunk: int = 60
    fallback_max_sweeps: int = 600
    drift_window: int = 20

    def __post_init__(self):
        if self.target != "generalized":
            self.target = float(self.target)
        if not (0.0 < self.spacelike_cap < 1.0):
            raise ValueError("spacelike_cap must lie in (0, 1)")
        for name in ("residual_tol", "krylov_rtol", "min_step", "interval_margin"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass
class SolveOutcome:
    """Tagged solver result.

    tag "converged":      graph, residual_norm, iterations, report
    tag "nonexistence":   certificate {"reason": "bound" | "drift", ...}
    tag "not_converged":  best residual and diagnostics
    """

    tag: str
    graph: GraphField = None
    residual_norm: float = float("nan")
    iterations: int = 0
    report: object = None
    certificate: dict = None
    diagnostics: dict = field(default_factory=dict)
    log: list = field(default_factory=list)


def _target_field(kit, target):
    if target == "generalized":
        fiber_term = np.sum(
            (kit.fiber_df / kit.f[..., None]) * kit.rho[..., None] * kit.grad_u,
            axis=-1,
        )
        return kit.dlogf * kit.cosh + fiber_term
    return target


def _residual(kit, target):
    return kit.n * (_mean_curvature(kit) - _target_field(kit, target))


def residual_field(graph, target=0.0):
    """Residual n (H[u] - target), pointwise on the fiber."""
    return _residual(_kit(graph), target)


def certificate_check(model, h0, t_samples=256):
    """Analytic non-existence certificate from the extrema of d/dt log f.

    Any closed constant-mean-curvature graph has its H between the values of
    d/dt log f at the extrema of its height, so H0 outside the sampled
    [inf, sup] of d/dt log f over interval x fiber excludes solutions.  The
    bounds cover the configured interval only; the certificate says so.
    """
    grid = model.fiber
    lo = np.inf
    hi = -np.inf
    for t in model.time_samples(t_samples):
        vals = model.twist.dlog_dt(t, grid)
        lo = min(lo, float(vals.min()))
        hi = max(hi, float(vals.max()))
    if h0 < lo or h0 > hi:
        return {
            "reason": "bound",
            "target": float(h0),
            "inf_dlog_f": lo,
            "sup_dlog_f": hi,
            "interval": list(model.interval),
            "t_samples": int(t_samples),
            "note": (
                "bounds hold over the configured interval and fiber lattice "
                "only; the spacetime outside the interval is not examined"
            ),
        }
    return None


# ---------------------------------------------------------------------------


class _Driver:
    """Mutable solve state: trial points, logging, safeguards.  The kit a
    ``trial`` builds travels with the iterate, so nothing rebuilds it."""

    def __init__(self, model, config):
        self.model = model
        self.config = config
        t_min, t_max = model.interval
        self.lo = t_min + config.interval_margin
        self.hi = t_max - config.interval_margin
        self.span = t_max - t_min
        self.log = []
        self.step_count = 0
        self.drift_history = []  # (mean height, residual) per fallback sweep
        self.krylov = {}  # krylov_info and krylov_matvecs of the latest Newton direction

    def residual(self, values):
        return residual_field(GraphField(self.model, values), self.config.target)

    def trial(self, values):
        """(kit, residual) at ``values``, or None when they leave the
        interval box or their spacelike margin exceeds the cap."""
        if float(values.min()) < self.lo or float(values.max()) > self.hi:
            return None
        kit = _kit(GraphField(self.model, values), require_spacelike=False)
        # written as "not <=" so a NaN margin is rejected too
        if not float(kit.mu.max()) <= self.config.spacelike_cap:
            return None
        return kit, _residual(kit, self.config.target)

    def record(self, phase, kit, rnorm, step):
        product = kit.dtf * _mean_curvature(kit)
        entry = {
            "iter": self.step_count,
            "phase": phase,
            "residual_inf": float(rnorm),
            "step": float(step),
            "max_margin": float(kit.mu.max()),
            "u_mean": float(kit.u.mean()),
            "u_min": float(kit.u.min()),
            "u_max": float(kit.u.max()),
            "dtf_H_min": float(product.min()),
            "dtf_H_max": float(product.max()),
            "area": float(
                np.sum(np.sqrt(kit.det_factored())) * kit.grid.cell_volume
            ),
        }
        self.log.append(entry)
        self.step_count += 1
        return entry

    def update_drift(self, mean, rnorm):
        """Detect a runaway toward an interval endpoint.

        Fires when, over a full drift window of fallback sweeps, the mean
        height moves monotonically toward an endpoint (or sits pinned next
        to one) while the residual stays large and essentially stagnant.
        The stagnation clause keeps legitimate wall-hugging convergence
        (where the residual is still dropping) from being misread.
        """
        cfg = self.config
        self.drift_history.append((mean, rnorm))
        window = cfg.drift_window
        if len(self.drift_history) < window + 1:
            return None
        recent = self.drift_history[-(window + 1):]
        residuals = [r for _, r in recent]
        if residuals[-1] <= 10.0 * cfg.residual_tol:
            return None
        if residuals[-1] < 0.98 * residuals[0]:
            return None  # still making progress
        means = np.array([m for m, _ in recent])
        diffs = np.diff(means)
        t_min, t_max = self.model.interval
        near_hi = bool(np.all(np.abs(means - t_max) <= 0.02 * self.span))
        near_lo = bool(np.all(np.abs(means - t_min) <= 0.02 * self.span))
        if bool(np.all(diffs > 0)) or near_hi:
            return t_max
        if bool(np.all(diffs < 0)) or near_lo:
            return t_min
        return None


def _lattice_ball(dim, radius):
    """Integer offsets of L1 length at most ``radius``, shape (K, dim)."""
    span = range(-radius, radius + 1)
    return np.array(
        [o for o in itertools.product(span, repeat=dim) if sum(map(abs, o)) <= radius]
    )


def _periodic_neighbours(shape, radius):
    """Flat indices of the nodes within L1 distance ``radius`` of each node
    on the periodic lattice (the node included), shape (nodes, K)."""
    index = np.indices(shape).reshape(len(shape), -1)
    offsets = _lattice_ball(len(shape), radius)
    shifted = index[:, :, None] + offsets.T[:, None, :]
    return np.ravel_multi_index(tuple(shifted), shape, mode="wrap")


@functools.lru_cache(maxsize=8)
def _jacobian_pattern(shape):
    """Sparsity and column coloring of the residual Jacobian on ``shape``.

    Returns (rows, colors): rows[j] are the residual entries that read node
    j (the stencil is symmetric), and colors[j] is its color.  Two nodes
    share a color only when their periodic offset lies outside the L1 ball
    of radius 2 * reach, so their row sets are disjoint.  Nodes are colored
    greedily in natural order.
    """
    rows = _periodic_neighbours(shape, _RESIDUAL_REACH)
    conflicts = _periodic_neighbours(shape, 2 * _RESIDUAL_REACH)
    colors = np.full(len(conflicts), -1)
    free = np.ones(conflicts.shape[1] + 1, dtype=bool)
    for node, near in enumerate(conflicts):
        taken = colors[near]
        taken = taken[taken >= 0]
        free[taken] = False
        colors[node] = int(np.argmax(free))
        free[taken] = True
    rows.flags.writeable = False
    colors.flags.writeable = False
    return rows, colors


def _jacobian(driver, u):
    """Sparse Jacobian of ``driver.residual`` at u by colored central differences.

    Each color costs one +eps/-eps pair of residual calls, with the step
    scaled like a Jacobian-free matvec along the color's indicator.  Every
    entry is divided by the step its column actually received, so the
    rounding of u + eps does not enter the quotient.  Returns the matrix and
    its stencil ``values``: values[j, k] is the entry of column j at the
    k-th offset of ``_lattice_ball(dim, _RESIDUAL_REACH)`` from node j.
    """
    rows, colors = _jacobian_pattern(u.shape)
    n_colors = int(colors.max()) + 1
    base = 1e-7 * (1.0 + np.linalg.norm(u.ravel()))
    columns = np.empty((n_colors, u.size))
    width = np.empty(u.size)
    for color in range(n_colors):
        seed = (colors == color).reshape(u.shape)
        eps = base / np.sqrt(np.count_nonzero(seed))
        plus = u + eps * seed
        minus = u - eps * seed
        columns[color] = (driver.residual(plus) - driver.residual(minus)).ravel()
        width[seed.ravel()] = (plus - minus)[seed]
    # column j holds the entries of its rows in its color's difference
    values = columns[colors[:, None], rows] / width[:, None]
    indptr = np.arange(0, rows.size + 1, rows.shape[1])
    J = csc_array((values.ravel(), rows.flatten(), indptr), shape=(u.size, u.size))
    return J, values


def _circulant_preconditioner(values, shape):
    """Inverse of the circulant nearest (in Frobenius norm) to the Jacobian.

    Averaging the stencil ``values`` over columns gives one coefficient per
    offset; placed at their wrapped offsets they form the circulant's
    kernel, whose FFT is its symbol.  The inverse divides each Fourier mode
    by the symbol, except modes whose symbol is at round-off (the constant
    and grid-scale modes of a degenerate problem), which pass unchanged.
    """
    axes = tuple(range(len(shape)))
    offsets = _lattice_ball(len(shape), _RESIDUAL_REACH) % np.array(shape)
    kernel = np.zeros(shape)
    kernel[tuple(offsets.T)] = values.mean(axis=0)
    symbol = np.fft.rfftn(kernel, axes=axes)
    magnitude = np.abs(symbol)
    symbol[magnitude <= 1e-14 * magnitude.max()] = 1.0

    def apply(x):
        modes = np.fft.rfftn(x.reshape(shape), axes=axes) / symbol
        return np.fft.irfftn(modes, s=shape, axes=axes).ravel()

    return LinearOperator((kernel.size, kernel.size), matvec=apply, dtype=float)


def _krylov_step(driver, u, R):
    """Inexact Newton direction: preconditioned lgmres on the sparse Jacobian.

    The Jacobian is assembled by ``_jacobian`` and handed to lgmres as a
    linear operator, with ``_circulant_preconditioner`` of the same stencil
    as M.  lgmres stops on the true residual |R + J d| <= krylov_rtol
    |R|.  Its exit info (0 = converged) and the number of J products it
    made are kept on the driver for the iteration log.  When the Jacobian
    annihilates the constant direction (one-parameter slice families make
    the problem gauge-degenerate) the Krylov solution carries an arbitrary
    constant component; it is detected with the probe J 1 and projected out
    so iterates do not wander toward the interval ends.
    """
    config = driver.config
    rnorm = float(np.max(np.abs(R)))
    try:
        J, values = _jacobian(driver, u)
    except _STEP_ERRORS:
        return None
    probe = J @ np.ones(u.size)
    constant_is_null = float(np.max(np.abs(probe))) <= 1e-8 * max(1.0, rnorm)

    products = 0

    def product(x):
        nonlocal products
        products += 1
        return J @ x

    inner_m = 10
    maxiter = max(1, config.krylov_maxiter // inner_m)
    try:
        d, info = lgmres(
            LinearOperator(J.shape, matvec=product, dtype=J.dtype),
            -R.ravel(),
            rtol=config.krylov_rtol,
            atol=0.0,
            inner_m=inner_m,
            maxiter=maxiter,
            M=_circulant_preconditioner(values, u.shape),
        )
    except _STEP_ERRORS:
        return None
    driver.krylov = {"krylov_info": int(info), "krylov_matvecs": products}
    if not np.all(np.isfinite(d)):
        return None
    if constant_is_null:
        d = d - d.mean()
    # trust region: never propose more than a quarter of the interval
    peak = float(np.max(np.abs(d)))
    cap = 0.25 * driver.span
    if peak > cap:
        d = d * (cap / peak)
    return d.reshape(u.shape)


def _line_search(driver, u, R, rnorm, direction):
    """Backtracking step on the residual sup norm with safeguards.

    Candidates are clipped into the interval box (projected Newton), so a
    direction with a large admissible part is not wasted when some nodes
    would overshoot the margin.
    """
    config = driver.config
    lam = 1.0
    while lam >= config.min_step:
        trial = driver.trial(np.clip(u + lam * direction, driver.lo, driver.hi))
        if trial is not None:
            kit, R_new = trial
            rnorm_new = float(np.max(np.abs(R_new)))
            if rnorm_new <= (1.0 - 1e-4 * lam) * rnorm:
                return kit, R_new, rnorm_new, lam
        lam *= config.linesearch_factor
    return None


def _stable_pseudo_time_step(kit):
    """Explicit-Euler stability bound for the relaxation flow.

    The flow's stiffest part is the divergence term of the curvature; its
    diagonal scales like cosh(theta) rho / n times sum_i 1/(G_i h_i^2), so
    the step is capped by the reciprocal of the worst node.
    """
    grid = kit.grid
    stencil = np.sum(1.0 / (grid.metric_diag * grid.spacing**2), axis=-1)
    lam = float(np.max(kit.cosh * kit.rho * stencil)) / kit.n
    return 0.9 / lam


def _fallback_sweeps(driver, kit, R, rnorm, state):
    """Pseudo-transient relaxation u <- u + ds cosh(theta) (H - target).

    The step follows the first variation of the area, so in a transition
    model accepted sweeps climb toward the maximal slice; a persistent
    monotone drift of the mean height instead triggers the drift diagnostic.
    Steps are capped at the explicit stability bound and rejected (with ds
    halved) if they inflate the residual.  The flow is read from the
    iterate's kit; an accepted trial point's kit becomes the next iterate.
    Returns (kit, R, rnorm, drift_endpoint_or_None).
    """
    config = driver.config
    for _ in range(config.fallback_chunk):
        if state["sweeps"] >= config.fallback_max_sweeps or rnorm <= config.residual_tol:
            break
        flow = kit.cosh * (_mean_curvature(kit) - _target_field(kit, config.target))
        peak = float(np.max(np.abs(flow)))
        if peak == 0.0:
            break
        ds = min(
            state["ds"] * 1.25,
            _stable_pseudo_time_step(kit),
            0.02 * driver.span / peak,
        )
        accepted = None
        for _ in range(16):
            trial = driver.trial(np.clip(kit.u + ds * flow, driver.lo, driver.hi))
            if trial is not None:
                rnorm_new = float(np.max(np.abs(trial[1])))
                if rnorm_new <= 1.05 * rnorm:
                    accepted = (*trial, rnorm_new)
                    break
            ds *= 0.5
        if accepted is None:
            break
        state["ds"] = ds
        kit, R, rnorm = accepted
        state["sweeps"] += 1
        driver.record("fallback", kit, rnorm, ds)
        endpoint = driver.update_drift(float(kit.u.mean()), rnorm)
        if endpoint is not None:
            return kit, R, rnorm, endpoint
    return kit, R, rnorm, None


def _verify_converged(driver, kit, rnorm):
    """Re-check a converged iterate: ``rnorm`` is its residual through the
    fiber-form curvature of ``kit``; the coordinate-form second path builds
    its own kits from the graph.  Both must pass, with the safeguards."""
    config = driver.config
    u = kit.u
    graph = GraphField(driver.model, u)
    target = _target_field(kit, config.target)
    r_secondary = float(
        np.max(np.abs(kit.n * (mean_curvature_from_laplacian(graph) - target)))
    )
    margin = float(kit.mu.max())
    ok = (
        rnorm <= 2.0 * config.residual_tol
        and r_secondary <= 2.0 * config.residual_tol
        and margin <= config.spacelike_cap
    )
    imin = np.unravel_index(int(np.argmin(u)), u.shape)
    imax = np.unravel_index(int(np.argmax(u)), u.shape)
    dlog = kit.dlogf
    diagnostics = {
        "residual_primary": rnorm,
        "residual_secondary": r_secondary,
        "max_margin": margin,
        "extremum_gap_min": (
            float(config.target - dlog[imin]) if config.target != "generalized" else None
        ),
        "extremum_gap_max": (
            float(dlog[imax] - config.target) if config.target != "generalized" else None
        ),
    }
    return ok, graph, diagnostics


def solve(model, config):
    """Run the damped Newton-Krylov loop with relaxation fallback."""
    driver = _Driver(model, config)
    graph0 = resolve_initializer(model, config.initial)
    # resolve_initializer admits any interval-valid field; the kit raises
    # SpacelikeError naming the worst node unless the start is spacelike.
    kit = _kit(GraphField(model, graph0.u.copy()))

    if config.check_certificate and config.target != "generalized":
        certificate = certificate_check(
            model, config.target, t_samples=config.certificate_samples
        )
        if certificate is not None:
            return SolveOutcome(
                tag="nonexistence",
                certificate=certificate,
                log=driver.log,
            )

    R = _residual(kit, config.target)
    rnorm = float(np.max(np.abs(R)))
    driver.record("init", kit, rnorm, 0.0)

    newton_iters = 0
    state = {"sweeps": 0, "ds": 1e-2 * driver.span}
    best_rnorm = rnorm

    while True:
        if rnorm <= config.residual_tol:
            ok, graph, diagnostics = _verify_converged(driver, kit, rnorm)
            diagnostics["target"] = config.target
            if ok:
                return SolveOutcome(
                    tag="converged",
                    graph=graph,
                    residual_norm=rnorm,
                    iterations=newton_iters,
                    report=geometry_report(graph),
                    diagnostics=diagnostics,
                    log=driver.log,
                )
            diagnostics["failure"] = "two-path re-verification failed"
            return SolveOutcome(
                tag="not_converged",
                residual_norm=rnorm,
                iterations=newton_iters,
                diagnostics=diagnostics,
                log=driver.log,
            )

        if newton_iters >= config.max_newton_iters or state["sweeps"] >= config.fallback_max_sweeps:
            return SolveOutcome(
                tag="not_converged",
                residual_norm=rnorm,
                iterations=newton_iters,
                diagnostics={
                    "best_residual": best_rnorm,
                    "newton_iters": newton_iters,
                    "fallback_sweeps": state["sweeps"],
                    "failure": "iteration budget exhausted",
                },
                log=driver.log,
            )

        newton_iters += 1
        direction = _krylov_step(driver, kit.u, R)
        stepped = None
        if direction is not None:
            stepped = _line_search(driver, kit.u, R, rnorm, direction)
        if stepped is not None:
            kit, R, rnorm, lam = stepped
            best_rnorm = min(best_rnorm, rnorm)
            entry = driver.record("newton", kit, rnorm, lam)
            entry.update(driver.krylov)
            continue

        kit, R, rnorm, endpoint = _fallback_sweeps(driver, kit, R, rnorm, state)
        best_rnorm = min(best_rnorm, rnorm)
        if endpoint is not None:
            return SolveOutcome(
                tag="nonexistence",
                residual_norm=rnorm,
                iterations=newton_iters,
                certificate={
                    "reason": "drift",
                    "endpoint": float(endpoint),
                    "consecutive_sweeps": int(config.drift_window),
                    "residual_inf": rnorm,
                    "note": (
                        "heuristic diagnostic: the relaxed iterate drifted "
                        "monotonically toward an interval endpoint while the "
                        "residual stayed large; not an analytic proof"
                    ),
                },
                diagnostics={"u_mean": float(kit.u.mean())},
                log=driver.log,
            )


@dataclass
class RigidityReport:
    """Slice-rigidity verdicts for a converged maximal solve."""

    constancy_defect: float
    mean_height: float
    max_abs_dtf_at_mean: float
    product_sign_min: float
    product_sign_max: float
    transition_time: float = None
    transition_gap: float = None


def rigidity_report(outcome):
    """Examine a converged maximal solution for the slice verdicts.

    Reports the constancy defect of u, how far d/dt f is from vanishing on
    the mean slice, the running sign of (d/dt f) H over the iteration log,
    and the gap to the classified transition time when one exists.
    """
    if outcome.tag != "converged":
        raise DomainError("rigidity report needs a converged outcome")
    if outcome.graph is None:
        raise DomainError("converged outcome carries no solution graph")
    if outcome.diagnostics.get("target") != 0.0:
        raise DomainError("rigidity report applies to maximal (target 0) solves")
    model = outcome.graph.model
    u = outcome.graph.u
    u_mean = float(u.mean())
    dtf_at_mean = model.twist.dt(u_mean, model.fiber)
    products_min = min(entry["dtf_H_min"] for entry in outcome.log)
    products_max = max(entry["dtf_H_max"] for entry in outcome.log)
    report = RigidityReport(
        constancy_defect=float(u.max() - u.min()),
        mean_height=u_mean,
        max_abs_dtf_at_mean=float(np.max(np.abs(dtf_at_mean))),
        product_sign_min=products_min,
        product_sign_max=products_max,
    )
    cls = classify(model)
    if cls.tag == "transition":
        report.transition_time = cls.t0
        report.transition_gap = abs(u_mean - cls.t0)
    return report
