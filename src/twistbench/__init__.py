"""Numerical workbench for spacelike graphs in twisted product spacetimes.

The pieces, bottom up: periodic torus fibers with finite-difference calculus
(``fiber_grid``), closed-form twisted models over them (``spacetime``), the
geometry of spacelike graphs with dual computational paths (``graphs``),
conformal rescaling identities (``conformal``), a prescribed-mean-curvature
Newton-Krylov solver with non-existence certificates (``solver``), and the
identity/convergence verification suites (``verify``).  The ``twistbench``
command line drives all of it from JSON experiment configs.

The names below load their module on first access (PEP 562), so importing
``twistbench.cli`` does not load numpy before the CLI has applied
``TWISTBENCH_THREADS``.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it contributes, in ``__all__`` order
_EXPORTS = {
    "errors": ("ConfigError", "DomainError", "SpacelikeError"),
    "fiber_grid": ("FiberGrid",),
    "profiles": ("TimeProfile", "TrigPolynomial"),
    "spacetime": (
        "ExpansionClass",
        "SpacetimeModel",
        "TwistedFunction",
        "classify",
        "is_grw",
        "slice_mean_curvature",
        "slice_umbilicity",
        "torqued_one_form",
    ),
    "graphs": (
        "GeometryReport",
        "GraphField",
        "area",
        "area_gradient_check",
        "coordinate_laplacian",
        "geometry_report",
        "grad_tau",
        "hyperbolic_angle",
        "induced_metric",
        "laplacian_tau_coordinate",
        "laplacian_tau_fiber",
        "mean_curvature",
        "mean_curvature_from_laplacian",
        "rho_field",
        "slice_condition_report",
        "spacelike_check",
        "spacelike_margin",
        "unit_normal",
        "warped_obstruction",
    ),
    "conformal": (
        "ConformalFactor",
        "conformal_laplacian_check",
        "maximal_power_check",
        "slice_shape_transform",
        "static_laplacian_check",
        "transform_mean_curvature",
    ),
    "initializers": (
        "constant_graph",
        "corpus_graphs",
        "default_fiber",
        "default_model",
        "random_trig_graph",
        "resolve_initializer",
    ),
    "solver": (
        "RigidityReport",
        "SolveConfig",
        "SolveOutcome",
        "certificate_check",
        "residual_field",
        "rigidity_report",
        "solve",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
