"""The identity suite's names, kinds and default thresholds, and the keys of
the verify and convergence blocks, apart from ``verify`` so that the config
can read them without loading the geometry.  ``verify`` checks identity
``name`` with its function ``_name``.

Order2 thresholds were measured on the standard corpus at the desk
resolutions (128 / 64^2 / 16^3) and carry roughly 20x headroom, keyed by
fiber dimension since the constants grow with it; exact entries use the
pointwise tolerances.  Runs at other resolutions should supply their own
thresholds through the config.
"""

# name -> (kind, default threshold)
IDENTITIES = {
    "mean_curvature_two_path": ("order2", {1: 1e-2, 2: 1e-2, 3: 2e-1}),
    "laplacian_tau_two_path": ("order2", {1: 2e-2, 2: 2e-3, 3: 3e-1}),
    "conformal_laplacian": ("order2", {1: 3e-1, 2: 1e-10, 3: 3e1}),
    "static_main": ("order2", {1: 2e-2, 2: 2e-2, 3: 3e-1}),
    "static_laplacian_relation": ("order2", {1: 1e-2, 2: 2e-3, 3: 2e-1}),
    "static_gradient_pairing": ("order2", {1: 1e-3, 2: 2e-3, 3: 5e-2}),
    "product_rule": ("order2", {1: 3e-1, 2: 1.0, 3: 3e1}),
    "fiber_gradient_accuracy": ("order2", {1: 5e-2, 2: 2e-1, 3: 3.0}),
    "fiber_laplacian_accuracy": ("order2", {1: 6e-1, 2: 3.0, 3: 4e1}),
    "det_two_path": ("exact", 1e-10),
    "unit_normal_norm": ("exact", 1e-10),
    "hyperbolic_identity": ("exact", 1e-12),
    "support_identity": ("exact", 1e-12),
    "grad_tau_contraction": ("exact", 1e-10),
    "obstruction_grw": ("exact", 1e-10),
    "area_variation": ("exact", 1e-5),
}

IDENTITY_KINDS = {name: kind for name, (kind, _) in IDENTITIES.items()}
DEFAULT_THRESHOLDS = {name: threshold for name, (_, threshold) in IDENTITIES.items()}

# a list of identity names; left out, the suite runs its default set
_NAMES = {"type": "array", "minItems": 1, "items": {"enum": list(IDENTITY_KINDS)}}

# each key of the verify and convergence blocks, once: its schema entry, and
# its default in each task that takes it (None: left out unless given).  The
# config schema and ``resolve`` read them, and the suites' signatures read
# the defaults.
TASK_KEYS = {
    "quantities": (_NAMES, {"convergence": None}),
    "corpus_count": ({"type": "integer", "minimum": 1}, {"verify": 5, "convergence": 3}),
    "amplitude": ({"type": "number", "exclusiveMinimum": 0}, {"verify": 0.05, "convergence": 0.05}),
    "identities": (_NAMES, {"verify": None}),
    "thresholds": (
        {
            "type": "object",
            "additionalProperties": False,
            "properties": {name: {"type": "number"} for name in IDENTITY_KINDS},
        },
        {"verify": None},
    ),
    "factors": (
        {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 2},
        {"convergence": [1, 2, 4]},
    ),
    "min_order": ({"type": "number"}, {"convergence": 1.9}),
}
VERIFY_DEFAULTS, CONVERGENCE_DEFAULTS = (
    {key: defaults[task] for key, (_, defaults) in TASK_KEYS.items()
     if defaults.get(task) is not None}
    for task in ("verify", "convergence")
)
# the identities a convergence study refines when it is given none
DEFAULT_QUANTITIES = (
    "mean_curvature_two_path",
    "laplacian_tau_two_path",
    "conformal_laplacian",
    "static_main",
    "support_identity",
)
