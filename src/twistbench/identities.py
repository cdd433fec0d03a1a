"""The identity suite's names and kinds, apart from ``verify`` so that the
config schema can list them without loading the geometry.  ``verify``
checks identity ``name`` with its function ``_name``."""

IDENTITY_KINDS = {
    "mean_curvature_two_path": "order2",
    "laplacian_tau_two_path": "order2",
    "conformal_laplacian": "order2",
    "static_main": "order2",
    "static_laplacian_relation": "order2",
    "static_gradient_pairing": "order2",
    "product_rule": "order2",
    "fiber_gradient_accuracy": "order2",
    "fiber_laplacian_accuracy": "order2",
    "det_two_path": "exact",
    "unit_normal_norm": "exact",
    "hyperbolic_identity": "exact",
    "support_identity": "exact",
    "grad_tau_contraction": "exact",
    "obstruction_grw": "exact",
    "area_variation": "exact",
}
