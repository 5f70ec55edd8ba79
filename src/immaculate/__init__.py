"""Exact basis expansions in noncommutative symmetric functions.

Expansions are computed by enumerating tunnel hook coverings of row
diagrams and verified against independent determinant oracles.
"""

from .compositions import (
    coarsenings,
    compositions_of,
    lehmer_code,
    permutation_sign,
)
from .coverings import (
    TunnelHookCovering,
    covering_from_permutation,
    covering_from_terminal_cells,
    enumerate_coverings,
    permutation_from_covering,
)
from .diagram import (
    GbprDiagram,
    TunnelHook,
    apply_hook,
    build_diagram,
    make_tunnel_hook,
    render,
)
from .expansions import (
    forgetful_to_h,
    immaculate_to_H,
    monomial_to_dual_immaculate,
    skew_immaculate_to_H,
    skew_prefix_decomposition,
    straighten_skew,
)
from .expr import BasisExpr
from .oracles import (
    commutative_jacobi_trudi,
    duality_transpose_check,
    jacobi_trudi_matrix,
    ndet_expand,
)
from .ribbon import (
    H_to_ribbon,
    im2rib_class,
    immaculate_to_ribbon_direct,
    ribbon_product,
    ribbon_to_H,
)
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "BasisExpr",
    "GbprDiagram",
    "TunnelHook",
    "TunnelHookCovering",
    "H_to_ribbon",
    "apply_hook",
    "build_diagram",
    "coarsenings",
    "commutative_jacobi_trudi",
    "compositions_of",
    "covering_from_permutation",
    "covering_from_terminal_cells",
    "duality_transpose_check",
    "enumerate_coverings",
    "forgetful_to_h",
    "im2rib_class",
    "immaculate_to_H",
    "immaculate_to_ribbon_direct",
    "jacobi_trudi_matrix",
    "lehmer_code",
    "make_tunnel_hook",
    "monomial_to_dual_immaculate",
    "ndet_expand",
    "permutation_from_covering",
    "permutation_sign",
    "render",
    "ribbon_product",
    "ribbon_to_H",
    "run_suite",
    "skew_immaculate_to_H",
    "skew_prefix_decomposition",
    "straighten_skew",
]
