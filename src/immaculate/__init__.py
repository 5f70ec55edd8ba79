"""Exact basis expansions in noncommutative symmetric functions.

Expansions are computed by enumerating tunnel hook coverings of row
diagrams and verified against independent determinant oracles.

Names load on first use (PEP 562): ``import immaculate`` imports no
submodule, and ``immaculate.ribbon_to_H`` imports ``immaculate.ribbon``
when it is first read.
"""

from importlib import import_module

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

#: The submodule each public name is defined in.
_EXPORTS = {
    "compositions": ("coarsenings", "compositions_of", "lehmer_code",
                     "permutation_sign"),
    "coverings": ("TunnelHookCovering", "covering_from_permutation",
                  "covering_from_terminal_cells", "enumerate_coverings",
                  "permutation_from_covering"),
    "diagram": ("GbprDiagram", "TunnelHook", "apply_hook", "build_diagram",
                "make_tunnel_hook", "render"),
    "expansions": ("forgetful_to_h", "immaculate_to_H",
                   "monomial_to_dual_immaculate", "skew_immaculate_to_H",
                   "skew_prefix_decomposition", "straighten_skew"),
    "expr": ("BasisExpr",),
    "oracles": ("commutative_jacobi_trudi", "duality_transpose_check",
                "jacobi_trudi_matrix", "ndet_expand"),
    "ribbon": ("H_to_ribbon", "im2rib_class", "immaculate_to_ribbon_direct",
               "ribbon_product", "ribbon_to_H"),
    "verify": ("run_suite",),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name in _EXPORTS:
        value = import_module(f"{__name__}.{name}")
    elif name in _ORIGIN:
        value = getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_ORIGIN})
