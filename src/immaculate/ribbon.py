"""Ribbon basis conversions and the direct signed ribbon expansion.

The ribbon and complete homogeneous bases are related by triangular sums
over the refinement order: R in terms of H alternates in the length drop,
H in terms of R is the plain sum over coarsenings. An index with l parts
has 2^(l-1) coarsenings, so both conversions refuse an index with more than
20 parts before building any term.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .compositions import brief, coarsenings, int_parts
from .expansions import _fold_coverings
from .expr import BasisExpr

Index = tuple[int, ...]

_MAX_CONVERSION_PARTS = 20


def _check_conversion_size(expr: BasisExpr) -> None:
    """An index with l parts has 2^(l-1) coarsenings: bound l first."""
    longest = max((len(alpha) for alpha, _ in expr.items()), default=0)
    if longest > _MAX_CONVERSION_PARTS:
        raise ValueError(
            f"cannot convert an index with {longest} parts: the limit is "
            f"{_MAX_CONVERSION_PARTS} (2^(parts-1) terms per index)"
        )


def ribbon_to_H(expr: BasisExpr) -> BasisExpr:
    """R_alpha = sum over coarsenings beta of (-1)^(len drop) H_beta."""
    if expr.basis != "R":
        raise ValueError(f"expected basis R, got {expr.basis}")
    _check_conversion_size(expr)
    terms: dict[Index, int] = {}
    for alpha, coeff in expr.items():
        for beta, subset in coarsenings(alpha):
            sign = -1 if len(subset) % 2 else 1
            terms[beta] = terms.get(beta, 0) + sign * coeff
    return BasisExpr("H", terms)


def H_to_ribbon(expr: BasisExpr) -> BasisExpr:
    """H_alpha = sum of R_beta over all coarsenings beta of alpha."""
    if expr.basis != "H":
        raise ValueError(f"expected basis H, got {expr.basis}")
    _check_conversion_size(expr)
    terms: dict[Index, int] = {}
    for alpha, coeff in expr.items():
        for beta, _ in coarsenings(alpha):
            terms[beta] = terms.get(beta, 0) + coeff
    return BasisExpr("R", terms)


def ribbon_product(alpha: Iterable[int], beta: Iterable[int]) -> BasisExpr:
    """R_alpha R_beta = R_(concatenation) + R_(near-concatenation).

    Both factors must be nonempty strong compositions; a bad one is named
    before either product index is built.
    """
    alpha, beta = (int_parts(factor, "ribbon product factor", strong=True)
                   for factor in (alpha, beta))
    if not alpha or not beta:
        raise ValueError("ribbon product factors must be nonempty")
    joined = alpha + beta
    fused = alpha[:-1] + (alpha[-1] + beta[0],) + beta[1:]
    return BasisExpr.term("R", joined) + BasisExpr.term("R", fused)


def im2rib_class(alpha: Iterable[int]) -> Optional[int]:
    """The J with alpha_l >= l for l <= J and alpha_l = J after, if any.

    Membership marks the shapes whose ribbon expansion is given by the
    direct signed-permutation formula below. Only J = min(alpha_k, k) can
    qualify: a J below k puts alpha_k in the tail, so J = alpha_k, and
    J = k needs alpha_k >= k. J = 0 holds only for the empty composition:
    I_() = 1 = R_(). A part that is not an int, or is below 1, raises.
    """
    alpha = int_parts(alpha, "alpha", strong=True)
    J = min(alpha[-1], len(alpha)) if alpha else 0
    fits = all(a >= l for l, a in enumerate(alpha[:J], start=1))
    return J if fits and all(a == J for a in alpha[J:]) else None


def immaculate_to_ribbon_direct(
    alpha: Iterable[int], force: bool = False
) -> BasisExpr:
    """Signed permutation sum of R indexed by (alpha_i - i + sigma_i).

    Terms containing any part <= 0 vanish (zero does not mean a unit
    factor here, unlike H subscripts). The identity with the true ribbon
    expansion is guaranteed only when im2rib_class(alpha) is defined;
    pass force=True to evaluate the formula outside that class anyway.
    The covering of alpha with permutation sigma has subscripts
    alpha_i - i + sigma_i and sign sign(sigma), so the sum is the covering
    fold with "a part <= 0 kills": it visits only the coverings whose
    prefix parts are all positive. A part that is not an int or is below
    1, or more than `coverings.MAX_ROWS` parts, raises.
    """
    alpha = int_parts(alpha, "alpha", strong=True)
    if im2rib_class(alpha) is None and not force:
        raise ValueError(
            f"{brief(alpha)} is outside the proven class for the direct "
            f"ribbon formula; use force to evaluate it anyway"
        )
    return BasisExpr._of_clean("R", _fold_coverings(alpha, (), least=1))
