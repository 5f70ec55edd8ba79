"""Basis expansions built from tunnel hook coverings.

The central identity: the Schur-like basis element indexed by an integer
sequence mu (skewed by nu) expands in the complete homogeneous basis as
the signed sum, over all coverings, of H indexed by the covering's value
sequence. A negative subscript kills every covering below its hook
(H_a = 0 for a < 0): the covering walk never visits that subtree. A zero
subscript is dropped (H_0 = 1) when a leaf's index is read.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .compositions import brief, compositions_of, permutation_sign
from .coverings import DEFAULT_MAX_K, _check_bound, _sign, _walk
from .diagram import build_diagram, pad_pair
from .expr import BasisExpr

IntSeq = tuple[int, ...]


def _fold_coverings(
    mu: IntSeq, nu: IntSeq, max_k: int, least: int = 0
) -> dict[IntSeq, int]:
    """Normalized index -> summed sign over all coverings of mu/nu.

    One loop over `coverings._walk` under the kill floor `least`: only
    coverings whose subscripts are all at least `least` are visited, since
    the walk ends a row at its first hook below the floor (the subscript
    grows with the terminal row, so every lower terminal is below it too).
    A zero subscript is dropped (H_0 = 1) when the leaf's index is read.
    least = 0 gives the H expansion (H_a = 0 for a < 0); least = 1 gives
    the direct ribbon formula, where a zero part kills too.
    """
    start = build_diagram(mu, nu)
    _check_bound(start.k, max_k)
    terms: dict[IntSeq, int] = {}
    for hooks in _walk(start, start.k, least):
        index = tuple([h.delta for h in hooks if h.delta])
        terms[index] = terms.get(index, 0) + _sign(hooks)
    return terms


def immaculate_to_H(mu: Iterable[int], *, max_k: int = DEFAULT_MAX_K) -> BasisExpr:
    """H-expansion of the immaculate element indexed by the sequence mu."""
    mu = tuple(mu)
    return BasisExpr("H", _fold_coverings(mu, (0,) * len(mu), max_k))


def straighten_skew(
    mu: Iterable[int], nu: Iterable[int]
) -> tuple[int, IntSeq, IntSeq]:
    """Normalize arbitrary integer inner shape nu to a nonnegative partition.

    Returns (sign, mu', nu') with sign in {-1, 0, +1}; sign 0 means the
    skew element vanishes. Adding a common constant to every part of mu
    and nu keeps the element, so both are shifted until nu is nonnegative.
    The Jacobi-Trudi columns are indexed by c_j = nu_j - j: they are sorted
    decreasing, nu'_j = c'_j + j, and the sign is the parity of the sort.
    Two equal columns make the element zero; the tie shows in nu' as an
    adjacent rise by exactly one.
    """
    mu, nu = pad_pair(mu, nu)
    shift = max(0, -min(nu, default=0))
    cols = [part + shift - j for j, part in enumerate(nu)]
    sign = (permutation_sign([-c for c in cols])
            if len(set(cols)) == len(cols) else 0)
    cols.sort(reverse=True)
    return (sign, tuple([m + shift for m in mu]),
            tuple([c + j for j, c in enumerate(cols)]))


def skew_immaculate_to_H(
    mu: Iterable[int],
    nu: Optional[Iterable[int]] = None,
    *,
    max_k: int = DEFAULT_MAX_K,
) -> BasisExpr:
    """H-expansion of the skew element mu/nu for arbitrary integer nu.

    A partition nu straightens to itself with sign +1.
    """
    sign, mu, nu = straighten_skew(mu, nu)
    if sign == 0:
        return BasisExpr.zero("H")
    expr = BasisExpr("H", _fold_coverings(mu, nu, max_k))
    return expr if sign > 0 else -expr


def skew_prefix_decomposition(
    mu: Iterable[int], m: int, *, max_k: int = DEFAULT_MAX_K
) -> list[tuple[int, IntSeq, tuple[IntSeq, IntSeq]]]:
    """Split off the bottom m rows of the straight shape mu.

    The covering walk cut after m hooks: one entry (sign, prefix,
    (mu_tail, nu_tail)) per ordered m-arrangement pi of {1..k}, in
    lexicographic order, as hook r ends as many rows above its start as
    pi_r ranks among the unused values. The prefix holds the hooks'
    H-subscripts mu_i - i + pi_i and the tail is what they leave. Summing
    sign * H(prefix) * (skew expansion of the tail) gives that of mu.
    """
    mu = tuple(mu)
    k = len(mu)
    if not k:
        raise ValueError("the shape has no rows to split")
    if not 1 <= m <= k:
        raise ValueError(f"need 1 <= m <= {k}, got {m}")
    start = build_diagram(mu)
    _check_bound(k, max_k)
    return [
        (_sign(hooks), tuple([h.delta for h in hooks]),
         (mu[m:], hooks[-1].bumped[m:]))
        for hooks in _walk(start, m)
    ]


def monomial_to_dual_immaculate(
    alpha: Iterable[int], *, max_k: int = DEFAULT_MAX_K
) -> BasisExpr:
    """Expansion of a monomial quasisymmetric element into the dual basis.

    By duality the coefficient of dI_mu in M_alpha is the coefficient of
    H_alpha in the immaculate element at mu, so it is read off the covering
    fold of every composition mu of |alpha|.
    """
    alpha = tuple(alpha)
    if any(a < 1 for a in alpha):
        raise ValueError(f"alpha must be a strong composition: {brief(alpha)}")
    n = sum(alpha)
    if max_k < 0:
        raise ValueError(f"max_k must be nonnegative, got {max_k}")
    if n > max_k:
        raise ValueError(f"|alpha| = {n} exceeds the bound {max_k}")
    return BasisExpr("dI", {
        mu: _fold_coverings(mu, (0,) * len(mu), max_k).get(alpha, 0)
        for mu in compositions_of(n)
    })


def forgetful_to_h(expr: BasisExpr) -> BasisExpr:
    """Commutative image: each H index sorted weakly decreasing, label h_sym."""
    if expr.basis != "H":
        raise ValueError(f"forgetful map expects basis H, got {expr.basis}")
    terms: dict[IntSeq, int] = {}
    for index, coeff in expr.items():
        key = tuple(sorted(index, reverse=True))
        terms[key] = terms.get(key, 0) + coeff
    return BasisExpr("h_sym", terms)
