"""Basis expansions built from tunnel hook coverings.

The central identity: the Schur-like basis element indexed by an integer
sequence mu (skewed by nu) expands in the complete homogeneous basis as
the signed sum, over all coverings, of H indexed by the covering's value
sequence. Subscript normalization (negative kills, zero deletes) is
applied per monomial.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .compositions import (
    compositions_of,
    flatten,
    linear_permutations,
    linear_sign,
)
from .coverings import DEFAULT_MAX_K, delta_sign_stream
from .diagram import apply_hook, build_diagram, make_tunnel_hook, pad_pair
from .expr import BasisExpr, normalize_h_index

IntSeq = tuple[int, ...]


def _fold_coverings(mu: IntSeq, nu: IntSeq, max_k: int) -> BasisExpr:
    terms: dict[IntSeq, int] = {}
    for delta, sign in delta_sign_stream(mu, nu, max_k=max_k):
        index = normalize_h_index(delta)
        if index is None:
            continue
        terms[index] = terms.get(index, 0) + sign
    return BasisExpr("H", terms)


def immaculate_to_H(mu: Iterable[int], *, max_k: int = DEFAULT_MAX_K) -> BasisExpr:
    """H-expansion of the immaculate element indexed by the sequence mu."""
    mu = tuple(mu)
    if not mu:
        return BasisExpr.unit("H")
    return _fold_coverings(mu, (0,) * len(mu), max_k)


def straighten_skew(
    mu: Iterable[int], nu: Iterable[int]
) -> tuple[int, IntSeq, IntSeq]:
    """Normalize arbitrary integer inner shape nu to a nonnegative partition.

    Returns (sign, mu', nu') with sign in {-1, 0, +1}; sign 0 means the
    skew element vanishes. Two value-preserving moves are used: adding a
    common constant to every part of mu and nu, and the signed swap
    (nu_p, nu_{p+1}) -> (nu_{p+1} - 1, nu_p + 1) that exchanges the
    corresponding matrix columns. An adjacent rise by exactly one makes
    two columns equal, so the element is zero.
    """
    mu, nu = pad_pair(mu, nu)
    if nu and min(nu) < 0:
        shift = -min(nu)
        mu = tuple(m + shift for m in mu)
        nu = tuple(n + shift for n in nu)
    parts = list(nu)
    sign = 1
    while True:
        for p in range(len(parts) - 1):
            if parts[p] < parts[p + 1]:
                if parts[p + 1] == parts[p] + 1:
                    return 0, mu, tuple(parts)
                parts[p], parts[p + 1] = parts[p + 1] - 1, parts[p] + 1
                sign = -sign
                break
        else:
            return sign, mu, tuple(parts)


def skew_immaculate_to_H(
    mu: Iterable[int],
    nu: Optional[Iterable[int]] = None,
    *,
    max_k: int = DEFAULT_MAX_K,
) -> BasisExpr:
    """H-expansion of the skew element mu/nu for arbitrary integer nu."""
    mu, nu = pad_pair(mu, nu)
    if not mu:
        return BasisExpr.unit("H")
    if min(nu, default=0) >= 0 and all(
        nu[i] >= nu[i + 1] for i in range(len(nu) - 1)
    ):
        return _fold_coverings(mu, nu, max_k)
    sign, mu, nu = straighten_skew(mu, nu)
    if sign == 0:
        return BasisExpr.zero("H")
    return sign * _fold_coverings(mu, nu, max_k)


def skew_prefix_decomposition(
    mu: Iterable[int], m: int, *, max_k: int = DEFAULT_MAX_K
) -> list[tuple[int, IntSeq, tuple[IntSeq, IntSeq]]]:
    """Split off the bottom m rows of the straight shape mu.

    One entry (sign, prefix, (mu_tail, nu_tail)) per ordered m-arrangement
    pi of {1..k}: the prefix holds the H-subscripts mu_i - i + pi_i of the
    first m hooks, and the tail shape is what their removal leaves behind.
    Multiplying H(prefix) by the skew expansion of each tail shape and
    summing with signs reassembles the full H-expansion of mu.
    """
    mu = tuple(mu)
    k = len(mu)
    if not 1 <= m <= k:
        raise ValueError(f"need 1 <= m <= {k}, got {m}")
    if k > max_k:
        raise ValueError(f"shape has {k} rows; limit is {max_k}")
    out = []
    for pi in linear_permutations(k, m):
        diagram = build_diagram(mu)
        prefix = []
        for r, value in enumerate(pi):
            shift = sum(1 for earlier in pi[:r] if earlier > value)
            hook = make_tunnel_hook(diagram, (value + shift, 1 + shift))
            prefix.append(hook.delta)
            diagram = apply_hook(diagram, hook)
        tail = (mu[m:], diagram.nu[m:])
        out.append((linear_sign(pi, k), tuple(prefix), tail))
    return out


def monomial_to_dual_immaculate(
    alpha: Iterable[int], *, max_k: int = DEFAULT_MAX_K
) -> BasisExpr:
    """Expansion of a monomial quasisymmetric element into the dual basis.

    Scans every composition mu of |alpha| and every covering of the
    straight shape mu; a covering contributes its sign to the coefficient
    of mu when its value sequence is nonnegative and flattens to alpha.
    """
    alpha = tuple(alpha)
    if any(a < 1 for a in alpha):
        raise ValueError(f"alpha must be a strong composition: {alpha}")
    n = sum(alpha)
    if n > max_k:
        raise ValueError(f"|alpha| = {n} exceeds the bound {max_k}")
    terms: dict[IntSeq, int] = {}
    for mu in compositions_of(n):
        coeff = 0
        for delta, sign in delta_sign_stream(mu, max_k=max_k):
            if all(d >= 0 for d in delta) and flatten(delta) == alpha:
                coeff += sign
        if coeff:
            terms[mu] = coeff
    return BasisExpr("dI", terms)


def forgetful_to_h(expr: BasisExpr) -> BasisExpr:
    """Commutative image: each H index sorted weakly decreasing, label h_sym."""
    if expr.basis != "H":
        raise ValueError(f"forgetful map expects basis H, got {expr.basis}")
    terms: dict[IntSeq, int] = {}
    for index, coeff in expr.items():
        key = tuple(sorted(index, reverse=True))
        terms[key] = terms.get(key, 0) + coeff
    return BasisExpr("h_sym", terms)
