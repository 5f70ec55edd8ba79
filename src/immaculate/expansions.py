"""Basis expansions built from tunnel hook coverings.

The central identity: the Schur-like basis element indexed by an integer
sequence mu (skewed by nu) expands in the complete homogeneous basis as
the signed sum, over all coverings, of H indexed by the covering's value
sequence. A negative subscript kills every covering through its hook
(H_a = 0 for a < 0), and a zero subscript is dropped (H_0 = 1).

The sum is folded over active tails, not coverings. The hooks from row s
read and change only rows s..k of the inner shape, so every covering
that reaches the same tail nu_now[s-1:] shares one signed sum of
suffixes. Row s of a k-row shape reaches at most C(k, s - 1) tails, as
many as the column sets that a row-by-row Laplace expansion of the
Jacobi-Trudi determinant has used by then: at most 2^k - 1 states in
all, where there are k! coverings. The hooks are read from
`coverings._tail_moves`, the one move table, which the covering walk
reads too, so the fold builds no `TunnelHook` record. The table takes
each tail's hooks from the closed form `diagram.tail_hook` once per
process, through the memo `coverings._tail_hooks`, and adds mu_s to
their deltas: folds that reach the same tail share its hooks. The
deltas of one tail's hooks strictly decrease, so only the delta 0 hook,
which drops its part, can meet an index another hook made: each tail's
sum of suffixes is built by plain writes and that one merge, and no zero
coefficient is carried up to the next row.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .compositions import compositions_of, int_parts, permutation_sign
from .coverings import IntSeq, MAX_ROWS, _check_rows, _tail_moves, _walk
from .diagram import GbprDiagram, build_diagram, pad_pair
from .expr import BasisExpr


def _fold_coverings(
    mu: IntSeq, nu: IntSeq, *, least: int = 0
) -> dict[IntSeq, int]:
    """Normalized index -> nonzero summed sign over the coverings of mu/nu.

    Only coverings whose subscripts are all at least the kill floor
    `least` count: least = 0 gives the H expansion (H_a = 0 for a < 0),
    and least = 1 the direct ribbon formula, where a zero part kills too.
    A zero subscript is dropped (H_0 = 1). mu and nu are tuples of ints,
    as the callers read them; nu is zero-padded to mu's length here.

    Two passes over the active tails of `_tail_moves`: forward, the tails
    each row reaches; backward, from row k up, each tail's signed dict of
    suffix indices, built from the dicts of the tails below it. A level is
    dropped as soon as the one above it is built.

    The hook from row s to row p has delta mu_s - nu_p + p - s, which
    strictly grows with p on the weakly decreasing tail: two hooks from
    one tail never share a delta, so two with a nonzero delta never make
    the same index. Their suffixes are written by plain assignment, in
    ascending delta, each entry as nonzero as the suffix's own. Only the
    delta 0 hook, the tail's last move and only under floor 0, drops its
    part (H_0 = 1) and can land on an index another hook made; it is
    merged after the others, and an index whose sum reaches 0 is deleted.
    So no dict at any level holds a zero coefficient.
    """
    start = GbprDiagram._of_ints(mu, nu + (0,) * (len(mu) - len(nu)))
    _check_rows(start.k)
    levels = list(_tail_moves(start, least))
    # every row absorbed: the empty tail and the empty suffix
    below: dict[IntSeq, dict[IntSeq, int]] = {(): {(): 1}}
    while levels:
        suffixes: dict[IntSeq, dict[IntSeq, int]] = {}
        for tail, moves in levels.pop().items():
            terms: dict[IntSeq, int] = {}
            merge = None
            for delta, sign, after, _ in reversed(moves):
                suffix = below[after]
                if not delta:
                    merge = sign, suffix
                    continue
                head = delta,
                if sign > 0:
                    for index, coeff in suffix.items():
                        terms[head + index] = coeff
                else:
                    for index, coeff in suffix.items():
                        terms[head + index] = -coeff
            if merge:
                sign, suffix = merge
                get = terms.get
                for index, coeff in suffix.items():
                    coeff = get(index, 0) + sign * coeff
                    if coeff:
                        terms[index] = coeff
                    else:
                        del terms[index]
            suffixes[tail] = terms
        below = suffixes
    return below[start.nu]


def immaculate_to_H(mu: Iterable[int]) -> BasisExpr:
    """H-expansion of the immaculate element indexed by the sequence mu."""
    return BasisExpr._of_clean("H", _fold_coverings(int_parts(mu, "mu"), ()))


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
    mu: Iterable[int], nu: Optional[Iterable[int]] = None
) -> BasisExpr:
    """H-expansion of the skew element mu/nu for arbitrary integer nu.

    A partition nu straightens to itself with sign +1.
    """
    sign, mu, nu = straighten_skew(mu, nu)
    if sign == 0:
        return BasisExpr.zero("H")
    terms = _fold_coverings(mu, nu)
    if sign < 0:
        terms = {index: -coeff for index, coeff in terms.items()}
    return BasisExpr._of_clean("H", terms)


def skew_prefix_decomposition(
    mu: Iterable[int], m: int
) -> list[tuple[int, IntSeq, tuple[IntSeq, IntSeq]]]:
    """Split off the bottom m rows of the straight shape mu.

    The covering walk cut after m hooks: one entry (sign, prefix,
    (mu_tail, nu_tail)) per ordered m-arrangement pi of {1..k}, in
    lexicographic order, as hook r ends as many rows above its start as
    pi_r ranks among the unused values. The prefix holds the hooks'
    H-subscripts mu_i - i + pi_i and the tail is what they leave. Summing
    sign * H(prefix) * (skew expansion of the tail) gives that of mu.
    """
    start = build_diagram(mu)
    k = start.k
    if not k:
        raise ValueError("the shape has no rows to split")
    if not 1 <= int_parts((m,), "m")[0] <= k:
        raise ValueError(f"need 1 <= m <= {k}, got {m}")
    _check_rows(k)
    return [(sign, deltas, (start.mu[m:], tail))
            for _, deltas, sign, tail in _walk(start, m)]


def monomial_to_dual_immaculate(alpha: Iterable[int]) -> BasisExpr:
    """Expansion of a monomial quasisymmetric element into the dual basis.

    By duality the coefficient of dI_mu in M_alpha is the coefficient of
    H_alpha in the immaculate element at mu, so it is read off the covering
    fold of every composition mu of |alpha|: |alpha| is held to MAX_ROWS.
    """
    alpha = int_parts(alpha, "alpha", strong=True)
    n = sum(alpha)
    if n > MAX_ROWS:
        raise ValueError(f"|alpha| = {n} exceeds the bound {MAX_ROWS}")
    return BasisExpr("dI", {
        mu: _fold_coverings(mu, ()).get(alpha, 0)
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
