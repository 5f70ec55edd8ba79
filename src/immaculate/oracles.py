"""Independent ground truth: determinant expansions and the duality check.

These never touch the covering machinery, and share no code with it: the
permutation sign, subscript normalization and composition listing are
written here again on purpose. Only the `BasisExpr` container comes from
the package. The noncommutative determinant is the signed sum over
permutations with the factors of each monomial taken row by row from the
top, which is what sequential top-row Laplace expansion produces.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, Iterator, Optional

from .expr import BasisExpr

IntSeq = tuple[int, ...]


def _cycle_sign(sigma: IntSeq) -> int:
    """(-1)^(k - c) for a permutation of 0..k-1 with c cycles."""
    seen: set[int] = set()
    cycles = 0
    for i in range(len(sigma)):
        if i in seen:
            continue
        cycles += 1
        while i not in seen:
            seen.add(i)
            i = sigma[i]
    return -1 if (len(sigma) - cycles) % 2 else 1


def _h_subscript(raw: IntSeq) -> Optional[IntSeq]:
    """H_a = 0 for a < 0 kills the monomial (None); H_0 = 1 drops out."""
    if min(raw, default=0) < 0:
        return None
    return tuple(a for a in raw if a)


def _compositions(n: int) -> Iterator[IntSeq]:
    """Compositions of n in lexicographic order."""
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def _pad_pair(mu: Iterable[int], nu: Optional[Iterable[int]]) -> tuple[IntSeq, IntSeq]:
    mu = tuple(mu)
    nu = tuple(nu) if nu is not None else ()
    k = max(len(mu), len(nu))
    return mu + (0,) * (k - len(mu)), nu + (0,) * (k - len(nu))


def jacobi_trudi_matrix(
    mu: Iterable[int], nu: Optional[Iterable[int]] = None
) -> tuple[IntSeq, ...]:
    """k x k grid of raw H-subscripts: (mu_i - i) - (nu_j - j), nu default 0."""
    mu, nu = _pad_pair(mu, nu)
    k = len(mu)
    return tuple(
        tuple((mu[i] - (i + 1)) - (nu[j] - (j + 1)) for j in range(k))
        for i in range(k)
    )


def ndet_expand(matrix: tuple[IntSeq, ...], *, max_k: int = 10) -> BasisExpr:
    """Signed permutation sum with each monomial's factors in row order."""
    k = len(matrix)
    if any(len(row) != k for row in matrix):
        raise ValueError("matrix must be square")
    if k > max_k:
        raise ValueError(f"matrix has {k} rows; limit is {max_k}")
    terms: dict[IntSeq, int] = {}
    for sigma in permutations(range(k)):
        raw = tuple(matrix[i][sigma[i]] for i in range(k))
        index = _h_subscript(raw)
        if index is not None:
            terms[index] = terms.get(index, 0) + _cycle_sign(sigma)
    return BasisExpr("H", terms)


def commutative_jacobi_trudi(
    lam: Iterable[int], nu: Optional[Iterable[int]] = None, *, max_k: int = 10
) -> BasisExpr:
    """Determinant of h_(lam_i - i - (nu_j - j)) in commuting variables."""
    matrix = jacobi_trudi_matrix(lam, nu)
    if len(matrix) > max_k:
        raise ValueError(f"matrix has {len(matrix)} rows; limit is {max_k}")
    terms: dict[IntSeq, int] = {}
    k = len(matrix)
    for sigma in permutations(range(k)):
        raw = tuple(matrix[i][sigma[i]] for i in range(k))
        index = _h_subscript(raw)
        if index is not None:
            key = tuple(sorted(index, reverse=True))
            terms[key] = terms.get(key, 0) + _cycle_sign(sigma)
    return BasisExpr("h_sym", terms)


def duality_transpose_check(n: int, *, max_k: int = 10) -> dict:
    """Compare the two transition matrices over compositions of n.

    A[beta][alpha] is the coefficient of H_alpha in the determinant of the
    Jacobi-Trudi matrix of beta; B[alpha][mu] is the coefficient of the dual
    element at mu in the production monomial expansion of alpha. Duality of
    the two bases forces B to equal the transpose of A.
    """
    from .expansions import monomial_to_dual_immaculate

    comps = list(_compositions(n))
    a_matrix = {
        beta: ndet_expand(jacobi_trudi_matrix(beta), max_k=max_k)
        for beta in comps
    }
    counterexample = None
    for alpha in comps:
        b_row = monomial_to_dual_immaculate(alpha, max_k=max_k)
        for mu in comps:
            if b_row.coefficient(mu) != a_matrix[mu].coefficient(alpha):
                counterexample = {"alpha": list(alpha), "mu": list(mu)}
                break
        if counterexample:
            break
    return {
        "check": "duality_transpose",
        "n": n,
        "pass": counterexample is None,
        "counterexample": counterexample,
    }
