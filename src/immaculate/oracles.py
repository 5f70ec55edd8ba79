"""Independent ground truth: determinant expansions of Jacobi-Trudi matrices.

This module imports nothing from the package, so it shares no code with
the covering machinery it is compared against: the subscript rule and
the composition listing are written here again on purpose. Results are
plain dicts from index to nonzero coefficient; the comparisons with
production expressions live in `verify`.

The noncommutative determinant is the signed sum over permutations with
the factors of each monomial taken row by row from the top, which is what
sequential top-row Laplace expansion produces. `ndet_expand` runs that
expansion down the rows with the set of columns used so far as its state,
a bitmask: row i takes each unused column j, and the sign flips once for
each used column to the right of j, which counts the inversions of the
permutation. So 2^k column subsets stand in for the k! permutations.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

IntSeq = tuple[int, ...]

#: The most rows `ndet_expand` takes, the same as the covering paths' bound
#: but kept here, as this module imports nothing from the package.
_MAX_ROWS = 10


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
    cols = [part - j for j, part in enumerate(nu, start=1)]
    return tuple(
        tuple([m - i - c for c in cols]) for i, m in enumerate(mu, start=1)
    )


def ndet_expand(matrix: tuple[IntSeq, ...]) -> dict[IntSeq, int]:
    """Row-ordered determinant by Laplace expansion over column subsets.

    H_a = 0 for a < 0 kills a monomial and H_0 = 1 drops out of it. The
    result maps each H index to its coefficient; cancelled terms are
    dropped.
    """
    k = len(matrix)
    if any(len(row) != k for row in matrix):
        raise ValueError("matrix must be square")
    if k > _MAX_ROWS:
        raise ValueError(f"matrix has {k} rows; limit is {_MAX_ROWS}")
    states: dict[int, dict[IntSeq, int]] = {0: {(): 1}}
    for row in matrix:
        entries = [(j, (a,) if a else ()) for j, a in enumerate(row) if a >= 0]
        nxt: dict[int, dict[IntSeq, int]] = {}
        for used, partial in states.items():
            for j, factor in entries:
                if used >> j & 1:
                    continue
                sign = -1 if (used >> j).bit_count() % 2 else 1
                terms = nxt.setdefault(used | 1 << j, {})
                for index, coeff in partial.items():
                    index += factor
                    terms[index] = terms.get(index, 0) + sign * coeff
        states = nxt
    full = states.get((1 << k) - 1, {})
    return {index: coeff for index, coeff in full.items() if coeff}


def commutative_jacobi_trudi(
    lam: Iterable[int], nu: Optional[Iterable[int]] = None
) -> dict[IntSeq, int]:
    """Determinant of h_(lam_i - i - (nu_j - j)) in commuting variables.

    The commutative image of `ndet_expand`: each H index sorted into a
    partition, coefficients summed, cancelled terms dropped.
    """
    terms: dict[IntSeq, int] = {}
    for index, coeff in ndet_expand(jacobi_trudi_matrix(lam, nu)).items():
        key = tuple(sorted(index, reverse=True))
        terms[key] = terms.get(key, 0) + coeff
    return {index: coeff for index, coeff in terms.items() if coeff}


def determinant_rows(n: int) -> dict[IntSeq, dict[IntSeq, int]]:
    """`ndet_expand` of the Jacobi-Trudi matrix of each composition mu of n.

    Keyed by mu in lexicographic order. Row mu maps alpha to the
    coefficient of H_alpha in the immaculate element at mu: the rows of
    the inverse Kostka matrix.
    """
    return {mu: ndet_expand(jacobi_trudi_matrix(mu)) for mu in _compositions(n)}
