"""Reference helpers shared by the tests, written apart from the package."""

from itertools import permutations

from immaculate.expr import BasisExpr


def normalize_h_index(raw):
    """A raw H subscript sequence as a strong composition, or None.

    A negative entry kills the monomial (H_a = 0 for a < 0); zeros are
    deleted (H_0 = 1).
    """
    seq = tuple(raw)
    if any(a < 0 for a in seq):
        return None
    return tuple(a for a in seq if a != 0)


def expr_from_json(data):
    """A `BasisExpr` read back from its `to_json_dict` form."""
    return BasisExpr(data["basis"],
                     {tuple(t["index"]): t["coeff"] for t in data["terms"]})


def _cycle_sign(sigma):
    """(-1)^(k - c) for a permutation of 0..k-1 with c cycles."""
    seen = set()
    cycles = 0
    for i in range(len(sigma)):
        if i in seen:
            continue
        cycles += 1
        while i not in seen:
            seen.add(i)
            i = sigma[i]
    return -1 if (len(sigma) - cycles) % 2 else 1


def permutation_determinant(matrix, commutative=False):
    """The row-ordered determinant of a matrix of H subscripts, by definition.

    The signed sum over all k! permutations sigma of the monomials
    H_(m[0][sigma 0]) ... H_(m[k-1][sigma k-1]), as a dict from H index to
    nonzero coefficient. With commutative=True each index is sorted weakly
    decreasing first, which is the commuting-variable determinant.
    """
    k = len(matrix)
    terms = {}
    for sigma in permutations(range(k)):
        index = normalize_h_index(matrix[i][sigma[i]] for i in range(k))
        if index is None:
            continue
        if commutative:
            index = tuple(sorted(index, reverse=True))
        terms[index] = terms.get(index, 0) + _cycle_sign(sigma)
    return {index: c for index, c in terms.items() if c}
