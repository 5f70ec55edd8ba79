"""Reference helpers shared by the tests, written apart from the package."""

from itertools import permutations

from immaculate.diagram import step
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


def reference_walk(mu, nu, depth):
    """Per covering of the bottom depth rows of mu over nu, in the order of
    ascending terminal rows: its hooks, built by `step`; its terminal
    cells, subscripts and sign, from the closed forms; and the tail of the
    inner shape it leaves above row depth. The recursion is on the whole
    inner shape, apart from the move table the package walks; nu is
    zero-padded to the length of mu."""
    mu = tuple(mu)
    k = len(mu)
    nu = tuple(nu) + (0,) * (k - len(nu))

    def walk(nu_now, s, hooks, cells, deltas, sign):
        if s > depth:
            yield hooks, cells, deltas, sign, nu_now[depth:]
            return
        for p in range(s, k + 1):
            hook = step(mu, nu_now, s, p)
            yield from walk(hook.bumped, s + 1, hooks + (hook,),
                            cells + ((p, nu_now[p - 1] + 1),),
                            deltas + (mu[s - 1] - nu_now[p - 1] + p - s,),
                            sign * (-1) ** (p - s))

    yield from walk(nu, 1, (), (), (), 1)


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


def im2rib_class_search(alpha):
    """The smallest J in 0..k with alpha_l >= l for l <= J and alpha_l = J
    after, found by trying each J in turn; None if there is none."""
    k = len(alpha)
    for J in range(k + 1):
        if all(alpha[l - 1] >= l for l in range(1, J + 1)) and all(
            alpha[l - 1] == J for l in range(J + 1, k + 1)
        ):
            return J
    return None


def straighten_by_swaps(mu, nu):
    """(sign, mu, nu) straightened by signed adjacent swaps.

    Both sequences are zero-padded to one length and shifted until nu is
    nonnegative. Then (nu_p, nu_p+1) -> (nu_p+1 - 1, nu_p + 1) swaps two
    Jacobi-Trudi columns and flips the sign, until nu is weakly
    decreasing; an adjacent rise by exactly one means two equal columns,
    and the sign is 0 with nu as it stands at that point.
    """
    k = max(len(mu), len(nu))
    mu = list(mu) + [0] * (k - len(mu))
    nu = list(nu) + [0] * (k - len(nu))
    shift = max([0] + [-part for part in nu])
    mu = tuple(m + shift for m in mu)
    nu = [n + shift for n in nu]
    sign = 1
    while True:
        for p in range(k - 1):
            if nu[p] < nu[p + 1]:
                if nu[p + 1] == nu[p] + 1:
                    return 0, mu, tuple(nu)
                nu[p], nu[p + 1] = nu[p + 1] - 1, nu[p] + 1
                sign = -sign
                break
        else:
            return sign, mu, tuple(nu)


_TEXT_TOKEN = {"H": "H", "R": "R", "M": "M", "dI": "dI", "h_sym": "h"}
_LATEX_TOKEN = {"H": "H", "R": "R", "M": "M", "dI": "I^{*}", "h_sym": "h"}


def _join_signed(parts):
    sign, first = parts[0]
    out = first if sign == "+" else f"-{first}"
    for sign, chunk in parts[1:]:
        out += f" {sign} {chunk}"
    return out


def text_by_terms(expr):
    """`BasisExpr.to_text` as it was written before the one renderer.

    It sorts the terms itself, so the order `BasisExpr.items` gives is
    checked, not relied on.
    """
    if not expr:
        return "0"
    token = _TEXT_TOKEN[expr.basis]
    parts = []
    for index, coeff in sorted(expr.items()):
        mag = abs(coeff)
        if not index:
            chunk = str(mag)
        else:
            body = f"{token}({','.join(map(str, index))})"
            chunk = body if mag == 1 else f"{mag}*{body}"
        parts.append(("-" if coeff < 0 else "+", chunk))
    return _join_signed(parts)


def latex_by_terms(expr):
    """`BasisExpr.to_latex` as it was written before the one renderer,
    on terms it sorts itself."""
    token = _LATEX_TOKEN[expr.basis]
    if not expr:
        return "0"

    def fmt(ix):
        return "_{(" + ",".join(map(str, ix)) + ")}"

    parts = []
    for index, coeff in sorted(expr.items()):
        body = "1" if not index else f"{token}{fmt(index)}"
        mag = abs(coeff)
        if not index:
            lead = str(mag)
        elif mag == 1:
            lead = body
        else:
            lead = f"{mag}\\,{body}"
        parts.append(("-" if coeff < 0 else "+", lead))
    return _join_signed(parts)
