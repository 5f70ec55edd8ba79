import ast
import random
from itertools import product
from pathlib import Path

import pytest

from helpers import normalize_h_index, permutation_determinant
from immaculate import oracles, verify
from immaculate.compositions import compositions_of
from immaculate.expr import BasisExpr
from immaculate.oracles import (
    commutative_jacobi_trudi,
    determinant_rows,
    jacobi_trudi_matrix,
    ndet_expand,
)


def test_matrix_straight():
    assert jacobi_trudi_matrix((-1, 3, 2)) == (
        (-1, 0, 1),
        (2, 3, 4),
        (0, 1, 2),
    )


def test_matrix_skew():
    assert jacobi_trudi_matrix((2, 5, 3), (1, 3, 0)) == (
        (1, 0, 4),
        (3, 2, 6),
        (0, -1, 3),
    )


def test_matrix_zero_inner_shape_coincides():
    mu = (4, -1, 2, 0)
    assert jacobi_trudi_matrix(mu) == jacobi_trudi_matrix(mu, (0, 0, 0, 0))


def test_ndet_straight_example():
    assert ndet_expand(jacobi_trudi_matrix((-1, 3, 2))) == {
        (4,): 1, (2, 2): -1, (1, 2, 1): 1, (1, 3): -1,
    }


def test_ndet_skew_example():
    got = ndet_expand(jacobi_trudi_matrix((2, 5, 3), (1, 3, 0)))
    assert got == {(1, 2, 3): 1, (3, 3): -1, (6,): 1, (4, 2): -1}


def test_ndet_1x1():
    assert ndet_expand(((5,),)) == {(5,): 1}
    assert ndet_expand(((0,),)) == {(): 1}
    assert ndet_expand(((-2,),)) == {}


def test_ndet_drops_cancelled_terms():
    # H_1 H_1 - H_1 H_1: both monomials have index (1, 1)
    assert ndet_expand(((1, 1), (1, 1))) == {}


def _laplace(matrix):
    """Literal top-row Laplace expansion, the reference form of ndet."""
    if not matrix:
        return BasisExpr.unit("H")
    total = BasisExpr.zero("H")
    for j, entry in enumerate(matrix[0]):
        index = normalize_h_index((entry,))
        if index is None:
            continue
        minor = tuple(row[:j] + row[j + 1:] for row in matrix[1:])
        sign = -1 if j % 2 else 1
        total = total + sign * (BasisExpr.term("H", index) * _laplace(minor))
    return total


def test_ndet_agrees_with_laplace():
    rng = random.Random(8)
    for _ in range(60):
        k = rng.randint(1, 4)
        matrix = tuple(
            tuple(rng.randint(-2, 4) for _ in range(k)) for _ in range(k)
        )
        assert ndet_expand(matrix) == dict(_laplace(matrix).items())


def test_ndet_matches_permutation_sum_on_skew_matrices():
    rng = random.Random(11)
    for k in range(8):
        for _ in range(40 if k < 6 else 8):
            mu = tuple(rng.randint(-3, 6) for _ in range(k))
            nu = tuple(rng.randint(-3, 6) for _ in range(k))
            matrix = jacobi_trudi_matrix(mu, nu)
            assert ndet_expand(matrix) == permutation_determinant(matrix), (mu, nu)


def test_ndet_matches_permutation_sum_on_raw_matrices():
    rng = random.Random(12)
    for k in range(7):
        for _ in range(30 if k < 6 else 5):
            matrix = tuple(
                tuple(rng.randint(-2, 4) for _ in range(k)) for _ in range(k)
            )
            assert ndet_expand(matrix) == permutation_determinant(matrix), matrix


def test_ndet_matches_permutation_sum_on_compositions():
    for n in range(8):
        for alpha in compositions_of(n):
            matrix = jacobi_trudi_matrix(alpha)
            assert ndet_expand(matrix) == permutation_determinant(matrix), alpha


def test_commutative_matches_sorted_permutation_sum():
    rng = random.Random(13)
    for k in range(7):
        for _ in range(20):
            lam = tuple(rng.randint(-3, 6) for _ in range(k))
            nu = tuple(rng.randint(-3, 6) for _ in range(k))
            want = permutation_determinant(jacobi_trudi_matrix(lam, nu),
                                           commutative=True)
            assert commutative_jacobi_trudi(lam, nu) == want, (lam, nu)


def test_ndet_rejects_non_square():
    with pytest.raises(ValueError, match="^matrix must be square$"):
        ndet_expand(((1, 2), (3,)))
    with pytest.raises(ValueError, match="^matrix must be square$"):
        ndet_expand(((1, 2),))


def test_oracles_reject_more_than_max_k_rows():
    matrix = jacobi_trudi_matrix((1,) * 11)
    with pytest.raises(ValueError, match="^matrix has 11 rows; limit is 10$"):
        ndet_expand(matrix)
    with pytest.raises(ValueError, match="^matrix has 11 rows; limit is 10$"):
        commutative_jacobi_trudi((1,) * 11)
    assert ndet_expand(jacobi_trudi_matrix((1,) * 10))


def test_commutative_skew_example():
    assert commutative_jacobi_trudi((4, 3, 3), (2, 2)) == {
        (3, 2, 1): 1, (3, 3): -1, (6,): 1, (4, 2): -1,
    }


def test_commutative_single_row():
    assert commutative_jacobi_trudi((6,)) == {(6,): 1}


def test_commutative_self_skew_is_unit():
    lam = (2, 1)
    assert commutative_jacobi_trudi(lam, lam) == {(): 1}


def test_commutative_schur_small():
    # s_(2,1) = h_(2,1) - h_(3)
    assert commutative_jacobi_trudi((2, 1)) == {(2, 1): 1, (3,): -1}


def test_determinant_rows_are_the_determinants_of_every_composition():
    for n in range(1, 7):
        rows = determinant_rows(n)
        assert len(rows) == 2 ** (n - 1)
        assert list(rows) == sorted(compositions_of(n))
        for mu, terms in rows.items():
            assert terms == permutation_determinant(jacobi_trudi_matrix(mu)), mu


def test_duality_check_passes():
    assert verify.check_duality(max_n=3) == {
        "check": "duality", "pass": True, "detail": "ok"}


def test_duality_check_names_a_flipped_coefficient(monkeypatch):
    # production expansion with the coefficient of dI_(2,1) in M_(1,2) off
    # by one: the check must fail at n = 3 and name alpha and mu
    real = verify.monomial_to_dual_immaculate

    def flipped(alpha):
        got = real(alpha)
        if alpha != (1, 2):
            return got
        return got + BasisExpr.term("dI", (2, 1))

    monkeypatch.setattr(verify, "monomial_to_dual_immaculate", flipped)
    assert verify.check_duality(max_n=3) == {
        "check": "duality", "pass": False,
        "detail": "duality failed at n=3: {'alpha': [1, 2], 'mu': [2, 1]}"}


def test_oracle_check_names_an_extra_term(monkeypatch):
    # production expansion of (2, 1) with one term too many: the check
    # must fail and name that shape, and fold each distinct shape once
    real = verify.immaculate_to_H
    calls = []

    def extra(mu):
        calls.append(mu)
        got = real(mu)
        return got + BasisExpr.term("H", (1, 1, 1)) if mu == (2, 1) else got

    monkeypatch.setattr(verify, "immaculate_to_H", extra)
    assert verify.check_oracle() == {
        "check": "oracle", "pass": False,
        "detail": "oracle mismatch at (2, 1)"}
    assert len(calls) == len(set(calls)) == 2834


def test_skew_oracle_check_names_an_extra_term(monkeypatch):
    # the first shape the seed draws gets one term too many
    real = verify.skew_immaculate_to_H
    shapes = []

    def extra(mu, nu):
        shapes.append((mu, nu))
        got = real(mu, nu)
        if len(shapes) > 1:
            return got
        return got + BasisExpr.term("H", (1,))

    monkeypatch.setattr(verify, "skew_immaculate_to_H", extra)
    report = verify.check_skew_oracle()
    mu, nu = shapes[0]
    assert report == {
        "check": "skew-oracle", "pass": False,
        "detail": f"skew oracle mismatch at {mu}/{nu}"}
    assert len(shapes) == 200


def test_box_sweep_matches_expansion():
    from immaculate.expansions import immaculate_to_H

    for mu in product(range(-2, 3), repeat=3):
        assert dict(immaculate_to_H(mu).items()) == ndet_expand(
            jacobi_trudi_matrix(mu))


def _package_imports(nodes) -> set:
    found = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "immaculate"
        ):
            found |= {(node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {(None, alias.name) for alias in node.names
                      if alias.name.split(".")[0] == "immaculate"}
    return found


def test_oracles_share_no_code_with_production():
    # no import from the package, at module level or inside any function
    tree = ast.parse(Path(oracles.__file__).read_text())
    assert _package_imports(ast.walk(tree)) == set()
