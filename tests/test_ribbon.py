import random

import pytest

from immaculate.compositions import compositions_of
from immaculate.expansions import immaculate_to_H
from immaculate.expr import BasisExpr
from immaculate.ribbon import (
    H_to_ribbon,
    im2rib_class,
    immaculate_to_ribbon_direct,
    ribbon_product,
    ribbon_to_H,
)


def test_ribbon_to_H_basics():
    assert ribbon_to_H(BasisExpr.term("R", (2, 1))) == BasisExpr(
        "H", {(2, 1): 1, (3,): -1}
    )
    assert ribbon_to_H(BasisExpr.term("R", (5,))) == BasisExpr.term("H", (5,))
    assert ribbon_to_H(BasisExpr.term("R", (1, 1))) == BasisExpr(
        "H", {(1, 1): 1, (2,): -1}
    )


def test_H_to_ribbon_basics():
    assert H_to_ribbon(BasisExpr.term("H", (2, 1))) == BasisExpr(
        "R", {(2, 1): 1, (3,): 1}
    )
    assert H_to_ribbon(BasisExpr.term("H", (1, 1, 1))) == BasisExpr(
        "R", {(1, 1, 1): 1, (2, 1): 1, (1, 2): 1, (3,): 1}
    )


def test_conversions_check_basis():
    with pytest.raises(ValueError):
        ribbon_to_H(BasisExpr.term("H", (1,)))
    with pytest.raises(ValueError):
        H_to_ribbon(BasisExpr.term("R", (1,)))


def test_roundtrip_all_small_compositions():
    for n in range(8):
        for alpha in compositions_of(n):
            h = BasisExpr.term("H", alpha)
            r = BasisExpr.term("R", alpha)
            assert ribbon_to_H(H_to_ribbon(h)) == h
            assert H_to_ribbon(ribbon_to_H(r)) == r


def test_roundtrip_random_expressions():
    rng = random.Random(6)
    for _ in range(30):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            ix = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 4)))
            terms[ix] = rng.randint(-5, 5)
        x = BasisExpr("R", terms)
        assert H_to_ribbon(ribbon_to_H(x)) == x


def test_ribbon_product_examples():
    assert ribbon_product((2,), (1,)) == BasisExpr("R", {(2, 1): 1, (3,): 1})
    assert ribbon_product((1, 1), (2,)) == BasisExpr(
        "R", {(1, 1, 2): 1, (1, 3): 1}
    )


def test_ribbon_product_rejects_empty():
    with pytest.raises(ValueError):
        ribbon_product((), (1,))


def test_ribbon_product_consistent_with_H():
    rng = random.Random(7)
    for _ in range(50):
        alpha = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        beta = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        lhs = ribbon_to_H(ribbon_product(alpha, beta))
        rhs = ribbon_to_H(BasisExpr.term("R", alpha)) * ribbon_to_H(
            BasisExpr.term("R", beta)
        )
        assert lhs == rhs


def test_class_rectangles():
    assert im2rib_class((3, 3, 3, 3, 3)) == 3
    assert im2rib_class((4, 4, 2, 2, 2)) == 2  # (4^2, 2^3): b=2 <= c=2, b <= a
    assert im2rib_class((1, 1, 1, 1)) == 1


def test_class_staircase_dominating():
    assert im2rib_class((2, 3, 5)) == 3
    assert im2rib_class((1, 2, 3, 4)) == 4


def test_class_absent():
    assert im2rib_class((1, 1, 2, 3)) is None
    assert im2rib_class((3, 1, 3)) is None


def test_direct_formula_examples():
    assert immaculate_to_ribbon_direct((7,)) == BasisExpr.term("R", (7,))
    assert immaculate_to_ribbon_direct((2, 2)) == BasisExpr(
        "R", {(2, 2): 1, (3, 1): -1}
    )


def test_direct_matches_conversion_on_class():
    for n in range(1, 9):
        for alpha in compositions_of(n):
            if len(alpha) > 5 or im2rib_class(alpha) is None:
                continue
            assert immaculate_to_ribbon_direct(alpha) == H_to_ribbon(
                immaculate_to_H(alpha)
            )


def test_direct_requires_force_outside_class():
    with pytest.raises(ValueError):
        immaculate_to_ribbon_direct((1, 1, 2, 3))
    got = immaculate_to_ribbon_direct((1, 1, 2, 3), force=True)
    assert got == BasisExpr("R", {
        (1, 1, 2, 3): 1, (1, 1, 3, 2): -1, (1, 2, 1, 3): -1,
        (1, 2, 3, 1): 1, (1, 3, 1, 2): 1, (1, 3, 2, 1): -1,
    })
    # this one happens to equal the true expansion anyway
    assert got == H_to_ribbon(immaculate_to_H((1, 1, 2, 3)))


def test_direct_respects_max_k():
    with pytest.raises(ValueError, match="limited to 3"):
        immaculate_to_ribbon_direct((1,) * 5, max_k=3)
    with pytest.raises(ValueError, match="limited to 10"):
        immaculate_to_ribbon_direct((1,) * 11)
