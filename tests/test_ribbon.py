import random
import re
from itertools import permutations

import pytest

from immaculate.compositions import compositions_of, permutation_sign
from immaculate.expansions import immaculate_to_H
from immaculate.expr import BasisExpr
from immaculate.ribbon import (
    _check_conversion_size,
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


@pytest.mark.parametrize("convert, basis", [(H_to_ribbon, "H"), (ribbon_to_H, "R")])
@pytest.mark.parametrize("parts", [21, 30, 64])
def test_conversions_refuse_more_than_20_parts(convert, basis, parts):
    # 2^(parts-1) coarsenings per index; refused before any term is built,
    # whichever index of the expression is the long one
    expr = BasisExpr(basis, {(2, 1): 3, (1,) * parts: -1})
    with pytest.raises(ValueError, match=(
            f"^cannot convert an index with {parts} parts: the limit is 20 ")):
        convert(expr)


def test_conversion_bound_admits_20_parts():
    _check_conversion_size(BasisExpr.term("H", (1,) * 20))
    _check_conversion_size(BasisExpr.zero("R"))


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


@pytest.mark.parametrize("alpha, beta, bad", [
    ((0, 1), (1,), (0, 1)),
    ((2,), (0, 1), (0, 1)),  # the fused index (2, 1) would pass
    ((1, 2), (3, -1), (3, -1)),
])
def test_ribbon_product_names_the_bad_factor(alpha, beta, bad):
    with pytest.raises(ValueError) as info:
        ribbon_product(alpha, beta)
    assert str(info.value) == (
        f"ribbon product factor {bad} is not a strong composition")


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


def test_class_empty_composition():
    assert im2rib_class(()) == 0
    assert immaculate_to_ribbon_direct(()) == BasisExpr.term("R", ())
    assert H_to_ribbon(immaculate_to_H(())) == BasisExpr.term("R", ())


def test_class_absent():
    assert im2rib_class((1, 1, 2, 3)) is None
    assert im2rib_class((3, 1, 3)) is None


@pytest.mark.parametrize("alpha", [(0,), (0, 0), (2, 0)])
def test_class_rejects_weak_composition(alpha):
    # a zero part is not "in the class"; the direct formula rejects it too
    message = f"alpha must be a strong composition: {alpha}"
    with pytest.raises(ValueError, match=re.escape(message)):
        im2rib_class(alpha)
    for force in (False, True):
        with pytest.raises(ValueError, match=re.escape(message)):
            immaculate_to_ribbon_direct(alpha, force=force)


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


def permutation_sum(alpha):
    """The formula as written: R_(alpha_i - i + sigma_i) over all sigma in S_k."""
    k = len(alpha)
    terms = {}
    for sigma in permutations(range(1, k + 1)):
        index = tuple(alpha[i] - (i + 1) + sigma[i] for i in range(k))
        if any(part <= 0 for part in index):
            continue
        terms[index] = terms.get(index, 0) + permutation_sign(sigma)
    return BasisExpr("R", terms)


def test_direct_matches_permutation_sum():
    shapes = [alpha for n in range(9) for alpha in compositions_of(n)
              if len(alpha) <= 7]
    shapes += [(m,) * k for k in range(1, 8) for m in range(1, 21 // k + 1)]
    for alpha in shapes:
        assert immaculate_to_ribbon_direct(alpha, force=True) == (
            permutation_sum(alpha)), alpha


def test_direct_respects_max_k():
    with pytest.raises(ValueError, match="limited to 3"):
        immaculate_to_ribbon_direct((1,) * 5, max_k=3)
    with pytest.raises(ValueError, match="limited to 10"):
        immaculate_to_ribbon_direct((1,) * 11)
