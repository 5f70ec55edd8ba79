import hashlib
import json
import random
import re

import pytest

from helpers import expr_from_json, latex_by_terms, text_by_terms
from immaculate.expansions import immaculate_to_H
from immaculate.expr import BASES, BasisExpr


def test_add_cancellation():
    a = BasisExpr.term("H", (2,))
    assert not (a + (-a))


def test_add_disjoint_support():
    x = BasisExpr.term("H", (3,)) + BasisExpr.term("H", (2, 1))
    assert x.coefficient((3,)) == 1 and x.coefficient((2, 1)) == 1


@pytest.mark.parametrize("index, coeff", [
    ([2, 1], -2), ((1, 2), 0), ((), 0), ((0, 3), 0), ((-1,), 0)])
def test_coefficient_reads_any_index_of_ints(index, coeff):
    # coefficient refuses only parts that are not ints; an index that is
    # not a term, with weak or negative parts too, reads 0
    x = BasisExpr.term("H", (3,)) + BasisExpr.term("H", (2, 1), -2)
    assert x.coefficient(index) == coeff


def test_add_combines_coefficients():
    x = BasisExpr.term("H", (1,), 2) + BasisExpr.term("H", (1,), 3)
    assert x == BasisExpr.term("H", (1,), 5)


def test_add_basis_mismatch():
    with pytest.raises(ValueError):
        BasisExpr.term("H", (1,)) + BasisExpr.term("R", (1,))


def test_multiply_concatenates():
    x = BasisExpr.term("H", (2,)) * BasisExpr.term("H", (3, 1))
    assert x == BasisExpr.term("H", (2, 3, 1))


def test_multiply_bilinear():
    x = (BasisExpr.term("H", (1,)) - BasisExpr.term("H", (2,))) * BasisExpr.term("H", (1,))
    assert x == BasisExpr.term("H", (1, 1)) - BasisExpr.term("H", (2, 1))


def test_multiply_unit():
    x = BasisExpr.term("H", (3, 1), -2)
    assert BasisExpr.unit("H") * x == x
    assert x * BasisExpr.unit("H") == x


def test_multiply_associative_random():
    # exhaustive checks are hopeless; random small expressions suffice
    rng = random.Random(11)

    def rand_expr():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            ix = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3)))
            terms[ix] = rng.randint(-3, 3)
        return BasisExpr("H", terms)

    for _ in range(50):
        a, b, c = rand_expr(), rand_expr(), rand_expr()
        assert (a * b) * c == a * (b * c)


def test_no_product_for_ribbon_basis():
    with pytest.raises(ValueError):
        BasisExpr.term("R", (1,)) * BasisExpr.term("R", (2,))


def test_h_sym_keys_resorted_on_multiply():
    x = BasisExpr.term("h_sym", (3, 1)) * BasisExpr.term("h_sym", (2,))
    assert x == BasisExpr.term("h_sym", (3, 2, 1))


def test_h_sym_rejects_non_partition_keys():
    with pytest.raises(ValueError):
        BasisExpr("h_sym", {(1, 2): 1})


def test_rejects_nonpositive_index_entries():
    with pytest.raises(ValueError):
        BasisExpr("H", {(1, 0): 1})


@pytest.mark.parametrize("terms", [
    {(1,): 1.5}, {(1,): 2.0}, {(1,): True}, {(1,): False}, {(1,): "1"},
    {(True,): 1}, {(2, True): 1}, {(1.0,): 1},
])
def test_rejects_coefficients_and_parts_that_are_not_ints(terms):
    with pytest.raises(ValueError):
        BasisExpr("H", terms)


@pytest.mark.parametrize("terms, bad", [
    ({("a",): 1, (2,): 1}, ("a",)),
    ({(2,): 1, ("a",): 1}, ("a",)),
    ({(2, 1): 1, (1, True): -1}, (1, True)),
    ({(1, True): 1, (1,): 3}, (1, True)),
])
def test_a_bad_index_is_named_even_among_keys_that_do_not_compare(terms, bad):
    # the terms are validated before anything orders them: a sort of
    # ("a",) against (2,) would raise TypeError instead
    with pytest.raises(ValueError, match=re.escape(f"index {bad} ")):
        BasisExpr("H", terms)


def test_int_conversions_stay_exact():
    x = 10**30 * BasisExpr.term("H", (2,), 3) * 7
    assert list(x.items()) == [((2,), 21 * 10**30)]
    assert [type(c) for _, c in x.items()] == [int]


@pytest.mark.parametrize("call", [
    lambda e: e + 1, lambda e: e - 1, lambda e: e * 2.0,
    lambda e: True * e, lambda e: e * True,
], ids=["add-int", "sub-int", "mul-float", "bool-mul", "mul-bool"])
def test_arithmetic_refuses_an_operand_that_is_not_an_expression(call):
    # an int scalar is the one operand that is not an expression; bool is
    # refused as a scalar as it is as a coefficient
    with pytest.raises(TypeError, match="unsupported operand"):
        call(BasisExpr("H", {(1,): 1}))


def test_json_roundtrip():
    x = BasisExpr("H", {(3, 1, 3): 1, (5, 2): -2, (): 4})
    data = json.loads(json.dumps(x.to_json_dict()))
    assert expr_from_json(data) == x


def test_json_terms_sorted():
    x = BasisExpr("H", {(5, 2): 1, (3, 1, 3): 1})
    indices = [t["index"] for t in x.to_json_dict()["terms"]]
    assert indices == sorted(indices)


def test_text_rendering():
    x = BasisExpr("H", {(3, 1, 3): 1, (3, 2, 2): -1})
    assert x.to_text() == "H(3,1,3) - H(3,2,2)"


def test_text_zero_and_unit():
    assert BasisExpr.zero("H").to_text() == "0"
    assert BasisExpr.unit("H").to_text() == "1"


def test_latex_rendering():
    x = BasisExpr("R", {(2, 1): -1})
    assert x.to_latex() == "-R_{(2,1)}"


def test_one_renderer_writes_what_text_and_latex_wrote():
    rng = random.Random(24)
    for basis in BASES:
        cases = [BasisExpr.zero(basis), BasisExpr.unit(basis),
                 -BasisExpr.unit(basis), BasisExpr(basis, {(): 7})]
        for _ in range(300):
            # a few part values, some of two digits or more, repeated
            # within and across the terms of one expression
            pool = [rng.randint(1, 12), rng.randint(1, 12),
                    rng.randint(10, 999), 10**20]
            terms = {}
            for _ in range(rng.randint(1, 6)):
                index = [rng.choice(pool) for _ in range(rng.randint(0, 5))]
                if basis == "h_sym":
                    index.sort(reverse=True)
                terms[tuple(index)] = rng.choice(
                    [1, -1, rng.randint(-99, 99), 10**20, -(10**20) - 3])
            cases.append(BasisExpr(basis, terms))
        for expr in cases:
            assert expr.to_text() == text_by_terms(expr)
            assert expr.to_latex() == latex_by_terms(expr)


_FIRST_READS = {
    "items": lambda expr: list(expr.items()),
    "text": BasisExpr.to_text,
    "latex": BasisExpr.to_latex,
    "json": lambda expr: json.dumps(expr.to_json_dict()),
    "repr": repr,
}


@pytest.mark.parametrize("first", _FIRST_READS)
def test_every_read_is_in_index_order_whichever_comes_first(first):
    terms = {(5, 2): 1, (12, 1): -1, (): 4, (3, 1, 3): -2, (3,): 1, (10,): 3}
    ordered = sorted(terms.items())
    # the public constructor, and the unchecked one that wraps a fold
    # result, which hands over its dict unsorted
    for expr in (BasisExpr("H", terms), BasisExpr._of_clean("H", dict(terms))):
        _FIRST_READS[first](expr)
        assert list(expr.items()) == ordered
        assert expr.to_text() == text_by_terms(expr)
        assert expr.to_latex() == latex_by_terms(expr)
        assert expr.to_json_dict()["terms"] == [
            {"coeff": c, "index": list(i)} for i, c in ordered]
        assert repr(expr) == f"BasisExpr('H', {dict(ordered)!r})"
        # an expression that has been read in order equals and hashes like
        # one that has not
        fresh = BasisExpr("H", terms)
        assert expr == fresh and hash(expr) == hash(fresh)


def test_an_11760_term_expansion_renders_as_pinned():
    # sha256 of each format, taken from the renderer that sorted the terms
    # on every read and called str on every index part
    expr = immaculate_to_H((2, 5, 3, 1, 4, 2, 5, 3, 1))
    digests = [hashlib.sha256(out.encode()).hexdigest() for out in (
        expr.to_text(), expr.to_latex(), json.dumps(expr.to_json_dict()))]
    assert digests == [
        "d44a3d149ccd428f2dfc38b78232554cd328a18d630f934fe94a9d1e8f0bb272",
        "ca02611814f78c5f32421646ddfd0e283556fdf75b987896df04841532c28333",
        "ae5696025965e073e76f7c81ba952e0155793b6cb7983c6e9c6f60b33a3a6585",
    ]
