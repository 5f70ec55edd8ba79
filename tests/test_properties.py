"""Property tests over randomly generated shapes and expressions."""

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import expr_from_json, normalize_h_index
from immaculate.coverings import enumerate_coverings
from immaculate.expansions import (
    forgetful_to_h,
    immaculate_to_H,
    skew_immaculate_to_H,
)
from immaculate.expr import BasisExpr
from immaculate.oracles import (
    commutative_jacobi_trudi,
    jacobi_trudi_matrix,
    ndet_expand,
)

shapes = st.lists(st.integers(-3, 5), min_size=1, max_size=4).map(tuple)
compositions = st.lists(st.integers(1, 5), min_size=0, max_size=4).map(tuple)


def h_exprs():
    return st.dictionaries(compositions, st.integers(-4, 4), max_size=4).map(
        lambda terms: BasisExpr("H", terms)
    )


@given(shapes)
def test_expansion_equals_oracle(mu):
    assert dict(immaculate_to_H(mu).items()) == ndet_expand(jacobi_trudi_matrix(mu))


@given(shapes, st.lists(st.integers(-3, 5), min_size=1, max_size=4).map(tuple))
@settings(max_examples=60)
def test_skew_expansion_equals_oracle(mu, nu):
    nu = nu[: len(mu)]
    assert dict(skew_immaculate_to_H(mu, nu).items()) == ndet_expand(
        jacobi_trudi_matrix(mu, nu)
    )


@given(shapes)
def test_delta_entries_sum_to_shape_total(mu):
    # each covering redistributes the row totals without changing the sum
    for g in enumerate_coverings(mu):
        assert sum(g.delta_seq) == sum(mu)


@given(st.lists(st.integers(-3, 5), max_size=6).map(tuple))
def test_normalize_idempotent(raw):
    out = normalize_h_index(raw)
    if out is not None:
        assert normalize_h_index(out) == out


@given(h_exprs(), h_exprs(), h_exprs())
@settings(max_examples=60)
def test_h_multiplication_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(h_exprs(), h_exprs())
def test_addition_commutative(a, b):
    assert a + b == b + a


@given(h_exprs())
def test_json_roundtrip(expr):
    assert expr_from_json(expr.to_json_dict()) == expr


@given(h_exprs(), h_exprs())
@settings(max_examples=60)
def test_forgetful_is_an_algebra_map(a, b):
    assert forgetful_to_h(a * b) == forgetful_to_h(a) * forgetful_to_h(b)


@given(st.lists(st.integers(1, 5), min_size=1, max_size=4))
def test_forgetful_bridge(parts):
    lam = tuple(sorted(parts, reverse=True))
    assert dict(forgetful_to_h(immaculate_to_H(lam)).items()) == commutative_jacobi_trudi(lam)
