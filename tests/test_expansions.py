import random
import re
import time
from itertools import permutations

import pytest

from helpers import normalize_h_index, reference_walk, straighten_by_swaps
from immaculate.compositions import compositions_of
from immaculate import coverings
from immaculate.coverings import (
    _tail_moves,
    covering_from_permutation,
    covering_from_terminal_cells,
    enumerate_coverings,
)
from immaculate.diagram import (
    GbprDiagram,
    build_diagram,
    make_tunnel_hook,
    pad_pair,
    render,
)
from immaculate.expansions import (
    _fold_coverings,
    forgetful_to_h,
    immaculate_to_H,
    monomial_to_dual_immaculate,
    skew_immaculate_to_H,
    skew_prefix_decomposition,
    straighten_skew,
)
from immaculate.expr import BasisExpr
from immaculate.oracles import (
    determinant_rows,
    jacobi_trudi_matrix,
    ndet_expand,
)
from immaculate.ribbon import (
    im2rib_class,
    immaculate_to_ribbon_direct,
    ribbon_product,
)
from immaculate.verify import run_suite


def H(terms):
    return BasisExpr("H", terms)


def test_expansion_313():
    assert immaculate_to_H((3, 1, 3)) == H({
        (3, 1, 3): 1, (3, 2, 2): -1, (4, 3): -1,
        (4, 2, 1): 1, (5, 2): 1, (5, 1, 1): -1,
    })


def test_expansion_with_zero_part():
    assert immaculate_to_H((3, 0, 3)) == H({
        (3, 3): 1, (3, 1, 2): -1, (4, 1, 1): 1, (5, 1): -1,
    })


def test_expansion_with_negative_part():
    assert immaculate_to_H((3, -1, 3)) == H({(3, 2): -1, (4, 1): 1})


def test_expansion_leading_negative():
    assert immaculate_to_H((-1, 3, 2)) == H({
        (4,): 1, (2, 2): -1, (1, 2, 1): 1, (1, 3): -1,
    })


def test_expansion_empty_shape():
    assert immaculate_to_H(()) == BasisExpr.unit("H")


def test_skew_expansion_example():
    assert skew_immaculate_to_H((2, 5, 3), (1, 3, 0)) == H({
        (1, 2, 3): 1, (3, 3): -1, (6,): 1, (4, 2): -1,
    })


def test_a_negative_straightening_sign_builds_one_expression(monkeypatch):
    # the sign goes on the folded terms, not on a second expression, by
    # either constructor
    built = []
    init, of_clean = BasisExpr.__init__, BasisExpr._of_clean

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def counted_clean(basis, terms):
        built.append((basis, terms))
        return of_clean(basis, terms)

    monkeypatch.setattr(BasisExpr, "__init__", counted)
    monkeypatch.setattr(BasisExpr, "_of_clean", counted_clean)
    assert straighten_skew((2, 5, 3), (1, 3, 0))[0] == -1
    expr = skew_immaculate_to_H((2, 5, 3), (1, 3, 0))
    assert len(built) == 1
    assert expr.coefficient((1, 2, 3)) == 1 and expr.coefficient((3, 3)) == -1


def _revalidated(expr):
    """expr rebuilt through the public constructor, which refuses a part
    below 1 and a coefficient that is not an int, and drops a zero one."""
    return BasisExpr(expr.basis, dict(expr.items()))


@pytest.mark.parametrize("least", [0, 1])
def test_fold_results_pass_the_public_constructor(least):
    # the fold's results skip the constructor's checks, so each must be
    # what the checks would have let through unchanged
    rng = random.Random(12 + least)
    for case in range(120):
        k = rng.randint(0, 6)
        mu = tuple(rng.randint(-3, 6) for _ in range(k))
        nu = tuple(sorted((rng.randint(0, 4) for _ in range(k)), reverse=True))
        folded = BasisExpr._of_clean("H", _fold_coverings(mu, nu, least=least))
        results = [folded]
        if least == 0:
            inner = tuple(rng.randint(-3, 5) for _ in range(k))
            results += [immaculate_to_H(mu), skew_immaculate_to_H(mu, inner)]
        else:
            alpha = tuple(rng.randint(1, 6) for _ in range(k))
            results.append(immaculate_to_ribbon_direct(alpha, force=True))
        for expr in results:
            assert expr == _revalidated(expr), (mu, nu, expr)


def test_skew_by_zero_is_straight():
    mu = (2, 3, 1)
    assert skew_immaculate_to_H(mu, (0, 0, 0)) == immaculate_to_H(mu)
    assert skew_immaculate_to_H(mu) == immaculate_to_H(mu)


def test_skew_vanishing_inner_shape():
    # an adjacent rise by one makes two determinant columns equal
    assert not skew_immaculate_to_H((4, 4), (1, 2))


def _unpruned_fold(mu, nu, least):
    # every covering visited by the `step` recursion, apart from the move
    # table the fold reads; the ones with a subscript below the floor
    # dropped and the rest normalized after the walk; cancelled indices kept
    terms = {}
    for _, _, deltas, sign, _ in reference_walk(mu, nu, len(mu)):
        if all(d >= least for d in deltas):
            index = normalize_h_index(deltas)
            terms[index] = terms.get(index, 0) + sign
    return terms


def _random_partition(rng, k):
    return tuple(sorted((rng.randint(0, 4) for _ in range(rng.randint(0, k))),
                        reverse=True))


def test_pruned_fold_matches_unpruned_walk():
    # the fold sums inside each tail state, so an index that cancels there
    # never reaches the result: (5, 4, 4, 5) over (4, 3, 1, 1) has the
    # cancelled (1, 4, 4) and (1, 5, 3) in the walk and not in the fold.
    # Equal to the walk's nonzero terms, so the fold returns no zero; at
    # floor 1 only the coverings whose subscripts are all positive count.
    rng = random.Random(11)
    cases = [((2, 5, 3, 1, 4, 2, 5, 3), ()), ((5, 4, 4, 5), (4, 3, 1, 1))]
    for _ in range(300):
        k = rng.randint(1, 7)
        mu = tuple(rng.randint(-3, 6) for _ in range(k))
        cases.append((mu, _random_partition(rng, k)))
    for mu, nu in cases:
        for least in (0, 1):
            expected = {index: c for index, c
                        in _unpruned_fold(mu, nu, least).items() if c}
            assert _fold_coverings(mu, nu, least=least) == expected, (mu, nu, least)


def test_skew_fold_with_negative_parts_matches_the_determinant():
    # mu and nu both with negative parts, so the inner shape is shifted
    # and its columns sorted before the fold
    rng = random.Random(12)
    for _ in range(60):
        k = rng.randint(3, 7)
        mu = tuple(rng.randint(-3, 6) for _ in range(k))
        nu = tuple(rng.randint(-3, 4) for _ in range(k))
        assert dict(skew_immaculate_to_H(mu, nu).items()) == ndet_expand(
            jacobi_trudi_matrix(mu, nu)), (mu, nu)


def test_ten_row_fold_matches_the_determinant():
    # a hook from the first row to the tenth (j = 10 in tail_hook) exists
    # only from 10 rows up, which the oracle comparisons above never reach
    mu = (2, 5, 3, 1, 4, 2, 5, 3, 1, 4)
    expected = ndet_expand(jacobi_trudi_matrix(mu))
    assert len(expected) == 70698
    assert dict(immaculate_to_H(mu).items()) == expected


def _tail_states(mu, nu=(), least=0):
    return sum(len(level) for level in _tail_moves(build_diagram(mu, nu), least))


def test_tail_states_stay_below_two_to_the_k():
    # a fold that never shares a state would pass every output test; the
    # number of tail states tells it apart
    rng = random.Random(13)
    for case in range(200):
        k = rng.randint(1, 8)
        mu = tuple(rng.randint(-3, 6) for _ in range(k))
        nu = () if case % 2 else tuple(
            sorted((rng.randint(0, 5) for _ in range(k)), reverse=True))
        for least in (0, 1):
            assert _tail_states(mu, nu, least) <= 2 ** k - 1, (mu, nu, least)


@pytest.mark.parametrize("mu, states, terms", [
    ((2, 5, 3, 1, 4, 2, 5, 3, 1), 511, 11760),
    ((2, 5, 3, 1, 4, 2, 5, 3, 1, 4), 1023, 70698),
    ((1,) * 12, 4095, 2048),
])
def test_tail_states_pinned(monkeypatch, mu, states, terms):
    monkeypatch.setattr(coverings, "MAX_ROWS", 12)
    assert _tail_states(mu) == states
    assert len(_fold_coverings(mu, ())) == terms


@pytest.mark.parametrize("mu, nu, moves", [
    ((2, 5, 3, 1, 4, 2, 5, 3, 1), (), (1957, 1738)),
    ((1,) * 8, (), (703, 576)),
    ((2, 5, 3, 1, 4, 2, 5, 3, 1), (2, 1, 1), (1775, 1603)),
])
def test_tail_moves_pinned(mu, nu, moves):
    # the hooks kept above the kill floor, at floors 0 and 1: a fold that
    # keeps a hook below the floor, or drops one above it, changes them
    for least, count in zip((0, 1), moves):
        levels = _tail_moves(build_diagram(mu, nu), least)
        assert sum(len(m) for level in levels for m in level.values()) == count


@pytest.fixture
def cleared_tail_hooks():
    # the hook memo is process-wide: cleared first, its counts are this
    # test's alone
    coverings._tail_hooks.cache_clear()
    return coverings._tail_hooks.cache_info


@pytest.mark.parametrize("n", [6, 8])
def test_the_hook_memo_computes_each_tail_once(cleared_tail_hooks, n):
    # a memo that never hits passes every output test; its misses tell it
    # apart: the 2^(n-1) folds of one column reach the 2^n - 1 tails of
    # the straight n-row shape and compute each of them once
    monomial_to_dual_immaculate((1,) * n)
    assert cleared_tail_hooks().misses == 2 ** n - 1


def test_a_second_fold_reads_every_tail_from_the_memo(cleared_tail_hooks):
    # the hooks of a tail do not depend on mu, and both shapes reach all
    # 2^9 - 1 tails of nine rows from nu = 0: the second reads them all
    immaculate_to_H((2, 5, 3, 1, 4, 2, 5, 3, 1))
    assert cleared_tail_hooks()[:2] == (0, 511)
    immaculate_to_H((1,) * 9)
    assert cleared_tail_hooks()[:2] == (511, 511)


def test_the_hook_memo_stays_bounded(cleared_tail_hooks):
    # skew shapes with distinct inner shapes reach more tails than the
    # memo keeps; it drops the least recent and every fold stays right
    rng = random.Random(15)
    for _ in range(60):
        mu = tuple(rng.randint(-2, 12) for _ in range(7))
        nu = tuple(sorted((rng.randint(0, 9) for _ in range(7)), reverse=True))
        assert dict(skew_immaculate_to_H(mu, nu).items()) == ndet_expand(
            jacobi_trudi_matrix(mu, nu)), (mu, nu)
    info = cleared_tail_hooks()
    assert info.misses > info.maxsize >= info.currsize


def test_fold_validates_like_the_walk():
    with pytest.raises(ValueError, match=r"active rows of nu must be weakly "
                                         r"decreasing: \(1, 3, 0\)"):
        _fold_coverings((2, 5, 3), (1, 3))


def test_right_pieri_rule():
    # S_alpha * H_s = sum of S_beta over the beta of size |alpha| + s with
    # l(alpha) <= l(beta) <= l(alpha) + 1 and beta_i >= alpha_i for
    # i <= l(alpha) (Berg, Bergeron, Saliola, Serrano and Zabrocki,
    # arXiv:1208.5191): rows of two sizes checked without the determinant
    pairs = 0
    for n in range(1, 8):
        for s in range(1, n + 1):
            for alpha in compositions_of(n - s):
                k = len(alpha)
                expected = BasisExpr.zero("H")
                for beta in compositions_of(n):
                    if k <= len(beta) <= k + 1 and all(
                        b >= a for a, b in zip(alpha, beta)
                    ):
                        expected += immaculate_to_H(beta)
                got = immaculate_to_H(alpha) * BasisExpr.term("H", (s,))
                assert got == expected, (alpha, s)
                pairs += 1
    assert pairs == 127


def test_straighten_example():
    assert straighten_skew((2, -5, 0, 1), (2, -3, 1, 6)) == (
        1, (5, -2, 3, 4), (6, 6, 4, 2)
    )


def test_straighten_noop_on_partition():
    assert straighten_skew((5, 2, 1), (2, 1, 0)) == (1, (5, 2, 1), (2, 1, 0))


def test_straighten_detects_vanishing():
    sign, _, _ = straighten_skew((4, 4), (1, 2))
    assert sign == 0


def test_straighten_single_swap_sign():
    sign, mu, nu = straighten_skew((3, 3), (0, 2))
    assert sign == -1 and nu == (1, 1)


def test_straighten_vanishing_shows_the_tie_in_nu():
    # columns nu_j - j are 0, 0, 1: sorted 1, 0, 0, so nu = 1, 1, 2
    assert straighten_skew((0, 0, 0), (0, 1, 3)) == (0, (0, 0, 0), (1, 1, 2))


def test_straighten_matches_the_swap_reference():
    rng = random.Random(31)
    vanished = 0
    for _ in range(4000):
        k = rng.randint(0, 7)
        mu = tuple(rng.randint(-4, 8) for _ in range(k))
        nu = tuple(rng.randint(-5, 9) for _ in range(rng.randint(0, k)))
        got = straighten_skew(mu, nu)
        want = straighten_by_swaps(mu, nu)
        if want[0]:
            assert got == want, (mu, nu)
            continue
        vanished += 1
        sign, mu_out, nu_out = got
        assert (sign, mu_out) == want[:2], (mu, nu)
        # nu is the column sort of the shifted nu, a tie shown as a rise by one
        padded = nu + (0,) * (len(mu_out) - len(nu))
        shift = max([0] + [-part for part in padded])
        cols = sorted([part + shift - j for j, part in enumerate(padded)],
                      reverse=True)
        assert [part - j for j, part in enumerate(nu_out)] == cols
        assert any(b == a + 1 for a, b in zip(nu_out, nu_out[1:]))
    assert vanished > 100


def test_straighten_is_fast_on_a_long_skew():
    # 20 000 columns in increasing order: a reversal, with an even
    # number (k(k-1)/2) of inversions
    nu = tuple(range(0, 40000, 2))
    start = time.perf_counter()
    got = straighten_skew((1,), nu)
    assert time.perf_counter() - start < 2
    assert got == (1, (1,) + (0,) * 19999, (19999,) * 20000)


def test_straightened_value_matches_oracle():
    rng = random.Random(5)
    for _ in range(100):
        k = rng.randint(1, 4)
        mu = tuple(rng.randint(-3, 5) for _ in range(k))
        nu = tuple(rng.randint(-3, 5) for _ in range(k))
        assert dict(skew_immaculate_to_H(mu, nu).items()) == ndet_expand(
            jacobi_trudi_matrix(mu, nu)
        )


def test_prefix_decomposition_4332():
    got = {
        (sign, prefix, tail_nu)
        for sign, prefix, (_, tail_nu) in skew_prefix_decomposition((4, 3, 3, 2), 2)
    }
    assert got == {
        (1, (4, 3), (0, 0)), (-1, (4, 4), (1, 0)), (1, (4, 5), (1, 1)),
        (-1, (5, 2), (0, 0)), (1, (5, 4), (2, 0)), (-1, (5, 5), (2, 1)),
        (1, (6, 2), (1, 0)), (-1, (6, 3), (2, 0)), (1, (6, 5), (2, 2)),
        (-1, (7, 2), (1, 1)), (1, (7, 3), (2, 1)), (-1, (7, 4), (2, 2)),
    }
    assert all(tail_mu == (3, 2)
               for _, _, (tail_mu, _) in skew_prefix_decomposition((4, 3, 3, 2), 2))


def test_prefix_decomposition_of_no_rows_says_so():
    with pytest.raises(ValueError, match="no rows to split"):
        skew_prefix_decomposition((), 1)


def _reassemble(mu, m):
    total = BasisExpr.zero("H")
    for sign, prefix, (tail_mu, tail_nu) in skew_prefix_decomposition(mu, m):
        index = normalize_h_index(prefix)
        if index is None:
            continue
        head = BasisExpr.term("H", index, sign)
        total = total + head * skew_immaculate_to_H(tail_mu, tail_nu)
    return total


@pytest.mark.parametrize("mu", [(3, 1, 3), (4, 3, 3, 2), (-1, 3, 2), (2, 0, 2)])
def test_prefix_reassembly(mu):
    for m in range(1, len(mu) + 1):
        assert _reassemble(mu, m) == immaculate_to_H(mu)


def test_prefix_full_depth_term_count():
    # m = k enumerates all k! determinant terms
    entries = skew_prefix_decomposition((3, 1, 3), 3)
    assert len(entries) == 6
    assert all(tail == ((), ()) for _, _, tail in entries)


def test_prefix_signs_and_order_follow_arrangements():
    # one entry per ordered m-arrangement pi of 1..k, in lexicographic order,
    # with prefix mu_i - i + pi_i and the sign of pi's inversions plus, for
    # each entry, the unused values below it
    for k in range(1, 6):
        mu = (4, -1, 3, 0, 2)[:k]
        for m in range(1, k + 1):
            entries = skew_prefix_decomposition(mu, m)
            arrangements = list(permutations(range(1, k + 1), m))
            assert len(entries) == len(arrangements)
            for (sign, prefix, (tail_mu, _)), pi in zip(entries, arrangements):
                unused = set(range(1, k + 1)) - set(pi)
                inversions = sum(
                    1 for i in range(m) for j in range(i + 1, m) if pi[i] > pi[j]
                ) + sum(1 for v in pi for q in unused if q < v)
                assert sign == (-1) ** inversions, (mu, m, pi)
                assert prefix == tuple(mu[i] - (i + 1) + pi[i] for i in range(m))
                assert tail_mu == mu[m:]


def test_prefix_rejects_bad_m():
    with pytest.raises(ValueError):
        skew_prefix_decomposition((2, 1), 3)


def test_prefix_validates_m_before_max_k():
    # the prefix length is checked first, then the row bound
    for m in (0, 12):
        with pytest.raises(ValueError, match=rf"need 1 <= m <= 11, got {m}"):
            skew_prefix_decomposition((1,) * 11, m)
    with pytest.raises(ValueError, match=r"shape has 11 rows; enumeration is "
                                         r"limited to 10"):
        skew_prefix_decomposition((1,) * 11, 2)


_ROWS = r"^shape has 11 rows; enumeration is limited to 10$"


@pytest.mark.parametrize("call, refusal", [
    (lambda k: next(enumerate_coverings((1,) * k)), _ROWS),
    (lambda k: covering_from_terminal_cells(
        (1,) * k, None, [(i, 1) for i in range(1, k + 1)]), _ROWS),
    (lambda k: covering_from_permutation((1,) * k, range(1, k + 1)), _ROWS),
    (lambda k: immaculate_to_H((1,) * k), _ROWS),
    (lambda k: skew_immaculate_to_H((2,) * k, (1,)), _ROWS),
    (lambda k: skew_prefix_decomposition((1,) * k, 1), _ROWS),
    (lambda k: monomial_to_dual_immaculate((k,)),
     r"^\|alpha\| = 11 exceeds the bound 10$"),
    (lambda k: immaculate_to_ribbon_direct((1,) * k), _ROWS),
], ids=["enumerate_coverings", "covering_from_terminal_cells",
        "covering_from_permutation", "immaculate_to_H", "skew_immaculate_to_H",
        "skew_prefix_decomposition", "monomial_to_dual_immaculate",
        "immaculate_to_ribbon_direct"])
def test_every_entry_point_holds_the_one_row_bound(call, refusal):
    # |alpha| = 11 for monomial; 10 rows pass everywhere
    with pytest.raises(ValueError, match=refusal):
        call(11)
    call(10)


#: Each entry point, given one part that is not an int, and the name its
#: refusal gives the input.
_PART_CALLS = {
    "pad_pair-mu": (lambda x: pad_pair((2, x), None), "mu"),
    "pad_pair-nu": (lambda x: pad_pair((2,), (x,)), "nu"),
    "GbprDiagram-mu": (lambda x: GbprDiagram((2, x), (0, 0)), "mu"),
    "GbprDiagram-nu": (lambda x: GbprDiagram((2,), (x,)), "nu"),
    "GbprDiagram-offset": (lambda x: GbprDiagram((2,), (0,), x), "offset"),
    "build_diagram": (lambda x: build_diagram((2, 1), (x,)), "nu"),
    "make_tunnel_hook": (
        lambda x: make_tunnel_hook(build_diagram((x, 1)), (1, 1)), "mu"),
    "render": (lambda x: render(build_diagram((x,))), "mu"),
    "straighten_skew": (lambda x: straighten_skew((3, 1), (x,)), "nu"),
    "immaculate_to_H": (lambda x: immaculate_to_H((x, 2)), "mu"),
    "skew_immaculate_to_H-mu": (
        lambda x: skew_immaculate_to_H((3, x), (1,)), "mu"),
    "skew_immaculate_to_H-nu": (
        lambda x: skew_immaculate_to_H((3, 1), (x,)), "nu"),
    "skew_prefix_decomposition": (
        lambda x: skew_prefix_decomposition((2, x), 1), "mu"),
    "enumerate_coverings": (lambda x: next(enumerate_coverings((x, 1))), "mu"),
    "covering_from_terminal_cells": (
        lambda x: covering_from_terminal_cells((x, 1), None, [(1, 1), (2, 1)]),
        "mu"),
    "covering_from_permutation-mu": (
        lambda x: covering_from_permutation((2, x), (1, 2)), "mu"),
    "covering_from_permutation-sigma": (
        lambda x: covering_from_permutation((2, 1), (x, 2)), "sigma"),
    "BasisExpr": (lambda x: BasisExpr("H", {(2, x): 1}), "index"),
    "BasisExpr.term": (lambda x: BasisExpr.term("R", (x,)), "index"),
    "monomial_to_dual_immaculate": (
        lambda x: monomial_to_dual_immaculate((x, 1)), "alpha"),
    "im2rib_class": (lambda x: im2rib_class((x, 2)), "alpha"),
    "immaculate_to_ribbon_direct": (
        lambda x: immaculate_to_ribbon_direct((x, x)), "alpha"),
    "ribbon_product": (lambda x: ribbon_product((2,), (x,)),
                       "ribbon product factor"),
    "BasisExpr.coefficient": (
        lambda x: immaculate_to_H((3, 1, 3)).coefficient((3, x, 3)), "index"),
}
_NOT_INT = {"float": 1.0, "half": 1.5, "bool": True, "str": "1"}


@pytest.mark.parametrize("call, what, part", [
    pytest.param(call, what, part, id=f"{name}-{kind}")
    for name, (call, what) in _PART_CALLS.items()
    for kind, part in _NOT_INT.items()
] + [
    pytest.param(lambda m: skew_prefix_decomposition((2, 1), m), "m", 1.0,
                 id="skew_prefix_decomposition-m-float"),
    pytest.param(lambda n: run_suite(["golden"], max_n=n), "max_n", 2.5,
                 id="run_suite-max_n-float"),
    pytest.param(lambda n: run_suite(["golden"], max_n=n), "max_n", True,
                 id="run_suite-max_n-bool"),
] + [
    pytest.param(lambda s: run_suite(["golden"], seed=s), "seed", part,
                 id=f"run_suite-seed-{kind}")
    for kind, part in (("str", "1"), ("half", 1.5), ("bool", True))
])
def test_every_entry_point_refuses_a_part_that_is_not_an_int(call, what, part):
    # 1.0 == 1 and True == 1, so only the type tells them apart; the
    # refusal is a ValueError that names the input, never a TypeError
    # from deeper down or a result
    shown = rf"\(.*{re.escape(repr(part))}.*\)"
    rule = "(a strong composition|a sequence of integers)"
    with pytest.raises(ValueError, match=rf"^{re.escape(what)} {shown} is not {rule}$"):
        call(part)


@pytest.mark.parametrize("call, what, rule", [
    (immaculate_to_H, "mu", "a sequence of integers"),
    (build_diagram, "mu", "a sequence of integers"),
    (lambda x: ribbon_product(x, (1,)), "ribbon product factor",
     "a strong composition"),
    (monomial_to_dual_immaculate, "alpha", "a strong composition"),
    (lambda x: covering_from_permutation(x, (1,)), "mu",
     "a sequence of integers"),
    (lambda x: BasisExpr.term("H", x), "index", "a strong composition"),
    (immaculate_to_ribbon_direct, "alpha", "a strong composition"),
], ids=["immaculate_to_H", "build_diagram", "ribbon_product",
        "monomial_to_dual_immaculate", "covering_from_permutation",
        "BasisExpr.term", "immaculate_to_ribbon_direct"])
@pytest.mark.parametrize("value", [5, None, 2.0])
def test_every_entry_point_refuses_an_input_that_is_not_iterable(
        call, what, rule, value):
    # int_parts reads every integer input, so a scalar where a sequence
    # belongs is a ValueError that names it, not a TypeError from tuple()
    with pytest.raises(ValueError,
                       match=rf"^{re.escape(what)} {value!r} is not {rule}$"):
        call(value)


def test_monomial_212():
    assert monomial_to_dual_immaculate((2, 1, 2)) == BasisExpr("dI", {
        (1, 1, 1, 1, 1): 1, (1, 1, 1, 2): -1, (1, 2, 1, 1): 1,
        (1, 2, 2): -1, (2, 1, 1, 1): -1, (2, 1, 2): 1,
    })


def test_monomial_trivial():
    assert monomial_to_dual_immaculate((1,)) == BasisExpr.term("dI", (1,))


def test_monomial_n2():
    assert monomial_to_dual_immaculate((2,)) == BasisExpr(
        "dI", {(2,): 1, (1, 1): -1}
    )


def test_monomial_matches_determinant_coefficients():
    # the coefficient of dI_mu in M_alpha is that of H_alpha in det(mu)
    for n in range(1, 7):
        rows = determinant_rows(n)
        for alpha in rows:
            assert dict(monomial_to_dual_immaculate(alpha).items()) == {
                mu: terms[alpha] for mu, terms in rows.items() if alpha in terms
            }


def test_monomial_rejects_weak_composition():
    with pytest.raises(ValueError):
        monomial_to_dual_immaculate((2, 0, 1))


def test_forgetful_examples():
    x = H({(1, 2, 3): 1, (3, 3): -1, (6,): 1, (4, 2): -1})
    assert forgetful_to_h(x) == BasisExpr("h_sym", {
        (3, 2, 1): 1, (3, 3): -1, (6,): 1, (4, 2): -1,
    })


def test_forgetful_fixes_partitions():
    x = H({(3, 2): 4, (5,): -1})
    assert forgetful_to_h(x) == BasisExpr("h_sym", {(3, 2): 4, (5,): -1})


def test_forgetful_commutative_collapse():
    assert not forgetful_to_h(H({(1, 2): 1, (2, 1): -1}))


def test_forgetful_rejects_other_bases():
    with pytest.raises(ValueError):
        forgetful_to_h(BasisExpr.term("R", (2,)))
