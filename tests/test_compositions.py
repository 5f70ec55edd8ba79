import random
from itertools import combinations, permutations

import pytest

from immaculate.compositions import (
    coarsenings,
    compositions_of,
    int_parts,
    is_partition,
    lehmer_code,
    permutation_sign,
)


def test_compositions_count():
    # 2^(n-1) compositions of n
    for n in range(1, 9):
        assert len(list(compositions_of(n))) == 2 ** (n - 1)
    assert list(compositions_of(0)) == [()]


def test_int_parts_reads_a_tuple_of_ints():
    assert int_parts([3, -1, 0], "mu") == (3, -1, 0)
    assert int_parts(iter(()), "alpha", strong=True) == ()
    with pytest.raises(ValueError,
                       match=r"^alpha \(2, 0\) is not a strong composition$"):
        int_parts((2, 0), "alpha", strong=True)
    # a long input is shown by its first ten parts and its length
    with pytest.raises(ValueError, match=r"^nu \(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, "
                                         r"\.\.\. 11 parts\) is not a sequence "
                                         r"of integers$"):
        int_parts((0,) * 10 + (0.0,), "nu")


def coarsening(alpha, subset):
    """The coarsening `coarsenings` pairs with the gap subset."""
    return {frozenset(s): c for c, s in coarsenings(alpha)}[frozenset(subset)]


def test_coarsen_example():
    alpha = (5, 2, 1, 4, 3, 3, 2, 6, 2, 3)
    assert coarsening(alpha, {2, 3, 5, 8}) == (5, 7, 6, 2, 8, 3)


def test_coarsen_empty_set():
    assert coarsening((4, 1, 2), set()) == (4, 1, 2)
    assert list(coarsenings(())) == [((), frozenset())]


def test_coarsen_full_merge():
    assert coarsening((1, 1), {1}) == (2,)
    assert coarsening((3, 1, 4, 1, 5), {1, 2, 3, 4}) == (14,)


def test_coarsenings_small():
    assert {c for c, _ in coarsenings((1, 2))} == {(1, 2), (3,)}
    assert {c for c, _ in coarsenings((1, 1, 1))} == {(1, 1, 1), (2, 1), (1, 2), (3,)}
    assert {c for c, _ in coarsenings((5,))} == {(5,)}


def test_coarsenings_merge_each_subset_in_subset_order():
    # every gap subset once, by size and then in lexicographic order; each
    # coarsening sums the runs of parts the subset's gaps join
    alpha = (2, 7, 1, 8, 2, 8)
    got = list(coarsenings(alpha))
    assert [sorted(s) for _, s in got] == [
        list(c) for r in range(6) for c in combinations(range(1, 6), r)]
    for beta, subset in got:
        cuts = [0] + [i for i in range(1, 6) if i not in subset] + [6]
        assert beta == tuple(sum(alpha[a:b]) for a, b in zip(cuts, cuts[1:]))


def test_coarsenings_count_and_distinct():
    for alpha in [(1, 2, 1, 3), (2, 2, 2), (1, 1, 1, 1, 1)]:
        results = [c for c, _ in coarsenings(alpha)]
        assert len(results) == 2 ** (len(alpha) - 1)
        assert len(set(results)) == len(results)


def test_lehmer_example():
    assert lehmer_code((4, 7, 3, 1, 6, 2, 5)) == (3, 5, 2, 0, 2, 0, 0)
    assert permutation_sign((4, 7, 3, 1, 6, 2, 5)) == 1


def test_lehmer_identity_and_swap():
    assert lehmer_code((1, 2, 3)) == (0, 0, 0)
    assert permutation_sign((1, 2, 3)) == 1
    assert lehmer_code((2, 1)) == (1, 0)
    assert permutation_sign((2, 1)) == -1


def test_permutation_sign_brute_force():
    for sigma in permutations(range(1, 6)):
        inversions = sum(
            1 for i in range(5) for j in range(i + 1, 5) if sigma[i] > sigma[j]
        )
        assert permutation_sign(sigma) == (-1) ** inversions


def test_permutation_sign_is_the_parity_of_the_lehmer_code():
    for k in range(8):
        for sigma in permutations(range(1, k + 1)):
            assert permutation_sign(sigma) == (-1) ** sum(lehmer_code(sigma))
    # any distinct values, not only 1..k: the sign of the sort
    rng = random.Random(23)
    for _ in range(2000):
        seq = rng.sample(range(-40, 40), rng.randint(0, 12))
        assert permutation_sign(seq) == (-1) ** sum(lehmer_code(seq)), seq


def test_is_partition():
    assert is_partition((3, 2, 2))
    assert is_partition(())
    assert not is_partition((2, 3))
    assert not is_partition((2, 0))
