import math
import random
import re
from itertools import permutations

import pytest

from helpers import reference_walk
from immaculate.compositions import lehmer_code, permutation_sign
from immaculate.coverings import (
    TunnelHookCovering,
    _tail_hooks,
    _tail_moves,
    _walk,
    covering_from_permutation,
    covering_from_terminal_cells,
    enumerate_coverings,
    permutation_from_covering,
)
from immaculate.diagram import TunnelHook, build_diagram, tail_hook
from immaculate.expansions import skew_prefix_decomposition


def test_enumerate_313():
    got = {
        g.delta_seq: g.total_sign for g in enumerate_coverings((3, 1, 3))
    }
    assert got == {
        (3, 1, 3): 1, (3, 2, 2): -1, (4, 0, 3): -1,
        (4, 2, 1): 1, (5, 0, 2): 1, (5, 1, 1): -1,
    }


def test_enumerate_single_row():
    coverings = list(enumerate_coverings((7,)))
    assert len(coverings) == 1
    assert coverings[0].delta_seq == (7,)


def test_enumerate_count_is_factorial():
    rng = random.Random(0)
    for _ in range(20):
        k = rng.randint(1, 5)
        mu = tuple(rng.randint(-3, 5) for _ in range(k))
        nu = tuple(sorted((rng.randint(0, 4) for _ in range(k)), reverse=True))
        assert sum(1 for _ in enumerate_coverings(mu, nu)) == math.factorial(k)


def test_replay_worked_covering():
    mu = (-3, 5, 5, 0, 5, -2, 4, 6)
    cells = ((5, 1), (2, 4), (4, 2), (5, 2), (5, 5), (8, 1), (8, 2), (8, 3))
    g = covering_from_terminal_cells(mu, (2, 1), cells)
    assert g.delta_seq == (1, 2, 5, 0, 1, 0, 4, 4)
    assert g.sigma is None  # skew start, no permutation label


def test_replay_matches_enumeration():
    rng = random.Random(6)
    for case in range(40):
        k = rng.randint(1, 5)
        mu = tuple(rng.randint(-3, 6) for _ in range(k))
        nu = tuple(sorted((rng.randint(0, 4) for _ in range(k)), reverse=True))
        if case % 4 == 0:
            nu = (0,) * k
        for g in enumerate_coverings(mu, nu):
            replay = covering_from_terminal_cells(mu, nu, g.terminal_cells)
            assert replay == g and hash(replay) == hash(g)


@pytest.mark.parametrize("cells, message", [
    # row 1 of the straight shape has the one tunnel cell (1, 1)
    (((1, 2), (2, 1), (3, 1)), "(1, 2) is not a tunnel cell of the diagram"),
    # the first hook absorbs row 1, so the second may not end there
    (((2, 1), (1, 4), (3, 1)), "(1, 4) is not a tunnel cell of the diagram"),
    (((1, 1), (2, 1)), "need 3 terminal cells, got 2"),
])
def test_replay_rejects_bad_cells(cells, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        covering_from_terminal_cells((3, 1, 3), None, cells)


def walk(mu, nu, depth):
    return list(_walk(build_diagram(mu, nu), depth))


def test_delta_stream_matches_full_enumeration():
    # the walk at full depth yields the terminal cells, subscripts and sign
    # of every covering, in order, each leaving the empty tail
    rng = random.Random(1)
    for _ in range(10):
        k = rng.randint(1, 5)
        mu = tuple(rng.randint(-3, 5) for _ in range(k))
        nu = tuple(sorted((rng.randint(0, 3) for _ in range(k)), reverse=True))
        assert walk(mu, nu, k) == [
            (g.terminal_cells, g.delta_seq, g.total_sign, ())
            for g in enumerate_coverings(mu, nu)]


def test_delta_stream_depth_cuts_every_covering():
    # the walk cut at depth d visits each distinct first-d-hook choice once,
    # in covering order, with the cells, subscripts, sign and tail left of
    # those d hooks as their `step` records give them
    rng = random.Random(2)
    for _ in range(10):
        k = rng.randint(1, 5)
        mu = tuple(rng.randint(-3, 5) for _ in range(k))
        nu = tuple(sorted((rng.randint(0, 3) for _ in range(k)), reverse=True))
        coverings = list(enumerate_coverings(mu, nu))
        for d in range(k + 1):
            expected = []
            for g in coverings:
                hooks = g.hooks[:d]
                row = (g.terminal_cells[:d], g.delta_seq[:d],
                       math.prod(h.sign for h in hooks),
                       hooks[-1].bumped[d:] if d else nu)
                if row not in expected:
                    expected.append(row)
            assert walk(mu, nu, d) == expected
            assert len(expected) == math.factorial(k) // math.factorial(k - d)


def test_walk_matches_reference_record_for_record():
    rng = random.Random(8)
    for _ in range(300):
        k = rng.randint(0, 6)
        mu = tuple(rng.randint(-3, 6) for _ in range(k))
        nu = tuple(sorted((rng.randint(0, 4) for _ in range(k)), reverse=True))
        reference = list(reference_walk(mu, nu, k))
        coverings = list(enumerate_coverings(mu, nu))
        assert len(coverings) == len(reference)
        for g, (hooks, cells, deltas, sign, _) in zip(coverings, reference):
            assert g == TunnelHookCovering(mu, nu, cells, deltas, sign)
            assert type(g) is TunnelHookCovering
            assert g.hooks == hooks
            assert all(type(h) is TunnelHook for h in g.hooks)
            assert g.sigma == (
                None if any(nu) else tuple(p - q + 1 for p, q in cells))
        # every depth, 0 and k included: cells, subscripts, sign and tail
        for d in range(k + 1):
            assert walk(mu, nu, d) == [
                row[1:] for row in reference_walk(mu, nu, d)]


@pytest.mark.parametrize("mu, nu", [
    ((2, 5, -1, 3, 0, 4, 1), ()),
    ((3, -2, 4, 1, 5, 0, 2), (3, 2, 2, 1)),
], ids=["straight", "skew"])
def test_seven_row_walk_matches_reference_record_for_record(mu, nu):
    # the full-depth walk joins the top three rows into row 4 and walks
    # rows 1 to 4; the random test above stops at 6 rows
    assert walk(mu, nu, 7) == [row[1:] for row in reference_walk(mu, nu, 7)]


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_walk_no_deeper_than_the_join_matches_reference(k):
    # at full depth the top three rows are joined into the row below
    # them; up to 4 rows that join takes in every row there is
    rng = random.Random(20 + k)
    for case in range(12):
        mu = tuple(rng.randint(-3, 6) for _ in range(k))
        nu = ((0,) * k if case % 2 else
              tuple(sorted((rng.randint(0, 4) for _ in range(k)), reverse=True)))
        reference = list(reference_walk(mu, nu, k))
        assert walk(mu, nu, k) == [row[1:] for row in reference]
        assert list(enumerate_coverings(mu, nu)) == [
            TunnelHookCovering(mu, nu, cells, deltas, sign)
            for _, cells, deltas, sign, _ in reference]
        assert len(reference) == math.factorial(k)


def test_interleaved_walks_keep_their_own_state():
    # two live walks on shapes with the same tails but different moves,
    # stepped in turn, each match their own reference
    a, b, nu = (3, 1, 3, 0), (2, 2, 4, 1), (1, 1, 0, 0)
    got_a, got_b = [], []
    for x, y in zip(_walk(build_diagram(a, nu), 4), _walk(build_diagram(b, nu), 4)):
        got_a.append(x)
        got_b.append(y)
    assert got_a == [row[1:] for row in reference_walk(a, nu, 4)]
    assert got_b == [row[1:] for row in reference_walk(b, nu, 4)]


@pytest.fixture
def patch_tail_hook(monkeypatch):
    # the memo keeps the hooks of every tail it has seen, so it is cleared
    # when the patch goes in, or the hooks of the real tail_hook would
    # hide it, and at teardown, or the patched hooks would reach the
    # tests after this one
    def patch(fn):
        monkeypatch.setattr("immaculate.coverings.tail_hook", fn)
        _tail_hooks.cache_clear()
    yield patch
    _tail_hooks.cache_clear()


@pytest.mark.parametrize("mu, nu", [
    ((2, 5, -1, 3, 0, 4), ()),
    ((3, -2, 4, 1, 5), (3, 2, 2, 1)),
], ids=["straight", "skew"])
def test_the_walk_reads_each_subscript_from_tail_hook(patch_tail_hook, mu, nu):
    # a walk that computes a subscript of its own, and not the delta that
    # tail_hook gives, misses a shift of every delta by a constant
    shift = 100
    expected_walk = [(cells, tuple(d + shift for d in deltas), sign, tail)
                     for cells, deltas, sign, tail in walk(mu, nu, len(mu))]
    expected_coverings = [
        g._replace(delta_seq=tuple(d + shift for d in g.delta_seq))
        for g in enumerate_coverings(mu, nu)]
    expected_prefixes = [
        (sign, tuple(d + shift for d in prefix), tail)
        for sign, prefix, tail in skew_prefix_decomposition(mu, 2)]

    def shifted(m, tail, j):
        delta, sign, after = tail_hook(m, tail, j)
        return delta + shift, sign, after

    patch_tail_hook(shifted)
    assert walk(mu, nu, len(mu)) == expected_walk
    assert list(enumerate_coverings(mu, nu)) == expected_coverings
    assert skew_prefix_decomposition(mu, 2) == expected_prefixes


@pytest.mark.parametrize("least", [0, 1, -math.inf])
def test_the_deltas_from_one_tail_strictly_decrease(least):
    # the fold writes each hook's suffix by plain assignment: that needs
    # the deltas of one tail's moves pairwise distinct, so only the delta 0
    # move drops its part and can meet another move's index; strictly
    # decreasing, they are, and under floor 0 only the last can be 0
    rng = random.Random(38)
    for n in range(200):
        k = rng.randint(1, 8)
        mu = tuple(rng.randint(-3, 6) for _ in range(k))
        nu = () if n % 2 else tuple(
            sorted((rng.randint(0, 5) for _ in range(rng.randint(1, k))),
                   reverse=True))
        for level in _tail_moves(build_diagram(mu, nu), least):
            for tail, moves in level.items():
                deltas = [move[0] for move in moves]
                assert all(a > b for a, b in zip(deltas, deltas[1:])), (
                    mu, nu, tail, deltas)
                assert all(delta >= least for delta in deltas)


def test_covering_from_permutation_example():
    g = covering_from_permutation((4, 7, 3, 1, 6, 2, 5), (4, 7, 3, 1, 6, 2, 5))
    assert g.terminal_cells == ((4, 1), (7, 1), (5, 3), (4, 4), (7, 2), (6, 5), (7, 3))


def test_covering_from_identity():
    mu = (3, 1, 3)
    g = covering_from_permutation(mu, (1, 2, 3))
    assert g.terminal_cells == ((1, 1), (2, 1), (3, 1))
    assert g.delta_seq == mu


def test_covering_from_permutation_checks_the_row_bound_after_sigma():
    # a bad sigma is named first; a good one over too many rows is
    # refused before its terminal cells are built
    with pytest.raises(ValueError, match="not a permutation"):
        covering_from_permutation((1,) * 11, (1,) * 11)
    with pytest.raises(ValueError, match="limited to 10"):
        covering_from_permutation((1,) * 11, range(11, 0, -1))


def test_covering_from_permutation_delta():
    g = covering_from_permutation((3, 1, 3), (2, 1, 3))
    assert g.delta_seq == (4, 0, 3)
    assert g.total_sign == -1


def test_covering_rejects_non_permutation():
    with pytest.raises(ValueError):
        covering_from_permutation((1, 1), (1, 1))


def test_roundtrip_all_s5():
    rng = random.Random(2)
    shapes = [tuple(rng.randint(-3, 6) for _ in range(5)) for _ in range(20)]
    for sigma in permutations(range(1, 6)):
        for mu in shapes:
            g = covering_from_permutation(mu, sigma)
            assert permutation_from_covering(g) == sigma


def test_bijection_hits_every_permutation_once():
    seen = [permutation_from_covering(g) for g in enumerate_coverings((2, 0, 3, 1))]
    assert sorted(seen) == sorted(permutations(range(1, 5)))


def test_permutation_undefined_for_skew():
    g = next(enumerate_coverings((3, 1, 3), (1, 0, 0)))
    with pytest.raises(ValueError):
        permutation_from_covering(g)


def test_sign_lehmer_delta_invariants():
    rng = random.Random(3)
    shapes = [tuple(rng.randint(-3, 6) for _ in range(4)) for _ in range(10)]
    for sigma in permutations(range(1, 5)):
        code = lehmer_code(sigma)
        for mu in shapes:
            g = covering_from_permutation(mu, sigma)
            assert g.total_sign == permutation_sign(sigma)
            for r, hook in enumerate(g.hooks):
                assert sum(1 for e in hook.eta if e > 0) == code[r] + 1
                assert g.delta_seq[r] == mu[r] - (r + 1) + sigma[r]


def test_json_shape():
    g = covering_from_permutation((3, 1, 3), (2, 1, 3))
    data = g.to_json_dict()
    assert data == {
        "terminal_cells": [[2, 1], [2, 2], [3, 1]],
        "delta": [4, 0, 3],
        "sign": -1,
        "sigma": [2, 1, 3],
    }
    skew = next(enumerate_coverings((3, 1, 3), (1, 0, 0)))
    assert skew.to_json_dict() == {
        "terminal_cells": [[1, 2], [2, 1], [3, 1]],
        "delta": [2, 1, 3],
        "sign": 1,
        "sigma": None,
    }


def test_covering_stores_its_terminal_cells():
    # the cells fix the covering, and its subscripts and sign are stored
    # with them; the hook records are rebuilt when read, not stored
    assert TunnelHookCovering._fields == (
        "mu", "nu0", "terminal_cells", "delta_seq", "total_sign")
