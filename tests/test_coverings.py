import math
import random
import re
from itertools import permutations

import pytest

from immaculate.compositions import lehmer_code, permutation_sign
from immaculate.coverings import (
    TunnelHookCovering,
    covering_from_permutation,
    covering_from_terminal_cells,
    delta_sign_stream,
    enumerate_coverings,
    permutation_from_covering,
    transpose_covering,
)
from immaculate.diagram import TunnelHook


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


def test_enumerate_respects_bound():
    with pytest.raises(ValueError):
        next(enumerate_coverings((1,) * 11))
    # explicit override lifts it
    next(enumerate_coverings((1,) * 11, max_k=11))


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


def test_delta_stream_matches_full_enumeration():
    rng = random.Random(1)
    for _ in range(10):
        k = rng.randint(1, 5)
        mu = tuple(rng.randint(-3, 5) for _ in range(k))
        nu = tuple(sorted((rng.randint(0, 3) for _ in range(k)), reverse=True))
        full = [(g.delta_seq, g.total_sign, g.hooks[-1].bumped)
                for g in enumerate_coverings(mu, nu)]
        assert list(delta_sign_stream(mu, nu)) == full
        assert list(delta_sign_stream(mu, nu, depth=k)) == full


def test_delta_stream_depth_cuts_every_covering():
    # the walk cut at depth d visits each distinct first-d-hook choice once,
    # in covering order, with the partial sign and the inner shape after it
    rng = random.Random(2)
    for _ in range(10):
        k = rng.randint(1, 5)
        mu = tuple(rng.randint(-3, 5) for _ in range(k))
        nu = tuple(sorted((rng.randint(0, 3) for _ in range(k)), reverse=True))
        coverings = list(enumerate_coverings(mu, nu))
        for d in range(k + 1):
            expected = []
            for g in coverings:
                head = g.hooks[:d]
                entry = (
                    g.delta_seq[:d],
                    math.prod(h.sign for h in head),
                    head[-1].bumped if head else tuple(g.nu0),
                )
                if entry not in expected:
                    expected.append(entry)
            assert list(delta_sign_stream(mu, nu, depth=d)) == expected
            assert len(expected) == math.factorial(k) // math.factorial(k - d)


def reference_walk(mu, nu, depth):
    """(hooks, nu_after) per covering of the bottom depth rows, by recursion."""
    k = len(mu)

    def walk(nu_now, s, hooks):
        if s > depth:
            yield hooks, nu_now
            return
        for p in range(s, k + 1):
            hook = TunnelHook.at(mu, nu_now, s, p)
            yield from walk(hook.bumped, s + 1, hooks + (hook,))

    yield from walk(nu, 1, ())


def reference_records(mu, nu, depth):
    """enumerate_coverings records (depth k) and delta_sign_stream triples."""
    coverings, stream = [], []
    for hooks, nu_after in reference_walk(mu, nu, depth):
        deltas = tuple(h.delta for h in hooks)
        sign = math.prod(h.sign for h in hooks)
        sigma = None
        if not any(nu):
            sigma = tuple(h.terminal[0] - h.terminal[1] + 1 for h in hooks)
        coverings.append(TunnelHookCovering(mu, nu, hooks, deltas, sign, sigma))
        stream.append((deltas, sign, nu_after))
    return coverings, stream


def test_walk_matches_reference_record_for_record():
    rng = random.Random(8)
    for _ in range(300):
        k = rng.randint(0, 6)
        mu = tuple(rng.randint(-3, 6) for _ in range(k))
        nu = tuple(sorted((rng.randint(0, 4) for _ in range(k)), reverse=True))
        coverings, stream = reference_records(mu, nu, k)
        assert list(enumerate_coverings(mu, nu)) == coverings
        assert list(delta_sign_stream(mu, nu)) == stream
        for d in range(k):
            assert list(delta_sign_stream(mu, nu, depth=d)) == (
                reference_records(mu, nu, d)[1])


def test_interleaved_walks_keep_their_own_state():
    # two live generators on shapes with the same states (s, nu_now) but
    # different hooks, stepped in turn, each match their own reference
    a, b, nu = (3, 1, 3, 0), (2, 2, 4, 1), (1, 1, 0, 0)
    for index, make in enumerate((enumerate_coverings, delta_sign_stream)):
        got_a, got_b = [], []
        for x, y in zip(make(a, nu), make(b, nu)):
            got_a.append(x)
            got_b.append(y)
        assert got_a == reference_records(a, nu, 4)[index]
        assert got_b == reference_records(b, nu, 4)[index]


def test_delta_stream_rejects_bad_depth():
    with pytest.raises(ValueError):
        next(delta_sign_stream((2, 1), depth=3))


def test_covering_from_permutation_example():
    g = covering_from_permutation((4, 7, 3, 1, 6, 2, 5), (4, 7, 3, 1, 6, 2, 5))
    assert g.terminal_cells == ((4, 1), (7, 1), (5, 3), (4, 4), (7, 2), (6, 5), (7, 3))


def test_covering_from_identity():
    mu = (3, 1, 3)
    g = covering_from_permutation(mu, (1, 2, 3))
    assert g.terminal_cells == ((1, 1), (2, 1), (3, 1))
    assert g.delta_seq == mu


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


def test_transpose_is_involution():
    for sigma in permutations(range(1, 4)):
        g = covering_from_permutation((2, 2, 2), sigma)
        for i in (1, 2):
            assert transpose_covering(transpose_covering(g, i), i) == g


def test_transpose_flips_sign_preserves_other_deltas():
    for sigma in permutations(range(1, 4)):
        g = covering_from_permutation((2, 2, 2), sigma)
        for i in (1, 2):
            h = transpose_covering(g, i)
            assert h.total_sign == -g.total_sign
            assert h.delta_seq[i - 1] + h.delta_seq[i] == (
                g.delta_seq[i - 1] + g.delta_seq[i]
            )
            for j in range(3):
                if j not in (i - 1, i):
                    assert h.delta_seq[j] == g.delta_seq[j]


def test_transpose_terminal_cell_surgery():
    # only the two swapped hooks move, and they move to predictable cells
    rng = random.Random(4)
    for _ in range(30):
        k = rng.randint(2, 5)
        mu = tuple(rng.randint(-2, 5) for _ in range(k))
        sigma = list(range(1, k + 1))
        rng.shuffle(sigma)
        g = covering_from_permutation(mu, tuple(sigma))
        i = rng.randint(1, k - 1)
        h = transpose_covering(g, i)
        old = g.terminal_cells
        new = h.terminal_cells
        assert new[:i - 1] == old[:i - 1] and new[i + 1:] == old[i + 1:]
        (p1, q1), (p2, q2) = old[i - 1], old[i]
        if p1 - q1 < p2 - q2:
            assert new[i - 1] == (p2, q2) and new[i] == (p1 + 1, q1 + 1)
        else:
            assert new[i - 1] == (p2 - 1, q2 - 1) and new[i] == (p1, q1)


def test_transpose_rejects_skew_and_bad_index():
    g = next(enumerate_coverings((2, 2), (1, 0)))
    with pytest.raises(ValueError):
        transpose_covering(g, 1)
    g = covering_from_permutation((2, 2), (1, 2))
    with pytest.raises(ValueError):
        transpose_covering(g, 2)


def test_json_shape():
    g = covering_from_permutation((3, 1, 3), (2, 1, 3))
    data = g.to_json_dict()
    assert data == {
        "terminal_cells": [[2, 1], [2, 2], [3, 1]],
        "delta": [4, 0, 3],
        "sign": -1,
        "sigma": [2, 1, 3],
    }
