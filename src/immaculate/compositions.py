"""Compositions, coarsenings, permutation combinatorics, integer inputs.

Conventions: a composition is a tuple of positive ints (a "weak" composition
may contain zeros or negatives where noted). Positions in subsets are 1-based
and refer to the gaps between adjacent parts, so S is a subset of
{1, ..., len(alpha) - 1}.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator


def compositions_of(n: int) -> Iterator[tuple[int, ...]]:
    """Yield all compositions of n in lexicographic order. n = 0 yields ()."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions_of(n - first):
            yield (first,) + rest


def is_partition(seq: Iterable[int]) -> bool:
    """True if seq is weakly decreasing with all parts positive (or empty)."""
    seq = tuple(seq)
    return all(p > 0 for p in seq) and all(
        seq[i] >= seq[i + 1] for i in range(len(seq) - 1)
    )


class _Omitted(str):
    __repr__ = str.__str__  # a tuple prints it unquoted


def brief(parts: tuple) -> tuple:
    """parts, or past 10 parts its first 10 and "... N parts": what a
    refusal shows of its input, so a long one gives a short message."""
    if len(parts) <= 10:
        return parts
    return parts[:10] + (_Omitted(f"... {len(parts)} parts"),)


def int_parts(parts: Iterable, what: str, strong: bool = False) -> tuple[int, ...]:
    """parts as a tuple of ints: the one check of every integer input, a
    scalar x as (x,). parts that are not iterable, or a part that is not
    an int or with strong one below 1, raise `{what} {parts} is not a
    strong composition` with strong and `... is not a sequence of
    integers` without, as a ValueError."""
    rule = "a strong composition" if strong else "a sequence of integers"
    try:
        parts = tuple(parts)
    except TypeError:
        raise ValueError(f"{what} {parts!r} is not {rule}") from None
    for part in parts:
        # type(...) is int refuses bool and 2.0, which isinstance or == let in
        if type(part) is not int or strong and part < 1:
            raise ValueError(f"{what} {brief(parts)} is not {rule}")
    return parts


def coarsenings(alpha: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], frozenset[int]]]:
    """Yield (coarsening, subset) over all 2^(len-1) gap subsets.

    Gap i (1-based) sits between alpha[i-1] and alpha[i]; a subset's gaps
    are merged from the right, so each merge leaves the parts to its left
    where they were.
    """
    gaps = tuple(range(1, len(alpha)))
    for r in range(len(gaps) + 1):
        for subset in combinations(gaps, r):
            parts = list(alpha)
            for i in reversed(subset):
                parts[i - 1] += parts.pop(i)
            yield tuple(parts), frozenset(subset)


def lehmer_code(sigma: tuple[int, ...]) -> tuple[int, ...]:
    """Inversion table: entry i counts later values smaller than sigma[i]."""
    return tuple(
        sum(1 for j in range(i + 1, len(sigma)) if sigma[j] < sigma[i])
        for i in range(len(sigma))
    )


def permutation_sign(sigma: tuple[int, ...]) -> int:
    """(-1)^(inversions) of distinct values: the parity of the swaps that
    put each index of sigma's index sort in place, O(k log k)."""
    order = sorted(range(len(sigma)), key=sigma.__getitem__)
    swaps = 0
    for i in range(len(order)):
        while (j := order[i]) != i:
            order[i], order[j] = order[j], j
            swaps += 1
    return -1 if swaps % 2 else 1
