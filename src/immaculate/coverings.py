"""Tunnel hook coverings: enumeration, the permutation bijection, signs.

A covering of the shape mu over nu picks one tunnel hook per row, bottom
up: hook r starts at the first active row of the diagram left after the
previous r-1 hooks were absorbed. A shape with k rows has exactly k!
coverings. When nu = 0 the coverings are in bijection with permutations
of {1..k} via sigma_i = p_i - q_i + 1 on terminal cells (p_i, q_i).
The walk here and the expansion fold read one move table, `_tail_moves`,
keyed on the active tail; hook records are built only when read. The
hooks from a row depend on the active tail alone, so the table reads
each tail's hooks from `_tail_hooks`, a memo that computes them once per
process with `tail_hook` and keeps at most 2 048 tails.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from math import inf
from typing import Iterable, Iterator, NamedTuple, Optional

from .compositions import brief, int_parts
from .diagram import (Cell, GbprDiagram, TunnelHook, _hook_to_cell,
                      _tunnel_j, build_diagram, tail_hook)

IntSeq = tuple[int, ...]
Move = tuple[int, int, IntSeq, int]
#: (terminal cells, subscripts, sign, tail left) of some rows' hooks
Run = tuple[tuple[Cell, ...], IntSeq, int, IntSeq]

#: The most rows a shape may have on any path that walks or folds its
#: coverings: a k-row shape has k! of them.
MAX_ROWS = 10


class TunnelHookCovering(NamedTuple):
    """A covering of mu over nu0 by its terminal cells, bottom row first.

    The cells fix the covering; its H-subscripts and sign are stored with
    them, and `hooks` rebuilds the hook records when read.
    """

    mu: IntSeq
    nu0: IntSeq
    terminal_cells: tuple[Cell, ...]
    delta_seq: IntSeq
    total_sign: int

    @property
    def hooks(self) -> tuple[TunnelHook, ...]:
        """The `TunnelHook` records, replayed through `step` on each read,
        each on the inner shape the ones before it leave."""
        nu, hooks = self.nu0, []
        for s, tau in enumerate(self.terminal_cells, start=1):
            hooks.append(_hook_to_cell(self.mu, nu, s, tau))
            nu = hooks[-1].bumped
        return tuple(hooks)

    @property
    def sigma(self) -> Optional[tuple[int, ...]]:
        """sigma_i = p_i - q_i + 1 on the terminal cells; None unless nu0 = 0."""
        if any(self.nu0):
            return None
        return tuple([p - q + 1 for p, q in self.terminal_cells])

    def to_json_dict(self) -> dict:
        sigma = self.sigma
        return {
            "terminal_cells": [list(c) for c in self.terminal_cells],
            "delta": list(self.delta_seq),
            "sign": self.total_sign,
            "sigma": list(sigma) if sigma is not None else None,
        }


def _check_rows(k: int) -> None:
    """Refuse a shape with more than MAX_ROWS rows, read when called."""
    if k > MAX_ROWS:
        raise ValueError(
            f"shape has {k} rows; enumeration is limited to {MAX_ROWS}")


# 2 048 tails: a whole `verify` sweep reaches 1 227 of them and one fold
# of MAX_ROWS rows at most 2^10 - 1. An entry takes about 0.85 KB on the
# tails of 4 to 6 parts such runs reach and about 2.8 KB on one of 10
# parts, so the memo holds about 1 MB there and about 6 MB at worst.
@lru_cache(maxsize=2048)
def _tail_hooks(tail: IntSeq) -> tuple[Move, ...]:
    """(delta, sign, tail left, j) of each hook from the tail's first row,
    j = len(tail) down to 1, as `tail_hook` gives it from a start row of
    length 0: a start row of length m adds m to delta and changes nothing
    else. Every shape that reaches a tail shares its hooks, so they are
    computed once per process and kept, the least recently read dropped
    first.
    """
    return tuple([tail_hook(0, tail, j) + (j,)
                  for j in range(len(tail), 0, -1)])


def _tail_moves(start: GbprDiagram,
                least: float) -> Iterator[dict[IntSeq, list[Move]]]:
    """The moves out of each reachable active tail, one dict per row, in
    row order: row s's maps each tail nu_now[s - 1:] reached to one
    (delta, sign, next tail, j) per hook from row s to the tail's row j,
    read from the memo `_tail_hooks` with delta moved up by mu_s. delta =
    mu_s - nu_p + p - s grows with the terminal row p, as the tail is
    weakly decreasing, so the terminals are taken from the top down and
    the first hook with delta below the kill floor `least` ends the row:
    every lower one is below it too. The fold reads this table under its
    floor, the walk with none.
    """
    tails: dict[IntSeq, None] = {start.nu: None}
    for m in start.mu:
        level: dict[IntSeq, list[Move]] = {}
        reached: dict[IntSeq, None] = {}
        for tail in tails:
            moves = level[tail] = []
            for shift, sign, after, j in _tail_hooks(tail):
                delta = m + shift
                if delta < least:
                    break
                moves.append((delta, sign, after, j))
                reached[after] = None
        yield level
        tails = reached


#: At full depth, how many of the top rows are joined into the row below
#: them: past three, building the joins costs more than the nodes saved.
_JOINED_ROWS = 3


def _nodes(start: GbprDiagram,
           depth: int) -> Iterator[tuple[tuple[Cell, ...], IntSeq, int,
                                         list[Run]]]:
    """(terminal cells, subscripts, sign, completions) per open node of the
    last row walked, depth-first over `_tail_moves` with no floor.

    Each row's moves are first annotated, once per call: the move from
    row s to the tail's row j ends at (s + j - 1, tail[j - 1] + 1), and
    its subscript is the move's delta; both are kept as one-entry tuples,
    so a push joins ready tuples. A node's completions are the
    (cells, subscripts, sign, tail left) of its moves out of the last row
    walked, in yield order. At full depth the top rows, up to
    `_JOINED_ROWS` of them, are joined into the row below them: that row's
    completions cover the whole tail, 4! = 24 per 4-row tail, and the walk
    opens 2 081 nodes for the 8! coverings of 8 rows, not 28 961. Moves
    are pushed top terminal first, so they pop in ascending terminal
    order, which completions keep.
    """
    if depth == 0:
        yield (), (), 1, [((), (), 1, start.nu)]
        return
    levels = [
        {tail: [(((s + j, tail[j - 1] + 1),), (delta,), sign, after)
                for delta, sign, after, j in moves]
         for tail, moves in level.items()}
        for s, level in enumerate(islice(_tail_moves(start, -inf), depth))]
    last = {tail: moves[::-1] for tail, moves in levels.pop().items()}
    if depth == start.k:
        for _ in range(min(_JOINED_ROWS, depth - 1)):
            last = {
                tail: [(c + c2, d + d2, sign * sign2, after2)
                       for c, d, sign, after in reversed(moves)
                       for c2, d2, sign2, after2 in last[after]]
                for tail, moves in levels.pop().items()}
    rows = len(levels)
    # (row s - 1, tail, cells, subscripts, sign) per open node
    todo = [(0, start.nu, (), (), 1)]
    while todo:
        r, tail, cells, deltas, sign = todo.pop()
        if r == rows:
            yield cells, deltas, sign, last[tail]
            continue
        moves = levels[r][tail]
        r += 1
        for c, d, hook_sign, after in moves:
            todo.append((r, after, cells + c, deltas + d, sign * hook_sign))


def _walk(start: GbprDiagram, depth: int) -> Iterator[Run]:
    """(terminal cells, subscripts, sign, tail left) per covering of the
    bottom depth rows, in ascending terminal order row by row."""
    for cells, deltas, sign, completions in _nodes(start, depth):
        for c, d, hook_sign, after in completions:
            yield cells + c, deltas + d, sign * hook_sign, after


def enumerate_coverings(
    mu: Iterable[int], nu: Optional[Iterable[int]] = None
) -> Iterator[TunnelHookCovering]:
    """Depth-first stream of all k! coverings, tunnel cells taken bottom-up."""
    start = build_diagram(mu, nu)
    _check_rows(start.k)
    # tuple.__new__ skips the generated __new__: a covering checks nothing
    new = tuple.__new__
    mu, nu = start.mu, start.nu
    for cells, deltas, sign, completions in _nodes(start, start.k):
        for c, d, hook_sign, _ in completions:
            yield new(TunnelHookCovering,
                      (mu, nu, cells + c, deltas + d, sign * hook_sign))


def covering_from_terminal_cells(
    mu: Iterable[int], nu: Optional[Iterable[int]], cells: Iterable[Cell]
) -> TunnelHookCovering:
    """Replay a covering from its terminal-cell choices, bottom row first.

    Each cell is checked by `_tunnel_j` on the active tail and read by
    `tail_hook`, row by row; no hook record is built.
    """
    start = build_diagram(mu, nu)
    k = start.k
    _check_rows(k)
    cells = list(cells)
    if len(cells) != k:
        raise ValueError(f"need {k} terminal cells, got {len(cells)}")
    mu = start.mu
    tail = start.nu
    terminals, deltas, sign = [], [], 1
    for s, tau in enumerate(cells, start=1):
        tau, j = _tunnel_j(tail, s, tau)
        delta, hook_sign, tail = tail_hook(mu[s - 1], tail, j)
        terminals.append(tau)
        deltas.append(delta)
        sign *= hook_sign
    return tuple.__new__(TunnelHookCovering, (mu, start.nu, tuple(terminals),
                                              tuple(deltas), sign))


def covering_from_permutation(
    mu: Iterable[int], sigma: Iterable[int]
) -> TunnelHookCovering:
    """Covering of the straight shape mu whose terminal cells realize sigma.

    Terminal cell r is (sigma_r + m, 1 + m) where m counts earlier sigma
    values exceeding sigma_r.
    """
    mu = int_parts(mu, "mu")
    sigma = int_parts(sigma, "sigma")
    if len(sigma) != len(mu):
        raise ValueError("sigma and mu must have equal length")
    if sorted(sigma) != list(range(1, len(mu) + 1)):
        raise ValueError(f"not a permutation of 1..{len(mu)}: {brief(sigma)}")
    _check_rows(len(mu))
    cells = []
    for r, value in enumerate(sigma):
        m = 0
        for earlier in sigma[:r]:
            if earlier > value:
                m += 1
        cells.append((value + m, 1 + m))
    return covering_from_terminal_cells(mu, None, cells)


def permutation_from_covering(covering: TunnelHookCovering) -> tuple[int, ...]:
    """sigma_i = p_i - q_i + 1; defined only for straight shapes (nu = 0)."""
    if any(covering.nu0):
        raise ValueError("the permutation bijection requires nu = 0")
    return covering.sigma
