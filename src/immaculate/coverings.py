"""Tunnel hook coverings: enumeration, the permutation bijection, signs.

A covering of the shape mu over nu picks one tunnel hook per row, bottom
up: hook r starts at the first active row of the diagram left after the
previous r-1 hooks were absorbed. A shape with k rows has exactly k!
coverings. When nu = 0 the coverings are in bijection with permutations
of {1..k} via sigma_i = p_i - q_i + 1 on terminal cells (p_i, q_i).
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Iterator, NamedTuple, Optional

from .compositions import brief
from .diagram import (Cell, GbprDiagram, TunnelHook, _hook_to_cell,
                      build_diagram, step)

#: The most rows a shape may have on any path that walks or folds its
#: coverings: a k-row shape has k! of them.
MAX_ROWS = 10


class TunnelHookCovering(NamedTuple):
    """A covering of mu over nu0, stored as its hooks, bottom row first.

    The H-subscripts, the sign and, for a straight shape, the permutation
    label are all read off the hooks.
    """

    mu: tuple[int, ...]
    nu0: tuple[int, ...]
    hooks: tuple[TunnelHook, ...]

    @property
    def delta_seq(self) -> tuple[int, ...]:
        return tuple([h.delta for h in self.hooks])

    @property
    def total_sign(self) -> int:
        return _sign(self.hooks)

    @property
    def terminal_cells(self) -> tuple[Cell, ...]:
        return tuple([h.terminal for h in self.hooks])

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


def _sign(hooks: Iterable[TunnelHook]) -> int:
    """The product of the hook signs."""
    return prod([h.sign for h in hooks])


def _check_rows(k: int) -> None:
    """Refuse a shape with more than MAX_ROWS rows, read when called."""
    if k > MAX_ROWS:
        raise ValueError(
            f"shape has {k} rows; enumeration is limited to {MAX_ROWS}")


def _walk(start: GbprDiagram, depth: int) -> Iterator[tuple[TunnelHook, ...]]:
    """The hooks of each covering of the bottom depth rows.

    Depth-first, tunnel cells taken bottom-up. The hooks leaving a state
    (s, nu_now) are built through `step` once and kept in row s's
    table, which lives only as long as this walk: about e * k! nodes share
    a few hundred states at k = 7. The hooks of row depth are yielded in
    place, not pushed as nodes of their own.
    """
    if depth == 0:
        yield ()
        return
    k = start.k
    mu = start.mu
    moves: list[dict[tuple[int, ...], list[TunnelHook]]] = [
        {} for _ in range(depth + 1)]
    # (nu_now, s, hooks) per open node; children are pushed last terminal
    # first, so they pop in ascending terminal order.
    todo = [(start.nu, 1, ())]
    while todo:
        nu_now, s, hooks = todo.pop()
        table = moves[s]
        out = table.get(nu_now)
        if out is None:
            out = table[nu_now] = [step(mu, nu_now, s, p)
                                   for p in range(s, k + 1)]
        if s == depth:
            for hook in out:
                yield hooks + (hook,)
            continue
        for hook in reversed(out):
            todo.append((hook.bumped, s + 1, hooks + (hook,)))


def enumerate_coverings(
    mu: Iterable[int], nu: Optional[Iterable[int]] = None
) -> Iterator[TunnelHookCovering]:
    """Depth-first stream of all k! coverings, tunnel cells taken bottom-up."""
    start = build_diagram(mu, nu)
    _check_rows(start.k)
    # tuple.__new__ skips the generated __new__: a covering checks nothing
    new = tuple.__new__
    mu, nu = start.mu, start.nu
    for hooks in _walk(start, start.k):
        yield new(TunnelHookCovering, (mu, nu, hooks))


def covering_from_terminal_cells(
    mu: Iterable[int], nu: Optional[Iterable[int]], cells: Iterable[Cell]
) -> TunnelHookCovering:
    """Replay a covering from its terminal-cell choices, bottom row first."""
    start = build_diagram(mu, nu)
    k = start.k
    _check_rows(k)
    cells = list(cells)
    if len(cells) != k:
        raise ValueError(f"need {k} terminal cells, got {len(cells)}")
    nu_now = start.nu
    hooks = []
    for s, tau in enumerate(cells, start=1):
        hook = _hook_to_cell(start.mu, nu_now, s, tau)
        hooks.append(hook)
        nu_now = hook.bumped
    return TunnelHookCovering(start.mu, start.nu, tuple(hooks))


def covering_from_permutation(
    mu: Iterable[int], sigma: Iterable[int]
) -> TunnelHookCovering:
    """Covering of the straight shape mu whose terminal cells realize sigma.

    Terminal cell r is (sigma_r + m, 1 + m) where m counts earlier sigma
    values exceeding sigma_r.
    """
    mu = tuple(mu)
    sigma = tuple(sigma)
    if len(sigma) != len(mu):
        raise ValueError("sigma and mu must have equal length")
    if sorted(sigma) != list(range(1, len(mu) + 1)):
        raise ValueError(f"not a permutation of 1..{len(mu)}: {brief(sigma)}")
    _check_rows(len(mu))
    cells = []
    for r, value in enumerate(sigma):
        m = sum(1 for earlier in sigma[:r] if earlier > value)
        cells.append((value + m, 1 + m))
    return covering_from_terminal_cells(mu, None, cells)


def permutation_from_covering(covering: TunnelHookCovering) -> tuple[int, ...]:
    """sigma_i = p_i - q_i + 1; defined only for straight shapes (nu = 0)."""
    if any(covering.nu0):
        raise ValueError("the permutation bijection requires nu = 0")
    return covering.sigma
