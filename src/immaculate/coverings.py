"""Tunnel hook coverings: enumeration, the permutation bijection, signs.

A covering of the shape mu over nu picks one tunnel hook per row, bottom
up: hook r starts at the first active row of the diagram left after the
previous r-1 hooks were absorbed. A shape with k rows has exactly k!
coverings. When nu = 0 the coverings are in bijection with permutations
of {1..k} via sigma_i = p_i - q_i + 1 on terminal cells (p_i, q_i).
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional

from .diagram import Cell, TunnelHook, build_diagram, step

DEFAULT_MAX_K = 10


class TunnelHookCovering(NamedTuple):
    mu: tuple[int, ...]
    nu0: tuple[int, ...]
    hooks: tuple[TunnelHook, ...]
    delta_seq: tuple[int, ...]
    total_sign: int
    sigma: Optional[tuple[int, ...]] = None

    @property
    def terminal_cells(self) -> tuple[Cell, ...]:
        return tuple(h.terminal for h in self.hooks)

    def to_json_dict(self) -> dict:
        return {
            "terminal_cells": [list(c) for c in self.terminal_cells],
            "delta": list(self.delta_seq),
            "sign": self.total_sign,
            "sigma": list(self.sigma) if self.sigma is not None else None,
        }


def _check_bound(k: int, max_k: int) -> None:
    if k > max_k:
        raise ValueError(
            f"shape has {k} rows; enumeration is limited to {max_k} "
            f"(raise max_k to override)"
        )


def _covering(
    mu: tuple[int, ...],
    nu0: tuple[int, ...],
    hooks: tuple[TunnelHook, ...],
    delta_seq: tuple[int, ...],
    total_sign: int,
) -> TunnelHookCovering:
    """The covering record, with its permutation label when nu0 = 0."""
    sigma = None
    if not any(nu0):
        sigma = tuple([h.terminal[0] - h.terminal[1] + 1 for h in hooks])
    return TunnelHookCovering(mu, nu0, hooks, delta_seq, total_sign, sigma)


def enumerate_coverings(
    mu: Iterable[int],
    nu: Optional[Iterable[int]] = None,
    *,
    max_k: int = DEFAULT_MAX_K,
) -> Iterator[TunnelHookCovering]:
    """Depth-first stream of all k! coverings, tunnel cells taken bottom-up."""
    start = build_diagram(mu, nu)
    _check_bound(start.k, max_k)
    k = start.k
    mu_t, nu0 = start.mu, start.nu
    # (nu_now, s, hooks, delta_seq, sign) per open node; children are pushed
    # last terminal first, so they pop in ascending terminal order.
    todo = [(nu0, 1, (), (), 1)]
    while todo:
        nu_now, s, hooks, deltas, sign = todo.pop()
        if s > k:
            yield _covering(mu_t, nu0, hooks, deltas, sign)
            continue
        for p in range(k, s - 1, -1):
            delta, step_sign, bumped = step(mu_t, nu_now, s, p)
            hook = TunnelHook(s, (p, nu_now[p - 1] + 1), step_sign, delta,
                              nu_now, bumped)
            todo.append((bumped, s + 1, hooks + (hook,), deltas + (delta,),
                         sign * step_sign))


def covering_from_terminal_cells(
    mu: Iterable[int],
    nu: Optional[Iterable[int]],
    cells: Iterable[Cell],
    *,
    max_k: int = DEFAULT_MAX_K,
) -> TunnelHookCovering:
    """Replay a covering from its terminal-cell choices, bottom row first."""
    start = build_diagram(mu, nu)
    k = start.k
    _check_bound(k, max_k)
    cells = list(cells)
    if len(cells) != k:
        raise ValueError(f"need {k} terminal cells, got {len(cells)}")
    nu_now = start.nu
    hooks = []
    deltas = []
    sign = 1
    for s, tau in enumerate(cells, start=1):
        tau = tuple(tau)
        p = tau[0] if tau else 0
        if not (s <= p <= k and tau == (p, nu_now[p - 1] + 1)):
            raise ValueError(f"{tau} is not a tunnel cell of the diagram")
        hook = TunnelHook.at(start.mu, nu_now, s, p)
        hooks.append(hook)
        deltas.append(hook.delta)
        sign *= hook.sign
        nu_now = hook.bumped
    return _covering(start.mu, start.nu, tuple(hooks), tuple(deltas), sign)


def covering_from_permutation(
    mu: Iterable[int], sigma: Iterable[int], *, max_k: int = DEFAULT_MAX_K
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
        raise ValueError(f"not a permutation of 1..{len(mu)}: {sigma}")
    cells = []
    for r, value in enumerate(sigma):
        m = sum(1 for earlier in sigma[:r] if earlier > value)
        cells.append((value + m, 1 + m))
    return covering_from_terminal_cells(mu, None, cells, max_k=max_k)


def permutation_from_covering(covering: TunnelHookCovering) -> tuple[int, ...]:
    """sigma_i = p_i - q_i + 1; defined only for straight shapes (nu = 0)."""
    if any(covering.nu0):
        raise ValueError("the permutation bijection requires nu = 0")
    assert covering.sigma is not None
    return covering.sigma


def transpose_covering(covering: TunnelHookCovering, i: int) -> TunnelHookCovering:
    """The covering whose permutation is sigma with values at i, i+1 swapped.

    Flips the total sign and preserves delta entries away from i, i+1 as
    well as the sum delta_i + delta_{i+1}.
    """
    if any(covering.nu0):
        raise ValueError("transposition is defined only for straight shapes")
    sigma = list(permutation_from_covering(covering))
    if not 1 <= i < len(sigma):
        raise ValueError(f"row index {i} out of range")
    sigma[i - 1], sigma[i] = sigma[i], sigma[i - 1]
    return covering_from_permutation(covering.mu, sigma, max_k=len(sigma))


def delta_sign_stream(
    mu: Iterable[int],
    nu: Optional[Iterable[int]] = None,
    *,
    depth: Optional[int] = None,
    max_k: int = DEFAULT_MAX_K,
) -> Iterator[tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """(delta_seq, sign, nu_after) per covering of the bottom depth rows.

    depth defaults to all k rows; nu_after is the inner shape once those
    hooks are absorbed. Same order as enumerate_coverings, without
    materializing hooks. The prefix decomposition reads it at depth m; the
    H fold has its own walk, which skips the coverings a negative
    subscript kills.
    """
    start = build_diagram(mu, nu)
    _check_bound(start.k, max_k)
    k = start.k
    stop = k if depth is None else depth
    if not 0 <= stop <= k:
        raise ValueError(f"need 0 <= depth <= {k}, got {depth}")
    mu_t = start.mu

    def walk(nu_now: tuple[int, ...], s: int, deltas: tuple[int, ...], sign: int):
        if s > stop:
            yield deltas, sign, nu_now
            return
        for p in range(s, k + 1):
            delta, step_sign, bumped = step(mu_t, nu_now, s, p)
            yield from walk(bumped, s + 1, deltas + (delta,), sign * step_sign)

    yield from walk(start.nu, 1, (), 1)
