"""Row diagrams with grey, blue, and red cell counts, and tunnel hooks.

A diagram is determined by an integer row-length sequence mu, a sequence
nu of nonnegative inner lengths, and an offset r marking how many bottom
rows have already been absorbed. Rows are indexed 1-based from the bottom;
active rows are r+1 through k. Per active row i the counts are:

  grey   a_i = nu_i
  blue   b_i = mu_i - nu_i   if mu_i > 0 and nu_i <= mu_i
  red    c_i = nu_i - mu_i   if mu_i > 0 and mu_i < nu_i
  red    c_i = |mu_i| + nu_i if mu_i <= 0

so a_i + b_i - c_i = mu_i always, and no row has both blue and red.
Everything else in the quadrant is implicitly purple; purple cells are
never stored (the purple region is infinite).

A tunnel hook from the start row s to the terminal row p has a closed
form, computed once by `step`. Because a_s = nu_s and a_s + b_s - c_s =
mu_s, it needs no colour counts or boundary scan:

  delta     = mu_s - nu_p + (p - s)        (the H subscript it contributes)
  sign      = (-1)^(p - s)
  bumped_s  = nu_s + max(1, |mu_s - nu_s|)
  bumped_r  = nu_{r-1} + 1                 for s < r <= p

and every other row of nu is unchanged. `boundary_cells` keeps the
paper's cell-by-cell definition as the reference the rule is checked
against.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

Cell = tuple[int, int]


def row_counts(mu_i: int, nu_i: int) -> tuple[int, int, int]:
    """(grey, blue, red) counts for a row with outer length mu_i over nu_i."""
    if nu_i < 0:
        raise ValueError(f"nu entry must be nonnegative, got {nu_i}")
    if mu_i > 0 and nu_i <= mu_i:
        return nu_i, mu_i - nu_i, 0
    if mu_i > 0:
        return nu_i, 0, nu_i - mu_i
    return nu_i, 0, -mu_i + nu_i


class _Diagram(NamedTuple):
    mu: tuple[int, ...]
    nu: tuple[int, ...]
    offset: int = 0


class GbprDiagram(_Diagram):
    """mu over nu with the bottom offset rows absorbed; validated on construction."""

    __slots__ = ()

    def __new__(cls, mu: tuple[int, ...], nu: tuple[int, ...], offset: int = 0):
        if len(mu) != len(nu):
            raise ValueError("mu and nu must have equal length")
        if not 0 <= offset <= len(mu):
            raise ValueError(f"offset {offset} out of range")
        if any(n < 0 for n in nu):
            raise ValueError(f"nu must be nonnegative: {nu}")
        tail = nu[offset:]
        if any(tail[i] < tail[i + 1] for i in range(len(tail) - 1)):
            raise ValueError(
                f"active rows of nu must be weakly decreasing: {tail}"
            )
        return super().__new__(cls, mu, nu, offset)

    @classmethod
    def _make(cls, iterable) -> "GbprDiagram":
        # NamedTuple's _make and _replace skip __new__; keep them validating.
        return cls(*iterable)

    @property
    def k(self) -> int:
        return len(self.mu)

    @property
    def start_row(self) -> int:
        """First active row, 1-based."""
        return self.offset + 1

    def is_exhausted(self) -> bool:
        return self.offset == self.k

    def counts(self, i: int) -> tuple[int, int, int]:
        """(grey, blue, red) for active row i (1-based)."""
        if not self.start_row <= i <= self.k:
            raise ValueError(f"row {i} is not active")
        return row_counts(self.mu[i - 1], self.nu[i - 1])

    def boundary_cells(self) -> set[Cell]:
        """Cells along the nu profile reachable by a hook from the start row.

        Row p > s spans columns nu_p+1 .. nu_{p-1}+1. The start row s spans
        nu_s+1 .. max(nu_s+1, a_s+b_s+c_s), covering its colored extent.
        """
        if self.is_exhausted():
            return set()
        s = self.start_row
        nu = self.nu
        a, b, c = self.counts(s)
        cells = {
            (s, q) for q in range(nu[s - 1] + 1, max(nu[s - 1] + 1, a + b + c) + 1)
        }
        for p in range(s + 1, self.k + 1):
            for q in range(nu[p - 1] + 1, nu[p - 2] + 1 + 1):
                cells.add((p, q))
        return cells

    def tunnel_cells(self) -> list[Cell]:
        """One cell (p, nu_p + 1) per active row, listed bottom-up."""
        return [(p, self.nu[p - 1] + 1) for p in range(self.start_row, self.k + 1)]


def pad_pair(
    mu: Iterable[int], nu: Optional[Iterable[int]]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Zero-pad the shorter of mu, nu on the right."""
    mu = tuple(mu)
    nu = tuple(nu) if nu is not None else ()
    k = max(len(mu), len(nu))
    return mu + (0,) * (k - len(mu)), nu + (0,) * (k - len(nu))


def build_diagram(
    mu: Iterable[int], nu: Optional[Iterable[int]] = None, offset: int = 0
) -> GbprDiagram:
    """Diagram for mu over nu, the shorter one zero-padded on the right."""
    return GbprDiagram(*pad_pair(mu, nu), offset)


def step(
    mu: tuple[int, ...], nu: tuple[int, ...], s: int, p: int
) -> tuple[int, int, tuple[int, ...]]:
    """(delta, sign, bumped nu) of the tunnel hook from row s to row p."""
    bumped = list(nu)
    bumped[s - 1] += max(1, abs(mu[s - 1] - nu[s - 1]))
    for r in range(s + 1, p + 1):
        bumped[r - 1] = nu[r - 2] + 1
    return mu[s - 1] - nu[p - 1] + p - s, -1 if (p - s) % 2 else 1, tuple(bumped)


class TunnelHook(NamedTuple):
    """The boundary cells in rows start_row..p for a tunnel cell (p, q).

    nu is the inner shape before the hook and bumped the one after it.
    eta[i-1] counts the covered cells in row i. delta is the H-subscript
    the hook contributes: spin of the start row plus the taxicab distance
    from the start row's tunnel cell to the terminal.
    """

    start_row: int
    terminal: Cell
    sign: int
    delta: int
    nu: tuple[int, ...]
    bumped: tuple[int, ...]

    @classmethod
    def at(
        cls, mu: tuple[int, ...], nu: tuple[int, ...], s: int, p: int
    ) -> "TunnelHook":
        """The hook from row s to row p of mu over nu, through `step`."""
        delta, sign, bumped = step(mu, nu, s, p)
        return cls(s, (p, nu[p - 1] + 1), sign, delta, nu, bumped)

    @property
    def eta(self) -> tuple[int, ...]:
        return tuple(b - n for b, n in zip(self.bumped, self.nu))

    @property
    def cells(self) -> frozenset[Cell]:
        return frozenset(
            (i, q)
            for i in range(self.start_row, self.terminal[0] + 1)
            for q in range(self.nu[i - 1] + 1, self.bumped[i - 1] + 1)
        )


def make_tunnel_hook(diagram: GbprDiagram, tau: Cell) -> TunnelHook:
    if tau not in diagram.tunnel_cells():
        raise ValueError(f"{tau} is not a tunnel cell of the diagram")
    return TunnelHook.at(diagram.mu, diagram.nu, diagram.start_row, tau[0])


def apply_hook(diagram: GbprDiagram, hook: TunnelHook) -> GbprDiagram:
    """Absorb the hook: bump nu by the per-row cover counts, advance offset.

    Rows are rebuilt from (mu, new nu); covered purple and red cells turn
    into the grey/red bookkeeping of the next diagram automatically.
    """
    if hook.start_row != diagram.start_row:
        raise ValueError("hook does not start at the diagram's active row")
    nu = tuple(n + e for n, e in zip(diagram.nu, hook.eta))
    return GbprDiagram(diagram.mu, nu, diagram.offset + 1)


def _row_width(diagram: GbprDiagram, i: int) -> int:
    if i <= diagram.offset:
        return diagram.nu[i - 1]
    a, b, c = diagram.counts(i)
    return max(a + b + c, a + 1)


def _row_letters(diagram: GbprDiagram, i: int, width: int) -> list[str]:
    out = ["."] * width
    nu_i = diagram.nu[i - 1]
    for col in range(nu_i):
        out[col] = "G"
    if i > diagram.offset:
        a, b, c = diagram.counts(i)
        for col in range(a, a + b):
            out[col] = "B"
        for col in range(a, a + c):
            out[col] = "R"
        if b == 0 and c == 0:
            out[a] = "P"
    return out


_OVERLAY_MARKS = "123456789abcdefghijklmnopqrstuvwxyz"


def render(
    diagram: GbprDiagram,
    overlay: Optional[list[TunnelHook]] = None,
    fmt: str = "ascii",
) -> str:
    """Draw the diagram bottom-up (row k printed first).

    Letters: G grey, B blue, R red, P explicit purple marker at column
    nu_i+1 in rows with no blue or red, '.' elsewhere. Overlay hooks are
    numbered and replace the letters on their cells; a legend gives each
    hook's terminal, sign, and delta.
    """
    overlay = overlay or []
    if len(overlay) > len(_OVERLAY_MARKS):
        raise ValueError(
            f"cannot overlay {len(overlay)} hooks: only "
            f"{len(_OVERLAY_MARKS)} distinct marks"
        )
    width = max(
        [_row_width(diagram, i) for i in range(1, diagram.k + 1)]
        + [q for h in overlay for _, q in h.cells]
        + [1]
    )
    grid = {i: _row_letters(diagram, i, width) for i in range(1, diagram.k + 1)}
    for mark, hook in zip(_OVERLAY_MARKS, overlay):
        for row, col in hook.cells:
            grid[row][col - 1] = mark
    lines = []
    if fmt == "ascii":
        for i in range(diagram.k, 0, -1):
            lines.append(f"row {i:>2}: " + "".join(grid[i]))
        for mark, hook in zip(_OVERLAY_MARKS, overlay):
            sign = "+" if hook.sign > 0 else "-"
            lines.append(
                f"hook {mark}: start row {hook.start_row}, "
                f"terminal {hook.terminal}, sign {sign}, delta {hook.delta}"
            )
        return "\n".join(lines)
    if fmt == "latex":
        lines.append("\\documentclass{standalone}")
        lines.append("\\begin{document}")
        lines.append("\\begin{tabular}{" + "c" * width + "}")
        for i in range(diagram.k, 0, -1):
            lines.append(" & ".join(grid[i]) + " \\\\")
        lines.append("\\end{tabular}")
        lines.append("\\end{document}")
        return "\n".join(lines)
    raise ValueError(f"unknown render format: {fmt}")
