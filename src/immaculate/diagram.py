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

A tunnel hook from the start row s to the tunnel cell (p, nu_p + 1) has
a closed form. Because a_s = nu_s and a_s + b_s - c_s = mu_s, it needs no
colour counts or scan:

  delta     = mu_s - nu_p + (p - s)        (the H subscript it contributes)
  sign      = (-1)^(p - s)
  bumped_s  = nu_s + max(1, |mu_s - nu_s|)
  bumped_r  = nu_{r-1} + 1                 for s < r <= p

and every other row of nu is unchanged. Only rows s..p enter, so the rule
is written once, in `tail_hook`, on the active tail nu_s, nu_{s+1}, ...:
it gives delta, sign and the bumped rows above s. `step` builds the
`TunnelHook` record from it by adding the terminal cell and bumped_s;
`coverings._tail_hooks`, the memo behind `_tail_moves`, the one move
table of the fold and the walk, and the covering replay call it and
build no record. `_tunnel_j` is the one check that a cell is the tunnel
cell of its row, shared by `make_tunnel_hook` and the replay.
`boundary_cells` keeps the paper's cell-by-cell definition as the
reference the rule is checked against.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .compositions import brief, int_parts

Cell = tuple[int, int]


def row_counts(mu_i: int, nu_i: int) -> tuple[int, int, int]:
    """(grey, blue, red) counts for a row with outer length mu_i over nu_i.

    One closed form for the three cases of the module's colour table: blue
    is what mu_i exceeds nu_i by, red what nu_i exceeds mu_i by.
    """
    if nu_i < 0:
        raise ValueError(f"nu entry must be nonnegative, got {nu_i}")
    return nu_i, max(mu_i - nu_i, 0), max(nu_i - mu_i, 0)


class _Diagram(NamedTuple):
    mu: tuple[int, ...]
    nu: tuple[int, ...]
    offset: int = 0


class GbprDiagram(_Diagram):
    """mu over nu with the bottom offset rows absorbed; validated on construction."""

    __slots__ = ()

    def __new__(cls, mu: Iterable[int], nu: Iterable[int], offset: int = 0):
        return cls._of_ints(int_parts(mu, "mu"), int_parts(nu, "nu"),
                            *int_parts((offset,), "offset"))

    @classmethod
    def _of_ints(cls, mu: tuple[int, ...], nu: tuple[int, ...], offset: int = 0):
        """mu, nu and offset already read by `int_parts`: checks the rest."""
        if len(mu) != len(nu):
            raise ValueError("mu and nu must have equal length")
        if not 0 <= offset <= len(mu):
            raise ValueError(f"offset {offset} out of range")
        if any(n < 0 for n in nu):
            raise ValueError(f"nu must be nonnegative: {brief(nu)}")
        tail = nu[offset:]
        if any(tail[i] < tail[i + 1] for i in range(len(tail) - 1)):
            raise ValueError(
                f"active rows of nu must be weakly decreasing: {brief(tail)}"
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


def pad_pair(mu: Iterable[int], nu: Optional[Iterable[int]]
             ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """mu and nu read by `int_parts`, the shorter zero-padded on the right."""
    mu = int_parts(mu, "mu")
    nu = int_parts(nu, "nu") if nu is not None else ()
    k = max(len(mu), len(nu))
    return mu + (0,) * (k - len(mu)), nu + (0,) * (k - len(nu))


def build_diagram(mu: Iterable[int],
                  nu: Optional[Iterable[int]] = None) -> GbprDiagram:
    """Diagram for mu over nu, the shorter one zero-padded on the right."""
    return GbprDiagram._of_ints(*pad_pair(mu, nu))


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


def tail_hook(m: int, tail: tuple[int, ...],
              j: int) -> tuple[int, int, tuple[int, ...]]:
    """(delta, sign, rows left) of the hook from a tail's first row to its row j.

    tail is the active inner shape from the start row up and m the start
    row's outer length. The rows left are those above the start row once
    the hook is absorbed: rows 2..j of the tail take the length of the row
    below plus one, and the rows above j are unchanged.
    """
    return (m - tail[j - 1] + j - 1, 1 if j % 2 else -1,
            tuple([t + 1 for t in tail[:j - 1]]) + tail[j:])


def step(mu: tuple[int, ...], nu: tuple[int, ...], s: int, p: int) -> TunnelHook:
    """The tunnel hook from row s to row p of mu over nu."""
    delta, sign, above = tail_hook(mu[s - 1], nu[s - 1:], p - s + 1)
    # `abs(d) or 1` is max(1, |d|) for an int d, with one builtin call fewer
    bumped = nu[:s - 1] + (nu[s - 1] + (abs(mu[s - 1] - nu[s - 1]) or 1),) + above
    # tuple.__new__ skips the generated __new__; a hook checks nothing
    return tuple.__new__(TunnelHook, (s, (p, nu[p - 1] + 1), sign, delta, nu, bumped))


def _tunnel_j(tail: tuple[int, ...], s: int, tau: Cell) -> tuple[Cell, int]:
    """(tau, j) when tau is the tunnel cell of row j of the tail from row s.

    The one cell check of a hook's terminal, read by `make_tunnel_hook`
    and the covering replay alike. tau is a pair of ints, as a tuple or a
    list, and comes back as a tuple; anything else, or a cell that is not
    the tunnel cell of its row, raises ValueError.
    """
    if isinstance(tau, (tuple, list)):
        tau = tuple(tau)
        # type(...) is int refuses bool and float, which == would let in
        if (len(tau) == 2 and type(tau[0]) is int and type(tau[1]) is int
                and 1 <= (j := tau[0] - s + 1) <= len(tail)
                and tau[1] == tail[j - 1] + 1):
            return tau, j
    raise ValueError(f"{tau} is not a tunnel cell of the diagram")


def _hook_to_cell(mu: tuple[int, ...], nu: tuple[int, ...], s: int,
                  tau: Cell) -> TunnelHook:
    """The hook from row s that `step` builds for tau, once `_tunnel_j`
    has checked that tau is a tunnel cell."""
    _, j = _tunnel_j(nu[s - 1:], s, tau)
    return step(mu, nu, s, s + j - 1)


def make_tunnel_hook(diagram: GbprDiagram, tau: Cell) -> TunnelHook:
    """The hook from the diagram's start row to its tunnel cell tau."""
    return _hook_to_cell(diagram.mu, diagram.nu, diagram.start_row, tau)


def apply_hook(diagram: GbprDiagram, hook: TunnelHook) -> GbprDiagram:
    """Absorb the hook: its bumped inner shape becomes nu, offset advances.

    The hook must be the one `step` builds on this diagram for its
    terminal row p, with p an active row; any other hook, such as one
    built on another mu or nu, raises ValueError. Rows are rebuilt from
    (mu, bumped); covered purple and red cells turn into the grey/red
    bookkeeping of the next diagram automatically.
    """
    s = diagram.start_row
    p = hook.terminal[0]
    if not s <= p <= diagram.k or hook != (built := step(diagram.mu, diagram.nu, s, p)):
        raise ValueError(
            f"hook to terminal {hook.terminal} was not built on the diagram "
            f"{diagram.mu} over {diagram.nu} at row {s}"
        )
    # step's rows are ints, where those of a hook equal to it may be 2.0
    return GbprDiagram._of_ints(diagram.mu, built.bumped, diagram.offset + 1)


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
_MAX_RENDER_WIDTH = 1000


def render(
    diagram: GbprDiagram,
    overlay: Optional[list[TunnelHook]] = None,
    fmt: str = "ascii",
) -> str:
    """Draw the diagram bottom-up (row k printed first).

    Letters: G grey, B blue, R red, P explicit purple marker at column
    nu_i+1 in rows with no blue or red, '.' elsewhere. Overlay hooks are
    numbered and replace the letters on their cells; a legend gives each
    hook's terminal, sign, and delta. More than 35 hooks, or a drawing
    wider than 1000 columns, raises before anything is drawn.
    """
    overlay = overlay or []
    if len(overlay) > len(_OVERLAY_MARKS):
        raise ValueError(
            f"cannot overlay {len(overlay)} hooks: only "
            f"{len(_OVERLAY_MARKS)} distinct marks"
        )
    # A hook's cells in row i end at column bumped_i, so the width is known
    # before any row or cell set is built.
    width = max(
        [_row_width(diagram, i) for i in range(1, diagram.k + 1)]
        + [max(h.bumped[h.start_row - 1:h.terminal[0]]) for h in overlay]
        + [1]
    )
    if width > _MAX_RENDER_WIDTH:
        raise ValueError(
            f"cannot render a diagram {width} cells wide: the limit is "
            f"{_MAX_RENDER_WIDTH}"
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
