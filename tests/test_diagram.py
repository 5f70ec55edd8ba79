import random
import re
import sys

import pytest

from immaculate.coverings import (
    covering_from_permutation,
    covering_from_terminal_cells,
    enumerate_coverings,
)
from immaculate.diagram import (
    GbprDiagram,
    apply_hook,
    build_diagram,
    make_tunnel_hook,
    render,
    row_counts,
    step,
    tail_hook,
)
from immaculate.expansions import _fold_coverings, skew_prefix_decomposition

# the running seven-row skew example, offset 2
MU7 = (5, 4, -4, 3, -2, 5, 3)
NU7 = (5, 4, 2, 2, 2, 1, 0)


def test_row_counts_cases():
    assert row_counts(3, 0) == (0, 3, 0)   # positive, nu below mu
    assert row_counts(1, 2) == (2, 0, 1)   # positive, nu above mu
    assert row_counts(-3, 2) == (2, 0, 5)  # nonpositive mu
    assert row_counts(0, 0) == (0, 0, 0)
    # the colour table of the diagram module, case by case
    for mu_i in range(-6, 7):
        for nu_i in range(8):
            if mu_i > 0 and nu_i <= mu_i:
                expected = (nu_i, mu_i - nu_i, 0)
            elif mu_i > 0:
                expected = (nu_i, 0, nu_i - mu_i)
            else:
                expected = (nu_i, 0, abs(mu_i) + nu_i)
            assert row_counts(mu_i, nu_i) == expected, (mu_i, nu_i)
            grey, blue, red = expected
            assert grey + blue - red == mu_i and not (blue and red)


@pytest.mark.parametrize("mu_i", [-2, 0, 3])
def test_row_counts_refuses_a_negative_nu_entry(mu_i):
    with pytest.raises(ValueError,
                       match=r"^nu entry must be nonnegative, got -1$"):
        row_counts(mu_i, -1)


def test_build_diagram_mixed_rows():
    d = build_diagram((-3, 1, -1, 0, 3, -2), (2, 2, 1, 0, 0, 0))
    greys, blues, reds = zip(*(d.counts(i) for i in range(1, 7)))
    assert greys == (2, 2, 1, 0, 0, 0)
    assert blues == (0, 0, 0, 0, 3, 0)
    assert reds == (5, 1, 2, 0, 0, 2)


def test_build_diagram_all_blue():
    d = build_diagram((3, 1, 3))
    assert [d.counts(i) for i in (1, 2, 3)] == [(0, 3, 0), (0, 1, 0), (0, 3, 0)]


def test_build_diagram_with_offset():
    d = GbprDiagram(MU7, NU7, offset=2)
    blues = tuple(d.counts(i)[1] for i in range(3, 8))
    reds = tuple(d.counts(i)[2] for i in range(3, 8))
    assert blues == (0, 1, 0, 4, 3)
    assert reds == (6, 0, 4, 0, 0)


def test_row_invariant():
    d = GbprDiagram(MU7, NU7, offset=2)
    for i in range(3, 8):
        a, b, c = d.counts(i)
        assert a + b - c == MU7[i - 1]
        assert b * c == 0


def test_build_diagram_pads_short_mu():
    d = build_diagram((2, 1), (1, 0, 0))
    assert d.mu == (2, 1, 0) and d.nu == (1, 0, 0)


def test_validation_rejects_rising_tail():
    with pytest.raises(ValueError):
        build_diagram((2, 2), (1, 2))


def test_records_are_immutable_values():
    d = build_diagram((3, 1, 3))
    g = covering_from_permutation((3, 1, 3), (2, 1, 3))
    for record, field in ((d, "nu"), (g.hooks[0], "delta"), (g, "total_sign")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = 1
    assert repr(d) == "GbprDiagram(mu=(3, 1, 3), nu=(0, 0, 0), offset=0)"
    assert repr(g.hooks[0]) == (
        "TunnelHook(start_row=1, terminal=(2, 1), sign=-1, delta=4, "
        "nu=(0, 0, 0), bumped=(3, 1, 0))"
    )
    assert repr(g) == (
        "TunnelHookCovering(mu=(3, 1, 3), nu0=(0, 0, 0), "
        "terminal_cells=((2, 1), (2, 2), (3, 1)), delta_seq=(4, 0, 3), "
        "total_sign=-1)"
    )
    with pytest.raises(ValueError):
        GbprDiagram((2, 2), (1, 2))
    with pytest.raises(ValueError):
        d._replace(nu=(0, 1, 0))


def test_validation_rejects_negative_nu():
    with pytest.raises(ValueError):
        build_diagram((2, 2), (-1, 0))


def test_boundary_cells_offset_example():
    d = GbprDiagram(MU7, NU7, offset=2)
    expected = {(3, q) for q in range(3, 9)}
    expected |= {(4, 3), (5, 3), (6, 2), (6, 3), (7, 1), (7, 2)}
    assert d.boundary_cells() == expected


def test_boundary_cells_single_row():
    for m in (1, 2, 5):
        d = build_diagram((m,))
        assert d.boundary_cells() == {(1, q) for q in range(1, max(1, m) + 1)}


def test_boundary_no_2x2():
    d = GbprDiagram(MU7, NU7, offset=2)
    cells = d.boundary_cells()
    for p, q in cells:
        assert (p + 1, q + 1) not in cells


def test_tunnel_cells_offset_example():
    d = GbprDiagram(MU7, NU7, offset=2)
    assert d.tunnel_cells() == [(3, 3), (4, 3), (5, 3), (6, 2), (7, 1)]


def test_tunnel_cells_straight():
    d = build_diagram((2, 2, 2))
    assert d.tunnel_cells() == [(1, 1), (2, 1), (3, 1)]


def test_tunnel_cells_subset_of_boundary():
    d = GbprDiagram(MU7, NU7, offset=2)
    assert set(d.tunnel_cells()) <= d.boundary_cells()


def test_hook_delta_examples():
    d = GbprDiagram(MU7, NU7, offset=2)
    expected = {(3, 3): -6, (4, 3): -5, (5, 3): -4, (6, 2): -2, (7, 1): 0}
    for tau, delta in expected.items():
        hook = make_tunnel_hook(d, tau)
        assert hook.delta == delta
        assert hook.sign == (-1) ** (tau[0] - 3)


def random_diagrams(seed, count):
    """Seeded diagrams with k <= 6 rows and at least one active row."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(1, 6)
        offset = rng.randint(0, k - 1)
        mu = tuple(rng.randint(-4, 6) for _ in range(k))
        head = tuple(rng.randint(0, 5) for _ in range(offset))
        tail = sorted((rng.randint(0, 5) for _ in range(k - offset)), reverse=True)
        yield GbprDiagram(mu, head + tuple(tail), offset)


def test_step_matches_boundary_cells():
    # the closed form against the paper's spin-plus-taxicab delta and the
    # boundary cells the hook covers, on random diagrams with an offset
    for d in random_diagrams(11, 300):
        s = d.start_row
        _, b, c = d.counts(s)
        boundary = d.boundary_cells()
        for p, q in d.tunnel_cells():
            hook = step(d.mu, d.nu, s, p)
            assert hook[:2] == (s, (p, q)) and hook.nu == d.nu
            assert hook.delta == (b - c) + (d.nu[s - 1] + 1 - q) + (p - s)
            assert hook.sign == (-1) ** (p - s)
            covered = [row for row, _ in boundary if row <= p]
            assert hook.bumped == tuple(n + covered.count(i) for i, n in enumerate(d.nu, 1))


def test_step_and_the_fold_read_one_rule():
    # the fold reads the closed form on the active tail alone; step's
    # record must hold the same delta, sign and rows above the start row
    for d in random_diagrams(12, 300):
        s = d.start_row
        for p in range(s, d.k + 1):
            hook = step(d.mu, d.nu, s, p)
            assert tail_hook(d.mu[s - 1], d.nu[s - 1:], p - s + 1) == (
                hook.delta, hook.sign, hook.bumped[s:]), (d, p)


def test_the_start_row_length_only_moves_delta():
    # the move table keeps each tail's hooks from a start row of length 0
    # and adds m to delta: sign and rows left must not depend on m
    rng = random.Random(14)
    for _ in range(500):
        tail = tuple(sorted((rng.randint(0, 9) for _ in range(rng.randint(1, 10))),
                            reverse=True))
        m, j = rng.randint(-12, 12), rng.randint(1, len(tail))
        delta, sign, after = tail_hook(0, tail, j)
        assert tail_hook(m, tail, j) == (m + delta, sign, after), (m, tail, j)


@pytest.fixture
def step_calls(monkeypatch):
    """The arguments of every `step` call, under each name the package
    binds it to."""
    calls = []

    def counted(*args):
        calls.append(args)
        return step(*args)

    bound = []
    for name, module in list(sys.modules.items()):
        if name == "immaculate" or name.startswith("immaculate."):
            for attr, value in list(vars(module).items()):
                if value is step:
                    monkeypatch.setattr(module, attr, counted)
                    bound.append(f"{name}.{attr}")
    assert "immaculate.diagram.step" in bound
    return calls


def test_fold_builds_no_hook_record(step_calls):
    assert len(_fold_coverings((2, 5, 3, 1, 4, 2, 5, 3, 1), ())) == 11760
    assert step_calls == []
    # the wrapper does see the hooks that are built as records
    make_tunnel_hook(build_diagram((3, 1, 3)), (2, 1))
    assert len(step_calls) == 1


def test_walk_builds_no_hook_record(step_calls):
    # the covering walk reads the fold's move table with no floor, so
    # listing the coverings and cutting the walk at m rows build no record
    mu = (2, 5, 3, 1, 4, 2, 5)
    assert sum(1 for _ in enumerate_coverings(mu, (3, 1, 1))) == 5040
    assert len(skew_prefix_decomposition(mu, 4)) == 840
    assert step_calls == []


def test_reading_hooks_builds_one_record_per_row(step_calls):
    g = list(enumerate_coverings((3, 1, 3, 0, 2), (2, 1)))[57]
    assert step_calls == []
    hooks = g.hooks
    assert len(step_calls) == len(hooks) == 5
    assert tuple(h.terminal for h in hooks) == g.terminal_cells
    assert tuple(h.delta for h in hooks) == g.delta_seq


def test_replay_builds_no_hook_record(step_calls):
    # a covering is replayed from its cells on the active tail by
    # `tail_hook`; only reading its hooks builds the k records
    g = covering_from_terminal_cells(
        (-3, 5, 5, 0, 5, -2, 4, 6), (2, 1),
        ((5, 1), (2, 4), (4, 2), (5, 2), (5, 5), (8, 1), (8, 2), (8, 3)))
    h = covering_from_permutation((4, 7, 3, 1, 6, 2, 5), (4, 7, 3, 1, 6, 2, 5))
    assert step_calls == []
    assert len(g.hooks) == 8 and len(step_calls) == 8
    assert len(h.hooks) == 7 and len(step_calls) == 15


def test_hook_single_row():
    for m in (1, 4):
        hook = make_tunnel_hook(build_diagram((m,)), (1, 1))
        assert hook.delta == m and hook.sign == 1


def test_hook_rejects_non_tunnel_cell():
    d = build_diagram((3, 1, 3))
    with pytest.raises(ValueError):
        make_tunnel_hook(d, (1, 2))


@pytest.mark.parametrize("tau", [
    5, None, ("a", 1), (1.0, 1), (1, 1.0), (1, True), (), (1,), (1, 1, 0),
    (0, 1), (4, 1), (2, 2),
], ids=["int", "none", "text-row", "float-row", "float-column", "bool-column",
        "empty", "one-entry", "three-entries", "below-start-row", "above-k",
        "wrong-column"])
def test_hook_and_replay_refuse_a_bad_cell_alike(tau):
    # both read the one cell check: same error type, same message
    message = f"^{re.escape(str(tau))} is not a tunnel cell of the diagram$"
    with pytest.raises(ValueError, match=message):
        make_tunnel_hook(build_diagram((3, 1, 3)), tau)
    with pytest.raises(ValueError, match=message):
        covering_from_terminal_cells((3, 1, 3), None, [tau, (2, 1), (3, 1)])


def test_a_list_cell_replays_and_builds_its_hook():
    cells = [(1, 1), (2, 1), (3, 1)]
    covering = covering_from_terminal_cells((3, 1, 3), None, cells)
    assert covering_from_terminal_cells(
        (3, 1, 3), None, [list(c) for c in cells]) == covering
    assert make_tunnel_hook(build_diagram((3, 1, 3)), [1, 1]) == covering.hooks[0]
    with pytest.raises(ValueError, match=r"^\(1, 2\) is not a tunnel cell"):
        covering_from_terminal_cells((3, 1, 3), None, [[1, 2], [2, 1], [3, 1]])


def test_delta_injective_per_diagram():
    d = GbprDiagram(MU7, NU7, offset=2)
    deltas = [make_tunnel_hook(d, tau).delta for tau in d.tunnel_cells()]
    assert len(set(deltas)) == len(deltas)


def test_apply_hook_advances():
    d = build_diagram((-3, 5, 5, 0, 5, -2, 4, 6), (2, 1))
    d = apply_hook(d, make_tunnel_hook(d, (5, 1)))
    assert d.nu == (7, 3, 2, 1, 1, 0, 0, 0)
    assert d.offset == 1
    d = apply_hook(d, make_tunnel_hook(d, (2, 4)))
    assert d.nu == (7, 5, 2, 1, 1, 0, 0, 0)


def test_apply_hook_exhausts_single_row():
    d = build_diagram((4,))
    d = apply_hook(d, make_tunnel_hook(d, (1, 1)))
    assert d.is_exhausted()
    assert d.tunnel_cells() == []


def test_apply_hook_takes_the_bumped_inner_shape():
    for d in random_diagrams(12, 200):
        for tau in d.tunnel_cells():
            hook = make_tunnel_hook(d, tau)
            assert apply_hook(d, hook) == GbprDiagram(d.mu, hook.bumped, d.offset + 1)


def test_apply_hook_refuses_a_hook_built_on_another_diagram():
    hook = make_tunnel_hook(build_diagram((3, 1, 2)), (3, 1))
    assert apply_hook(build_diagram((3, 1, 2)), hook).nu == (3, 1, 1)
    # another nu: adding eta would give (5, 2, 1)
    with pytest.raises(ValueError, match=r"not built on the diagram "
                                         r"\(3, 1, 2\) over \(2, 1, 0\)"):
        apply_hook(build_diagram((3, 1, 2), (2, 1, 0)), hook)
    # another mu: adding eta would give (3, 1, 1), not its own (5, 1, 1)
    assert make_tunnel_hook(build_diagram((5, 5, 5)), (3, 1)).bumped == (5, 1, 1)
    with pytest.raises(ValueError, match="not built on the diagram"):
        apply_hook(build_diagram((5, 5, 5)), hook)


def test_apply_hook_refuses_a_terminal_row_out_of_range():
    d = build_diagram((3, 1, 2))
    first = make_tunnel_hook(d, (1, 1))
    after = apply_hook(d, first)
    # terminal row 1 lies below the start row 2
    with pytest.raises(ValueError, match="not built on the diagram"):
        apply_hook(after, first)
    # terminal row 4 lies above the top row 3
    taller = make_tunnel_hook(build_diagram((3, 1, 2, 0)), (4, 1))
    with pytest.raises(ValueError, match="not built on the diagram"):
        apply_hook(d, taller)
    row = build_diagram((4,))
    exhausted = apply_hook(row, make_tunnel_hook(row, (1, 1)))
    with pytest.raises(ValueError, match="not built on the diagram"):
        apply_hook(exhausted, first)


def test_render_ascii_blue_rows():
    text = render(build_diagram((3, 1, 3)))
    lines = text.splitlines()
    assert lines[0].endswith("BBB")
    assert lines[1].endswith("B..")
    assert lines[2].endswith("BBB")


def test_render_ascii_colors():
    text = render(build_diagram((-3, 1, -1, 0, 3, -2), (2, 2, 1, 0, 0, 0)))
    rows = {ln.split(":")[0].strip(): ln.split(": ")[1] for ln in text.splitlines()}
    assert rows["row  1"].startswith("GGRRRRR")
    assert rows["row  5"].startswith("BBB")
    assert rows["row  4"].startswith("P")


def test_render_deterministic():
    d = build_diagram((3, 1, 3))
    assert render(d) == render(d)


def test_render_width_bound():
    # 1000 columns render; one more, from the diagram or from an overlay
    # hook, raises
    assert len(render(build_diagram((1000,))).splitlines()[0]) == 1008
    with pytest.raises(ValueError, match="1001 cells wide"):
        render(build_diagram((1001,)))
    # the second hook runs past the 999 columns of the diagram itself
    for mu, width in (((1, -998), 1000), ((1, -999), 1001)):
        hooks = list(covering_from_permutation(mu, (2, 1)).hooks)
        assert max(q for h in hooks for _, q in h.cells) == width
        if width == 1000:
            assert render(build_diagram(mu), hooks).splitlines()[0].endswith("2")
        else:
            with pytest.raises(ValueError, match="1001 cells wide"):
                render(build_diagram(mu), hooks)


def test_render_too_many_hooks():
    # 35 overlay marks: the 35th hook is drawn, a 36th is an error
    for k in (35, 36):
        d = start = build_diagram((1,) * k)
        hooks = []
        for row in range(1, k + 1):
            hooks.append(make_tunnel_hook(d, (row, 1)))
            d = apply_hook(d, hooks[-1])
        if k == 35:
            assert "hook z:" in render(start, hooks)
        else:
            with pytest.raises(ValueError, match="only 35 distinct marks"):
                render(start, hooks)


def test_render_latex_standalone():
    text = render(build_diagram((2, 1)), fmt="latex")
    assert text.startswith("\\documentclass{standalone}")
    assert "\\begin{tabular}" in text and text.endswith("\\end{document}")
