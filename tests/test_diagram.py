import random

import pytest

from immaculate.coverings import covering_from_permutation
from immaculate.diagram import (
    GbprDiagram,
    apply_hook,
    build_diagram,
    make_tunnel_hook,
    render,
    row_counts,
    step,
)

# the running seven-row skew example, offset 2
MU7 = (5, 4, -4, 3, -2, 5, 3)
NU7 = (5, 4, 2, 2, 2, 1, 0)


def test_row_counts_cases():
    assert row_counts(3, 0) == (0, 3, 0)   # positive, nu below mu
    assert row_counts(1, 2) == (2, 0, 1)   # positive, nu above mu
    assert row_counts(-3, 2) == (2, 0, 5)  # nonpositive mu
    assert row_counts(0, 0) == (0, 0, 0)


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
    assert repr(g).startswith("TunnelHookCovering(mu=(3, 1, 3), nu0=(0, 0, 0), hooks=(")
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


def test_step_matches_boundary_cells():
    # the closed form against the paper's spin-plus-taxicab delta and the
    # boundary cells the hook covers, on random diagrams with an offset
    rng = random.Random(11)
    for _ in range(300):
        k = rng.randint(1, 6)
        offset = rng.randint(0, k - 1)
        mu = tuple(rng.randint(-4, 6) for _ in range(k))
        head = tuple(rng.randint(0, 5) for _ in range(offset))
        tail = sorted((rng.randint(0, 5) for _ in range(k - offset)), reverse=True)
        d = GbprDiagram(mu, head + tuple(tail), offset)
        s = d.start_row
        _, b, c = d.counts(s)
        boundary = d.boundary_cells()
        for p, q in d.tunnel_cells():
            delta, sign, bumped = step(d.mu, d.nu, s, p)
            assert delta == (b - c) + (d.nu[s - 1] + 1 - q) + (p - s)
            assert sign == (-1) ** (p - s)
            covered = [row for row, _ in boundary if row <= p]
            assert bumped == tuple(n + covered.count(i) for i, n in enumerate(d.nu, 1))


def test_hook_single_row():
    for m in (1, 4):
        hook = make_tunnel_hook(build_diagram((m,)), (1, 1))
        assert hook.delta == m and hook.sign == 1


def test_hook_rejects_non_tunnel_cell():
    d = build_diagram((3, 1, 3))
    with pytest.raises(ValueError):
        make_tunnel_hook(d, (1, 2))


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


def test_render_latex_standalone():
    text = render(build_diagram((2, 1)), fmt="latex")
    assert text.startswith("\\documentclass{standalone}")
    assert "\\begin{tabular}" in text and text.endswith("\\end{document}")
