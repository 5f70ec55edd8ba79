"""Self-check sweeps: every expansion path cross-checked against the
determinant oracles and the known small expansions.

Each check function returns a report dict {"check", "pass", "detail"} and
takes size parameters so the CLI can run quick sweeps while the test
suite runs the full ones.
"""

from __future__ import annotations

import math
import random
from itertools import permutations, product

from .compositions import (
    compositions_of,
    is_partition,
    lehmer_code,
    permutation_sign,
)
from .coverings import (
    covering_from_permutation,
    enumerate_coverings,
    permutation_from_covering,
)
from .diagram import GbprDiagram, apply_hook, build_diagram, make_tunnel_hook
from .expansions import (
    forgetful_to_h,
    immaculate_to_H,
    monomial_to_dual_immaculate,
    skew_immaculate_to_H,
    skew_prefix_decomposition,
    straighten_skew,
)
from .expr import BasisExpr
from .oracles import (
    commutative_jacobi_trudi,
    duality_transpose_check,
    jacobi_trudi_matrix,
    ndet_expand,
)
from .ribbon import (
    H_to_ribbon,
    im2rib_class,
    immaculate_to_ribbon_direct,
    ribbon_product,
    ribbon_to_H,
)

# Known expansions used as fixed regression targets.

KNOWN_H_EXPANSIONS = {
    (3, 1, 3): {
        (3, 1, 3): 1, (3, 2, 2): -1, (4, 3): -1,
        (4, 2, 1): 1, (5, 2): 1, (5, 1, 1): -1,
    },
    (3, 0, 3): {(3, 3): 1, (3, 1, 2): -1, (4, 1, 1): 1, (5, 1): -1},
    (3, -1, 3): {(3, 2): -1, (4, 1): 1},
    (-1, 3, 2): {(4,): 1, (2, 2): -1, (1, 2, 1): 1, (1, 3): -1},
}

KNOWN_SKEW_H = {
    ((2, 5, 3), (1, 3, 0)): {(1, 2, 3): 1, (3, 3): -1, (6,): 1, (4, 2): -1},
}

KNOWN_MONOMIAL_DI = {
    (2, 1, 2): {
        (1, 1, 1, 1, 1): 1, (1, 1, 1, 2): -1, (1, 2, 1, 1): 1,
        (1, 2, 2): -1, (2, 1, 1, 1): -1, (2, 1, 2): 1,
    },
}

KNOWN_RIBBON_DIRECT = {
    (1, 1, 2, 3): {
        (1, 1, 2, 3): 1, (1, 1, 3, 2): -1, (1, 2, 1, 3): -1,
        (1, 2, 3, 1): 1, (1, 3, 1, 2): 1, (1, 3, 2, 1): -1,
    },
}

KNOWN_PREFIX_DECOMPOSITION = {
    ((4, 3, 3, 2), 2): {
        (1, (4, 3), (0, 0)), (-1, (4, 4), (1, 0)), (1, (4, 5), (1, 1)),
        (-1, (5, 2), (0, 0)), (1, (5, 4), (2, 0)), (-1, (5, 5), (2, 1)),
        (1, (6, 2), (1, 0)), (-1, (6, 3), (2, 0)), (1, (6, 5), (2, 2)),
        (-1, (7, 2), (1, 1)), (1, (7, 3), (2, 1)), (-1, (7, 4), (2, 2)),
    },
}

KNOWN_STRAIGHTENING = {
    ((2, -5, 0, 1), (2, -3, 1, 6)): (1, (5, -2, 3, 4), (6, 6, 4, 2)),
}

KNOWN_FORGETFUL_SKEW = {
    ((4, 3, 3), (2, 2)): {(3, 2, 1): 1, (3, 3): -1, (6,): 1, (4, 2): -1},
}

# Fixed worked covering used by the replay check.
REPLAY_MU = (-3, 5, 5, 0, 5, -2, 4, 6)
REPLAY_NU = (2, 1, 0, 0, 0, 0, 0, 0)
REPLAY_CELLS = ((5, 1), (2, 4), (4, 2), (5, 2), (5, 5), (8, 1), (8, 2), (8, 3))
REPLAY_NU_STAGES = (
    (2, 1, 0, 0, 0, 0, 0, 0),
    (7, 3, 2, 1, 1, 0, 0, 0),
    (7, 5, 2, 1, 1, 0, 0, 0),
    (7, 5, 5, 3, 1, 0, 0, 0),
    (7, 5, 5, 6, 4, 0, 0, 0),
    (7, 5, 5, 6, 5, 0, 0, 0),
    (7, 5, 5, 6, 5, 2, 1, 1),
    (7, 5, 5, 6, 5, 2, 4, 2),
)
REPLAY_DELTA = (1, 2, 5, 0, 1, 0, 4, 4)

BIJECTION_SIGMA = (4, 7, 3, 1, 6, 2, 5)
BIJECTION_CELLS = ((4, 1), (7, 1), (5, 3), (4, 4), (7, 2), (6, 5), (7, 3))
BIJECTION_LEHMER = (3, 5, 2, 0, 2, 0, 0)


def _report(name: str, failures: list[str]) -> dict:
    return {
        "check": name,
        "pass": not failures,
        "detail": "ok" if not failures else "; ".join(failures[:5]),
    }


def check_golden() -> dict:
    failures = []
    for mu, terms in KNOWN_H_EXPANSIONS.items():
        if immaculate_to_H(mu) != BasisExpr("H", terms):
            failures.append(f"H-expansion mismatch at {mu}")
    for (mu, nu), terms in KNOWN_SKEW_H.items():
        if skew_immaculate_to_H(mu, nu) != BasisExpr("H", terms):
            failures.append(f"skew H-expansion mismatch at {mu}/{nu}")
    for alpha, terms in KNOWN_MONOMIAL_DI.items():
        if monomial_to_dual_immaculate(alpha) != BasisExpr("dI", terms):
            failures.append(f"monomial expansion mismatch at {alpha}")
    for alpha, terms in KNOWN_RIBBON_DIRECT.items():
        if immaculate_to_ribbon_direct(alpha, force=True) != BasisExpr("R", terms):
            failures.append(f"ribbon formula mismatch at {alpha}")
    for (mu, m), expected in KNOWN_PREFIX_DECOMPOSITION.items():
        got = {
            (sign, prefix, tail_nu)
            for sign, prefix, (_, tail_nu) in skew_prefix_decomposition(mu, m)
        }
        if got != expected:
            failures.append(f"prefix decomposition mismatch at {mu}, m={m}")
    for (mu, nu), expected in KNOWN_STRAIGHTENING.items():
        if straighten_skew(mu, nu) != expected:
            failures.append(f"straightening mismatch at {mu}/{nu}")
    return _report("golden", failures)


def check_replay() -> dict:
    failures = []
    diagram = build_diagram(REPLAY_MU, REPLAY_NU)
    deltas = []
    for r, tau in enumerate(REPLAY_CELLS):
        if diagram.nu != REPLAY_NU_STAGES[r]:
            failures.append(f"nu mismatch before hook {r + 1}: {diagram.nu}")
            break
        hook = make_tunnel_hook(diagram, tau)
        deltas.append(hook.delta)
        diagram = apply_hook(diagram, hook)
    if tuple(deltas) != REPLAY_DELTA:
        failures.append(f"delta sequence mismatch: {tuple(deltas)}")
    return _report("replay", failures)


def check_bijection(n_random_mu: int = 20, seed: int = 0) -> dict:
    failures = []
    mu7 = (4, 7, 3, 1, 6, 2, 5)
    covering = covering_from_permutation(mu7, BIJECTION_SIGMA)
    if covering.terminal_cells != BIJECTION_CELLS:
        failures.append(f"terminal cells mismatch: {covering.terminal_cells}")
    if lehmer_code(BIJECTION_SIGMA) != BIJECTION_LEHMER:
        failures.append("lehmer code mismatch")
    rng = random.Random(seed)
    shapes = [
        tuple(rng.randint(-3, 6) for _ in range(5)) for _ in range(n_random_mu)
    ]
    for sigma in permutations(range(1, 6)):
        for mu in shapes:
            back = permutation_from_covering(covering_from_permutation(mu, sigma))
            if back != sigma:
                failures.append(f"roundtrip failed for mu={mu}, sigma={sigma}")
    return _report("bijection", failures)


def check_oracle(box_max_k: int = 4, comp_n: int = 7, comp_max_k: int = 5) -> dict:
    failures = []
    for k in range(1, box_max_k + 1):
        for mu in product(range(-2, 5), repeat=k):
            if immaculate_to_H(mu) != ndet_expand(jacobi_trudi_matrix(mu)):
                failures.append(f"oracle mismatch at {mu}")
    for n in range(comp_n + 1):
        for mu in compositions_of(n):
            if len(mu) > comp_max_k:
                continue
            if immaculate_to_H(mu) != ndet_expand(jacobi_trudi_matrix(mu)):
                failures.append(f"oracle mismatch at {mu}")
    return _report("oracle", failures)


def check_skew_oracle(n_pairs: int = 200, max_rows: int = 5, seed: int = 1) -> dict:
    failures = []
    rng = random.Random(seed)
    for _ in range(n_pairs):
        k = rng.randint(1, max_rows)
        mu = tuple(rng.randint(-3, 5) for _ in range(k))
        nu = tuple(rng.randint(-3, 5) for _ in range(k))
        got = skew_immaculate_to_H(mu, nu)
        oracle = ndet_expand(jacobi_trudi_matrix(mu, nu))
        if got != oracle:
            failures.append(f"skew oracle mismatch at {mu}/{nu}")
    return _report("skew-oracle", failures)


def _random_partition(rng: random.Random, k: int, cap: int = 5) -> tuple[int, ...]:
    parts = sorted((rng.randint(0, cap) for _ in range(k)), reverse=True)
    return tuple(parts)


def check_census(n_cases: int = 100, max_rows: int = 7, seed: int = 2) -> dict:
    failures = []
    rng = random.Random(seed)
    for _ in range(n_cases):
        k = rng.randint(1, max_rows)
        mu = tuple(rng.randint(-3, 6) for _ in range(k))
        nu = _random_partition(rng, k)
        count = sum(1 for _ in enumerate_coverings(mu, nu))
        if count != math.factorial(k):
            failures.append(f"covering count {count} != {k}! for {mu}/{nu}")
    return _report("census", failures)


def check_signs(n_random_mu: int = 10, seed: int = 3) -> dict:
    failures = []
    rng = random.Random(seed)
    shapes = [
        tuple(rng.randint(-3, 6) for _ in range(5)) for _ in range(n_random_mu)
    ]
    for sigma in permutations(range(1, 6)):
        code = lehmer_code(sigma)
        for mu in shapes:
            g = covering_from_permutation(mu, sigma)
            if g.total_sign != permutation_sign(sigma):
                failures.append(f"sign mismatch for {mu}, {sigma}")
            delta_seq = g.delta_seq
            for r, hook in enumerate(g.hooks):
                covered_rows = sum(1 for e in hook.eta if e > 0)
                if covered_rows != code[r] + 1:
                    failures.append(f"row count mismatch for {mu}, {sigma}, hook {r + 1}")
                if delta_seq[r] != mu[r] - (r + 1) + sigma[r]:
                    failures.append(f"delta mismatch for {mu}, {sigma}, hook {r + 1}")
    return _report("signs", failures)


def check_ribbon(max_n: int = 8, max_rows: int = 5, rect_area: int = 12,
                 rect_max_rows: int = 8) -> dict:
    failures = []
    seen = set()
    for n in range(1, max_n + 1):
        for alpha in compositions_of(n):
            if len(alpha) > max_rows or im2rib_class(alpha) is None:
                continue
            seen.add(alpha)
    for m in range(1, rect_area + 1):
        for k in range(1, rect_max_rows + 1):
            if m * k <= rect_area:
                seen.add((m,) * k)
    for alpha in sorted(seen):
        direct = immaculate_to_ribbon_direct(alpha)
        reference = H_to_ribbon(ndet_expand(jacobi_trudi_matrix(alpha)))
        if direct != reference:
            failures.append(f"ribbon expansion mismatch at {alpha}")
    return _report("ribbon", failures)


def check_roundtrips(max_n: int = 7, n_pairs: int = 50, seed: int = 4) -> dict:
    failures = []
    for n in range(max_n + 1):
        for alpha in compositions_of(n):
            h_term = BasisExpr.term("H", alpha)
            r_term = BasisExpr.term("R", alpha)
            if ribbon_to_H(H_to_ribbon(h_term)) != h_term:
                failures.append(f"H -> R -> H roundtrip failed at {alpha}")
            if H_to_ribbon(ribbon_to_H(r_term)) != r_term:
                failures.append(f"R -> H -> R roundtrip failed at {alpha}")
    rng = random.Random(seed)
    for _ in range(n_pairs):
        alpha = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        beta = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        lhs = ribbon_to_H(ribbon_product(alpha, beta))
        rhs = ribbon_to_H(BasisExpr.term("R", alpha)) * ribbon_to_H(
            BasisExpr.term("R", beta)
        )
        if lhs != rhs:
            failures.append(f"ribbon product mismatch at {alpha}, {beta}")
    return _report("roundtrips", failures)


def check_duality(max_n: int = 6) -> dict:
    failures = []
    for n in range(1, max_n + 1):
        report = duality_transpose_check(n)
        if not report["pass"]:
            failures.append(f"duality failed at n={n}: {report['counterexample']}")
    return _report("duality", failures)


def check_forgetful(max_n: int = 6) -> dict:
    failures = []
    for n in range(1, max_n + 1):
        for lam in compositions_of(n):
            if not is_partition(lam):
                continue
            got = forgetful_to_h(immaculate_to_H(lam))
            if got != commutative_jacobi_trudi(lam):
                failures.append(f"forgetful bridge mismatch at {lam}")
    for (mu, nu), terms in KNOWN_FORGETFUL_SKEW.items():
        expected = BasisExpr("h_sym", terms)
        if forgetful_to_h(skew_immaculate_to_H(mu, nu)) != expected:
            failures.append(f"skew forgetful mismatch at {mu}/{nu}")
        if commutative_jacobi_trudi(mu, nu) != expected:
            failures.append(f"commutative determinant mismatch at {mu}/{nu}")
    return _report("forgetful", failures)


def _random_diagram(rng: random.Random) -> GbprDiagram:
    k = rng.randint(1, 6)
    offset = rng.randint(0, k - 1)
    mu = tuple(rng.randint(-4, 6) for _ in range(k))
    head = tuple(rng.randint(0, 5) for _ in range(offset))
    tail = _random_partition(rng, k - offset)
    return GbprDiagram(mu, head + tail, offset)


def _connected(cells: frozenset) -> bool:
    if not cells:
        return False
    todo = [next(iter(cells))]
    seen = {todo[0]}
    while todo:
        p, q = todo.pop()
        for nbr in ((p + 1, q), (p - 1, q), (p, q + 1), (p, q - 1)):
            if nbr in cells and nbr not in seen:
                seen.add(nbr)
                todo.append(nbr)
    return seen == cells


def check_diagram_invariants(n_cases: int = 1000, seed: int = 5) -> dict:
    failures = []
    rng = random.Random(seed)
    for _ in range(n_cases):
        d = _random_diagram(rng)
        boundary = d.boundary_cells()
        for (p, q) in boundary:
            if (p + 1, q + 1) in boundary:
                failures.append(f"2x2 block in boundary of {d}")
                break
        deltas = set()
        for tau in d.tunnel_cells():
            hook = make_tunnel_hook(d, tau)
            reference = {c for c in boundary if c[0] <= tau[0]}
            rows = [row for row, _ in reference]
            if hook.cells != reference or any(
                e != rows.count(i) for i, e in enumerate(hook.eta, start=1)
            ):
                failures.append(f"hook {tau} differs from the boundary cells of {d}")
            if not _connected(hook.cells):
                failures.append(f"disconnected hook {tau} on {d}")
            if hook.delta in deltas:
                failures.append(f"delta collision at {tau} on {d}")
            deltas.add(hook.delta)
            after = apply_hook(d, hook)
            tail = after.nu[after.offset:]
            if any(tail[i] < tail[i + 1] for i in range(len(tail) - 1)):
                failures.append(f"tail not weakly decreasing after {tau} on {d}")
    return _report("diagram-invariants", failures)


CHECKS = {
    "golden": check_golden,
    "replay": check_replay,
    "bijection": check_bijection,
    "oracle": check_oracle,
    "skew-oracle": check_skew_oracle,
    "census": check_census,
    "signs": check_signs,
    "ribbon": check_ribbon,
    "roundtrips": check_roundtrips,
    "duality": check_duality,
    "forgetful": check_forgetful,
    "diagram-invariants": check_diagram_invariants,
}


def run_suite(names=None, **overrides) -> list[dict]:
    """Run the named checks (all by default) and return their reports.

    Keyword overrides are matched against each check's parameters by name
    where applicable; unknown names raise.
    """
    if names is None:
        names = list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; known checks: "
                         f"{', '.join(CHECKS)}")
    reports = []
    for name in names:
        fn = CHECKS[name]
        kwargs = {
            key: value
            for key, value in overrides.items()
            if key in fn.__code__.co_varnames[: fn.__code__.co_argcount]
        }
        reports.append(fn(**kwargs))
    return reports
