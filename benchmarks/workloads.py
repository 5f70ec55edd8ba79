"""The four workloads, the probe items of the traced run, and the checks.

All inputs are drawn here from the benchmark's seed; the package only
ever sees the generated shapes, compositions, check names and command
lines. Every op's output is compared, outside the timed region, with an
expected output: expansions come from the determinant oracle, a check
must report ``pass``, and CLI output must be the library result printed
byte for byte.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import subprocess
import sys
from contextlib import redirect_stdout
from math import comb, factorial

from harness import ROOT, child_env
from tracing import CHECK_NAMES, Api, Tracer

# -- inputs --------------------------------------------------------------


def is_partition(seq) -> bool:
    return min(seq, default=0) >= 0 and all(a >= b for a, b in zip(seq, seq[1:]))


def nonneg_monomials(mu, nu) -> int:
    """Permutations whose Jacobi-Trudi monomial has no negative subscript.

    A subset DP over the matrix (mu_i - i) - (nu_j - j), so it costs 2^k
    steps rather than k!.
    """
    k = len(mu)
    ok = [[(mu[i] - i) - (nu[j] - j) >= 0 for j in range(k)] for i in range(k)]
    ways = {0: 1}
    for i in range(k):
        nxt: dict[int, int] = {}
        for used, n in ways.items():
            for j in range(k):
                if ok[i][j] and not used >> j & 1:
                    nxt[used | 1 << j] = nxt.get(used | 1 << j, 0) + n
        ways = nxt
    return sum(ways.values())


def h_term_count(mu, nu) -> int:
    """Number of terms of the H-expansion of mu/nu.

    The Jacobi-Trudi determinant expanded row by row with a subset DP
    (2^k column sets rather than k! permutations), used only to choose
    inputs whose output size is known in advance.
    """
    k = len(mu)
    cols = [n - j for j, n in enumerate(nu)]
    states: dict[int, dict] = {0: {(): 1}}
    for i in range(k):
        row = mu[i] - i
        nxt: dict[int, dict] = {}
        for used, prefixes in states.items():
            for j in range(k):
                a = row - cols[j]
                if used >> j & 1 or a < 0:
                    continue
                flip = bin(used >> j).count("1") % 2
                target = nxt.setdefault(used | 1 << j, {})
                for prefix, c in prefixes.items():
                    key = prefix + (a,) if a else prefix
                    target[key] = target.get(key, 0) + (-c if flip else c)
        states = {m: {p: c for p, c in d.items() if c} for m, d in nxt.items()}
    return len(states.get((1 << k) - 1, {}))


def compositions(n: int):
    """All compositions of n, lexicographic; the checks do not rely on the package's."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def random_composition(rng: random.Random, n: int) -> tuple[int, ...]:
    parts, run = [], 1
    for _ in range(n - 1):
        if rng.random() < 0.5:
            parts.append(run)
            run = 0
        run += 1
    return tuple(parts + [run])


def ribbon_class_composition(rng: random.Random, k: int) -> tuple[int, ...]:
    """A composition with alpha_l >= l up to some J and alpha_l = J after it."""
    j = rng.randint(1, k)
    return tuple(l + rng.randint(0, 2) for l in range(1, j + 1)) + (j,) * (k - j)


def _parts(rng: random.Random, k: int) -> tuple[int, ...]:
    """k parts in [-3, 6], mostly positive so that some monomials survive."""
    return tuple(rng.randint(-3, 0) if rng.random() < 0.15 else rng.randint(1, 6)
                 for _ in range(k))


def _partition(rng: random.Random, k: int, cap: int) -> tuple[int, ...]:
    return tuple(sorted((rng.randint(0, cap) for _ in range(k)), reverse=True))


def _inner(rng: random.Random, k: int, kind: str) -> tuple[int, ...]:
    if kind == "straight":
        return (0,) * k
    if kind == "partition":
        return _partition(rng, k, 3)
    # A non-partition whose columns nu_j - j are distinct: equal columns
    # make the element vanish at straightening, and such an op costs ~0 s.
    while True:
        nu = tuple(rng.randint(-2, 4) for _ in range(k))
        if not is_partition(nu) and len({n - j for j, n in enumerate(nu)}) == k:
            return nu


def digest(reduced) -> str:
    return hashlib.sha256(repr(reduced).encode()).hexdigest()


def h_text(terms: dict) -> str:
    """BasisExpr.to_text of an H expansion: lexicographic terms, signs between."""
    out = []
    for index, coeff in sorted(terms.items()):
        mag = abs(coeff)
        body = f"H({','.join(map(str, index))})"
        chunk = str(mag) if not index else body if mag == 1 else f"{mag}*{body}"
        sign = "-" if coeff < 0 else "+"
        out.append((f"-{chunk}" if sign == "-" else chunk) if not out else f" {sign} {chunk}")
    return "".join(out) or "0"


def h_json(terms: dict) -> str:
    """json.dumps(BasisExpr.to_json_dict()) of an H expansion."""
    return json.dumps({"basis": "H", "terms": [{"coeff": c, "index": list(ix)}
                                               for ix, c in sorted(terms.items())]})


# -- workloads -------------------------------------------------------------


class Workload:
    name = ""
    why = ""
    spawns = False  # peak memory is that of child processes
    latency_of_pass = False  # the latency a user sees is that of a whole pass

    def __init__(self, api: Api):
        self.api = api

    def ops(self, seed: int) -> list:
        raise NotImplementedError

    def probe_ops(self, seed: int) -> list:
        """A small op list that stands in for this workload in other traced runs."""
        raise NotImplementedError

    def run(self, op, t: Tracer):
        """The timed part of one op."""
        raise NotImplementedError

    def reduce(self, out):
        """The part of an output that is checked, as a repr-stable value."""
        return out

    def extras(self, op, out, t: Tracer) -> None:
        """Calls made only in the traced run, outside the op's own span."""

    def expected(self, op, t: Tracer):
        """What reduce() must return for this op."""
        raise NotImplementedError


EXPAND_ROWS = (7,) * 14 + (8,) * 5 + (9,)
INNER_KINDS = ("straight", "partition", "skewed", "partition")
#: Output size, in terms, that a shape with this many rows must have. It
#: sets the serialisation cost and the peak memory of an op.
TERMS = {6: (20, 200), 7: (200, 300), 8: (1100, 1400), 9: (9000, 11000)}


class ExpandH(Workload):
    """skew_immaculate_to_H on seeded straight and skew shapes.

    The row counts are fixed per pass: 14 ops at k = 7, 5 at k = 8 and 1
    at k = 9, so the work per pass does not depend on the seed, the median
    latency falls well inside the k = 7 ops and the 90th percentile well
    inside the k = 8 ops, away from the jumps between classes. Shapes are
    redrawn until their expansion has a number of terms in the band TERMS
    sets for their row count, so every op has a real expansion to
    serialise and the peak memory, set by the k = 9 op, does not depend on
    the seed either.
    """

    name = "expand_h"
    why = "k! covering walk on k=7..9 straight and skew shapes; exposes the fold, its pruning and serialisation"

    def ops(self, seed: int, rows=EXPAND_ROWS) -> list:
        rng = random.Random(seed)
        seen: dict[int, int] = {}
        out = []
        for k in rows:
            kind = INNER_KINDS[seen.get(k, 0) % len(INNER_KINDS)]
            seen[k] = seen.get(k, 0) + 1
            low, high = TERMS[k]
            while True:
                mu, nu = _parts(rng, k), _inner(rng, k, kind)
                # Terms are at most the surviving monomials; the cheap count
                # rules out most shapes before the expansion is computed.
                alive = nonneg_monomials(mu, nu)
                if low <= alive <= 3 * high and low <= h_term_count(mu, nu) <= high:
                    break
            out.append({"key": len(out), "mu": mu, "nu": nu, "kind": kind,
                        "killed": factorial(k) - alive})
        return out

    def probe_ops(self, seed: int) -> list:
        return self.ops(seed, rows=(6, 6, 6, 7))

    def run(self, op, t):
        k = len(op["mu"])
        with t.span("expansions.skew_immaculate_to_H", coverings=factorial(k),
                    killed=op["killed"], vanished=0) as span:
            expr = t.fn("expansions.skew_immaculate_to_H")(op["mu"], op["nu"])
        if span is not None:
            span["counts"]["terms"] = len(expr)
        text = t.call("expr.BasisExpr.to_text", expr)
        with t.span("expr.to_json"):
            js = json.dumps(t.fn("expr.BasisExpr.to_json_dict")(expr))
        return expr, text, js

    def reduce(self, out):
        _, text, js = out
        return text, js

    def extras(self, op, out, t):
        expr = out[0]
        if op["kind"] == "skewed":
            t.call("expansions.straighten_skew", op["mu"], op["nu"])
        terms = dict(expr.items())
        with t.span("expr.build"):
            t.fn("expr.BasisExpr")("H", terms)
        t.call("expr.BasisExpr.to_latex", expr)

    def expected(self, op, t):
        matrix = t.call("oracles.jacobi_trudi_matrix", op["mu"], op["nu"])
        terms = dict(t.call("oracles.ndet_expand", matrix).items())
        return h_text(terms), h_json(terms)


MONOMIAL_SIZES = (6,) * 4 + (7,) * 4 + (8,) * 2


class MonomialDual(Workload):
    """monomial_to_dual_immaculate on seeded compositions, |alpha| = 6..8.

    The cost depends only on |alpha|, and the sizes are fixed per pass, so
    the median latency falls among the |alpha| = 7 ops and the 90th
    percentile among the |alpha| = 8 ops.
    """

    name = "monomial_dual"
    why = "about 2^(n-1) small covering walks per op with a tiny output; a change tuned for one large walk shows here"

    def __init__(self, api):
        super().__init__(api)
        self._oracle: dict[int, dict] = {}
        self._counts: dict[int, tuple[int, int]] = {}

    def ops(self, seed: int, sizes=MONOMIAL_SIZES) -> list:
        rng = random.Random(seed)
        return [{"key": i, "alpha": random_composition(rng, n)}
                for i, n in enumerate(sizes)]

    def probe_ops(self, seed: int) -> list:
        return self.ops(seed, sizes=(5, 6))

    def _walk_counts(self, n: int) -> tuple[int, int]:
        """(coverings, killed monomials) over all compositions of n."""
        if n not in self._counts:
            coverings = sum(comb(n - 1, l - 1) * factorial(l) for l in range(1, n + 1))
            alive = sum(nonneg_monomials(mu, (0,) * len(mu)) for mu in compositions(n))
            self._counts[n] = (coverings, coverings - alive)
        return self._counts[n]

    def run(self, op, t):
        counts = {}
        if t.enabled:
            coverings, killed = self._walk_counts(sum(op["alpha"]))
            counts = {"coverings": coverings, "killed": killed, "vanished": 0}
        with t.span("expansions.monomial_to_dual_immaculate", **counts) as span:
            expr = t.fn("expansions.monomial_to_dual_immaculate")(op["alpha"])
        if span is not None:
            span["counts"]["terms"] = len(expr)
        return expr

    def reduce(self, out):
        return tuple(out.items())

    def _table(self, n: int, t) -> dict:
        """H-expansion of every immaculate element of size n, from ndet_expand."""
        if n not in self._oracle:
            self._oracle[n] = {
                mu: dict(t.call("oracles.ndet_expand",
                                t.call("oracles.jacobi_trudi_matrix", mu)).items())
                for mu in compositions(n)}
        return self._oracle[n]

    def expected(self, op, t):
        """The coefficient of dI_mu in M_alpha is that of H_alpha in I_mu."""
        alpha = op["alpha"]
        table = self._table(sum(alpha), t)
        return tuple((mu, terms[alpha]) for mu, terms in sorted(table.items())
                     if terms.get(alpha))


#: Checks whose amount of work does not depend on their seed get the
#: benchmark's seed. census and skew-oracle draw their row counts at
#: random (census work has an interquartile range of 29 % of its median
#: across seeds), so they keep their own seeds and a sweep costs the same
#: whatever the benchmark's seed.
SEEDED_CHECKS = ("bijection", "signs", "roundtrips", "diagram-invariants")


class VerifySweep(Workload):
    """run_suite over the twelve checks, one check per op.

    A user waits for the whole sweep, so its latency is that of a pass.
    Each check is still an op of its own so that it is timed and scaled
    on its own, and so that a check's seed can differ from the others'.
    """

    name = "verify_sweep"
    why = "the 12 self-checks: hook objects via diagram and enumerate_coverings, and the determinant oracle"
    latency_of_pass = True

    def ops(self, seed: int) -> list:
        return [{"key": i, "check": c, "seed": seed if c in SEEDED_CHECKS else None}
                for i, c in enumerate(CHECK_NAMES)]

    def probe_ops(self, seed: int) -> list:
        return self.ops(seed)

    def run(self, op, t):
        kwargs = {} if op["seed"] is None else {"seed": op["seed"]}
        with t.span(f"verify.{op['check']}"):
            return t.fn("verify.run_suite")([op["check"]], **kwargs)

    def reduce(self, out):
        return tuple((r["check"], r["pass"]) for r in out)

    def expected(self, op, t):
        return ((op["check"], True),)


def _csv(seq) -> str:
    return ",".join(map(str, seq))


class CliOneshot(Workload):
    """One `python -m immaculate.cli` process per op, run one after another."""

    name = "cli_oneshot"
    why = "interpreter start, import, argparse and output per CLI call; no in-process cache can help"
    spawns = True

    def __init__(self, api):
        super().__init__(api)
        self.env = child_env()

    def ops(self, seed: int) -> list:
        rng = random.Random(seed)

        def pos(k):
            return tuple(rng.randint(0, 4) for _ in range(k))

        def mixed(k):
            return tuple(rng.randint(-1, 4) for _ in range(k))

        sigma = list(range(1, 6))
        rng.shuffle(sigma)
        specs = [
            ("expand", "H", pos(5), None, "text"),
            ("expand", "H", pos(5), _partition(rng, 3, 2), "json"),
            ("expand", "H", mixed(4), None, "latex"),
            ("expand", "R", ribbon_class_composition(rng, 4), None, "text"),
            ("expand", "R", ribbon_class_composition(rng, 5), None, "json"),
            ("monomial", None, random_composition(rng, 5), None, "text"),
            ("monomial", None, random_composition(rng, 4), None, "json"),
            ("convert", "H", random_composition(rng, 5), None, "text"),
            ("convert", "R", random_composition(rng, 4), None, "json"),
            ("straighten", None, tuple(rng.randint(-3, 5) for _ in range(4)),
             tuple(rng.randint(-3, 6) for _ in range(4)), "text"),
            ("straighten", None, tuple(rng.randint(-3, 5) for _ in range(4)),
             tuple(rng.randint(-3, 6) for _ in range(4)), "json"),
            ("decompose", 2, tuple(rng.randint(1, 4) for _ in range(4)), None, "text"),
            ("decompose", 1, tuple(rng.randint(1, 4) for _ in range(5)), None, "json"),
            ("thc-list", None, mixed(4), None, "text"),
            ("thc-list", None, mixed(4), _partition(rng, 4, 3), "json"),
            ("thc-render", tuple(sigma), mixed(5), None, "text"),
            ("thc-render", None, mixed(4), _partition(rng, 4, 3), "latex"),
        ]
        return [{"key": i, "kind": kind, "arg": arg, "shape": shape, "skew": skew,
                 "fmt": fmt, "argv": self._argv(kind, arg, shape, skew, fmt)}
                for i, (kind, arg, shape, skew, fmt) in enumerate(specs)]

    def probe_ops(self, seed: int) -> list:
        return self.ops(seed)[::2]

    @staticmethod
    def _argv(kind, arg, shape, skew, fmt) -> list[str]:
        if kind == "expand":
            argv = ["expand", "immaculate", "--basis", arg]
        elif kind == "monomial":
            argv = ["expand", "monomial"]
        elif kind == "convert":
            argv = ["convert", "--from", arg, "--to", "R" if arg == "H" else "H"]
        elif kind == "decompose":
            argv = ["decompose", "--prefix", str(arg)]
        elif kind == "thc-list":
            argv = ["thc", "list"]
        elif kind == "thc-render":
            argv = ["thc", "render"] + (["--sigma", _csv(arg)] if arg else [])
        else:
            argv = [kind]
        argv += [f"--shape={_csv(shape)}"]
        if skew is not None:
            argv += [f"--skew={_csv(skew)}"]
        return argv + ["--format", fmt]

    def run(self, op, t):
        with t.span("cli.process"):
            proc = subprocess.run(
                [sys.executable, "-m", "immaculate.cli", *op["argv"]],
                capture_output=True, text=True, env=self.env, cwd=ROOT)
        return proc.returncode, proc.stdout

    def extras(self, op, out, t):
        with redirect_stdout(io.StringIO()), t.span("cli.main"):
            t.fn("cli.main")(list(op["argv"]))

    def expected(self, op, t):
        return 0, self._stdout(op)

    def _stdout(self, op) -> str:
        """What the CLI must print: the library result in the command's format."""
        f = self.api.fn
        kind, arg, shape, skew, fmt = (op[k] for k in ("kind", "arg", "shape", "skew", "fmt"))
        if kind in ("expand", "monomial", "convert"):
            if kind == "monomial":
                expr = f("expansions.monomial_to_dual_immaculate")(shape)
            elif kind == "convert":
                term = f("expr.BasisExpr").term(arg, shape)
                expr = f("ribbon.H_to_ribbon")(term) if arg == "H" else f("ribbon.ribbon_to_H")(term)
            elif arg == "H":
                expr = f("expansions.skew_immaculate_to_H")(shape, skew)
            else:
                expr = f("ribbon.immaculate_to_ribbon_direct")(shape)
            if fmt == "json":
                return json.dumps(expr.to_json_dict()) + "\n"
            return (expr.to_latex() if fmt == "latex" else expr.to_text()) + "\n"
        if kind == "straighten":
            sign, mu, nu = f("expansions.straighten_skew")(shape, skew)
            if fmt == "json":
                return json.dumps({"sign": sign, "mu": list(mu), "nu": list(nu)}) + "\n"
            head = f"sign {sign:+d}" if sign else "sign 0 (element vanishes)"
            return f"{head}\nshape {_csv(mu)} / {_csv(nu)}\n"
        if kind == "decompose":
            entries = f("expansions.skew_prefix_decomposition")(shape, arg)
            if fmt == "json":
                return json.dumps([{"sign": s, "prefix": list(p), "tail_mu": list(m),
                                    "tail_nu": list(n)} for s, p, (m, n) in entries]) + "\n"
            return "".join(
                f"{'+' if s > 0 else '-'} H({_csv(p)}) * I[({_csv(m)})/({_csv(n)})]\n"
                for s, p, (m, n) in entries)
        if kind == "thc-list":
            coverings = f("coverings.enumerate_coverings")(shape, skew)
            if fmt == "json":
                return "".join(json.dumps(c.to_json_dict()) + "\n" for c in coverings)
            return "".join(
                f"{'+' if c.total_sign > 0 else '-'} delta=({_csv(c.delta_seq)}) terminals: "
                + " ".join(f"({p},{q})" for p, q in c.terminal_cells) + "\n"
                for c in coverings)
        diagram = f("diagram.build_diagram")(shape, skew)
        overlay = list(f("coverings.covering_from_permutation")(shape, arg).hooks) if arg else None
        return f("diagram.render")(diagram, overlay, "latex" if fmt == "latex" else "ascii") + "\n"


WORKLOADS = {w.name: w for w in (ExpandH, MonomialDual, VerifySweep, CliOneshot)}


# -- probe items of the traced run ----------------------------------------


def permutation_sign(sigma) -> int:
    inversions = sum(1 for i in range(len(sigma)) for j in range(i + 1, len(sigma))
                     if sigma[i] > sigma[j])
    return -1 if inversions % 2 else 1


def hook_probes(seed: int):
    """(key, fn) items for the coverings and diagram layers; fn returns a failure or None."""
    rng = random.Random(seed)
    items = []
    for k in (5, 5, 6, 6):
        mu, nu = _parts(rng, k), _partition(rng, k, 5)

        def walk(t, mu=mu, nu=nu, k=k):
            with t.span("coverings.enumerate_coverings", coverings=factorial(k)):
                count = sum(1 for _ in t.fn("coverings.enumerate_coverings")(mu, nu))
            return None if count == factorial(k) else f"{count} coverings of {mu}/{nu}"

        items.append((f"enumerate-{len(items)}", walk))

    mu5 = _parts(rng, 5)
    sigmas = []
    for _ in range(60):
        sigma = list(range(1, 6))
        rng.shuffle(sigma)
        sigmas.append(tuple(sigma))

    def from_permutation(t):
        for sigma in sigmas:
            covering = t.call("coverings.covering_from_permutation", mu5, sigma)
            if covering.total_sign != permutation_sign(sigma):
                return f"sign of the covering of {sigma} on {mu5}"
        return None

    shapes = [(_parts(rng, 6), _partition(rng, 6, 4)) for _ in range(6)]
    choices = [[rng.random() for _ in range(6)] for _ in shapes]

    def hook_steps(t):
        for (mu, nu), picks in zip(shapes, choices):
            diagram = t.call("diagram.build_diagram", mu, nu)
            for pick in picks:
                cells = diagram.tunnel_cells()
                tau = cells[int(pick * len(cells))]
                with t.span("diagram.hook_step"):
                    hook = t.call("diagram.make_tunnel_hook", diagram, tau)
                    diagram = t.call("diagram.apply_hook", diagram, hook)
            if not diagram.is_exhausted():
                return f"covering of {mu}/{nu} left rows uncovered"
        return None

    builds = [(_parts(rng, 7), _partition(rng, 7, 5)) for _ in range(100)]

    def build(t):
        for mu, nu in builds:
            t.call("diagram.build_diagram", mu, nu)
        return None

    return items + [("covering-from-permutation", from_permutation),
                    ("hook-steps", hook_steps), ("build-diagram", build)]


def ribbon_probes(seed: int, api: Api):
    rng = random.Random(seed)
    items = []
    for k in (4, 5, 6, 6):
        alpha = ribbon_class_composition(rng, k)

        def direct(t, alpha=alpha):
            got = t.call("ribbon.immaculate_to_ribbon_direct", alpha)
            want = api.fn("ribbon.H_to_ribbon")(api.fn("expansions.immaculate_to_H")(alpha))
            return None if got == want else f"direct ribbon expansion of {alpha}"

        items.append((f"ribbon-direct-{k}-{len(items)}", direct))
    for i in range(4):
        terms = {random_composition(rng, rng.randint(4, 8)): rng.randint(-3, 3) or 1
                 for _ in range(12)}

        def to_ribbon(t, terms=terms):
            expr = api.fn("expr.BasisExpr")("H", terms)
            back = api.fn("ribbon.ribbon_to_H")(t.call("ribbon.H_to_ribbon", expr))
            return None if back == expr else "H -> R -> H round trip"

        items.append((f"H-to-ribbon-{i}", to_ribbon))
    return items


SPAWNS = 5
_IMPORT = ("import time; start = time.perf_counter(); import immaculate.cli; "
           "print(time.perf_counter() - start)")


def spawn_probes():
    env = child_env()

    def interpreter(t):
        with t.span("cli.interpreter"):
            code = subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT).returncode
        return None if code == 0 else f"bare interpreter exited {code}"

    def import_cli(t):
        proc = subprocess.run([sys.executable, "-c", _IMPORT], env=env, cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            return f"import immaculate.cli failed: {proc.stderr[-300:]}"
        t.add("cli.import", float(proc.stdout))
        return None

    return ([(f"interpreter-{i}", interpreter) for i in range(SPAWNS)]
            + [(f"import-{i}", import_cli) for i in range(SPAWNS)])

