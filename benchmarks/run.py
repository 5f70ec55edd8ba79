"""Benchmark of the immaculate package.

One workload per run, as the regression driver calls it:

    python3 benchmarks/run.py --workload expand_h --seed 1 --seconds 20 --trace 0

prints human-readable lines and, last, one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones, measured with tracing off; with --trace 1 they are
the per-layer ones of a traced run, whose spans are also written to
benchmarks/out/.

Every workload, both modes, with a table of the end-to-end metrics and
the error rate, and optionally a results file:

    python3 benchmarks/run.py --all --seed 1 --seconds 20 [--out FILE]

See benchmarks/README.md for the workloads, the metrics and how times
are scaled to a reference CPU speed.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from harness import (ROOT, SRC, Clock, latencies, pass_walls, peak_rss_mb,
                     quantile, run_passes, setup_seconds)
from tracing import Api, Tracer, layer_metrics, per_layer_names
from workloads import WORKLOADS, digest, hook_probes, ribbon_probes, spawn_probes

OUT = Path(__file__).resolve().parent / "out"
#: A median over passes needs at least three; a verify_sweep pass is long.
MIN_PASSES = 3
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("latency_p50_s", "s"),
              ("latency_p90_s", "s"), ("peak_rss_mb", "MB"))


def import_package() -> bool:
    if not (SRC / "immaculate" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'immaculate'}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    try:
        import immaculate  # noqa: F401
    except Exception as exc:  # any import failure ends the run without a result
        print(f"error: cannot import immaculate: {exc!r}", file=sys.stderr)
        return False
    return True


def keep_digest(workload):
    return lambda out: digest(workload.reduce(out))


def expected_digests(workload, ops, t) -> list:
    """Digest of each op's expected output, or the exception that prevented it."""
    reference = []
    for op in ops:
        try:
            reference.append(digest(workload.expected(op, t)))
        except Exception as exc:  # the op then counts as failed in every pass
            reference.append(exc)
    return reference


def failures_against(passes, reference) -> list[str]:
    """One message per op execution that raised or returned a wrong output."""
    failures = []
    for records in passes:
        for i, (kept, _, _) in enumerate(records):
            if isinstance(kept, Exception):
                failures.append(f"op {i}: raised {kept!r}")
            elif isinstance(reference[i], Exception):
                failures.append(f"op {i}: no expected output: {reference[i]!r}")
            elif kept != reference[i]:
                failures.append(f"op {i}: output differs from the expected one")
    return failures


def generated_ops(name: str, seed: int) -> list:
    """The workload's op list, built in a child process.

    Choosing expand_h shapes runs a subset DP whose memory would otherwise
    stay in this process's peak resident size.
    """
    proc = subprocess.run([sys.executable, __file__, "--emit-ops", "--workload", name,
                           "--seed", str(seed)], capture_output=True, check=True, cwd=ROOT)
    return pickle.loads(proc.stdout)


def measure(workload, seed: int, seconds: float):
    """End-to-end run with tracing off; outputs are checked after timing.

    The timed passes keep only a digest of each output, so the peak
    memory is that of the largest op, not of outputs held for a check.
    """
    off = Tracer(workload.api, enabled=False)
    # For a workload measured by its children's peak, a generating child
    # would count as one of them; its inputs are cheap to build here.
    ops = workload.ops(seed) if workload.spawns else generated_ops(workload.name, seed)
    clock = Clock()
    passes = run_passes(ops, lambda op: workload.run(op, off), seconds, clock,
                        keep_digest(workload), min_passes=MIN_PASSES)
    rss = peak_rss_mb(children=workload.spawns)
    setup = setup_seconds(clock)
    failures = failures_against(passes, expected_digests(workload, ops, off))
    walls = pass_walls(passes)
    lat = walls if workload.latency_of_pass else latencies(passes)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "latency_p50_s": quantile(lat, 50),
        "latency_p90_s": quantile(lat, 90),
        "peak_rss_mb": rss,
    }
    raw_walls = [sum(raw for _, raw, _ in records) for records in passes]
    print(f"{workload.name}: {len(passes)} passes of {len(ops)} ops; "
          f"raw pass wall median {statistics.median(raw_walls):.4f} s, "
          f"scaled {metrics['wall_s']:.4f} s; {len(lat)} latency samples")
    return metrics, len(ops) * len(passes), failures


def traced_op(workload, op, t):
    """One op inside its span, then the calls made only when tracing."""
    with t.span("bench.op"):
        out = workload.run(op, t)
    workload.extras(op, out, t)
    return out


def probe_item(workload, op):
    """A probe item that runs one of another workload's ops, traced, and checks it."""
    def item(t):
        got = digest(workload.reduce(traced_op(workload, op, t)))
        return None if got == digest(workload.expected(op, t)) else "wrong output"
    return item


def measure_traced(workload, seed: int, seconds: float):
    """Traced run: untraced passes, traced passes, then probes for every layer.

    The expected outputs are computed traced as well, each in an op of
    its own with the op's key, so that oracle spans pair with the op's
    spans. The probes run the other workloads' small op lists and the
    items of hook_probes, ribbon_probes and spawn_probes, so every
    per-layer metric is measured in every traced run.
    """
    api = workload.api
    clock = Clock()
    off = Tracer(api, enabled=False)
    tracer = Tracer(api)
    ops = workload.ops(seed)
    untraced = run_passes(ops, lambda op: workload.run(op, off), seconds / 2, clock,
                          keep_digest(workload))
    traced = run_passes(ops, lambda op: traced_op(workload, op, tracer), seconds / 2,
                        clock, keep_digest(workload), tracer=tracer)
    reference = []
    for op in ops:
        tracer.begin_op(str(op["key"]), "ops")
        want, start, end = clock.time(lambda op=op: digest(workload.expected(op, tracer)))
        tracer.end_op(start, end)
        reference.append(want)
    failures = failures_against(untraced + traced, reference)
    attempted = len(ops) * (len(untraced) + len(traced))

    probes = []
    for other in WORKLOADS.values():
        if other.name != workload.name:
            other = other(api)
            probes += [(f"{other.name}:{op['key']}", probe_item(other, op))
                       for op in other.probe_ops(seed)]
    probes += hook_probes(seed) + ribbon_probes(seed, api) + spawn_probes()
    for key, fn in probes:
        tracer.begin_op(key, "probe")
        err, start, end = clock.time(lambda fn=fn: fn(tracer))
        tracer.end_op(start, end)
        if err is not None:
            failures.append(f"probe {key}: {err!r}")
    attempted += len(probes)
    tracer.rescale(clock)

    op_spans = [s for s in tracer.spans
                if s["name"] == "bench.op" and tracer.ops[s["op"]]["source"] == "ops"]
    traced_walls = [
        sum((s["end"] - s["start"]) * tracer.ops[s["op"]]["scale"]
            for s in op_spans[p * len(ops):(p + 1) * len(ops)])
        for p in range(len(traced))]
    values, missing = layer_metrics(tracer, statistics.median(pass_walls(untraced)),
                                    statistics.median(traced_walls))
    if missing:
        print(f"not measured (absent names: {sorted(api.absent)}): {missing}",
              file=sys.stderr)
    path = OUT / f"trace-{workload.name}-seed{seed}.json"
    tracer.write(path, {"workload": workload.name, "seed": seed, "metrics": values})
    print(f"{workload.name}: {len(untraced)} untraced and {len(traced)} traced passes, "
          f"{len(probes)} probe items, {len(tracer.spans)} spans written to "
          f"{path.relative_to(ROOT)}")
    return values, attempted, failures


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name](Api())
    if trace:
        values, attempted, failures = measure_traced(workload, seed, seconds)
        units = dict(per_layer_names())
    else:
        values, attempted, failures = measure(workload, seed, seconds)
        units = dict(END_TO_END)
    for message in failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    for metric, unit in units.items():
        print(f"  {metric:<48} {values[metric]:.6g} {unit}")
    print(f"  {'error_rate':<48} {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} ops failed)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, out: str | None) -> int:
    """Every workload in both modes, each in its own process, and a table."""
    results = {}
    for name in WORKLOADS:
        results[name] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            results[name][f"trace{trace}"] = json.loads(proc.stdout.splitlines()[-1])
    header = [f"{m} [{u}]" for m, u in END_TO_END] + ["error_rate"]
    print(f"{'workload':<14}" + "".join(f"{h:>19}" for h in header))
    for name, runs in results.items():
        e2e = runs["trace0"]
        row = [e2e["metrics"][m]["value"] for m, _ in END_TO_END]
        row.append(e2e["failed"] / e2e["attempted"])
        print(f"{name:<14}" + "".join(f"{v:>19.6g}" for v in row))
    if out:
        record = {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "seed": seed,
            "seconds": seconds,
            "trace_overhead_s": {name: runs["trace1"]["metrics"]["trace.overhead_s"]["value"]
                                 for name, runs in results.items()},
            "results": results,
        }
        Path(out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --all: write the results here")
    parser.add_argument("--emit-ops", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.all and not args.workload:
        parser.error("give --workload or --all")
    os.environ.pop("IMMACULATE_FORMAT", None)
    if not import_package():
        return 2
    if args.emit_ops:
        sys.stdout.buffer.write(pickle.dumps(WORKLOADS[args.workload](Api()).ops(args.seed)))
        return 0
    if args.all:
        return run_all(args.seed, args.seconds, args.out)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
