"""Spans around the benchmark's own calls into the package, and the
per-layer metrics derived from them.

Spans are kept in memory and written out once the run ends. Each span
has a name (``<module>.<function>``, the module being one of the package's
layers), a start, an end, its parent span and the op it belongs to. Only
names the benchmark calls itself are wrapped; nothing inside the package
is patched.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

PACKAGE = "immaculate"

#: Layers whose share of the self time of a workload's own op spans is
#: reported: the package's modules, less compositions (the benchmark calls
#: none of its functions directly), plus the benchmark's own op span.
SHARED_LAYERS = ("cli", "expansions", "coverings", "diagram", "expr", "ribbon",
                 "oracles", "verify", "bench")

#: The twelve checks of ``verify.run_suite``, fixed here so that a check
#: added later does not change the verify_sweep workload.
CHECK_NAMES = ("golden", "replay", "bijection", "oracle", "skew-oracle",
               "census", "signs", "ribbon", "roundtrips", "duality",
               "forgetful", "diagram-invariants")


class Absent(Exception):
    """A public name the benchmark calls is not in the package."""


class Api:
    """Public names of the package, resolved by dotted path on first use.

    ``get("expr.BasisExpr.to_text")`` imports ``immaculate.expr`` and walks
    the attributes. A name that cannot be found is remembered in
    ``absent`` and reported, so a later change that removes a public name
    does not crash the run.
    """

    def __init__(self, package: str = PACKAGE):
        self.package = package
        self.absent: set[str] = set()
        self._cache: dict[str, object] = {}

    def get(self, path: str):
        if path not in self._cache:
            self._cache[path] = self._resolve(path)
            if self._cache[path] is None:
                self.absent.add(path)
        return self._cache[path]

    def fn(self, path: str):
        """The object at path; raises Absent when it is gone."""
        obj = self.get(path)
        if obj is None:
            raise Absent(path)
        return obj

    def _resolve(self, path: str):
        module, _, attrs = path.partition(".")
        try:
            obj = importlib.import_module(f"{self.package}.{module}")
        except ImportError:
            return None
        for attr in attrs.split(".") if attrs else ():
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj


class Tracer:
    """Records spans while enabled; a disabled tracer only forwards calls.

    ``begin_op``/``end_op`` bracket one op (a workload op or a probe item);
    every span opened in between belongs to that op and is scaled by the
    op's calibration factor once ``rescale`` has run (see harness.Clock).
    """

    def __init__(self, api: Api, enabled: bool = True):
        self.api = api
        self.enabled = enabled
        self.spans: list[dict] = []
        self.ops: list[dict] = []
        self._stack: list[int] = []

    def fn(self, path: str):
        return self.api.fn(path)

    def call(self, path: str, *args, **kwargs):
        """Call a public function, inside a span named after its module and name."""
        fn = self.api.fn(path)
        if not self.enabled:
            return fn(*args, **kwargs)
        parts = path.split(".")
        with self.span(f"{parts[0]}.{parts[-1]}"):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str, **counts):
        if not self.enabled:
            yield None
            return
        record = {"name": name, "start": 0.0, "end": 0.0,
                  "parent": self._stack[-1] if self._stack else None,
                  "op": len(self.ops) - 1, "counts": counts}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, seconds: float, **counts) -> None:
        """A span for work timed elsewhere, such as inside a child process."""
        if self.enabled:
            end = time.perf_counter()
            self.spans.append({"name": name, "start": end - seconds, "end": end,
                               "parent": self._stack[-1] if self._stack else None,
                               "op": len(self.ops) - 1, "counts": counts})

    def begin_op(self, key: str, source: str) -> None:
        if self.enabled:
            self.ops.append({"key": key, "source": source, "scale": 1.0})

    def end_op(self, start: float, end: float) -> None:
        if self.enabled:
            self.ops[-1].update(start=start, end=end)

    def rescale(self, clock) -> None:
        """Give every op the scale of its calibration window (harness.Clock)."""
        for op in self.ops:
            op["scale"] = clock.scale(op["start"], op["end"])

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**extra, "absent": sorted(self.api.absent),
                       "ops": self.ops, "spans": self.spans}, fh)


def _duration(span: dict, ops: list[dict]) -> float:
    return (span["end"] - span["start"]) * ops[span["op"]]["scale"]


def self_times(spans: list[dict], ops: list[dict]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [_duration(s, ops) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= _duration(s, ops)
    return own


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in a fixed order."""
    names = [
        ("expansions.skew_immaculate_to_H_s", "s"),
        ("expansions.fold_over_oracle", "ratio"),
        ("expansions.straighten_skew_s", "s"),
        ("expansions.monomial_to_dual_immaculate_s", "s"),
        ("expansions.terms_out", "count"),
        ("expansions.coverings_total", "count"),
        ("expansions.terms_per_covering", "ratio"),
        ("expansions.killed_share", "ratio"),
        ("expansions.vanished_ops", "count"),
        ("coverings.enumerate_coverings_us_per_covering", "us"),
        ("coverings.covering_from_permutation_us", "us"),
        ("diagram.hook_step_us", "us"),
        ("diagram.build_diagram_us", "us"),
        ("oracles.ndet_expand_s", "s"),
        ("expr.build_s", "s"),
        ("expr.to_text_s", "s"),
        ("expr.to_json_s", "s"),
        ("expr.to_latex_s", "s"),
        ("ribbon.H_to_ribbon_s", "s"),
        ("ribbon.immaculate_to_ribbon_direct_s", "s"),
        ("cli.interpreter_s", "s"),
        ("cli.import_s", "s"),
        ("cli.main_s", "s"),
    ]
    names += [(f"verify.{check}_s", "s") for check in CHECK_NAMES]
    names += [(f"{layer}.self_share", "ratio") for layer in SHARED_LAYERS]
    names += [("trace.overhead_s", "s"), ("trace.spans", "count"),
              ("trace.absent_names", "count")]
    return names


def _timed_metrics():
    """(metric, span name, factor to the unit) of the metrics that are a
    mean span duration: the span is named by the metric less its unit."""
    for metric, unit in per_layer_names():
        if unit in ("s", "us") and metric.endswith("_" + unit) and not metric.startswith("trace."):
            yield metric, metric[:-len(unit) - 1], 1e6 if unit == "us" else 1.0


def layer_metrics(tracer: Tracer, untraced_wall: float,
                  traced_wall: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, and the metrics it could not measure.

    A metric is taken from the workload's own ops when they produced the
    spans it needs, and from the probe items otherwise. A timing is the
    mean scaled duration of its spans; counts are summed over distinct
    op inputs, so repeated passes do not multiply them.
    """
    spans, ops = tracer.spans, tracer.ops

    def pick(name: str) -> list[dict]:
        mine = [s for s in spans if s["name"] == name]
        own = [s for s in mine if ops[s["op"]]["source"] == "ops"]
        return own or mine

    values: dict[str, float] = {}
    missing: list[str] = []
    for metric, span_name, factor in _timed_metrics():
        chosen = pick(span_name)
        if chosen:
            values[metric] = factor * statistics.fmean(_duration(s, ops) for s in chosen)
        else:
            missing.append(metric)

    walks = pick("coverings.enumerate_coverings")
    if walks:
        values["coverings.enumerate_coverings_us_per_covering"] = 1e6 * sum(
            _duration(s, ops) for s in walks) / sum(s["counts"]["coverings"] for s in walks)
    else:
        missing.append("coverings.enumerate_coverings_us_per_covering")

    values.update(_fold_ratio(spans, ops, missing))
    values.update(_expansion_counts(spans, ops, missing))

    own = [(s["name"].split(".")[0], t) for s, t in zip(spans, self_times(spans, ops))
           if ops[s["op"]]["source"] == "ops"]
    total = sum(t for _, t in own) or 1.0
    for layer in SHARED_LAYERS:
        values[f"{layer}.self_share"] = sum(t for name, t in own if name == layer) / total

    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.spans"] = float(len(spans))
    values["trace.absent_names"] = float(len(tracer.api.absent))
    for metric in missing:
        values[metric] = 0.0
    return values, missing


def _fold_ratio(spans, ops, missing) -> dict:
    """Fold time over determinant-oracle time on the same op inputs.

    Spans are grouped by op input (source and key), each input weighs its
    mean fold time and its mean oracle time, and inputs with both count.
    """
    times: dict[tuple, dict[str, list[float]]] = {}
    for s in spans:
        if s["name"] in ("expansions.skew_immaculate_to_H", "oracles.ndet_expand"):
            op = ops[s["op"]]
            times.setdefault((op["source"], op["key"]), {}).setdefault(
                s["name"], []).append(_duration(s, ops))
    paired = {key: t for key, t in times.items() if len(t) == 2}
    own = {key: t for key, t in paired.items() if key[0] == "ops"}
    paired = own or paired
    if not paired:
        missing.append("expansions.fold_over_oracle")
        return {}
    fold = sum(statistics.fmean(t["expansions.skew_immaculate_to_H"]) for t in paired.values())
    oracle = sum(statistics.fmean(t["oracles.ndet_expand"]) for t in paired.values())
    return {"expansions.fold_over_oracle": fold / oracle}


def _expansion_counts(spans, ops, missing) -> dict:
    names = ("expansions.skew_immaculate_to_H", "expansions.monomial_to_dual_immaculate")
    counted = [s for s in spans if s["name"] in names and "coverings" in s["counts"]]
    own = [s for s in counted if ops[s["op"]]["source"] == "ops"]
    distinct = {}
    for s in own or counted:
        distinct.setdefault((ops[s["op"]]["source"], ops[s["op"]]["key"]), s["counts"])
    if not distinct:
        missing.extend(["expansions.terms_out", "expansions.coverings_total",
                        "expansions.terms_per_covering", "expansions.killed_share",
                        "expansions.vanished_ops"])
        return {}
    terms = sum(c["terms"] for c in distinct.values())
    coverings = sum(c["coverings"] for c in distinct.values())
    return {
        "expansions.terms_out": float(terms),
        "expansions.coverings_total": float(coverings),
        "expansions.terms_per_covering": terms / coverings,
        "expansions.killed_share": sum(c["killed"] for c in distinct.values()) / coverings,
        "expansions.vanished_ops": float(sum(c["vanished"] for c in distinct.values())),
    }

