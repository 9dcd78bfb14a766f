"""Layer tracing for traced benchmark runs.

`install` rebinds every public function of the seven quivergrass modules,
wherever a module of the package holds it (names bound by ``from ... import``
included), plus ``Matrix.__mul__``, to a wrapper that records a span.  The
library source is not edited.  A layer is the module that defines the
function, so a call from construct into grassmann is a grassmann span whose
parent is a construct span.

Spans (name, start, end, parent index) stay in memory up to SPAN_CAP and are
written out when the run ends.  Counters and self times are kept exactly for
every span, also past the cap.  A span's self time is its duration minus the
durations of its child spans.

Generator functions (the subspace streams of exactlinalg) do their work when
resumed, not when called, so every resume is a span of its own.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("exactlinalg", "quiverrep", "homext", "grassmann", "reptype",
          "construct", "cli")

SPAN_CAP = 50_000

# quiverrep functions whose self time counts as JSON (de)serialization
_JSON_SUFFIXES = ("_to_json", "_from_json")


class Tracer:
    """Spans and counters of one process."""

    def __init__(self) -> None:
        self.spans: list = []       # [name, start, end, parent index or -1]
        self.dropped = 0
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.count: Counter = Counter()
        self.wait_s: defaultdict = defaultdict(float)
        self.engines: list = []     # engine of each enumeration since reset
        # frames: [name, layer, start, child seconds, span index, consumed mark]
        self._stack: list = []

    def enter(self, name: str, layer: str, is_call: bool = True) -> None:
        now = perf_counter()
        stack = self._stack
        parent = stack[-1][4] if stack else -1
        if len(self.spans) < SPAN_CAP:
            idx = len(self.spans)
            self.spans.append([name, now, now, parent])
        else:
            idx = -1
            self.dropped += 1
        if is_call:
            self.calls[name] += 1
        stack.append([name, layer, now, 0.0, idx,
                      self.count["grassmann.subspaces.consumed"]])

    def leave(self, exc: BaseException = None, result=None):
        """Close the innermost span; returns the layer of its parent span."""
        now = perf_counter()
        stack = self._stack
        name, layer, start, child, idx, mark = stack.pop()
        dur = now - start
        self.self_s[name] += dur - child
        if idx >= 0:
            self.spans[idx][2] = now
        if stack:
            parent = stack[-1]
            parent[3] += dur
            parent_layer = parent[1]
        else:
            parent_layer = None
        if layer == "grassmann" and parent_layer != "grassmann":
            self._enumeration_done(mark, exc, result)
        if parent_layer == "grassmann" and name == "exactlinalg.row_space":
            self.count["grassmann.row_space.calls"] += 1
        if parent_layer == "construct" and layer == "grassmann":
            self.wait_s["construct.grassmann_wait_s"] += dur
        if (name == "quiverrep.is_isomorphic" and exc is not None
                and type(exc).__name__ == "IsomorphismInconclusive"):
            self.count["quiverrep.is_isomorphic.inconclusive"] += 1
        return parent_layer

    def _enumeration_done(self, mark: int, exc, result) -> None:
        # the scan engine draws candidates from subspaces_containing; the
        # invariant-subspace engine never does
        consumed = self.count["grassmann.subspaces.consumed"] > mark
        self.engines.append("scan" if consumed else "invariant")
        if exc is not None:
            if type(exc).__name__ == "BudgetExceeded":
                self.count["grassmann.budget_exceeded"] += 1
            return
        points = result if isinstance(result, int) else result.count
        self.count["grassmann.points"] += points

    def yielded(self, parent_layer: str) -> None:
        self.count["exactlinalg.subspaces.yielded"] += 1
        if parent_layer == "grassmann":
            self.count["grassmann.subspaces.consumed"] += 1

    def summary(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "count": dict(self.count), "wait_s": dict(self.wait_s)}

    def merge(self, summary: dict) -> None:
        """Add the counters of another process (a traced CLI child)."""
        self.calls.update(summary["calls"])
        self.count.update(summary["count"])
        for key, val in summary["self_s"].items():
            self.self_s[key] += val
        for key, val in summary["wait_s"].items():
            self.wait_s[key] += val

    def write(self, path, extra: dict) -> None:
        data = {"spans": self.spans, "dropped": self.dropped,
                "summary": self.summary(), **extra}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def _wrap(tracer: Tracer, name: str, layer: str, fn):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            it = fn(*args, **kwargs)
            try:
                while True:
                    tracer.enter(name, layer, is_call=False)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer.leave()
                        return
                    except BaseException as exc:
                        tracer.leave(exc)
                        raise
                    tracer.yielded(tracer.leave())
                    yield item
            finally:
                it.close()
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name, layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.leave(exc)
            raise
        tracer.leave(None, result)
        return result
    return wrapper


def install(tracer: Tracer) -> None:
    """Route every public quivergrass function through tracer spans."""
    import importlib
    modules = {layer: importlib.import_module(f"quivergrass.{layer}")
               for layer in LAYERS}
    package = importlib.import_module("quivergrass")
    wrapped = {}
    for layer, mod in modules.items():
        for attr, val in vars(mod).items():
            if (inspect.isfunction(val) and not attr.startswith("_")
                    and val.__module__ == mod.__name__):
                wrapped[val] = _wrap(tracer, f"{layer}.{attr}", layer, val)
    for mod in (package, *modules.values()):
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrapped:
                setattr(mod, attr, wrapped[val])
    matrix = modules["exactlinalg"].Matrix
    matrix.__mul__ = _wrap(tracer, "exactlinalg.matmul", "exactlinalg",
                           matrix.__mul__)


def _layer_sum(table: dict, layer: str) -> float:
    prefix = layer + "."
    return sum(v for k, v in table.items() if k.startswith(prefix))


def layer_metrics(tracer: Tracer, import_s: list) -> dict:
    """Per-layer metric values by name; import_s holds one entry per CLI child."""
    calls, self_s, count = tracer.calls, tracer.self_s, tracer.count
    row_space_calls = count["grassmann.row_space.calls"]
    points = count["grassmann.points"]
    out = {f"{layer}.self_s": _layer_sum(self_s, layer) for layer in LAYERS}
    out.update({
        "exactlinalg.rref.calls": calls["exactlinalg.rref"],
        "exactlinalg.rref.self_s": self_s["exactlinalg.rref"],
        "exactlinalg.row_space.calls": calls["exactlinalg.row_space"],
        "exactlinalg.matmul.calls": calls["exactlinalg.matmul"],
        "exactlinalg.matmul.self_s": self_s["exactlinalg.matmul"],
        "exactlinalg.kernel_basis.calls": calls["exactlinalg.kernel_basis"],
        "exactlinalg.kernel_basis.self_s": self_s["exactlinalg.kernel_basis"],
        "exactlinalg.subspaces.yielded": count["exactlinalg.subspaces.yielded"],
        "grassmann.calls": _layer_sum(calls, "grassmann"),
        "grassmann.points": points,
        "grassmann.row_space.calls": row_space_calls,
        "grassmann.subspaces.consumed": count["grassmann.subspaces.consumed"],
        "grassmann.points_per_row_space":
            points / row_space_calls if row_space_calls else 0.0,
        "grassmann.budget_exceeded": count["grassmann.budget_exceeded"],
        "construct.check.calls": sum(v for k, v in calls.items()
                                     if k.startswith("construct.check_")),
        "construct.is_E_bristle.calls": calls["construct.is_E_bristle"],
        "construct.is_E_bristle.self_s": self_s["construct.is_E_bristle"],
        "construct.build_eta.calls": calls["construct.build_eta"],
        "construct.build_eta.self_s": self_s["construct.build_eta"],
        "construct.grassmann_wait_s": tracer.wait_s["construct.grassmann_wait_s"],
        "homext.hom_basis.calls": calls["homext.hom_basis"],
        "homext.hom_basis.self_s": self_s["homext.hom_basis"],
        "homext.hom_ext_dims.calls": calls["homext.hom_ext_dims"],
        "homext.ext1.calls": calls["homext.ext1"],
        "quiverrep.is_isomorphic.calls": calls["quiverrep.is_isomorphic"],
        "quiverrep.is_isomorphic.self_s": self_s["quiverrep.is_isomorphic"],
        "quiverrep.is_isomorphic.inconclusive":
            count["quiverrep.is_isomorphic.inconclusive"],
        "quiverrep.sub_representation.calls": calls["quiverrep.sub_representation"],
        "quiverrep.quotient_representation.calls":
            calls["quiverrep.quotient_representation"],
        "quiverrep.json.self_s": sum(
            v for k, v in self_s.items()
            if k.startswith("quiverrep.") and k.endswith(_JSON_SUFFIXES)),
        "reptype.classify.calls": calls["reptype.classify"],
        "reptype.tits_definiteness.calls": calls["reptype.tits_definiteness"],
        "cli.calls": calls["cli.main"],
        "cli.import_s": statistics.median(import_s) if import_s else 0.0,
        "cli.exit_nonzero": count["cli.exit_nonzero"],
    })
    return out
