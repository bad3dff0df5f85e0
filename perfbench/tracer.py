"""Span tracing from outside the package, and the per-layer metrics.

``Tracer.install`` wraps every public function of ``confmon.__all__`` at
every ``confmon.*`` module binding, e.g. both ``confmon.alignment.
optimal_alignment`` and the copy ``confmon.cli`` imported. Wrapping bindings
rather than call sites keeps a later refactor covered: whichever module a
function moves to, its callers reach it through some binding. A function's
layer is the module that defines it.

Each call records a span (name, layer, start, end, parent, operation) plus
counters derived from its arguments and result. Spans stay in memory and are
written out when the run ends. Self time is span time minus the time of
direct child spans; a layer's time counts only spans with no ancestor in the
same layer, so nested calls are not counted twice.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import weakref
from collections import defaultdict
from time import perf_counter

# The CLI diagnoses logs through a private helper rather than through
# confmon.diagnoses; its span belongs to the diagnoses layer. Once the helper
# is folded into a public function, that function is wrapped like any other.
PRIVATE_SPANS = {("confmon.cli", "_diagnose"): "diagnoses"}

SCORING = ("score", "score_matrix")
METRIC_CALLS = ("confusion", "prf", "roc_auc")


def _public_functions(package):
    for name in package.__all__:
        obj = getattr(package, name)
        if inspect.isfunction(obj):
            yield obj, obj.__module__.rsplit(".", 1)[-1]


def _rebind(package, fn, wrapper) -> None:
    """Replace fn by wrapper wherever a module of the package binds it."""
    prefix = package.__name__ + "."
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package.__name__ or mod_name.startswith(prefix)):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapper)


class CostCounter:
    """Sums the cost of every optimal alignment; no spans, no clocks."""

    def __init__(self):
        self.cost_sum = 0.0

    def install(self, package) -> None:
        fn = package.alignment.optimal_alignment

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.cost_sum += result.cost
            return result

        _rebind(package, fn, counted)


class Tracer:
    def __init__(self):
        # span: [name, layer, start, end, parent, op, outer_in_layer, info]
        self.spans: list = []
        self._stack: list = []
        self._depth = defaultdict(int)
        self._seen_nets = weakref.WeakSet()

    def install(self, package) -> None:
        for fn, layer in _public_functions(package):
            _rebind(package, fn, self._wrap(fn, fn.__name__, layer))
        for (mod_name, attr), layer in PRIVATE_SPANS.items():
            module = sys.modules.get(mod_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self._wrap(fn, attr, layer))

    def _wrap(self, fn, name, layer):
        spans, stack, depth = self.spans, self._stack, self._depth

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else None
            op = spans[stack[0]][5] if stack else idx
            span = [name, layer, 0.0, 0.0, parent, op, depth[layer] == 0, None]
            spans.append(span)
            stack.append(idx)
            depth[layer] += 1
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                depth[layer] -= 1
                stack.pop()
            span[7] = self._info(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = name
        return traced

    def _info(self, name, args, kwargs, result):
        """Counters derived from one call's arguments and result."""
        if name == "optimal_alignment":
            net = args[0]
            trace = args[1] if len(args) > 1 else kwargs["trace"]
            events = tuple(getattr(trace, "events", trace))
            first = net not in self._seen_nets
            self._seen_nets.add(net)
            return {"net": net.name, "events": events, "moves": len(result),
                    "cost": result.cost, "first": first}
        if name == "playout":
            return {"traces": len(result)}
        if name == "parse_log":
            return {"events": sum(len(tr) for tr in result)}
        if name == "inject_log":
            return {"traces": len(result)}
        if name == "build_eval_sets":
            return {"traces": len(result["all"])}
        if name == "build_diagnoses":
            return {"rows": len(result)}
        if name == "_diagnose":
            return {"rows": len(result[0])}
        if name == "train":
            det = result
            info = {"kind": det.kind, "rows": len(args[1] if len(args) > 1 else kwargs["train_d"])}
            if det.kind == "dbscan":
                info["cores"] = int(det.state["cores"].shape[0])
            return info
        if name == "score_matrix":
            return {"rows": len(args[1] if len(args) > 1 else kwargs["diag"])}
        if name == "main":
            argv = args[0] if args else kwargs.get("argv")
            return {"command": argv[0] if argv else "?"}
        return None

    # -- per-layer metrics -----------------------------------------------------

    def metrics(self) -> dict:
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[4] is not None:
                child_time[s[4]] += s[3] - s[2]
        layer_s = defaultdict(float)
        self_s = defaultdict(float)
        by_name = defaultdict(list)
        for i, s in enumerate(spans):
            dur = s[3] - s[2]
            self_s[s[1]] += dur - child_time[i]
            if s[6]:
                layer_s[s[1]] += dur
            by_name[s[0]].append(i)

        def total(name, key=None, where=None):
            out = 0.0
            for i in by_name.get(name, ()):
                s = spans[i]
                if key is not None and s[7] is None:
                    continue  # the call raised, so it has no counters
                if where is not None and not where(s):
                    continue
                out += (s[3] - s[2]) if key is None else s[7][key]
            return out

        def count(name):
            return len(by_name.get(name, ()))

        def info_is(field, value):
            return lambda s: s[7] is not None and s[7][field] == value

        m = {}
        for layer in ("petri", "eventlog", "inject", "alignment", "diagnoses",
                      "detect", "metrics", "cli"):
            m[f"{layer}.s"] = layer_s[layer]
            m[f"{layer}.self_s"] = self_s[layer]

        m["petri.playout_s"] = total("playout")
        m["petri.playout_traces"] = int(total("playout", "traces"))
        m["petri.load_calls"] = count("parse_model")

        m["eventlog.parse_s"] = total("parse_log")
        m["eventlog.events"] = int(total("parse_log", "events"))
        m["eventlog.split_s"] = total("split_log")

        outer = (lambda s: s[6])
        m["inject.traces"] = int(total("inject_log", "traces", outer)
                                 + total("build_eval_sets", "traces", outer))

        aligns = [spans[i] for i in by_name.get("optimal_alignment", ())
                  if spans[i][7] is not None]
        ms = sorted((s[3] - s[2]) * 1e3 for s in aligns)
        variants = {(s[7]["net"], s[7]["events"]) for s in aligns}
        m["alignment.calls"] = len(aligns)
        m["alignment.first_call_s"] = sum(s[3] - s[2] for s in aligns if s[7]["first"])
        m["alignment.trace_ms_p50"] = _quantile(ms, 0.5)
        m["alignment.trace_ms_p90"] = _quantile(ms, 0.9)
        m["alignment.events"] = sum(len(s[7]["events"]) for s in aligns)
        m["alignment.moves"] = sum(s[7]["moves"] for s in aligns)
        m["alignment.cost_sum"] = sum(s[7]["cost"] for s in aligns)
        m["alignment.variants"] = len(variants)
        m["alignment.variant_ratio"] = len(variants) / len(aligns) if aligns else 0.0

        m["diagnoses.rows"] = int(total("build_diagnoses", "rows", outer)
                                  + total("_diagnose", "rows", outer))
        m["diagnoses.write_s"] = total("write_diagnoses")

        for kind in ("ft", "dbscan", "ae"):
            m[f"detect.train_s.{kind}"] = total("train", where=info_is("kind", kind))
        m["detect.train_rows"] = int(total("train", "rows"))
        not_nested = (lambda s: s[4] is None or spans[s[4]][0] not in SCORING)
        m["detect.score_s"] = (total("score", where=not_nested)
                               + total("score_matrix", where=not_nested))
        m["detect.score_calls"] = count("score")
        m["detect.score_rows"] = int(sum(1 for i in by_name.get("score", ())
                                         if not_nested(spans[i]))
                                     + total("score_matrix", "rows", not_nested))
        m["detect.dbscan_cores"] = int(total("train", "cores", info_is("kind", "dbscan")))
        m["detect.save_load_s"] = total("save_detector") + total("load_detector")

        m["metrics.calls"] = sum(count(n) for n in METRIC_CALLS)

        m["cli.experiment_s"] = total("run_experiment")
        for command in ("check", "train", "detect", "evaluate"):
            m[f"cli.command_s.{command}"] = total("main", where=info_is("command", command))
        m["spans"] = len(spans)
        return m

    def dump(self) -> list:
        """Spans as JSON-ready lists; alignment infos drop the event tuples."""
        out = []
        for s in self.spans:
            info = s[7]
            if s[0] == "optimal_alignment" and info is not None:
                info = {**info, "events": len(info["events"])}
            out.append([s[0], s[1], s[2], s[3], s[4], s[5], info])
        return out


def _quantile(sorted_values: list, q: float) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    cuts = statistics.quantiles(sorted_values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]
