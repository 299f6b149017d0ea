"""Spans and counts recorded from outside the library.

The benchmark wraps public functions and node methods of optnet's
modules for the duration of a traced run, records one span per call
(name, start, end, parent, run id) in memory, and restores the originals
afterwards. Span names are "<layer>.<operation>", where the layer is the
optnet module doing the work. Untraced runs install only FitnessWatch,
which counts non-finite fitness values at the search boundary.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import threading
import time
from collections import Counter, defaultdict

import numpy as np

from optnet import analysis, linear, networks

LAYERS = ("engine", "networks", "osga", "linear", "forest", "analysis")
PREDICT_SPANS = ("linear.predict", "forest.predict")
# highest percentile reported as a tail, provided ten samples lie beyond it
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)


def tail_percentile(samples):
    """(percentile, value) for the highest percentile of TAIL_LADDER with
    at least ten samples beyond it, or None when there are too few."""
    pct = max((p for p in TAIL_LADDER
               if len(samples) * (1.0 - p / 100.0) >= 10), default=None)
    if pct is None:
        return None
    return pct, float(np.percentile(samples, pct))


@contextlib.contextmanager
def patched(replacements):
    """Temporarily set (owner, attribute, value) triples."""
    saved = [(owner, attr, owner.__dict__[attr])
             for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class FitnessWatch:
    """Counts non-finite fitness values handed back to a search: the
    orchestrator's score for mask searches, the evaluator for
    osga_minimize."""

    def __init__(self):
        self.nonfinite = 0

    def take_nonfinite(self) -> int:
        n, self.nonfinite = self.nonfinite, 0
        return n

    def _seen(self, value) -> None:
        if not math.isfinite(value):
            self.nonfinite += 1

    def installed(self):
        watch = self
        score = networks.RegressionOrchestratorNode.score
        minimize = analysis.osga_minimize

        @functools.wraps(score)
        def watched_score(node, result):
            value = score(node, result)
            watch._seen(value)
            return value

        @functools.wraps(minimize)
        def watched_minimize(evaluator, *args, **kwargs):
            def watched_evaluator(genome):
                value = evaluator(genome)
                watch._seen(value)
                return value
            return minimize(watched_evaluator, *args, **kwargs)

        return patched([
            (networks.RegressionOrchestratorNode, "score", watched_score),
            (analysis, "osga_minimize", watched_minimize),
        ])


class Tracer:
    """In-memory span and count recorder for one traced process."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, run)
        self.counts: Counter = Counter()  # (run, name) -> count
        self.values: dict = defaultdict(list)  # (run, name) -> samples
        self.masks: dict = defaultdict(set)  # run -> distinct mask bytes
        self.run_id = 0
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent,
                               self.run_id))

    def wrap(self, name: str, fn, after=None):
        """fn wrapped in a span; after(result, args) records counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = tracer.call(name, fn, *args, **kwargs)
            if after is not None:
                after(out, args)
            return out
        return traced

    def count(self, name: str, n=1) -> None:
        self.counts[(self.run_id, name)] += n

    def value(self, name: str, v) -> None:
        self.values[(self.run_id, name)].append(v)

    # -- what each boundary records -------------------------------------

    def _after_run_network(self, run, args) -> None:
        per_round = Counter(e.round_index for e in run.trace
                            if e.event == "deliver")
        self.count("engine.messages", run.messages_handled)
        self.count("engine.rounds", run.rounds)
        self.value("engine.inflight", max(per_round.values(), default=0))

    def _after_make_problem(self, problem, args) -> None:
        self.masks[self.run_id].add(args[1].bits.tobytes())

    def _after_enet(self, model, args) -> None:
        self.count("linear.enet_cells")
        self.count("linear.enet_sweeps", model.n_sweeps)
        self.count("linear.enet_converged", int(model.converged))

    def _after_forest_fit(self, model, args) -> None:
        self.count("forest.nodes_grown", sum(t.n_nodes for t in model.trees))

    def _after_forest_predict(self, out, args) -> None:
        self.value("forest.predict_rows", int(np.shape(args[1])[0]))

    def _after_optimize(self, out, args) -> None:
        self.count("analysis.search_evaluations", out.evaluations)

    def _after_minimize(self, run, args) -> None:
        self.count("osga.minimize_generations", run.generations)
        self.values[(self.run_id, "osga.pressure")].extend(
            run.pressure_history)

    def installed(self):
        """Context manager wrapping every traced boundary."""
        run_network = networks.run_network

        def traced_run_network(*args, **kwargs):
            kwargs["trace"] = True
            return run_network(*args, **kwargs)

        engine_span = self.wrap("engine.run_network", traced_run_network,
                                self._after_run_network)
        w = self.wrap
        sel = networks.FeatureSelectionNode
        orch = networks.RegressionOrchestratorNode
        replacements = [
            (networks, "run_network", engine_span),
            (analysis, "run_network", engine_span),
            (sel, "handle", w("networks.selector", sel.handle)),
            (sel, "handle_entry", w("networks.selector", sel.handle_entry)),
            (orch, "handle", w("networks.orchestrator", orch.handle)),
            (orch, "make_problem", w("networks.project", orch.make_problem,
                                     self._after_make_problem)),
            (analysis.ModelPoolNode, "handle_entry",
             w("analysis.pool_node", analysis.ModelPoolNode.handle_entry)),
            (analysis.SubsetSelectionNode, "handle",
             w("analysis.selection_node",
               analysis.SubsetSelectionNode.handle)),
            (analysis.InputSearchNode, "handle",
             w("analysis.search_node", analysis.InputSearchNode.handle)),
            (analysis, "build_model_pool",
             w("analysis.build_model_pool", analysis.build_model_pool)),
            (analysis, "optimize_inputs",
             w("analysis.optimize_inputs", analysis.optimize_inputs,
               self._after_optimize)),
            (analysis, "osga_minimize",
             w("osga.minimize", analysis.osga_minimize,
               self._after_minimize)),
            (linear, "fit_elastic_net",
             w("linear.fit_elastic_net", linear.fit_elastic_net,
               self._after_enet)),
            (linear, "predict", w("linear.predict", linear.predict)),
        ]
        for node_cls in (networks.OlsModelNode, networks.ForestModelNode):
            replacements += [
                (node_cls, "handle", w("networks.model", node_cls.handle)),
                (node_cls, "fit_problem",
                 w("networks.fit_problem", node_cls.fit_problem)),
            ]
        for module in (networks, analysis):
            replacements += [
                (module, "fit_ols", w("linear.fit_ols", module.fit_ols)),
                (module, "predict", w("linear.predict", module.predict)),
            ]
        replacements += [
            (networks, "fit_random_forest",
             w("forest.fit", networks.fit_random_forest,
               self._after_forest_fit)),
            (networks, "predict_forest",
             w("forest.predict", networks.predict_forest,
               self._after_forest_predict)),
        ]
        return patched(replacements)

    # -- per-layer metrics ------------------------------------------------

    def layer_metrics(self, runs: list[int], search: dict,
                      nonfinite: dict) -> tuple[dict, dict]:
        """Per-layer metrics over the traced runs, with the tail
        percentile each `.tail` value used.

        search maps a run id to the (evaluations, generations,
        pressure_history) its mask search reported, or to None where the
        search ran inside optimize_inputs and was counted here.
        nonfinite maps a run id to its count of non-finite fitness values.
        """
        evaluations, generations, pressures = {}, {}, {}
        for r in runs:
            stats = search.get(r)
            if stats is None:
                stats = (self.counts.get((r, "analysis.search_evaluations"),
                                         0),
                         self.counts.get((r, "osga.minimize_generations"),
                                         0),
                         self.values.get((r, "osga.pressure"), []))
            evaluations[r], generations[r], pressures[r] = stats
        by_id = {s[0]: s for s in self.spans}
        child_time = defaultdict(float)
        for span_id, name, start, end, parent, run in self.spans:
            if parent >= 0:
                child_time[parent] += end - start

        def ancestors(span):
            parent = span[4]
            while parent >= 0:
                span = by_id[parent]
                yield span[1]
                parent = span[4]

        durations = defaultdict(list)  # name -> all durations, s
        per_run = defaultdict(lambda: defaultdict(float))  # run -> key -> v
        for span in self.spans:
            span_id, name, start, end, parent, run = span
            d = end - start
            durations[name].append(d)
            per_run[run][name + ".total"] += d
            per_run[run][name + ".calls"] += 1
            layer = name.split(".", 1)[0]
            per_run[run]["self." + layer] += d - child_time[span_id]
            if name in PREDICT_SPANS and \
                    "analysis.optimize_inputs" in ancestors(span):
                per_run[run]["search_predict.total"] += d
                per_run[run]["search_predict.calls"] += 1

        def per_run_median(fn) -> float:
            return float(np.median([fn(r) for r in runs]))

        def get(r, key) -> float:
            return per_run[r].get(key, 0.0)

        def count(r, name) -> int:
            return self.counts.get((r, name), 0)

        def ratio(a, b) -> float:
            return a / b if b else 0.0

        tails = {}

        def p50(name, scale) -> float:
            d = durations.get(name)
            return float(np.percentile(d, 50)) * scale if d else 0.0

        def tail(name, scale) -> tuple[float, float]:
            found = tail_percentile(durations.get(name, []))
            if found is None:
                return 0.0, 0.0
            return found[1] * scale, found[0]

        def osga_step_us(r) -> float:
            evals = evaluations[r]
            if get(r, "analysis.optimize_inputs.calls"):
                search = get(r, "analysis.optimize_inputs.total") \
                    - get(r, "search_predict.total")
            else:
                search = get(r, "networks.selector.total")
            return ratio(search, evals) * 1e6

        m = {}
        m["engine.messages"] = per_run_median(
            lambda r: count(r, "engine.messages"))
        m["engine.rounds"] = per_run_median(
            lambda r: count(r, "engine.rounds"))
        m["engine.self_us_per_msg"] = per_run_median(
            lambda r: ratio(get(r, "self.engine"),
                            count(r, "engine.messages")) * 1e6)
        m["engine.inflight_max"] = float(max(
            (v for r in runs for v in self.values.get(
                (r, "engine.inflight"), [])), default=0))

        m["networks.project_us.p50"] = p50("networks.project", 1e6)
        m["networks.selector_us.p50"] = p50("networks.selector", 1e6)
        m["networks.fit_problem_us.p50"] = p50("networks.fit_problem", 1e6)
        m["networks.fit_problem_us.tail"], tails["networks.fit_problem_us"] \
            = tail("networks.fit_problem", 1e6)
        m["networks.distinct_mask_frac"] = per_run_median(
            lambda r: ratio(len(self.masks.get(r, ())), evaluations[r])
            if self.masks.get(r) else 0.0)

        m["osga.evaluations"] = per_run_median(lambda r: evaluations[r])
        m["osga.generations"] = per_run_median(lambda r: generations[r])
        m["osga.mean_pressure"] = per_run_median(
            lambda r: float(np.mean(pressures[r])) if pressures[r] else 0.0)
        m["osga.nonfinite_fitness"] = per_run_median(lambda r: nonfinite[r])
        m["osga.step_us"] = per_run_median(osga_step_us)

        m["linear.fit_ols_us.p50"] = p50("linear.fit_ols", 1e6)
        m["linear.fit_ols_us.tail"], tails["linear.fit_ols_us"] = tail(
            "linear.fit_ols", 1e6)
        m["linear.fit_ols_calls"] = per_run_median(
            lambda r: get(r, "linear.fit_ols.calls"))
        m["linear.predict_us.p50"] = p50("linear.predict", 1e6)
        m["linear.enet_cell_ms.p50"] = p50("linear.fit_elastic_net", 1e3)
        m["linear.enet_sweeps"] = per_run_median(
            lambda r: count(r, "linear.enet_sweeps"))
        m["linear.enet_converged_frac"] = per_run_median(
            lambda r: ratio(count(r, "linear.enet_converged"),
                            count(r, "linear.enet_cells")))

        m["forest.fit_ms.p50"] = p50("forest.fit", 1e3)
        m["forest.fit_ms.tail"], tails["forest.fit_ms"] = tail(
            "forest.fit", 1e3)
        m["forest.nodes_grown"] = per_run_median(
            lambda r: count(r, "forest.nodes_grown"))
        m["forest.fit_us_per_node"] = per_run_median(
            lambda r: ratio(get(r, "forest.fit.total"),
                            count(r, "forest.nodes_grown")) * 1e6)
        m["forest.predict_us.p50"] = p50("forest.predict", 1e6)
        rows = [v for r in runs
                for v in self.values.get((r, "forest.predict_rows"), [])]
        m["forest.predict_rows_per_call"] = float(np.mean(rows)) \
            if rows else 0.0

        m["analysis.pool_s"] = per_run_median(
            lambda r: get(r, "analysis.build_model_pool.total"))
        m["analysis.search_s"] = per_run_median(
            lambda r: get(r, "analysis.optimize_inputs.total"))
        m["analysis.predict_calls_per_eval"] = per_run_median(
            lambda r: ratio(get(r, "search_predict.calls"),
                            count(r, "analysis.search_evaluations")))

        for layer in LAYERS:
            m[f"{layer}.self_ms"] = per_run_median(
                lambda r: get(r, "self." + layer) * 1e3)
        for name, pct in tails.items():
            m[f"{name}.tail_pct"] = pct
        return m, tails

    def dump(self) -> dict:
        return {
            "span_fields": ["id", "name", "start", "end", "parent", "run"],
            "spans": self.spans,
            "counts": [[r, n, c] for (r, n), c in sorted(self.counts.items())],
        }
