"""Outside-in tracing for the benchmark's traced run.

The tracer replaces public functions at the names their callers look up
(``salign.training.grad``, ``salign.cli.predict_batch``, ...) with wrappers
that record a span (name, start, end, parent, attributes) around the
original call. Wrappers flagged to count nodes open a ``salign.Graph`` for
the call and record how many graph nodes each op produced. Spans stay in
memory until the run ends. Nothing in the program is edited: unwrapping
restores every attribute exactly.
"""

from __future__ import annotations

import collections
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, graph_cls):
        self.graph_cls = graph_cls
        self.origin = time.perf_counter()
        self.spans = []
        self.context = {}  # copied into every span, e.g. the running command
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter() - self.origin,
            "end": None,
            "attrs": dict(self.context, **attrs),
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.origin
            self._stack.pop()

    def wrap(self, owner, attr, name, nodes=False, describe=None, after=None):
        """Trace calls to ``owner.attr``; ``describe(args, kwargs)`` and
        ``after(result)`` add attributes to the call's span."""
        raw = vars(owner)[attr]
        target = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            attrs = describe(args, kwargs) if describe else {}
            with tracer.span(name, **attrs) as record:
                if nodes:
                    with tracer.graph_cls() as graph:
                        result = target(*args, **kwargs)
                    ops = collections.Counter(t.op for t in graph.nodes)
                    record["attrs"]["nodes"] = sum(ops.values())
                    record["attrs"]["ops"] = dict(ops)
                else:
                    result = target(*args, **kwargs)
                if after:
                    record["attrs"].update(after(result))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, raw))

    def unwrap(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


def _create_graph(args, kwargs):
    return {"create_graph": bool(kwargs.get("create_graph", args[2] if len(args) > 2 else False))}


def _examples(args, kwargs):
    return {"n": len(args[2])}


def install(tracer, salign):
    """Wrap each layer's public entry points at their callers' names."""
    cli, training, evaluation = salign.cli, salign.training, salign.evaluation
    tracer.wrap(cli, "gen_synthetic", "data.gen_synthetic")
    tracer.wrap(cli, "save_jsonl", "data.save_jsonl")
    tracer.wrap(cli, "load_jsonl", "data.load_jsonl", after=lambda ds: {"n": len(ds.examples)})
    tracer.wrap(salign.model.ModelParams, "load", "model.checkpoint_load")
    tracer.wrap(training, "encode_batch", "model.forward", nodes=True)
    tracer.wrap(training, "grad", "engine.grad", nodes=True, describe=_create_graph)
    tracer.wrap(training, "adam_step", "training.adam_step")
    tracer.wrap(training, "predict_batch", "training.dev_predict")
    tracer.wrap(cli, "predict_batch", "evaluation.predict_batch", describe=_examples)
    tracer.wrap(evaluation, "predict_batch", "evaluation.predict_batch", describe=_examples)
    tracer.wrap(evaluation, "saliency_scores", "evaluation.saliency_scores", describe=_examples)
    tracer.wrap(cli, "saliency_report", "evaluation.saliency_report")
    tracer.wrap(cli, "render_heatmap", "report.render_heatmap")
    tracer.wrap(salign.loss, "total_cost", "loss.total_cost")
    tracer.wrap(salign.gradcheck, "select_smooth_positives", "gradcheck.select")


def _ms(span):
    return 1000.0 * (span["end"] - span["start"])


def _median_ms(spans):
    return statistics.median(_ms(s) for s in spans) if spans else None


def _ms_per_kex(spans):
    examples = sum(s["attrs"]["n"] for s in spans)
    return 1000.0 * sum(_ms(s) for s in spans) / examples if examples else None


def _median(values):
    return statistics.median(values) if values else None


# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "cli.import_ms": "ms",
    "data.synth_ms": "ms",
    "data.load_jsonl_ms_per_kex": "ms",
    "model.checkpoint_load_ms": "ms",
    "model.forward_ms": "ms",
    "model.forward_nodes": "count",
    "engine.level_grad_ms": "ms",
    "engine.level_grad_nodes": "count",
    "engine.param_grad_base_ms": "ms",
    "engine.param_grad_align_ms": "ms",
    "engine.param_grad_align_nodes": "count",
    "ops.step_nodes": "count",
    "ops.shift_rows_nodes": "count",
    "training.adam_ms": "ms",
    "training.dev_predict_ms": "ms",
    "evaluation.predict_ms_per_kex": "ms",
    "evaluation.saliency_scores_ms_per_kex": "ms",
    "evaluation.saliency_report_ms": "ms",
    "evaluation.single_predict_ms": "ms",
    "report.render_ms": "ms",
    "loss.total_cost_ms": "ms",
    "gradcheck.cost_evals": "count",
    "gradcheck.select_ms": "ms",
    "trace.slowdown": "ratio",
}


def per_layer(spans, import_ms, synth_ms, slowdown):
    """Per-layer figures from the traced rounds' spans; a layer whose
    wrapper never fired maps to None (missing), never to zero."""
    by = collections.defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)

    def where(name, **attrs):
        return [s for s in by[name] if all(s["attrs"].get(k) == v for k, v in attrs.items())]

    forward = by["model.forward"]
    level = where("engine.grad", create_graph=True)
    param_base = where("engine.grad", create_graph=False, variant="base")
    param_align = where("engine.grad", create_graph=False, variant="align")
    align_stage = where("model.forward", variant="align") + where("engine.grad", variant="align")
    align_steps = len(where("training.adam_step", variant="align"))
    batch_predict = [s for s in by["evaluation.predict_batch"] if s["attrs"]["command"] != "saliency"]
    gradchecks = len(where("cli.command", command="gradcheck"))
    cost_evals = len(where("loss.total_cost", command="gradcheck"))

    def per_step(key):
        if not align_steps:
            return None
        return sum(key(s) for s in align_stage) / align_steps

    return {
        "cli.import_ms": import_ms,
        "data.synth_ms": synth_ms,
        "data.load_jsonl_ms_per_kex": _ms_per_kex(by["data.load_jsonl"]),
        "model.checkpoint_load_ms": _median_ms(by["model.checkpoint_load"]),
        "model.forward_ms": _median_ms(forward),
        "model.forward_nodes": _median([s["attrs"]["nodes"] for s in forward]),
        "engine.level_grad_ms": _median_ms(level),
        "engine.level_grad_nodes": _median([s["attrs"]["nodes"] for s in level]),
        "engine.param_grad_base_ms": _median_ms(param_base),
        "engine.param_grad_align_ms": _median_ms(param_align),
        "engine.param_grad_align_nodes": _median([s["attrs"]["nodes"] for s in param_align]),
        "ops.step_nodes": per_step(lambda s: s["attrs"]["nodes"]),
        "ops.shift_rows_nodes": per_step(lambda s: s["attrs"]["ops"].get("shift_rows", 0)),
        "training.adam_ms": _median_ms(by["training.adam_step"]),
        "training.dev_predict_ms": _median_ms(by["training.dev_predict"]),
        "evaluation.predict_ms_per_kex": _ms_per_kex(batch_predict),
        "evaluation.saliency_scores_ms_per_kex": _ms_per_kex(by["evaluation.saliency_scores"]),
        "evaluation.saliency_report_ms": _median_ms(by["evaluation.saliency_report"]),
        "evaluation.single_predict_ms": _median_ms(where("evaluation.predict_batch", command="saliency")),
        "report.render_ms": _median_ms(by["report.render_heatmap"]),
        "loss.total_cost_ms": _median_ms(by["loss.total_cost"]),
        "gradcheck.cost_evals": cost_evals / gradchecks if cost_evals else None,
        "gradcheck.select_ms": _median_ms(by["gradcheck.select"]),
        "trace.slowdown": slowdown,
    }


def op_counts_per_call(spans):
    """Mean node count per op for each node-counting stage, the
    breakdown a conv or engine change should move."""
    stages = collections.defaultdict(lambda: [0, collections.Counter()])
    for s in spans:
        if "ops" not in s["attrs"]:
            continue
        key = s["name"]
        if s["name"] == "engine.grad":
            key = "engine.level_grad" if s["attrs"]["create_graph"] else "engine.param_grad"
        stage = stages[f"{key}/{s['attrs'].get('variant')}"]
        stage[0] += 1
        stage[1].update(s["attrs"]["ops"])
    return {
        key: {op: count / calls for op, count in sorted(ops.items())}
        for key, (calls, ops) in sorted(stages.items())
    }
