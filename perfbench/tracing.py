"""Layer spans for the traced benchmark run, recorded from outside the program.

The tracer replaces public hgchat functions with timing wrappers at the
place each one is looked up (``hgchat.model.hgnn_forward``, not
``hgchat.encoder.hgnn_forward``), keeps every span in memory with the id
of its parent, and puts the originals back when the traced pass ends, so
untraced runs carry no wrappers. Primitive applications are only counted:
a span per primitive would cost more than the primitive itself.
"""
from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, NamedTuple

# The primitive kinds diffcore registers today; a kind added later is
# counted under diffcore.prims.unlisted until the benchmark lists it.
PRIM_KINDS = ("matmul", "add", "elem_mul", "scale", "concat_cols", "concat_rows",
              "transpose", "sigmoid", "relu", "tanh", "softmax_rows", "mean_rows",
              "row_lookup", "affine", "log", "neg_pick", "dropout")


def _by_prefix(position: int, names: dict[str, str], default: str | None = None):
    """Span name chosen by the parameter prefix a shared block is called with."""
    def namer(args, kwargs):
        prefix = kwargs.get("prefix", args[position] if len(args) > position else None)
        return names.get(prefix, default or f"unnamed.{prefix}")
    return namer


def emitted(result) -> int:
    """Tokens a search emitted: the response plus the EOS it stopped on."""
    ids, truncated = result
    return len(ids) + (0 if truncated else 1)


class Target(NamedTuple):
    module: str
    attr: str               # "Class.method" patches the method on the class
    name: str | Callable    # span name, or namer(args, kwargs) -> name
    work: Callable | None = None   # work(args, kwargs, result) -> number kept on the span


TARGETS = (
    Target("hgchat.corpus", "synthesize_corpus", "corpus.synthesize"),
    Target("hgchat.corpus", "build_vocab", "corpus.vocab"),
    Target("hgchat.corpus", "build_roster", "corpus.roster"),
    Target("hgchat.model", "build_hetero_graph", "graph.build",
           lambda a, k, graph: graph.n_nodes),
    Target("hgchat.model", "assemble_node_features", "encoder.features"),
    Target("hgchat.encoder", "lstm_last_hidden", "encoder.lstm"),
    Target("hgchat.encoder", "multihead", _by_prefix(1, {"enc.ctx_attn": "encoder.ctx_attn"})),
    Target("hgchat.encoder", "project_modality", "encoder.modality"),
    Target("hgchat.encoder", "ffn", _by_prefix(1, {"enc.out_ffn": "encoder.out_ffn"},
                                               default="encoder.modality")),
    Target("hgchat.model", "hgnn_forward", "encoder.hgnn"),
    Target("hgchat.model", "predict_emotion", "encoder.predict"),
    Target("hgchat.model", "Model.encode", "model.encode"),
    Target("hgchat.model", "Model.losses", "model.losses"),
    Target("hgchat.model", "Model.sequence_stats", "model.sequence_stats"),
    Target("hgchat.model", "Model.predict_label", "model.predict_label"),
    Target("hgchat.model", "Model.generate", "model.generate"),
    Target("hgchat.model", "generate_ids", "decoder.search",
           lambda a, k, result: emitted(result)),
    Target("hgchat.decoder", "step_distributions", "decoder.step",
           lambda a, k, probs: probs.shape[0]),
    Target("hgchat.decoder", "multihead",
           _by_prefix(1, {"dec.self_attn": "decoder.self_attn",
                          "dec.cross_attn": "decoder.cross_attn"})),
    Target("hgchat.decoder", "ffn", "decoder.ffn"),
    Target("hgchat.decoder", "gate_fuse", "decoder.gate"),
    Target("hgchat.training", "train", "training.train",
           lambda a, k, result: len(a[0]) * a[1].epochs),
    Target("hgchat.training", "adam_step", "training.adam"),
    Target("hgchat.training", "backward", "diffcore.backward"),
    Target("hgchat.model", "save_checkpoint", "params.save",
           lambda a, k, result: os.path.getsize(a[0]) / 1e6),
    Target("hgchat.model", "load_checkpoint", "params.load"),
    Target("hgchat.metrics", "evaluate", "metrics.evaluate",
           lambda a, k, report: len(a[1])),
    Target("hgchat.metrics", "perplexity", "metrics.perplexity"),
)


class Span(NamedTuple):
    name: str
    parent: int          # index of the enclosing span, -1 at top level
    start: float
    end: float
    prims: int           # primitive applications inside the span
    work: float          # what the target's work() returned, else 0


def self_times(spans: list[Span]) -> Counter:
    """Seconds per span name, each span less the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out: Counter = Counter()
    for s, covered in zip(spans, child):
        out[s.name] += (s.end - s.start) - covered
    return out


def has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


class Tracer:
    """Spans and primitive counts of one traced pass."""

    def __init__(self):
        self.targets = TARGETS
        self.spans: list[Span] = []
        self.kinds: Counter = Counter()
        self.prims = 0
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, fn, target: Target):
        spans, stack, namer, work = self.spans, self._stack, target.name, target.work

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = namer(args, kwargs) if callable(namer) else namer
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            prims0 = self.prims
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, parent, start, end, self.prims - prims0, 0.0)
            if work is not None:
                spans[index] = spans[index]._replace(work=work(args, kwargs, result))
            return result
        return wrapper

    def _count(self, fn):
        kinds = self.kinds

        @functools.wraps(fn)
        def counting(kind, inputs, **meta):
            self.prims += 1
            kinds[kind] += 1
            return fn(kind, inputs, **meta)
        return counting

    def points(self) -> list[tuple[object, str]]:
        """Every (owner, attribute) the tracer patches, primitives first."""
        out = [(importlib.import_module("hgchat.diffcore"), "apply_primitive")]
        for target in self.targets:
            owner, attr = importlib.import_module(target.module), target.attr
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            out.append((owner, attr))
        return out

    def install(self) -> None:
        points = self.points()
        wrappers = [self._count(getattr(*points[0]))]
        wrappers += [self._wrap(getattr(owner, attr), target)
                     for (owner, attr), target in zip(points[1:], self.targets)]
        for (owner, attr), wrapper in zip(points, wrappers):
            self._originals.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def layer_metrics(self, traced_s: float, untraced_s: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, as name -> (value, unit)."""
        spans = self.spans
        own = self_times(spans)

        def named(name):
            return [i for i, s in enumerate(spans) if s.name == name]

        def total(name, under=None):
            return sum(spans[i].end - spans[i].start for i in named(name)
                       if under is None or has_ancestor(spans, i, under))

        def work(name, under=None):
            return sum(spans[i].work for i in named(name)
                       if under is None or has_ancestor(spans, i, under))

        def ratio(a, b):
            return a / b if b else 0.0

        builds = named("graph.build")
        evaluated = work("metrics.evaluate")
        tokens = work("decoder.search")
        covered = sum(s.end - s.start for s in spans if s.parent < 0)
        out = {f"{name}.self_s": (own[name], "s") for name in (
            "corpus.synthesize", "corpus.vocab", "corpus.roster", "graph.build",
            "encoder.features", "encoder.lstm", "encoder.ctx_attn", "encoder.modality",
            "encoder.hgnn", "encoder.out_ffn", "encoder.predict", "decoder.step",
            "decoder.self_attn", "decoder.cross_attn", "decoder.ffn", "decoder.gate",
            "decoder.search", "diffcore.backward", "training.train", "training.adam",
            "params.save", "params.load", "metrics.evaluate")}
        out.update({
            "graph.build.calls": (len(builds), "count"),
            "graph.nodes_mean": (ratio(work("graph.build"), len(builds)), "nodes"),
            "model.self_s": (sum(v for k, v in own.items() if k.startswith("model.")), "s"),
            "model.encode.calls": (len(named("model.encode")), "count"),
            "model.encode.calls_per_record": (
                ratio(len([i for i in named("model.encode")
                           if has_ancestor(spans, i, "metrics.evaluate")]), evaluated),
                "calls/record"),
            "decoder.step.calls": (len(named("decoder.step")), "count"),
            "decoder.rows_per_token": (
                ratio(work("decoder.step", under="decoder.search"), tokens), "rows/token"),
            "diffcore.prims_per_dialogue": (
                ratio(sum(spans[i].prims for i in named("training.train")),
                      work("training.train")), "prims/dialogue"),
            "diffcore.prims_per_token": (
                ratio(sum(spans[i].prims for i in named("decoder.search")), tokens),
                "prims/token"),
            "training.adam.calls": (len(named("training.adam")), "count"),
            "params.ckpt_mb": (ratio(work("params.save"), len(named("params.save"))), "MB"),
            "metrics.perplexity.total_s": (total("metrics.perplexity"), "s"),
            "metrics.generate.total_s": (total("model.generate", under="metrics.evaluate"), "s"),
            "metrics.predict.total_s": (total("model.predict_label", under="metrics.evaluate"),
                                        "s"),
            "other.self_s": (traced_s - covered, "s"),
            "trace.wall_s": (traced_s, "s"),
            "trace.overhead_pct": (100.0 * (traced_s - untraced_s) / untraced_s, "%"),
        })
        for kind in PRIM_KINDS:
            out[f"diffcore.prims.{kind}"] = (self.kinds[kind], "count")
        out["diffcore.prims.unlisted"] = (
            sum(n for kind, n in self.kinds.items() if kind not in PRIM_KINDS), "count")
        return out
