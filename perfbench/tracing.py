"""In-memory span tracing around the public calls of troikit's layer modules.

The tracer patches module attributes from the outside; nothing under
``src/`` knows about it. A span is one list

    [name, start, end, parent, enclosing, step]

with times from ``time.perf_counter``. ``parent`` is the span that caused
this one: the enclosing span for a forward call, and the forward span that
created the graph node for a backward closure. ``enclosing`` is the span
that was open when this one started. Everything runs on one thread, so
spans nest properly in time and a span's self time is its duration minus
the durations of the spans it directly encloses.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import troikit.backbone as backbone
import troikit.encoder as encoder
import troikit.tensor as tensor
import troikit.train as train
import troikit.troi as troi

NAME, START, END, PARENT, ENCL, STEP = range(6)

# Self-time metrics: the span name each is summed over. Their per-step
# totals plus step.other_ms add up to the traced step.
SELF_METRICS = {
    **{f"backbone.stage{s}.{d}_ms": f"backbone.stage{s}.{d}" for s in range(4) for d in ("fwd", "bwd")},
    "backbone.head.fwd_ms": "backbone.head.fwd",
    "backbone.head.bwd_ms": "backbone.head.bwd",
    "rois.extract.fwd_ms": "rois.extract.fwd",
    "rois.extract.bwd_ms": "rois.extract.bwd",
    "rois.write_back.fwd_ms": "rois.write_back.fwd",
    "rois.write_back.bwd_ms": "rois.write_back.bwd",
    "posenc.fwd_ms": "posenc.fwd",
    "encoder.fwd_ms": "encoder.fwd",
    "encoder.bwd_ms": "encoder.bwd",
    "troi.self_ms": "troi.fwd",
    "troi.bwd_ms": "troi.bwd",
    "tensor.backward.self_ms": "tensor.backward",
    "tensor.loss_ms": "tensor.loss",
    "train.data_ms": "train.data",
    "train.sgd_ms": "train.sgd",
    "step.other_ms": "step",
}

# Call counts: the span name whose spans are counted.
CALL_METRICS = {
    "rois.extract.fwd_calls": "rois.extract.fwd",
    "rois.extract.bwd_calls": "rois.extract.bwd",
    "rois.write_back.fwd_calls": "rois.write_back.fwd",
    "rois.write_back.bwd_calls": "rois.write_back.bwd",
}

# Counters the wrappers record, reported per step.
COUNT_METRICS = (
    "rois.boxes_in",
    "rois.boxes_kept",
    "rois.boxes_dropped",
    "rois.cells_written",
    "rois.cells_shared",
    "encoder.rows",
)


class Tracer:
    """Spans and counters of one traced phase, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[str, int], float] = defaultdict(float)  # (name, step) -> total
        self.footprints: list = []  # (step, boxes, footprints) per write_back call in a step
        self.step = None  # id of the open step; None between steps
        self._steps = 0
        self._step_span = None
        self._stack: list[tuple[int, str | None]] = []  # (span index, backward span name)

    # -- spans ------------------------------------------------------------

    def open(self, name: str, bwd: str | None = None, parent: int | None = None) -> int:
        encl = self._stack[-1][0] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, encl if parent is None else parent, encl, self.step])
        self._stack.append((idx, bwd))
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        top, _ = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx][NAME]} closed out of order")

    def begin_step(self) -> None:
        self.step = self._steps
        self._steps += 1
        self._step_span = self.open("step")

    def end_step(self) -> None:
        self.close(self._step_span)
        self.step = None

    def count(self, name: str, value: float) -> None:
        if self.step is not None:
            self.counts[(name, self.step)] += value

    def wrap(self, fn, name: str, bwd: str | None = None):
        """``fn`` inside a span; graph nodes it creates get ``bwd`` spans."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, bwd)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def tag_node(self, out) -> None:
        """Wrap a new graph node's backward closure in a span named by the
        innermost open forward span, with that span as its parent."""
        if out._backward is None or not self._stack:
            return
        parent, bwd = self._stack[-1]
        if bwd is None:
            return
        closure = out._backward

        def traced_backward(g):
            idx = self.open(bwd, parent=parent)
            try:
                closure(g)
            finally:
                self.close(idx)

        out._backward = traced_backward

    # -- results ----------------------------------------------------------

    def write(self, path) -> None:
        """Spans as compact JSON: a name table plus one row per span."""
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [
            [index[s[NAME]], round((s[START] - t0) * 1e6, 1), round((s[END] - t0) * 1e6, 1), s[PARENT], s[ENCL], s[STEP]]
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_us", "end_us", "parent", "enclosing", "step"], "names": names, "spans": rows}, fh)


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of the spans it encloses."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[ENCL] is not None:
            out[s[ENCL]] -= s[END] - s[START]
    return out


def cell_counts(boxes, footprints) -> tuple[int, int]:
    """(distinct cells written, cells covered by more than one box)."""
    cover: dict[tuple[int, int, int], int] = defaultdict(int)
    for box, fp in zip(boxes, footprints):
        for cell in fp.cells():
            cover[(box.frame,) + cell] += 1
    return len(cover), sum(1 for n in cover.values() if n > 1)


def layer_metrics(tracer: Tracer, first_step: int = 0) -> dict[str, float]:
    """Per-step totals over the steps the tracer saw from ``first_step`` on."""
    steps = tracer._steps - first_step
    if steps < 1:
        raise RuntimeError(f"the traced phase completed {tracer._steps} steps, fewer than {first_step + 1}")
    selfs = self_times(tracer.spans)
    by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    for span, own in zip(tracer.spans, selfs):
        if span[STEP] is None or span[STEP] < first_step:
            continue
        by_name[span[NAME]] += own
        calls[span[NAME]] += 1
        total[span[NAME]] += span[END] - span[START]
    out = {metric: 1e3 * by_name[name] / steps for metric, name in SELF_METRICS.items()}
    out["tensor.backward_ms"] = 1e3 * total["tensor.backward"] / steps
    out["step.total_ms"] = 1e3 * total["step"] / steps
    out.update({metric: calls[name] / steps for metric, name in CALL_METRICS.items()})
    counts: dict[str, float] = defaultdict(float)
    for (name, step), value in tracer.counts.items():
        if step >= first_step:
            counts[name] += value
    for step, boxes, footprints in tracer.footprints:
        if step >= first_step:
            written, shared = cell_counts(boxes, footprints)
            counts["rois.cells_written"] += written
            counts["rois.cells_shared"] += shared
    out.update({name: counts[name] / steps for name in COUNT_METRICS})
    out["troi.bypass_ratio"] = counts["troi.bypassed"] / counts["troi.calls"] if counts["troi.calls"] else 0.0
    return out


@contextmanager
def traced(tracer: Tracer, model):
    """Patch the layer modules' public calls with spans for the duration of
    the block, and restore them afterwards."""
    stage_of = {id(w): s for s, w in enumerate(model.stage_weights)}
    current = {"stage": 0}

    def stage_op(fn, sets_stage=False):
        @functools.wraps(fn)
        def op(x, *args, **kwargs):
            if sets_stage:
                current["stage"] = stage_of[id(args[0])]
            s = current["stage"]
            idx = tracer.open(f"backbone.stage{s}.fwd", f"backbone.stage{s}.bwd")
            try:
                return fn(x, *args, **kwargs)
            finally:
                tracer.close(idx)

        return op

    def extract(fn):
        @functools.wraps(fn)
        def op(x, rois, *args, **kwargs):
            fset = fn(x, rois, *args, **kwargs)
            tracer.count("rois.boxes_in", len(rois))
            tracer.count("rois.boxes_kept", len(fset))
            tracer.count("rois.boxes_dropped", fset.dropped)
            return fset

        return tracer.wrap(op, "rois.extract.fwd", "rois.extract.bwd")

    def write_back(fn):
        @functools.wraps(fn)
        def op(x, fset):
            if tracer.step is not None:
                tracer.footprints.append((tracer.step, fset.boxes, fset.footprints))
            return fn(x, fset)

        return tracer.wrap(op, "rois.write_back.fwd", "rois.write_back.bwd")

    def troi_forward(fn):
        @functools.wraps(fn)
        def op(self, x, *args, **kwargs):
            out = fn(self, x, *args, **kwargs)
            tracer.count("troi.calls", 1)
            tracer.count("troi.bypassed", out is x)
            return out

        return tracer.wrap(op, "troi.fwd", "troi.bwd")

    def encoder_forward(fn):
        @functools.wraps(fn)
        def op(self, feats, *args, **kwargs):
            tracer.count("encoder.rows", feats.data.shape[0])
            return fn(self, feats, *args, **kwargs)

        return tracer.wrap(op, "encoder.fwd", "encoder.bwd")

    orig_result = tensor.Tensor.__dict__["_result"].__func__

    def tagged_result(cls, data, parents, backward):
        out = orig_result(cls, data, parents, backward)
        tracer.tag_node(out)
        return out

    patches = [
        (tensor.Tensor, "_result", classmethod(tagged_result)),
        (backbone, "conv2d", stage_op(backbone.conv2d, sets_stage=True)),
        (backbone, "relu", stage_op(backbone.relu)),
        (backbone, "max_pool2d", stage_op(backbone.max_pool2d)),
        (backbone.VideoClassifier, "forward_batch",
         tracer.wrap(backbone.VideoClassifier.forward_batch, "backbone.head.fwd", "backbone.head.bwd")),
        (backbone.VideoClassifier, "_apply_troi", tracer.wrap(backbone.VideoClassifier._apply_troi, "troi.fwd", "troi.bwd")),
        (troi.TroiModule, "forward", troi_forward(troi.TroiModule.forward)),
        (troi, "extract_features", extract(troi.extract_features)),
        (troi, "write_back", write_back(troi.write_back)),
        (troi, "order_rois", tracer.wrap(troi.order_rois, "posenc.fwd")),
        (troi, "encoding_matrix", tracer.wrap(troi.encoding_matrix, "posenc.fwd")),
        (encoder.Encoder, "forward", encoder_forward(encoder.Encoder.forward)),
        (train, "_forward_batch", tracer.wrap(train._forward_batch, "train.data")),
        (train, "corrupt_rois", tracer.wrap(train.corrupt_rois, "train.data")),
        (train, "cross_entropy", tracer.wrap(train.cross_entropy, "tensor.loss", "tensor.loss")),
        (train, "backward", tracer.wrap(train.backward, "tensor.backward")),
        (train, "sgd_step", tracer.wrap(train.sgd_step, "train.sgd")),
        (train, "zero_grad", tracer.wrap(train.zero_grad, "train.sgd")),
    ]
    with patched(patches):
        yield tracer


@contextmanager
def patched(patches):
    """Set (owner, attribute, value) triples; restore the old values on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
