"""The benchmark's workloads: set-up, closed-loop measurement and output checks.

Each workload runs in one process, one operation at a time: a training
step on the train workloads, an eval batch on ``eval-corrupt``. Inputs are
generated from the dataset seed; the program sees only the videos.
"""

from __future__ import annotations

import functools
import hashlib
import math
import resource
import statistics
import time
import traceback
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import troikit.train as train
from troikit import BackboneSpec, TroiConfig, VideoClassifier, build_dataset, corrupt_rois
from troikit.tensor import Tensor, no_grad
from troikit.tensor import zero_grad as clear_grads

from tracing import Tracer, layer_metrics, patched, traced

SPEC = BackboneSpec()  # acceptance shape: T=8, 32x32, channels 16/32/64/64
MODEL_SEED = 0
TRAIN_PER_CLASS = 32  # 192 videos: 12 full batches of 16 per epoch
TRAIN_VAL_PER_CLASS = 1  # train_model evaluates this set after every epoch
TRAIN_CFG = dict(epochs=10_000, batch_size=16, lr=0.01)  # the run ends on time, never on epochs
EVAL_PER_CLASS = 16  # 96 videos: 3 batches of 32 per corruption mode
EVAL_BATCH = 32
EVAL_MODES = (None, "iou@0.50", "iou@0.25", "iou@0.05", "drop-all")  # criterion 6 order; None is gt
LOSS_STEP = 24  # loss_after_steps averages the losses of steps LOSS_STEP-LOSS_WINDOW+1..LOSS_STEP
LOSS_WINDOW = 8
SETUP_REPEATS = 3  # before and again after the measurement; one more at each epoch or cycle end
TAIL_BEYOND = 10
WARMUP_OPS = 3  # the first operations of a phase run slow while memory is first touched; not timed
F32_TOL = 1e-4
LEAK_CHECK_BATCHES = 3  # the last training batches re-run against single videos after the phase


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result (not a failed operation)."""


class _Stop(Exception):
    """Raised from a step hook to end a time-bounded training phase."""


@dataclass
class Inputs:
    videos: list  # trained or evaluated on
    val: list  # the per-epoch val set of the train workloads
    troi: bool


@dataclass
class Phase:
    """What one measured phase saw."""

    step_s: list = field(default_factory=list)  # completed operations only
    rows: list = field(default_factory=list)  # videos in each of them
    losses: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    loss: float | None = None  # see loss_after_steps in the README
    problems: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(what)


def tail_percentile(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ``beyond``
    samples above it: the (beyond+1)-th largest sample."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        raise BenchmarkError(f"{n} samples leave no percentile with {beyond} beyond it")
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def build_model(troi: bool) -> VideoClassifier:
    return VideoClassifier(SPEC, TroiConfig() if troi else None, seed=MODEL_SEED)


def setup(workload: str, seed: int, times: dict, repeats: int = SETUP_REPEATS) -> Inputs:
    """Generate the inputs and build the model ``repeats`` times, appending
    each set-up and dataset-generation time to ``times``."""
    for _ in range(repeats):
        t0 = time.perf_counter()
        if workload == "eval-corrupt":
            inputs = Inputs(build_dataset(seed, EVAL_PER_CLASS, workers=1), [], True)
        else:
            videos = build_dataset(seed, TRAIN_PER_CLASS, workers=1)
            val = build_dataset(seed + 1, TRAIN_VAL_PER_CLASS, workers=1)
            inputs = Inputs(videos, val, workload == "train-troi")
        t1 = time.perf_counter()
        build_model(inputs.troi)
        t2 = time.perf_counter()
        times["setup_s"].append(t2 - t0)
        times["build_dataset_s"].append(t1 - t0)
    return inputs


def inputs_digest(inputs: Inputs) -> str:
    """sha256 over every generated video: frames, labels and box lists."""
    h = hashlib.sha256()
    for v in inputs.videos + inputs.val:
        h.update(np.ascontiguousarray(v.frames).tobytes())
        h.update(repr((v.label, [(b.frame, b.x1, b.y1, b.x2, b.y2, b.entity) for b in v.rois])).encode())
    return h.hexdigest()


def _logits_ok(data: np.ndarray, rows: int) -> str | None:
    if data.shape != (rows, SPEC.classes):
        return f"logits shape {data.shape}, expected {(rows, SPEC.classes)}"
    if not np.isfinite(data).all():
        return "non-finite logit"
    return None


def _cross_entropy64(logits: np.ndarray, labels) -> float:
    z = logits.astype(np.float64)
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    return float((lse - z[np.arange(len(labels)), labels]).mean())


def _layers(tracer: Tracer | None, model):
    return traced(tracer, model) if tracer is not None else nullcontext()


# ---------------------------------------------------------------------------
# training


def train_phase(
    inputs: Inputs, seconds: float, tracer: Tracer | None = None, min_steps: int = 0, between=None
) -> Phase:
    """``train_model`` on the inputs until ``seconds`` have passed and at
    least ``min_steps`` steps are done; each step is timed and checked.
    ``between`` is called at every epoch end, outside the timed steps."""
    phase = Phase()
    model = build_model(inputs.troi)
    cfg = train.TrainConfig(**TRAIN_CFG)
    state = {"in_eval": False, "t0": None, "bad": None, "checks": [], "recent": deque(maxlen=LEAK_CHECK_BATCHES)}
    deadline = time.perf_counter() + seconds

    with _layers(tracer, model):
        forward_batch, cross_entropy, zero_grad, evaluate = (
            train._forward_batch, train.cross_entropy, train.zero_grad, train.evaluate,
        )

        def hook_forward_batch(model_, videos, idx, corrupt=None):
            if state["in_eval"]:
                return forward_batch(model_, videos, idx, corrupt)
            phase.attempted += 1
            state["bad"] = None
            if tracer is not None:
                tracer.begin_step()
            state["t0"] = time.perf_counter()
            state["rows"] = len(idx)
            state["recent"].append(list(idx))
            logits, labels = forward_batch(model_, videos, idx, corrupt)
            state["bad"] = _logits_ok(logits.data, len(idx))
            return logits, labels

        def hook_cross_entropy(logits, labels):
            loss = cross_entropy(logits, labels)
            if not state["in_eval"]:
                value = loss.item()
                phase.losses.append(value)
                if not math.isfinite(value):
                    state["bad"] = state["bad"] or "non-finite loss"
                elif len(state["checks"]) < LOSS_STEP:
                    state["checks"].append((logits.data.copy(), list(labels), value))
            return loss

        def end_step(completed: bool):
            if completed:
                phase.step_s.append(time.perf_counter() - state["t0"])
                phase.rows.append(state["rows"])
            state["t0"] = None
            if tracer is not None:
                tracer.end_step()

        def hook_zero_grad(params):
            zero_grad(params)
            if state["in_eval"] or state["t0"] is None:
                return
            end_step(True)
            if state["bad"]:
                phase.fail(state["bad"])
            if time.perf_counter() >= deadline and len(phase.step_s) >= min_steps:
                raise _Stop

        def hook_evaluate(*args, **kwargs):
            if between is not None:
                between()
            state["in_eval"] = True
            try:
                return evaluate(*args, **kwargs)
            finally:
                state["in_eval"] = False

        hooks = [
            (train, "_forward_batch", hook_forward_batch),
            (train, "cross_entropy", hook_cross_entropy),
            (train, "zero_grad", hook_zero_grad),
            (train, "evaluate", hook_evaluate),
        ]
        with patched(hooks):
            while True:
                try:
                    train.train_model(model, inputs.videos, inputs.val, cfg)
                except _Stop:
                    break
                except Exception:  # a failed operation: count it and carry on
                    if state["t0"] is not None:
                        end_step(False)
                    else:
                        phase.attempted += 1
                    phase.fail(traceback.format_exc(limit=3))
                    clear_grads([p for _, p in model.parameters()])
                    if time.perf_counter() >= deadline:
                        break
                else:
                    raise BenchmarkError("train_model ran out of epochs before the time limit")
    with no_grad():
        for idx in state["recent"]:
            phase.attempted += 1
            logits, _ = train._forward_batch(model, inputs.videos, idx)
            problem = _logits_ok(logits.data, len(idx))
            if problem:
                phase.fail(problem)
            else:
                _check_single(phase, model, inputs.videos, None, idx, logits.data)
    for logits, labels, value in state["checks"]:
        ref = _cross_entropy64(logits, labels)
        if abs(value - ref) > F32_TOL * max(1.0, abs(ref)):
            phase.fail(f"loss {value} differs from the float64 recomputation {ref}")
    if len(phase.losses) >= LOSS_STEP:
        phase.loss = float(np.mean(phase.losses[LOSS_STEP - LOSS_WINDOW : LOSS_STEP]))
    return phase


# ---------------------------------------------------------------------------
# evaluation under corrupted boxes


def eval_phase(inputs: Inputs, seconds: float, tracer: Tracer | None = None, between=None) -> Phase:
    """``evaluate`` over the val set in every mode of ``EVAL_MODES``, whole
    cycles at a time, until ``seconds`` have passed. ``between`` is called
    after every cycle."""
    phase = Phase()
    model = build_model(True)
    videos = inputs.videos
    batches: list = []  # (mode, idx, logits, labels) of the current evaluate call
    first_cycle: dict = {}  # (mode, first index) -> logits
    gt_losses: list = []
    deadline = time.perf_counter() + seconds

    with _layers(tracer, model):
        forward_batch = train._forward_batch

        def hook_forward_batch(model_, videos_, idx, corrupt=None):
            phase.attempted += 1
            if tracer is not None:
                tracer.begin_step()
            t0 = time.perf_counter()
            try:
                logits, labels = forward_batch(model_, videos_, idx, corrupt)
                elapsed = time.perf_counter() - t0
            finally:
                if tracer is not None:
                    tracer.end_step()
            phase.step_s.append(elapsed)
            phase.rows.append(len(idx))
            batches.append((corrupt, list(idx), logits.data.copy(), labels))
            return logits, labels

        cycles = 0
        with patched([(train, "_forward_batch", hook_forward_batch)]):
            while True:
                for mode in EVAL_MODES:
                    batches.clear()
                    try:
                        result = train.evaluate(model, videos, corrupt=mode, batch_size=EVAL_BATCH)
                    except Exception:  # a failed operation: count it and carry on
                        phase.fail(traceback.format_exc(limit=3))
                        continue
                    _check_eval(phase, videos, batches, result, first_cycle, cycles)
                    if cycles == 0 and mode is None:
                        gt_losses.extend(_cross_entropy64(z, labels) * len(labels) for _, _, z, labels in batches)
                cycles += 1
                if time.perf_counter() >= deadline:
                    break
                if between is not None:
                    between()
    with no_grad():
        for (mode, _), (idx, logits) in first_cycle.items():
            _check_single(phase, model, videos, mode, idx, logits)
    if gt_losses:
        phase.loss = sum(gt_losses) / len(videos)
    phase.attempted = max(phase.attempted, phase.failed)
    return phase


def _check_eval(phase: Phase, videos, batches, result, first_cycle: dict, cycle: int) -> None:
    """Per-batch output checks, evaluate's top-1 against the captured
    logits, and every cycle against the first."""
    hits = 0
    for mode, idx, logits, labels in batches:
        problem = _logits_ok(logits, len(idx))
        key = (mode, idx[0])
        if problem is None and cycle == 0:
            first_cycle[key] = (idx, logits)
        elif problem is None and key in first_cycle and not np.array_equal(first_cycle[key][1], logits):
            problem = f"mode {mode}: batch at {idx[0]} changed between cycles"
        if problem:
            phase.fail(problem)
        hits += int((logits.argmax(axis=1) == np.asarray(labels)).sum())
    if abs(result["top1"] - hits / len(videos)) > 1e-12:
        phase.fail(f"evaluate top1 {result['top1']} != {hits / len(videos)} from its own logits")


def _check_single(phase: Phase, model, videos, mode, idx, logits) -> None:
    """Re-run the first and last video of a batch alone: a batched path
    must not leak between videos. One failure at most per batch."""
    for row in sorted({0, len(idx) - 1}):
        video = videos[idx[row]]
        rois = video.rois if mode is None else corrupt_rois(video.rois, mode)
        single = model.forward(Tensor(video.frames), rois).data
        if not np.allclose(single, logits[row], rtol=F32_TOL, atol=F32_TOL):
            err = float(np.abs(single - logits[row]).max())
            phase.fail(f"mode {mode}: video {idx[row]} alone differs from its batch by {err:.3g}")
            return


# ---------------------------------------------------------------------------
# one benchmark run


def end_to_end(phase: Phase, peak_rss_mb: float) -> dict:
    step_s, rows = phase.step_s[WARMUP_OPS:], phase.rows[WARMUP_OPS:]
    tail, pct = tail_percentile(step_s)
    if phase.loss is None:
        raise BenchmarkError("the run recorded no loss to report")
    return {
        "videos_per_s": sum(rows) / sum(step_s),
        "step_ms_p50": 1e3 * statistics.median(step_s),
        "step_ms_tail": 1e3 * tail,
        "peak_rss_mb": peak_rss_mb,
        "loss_after_steps": phase.loss,
        "_detail": {"step_samples": len(step_s), "warmup_ops": WARMUP_OPS, "tail_percentile": pct},
    }


def run(workload: str, seed: int, seconds: float, trace: bool, trace_path=None) -> dict:
    """Set up, measure and check one workload; returns the result record."""
    setup_times = {"setup_s": [], "build_dataset_s": []}
    inputs = setup(workload, seed, setup_times)
    digest = inputs_digest(inputs)
    measure = functools.partial(
        eval_phase if workload == "eval-corrupt" else train_phase,
        between=lambda: setup(workload, seed, setup_times, repeats=1),
    )
    if not trace:
        kwargs = {} if workload == "eval-corrupt" else {"min_steps": LOSS_STEP}
        phase = measure(inputs, seconds, **kwargs)
        metrics = end_to_end(phase, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        phases = [phase]
    else:
        plain = measure(inputs, seconds / 2)
        tracer = Tracer()
        with_spans = measure(inputs, seconds / 2, tracer)
        metrics = layer_metrics(tracer, first_step=WARMUP_OPS)
        metrics["trace_overhead_ratio"] = (
            statistics.median(with_spans.step_s[WARMUP_OPS:]) / statistics.median(plain.step_s[WARMUP_OPS:])
        )
        metrics["_detail"] = {
            "step_samples": len(with_spans.step_s) - WARMUP_OPS,
            "untraced_step_samples": len(plain.step_s) - WARMUP_OPS,
            "warmup_ops": WARMUP_OPS,
        }
        if trace_path is not None:
            tracer.write(trace_path)
        phases = [plain, with_spans]
    setup(workload, seed, setup_times)
    if trace:
        metrics["synth.build_dataset_s"] = statistics.median(setup_times["build_dataset_s"])
    else:
        metrics["setup_s"] = statistics.median(setup_times["setup_s"])
        metrics["_detail"]["setup_samples"] = len(setup_times["setup_s"])
    return {
        "workload": workload,
        "seed": seed,
        "inputs_sha256": digest,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "problems": [x for p in phases for x in p.problems],
        "metrics": metrics,
    }
