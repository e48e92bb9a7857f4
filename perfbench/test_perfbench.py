"""Self-tests of the benchmark's own code: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import troikit.train as train  # noqa: E402
from troikit import build_dataset  # noqa: E402
from troikit.tensor import Tensor, no_grad, precision  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import SELF_METRICS, Tracer, layer_metrics, self_times  # noqa: E402


def span(name, start, end, encl, parent=None, step=0):
    return [name, start, end, encl if parent is None else parent, encl, step]


def test_self_time_subtracts_enclosed_spans_only():
    spans = [
        span("step", 0.0, 10.0, None),
        span("a", 1.0, 4.0, 0),
        span("b", 2.0, 3.0, 1),
        span("tensor.backward", 5.0, 9.0, 0),
        # a backward closure: caused by "a", enclosed by the backward walk
        span("a.bwd", 6.0, 8.0, 3, parent=1),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 2.0, 2.0]
    assert sum(self_times(spans)) == 10.0


def test_layer_metrics_split_the_step_exactly():
    tracer = Tracer()
    tracer.spans = [
        span("step", 0.0, 0.010, None),
        span("train.data", 0.001, 0.004, 0),
        span("backbone.stage0.fwd", 0.002, 0.003, 1),
        span("tensor.backward", 0.005, 0.009, 0),
        span("backbone.stage0.bwd", 0.006, 0.008, 3, parent=2),
        span("train.data", 0.011, 0.012, None, step=None),  # between steps: ignored
    ]
    tracer._steps = 1
    m = layer_metrics(tracer)
    assert m["step.total_ms"] == pytest.approx(10.0)
    assert m["backbone.stage0.fwd_ms"] == pytest.approx(1.0)
    assert m["backbone.stage0.bwd_ms"] == pytest.approx(2.0)
    assert m["train.data_ms"] == pytest.approx(2.0)
    assert m["tensor.backward_ms"] == pytest.approx(4.0)
    assert m["tensor.backward.self_ms"] == pytest.approx(2.0)
    assert m["step.other_ms"] == pytest.approx(3.0)
    assert sum(m[k] for k in SELF_METRICS) == pytest.approx(m["step.total_ms"])


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert workloads.tail_percentile(range(1, 101)) == (90, 90.0)
    value, pct = workloads.tail_percentile([5.0] + [1.0] * 10)
    assert (value, pct) == (1.0, pytest.approx(100 / 11))
    assert workloads.tail_percentile(list(range(40, 0, -1))) == (30, 75.0)
    with pytest.raises(workloads.BenchmarkError):
        workloads.tail_percentile(range(10))


@pytest.fixture(scope="module")
def small_inputs():
    return workloads.Inputs(build_dataset(3, 3, workers=1), build_dataset(4, 1, workers=1), True)


def test_traced_and_untraced_f64_losses_are_bit_identical(small_inputs):
    with precision("f64"):
        plain = workloads.train_phase(small_inputs, 0.0, min_steps=3)
        tracer = Tracer()
        spans = workloads.train_phase(small_inputs, 0.0, tracer, min_steps=3)
    assert len(plain.losses) == 3 and plain.failed == spans.failed == 0
    assert spans.losses == plain.losses
    m = layer_metrics(tracer)
    assert sum(m[k] for k in SELF_METRICS) <= m["step.total_ms"] * (1 + 1e-9)
    assert m["rois.extract.fwd_calls"] > 0 and m["encoder.bwd_ms"] > 0


def test_a_raising_step_is_counted_as_failed(small_inputs, monkeypatch):
    real = train.sgd_step
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise FloatingPointError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(train, "sgd_step", flaky)
    phase = workloads.train_phase(small_inputs, 0.0, min_steps=3)
    assert phase.failed == 1 and "injected" in phase.problems[0]
    # one completed step, the failed one, and the leak checks of their 2 batches
    assert len(phase.step_s) == 1 and phase.attempted == 1 + 1 + 2


def test_a_non_finite_loss_is_a_failed_step(small_inputs, monkeypatch):
    real = train.cross_entropy
    monkeypatch.setattr(train, "cross_entropy", lambda logits, labels: real(logits, labels) * float("nan"))
    phase = workloads.train_phase(small_inputs, 0.0, min_steps=2)
    # both steps, and the leak checks of their batches on the NaN weights
    assert phase.failed == phase.attempted == 2 + 2


def test_plain_model_makes_no_roi_calls(small_inputs):
    inputs = workloads.Inputs(small_inputs.videos, small_inputs.val, False)
    tracer = Tracer()
    phase = workloads.train_phase(inputs, 0.0, tracer, min_steps=2)
    m = layer_metrics(tracer)
    assert phase.failed == 0
    assert all(m[k] == 0 for k in m if k.startswith(("rois.", "encoder.", "troi.", "posenc.")))


def test_eval_cycle_passes_its_checks_and_bypasses_on_drop_all(small_inputs):
    tracer = Tracer()
    phase = workloads.eval_phase(small_inputs, 0.0, tracer)
    assert phase.failed == 0, phase.problems
    assert phase.attempted == len(workloads.EVAL_MODES)  # 18 videos: one batch per mode
    assert layer_metrics(tracer)["troi.bypass_ratio"] >= 1 / len(workloads.EVAL_MODES)


def test_single_video_check_catches_a_leaked_row(small_inputs):
    phase = workloads.Phase()
    model = workloads.build_model(True)
    idx = list(range(4))
    with no_grad():
        logits = model.forward_batch(
            Tensor(np.stack([small_inputs.videos[i].frames for i in idx])),
            [small_inputs.videos[i].rois for i in idx],
        ).data.copy()
        workloads._check_single(phase, model, small_inputs.videos, None, idx, logits)
        assert phase.failed == 0
        logits[-1] += 0.01
        workloads._check_single(phase, model, small_inputs.videos, None, idx, logits)
    assert phase.failed == 1


def test_benchmark_json_matches_the_reported_metrics(small_inputs):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    phase = workloads.Phase(step_s=[0.1] * 20, rows=[16] * 20, loss=1.0)
    reported = set(workloads.end_to_end(phase, 1.0)) - {"_detail"} | {"setup_s"}
    assert set(run.declared_units(trace=False)) == reported
    tracer = Tracer()
    workloads.eval_phase(small_inputs, 0.0, tracer)
    reported = set(layer_metrics(tracer)) | {"synth.build_dataset_s", "trace_overhead_ratio"}
    assert set(run.declared_units(trace=True)) == reported
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_train_phase_catches_a_batch_that_leaks_between_videos(small_inputs, monkeypatch):
    real = train._forward_batch

    def leaky(model, videos, idx, corrupt=None):
        logits, labels = real(model, videos, idx, corrupt)
        logits.data[-1] += 0.01 * logits.data[0]  # row 0 bleeds into the last row
        return logits, labels

    monkeypatch.setattr(train, "_forward_batch", leaky)
    phase = workloads.train_phase(small_inputs, 0.0, min_steps=2)
    assert phase.failed == min(2, workloads.LEAK_CHECK_BATCHES), phase.problems
    assert all("alone differs from its batch" in p for p in phase.problems)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-troi", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
