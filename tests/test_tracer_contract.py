"""The benchmark's layer tracer (perfbench/tracing.py) patches package
names and reads ROI records from the outside. Tier-1 does not run the
benchmark's own tests, so this checks here that one traced training step
still yields every per-layer metric BENCHMARK.json declares, with ROI
counts that match the boxes."""

import dataclasses
import importlib.util
import json
from collections import Counter
from pathlib import Path

import numpy as np

import troikit as tk
import troikit.train as train
from troikit.rois import RoiBox, box_to_footprint, clip_box

ROOT = Path(__file__).resolve().parent.parent
# metrics that perfbench/run.py adds itself, outside layer_metrics
ADDED_BY_RUN = {"trace_overhead_ratio", "synth.build_dataset_s"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_traced_step_reports_every_declared_layer_metric():
    tracing = load_tracing()
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    videos = tk.build_dataset(61, 1, frames=4, size=16, workers=1)
    # one box fully outside the image, which extract_features drops
    videos[1] = dataclasses.replace(videos[1], rois=videos[1].rois + [RoiBox(0, 1.2, 1.2, 1.5, 1.5)])
    model = tk.VideoClassifier(tk.BackboneSpec(frames=4, size=16, channels=(4, 6, 8, 8)), tk.TroiConfig(), seed=0)
    params = model.parameters()

    tracer = tracing.Tracer()
    with tracing.traced(tracer, model):
        tracer.begin_step()
        logits, labels = train._forward_batch(model, videos, np.arange(len(videos)))
        train.backward(train.cross_entropy(logits, labels))
        train.sgd_step(params, {}, 0.01, momentum=0.9, weight_decay=5e-4)
        train.zero_grad([p for _, p in params])
        tracer.end_step()
    metrics = tracing.layer_metrics(tracer)

    assert declared - set(metrics) == ADDED_BY_RUN
    boxes = [b for v in videos for b in v.rois]
    inside = [b for b in boxes if clip_box(b) is not None]
    assert metrics["rois.boxes_in"] == len(boxes)
    assert metrics["rois.boxes_kept"] == len(inside) == len(boxes) - 1
    assert metrics["encoder.rows"] == len(inside)
    assert metrics["rois.boxes_dropped"] == 1
    assert metrics["rois.extract.fwd_calls"] == 1
    side = model.spec.stage_side(2)  # the map at conv4
    cover = Counter()
    for v, video in enumerate(videos):
        for box in filter(None, map(clip_box, video.rois)):
            fp = box_to_footprint(box, side, side)
            cover.update((v * 4 + box.frame,) + cell for cell in fp.cells())
    assert metrics["rois.cells_written"] == len(cover)
    assert metrics["rois.cells_shared"] == sum(n > 1 for n in cover.values())
