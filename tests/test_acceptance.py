"""Acceptance criteria, one test per criterion.

Criteria 5-7 train real models on the synthetic benchmark and take
several minutes; everything shares one session-scoped experiment run.
Each test prints a `CRITERION <n> ... PASS` line (visible with -s or in
the captured output).
"""

import time

import numpy as np
import pytest

import troikit as tk
from troikit.cli import main
from troikit.encoder import Encoder
from troikit.gradcheck import run_checks
from troikit.rois import box_to_footprint
from troikit.tensor import Tensor, precision
from troikit.train import TrainConfig, evaluate, train_model

import oracles
from test_rois import random_box

# frozen experiment protocol: dataset seeds, training seeds, recipe
TRAIN_DATA_SEED = 7
VAL_DATA_SEED = 8
PER_CLASS_TRAIN = 100  # 600 videos
PER_CLASS_VAL = 50  # 300 videos
MODEL_SEEDS = (0, 1, 2)
RECIPE = dict(epochs=14, batch_size=16, lr=0.01, lr_boundaries=(10, 13))
GAIN_THRESHOLD = 0.10


def report(num, name, ok, detail=""):
    print(f"CRITERION {num} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="session")
def benchmark_data():
    train = tk.build_dataset(TRAIN_DATA_SEED, PER_CLASS_TRAIN)
    val = tk.build_dataset(VAL_DATA_SEED, PER_CLASS_VAL)
    return train, val


@pytest.fixture(scope="session")
def relational_runs(benchmark_data):
    """Train 3 seeds x {TROI at conv4, no-TROI baseline}; reused by 5-6."""
    train, val = benchmark_data
    spec = tk.BackboneSpec()
    results = {"troi": [], "base": [], "troi_models": []}
    for seed in MODEL_SEEDS:
        cfg = TrainConfig(seed=seed, **RECIPE)
        base = tk.VideoClassifier(spec, None, seed=seed)
        train_model(base, train, val, cfg)
        results["base"].append(evaluate(base, val)["top1"])
        troi = tk.VideoClassifier(spec, tk.TroiConfig(), seed=seed)
        train_model(troi, train, val, cfg)
        results["troi"].append(evaluate(troi, val)["top1"])
        results["troi_models"].append(troi)
    return results


@pytest.mark.acceptance
class TestAcceptance:
    def test_1_gradient_suite(self):
        start = time.time()
        checks = run_checks(points=10, tol=1e-4)
        elapsed = time.time() - start
        names = {c.name for c in checks}
        expected = {
            "matmul", "softmax", "layer_norm", "relu", "linear", "conv2d",
            "roi_align", "encoder_layer", "troi_forward", "backbone_loss",
        }
        ok = names == expected and all(c.passed for c in checks) and elapsed < 60.0
        worst = max(c.max_rel_err for c in checks)
        report(1, "gradient suite", ok, f"(max rel err {worst:.2e}, {elapsed:.1f}s)")

    def test_2_attention_rows_normalized(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 17))
            c = int(rng.choice([8, 16, 32]))
            layers = int(rng.integers(1, 3))
            enc = Encoder(c, heads=2, layers=layers, rng=rng)
            record = []
            enc.forward(Tensor(rng.normal(size=(n, c)) * 3), record)
            assert len(record) == 2 * layers
            for a in record:
                worst = max(worst, float(np.abs(a.sum(axis=1) - 1.0).max()))
        report(2, "attention normalization", worst <= 1e-6, f"(worst row error {worst:.2e})")

    def test_3_locality_and_bypass(self):
        rng = np.random.default_rng(12)
        ok = True
        for trial in range(100):
            t, side, c = 3, int(rng.choice([4, 8])), 8
            module = tk.TroiModule(c, tk.TroiConfig(), rng)
            x = Tensor(rng.normal(size=(t, side, side, c)))
            n_boxes = int(rng.integers(0, 6))
            rois = [random_box(rng, int(rng.integers(t))) for _ in range(n_boxes)]
            out = module.forward(x, rois)
            if not rois:
                ok = ok and out is x and np.array_equal(out.data, x.data)
                continue
            covered = np.zeros((t, side, side), dtype=bool)
            for box in rois:
                clipped = tk.clip_box(box)
                if clipped is None:
                    continue
                fp = box_to_footprint(clipped, side, side)
                covered[box.frame, fp.w0 : fp.w1 + 1, fp.h0 : fp.h1 + 1] = True
            ok = ok and np.array_equal(out.data[~covered], x.data[~covered])
        report(3, "locality invariant", ok)

    def test_4_oracle_equivalence(self):
        from test_encoder import mha_reference

        rng = np.random.default_rng(13)
        mha_worst = 0.0
        with precision("f64"):
            for _ in range(50):
                n = int(rng.integers(1, 9))
                layer = tk.EncoderLayer(8, 2, rng)
                feats = rng.normal(size=(n, 8))
                mine = layer.multi_head(Tensor(feats)).data
                ref = mha_reference(feats, layer)
                mha_worst = max(mha_worst, float(np.abs(mine - ref).max()))

            align_worst = 0.0
            grid = Tensor(rng.normal(size=(6, 6, 4)))
            for _ in range(50):
                box = random_box(rng)
                mine = tk.roi_align(grid, box, out=2).data
                ref = oracles.roi_align_loops(grid.data, box, 2)
                align_worst = max(align_worst, float(np.abs(mine - ref).max()))
        ok = mha_worst <= 1e-6 and align_worst <= 1e-9
        report(4, "oracle equivalence", ok, f"(mha {mha_worst:.2e}, align {align_worst:.2e})")

    def test_5_relational_gain(self, relational_runs):
        base = float(np.mean(relational_runs["base"]))
        troi = float(np.mean(relational_runs["troi"]))
        gap = troi - base
        report(
            5,
            "relational gain",
            gap >= GAIN_THRESHOLD,
            f"(troi {troi:.3f} vs baseline {base:.3f}, gap {gap:+.3f}, threshold {GAIN_THRESHOLD})",
        )

    def test_6_corruption_monotonicity(self, relational_runs, benchmark_data):
        _, val = benchmark_data
        models = relational_runs["troi_models"]
        means = {}
        for mode in (None, "iou@0.50", "iou@0.25", "iou@0.05", "drop-all"):
            means[mode or "gt"] = float(
                np.mean([evaluate(m, val, corrupt=mode)["top1"] for m in models])
            )
        chain = means["iou@0.50"] >= means["iou@0.25"] >= means["iou@0.05"]
        drop = means["drop-all"] < means["gt"]
        report(
            6,
            "corruption monotonicity",
            chain and drop,
            "(gt {gt:.3f} >=.. {a:.3f} {b:.3f} {c:.3f}, drop-all {d:.3f})".format(
                gt=means["gt"], a=means["iou@0.50"], b=means["iou@0.25"],
                c=means["iou@0.05"], d=means["drop-all"],
            ),
        )

    def test_7_ablation_harness(self, tmp_path):
        data_dir = tmp_path / "abl-train"
        val_dir = tmp_path / "abl-val"
        assert main(["gen", "--out", str(data_dir), "--per-class", "10", "--seed", "21"]) == 0
        assert main(["gen", "--out", str(val_dir), "--per-class", "5", "--seed", "22"]) == 0
        out_dir = tmp_path / "ablation"
        code = main(
            ["ablate", "--data", str(data_dir), "--val-data", str(val_dir),
             "--out-dir", str(out_dir), "--epochs", "3", "--batch-size", "12"]
        )
        table = (out_dir / "ablation.txt").read_text().splitlines()
        configs = {tuple(line.split()[:2]) for line in table[1:]}
        expected = {(p, str(l)) for p in ("conv3", "conv4", "conv5") for l in (1, 2)}
        ok = code == 0 and configs == expected
        report(7, "ablation harness", ok, f"({len(table) - 1} rows)")

    def test_8_determinism(self, tmp_path):
        logs = []
        with precision("f64"):
            train = tk.build_dataset(51, 4, frames=4, size=16)
            val = tk.build_dataset(52, 2, frames=4, size=16)
            for _ in range(2):
                spec = tk.BackboneSpec(frames=4, size=16, channels=(4, 6, 8, 8))
                model = tk.VideoClassifier(spec, tk.TroiConfig(), seed=9)
                cfg = TrainConfig(epochs=2, batch_size=8, lr=0.02, seed=9)
                logs.append(train_model(model, train, val, cfg))
        report(8, "determinism", logs[0] == logs[1], f"({len(logs[0])} log lines compared)")
