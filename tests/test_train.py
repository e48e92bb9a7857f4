import dataclasses

import numpy as np
import pytest

import troikit as tk
from troikit.errors import ConfigError, ContractError, DataError, NumericError
from troikit.tensor import Tensor, precision
from troikit.train import (
    TrainConfig,
    evaluate,
    format_log_line,
    lr_at,
    parse_log_line,
    sgd_step,
    train_model,
)

import oracles


class TestSgdStep:
    def test_plain_gradient_descent(self):
        theta = Tensor([1.0], requires_grad=True)
        theta.grad = np.array([2.0], dtype=np.float32)  # d(theta^2) at theta=1
        sgd_step([("theta", theta)], {}, lr=0.1, momentum=0.0, weight_decay=0.0)
        assert theta.data[0] == pytest.approx(0.8)

    def test_velocity_recurrence(self):
        with precision("f64"):
            theta = Tensor([1.0], requires_grad=True)
            state = {}
            grads = [0.5, -1.25, 2.0]
            ref = oracles.sgd_velocity_loops(1.0, grads, lr=0.05, momentum=0.9, decay=0.0)
            # oracle folds decay into the gradient; replay the same sequence here
            for g in grads:
                theta.grad = np.array([g])
                sgd_step([("theta", theta)], state, lr=0.05, momentum=0.9, weight_decay=0.0)
            assert theta.data[0] == pytest.approx(ref, abs=1e-9)

    def test_velocity_recurrence_with_decay(self):
        with precision("f64"):
            theta = Tensor([2.0], requires_grad=True)
            state = {}
            raw = [0.3, 0.7, -0.2]
            # scalar oracle tracking theta-dependent decay term step by step
            t, v = 2.0, 0.0
            for g in raw:
                v = 0.9 * v + (g + 0.01 * t)
                t = t - 0.05 * v
            for g in raw:
                theta.grad = np.array([g])
                sgd_step([("theta", theta)], state, lr=0.05, momentum=0.9, weight_decay=0.01)
            assert theta.data[0] == pytest.approx(t, abs=1e-12)

    def test_overflowing_update_is_a_numeric_error(self):
        theta = Tensor([1.0, 3e38], requires_grad=True)
        theta.grad = np.array([0.0, -1e38], dtype=np.float32)
        with pytest.raises(NumericError, match="parameter theta is not finite"), np.errstate(over="ignore"):
            sgd_step([("theta", theta)], {}, lr=10.0, momentum=0.0, weight_decay=0.0)

    def test_missing_gradient_rejected(self):
        theta = Tensor([1.0], requires_grad=True)
        with pytest.raises(ContractError, match="gradient"):
            sgd_step([("theta", theta)], {}, lr=0.1, momentum=0.9, weight_decay=0.0)


class TestSchedule:
    def test_eighty_epoch_preset(self):
        cfg = TrainConfig(epochs=80, lr=0.01, lr_boundaries=(20, 40))
        assert lr_at(0, cfg) == pytest.approx(0.01)
        assert lr_at(19, cfg) == pytest.approx(0.01)
        assert lr_at(20, cfg) == pytest.approx(0.001)
        assert lr_at(79, cfg) == pytest.approx(1e-4)

    def test_desk_scale_thirds(self):
        cfg = TrainConfig(epochs=30, lr=0.06)
        assert lr_at(9, cfg) == pytest.approx(0.06)
        assert lr_at(10, cfg) == pytest.approx(0.006)
        assert lr_at(20, cfg) == pytest.approx(0.0006)

    def test_boundary_belongs_to_later_segment(self):
        cfg = TrainConfig(epochs=9, lr=1.0)
        assert lr_at(2, cfg) == pytest.approx(1.0)
        assert lr_at(3, cfg) == pytest.approx(0.1)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(lr_boundaries=(5, 5))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("lr", float("inf")),
            ("lr", float("nan")),
            ("momentum", float("nan")),
            ("weight_decay", float("inf")),
            ("weight_decay", float("-inf")),
            ("topk", 0),
            ("seed", -1),
        ],
    )
    def test_non_finite_or_out_of_range_setting_rejected(self, field, value):
        # a NaN momentum would train to an all-NaN checkpoint with a finite logged loss
        with pytest.raises(ConfigError):
            TrainConfig(**{field: value})


class _StubModel:
    """Duck-typed stand-in returning canned logits."""

    def __init__(self, classes, fn):
        self.spec = tk.BackboneSpec(classes=classes)
        self._fn = fn

    def forward_batch(self, videos, rois, record_attention=None):
        return Tensor(np.stack([self._fn() for _ in range(videos.data.shape[0])]))


def tiny_videos(labels):
    return [
        tk.SynthVideo(np.zeros((8, 32, 32, 3), dtype=np.float32), [], label)
        for label in labels
    ]


class TestEvaluate:
    def test_perfect_model(self):
        videos = tiny_videos([0, 1, 2, 3, 4, 5])
        it = iter([v.label for v in videos])

        class Perfect(_StubModel):
            def forward_batch(self, vids, rois, record_attention=None):
                return Tensor(np.eye(6)[[next(it) for _ in range(vids.data.shape[0])]] * 10)

        metrics = evaluate(Perfect(6, None), videos)
        assert metrics["top1"] == 1.0 and metrics["topk"] == 1.0

    def test_constant_logits_pick_lowest_index(self):
        videos = tiny_videos([0, 1, 2, 3, 4, 5] * 4)
        model = _StubModel(6, lambda: np.zeros(6))
        metrics = evaluate(model, videos)
        assert metrics["top1"] == pytest.approx(1.0 / 6.0)
        assert metrics["per_class"][0] == 1.0 and metrics["per_class"][3] == 0.0

    def test_topk_equal_to_class_count(self):
        videos = tiny_videos([0, 1, 2, 3, 4, 5])
        model = _StubModel(6, lambda: np.zeros(6))
        assert evaluate(model, videos, k=6)["topk"] == 1.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ContractError):
            evaluate(_StubModel(6, lambda: np.zeros(6)), [])

    @pytest.mark.parametrize("k, batch_size", [(0, 32), (-1, 32), (5, 0)])
    def test_nonpositive_topk_or_batch_size_rejected(self, k, batch_size):
        # k=-1 would report a top-(K-1) accuracy, batch_size=0 a raw ValueError
        with pytest.raises(ConfigError, match="at least 1"):
            evaluate(_StubModel(6, lambda: np.zeros(6)), tiny_videos([0, 1]), k=k, batch_size=batch_size)

    @pytest.mark.parametrize("label", [2, -1])
    def test_label_outside_the_models_classes_is_data_error(self, label):
        # label 2 used to raise a raw IndexError, and -1 was counted as the last class
        with pytest.raises(DataError, match=f"video 2 has label {label}; the model has 2 classes"):
            evaluate(_StubModel(2, lambda: np.zeros(2)), tiny_videos([0, 1, label, 0]), batch_size=2)

    def test_counts_match_a_per_video_loop(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 6, size=23).tolist()
        rows = []

        class Recorded(_StubModel):
            def forward_batch(self, vids, rois, record_attention=None):
                # integer logits make ties, which go to the lowest index in both
                batch = rng.integers(0, 3, size=(vids.data.shape[0], 6)).astype(np.float64)
                rows.extend(batch)
                return Tensor(batch)

        metrics = evaluate(Recorded(6, None), tiny_videos(labels), k=2, batch_size=5)
        hits1, hitsk, totals = np.zeros(6), np.zeros(6), np.zeros(6)
        for label, row in zip(labels, rows):
            totals[label] += 1
            hits1[label] += int(np.argmax(row)) == label
            hitsk[label] += label in np.argsort(-row, kind="stable")[:2]
        assert metrics["top1"] == hits1.sum() / 23 and metrics["topk"] == hitsk.sum() / 23
        assert metrics["per_class"] == {c: hits1[c] / totals[c] if totals[c] else 0.0 for c in range(6)}


class TestLogLines:
    def test_round_trip(self):
        line = format_log_line(3, 0.01, 1.25, {"top1": 0.5, "topk": 0.9})
        parsed = parse_log_line(line)
        assert parsed == {"epoch": 3, "lr": 0.01, "train_loss": 1.25, "val_top1": 0.5, "val_topk": 0.9}


def small_setup(n_per_class=2, troi=True, seed=0):
    train = tk.build_dataset(31, n_per_class, frames=4, size=16)
    val = tk.build_dataset(32, n_per_class, frames=4, size=16)
    spec = tk.BackboneSpec(frames=4, size=16, channels=(4, 6, 8, 8))
    model = tk.VideoClassifier(spec, tk.TroiConfig() if troi else None, seed=seed)
    return model, train, val


class TestTrainLoop:
    def test_loss_decreases_and_logs_parse(self):
        model, train, val = small_setup()
        cfg = TrainConfig(epochs=4, batch_size=6, lr=0.02, seed=0)
        lines = train_model(model, train, val, cfg)
        assert len(lines) == 4
        records = [parse_log_line(l) for l in lines]
        assert records[-1]["train_loss"] < records[0]["train_loss"]
        assert [r["epoch"] for r in records] == [0, 1, 2, 3]

    def test_fixed_seed_reproduces_log_bitwise_in_f64(self):
        with precision("f64"):
            logs = []
            for _ in range(2):
                model, train, val = small_setup()
                cfg = TrainConfig(epochs=2, batch_size=6, lr=0.02, seed=5)
                logs.append(train_model(model, train, val, cfg))
            assert logs[0] == logs[1]

    def test_resume_lines_up_with_uninterrupted_run(self):
        with precision("f64"):
            # (1, 2) is the 3-epoch budget's default schedule, so the 2-epoch first leg follows it too
            cfg = TrainConfig(epochs=3, batch_size=6, lr=0.02, lr_boundaries=(1, 2), seed=2)
            model, train, val = small_setup()
            full = train_model(model, train, val, cfg)

            model2, _, _ = small_setup()
            first = train_model(model2, train, val, dataclasses.replace(cfg, epochs=2))
            resumed = train_model(model2, train, val, cfg, start_epoch=2)
            # momentum state restarts on resume, so only the pre-break epochs
            # are required to line up exactly
            assert first == full[:2]
            assert len(resumed) == 1 and resumed[0].split()[0] == "epoch=2"

    def test_non_finite_loss_stops_before_any_update(self, tmp_path):
        model, train, val = small_setup()
        train[3] = dataclasses.replace(train[3], frames=np.full_like(train[3].frames, np.nan))
        before = [p.data.copy() for _, p in model.parameters()]
        log = tmp_path / "run.log"
        cfg = TrainConfig(epochs=2, batch_size=len(train), lr=0.02, seed=0)
        with pytest.raises(NumericError, match="non-finite training loss nan at epoch 0, batch 0"):
            train_model(model, train, val, cfg, log_path=log)
        assert issubclass(NumericError, ContractError)
        assert all(np.array_equal(b, p.data) for b, (_, p) in zip(before, model.parameters()))
        assert log.read_text() == ""

    def test_evaluate_rejects_non_finite_logits(self):
        # argmax of a NaN row is index 0, which used to score as class 0
        model, _, val = small_setup()
        for _, p in model.parameters():
            p.data = np.full_like(p.data, np.nan)
        with pytest.raises(NumericError, match="non-finite logit for video 0"):
            evaluate(model, val)

    def test_overflowed_update_stops_before_the_epoch_is_logged(self, tmp_path):
        # the one step of epoch 0 has a finite loss but sends the parameters
        # to overflow, so the epoch's evaluation sees non-finite logits
        model, train, val = small_setup()
        log, ckpt = tmp_path / "run.log", tmp_path / "run.ckpt"
        cfg = TrainConfig(epochs=2, batch_size=len(train), lr=1e30, seed=0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError, match="non-finite logit"):
            train_model(model, train, val, cfg, log_path=log, checkpoint_path=ckpt)
        assert log.read_text() == ""
        assert not ckpt.exists()

    @pytest.mark.slow
    def test_overfits_small_set(self):
        # sanity harness: 32 videos memorized within 200 epochs
        train = tk.build_dataset(41, 6, frames=4, size=16)[:32]
        spec = tk.BackboneSpec(frames=4, size=16, channels=(4, 6, 8, 8))
        model = tk.VideoClassifier(spec, tk.TroiConfig(), seed=1)
        cfg = TrainConfig(epochs=200, batch_size=8, lr=0.02, lr_boundaries=(150, 180), seed=1)
        lines = train_model(model, train, train[:6], cfg)
        losses = [parse_log_line(l)["train_loss"] for l in lines]
        assert min(losses) < 0.05
