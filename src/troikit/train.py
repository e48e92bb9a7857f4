"""SGD training loop with momentum, weight decay, and a stepped schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .backbone import VideoClassifier, save_checkpoint
from .errors import ConfigError, ContractError, DataError, NumericError
from .synth import SynthVideo, corrupt_rois
from .tensor import Tensor, backward, cross_entropy, no_grad, zero_grad


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 16
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lr_boundaries: tuple[int, int] | None = None  # None: thirds of the epoch budget
    seed: int = 0
    topk: int = 5

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError(f"epochs/batch_size must be positive, got {self.epochs}/{self.batch_size}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"learning rate must be positive and finite, got {self.lr}")
        if not (math.isfinite(self.momentum) and math.isfinite(self.weight_decay)):
            raise ConfigError(f"momentum/weight_decay must be finite, got {self.momentum}/{self.weight_decay}")
        if self.topk < 1 or self.seed < 0:
            raise ConfigError(f"topk must be at least 1 and seed non-negative, got {self.topk}/{self.seed}")
        if self.lr_boundaries is not None:
            b1, b2 = self.lr_boundaries
            if not 0 < b1 < b2:
                raise ConfigError(f"schedule boundaries must be ordered and positive, got {self.lr_boundaries}")


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Piecewise-constant rate: full, then /10, then /100. A boundary
    epoch belongs to the later segment."""
    b1, b2 = cfg.lr_boundaries or (cfg.epochs // 3, 2 * cfg.epochs // 3)
    if epoch < b1:
        return cfg.lr
    if epoch < b2:
        return cfg.lr / 10.0
    return cfg.lr / 100.0


def sgd_step(params, state: dict, lr: float, momentum: float, weight_decay: float) -> None:
    """v <- momentum*v + (grad + decay*theta); theta <- theta - lr*v. A
    parameter that is not finite after its update raises ``NumericError``."""
    velocity = state.get("velocity")
    if velocity is None:
        velocity = state["velocity"] = [np.zeros_like(p.data) for _, p in params]
    for (name, p), v in zip(params, velocity):
        if p.grad is None:
            raise ContractError(f"parameter {name} has no gradient; run backward first")
        g = p.grad + weight_decay * p.data
        v *= momentum
        v += g
        p.data = p.data - lr * v
        if not np.isfinite(p.data).all():
            raise NumericError(f"parameter {name} is not finite after its update")


def _batches(count: int, batch_size: int, order):
    for start in range(0, count, batch_size):
        yield order[start : start + batch_size]


def _forward_batch(model: VideoClassifier, videos: Sequence[SynthVideo], idx, corrupt: str | None = None):
    frames = np.stack([videos[i].frames for i in idx])
    rois = [videos[i].rois for i in idx]
    if corrupt is not None:
        rois = [corrupt_rois(r, corrupt) for r in rois]
    labels = [videos[i].label for i in idx]
    logits = model.forward_batch(Tensor(frames), rois)
    return logits, labels


def evaluate(
    model: VideoClassifier,
    videos: Sequence[SynthVideo],
    k: int = 5,
    corrupt: str | None = None,
    batch_size: int = 32,
) -> dict:
    """Top-1 / top-k plus a per-class breakdown. Argmax ties go to the
    lowest index, so the result is deterministic. A non-finite logit has
    no rank, so it raises ``NumericError``; a label outside the model's
    classes raises ``DataError``."""
    if not videos:
        raise ContractError("evaluate needs a non-empty dataset")
    if k < 1 or batch_size < 1:
        raise ConfigError(f"top-k and batch size must be at least 1, got {k}/{batch_size}")
    classes = model.spec.classes
    hits1 = np.zeros(classes, dtype=np.int64)
    hitsk = np.zeros(classes, dtype=np.int64)
    totals = np.zeros(classes, dtype=np.int64)
    order = np.arange(len(videos))
    with no_grad():
        for idx in _batches(len(videos), batch_size, order):
            logits, labels = _forward_batch(model, videos, idx, corrupt)
            labels = np.asarray(labels)
            bad = np.flatnonzero((labels < 0) | (labels >= classes))
            if bad.size:
                raise DataError(f"video {idx[bad[0]]} has label {labels[bad[0]]}; the model has {classes} classes")
            scores = logits.data
            finite = np.isfinite(scores).all(axis=1)
            if not finite.all():
                raise NumericError(f"non-finite logit for video {idx[np.argmin(finite)]} of the evaluated set")
            ranked = np.argsort(-scores, axis=1, kind="stable")[:, :k]
            totals += np.bincount(labels, minlength=classes)
            hits1 += np.bincount(labels[scores.argmax(axis=1) == labels], minlength=classes)
            hitsk += np.bincount(labels[(ranked == labels[:, None]).any(axis=1)], minlength=classes)
    per_class = {c: float(hits1[c] / totals[c]) if totals[c] else 0.0 for c in range(classes)}
    return {
        "top1": float(hits1.sum() / totals.sum()),
        "topk": float(hitsk.sum() / totals.sum()),
        "k": k,
        "per_class": per_class,
    }


def format_log_line(epoch: int, lr: float, train_loss: float, metrics: dict) -> str:
    return (
        f"epoch={epoch} lr={lr!r} train_loss={train_loss!r} "
        f"val_top1={metrics['top1']!r} val_topk={metrics['topk']!r}"
    )


def parse_log_line(line: str) -> dict:
    fields = dict(part.split("=", 1) for part in line.split())
    return {
        "epoch": int(fields["epoch"]),
        "lr": float(fields["lr"]),
        "train_loss": float(fields["train_loss"]),
        "val_top1": float(fields["val_top1"]),
        "val_topk": float(fields["val_topk"]),
    }


def train_model(
    model: VideoClassifier,
    train_videos: Sequence[SynthVideo],
    val_videos: Sequence[SynthVideo],
    cfg: TrainConfig,
    log_path=None,
    checkpoint_path=None,
    start_epoch: int = 0,
) -> list[str]:
    """Run epochs [start_epoch, cfg.epochs) of the schedule and return one
    log line per epoch. The schedule always derives from the full epoch
    budget, so a resumed run continues exactly where an uninterrupted one
    would be. Fixed seeds give bit-reproducible logs (build and train
    the model inside ``precision("f64")`` to make this exact across runs)."""
    rng = np.random.default_rng(cfg.seed)
    params = model.parameters()
    state: dict = {}
    lines: list[str] = []
    only_params = [p for _, p in params]

    log_fh = open(log_path, "a") if log_path else None
    try:
        for epoch in range(cfg.epochs):
            order = rng.permutation(len(train_videos))
            if epoch < start_epoch:
                continue  # burn the shuffle stream so resumed runs line up
            lr = lr_at(epoch, cfg)
            losses = []
            for idx in _batches(len(train_videos), cfg.batch_size, order):
                logits, labels = _forward_batch(model, train_videos, idx)
                loss = cross_entropy(logits, labels)
                if not np.isfinite(loss.data):
                    raise NumericError(f"non-finite training loss {loss.item()} at epoch {epoch}, batch {len(losses)}")
                backward(loss)
                sgd_step(params, state, lr, cfg.momentum, cfg.weight_decay)
                zero_grad(only_params)
                losses.append(loss.item())
            metrics = evaluate(model, val_videos, cfg.topk)
            line = format_log_line(epoch, lr, float(np.mean(losses)), metrics)
            lines.append(line)
            if log_fh:
                log_fh.write(line + "\n")
                log_fh.flush()
            if checkpoint_path:
                save_checkpoint(checkpoint_path, model)
    finally:
        if log_fh:
            log_fh.close()
    return lines


def completed_epochs(log_path) -> int:
    path = Path(log_path)
    if not path.exists():
        return 0
    return sum(1 for line in path.read_text().splitlines() if line.strip())
