"""A tiny convolutional video classifier hosting the ROI module.

Frames pass through four conv/pool stages shared across time (2-D convs,
so the network is frame-local by construction); the ROI module can be
inserted after stage 2, 3 or 4. A global average pool over time and
space feeds a single linear head.

A stage runs conv -> 2x2 max-pool -> ReLU. ReLU is monotone, so this
equals conv -> ReLU -> max-pool in value and in gradient (a window whose
maximum is <= 0 passes no gradient either way, and otherwise both orders
send it to the same first maximum), while ReLU touches a quarter of the
cells and the full-resolution ReLU output is never built.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError
from .rois import RoiBox
from .tensor import (
    Tensor,
    conv2d,
    init_relu_uniform,
    linear,
    max_pool2d,
    read_tensor,
    reduce_mean,
    relu,
    reshape,
    write_tensor,
    zeros_param,
)
from .troi import INSERT_STAGE, TroiConfig, TroiModule

CHECKPOINT_MAGIC = b"TROICKP1"


@dataclass(frozen=True)
class BackboneSpec:
    frames: int = 8
    size: int = 32
    in_channels: int = 3
    channels: tuple[int, int, int, int] = (16, 32, 64, 64)
    classes: int = 6

    def __post_init__(self):
        if len(self.channels) != 4 or min(self.channels) < 1:
            raise ConfigError(f"backbone needs 4 positive stage channel counts, got {self.channels}")
        if self.size < 16 or self.size % 16:
            raise ConfigError(f"input size must be a multiple of 16, got {self.size}")
        if self.frames < 1 or self.classes < 2:
            raise ConfigError(f"bad frames/classes: {self.frames}/{self.classes}")

    def stage_side(self, stage: int) -> int:
        return self.size // (2 ** (stage + 1))


class VideoClassifier:
    """Per-frame conv stages with an optional in-place ROI transformation."""

    def __init__(self, spec: BackboneSpec, troi_config: TroiConfig | None = None, seed: int = 0):
        self.spec = spec
        self.troi_config = troi_config
        rng = np.random.default_rng(seed)
        self.stage_weights = []
        self.stage_biases = []
        cin = spec.in_channels
        for cout in spec.channels:
            self.stage_weights.append(init_relu_uniform(rng, (3, 3, cin, cout), fan_in=9 * cin))
            self.stage_biases.append(zeros_param((cout,)))
            cin = cout
        self.head_w = init_relu_uniform(rng, (spec.channels[-1], spec.classes), fan_in=spec.channels[-1])
        self.head_b = zeros_param((spec.classes,))
        if troi_config is None:
            self.troi = None
            self._insert_after = None
        else:
            self._insert_after = INSERT_STAGE[troi_config.insert_at]
            channels = spec.channels[self._insert_after]
            self.troi = TroiModule(channels, troi_config, rng)

    # -- forward ----------------------------------------------------------

    def forward_batch(
        self,
        videos: Tensor,
        rois_per_video: Sequence[Sequence[RoiBox]],
        record_attention: list | None = None,
    ) -> Tensor:
        """(B, T, S, S, 3) videos to (B, classes) logits. ``record_attention``
        collects the ROI module's attention matrices, in the layout that
        ``TroiModule.forward`` documents."""
        spec = self.spec
        if videos.data.ndim != 5 or videos.data.shape[1:] != (spec.frames, spec.size, spec.size, spec.in_channels):
            raise ConfigError(
                f"video batch shape {videos.data.shape} does not match spec "
                f"(*, {spec.frames}, {spec.size}, {spec.size}, {spec.in_channels})"
            )
        bsz = videos.data.shape[0]
        if len(rois_per_video) != bsz:
            raise ConfigError(f"{bsz} videos but {len(rois_per_video)} ROI lists")

        x = reshape(videos, (bsz * spec.frames, spec.size, spec.size, spec.in_channels))
        for stage in range(4):
            x = self._stage(x, stage)
            if self.troi is not None and stage == self._insert_after:
                x = self._apply_troi(x, rois_per_video, record_attention)
        side = spec.stage_side(3)
        feats = reduce_mean(
            reshape(x, (bsz, spec.frames * side * side, spec.channels[-1])), axis=1
        )
        return linear(feats, self.head_w, self.head_b)

    def _apply_troi(self, x, rois_per_video, record_attention):
        # one module call for the whole (B*T, W, H, C) map
        rois = [box for video in rois_per_video for box in video]
        return self.troi.forward(x, rois, record_attention, per_video=[len(video) for video in rois_per_video])

    def forward(self, video: Tensor, rois: Sequence[RoiBox]) -> Tensor:
        """(T, S, S, 3) video to (classes,) logits."""
        batched = reshape(video, (1,) + video.data.shape)
        return reshape(self.forward_batch(batched, [rois]), (self.spec.classes,))

    def _stage(self, x: Tensor, stage: int) -> Tensor:
        # the module-level ops are looked up at call time, so wrappers
        # patched onto this module see every call
        return relu(max_pool2d(conv2d(x, self.stage_weights[stage], self.stage_biases[stage])))

    # -- parameters and checkpoints ---------------------------------------

    def parameters(self):
        out = []
        for i, (w, b) in enumerate(zip(self.stage_weights, self.stage_biases)):
            out.append((f"stage{i}.w", w))
            out.append((f"stage{i}.b", b))
        out.append(("head.w", self.head_w))
        out.append(("head.b", self.head_b))
        if self.troi is not None:
            out.extend((f"troi.{name}", p) for name, p in self.troi.parameters())
        return out

    def arch_text(self) -> str:
        spec = self.spec
        lines = [
            f"frames = {spec.frames}",
            f"size = {spec.size}",
            f"in_channels = {spec.in_channels}",
            f"channels = {','.join(str(c) for c in spec.channels)}",
            f"classes = {spec.classes}",
        ]
        cfg = self.troi_config
        if cfg is None:
            lines.append("troi = none")
        else:
            lines.extend(
                [
                    f"troi = {cfg.insert_at}",
                    f"troi_layers = {cfg.layers}",
                    f"heads = {cfg.heads}",
                    f"variants = {cfg.variants()}",
                    f"ordering = {cfg.ordering}",
                ]
            )
        return "\n".join(lines) + "\n"

    def config_digest(self) -> str:
        return hashlib.sha256(self.arch_text().encode()).hexdigest()


def save_checkpoint(path, model: VideoClassifier) -> None:
    """Header (magic + config digest) followed by the parameter tensors
    in parameters() order."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        digest = model.config_digest().encode()
        fh.write(struct.pack("<I", len(digest)))
        fh.write(digest)
        params = model.parameters()
        fh.write(struct.pack("<I", len(params)))
        for _, p in params:
            write_tensor(fh, p.data)


def _read_exact(fh, size: int, what: str) -> bytes:
    raw = fh.read(size)
    if len(raw) != size:
        raise DataError(f"checkpoint truncated in the {what}")
    return raw


def load_checkpoint(path, model: VideoClassifier) -> None:
    """Restore parameters in place; the stored digest must match the model."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise DataError(f"{path} is not a checkpoint file")
        (dlen,) = struct.unpack("<I", _read_exact(fh, 4, "digest length"))
        digest = _read_exact(fh, dlen, "config digest").decode(errors="replace")
        if digest != model.config_digest():
            raise DataError(
                f"checkpoint digest {digest[:12]}... does not match model configuration"
            )
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "tensor count"))
        params = model.parameters()
        if count != len(params):
            raise DataError(f"checkpoint has {count} tensors, model expects {len(params)}")
        for name, p in params:
            arr = read_tensor(fh)
            if arr.shape != p.data.shape:
                raise DataError(f"parameter {name}: stored shape {arr.shape} != {p.data.shape}")
            p.data = arr.astype(p.data.dtype)
