"""In-place relational transformation of ROI features on a feature map.

The forward pass pools a feature row per ROI, adds positional encodings
in spatio-temporal order, runs the rows through a small transformer
encoder, and writes the transformed rows back onto the cells the boxes
cover. Cells outside every footprint are untouched; a video with no
(valid) ROIs bypasses the module entirely and comes back unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .encoder import Encoder
from .errors import ConfigError
from .posenc import ORDERINGS, CoordEncoder, encoding_matrix, order_rois
from .rois import RoiBox, extract_features, write_back
from .tensor import Tensor, add, concat_axis0, reduce_max, reshape, slice_axis0

# backbone stage index after which each named insertion point sits
INSERT_STAGE = {"conv3": 1, "conv4": 2, "conv5": 3}
INSERTION_POINTS = tuple(INSERT_STAGE)


@dataclass(frozen=True)
class TroiConfig:
    insert_at: str = "conv4"
    layers: int = 1
    heads: int = 2
    scene_token: bool = False
    coord_encoding: bool = False
    ordering: str = "left-right"

    def __post_init__(self):
        if self.insert_at not in INSERTION_POINTS:
            raise ConfigError(f"unknown insertion point {self.insert_at!r}; expected one of {INSERTION_POINTS}")
        if self.layers < 1:
            raise ConfigError(f"layer count must be at least 1, got {self.layers}")
        if self.heads < 1:
            raise ConfigError(f"head count must be at least 1, got {self.heads}")
        if self.ordering not in ORDERINGS:
            raise ConfigError(f"unknown ordering {self.ordering!r}; expected one of {ORDERINGS}")

    def variants(self) -> str:
        names = [n for n, on in (("scene", self.scene_token), ("coord", self.coord_encoding)) if on]
        return ",".join(names) if names else "none"


class TroiModule:
    """Extract, relate, and write back ROI features, for a whole batch of
    videos at once."""

    def __init__(self, channels: int, config: TroiConfig, rng: np.random.Generator):
        if channels % config.heads:
            raise ConfigError(f"channels {channels} must divide evenly into {config.heads} heads")
        self.channels = channels
        self.config = config
        self.encoder = Encoder(channels, config.heads, config.layers, rng)
        self.coord = CoordEncoder(channels, rng) if config.coord_encoding else None

    def forward(
        self,
        x: Tensor,
        rois: Sequence[RoiBox],
        record_attention: list | None = None,
        per_video: Sequence[int] | None = None,
    ) -> Tensor:
        """Map an (F, W, H, C) block to its transformed counterpart.

        Without ``per_video`` the block is one video and ``rois`` are its
        boxes. With ``per_video`` it holds ``len(per_video)`` videos of
        F / len(per_video) consecutive frames each, and ``rois`` is their
        box lists run together: ``per_video[v]`` boxes for video v, each
        with its frame counted from that video's first frame.

        The row-wise layers see all ROI rows as one (N, C) block; the
        attention core relates each video's rows among themselves only, so
        every video comes out as it would alone. With ``record_attention``
        the encoder appends one (N, N) matrix per layer and head,
        layer-major: rows and columns are the ROI rows in order of their
        frame in the block (stable within a frame), then, with scene tokens,
        one row per frame of the block. Entries between two videos are
        exactly 0, and every row sums to 1.

        Returns ``x`` itself when no box survives clipping."""
        if not rois:
            return x  # bypass: nothing to relate
        fset = extract_features(x, rois, per_video=per_video)
        n = len(fset)
        if n == 0:
            return x  # every box fell outside the image
        videos = 1 if per_video is None else len(per_video)
        frames = x.data.shape[0] // videos
        video = fset.frame // frames  # rows are grouped by video
        # positions count from 0 in each video: global ranks minus the video's first row
        positions = order_rois(fset.frame, fset.coords, self.config.ordering) - np.searchsorted(video, video)
        if self.config.scene_token:
            # video v's scene rows take positions n_v..n_v+T-1, after its n_v ROI rows
            rows = np.bincount(video, minlength=videos)
            positions = np.concatenate([positions, np.repeat(rows, frames) + np.tile(np.arange(frames), videos)])
            video = np.concatenate([video, np.repeat(np.arange(videos), frames)])

        enc = encoding_matrix(positions, self.channels)
        feats = add(fset.features, Tensor(enc[:n]))
        if self.coord is not None:
            feats = add(feats, self.coord.encode(fset.coords))
        if self.config.scene_token:
            feats = concat_axis0([feats, add(scene_tokens(x), Tensor(enc[n:]))])

        feats = self.encoder.forward(feats, record_attention, video)
        if feats.data.shape[0] != n:
            feats = slice_axis0(feats, 0, n)  # scene rows are never written back
        return write_back(x, replace(fset, features=feats))

    def parameters(self):
        out = [(f"encoder.{name}", p) for name, p in self.encoder.parameters()]
        if self.coord is not None:
            out.extend((name, p) for name, p in self.coord.parameters())
        return out


def scene_tokens(x: Tensor) -> Tensor:
    """One max-pooled whole-frame row per frame of an (F, W, H, C) map."""
    f, w, h, c = x.data.shape
    return reduce_max(reshape(x, (f, w * h, c)), axis=1)
