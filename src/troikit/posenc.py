"""Spatio-temporal ordering of ROIs and positional encodings."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConfigError
from .rois import RoiBox
from .tensor import Tensor, concat_cols, init_uniform, matmul, slice_cols

ORDERINGS = ("left-right", "right-left")


def order_rois(rois: Sequence[RoiBox], direction: str = "left-right") -> list[int]:
    """Sequence position for each ROI: frames first, then box x within a
    frame (the flag reverses the x direction), ties by y and finally by
    stable input order. The result is a permutation of 0..N-1."""
    if direction not in ORDERINGS:
        raise ConfigError(f"unknown ordering {direction!r}; expected one of {ORDERINGS}")
    sign = 1.0 if direction == "left-right" else -1.0
    ranked = sorted(range(len(rois)), key=lambda i: (rois[i].frame, sign * rois[i].x1, rois[i].y1))
    positions = [0] * len(rois)
    for rank, i in enumerate(ranked):
        positions[i] = rank
    return positions


def encoding_matrix(positions: Sequence[int], channels: int) -> np.ndarray:
    """Sinusoidal encodings, one row per position: row p holds
    sin(p / 10000^(2i/C)) in column 2i and the matching cos in 2i+1."""
    if channels % 2:
        raise ConfigError(f"sinusoidal encoding needs an even channel count, got {channels}")
    i = np.arange(channels // 2, dtype=np.float64)
    angles = np.asarray(positions, dtype=np.float64).reshape(-1, 1) / np.power(10000.0, 2.0 * i / channels)
    enc = np.empty((angles.shape[0], channels), dtype=np.float64)
    enc[:, 0::2] = np.sin(angles)
    enc[:, 1::2] = np.cos(angles)
    return enc


class CoordEncoder:
    """Learned projection of the four box coordinates into C channels.

    Each coordinate owns a C/4-wide weight vector; the four slices are
    concatenated. With zero weights the encoding is identically zero, so
    the variant is inert until trained.
    """

    def __init__(self, channels: int, rng: np.random.Generator):
        if channels % 4:
            raise ConfigError(f"coordinate encoding needs channels divisible by 4, got {channels}")
        self.weights = [init_uniform(rng, (1, channels // 4), fan_in=1) for _ in range(4)]

    def encode(self, boxes: Sequence[RoiBox]) -> Tensor:
        coords = Tensor(np.array([[b.x1, b.y1, b.x2, b.y2] for b in boxes]))
        parts = [matmul(slice_cols(coords, j, j + 1), w) for j, w in enumerate(self.weights)]
        return concat_cols(parts)

    def parameters(self):
        return [(f"coord.w{j}", w) for j, w in enumerate(self.weights)]
