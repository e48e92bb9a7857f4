"""Spatio-temporal ordering of ROIs and positional encodings."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConfigError
from .tensor import Tensor, concat_cols, init_uniform, matmul

ORDERINGS = ("left-right", "right-left")


def order_rois(frame: np.ndarray, coords: np.ndarray, direction: str = "left-right") -> np.ndarray:
    """Sequence position for each ROI, from its (N,) frames and (N, 4)
    (x1, y1, x2, y2) coordinates: frames first, then box x1 within a frame
    (the flag reverses the x direction), ties by y1 and finally by input
    order. The result is a permutation of 0..N-1."""
    if direction not in ORDERINGS:
        raise ConfigError(f"unknown ordering {direction!r}; expected one of {ORDERINGS}")
    sign = 1.0 if direction == "left-right" else -1.0
    ranked = np.lexsort((coords[:, 1], sign * coords[:, 0], frame))  # stable: input order breaks ties
    positions = np.empty(ranked.size, dtype=np.int64)
    positions[ranked] = np.arange(ranked.size)
    return positions


def encoding_matrix(positions: Sequence[int], channels: int) -> np.ndarray:
    """Sinusoidal encodings, one row per position: row p holds
    sin(p / 10000^(2i/C)) in column 2i and the matching cos in 2i+1.
    Each distinct position is computed once."""
    if channels % 2:
        raise ConfigError(f"sinusoidal encoding needs an even channel count, got {channels}")
    distinct, row = np.unique(np.asarray(positions, dtype=np.float64), return_inverse=True)
    i = np.arange(channels // 2, dtype=np.float64)
    angles = distinct.reshape(-1, 1) / np.power(10000.0, 2.0 * i / channels)
    enc = np.empty((angles.shape[0], channels), dtype=np.float64)
    enc[:, 0::2] = np.sin(angles)
    enc[:, 1::2] = np.cos(angles)
    return enc[row.reshape(-1)]


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

    def encode(self, coords: np.ndarray) -> Tensor:
        """(N, 4) box coordinates (x1, y1, x2, y2) to (N, C) encodings."""
        return concat_cols([matmul(Tensor(coords[:, j : j + 1]), w) for j, w in enumerate(self.weights)])

    def parameters(self):
        return [(f"coord.w{j}", w) for j, w in enumerate(self.weights)]
