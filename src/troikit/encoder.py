"""Transformer-style encoder over ROI feature rows.

One layer is: multi-head scaled dot-product attention with a residual
connection and layer norm, then a two-layer MLP (ReLU between) with a
second residual and layer norm. Queries, keys and values for all heads
come from a single (C, 3C) projection.

Rows may come from several videos. The row-wise parts (projections, layer
norms, MLP) run on the packed (N, C) rows; the attention core runs on
zero-padded per-video blocks, with every head of every video as one entry
of a leading batch axis, so a row only ever attends to rows of its own
video.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .tensor import (
    Tensor,
    add,
    init_uniform,
    layer_norm,
    linear,
    matmul,
    ones_param,
    pack_rows,
    relu,
    scale,
    slice_axis0,
    softmax_rows,
    transpose,
    unpack_rows,
    zeros_param,
)


_MLP_RATIO = 2  # the MLP's hidden width, in multiples of the layer's channels


class Blocks(NamedTuple):
    """Where each packed row sits in the padded per-video blocks."""

    slot: np.ndarray  # (N,) position in the flattened (count, width) grid
    count: int  # one block per video that has rows
    width: int  # rows in the largest block
    mask: Tensor | None  # additive (heads*count, width, width): -inf on padding keys; None if none


def blocks_of(video: np.ndarray, heads: int) -> Blocks:
    """Blocks for rows whose videos are the non-negative integers
    ``video`` (any order); rows keep their relative order inside their
    video's block."""
    order = np.argsort(video, kind="stable")
    sizes = np.bincount(video)
    sizes = sizes[sizes > 0]
    count, width = sizes.size, int(sizes.max())
    slot = np.empty_like(order)
    slot[order] = np.arange(order.size) + np.repeat(np.arange(count) * width - np.cumsum(sizes) + sizes, sizes)
    mask = None
    if sizes.min() != width:
        keys = np.full((heads, count * width), -np.inf)
        keys[:, slot] = 0.0
        mask = Tensor(keys.reshape(heads * count, 1, width).repeat(width, axis=1))
    return Blocks(slot, count, width, mask)


class EncoderLayer:
    """One self-attention + MLP block with residuals and layer norms."""

    def __init__(self, channels: int, heads: int, rng: np.random.Generator):
        if heads < 1 or channels % heads:
            raise ConfigError(f"channels {channels} must divide evenly into {heads} heads")
        self.channels = channels
        self.heads = heads
        self.head_dim = channels // heads
        hidden = _MLP_RATIO * channels
        self.w_qkv = init_uniform(rng, (channels, 3 * channels), fan_in=channels)
        self.w_out = init_uniform(rng, (channels, channels), fan_in=channels)
        self.mlp_w1 = init_uniform(rng, (channels, hidden), fan_in=channels)
        self.mlp_b1 = zeros_param((hidden,))
        self.mlp_w2 = init_uniform(rng, (hidden, channels), fan_in=hidden)
        self.mlp_b2 = zeros_param((channels,))
        self.ln1_gamma = ones_param((channels,))
        self.ln1_beta = zeros_param((channels,))
        self.ln2_gamma = ones_param((channels,))
        self.ln2_beta = zeros_param((channels,))

    def multi_head(self, feats: Tensor, record: list | None = None, blocks: Blocks | None = None) -> Tensor:
        """Attention over the (N, C) rows, within each of ``blocks`` (one
        block of all rows when None). ``record`` gets one (N, N) matrix per
        head, zero between rows of different blocks."""
        n, c = feats.data.shape
        if c != self.channels:
            raise ConfigError(f"feature width {c} does not match layer channels {self.channels}")
        if blocks is None:
            blocks = blocks_of(np.zeros(n, dtype=np.int64), self.heads)
        heads, stacked = self.heads, self.heads * blocks.count
        # (3*heads*count, width, d): all query blocks, then all key and value blocks
        qkv = pack_rows(matmul(feats, self.w_qkv), blocks.slot, blocks.count, blocks.width, 3 * heads)
        q, k, v = (slice_axis0(qkv, i * stacked, (i + 1) * stacked) for i in range(3))
        scores = scale(matmul(q, transpose(k)), 1.0 / math.sqrt(self.head_dim))
        if blocks.mask is not None:
            scores = add(scores, blocks.mask)
        a = softmax_rows(scores)
        if record is not None:
            block, pos = np.divmod(blocks.slot, blocks.width)
            full = a.data.reshape(heads, blocks.count, blocks.width, blocks.width)[
                :, block[:, None], pos[:, None], pos[None, :]
            ]
            full[:, block[:, None] != block[None, :]] = 0
            record.extend(full)
        return matmul(unpack_rows(matmul(a, v), blocks.slot, heads), self.w_out)

    def forward(self, feats: Tensor, record: list | None = None, blocks: Blocks | None = None) -> Tensor:
        g = layer_norm(add(self.multi_head(feats, record, blocks), feats), self.ln1_gamma, self.ln1_beta)
        m = linear(relu(linear(g, self.mlp_w1, self.mlp_b1)), self.mlp_w2, self.mlp_b2)
        return layer_norm(add(m, g), self.ln2_gamma, self.ln2_beta)

    def parameters(self):
        return [
            ("w_qkv", self.w_qkv),
            ("w_out", self.w_out),
            ("mlp_w1", self.mlp_w1),
            ("mlp_b1", self.mlp_b1),
            ("mlp_w2", self.mlp_w2),
            ("mlp_b2", self.mlp_b2),
            ("ln1_gamma", self.ln1_gamma),
            ("ln1_beta", self.ln1_beta),
            ("ln2_gamma", self.ln2_gamma),
            ("ln2_beta", self.ln2_beta),
        ]


class Encoder:
    """A stack of encoder layers; each layer consumes the previous output."""

    def __init__(self, channels: int, heads: int, layers: int, rng: np.random.Generator):
        if layers < 1:
            raise ConfigError(f"encoder needs at least one layer, got {layers}")
        self.heads = heads
        self.layers = [EncoderLayer(channels, heads, rng) for _ in range(layers)]

    def forward(self, feats: Tensor, record: list | None = None, video: np.ndarray | None = None) -> Tensor:
        """Run the (N, C) rows through every layer. ``video`` gives each
        row's video (all rows are one video when None); a row attends only
        to rows of its own video. ``record`` collects one (N, N) attention
        matrix per layer and head, in that order, exactly 0 between rows of
        different videos."""
        if video is None:
            video = np.zeros(feats.data.shape[0], dtype=np.int64)
        blocks = blocks_of(video, self.heads)
        for layer in self.layers:
            feats = layer.forward(feats, record, blocks)
        return feats

    def parameters(self):
        out = []
        for i, layer in enumerate(self.layers):
            out.extend((f"layer{i}.{name}", p) for name, p in layer.parameters())
        return out
