"""Transformer-style encoder over ROI feature rows.

One layer is: multi-head scaled dot-product attention with a residual
connection and layer norm, then a two-layer MLP (ReLU between) with a
second residual and layer norm. Queries, keys and values for all heads
come from a single (C, 3C) projection sliced per head.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .tensor import (
    Tensor,
    add,
    concat_cols,
    init_uniform,
    layer_norm,
    linear,
    matmul,
    ones_param,
    relu,
    scale,
    slice_cols,
    softmax_rows,
    transpose,
    zeros_param,
)


def attention_weights(q: Tensor, k: Tensor, mask: Tensor | None = None) -> Tensor:
    """Row-normalized scaled dot-product similarities, one row per query.
    An additive ``mask`` (0 or -inf per query/key pair) removes the -inf
    pairs; every row must keep at least one pair."""
    if q.data.shape[1] != k.data.shape[1]:
        raise ConfigError(
            f"query width {q.data.shape[1]} does not match key width {k.data.shape[1]}"
        )
    dk = q.data.shape[1]
    scores = scale(matmul(q, transpose(k)), 1.0 / math.sqrt(dk))
    return softmax_rows(scores if mask is None else add(scores, mask))


class EncoderLayer:
    """One self-attention + MLP block with residuals and layer norms."""

    def __init__(self, channels: int, heads: int, rng: np.random.Generator, mlp_ratio: int = 2):
        if heads < 1 or channels % heads:
            raise ConfigError(f"channels {channels} must divide evenly into {heads} heads")
        self.channels = channels
        self.heads = heads
        self.head_dim = channels // heads
        hidden = mlp_ratio * channels
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

    def project_qkv(self, feats: Tensor) -> list[tuple[Tensor, Tensor, Tensor]]:
        """Per-head (q, k, v) slices of the joint projection."""
        if feats.data.shape[1] != self.channels:
            raise ConfigError(
                f"feature width {feats.data.shape[1]} does not match layer channels {self.channels}"
            )
        qkv = matmul(feats, self.w_qkv)
        c, d = self.channels, self.head_dim
        out = []
        for h in range(self.heads):
            q = slice_cols(qkv, h * d, (h + 1) * d)
            k = slice_cols(qkv, c + h * d, c + (h + 1) * d)
            v = slice_cols(qkv, 2 * c + h * d, 2 * c + (h + 1) * d)
            out.append((q, k, v))
        return out

    def multi_head(self, feats: Tensor, record: list | None = None, mask: Tensor | None = None) -> Tensor:
        outputs = []
        for q, k, v in self.project_qkv(feats):
            a = attention_weights(q, k, mask)
            if record is not None:
                record.append(a.data.copy())
            outputs.append(matmul(a, v))
        return matmul(concat_cols(outputs), self.w_out)

    def forward(self, feats: Tensor, record: list | None = None, mask: Tensor | None = None) -> Tensor:
        g = layer_norm(add(self.multi_head(feats, record, mask), feats), self.ln1_gamma, self.ln1_beta)
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
        self.layers = [EncoderLayer(channels, heads, rng) for _ in range(layers)]

    def forward(self, feats: Tensor, record: list | None = None, mask: Tensor | None = None) -> Tensor:
        """Run the (N, C) rows through every layer. ``record`` collects one
        (N, N) attention matrix per layer and head, in that order; ``mask``
        is an additive (N, N) attention mask shared by all of them."""
        for layer in self.layers:
            feats = layer.forward(feats, record, mask)
        return feats

    def parameters(self):
        out = []
        for i, layer in enumerate(self.layers):
            out.extend((f"layer{i}.{name}", p) for name, p in layer.parameters())
        return out
