import math

import numpy as np
import pytest

from troikit.encoder import Encoder, EncoderLayer, blocks_of
from troikit.errors import ConfigError
from troikit.tensor import (
    Tensor,
    add,
    backward,
    layer_norm,
    linear,
    mul,
    precision,
    reduce_sum,
    relu,
)

import oracles


def zero_layer(layer):
    for name, p in layer.parameters():
        if "gamma" in name:
            p.data = np.ones_like(p.data)
        else:
            p.data = np.zeros_like(p.data)
    return layer


def mha_reference(feats, layer):
    """Per-head brute-force attention from the raw parameter arrays."""
    c, d = layer.channels, layer.head_dim
    qkv = feats @ layer.w_qkv.data
    heads = []
    for h in range(layer.heads):
        q = qkv[:, h * d : (h + 1) * d]
        k = qkv[:, c + h * d : c + (h + 1) * d]
        v = qkv[:, 2 * c + h * d : 2 * c + (h + 1) * d]
        a = oracles.softmax_loops(q @ k.T / math.sqrt(d))
        heads.append(a @ v)
    return np.concatenate(heads, axis=1) @ layer.w_out.data


def recorded(layer, feats):
    """The per-head attention matrices of one single-video pass."""
    record = []
    layer.multi_head(Tensor(feats), record)
    return record


class TestProjections:
    def test_zero_weights(self, rng):
        # q = k = v = 0: every row attends evenly and every head returns 0
        layer = EncoderLayer(8, 2, rng)
        layer.w_qkv.data = np.zeros_like(layer.w_qkv.data)
        record = []
        out = layer.multi_head(Tensor(rng.normal(size=(3, 8))), record)
        assert not out.data.any()
        assert all(np.allclose(a, 1.0 / 3, atol=1e-7) for a in record)

    def test_identity_projection_single_head(self, rng):
        layer = EncoderLayer(4, 1, rng)
        w = np.zeros((4, 12))
        w[:, :4] = np.eye(4)  # query block is the identity
        w[:, 4:8] = np.eye(4)  # and so is the key block
        layer.w_qkv.data = w
        feats = rng.normal(size=(3, 4)).astype(np.float32)
        (a,) = recorded(layer, feats)
        assert np.allclose(a, oracles.softmax_loops(feats @ feats.T / 2.0), atol=1e-6)

    def test_matches_matmul_oracle(self, rng):
        with precision("f64"):
            layer = EncoderLayer(8, 2, rng)
            feats = rng.normal(size=(5, 8))
            qkv = oracles.matmul_loops(feats, layer.w_qkv.data)
            for h, a in enumerate(recorded(layer, feats)):
                q, k = qkv[:, h * 4 : (h + 1) * 4], qkv[:, 8 + h * 4 : 8 + (h + 1) * 4]
                assert np.allclose(a, oracles.softmax_loops(q @ k.T / 2.0), atol=1e-12)

    def test_head_divisibility(self, rng):
        with pytest.raises(ConfigError):
            EncoderLayer(9, 2, rng)


class TestAttention:
    def test_single_roi(self, rng):
        for a in recorded(EncoderLayer(8, 2, rng), rng.normal(size=(1, 8))):
            assert np.allclose(a, [[1.0]])

    def test_identical_rows_split_evenly(self, rng):
        row = rng.normal(size=8)
        for a in recorded(EncoderLayer(8, 2, rng), np.stack([row, row])):
            assert np.allclose(a, 0.5, atol=1e-6)

    def test_matches_brute_force(self, rng):
        # two videos: each block is the softmax of its own scores, 0 across
        with precision("f64"):
            layer = EncoderLayer(8, 2, rng)
            feats = rng.normal(size=(5, 8))
            video = np.array([0, 1, 0, 1, 1])
            record = []
            layer.multi_head(Tensor(feats), record, blocks_of(video, 2))
            qkv = feats @ layer.w_qkv.data
            for h, a in enumerate(record):
                q, k = qkv[:, h * 4 : (h + 1) * 4], qkv[:, 8 + h * 4 : 8 + (h + 1) * 4]
                for v in (0, 1):
                    rows = np.flatnonzero(video == v)
                    ref = oracles.softmax_loops(q[rows] @ k[rows].T / 2.0)
                    assert np.allclose(a[np.ix_(rows, rows)], ref, atol=1e-12)
                assert np.all(a[video[:, None] != video[None, :]] == 0)

    def test_rows_sum_to_one(self, rng):
        for a in recorded(EncoderLayer(8, 2, rng), rng.normal(size=(6, 8)) * 5):
            assert np.allclose(a.sum(axis=1), 1.0, atol=1e-6)


class TestBlocks:
    def test_slots_keep_row_order_within_each_video(self):
        blocks = blocks_of(np.array([2, 0, 2, 5, 0, 2]), 2)
        assert (blocks.count, blocks.width) == (3, 3)
        # video 0 is block 0, video 2 block 1, video 5 block 2
        assert blocks.slot.tolist() == [3, 0, 4, 6, 1, 5]
        # every query row of a block masks the same keys, for both heads
        padded = np.isinf(blocks.mask.data)
        assert padded.shape == (6, 3, 3)
        assert np.array_equal(padded[:, 0], np.tile([[0, 0, 1], [0, 0, 0], [0, 1, 1]], (2, 1)))
        assert np.all(padded == padded[:, :1])

    def test_equal_blocks_need_no_mask(self):
        blocks = blocks_of(np.array([1, 1, 4, 4]), 2)
        assert blocks.mask is None and blocks.slot.tolist() == [0, 1, 2, 3]

    def test_each_video_attends_as_it_would_alone(self, rng):
        with precision("f64"):
            enc = Encoder(8, heads=2, layers=2, rng=rng)
            video = np.array([1, 0, 1, 1, 3, 0, 1])
            feats = rng.normal(size=(7, 8))
            record = []
            out = enc.forward(Tensor(feats), record, video)
            for v in np.unique(video):
                rows = np.flatnonzero(video == v)
                alone = []
                ref = enc.forward(Tensor(feats[rows]), alone).data
                assert np.abs(out.data[rows] - ref).max() <= 1e-12
                for a, b in zip(record, alone):
                    assert np.abs(a[np.ix_(rows, rows)] - b).max() <= 1e-12
            for a in record:
                assert np.all(a[video[:, None] != video[None, :]] == 0)


class TestSelfAttentionAndMHA:
    def test_single_row_returns_value(self, rng):
        # one row attends only to itself, so each head returns its value row
        with precision("f64"):
            layer = EncoderLayer(8, 2, rng)
            feats = Tensor(rng.normal(size=(1, 8)))
            values = feats.data @ layer.w_qkv.data[:, 16:]
            out = layer.multi_head(feats)
            assert np.allclose(out.data, values @ layer.w_out.data, atol=1e-12)

    def test_equal_rows_give_equal_outputs(self, rng):
        layer = EncoderLayer(8, 2, rng)
        row = rng.normal(size=8)
        out = layer.multi_head(Tensor(np.stack([row] * 4)))
        assert np.allclose(out.data, out.data[0], atol=1e-5)

    def test_monolithic_equals_per_head_composition(self, rng):
        with precision("f64"):
            layer = EncoderLayer(8, 2, rng)
            feats = rng.normal(size=(5, 8))
            out = layer.multi_head(Tensor(feats))
            assert np.allclose(out.data, mha_reference(feats, layer), atol=1e-6)


class TestEncoderLayer:
    def test_zero_weights_reduce_to_double_layer_norm(self, rng):
        with precision("f64"):
            layer = zero_layer(EncoderLayer(8, 2, rng))
            feats = Tensor(rng.normal(size=(4, 8)))
            ones, zeros = Tensor(np.ones(8)), Tensor(np.zeros(8))
            expected = layer_norm(layer_norm(feats, ones, zeros), ones, zeros)
            assert np.allclose(layer.forward(feats).data, expected.data, atol=1e-12)

    def test_output_shape(self, rng):
        layer = EncoderLayer(8, 2, rng)
        for n in (1, 2, 9):
            assert layer.forward(Tensor(rng.normal(size=(n, 8)))).data.shape == (n, 8)

    def test_matches_composition_of_sub_ops(self, rng):
        with precision("f64"):
            layer = EncoderLayer(8, 2, rng)
            feats = Tensor(rng.normal(size=(5, 8)))
            g = layer_norm(add(layer.multi_head(feats), feats), layer.ln1_gamma, layer.ln1_beta)
            m = linear(relu(linear(g, layer.mlp_w1, layer.mlp_b1)), layer.mlp_w2, layer.mlp_b2)
            expected = layer_norm(add(m, g), layer.ln2_gamma, layer.ln2_beta)
            assert np.allclose(layer.forward(feats).data, expected.data, atol=1e-6)

    def test_permutation_equivariance(self, rng):
        with precision("f64"):
            layer = EncoderLayer(8, 2, rng)
            feats = rng.normal(size=(6, 8))
            perm = rng.permutation(6)
            out = layer.forward(Tensor(feats)).data
            out_perm = layer.forward(Tensor(feats[perm])).data
            assert np.allclose(out_perm, out[perm], atol=1e-12)

    def test_attention_rows_sum_at_every_head_and_layer(self, rng):
        enc = Encoder(8, heads=2, layers=2, rng=rng)
        record = []
        enc.forward(Tensor(rng.normal(size=(5, 8))), record)
        assert len(record) == 4  # 2 layers x 2 heads
        for a in record:
            assert np.allclose(a.sum(axis=1), 1.0, atol=1e-6)

    def test_second_layer_consumes_first_output(self, rng):
        with precision("f64"):
            enc = Encoder(8, heads=2, layers=2, rng=rng)
            feats = Tensor(rng.normal(size=(4, 8)))
            expected = enc.layers[1].forward(enc.layers[0].forward(feats))
            assert np.allclose(enc.forward(feats).data, expected.data, atol=1e-12)

    def test_end_to_end_gradient(self, rng):
        with precision("f64"):
            layer = EncoderLayer(8, 2, rng)
            feats = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
            proj = Tensor(rng.normal(size=(4, 8)))

            def run():
                return reduce_sum(mul(layer.forward(feats), proj))

            backward(run())
            for idx in rng.choice(feats.size, size=8, replace=False):
                num = oracles.central_difference(lambda: run().item(), feats.data, idx)
                ana = feats.grad.flat[idx]
                assert abs(num - ana) / max(abs(num), abs(ana), 1e-4) < 1e-4
