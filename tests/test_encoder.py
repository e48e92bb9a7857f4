import math

import numpy as np
import pytest

from troikit.encoder import Encoder, EncoderLayer, attention_weights
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


class TestProjections:
    def test_zero_weights(self, rng):
        layer = EncoderLayer(8, 2, rng)
        layer.w_qkv.data = np.zeros_like(layer.w_qkv.data)
        for q, k, v in layer.project_qkv(Tensor(rng.normal(size=(3, 8)))):
            assert not q.data.any() and not k.data.any() and not v.data.any()

    def test_identity_projection_single_head(self, rng):
        layer = EncoderLayer(4, 1, rng)
        w = np.zeros((4, 12))
        w[:, :4] = np.eye(4)  # query block is the identity
        layer.w_qkv.data = w
        feats = rng.normal(size=(3, 4)).astype(np.float32)
        ((q, k, v),) = layer.project_qkv(Tensor(feats))
        assert np.allclose(q.data, feats, atol=1e-6)

    def test_matches_matmul_oracle(self, rng):
        with precision("f64"):
            layer = EncoderLayer(8, 2, rng)
            feats = rng.normal(size=(5, 8))
            qkv = oracles.matmul_loops(feats, layer.w_qkv.data)
            for h, (q, k, v) in enumerate(layer.project_qkv(Tensor(feats))):
                assert np.allclose(q.data, qkv[:, h * 4 : (h + 1) * 4], atol=1e-12)
                assert np.allclose(v.data, qkv[:, 16 + h * 4 : 16 + (h + 1) * 4], atol=1e-12)

    def test_head_divisibility(self, rng):
        with pytest.raises(ConfigError):
            EncoderLayer(9, 2, rng)


class TestAttention:
    def test_single_roi(self, rng):
        a = attention_weights(Tensor(rng.normal(size=(1, 4))), Tensor(rng.normal(size=(1, 4))))
        assert np.allclose(a.data, [[1.0]])

    def test_identical_rows_split_evenly(self, rng):
        row = rng.normal(size=4)
        q = Tensor(np.stack([row, row]))
        a = attention_weights(q, q)
        assert np.allclose(a.data, 0.5, atol=1e-6)

    def test_matches_brute_force(self, rng):
        with precision("f64"):
            q = rng.normal(size=(3, 4))
            k = rng.normal(size=(3, 4))
            a = attention_weights(Tensor(q), Tensor(k))
            ref = oracles.softmax_loops(q @ k.T / math.sqrt(4))
            assert np.allclose(a.data, ref, atol=1e-6)

    def test_rows_sum_to_one(self, rng):
        q = Tensor(rng.normal(size=(6, 8)) * 5)
        k = Tensor(rng.normal(size=(6, 8)) * 5)
        assert np.allclose(attention_weights(q, k).data.sum(axis=1), 1.0, atol=1e-6)


class TestSelfAttentionAndMHA:
    def test_single_row_returns_value(self, rng):
        # one row attends only to itself, so each head returns its value row
        with precision("f64"):
            layer = EncoderLayer(8, 2, rng)
            feats = Tensor(rng.normal(size=(1, 8)))
            values = np.concatenate([v.data for _, _, v in layer.project_qkv(feats)], axis=1)
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
