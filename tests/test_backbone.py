import numpy as np
import pytest

from troikit.backbone import (
    BackboneSpec,
    VideoClassifier,
    load_checkpoint,
    save_checkpoint,
)
from troikit.errors import ConfigError, DataError
from troikit.tensor import Tensor, _toposort, backward, cross_entropy, precision
from troikit.troi import TroiConfig

from test_rois import random_box

import oracles

SMALL = BackboneSpec(frames=2, size=16, channels=(4, 6, 8, 8), classes=3)


def copy_shared_weights(src, dst):
    for (name_a, a), (name_b, b) in zip(src.parameters(), dst.parameters()):
        if name_a.startswith("troi."):
            continue
        assert name_a == name_b
        b.data = a.data.copy()


class TestForward:
    def test_zero_head_gives_zero_logits(self, rng):
        model = VideoClassifier(SMALL, None, seed=0)
        model.head_w.data = np.zeros_like(model.head_w.data)
        model.head_b.data = np.zeros_like(model.head_b.data)
        logits = model.forward(Tensor(rng.uniform(size=(2, 16, 16, 3))), [])
        assert np.array_equal(logits.data, np.zeros(3))

    def test_bypass_matches_plain_backbone(self, rng):
        troi_model = VideoClassifier(SMALL, TroiConfig(), seed=0)
        plain = VideoClassifier(SMALL, None, seed=1)
        copy_shared_weights(troi_model, plain)
        video = Tensor(rng.uniform(size=(2, 16, 16, 3)))
        with_troi = troi_model.forward(video, [])  # no rois: module bypassed
        without = plain.forward(video, [])
        assert np.array_equal(with_troi.data, without.data)

    def test_insertion_changes_output_only_with_rois(self, rng):
        troi_model = VideoClassifier(SMALL, TroiConfig(), seed=0)
        plain = VideoClassifier(SMALL, None, seed=1)
        copy_shared_weights(troi_model, plain)
        video = Tensor(rng.uniform(size=(2, 16, 16, 3)))
        rois = [random_box(rng, 0), random_box(rng, 1)]
        assert not np.array_equal(troi_model.forward(video, rois).data, plain.forward(video, []).data)

    def test_frame_permutation_permutes_stage_features(self, rng):
        model = VideoClassifier(SMALL, None, seed=0)
        frames = Tensor(rng.uniform(size=(4, 16, 16, 3)))
        perm = np.array([2, 0, 3, 1])

        def stage_features(x):  # stages 0-2, as forward_batch runs them
            for stage in range(3):
                x = model._stage(x, stage)
            return x.data

        base = stage_features(frames)
        permuted = stage_features(Tensor(frames.data[perm]))
        assert np.allclose(permuted, base[perm], atol=1e-6)

    def test_batch_matches_single(self, rng):
        model = VideoClassifier(SMALL, TroiConfig(), seed=0)
        videos = rng.uniform(size=(3, 2, 16, 16, 3)).astype(np.float32)
        rois = [[random_box(rng, 0)], [], [random_box(rng, 1)]]
        batched = model.forward_batch(Tensor(videos), rois)
        for i in range(3):
            single = model.forward(Tensor(videos[i]), rois[i])
            assert np.allclose(batched.data[i], single.data, atol=1e-5)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            BackboneSpec(size=20)
        with pytest.raises(ConfigError):
            BackboneSpec(channels=(4, 8))
        with pytest.raises(ConfigError, match="positive"):
            BackboneSpec(channels=(0, 6, 8, 8))  # a raw ZeroDivisionError in the next stage's init otherwise
        model = VideoClassifier(SMALL, None, seed=0)
        with pytest.raises(ConfigError):
            model.forward_batch(Tensor(np.zeros((1, 3, 16, 16, 3))), [[]])

    @pytest.mark.parametrize("troi", [None, TroiConfig(insert_at="conv4")])
    def test_each_stage_applies_relu_after_the_pool(self, rng, troi):
        # ReLU runs on the pooled map; a full-resolution ReLU node would
        # bring back the pass and the buffer this order avoids
        model = VideoClassifier(SMALL, troi, seed=0)
        videos = Tensor(rng.uniform(size=(2, 2, 16, 16, 3)))
        rois = [[random_box(rng, 0)], [random_box(rng, 1)]]
        loss = cross_entropy(model.forward_batch(videos, rois), [0, 2])
        stage = {id(w): s for s, w in enumerate(model.stage_weights)}

        def op(node):
            return node._backward.__qualname__.split(".")[0] if node._backward else None

        relus = {}
        for node in _toposort(loss):
            if op(node) == "relu" and op(node._parents[0]) == "max_pool2d":
                conv = node._parents[0]._parents[0]
                assert op(conv) == "conv2d"
                relus[stage[id(conv._parents[1])]] = node.shape
        bt = 2 * SMALL.frames
        assert relus == {
            s: (bt, SMALL.stage_side(s), SMALL.stage_side(s), SMALL.channels[s]) for s in range(4)
        }
        # and each pool reads its conv directly, not a full-resolution ReLU
        pools = [n for n in _toposort(loss) if op(n) == "max_pool2d"]
        assert len(pools) == 4 and all(op(p._parents[0]) == "conv2d" for p in pools)

    @pytest.mark.parametrize("mode", ["f32", "f64"])
    @pytest.mark.parametrize("troi", [None, TroiConfig(scene_token=True, coord_encoding=True)], ids=["plain", "troi"])
    def test_backward_drops_inner_gradients_and_keeps_leaf_ones(self, rng, mode, troi):
        videos = rng.uniform(size=(2, 2, 16, 16, 3))
        rois = [[random_box(rng, 0), random_box(rng, 1, "hand")], [random_box(rng, 1)]]

        def graph():
            model = VideoClassifier(SMALL, troi, seed=5)
            x = Tensor(videos, requires_grad=True)
            loss = cross_entropy(model.forward_batch(x, rois), [0, 2])
            return loss, [x] + [p for _, p in model.parameters()]

        with precision(mode):
            loss, leaves = graph()
            inner = [n for n in _toposort(loss) if n._parents]
            backward(loss)
            assert inner and all(n.grad is None for n in inner)
            # a backward that keeps every gradient, as before inner ones were dropped
            ref_loss, ref_leaves = graph()
            ref_loss.grad = np.ones_like(ref_loss.data)
            for node in reversed(_toposort(ref_loss)):
                if node._backward is not None and node.grad is not None:
                    node._backward(node.grad)
            for leaf, ref in zip(leaves, ref_leaves):
                assert leaf.grad is not None and leaf.grad.tobytes() == ref.grad.tobytes()

    def test_first_layer_gradient_finite_difference(self, rng):
        with precision("f64"):
            model = VideoClassifier(SMALL, TroiConfig(), seed=3)
            videos = Tensor(rng.uniform(size=(1, 2, 16, 16, 3)))
            rois = [random_box(rng, 0), random_box(rng, 1)]

            def loss():
                return cross_entropy(model.forward_batch(videos, [rois]), [1])

            backward(loss())
            w0 = model.stage_weights[0]
            grad = w0.grad.copy()
            from troikit.tensor import zero_grad

            zero_grad([p for _, p in model.parameters()])
            for idx in rng.choice(w0.size, size=6, replace=False):
                num = oracles.central_difference(lambda: loss().item(), w0.data, idx)
                ana = grad.flat[idx]
                assert abs(num - ana) / max(abs(num), abs(ana), 1e-4) < 1e-4


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        model = VideoClassifier(SMALL, TroiConfig(coord_encoding=True), seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        other = VideoClassifier(SMALL, TroiConfig(coord_encoding=True), seed=9)
        load_checkpoint(path, other)
        for (_, a), (_, b) in zip(model.parameters(), other.parameters()):
            assert np.allclose(a.data, b.data, atol=1e-7)  # stored as f32
        video = Tensor(rng.uniform(size=(2, 16, 16, 3)).astype(np.float32))
        rois = [random_box(rng, 0)]
        assert np.allclose(model.forward(video, rois).data, other.forward(video, rois).data, atol=1e-5)

    def test_digest_mismatch_rejected(self, tmp_path):
        model = VideoClassifier(SMALL, TroiConfig(), seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        other = VideoClassifier(SMALL, TroiConfig(insert_at="conv3"), seed=0)
        with pytest.raises(DataError, match="digest"):
            load_checkpoint(path, other)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(DataError):
            load_checkpoint(path, VideoClassifier(SMALL, None, seed=0))

    # magic (8 bytes), digest length (4), digest (64), tensor count (4), tensors
    @pytest.mark.parametrize(
        "cut, field",
        [(5, "not a checkpoint"), (10, "digest length"), (40, "config digest"), (78, "tensor count"), (82, "tensor header")],
    )
    def test_truncated_header_is_data_error(self, tmp_path, cut, field):
        model = VideoClassifier(SMALL, TroiConfig(), seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(DataError, match=field):
            load_checkpoint(path, model)

    def test_arch_text_distinguishes_configs(self):
        a = VideoClassifier(SMALL, TroiConfig(), seed=0)
        b = VideoClassifier(SMALL, TroiConfig(layers=2), seed=0)
        c = VideoClassifier(SMALL, None, seed=0)
        assert len({a.config_digest(), b.config_digest(), c.config_digest()}) == 3
