"""The batched ROI path: one module call per batch must give every video
exactly what it would get alone, and must not grow the graph with the
batch size or the clip length."""

import numpy as np
import pytest

from troikit.backbone import BackboneSpec, VideoClassifier
from troikit.errors import InvalidBoxError
from troikit.gradcheck import check_point
from troikit.rois import RoiBox, clip_box
from troikit.tensor import Tensor, _toposort, backward, cross_entropy, mul, precision, reduce_sum
from troikit.troi import TroiConfig, TroiModule

from test_rois import random_box

FRAMES = 4
SPEC = BackboneSpec(frames=FRAMES, size=32, channels=(4, 6, 8, 8), classes=3)  # 4x4 maps at conv4
VARIANTS = {
    "plain": TroiConfig(),
    "scene+coord": TroiConfig(scene_token=True, coord_encoding=True),
}


def mixed_rois(rng, frames=FRAMES):
    """Four videos: boxes on several frames, no boxes, every box outside
    the image, and one box that is clipped."""
    return [
        [random_box(rng, 2), random_box(rng, 0, "hand"), random_box(rng, 2), random_box(rng, frames - 1)],
        [],
        [RoiBox(1, 1.2, 1.2, 1.6, 1.6), RoiBox(0, -0.6, 0.1, -0.1, 0.5)],
        [RoiBox(1, -0.2, 0.3, 0.4, 1.3), random_box(rng, 1, "hand"), RoiBox(3, 1.1, 0.0, 1.5, 0.4)],
    ]


def row_videos(rois_per_video, frames, scene):
    """Video index of each encoder row: kept ROI rows by video, then one
    scene row per frame of the batch."""
    kept = [sum(clip_box(b) is not None for b in rois) for rois in rois_per_video]
    rows = np.repeat(np.arange(len(rois_per_video)), kept)
    if scene:
        rows = np.concatenate([rows, np.repeat(np.arange(len(rois_per_video)), frames)])
    return rows


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_batch_matches_each_video_alone(rng, variant):
    with precision("f64"):
        model = VideoClassifier(SPEC, VARIANTS[variant], seed=3)
        videos = rng.uniform(size=(4, FRAMES, 32, 32, 3))
        rois = mixed_rois(rng)
        batched = model.forward_batch(Tensor(videos), rois).data
        for v in range(4):
            alone = model.forward(Tensor(videos[v]), rois[v]).data
            assert np.abs(batched[v] - alone).max() <= 1e-12


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_uneven_blocks_match_each_video_alone(rng, variant):
    # the attention blocks pad to the longest video: video 0 fills its
    # block, video 1 has a single row, video 2 has none and gets no block
    with precision("f64"):
        model = VideoClassifier(SPEC, VARIANTS[variant], seed=3)
        videos = rng.uniform(size=(3, FRAMES, 32, 32, 3))
        rois = [[random_box(rng, t % FRAMES) for t in range(7)], [random_box(rng, 2)], []]
        batched = model.forward_batch(Tensor(videos), rois).data
        for v in range(3):
            alone = model.forward(Tensor(videos[v]), rois[v]).data
            assert np.abs(batched[v] - alone).max() <= 1e-12


def test_box_past_its_video_is_rejected(rng):
    model = VideoClassifier(SPEC, TroiConfig(), seed=3)
    videos = Tensor(rng.uniform(size=(3, FRAMES, 32, 32, 3)))
    # frame FRAMES exists in the batch map (video 1's first frame), but not in video 0
    rois = [[random_box(rng, 0), random_box(rng, FRAMES)], [random_box(rng, 0)], []]
    with pytest.raises(InvalidBoxError, match="outside video"):
        model.forward_batch(videos, rois)
    with pytest.raises(InvalidBoxError, match="outside video"):
        model.forward_batch(videos, [[], [], [random_box(rng, FRAMES + 2)]])


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_batched_module_gradients_match_finite_differences(rng, variant):
    with precision("f64"):
        module = TroiModule(8, VARIANTS[variant], rng)
        x = Tensor(rng.normal(size=(3 * FRAMES, 4, 4, 8)), requires_grad=True)
        rois = mixed_rois(rng)[:1] + [[random_box(rng, 1), random_box(rng, 1)], [random_box(rng, 3)]]
        proj = Tensor(rng.normal(size=x.data.shape))
        w_qkv = module.encoder.layers[0].w_qkv
        flat = [box for video in rois for box in video]
        counts = [len(video) for video in rois]
        passed, worst, checked = check_point(
            lambda: reduce_sum(mul(module.forward(x, flat, per_video=counts), proj)), [x, w_qkv], rng, 1e-6, 40
        )
        assert passed and checked == 80, f"max rel err {worst:.2e}"


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_no_gradient_crosses_videos(rng, variant):
    with precision("f64"):
        model = VideoClassifier(SPEC, VARIANTS[variant], seed=3)
        videos = Tensor(rng.uniform(size=(4, FRAMES, 32, 32, 3)), requires_grad=True)
        rois = mixed_rois(rng)
        rois[1] = [random_box(rng, 0), random_box(rng, 3)]
        proj = np.zeros((4, 3))
        proj[0] = [1.0, -2.0, 0.5]  # video 0's logits only
        backward(reduce_sum(mul(model.forward_batch(videos, rois), Tensor(proj))))
        grad = videos.grad
        assert np.abs(grad[0]).max() > 0
        assert np.all(grad[1:] == 0)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_recorded_attention_is_block_diagonal(rng, variant):
    config = TroiConfig(layers=2, heads=2, scene_token=VARIANTS[variant].scene_token,
                        coord_encoding=VARIANTS[variant].coord_encoding)
    model = VideoClassifier(SPEC, config, seed=3)
    rois = mixed_rois(rng)
    record = []
    model.forward_batch(Tensor(rng.uniform(size=(4, FRAMES, 32, 32, 3))), rois, record)
    video = row_videos(rois, FRAMES, config.scene_token)
    same = video[:, None] == video[None, :]
    assert len(record) == config.layers * config.heads
    for a in record:
        assert a.shape == (video.size, video.size)
        assert np.abs(a.sum(axis=1) - 1.0).max() <= 1e-6
        assert np.all(a[~same] == 0)
        assert np.all(a[same] > 0)


def test_graph_size_does_not_grow_with_batch_or_clip(rng):
    sizes = {}
    for frames in (2, 4):
        spec = BackboneSpec(frames=frames, size=16, channels=(4, 6, 8, 8), classes=3)
        model = VideoClassifier(spec, TroiConfig(scene_token=True, coord_encoding=True), seed=0)
        for videos in (2, 8):
            rois = [[random_box(rng, t) for t in range(frames)] + [random_box(rng, 0)] for _ in range(videos)]
            batch = Tensor(rng.uniform(size=(videos, frames, 16, 16, 3)))
            loss = cross_entropy(model.forward_batch(batch, rois), [v % 3 for v in range(videos)])
            sizes[(videos, frames)] = len(_toposort(loss))
    assert len(set(sizes.values())) == 1, sizes
