import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from troikit.errors import ConfigError, DataError
from troikit.rois import RoiBox
from troikit.synth import (
    CLASSES,
    SynthVideo,
    _render,
    _Sprite,
    build_dataset,
    corrupt_rois,
    generate,
    load_dataset,
    save_dataset,
    shift_for_iou,
    video_seed,
)

import oracles


class TestGenerate:
    def test_deterministic(self):
        a = generate(12345, "swap")
        b = generate(12345, "swap")
        assert np.array_equal(a.frames, b.frames)
        assert a.rois == b.rois and a.label == b.label

    def test_shapes_and_ranges(self):
        v = generate(7, "split", frames=6, size=24)
        assert v.frames.shape == (6, 24, 24, 3)
        assert v.frames.dtype == np.float32
        assert v.frames.min() >= 0.0 and v.frames.max() <= 1.0
        assert all(0 <= b.frame < 6 for b in v.rois)
        assert all(0.0 <= b.x1 < b.x2 <= 1.0 and 0.0 <= b.y1 < b.y2 <= 1.0 for b in v.rois)

    def test_labels_follow_class_order(self):
        for i, cls in enumerate(CLASSES):
            assert generate(3, cls).label == i

    def test_unknown_class(self):
        with pytest.raises(ConfigError):
            generate(3, "teleport")

    def test_cover_hides_object_at_the_end(self):
        v = generate(99, "cover")
        last = v.frames.shape[0] - 1
        assert not [b for b in v.rois if b.frame == last and b.entity == "object"]
        assert [b for b in v.rois if b.frame == 0 and b.entity == "object"]

    def test_cover_uncover_first_frames_identical(self):
        for seed in (5, 91, 2024):
            a = generate(seed, "cover")
            b = generate(seed, "uncover")
            assert np.array_equal(a.frames[0], b.frames[0])

    def test_put_beside_swap_first_frames_identical(self):
        a = generate(41, "put-beside")
        b = generate(41, "swap")
        assert np.array_equal(a.frames[0], b.frames[0])

    def test_move_away_is_reversed_put_beside(self):
        a = generate(17, "put-beside")
        b = generate(17, "move-away")
        assert np.array_equal(b.frames, a.frames[::-1])

    def test_uncover_reveals_second_object(self):
        v = generate(23, "uncover")
        first = len([b for b in v.rois if b.frame == 0 and b.entity == "object"])
        last = len([b for b in v.rois if b.frame == v.frames.shape[0] - 1 and b.entity == "object"])
        assert first == 1 and last == 2

    def test_hand_visible_every_frame(self):
        v = generate(55, "put-beside")
        for t in range(v.frames.shape[0]):
            assert [b for b in v.rois if b.frame == t and b.entity == "hand"]

    def test_boxes_bound_entity_pixels(self):
        # the hand is drawn last, so its box must bound its colored pixels
        v = generate(77, "cover")
        size = v.frames.shape[1]
        hand = [b for b in v.rois if b.entity == "hand"]
        for b in hand:
            frame = v.frames[b.frame]
            inside = frame[
                max(int(np.ceil(b.x1 * size - 0.5)), 0) : int(np.floor(b.x2 * size - 0.5)) + 1,
                max(int(np.ceil(b.y1 * size - 0.5)), 0) : int(np.floor(b.y2 * size - 0.5)) + 1,
            ]
            assert inside.size > 0
            assert np.allclose(inside, inside[0, 0], atol=1e-6)  # solid color fill

    @pytest.mark.parametrize("cls", CLASSES)
    def test_box_coordinates_are_python_floats(self, cls):
        for seed, frames, size in ((4, 8, 32), (5, 3, 17)):
            rois = generate(seed, cls, frames, size).rois
            assert rois
            assert all(type(b.frame) is int for b in rois)
            assert all(type(c) is float for b in rois for c in (b.x1, b.y1, b.x2, b.y2))

    @pytest.mark.parametrize("frames, size", [(1, 32), (0, 32), (-3, 32), (8, 0), (8, -1)])
    def test_degenerate_shape_is_config_error(self, frames, size):
        with pytest.raises(ConfigError, match="at least 2 frames of at least 1x1"):
            generate(3, "cover", frames, size)


# sha256 over every video's frame bytes, label and box list of
# build_dataset(seed, per_class=2, frames, size), pinned from the
# per-sprite mask renderer this one replaced
GOLDEN_DIGESTS = {
    (7, 2, 16): "9183931d37c36eb84a3ebad70fc84a3bc2a24ea5b24bf05013bb804d9bb7b076",
    (7, 2, 32): "70f4f8c825658b5a333836107ea1b28a5ffdde95995f122f379a02c337a7ebd2",
    (7, 2, 64): "cc50563d55ab31370ed3026bfc767ad14b147996d6affede8749f0ed2ddee12d",
    (7, 4, 16): "74c7fdb6e7d7347e88cda21fca3484c3b4c857dd63a6574419498b08392cff07",
    (7, 4, 32): "aa6d37a344f73cb03231348902adce19e8b1f2aa8264ecd7ec762df6ea5100e9",
    (7, 4, 64): "9a60a45e25ff8ea495fd54a1d71664d61d75a2307c372a479edd189db0790e65",
    (7, 8, 16): "5804046d88747f86cbb18064d143b0b5f46c7032b4d10b5062655310e67eaa30",
    (7, 8, 32): "bbb608b794dba84b539de21ef97baba8a2fdf6ac16281471096ecb42f8487bf6",
    (7, 8, 64): "c2ed105edad7504cfc0ddb0e633c9389be9bba77853a0ea5a415483102c475e1",
    (7, 16, 16): "56e4adb17e79aef1727ba2887f23a4eaeafffd7e9f44b202b14220d98b7d1442",
    (7, 16, 32): "2d12fd55e0645e4af73aaa72942e4117128398ab7c10e4cdefd90bde4eafc906",
    (7, 16, 64): "f75d5fe1a7c52164aa96f9bc3a2488b3e9bdb2f05bdbbb5557bad0ca651a75c2",
    (8, 2, 16): "83063cf0ba34d31d16206b457a221dd36cd4357fd554bbba68d02c7fa5817705",
    (8, 2, 32): "8a657e0bc772ea4f3aca7b183a5dea7b0868eccc39921fe7dbe5cec376362f80",
    (8, 2, 64): "0785777501e0367b1f95be8ff0b46b605978d87b10272138b0df82c1bd7df5d0",
    (8, 4, 16): "35b2d3c9a19dae37245f5ceed10b1ab0d2b4ce5942fa6b8a955a0d723dbea366",
    (8, 4, 32): "206c085d860a19fc7ac3d0755a88fa74a4dc0de6eb47c046202012f9065ddea8",
    (8, 4, 64): "9f81500b7b3c45cc7cbd7bb406d1cff819f59d2ab9eeaca517f6504cac35b8cb",
    (8, 8, 16): "d064338bf2f5f62344730390e2db294117da6565f290d1646303176772378a22",
    (8, 8, 32): "2cbf74d5c438f5102087c2306348b11b7e9375e9c872e3902d8b5df1248179f8",
    (8, 8, 64): "a6726c05fb7c916ac3cdc7fe4e010152b182f66b961bbbf0947d1a540ee700ac",
    (8, 16, 16): "49c5e4af196c77291ce8544c577ba04f25abd9b577970ae7e33e68969231171d",
    (8, 16, 32): "bfe880cbed3bc3c564b3d35d795cc6cc70328393bae27edcb9a21f2950cd946c",
    (8, 16, 64): "14596a8775e64912f87b18cf37a2e60b1fa74c2982099dcb221ab51b8fcb469f",
}


def dataset_digest(videos):
    h = hashlib.sha256()
    for v in videos:
        h.update(np.ascontiguousarray(v.frames).tobytes())
        h.update(repr((v.label, [(b.frame, b.x1, b.y1, b.x2, b.y2, b.entity) for b in v.rois])).encode())
    return h.hexdigest()


@pytest.mark.parametrize("seed, frames, size", sorted(GOLDEN_DIGESTS))
def test_dataset_bytes_match_golden_digest(seed, frames, size):
    videos = build_dataset(seed, 2, frames, size, workers=1)
    assert dataset_digest(videos) == GOLDEN_DIGESTS[(seed, frames, size)]


def render_boxes(sprites, background):
    video, rects, keep = _render(
        [_Sprite(tag, np.array(color), list(centers), half) for color, centers, half, tag in sprites], background
    )
    return video, [(t, *rects[t, k].tolist(), sprites[k][3]) for t, k in zip(*np.nonzero(keep))]


@st.composite
def scenes(draw):
    """Frames, a pixel size and bottom-to-top sprites that overlap, reach
    past the border (a half side above 0.5), vanish in some frames, or
    sit exactly on top of the sprite below."""
    frames, size = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    centre = st.one_of(st.none(), st.tuples(st.floats(-0.3, 1.3), st.floats(-0.3, 1.3)))
    sprites = []
    for _ in range(draw(st.integers(1, 4))):
        color = draw(st.tuples(*[st.floats(0.0, 1.0)] * 3))
        tag = draw(st.sampled_from(["hand", "object"]))
        if sprites and draw(st.booleans()):
            below = sprites[-1]
            grow = draw(st.floats(0.5, 2.0))
            sprites.append((color, below[1], (below[2][0] * grow, below[2][1] * grow), tag))
        else:
            centers = draw(st.lists(centre, min_size=frames, max_size=frames))
            sprites.append((color, centers, draw(st.tuples(st.floats(0.01, 0.7), st.floats(0.01, 0.7))), tag))
    background = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(size=(frames, size, size, 3))
    return sprites, background


# a 3x10-pixel sprite under a 3x9 one keeps exactly 3 of its 30 pixels:
# 3 / 30 == 0.1 is visible, although 1 - 27 / 30 < 0.1
THREE_OF_THIRTY = (
    [
        ((0.2, 0.3, 0.4), [(3 / 32, 10 / 32)], (3 / 32, 10 / 32), "object"),
        ((0.9, 0.5, 0.1), [(3 / 32, 9 / 32)], (3 / 32, 9 / 32), "hand"),
    ],
    np.full((1, 16, 16, 3), 0.5),
)


@given(scenes())
@example(THREE_OF_THIRTY)
@settings(max_examples=150, deadline=None)
def test_render_matches_per_sprite_mask_loops(scene):
    sprites, background = scene
    video, boxes = render_boxes(sprites, background)
    ref_video, ref_boxes = oracles.render_loops(background, sprites)
    assert video.dtype == np.float32 and video.tobytes() == ref_video.tobytes()
    assert boxes == ref_boxes


def test_three_of_thirty_pixels_is_visible():
    video, boxes = render_boxes(*THREE_OF_THIRTY)
    object_color = np.array((0.2, 0.3, 0.4), dtype=np.float32)
    assert np.argwhere((video[0] == object_color).all(axis=2)).tolist() == [[0, 9], [1, 9], [2, 9]]
    assert [b[-1] for b in boxes] == ["object", "hand"]


class TestDatasetBuilder:
    def test_class_balance(self):
        videos = build_dataset(3, per_class=4)
        counts = np.bincount([v.label for v in videos], minlength=6)
        assert counts.tolist() == [4] * 6

    def test_interleaved_prefix_stays_balanced(self):
        videos = build_dataset(3, per_class=2)
        prefix = [v.label for v in videos[:6]]
        assert sorted(prefix) == list(range(6))

    def test_video_seed_is_stable(self):
        assert video_seed(7, 1, 3) == video_seed(7, 1, 3)
        assert video_seed(7, 1, 3) != video_seed(7, 2, 3)

    @pytest.mark.parametrize("per_class", [0, -2])
    def test_nonpositive_per_class_is_config_error(self, per_class):
        with pytest.raises(ConfigError, match="per_class must be at least 1"):
            build_dataset(3, per_class)

    def test_worker_split_gives_identical_videos(self):
        serial = build_dataset(11, per_class=2, workers=1)
        parallel = build_dataset(11, per_class=2, workers=2)
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.frames, b.frames) and a.rois == b.rois


class TestCorruption:
    def test_shift_solves_target_ratio(self):
        assert shift_for_iou(0.5) == pytest.approx(1.0 / 3.0)
        box = RoiBox(0, 0.2, 0.2, 0.5, 0.5)
        (shifted,) = corrupt_rois([box], "iou@0.50")
        assert shifted.x1 - box.x1 == pytest.approx(box.width() / 3.0, abs=1e-12)

    def test_achieved_iou_matches_target(self, rng):
        for alpha, mode in ((0.5, "iou@0.50"), (0.25, "iou@0.25"), (0.05, "iou@0.05")):
            for _ in range(40):
                x1, y1 = rng.uniform(0.05, 0.45, size=2)
                box = RoiBox(0, x1, y1, x1 + rng.uniform(0.1, 0.3), y1 + rng.uniform(0.1, 0.3))
                (shifted,) = corrupt_rois([box], mode)
                assert oracles.iou_loops(box, shifted) == pytest.approx(alpha, abs=0.02)

    def test_identity_alpha(self):
        assert shift_for_iou(1.0) == 0.0

    def test_drop_modes(self):
        rois = [
            RoiBox(0, 0.1, 0.1, 0.3, 0.3, "hand"),
            RoiBox(0, 0.4, 0.4, 0.6, 0.6, "object"),
        ]
        assert [b.entity for b in corrupt_rois(rois, "drop-hands")] == ["object"]
        assert [b.entity for b in corrupt_rois(rois, "drop-objects")] == ["hand"]
        assert corrupt_rois(rois, "drop-all") == []

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            corrupt_rois([], "blur")
        with pytest.raises(ConfigError):
            corrupt_rois([], "iou@0")
        with pytest.raises(ConfigError):  # only the listed targets are modes
            corrupt_rois([], "iou@1.0")


class TestDiskFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        videos = build_dataset(5, per_class=2, frames=4, size=16)
        save_dataset(tmp_path / "ds", videos)
        loaded = load_dataset(tmp_path / "ds")
        assert len(loaded) == len(videos)
        for a, b in zip(videos, loaded):
            assert np.array_equal(a.frames, b.frames)
            assert a.rois == b.rois
            assert a.label == b.label

    def test_numpy_valued_boxes_round_trip(self, tmp_path):
        frames = np.zeros((2, 4, 4, 3), dtype=np.float32)
        rois = [
            RoiBox(np.int64(1), np.float64(0.1), np.float32(0.2), np.float64(0.5), np.int64(1), "hand"),
            RoiBox(0, np.float16(0.25), 0.3, np.float64(2) / 3, 0.7),
        ]
        save_dataset(tmp_path / "ds", [SynthVideo(frames, rois, 2)])
        assert "np." not in (tmp_path / "ds" / "manifest.txt").read_text()
        (loaded,) = load_dataset(tmp_path / "ds")
        assert loaded.rois == rois
        assert [b.x1 for b in loaded.rois] == [0.1, 0.25] and loaded.rois[0].y1 == float(np.float32(0.2))

    def test_refuses_overwrite_without_force(self, tmp_path):
        videos = build_dataset(5, per_class=1, frames=4, size=16)
        save_dataset(tmp_path / "ds", videos)
        with pytest.raises(DataError, match="force"):
            save_dataset(tmp_path / "ds", videos)
        save_dataset(tmp_path / "ds", videos, force=True)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset(tmp_path / "nope")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda f: f[:2], "4 tab-separated fields"),
            (lambda f: f + ["extra"], "4 tab-separated fields"),
            (lambda f: [f[0], "one", f[2], f[3]], "must be integers"),
            (lambda f: [f[0], f[1], "4.5", f[3]], "must be integers"),
            (lambda f: [f[0], str(len(CLASSES)), f[2], f[3]], "outside 0.."),
            (lambda f: [f[0], "-1", f[2], f[3]], "outside 0.."),
            (lambda f: ["../" + f[0], f[1], f[2], f[3]], "outside the dataset directory"),
            (lambda f: ["/etc/hosts", f[1], f[2], f[3]], "outside the dataset directory"),
            (lambda f: [".", f[1], f[2], f[3]], "outside the dataset directory"),
            (lambda f: [f[0], f[1], f[2], "0,0.1,0.1"], "malformed box list"),
        ],
        ids=[
            "short-line", "long-line", "text-label", "fractional-frames", "label-too-large",
            "negative-label", "dotdot-path", "absolute-path", "directory-itself", "short-box",
        ],
    )
    def test_malformed_manifest_line_is_data_error(self, tmp_path, edit, message):
        videos = build_dataset(5, per_class=1, frames=4, size=16)
        save_dataset(tmp_path / "ds", videos)
        manifest = tmp_path / "ds" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        # keep a readable copy of the first video one level up, so a
        # path that escapes the directory would otherwise load fine
        (tmp_path / lines[0].split("\t")[0]).write_bytes((tmp_path / "ds" / lines[0].split("\t")[0]).read_bytes())
        lines[0] = "\t".join(edit(lines[0].split("\t")))
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=message):
            load_dataset(tmp_path / "ds")

    @pytest.mark.parametrize(
        "second",
        [
            lambda frames: np.zeros((frames.shape[0], 32, 32, 3), frames.dtype),  # a larger side
            lambda frames: frames[:, :, :8],  # not square
            lambda frames: frames[..., :1],  # one channel
        ],
        ids=["other-size", "not-square", "one-channel"],
    )
    def test_video_unlike_the_first_is_data_error(self, tmp_path, second):
        # a batch of mixed shapes used to reach np.stack in training as a raw ValueError
        videos = build_dataset(5, per_class=1, frames=4, size=16)
        videos[1] = dataclasses.replace(videos[1], frames=second(videos[1].frames))
        save_dataset(tmp_path / "ds", videos)
        with pytest.raises(DataError, match="00001.bin: stored shape"):
            load_dataset(tmp_path / "ds")

    def test_manifest_is_text_records(self, tmp_path):
        videos = build_dataset(5, per_class=1, frames=4, size=16)
        save_dataset(tmp_path / "ds", videos)
        lines = (tmp_path / "ds" / "manifest.txt").read_text().splitlines()
        assert len(lines) == len(videos)
        fname, label, frames, boxes = lines[0].split("\t")
        assert fname.endswith(".bin") and int(frames) == 4
        first = boxes.split(";")[0].split(",")
        assert len(first) == 6  # frame, corners, entity
