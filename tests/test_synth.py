import numpy as np
import pytest

from troikit.errors import ConfigError, DataError
from troikit.rois import RoiBox
from troikit.synth import (
    CLASSES,
    build_dataset,
    corrupt_rois,
    generate,
    iou,
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

    def test_worker_split_gives_identical_videos(self):
        serial = build_dataset(11, per_class=2, workers=1)
        parallel = build_dataset(11, per_class=2, workers=2)
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.frames, b.frames) and a.rois == b.rois

    def test_worker_count_comes_from_environment(self, monkeypatch):
        monkeypatch.setenv("TROIKIT_THREADS", "2")
        from_env = build_dataset(11, per_class=1, frames=4, size=16)
        monkeypatch.setenv("TROIKIT_THREADS", "1")
        serial = build_dataset(11, per_class=1, frames=4, size=16)
        for a, b in zip(from_env, serial):
            assert np.array_equal(a.frames, b.frames)


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
                assert iou(box, shifted) == pytest.approx(alpha, abs=0.02)
                assert iou(box, shifted) == pytest.approx(oracles.iou_loops(box, shifted), abs=1e-12)

    def test_identity_alpha(self):
        box = RoiBox(0, 0.2, 0.2, 0.5, 0.5)
        assert corrupt_rois([box], "iou@1.0") == [box]

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

    def test_manifest_is_text_records(self, tmp_path):
        videos = build_dataset(5, per_class=1, frames=4, size=16)
        save_dataset(tmp_path / "ds", videos)
        lines = (tmp_path / "ds" / "manifest.txt").read_text().splitlines()
        assert len(lines) == len(videos)
        fname, label, frames, boxes = lines[0].split("\t")
        assert fname.endswith(".bin") and int(frames) == 4
        first = boxes.split(";")[0].split(",")
        assert len(first) == 6  # frame, corners, entity
