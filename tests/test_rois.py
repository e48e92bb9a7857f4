import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from troikit.errors import ContractError, InvalidBoxError
from troikit.rois import (
    RoiBox,
    RoiFeatureSet,
    RoiFootprint,
    box_to_footprint,
    clip_box,
    extract_features,
    roi_align,
    write_back,
)
from troikit.tensor import Tensor, backward, mul, precision, reduce_sum

import oracles


def box_arrays(boxes):
    """(N,) frames and (N, 4) (x1, y1, x2, y2) coordinates of a box list."""
    frame = np.array([b.frame for b in boxes], dtype=np.int64)
    return frame, np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=np.float64).reshape(-1, 4)


def make_set(features, boxes, w, h):
    """A feature set over boxes that lie inside the image, in list order."""
    frame, coords = box_arrays(boxes)
    spans = np.array([astuple(box_to_footprint(b, w, h)) for b in boxes], dtype=np.int64).reshape(-1, 4)
    return RoiFeatureSet(features, frame, coords, spans)


def random_box(rng, frame=0, entity="object"):
    x1, y1 = rng.uniform(0.02, 0.55, size=2)
    return RoiBox(frame, x1, y1, x1 + rng.uniform(0.1, 0.42), y1 + rng.uniform(0.1, 0.42), entity)


class TestRoiAlign:
    def test_full_map_average(self):
        with precision("f64"):
            grid = Tensor(np.arange(16, dtype=np.float64).reshape(4, 4, 1))
            box = RoiBox(0, 0.0, 0.0, 1.0, 1.0)
            ref = oracles.roi_align_loops(grid.data, box, 1)
            assert ref.ravel()[0] == pytest.approx(7.5)
            out = roi_align(grid, box, out=1)
            assert out.data.ravel()[0] == pytest.approx(7.5, abs=1e-12)

    def test_tiny_box_reads_cell_value(self, rng):
        with precision("f64"):
            grid = Tensor(rng.normal(size=(8, 8, 2)))
            # box collapsed around the centre of cell (3, 5)
            cx, cy = (3 + 0.5) / 8, (5 + 0.5) / 8
            box = RoiBox(0, cx - 1e-7, cy - 1e-7, cx + 1e-7, cy + 1e-7)
            out = roi_align(grid, box, out=1)
            assert np.allclose(out.data.ravel(), grid.data[3, 5], atol=1e-6)

    def test_constant_map_any_box(self, rng):
        grid = Tensor(np.full((5, 7, 3), 2.5))
        for _ in range(10):
            out = roi_align(grid, random_box(rng), out=2)
            assert np.allclose(out.data, 2.5, atol=1e-6)

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        st.integers(0, 3),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    @settings(max_examples=40, deadline=None)
    def test_non_finite_coordinate_rejected(self, coords, slot, bad):
        coords[slot] = bad
        with pytest.raises(InvalidBoxError, match="non-finite"):
            RoiBox(0, *coords)

    @given(
        st.one_of(
            st.booleans(),
            st.floats(0.0, 7.0).filter(lambda f: f != int(f)),
            st.integers(0, 7).map(float),
            st.integers(0, 7).map(np.float64),
            st.integers(0, 7).map(str),
            st.none(),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_non_integer_frame_rejected(self, frame):
        with pytest.raises(InvalidBoxError, match="integer"):
            RoiBox(frame, 0.1, 0.1, 0.5, 0.5)

    @given(st.integers(0, 7), st.sampled_from([int, np.int64, np.int32, np.uint8]))
    @settings(max_examples=30, deadline=None)
    def test_integer_frame_stored_as_int(self, frame, kind):
        box = RoiBox(kind(frame), 0.1, 0.1, 0.5, 0.5)
        assert type(box.frame) is int and box.frame == frame

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        st.integers(0, 3),
        st.one_of(
            st.booleans(),
            st.booleans().map(np.bool_),
            st.floats(0.0, 1.0).map(str),
            st.none(),
            st.complex_numbers(allow_nan=False, allow_infinity=False),
            st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_non_real_coordinate_rejected(self, coords, slot, bad):
        coords[slot] = bad
        with pytest.raises(InvalidBoxError, match="real number"):
            RoiBox(0, *coords)

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        st.lists(st.sampled_from([float, int, np.float64, np.float32, np.float16, np.int64]), min_size=4, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_real_coordinates_stored_as_float(self, coords, kinds):
        values = [kind(c) for kind, c in zip(kinds, coords)]
        box = RoiBox(0, *values)
        stored = (box.x1, box.y1, box.x2, box.y2)
        assert all(type(c) is float for c in stored)
        assert list(stored) == [float(v) for v in values]

    def test_degenerate_box_rejected(self):
        grid = Tensor(np.zeros((4, 4, 1)))
        with pytest.raises(InvalidBoxError):
            roi_align(grid, RoiBox(0, 0.4, 0.2, 0.4, 0.6))
        with pytest.raises(InvalidBoxError):
            roi_align(grid, RoiBox(0, 1.2, 1.2, 1.5, 1.5))  # fully outside

    def test_matches_brute_force_oracle(self, rng):
        with precision("f64"):
            grid = Tensor(rng.normal(size=(6, 5, 4)))
            for _ in range(25):
                box = random_box(rng)
                out = roi_align(grid, box, out=2)
                ref = oracles.roi_align_loops(grid.data, box, 2)
                assert np.allclose(out.data, ref, atol=1e-9, rtol=0)

    def test_gradient_matches_finite_differences(self, rng):
        with precision("f64"):
            grid = Tensor(rng.normal(size=(5, 5, 3)), requires_grad=True)
            box = random_box(rng)
            proj = Tensor(rng.normal(size=(2, 2, 3)))
            backward(reduce_sum(mul(roi_align(grid, box, 2), proj)))
            for idx in rng.choice(grid.size, size=10, replace=False):
                num = oracles.central_difference(
                    lambda: float((oracles.roi_align_loops(grid.data, box, 2) * proj.data).sum()),
                    grid.data,
                    idx,
                )
                ana = grid.grad.flat[idx]
                assert abs(num - ana) / max(abs(num), abs(ana), 1e-4) < 1e-4


class TestFootprints:
    def test_full_cover(self):
        assert box_to_footprint(RoiBox(0, 0, 0, 1, 1), 4, 4) == RoiFootprint(0, 3, 0, 3)

    def test_tiny_box_gets_single_nearest_cell(self):
        fp = box_to_footprint(RoiBox(0, 0.499, 0.499, 0.501, 0.501), 14, 14)
        assert (fp.w1 - fp.w0, fp.h1 - fp.h0) == (0, 0)
        ref = oracles.footprint_loops(RoiBox(0, 0.499, 0.499, 0.501, 0.501), 14, 14)
        assert (fp.w0, fp.w1, fp.h0, fp.h1) == ref

    def test_quarter_box(self):
        fp = box_to_footprint(RoiBox(0, 0.0, 0.0, 0.5, 0.5), 4, 4)
        assert fp == RoiFootprint(0, 1, 0, 1)

    def test_matches_centre_in_box_oracle(self, rng):
        for _ in range(50):
            box = random_box(rng)
            fp = box_to_footprint(box, 9, 7)
            assert (fp.w0, fp.w1, fp.h0, fp.h1) == oracles.footprint_loops(box, 9, 7)

    def test_clip_box(self):
        assert clip_box(RoiBox(0, -0.2, 0.1, 0.5, 1.4)) == RoiBox(0, 0.0, 0.1, 0.5, 1.0)
        assert clip_box(RoiBox(0, 1.1, 0.2, 1.4, 0.6)) is None


class TestExtractFeatures:
    def test_empty_list(self):
        fset = extract_features(Tensor(np.zeros((2, 4, 4, 3))), [])
        assert len(fset) == 0 and fset.features.data.shape == (0, 3)

    def test_constant_map_gives_constant_vector(self):
        fset = extract_features(Tensor(np.full((1, 4, 4, 5), 3.25)), [RoiBox(0, 0.1, 0.1, 0.7, 0.8)])
        assert np.allclose(fset.features.data, 3.25, atol=1e-6)

    def test_rows_match_independent_single_calls(self, rng):
        with precision("f64"):
            x = Tensor(rng.normal(size=(2, 6, 6, 4)))
            boxes = [random_box(rng, 0), random_box(rng, 1), random_box(rng, 0)]
            fset = extract_features(x, boxes)
            for row, box in enumerate(fset.boxes):
                ref = oracles.roi_align_loops(x.data[box.frame], box, 2).mean(axis=(0, 1))
                assert np.allclose(fset.features.data[row], ref, atol=1e-9)

    def test_fully_outside_box_dropped_with_count(self, rng):
        x = Tensor(np.zeros((1, 4, 4, 2)))
        fset = extract_features(x, [RoiBox(0, 1.5, 1.5, 1.9, 1.8), random_box(rng)])
        assert fset.dropped == 1 and len(fset) == 1

    def test_frame_out_of_range(self):
        with pytest.raises(InvalidBoxError):
            extract_features(Tensor(np.zeros((2, 4, 4, 2))), [RoiBox(5, 0.1, 0.1, 0.5, 0.5)])

    def test_fused_path_gradient(self, rng):
        with precision("f64"):
            x = Tensor(rng.normal(size=(3, 5, 5, 3)), requires_grad=True)
            # two boxes share frame 0, frame 1 has none, one box sits on frame 2
            boxes = [random_box(rng, 2), random_box(rng, 0), random_box(rng, 0)]
            proj = Tensor(rng.normal(size=(3, 3)))
            fset = extract_features(x, boxes)
            backward(reduce_sum(mul(fset.features, proj)))

            def scalar():
                pooled = np.stack(
                    [oracles.roi_align_loops(x.data[b.frame], b, 2).mean(axis=(0, 1)) for b in fset.boxes]
                )
                return float((pooled * proj.data).sum())

            assert not x.grad[1].any()
            for idx in rng.choice(x.size, size=12, replace=False):
                num = oracles.central_difference(scalar, x.data, idx)
                ana = x.grad.flat[idx]
                assert abs(num - ana) / max(abs(num), abs(ana), 1e-4) < 1e-4


class TestWriteBack:
    def test_empty_set_is_noop(self):
        x = Tensor(np.arange(32, dtype=np.float32).reshape(1, 4, 4, 2))
        fset = make_set(Tensor(np.zeros((0, 2))), [], 4, 4)
        assert write_back(x, fset) is x

    def test_fixed_point_on_constant_map(self):
        x = Tensor(np.full((1, 4, 4, 3), 1.5))
        boxes = [RoiBox(0, 0.1, 0.1, 0.6, 0.6)]
        fset = extract_features(x, boxes)
        out = write_back(x, fset)
        assert np.allclose(out.data, x.data, atol=1e-6)

    def test_overlap_mean_rule(self):
        x = Tensor(np.zeros((1, 4, 4, 2)))
        u, v = [1.0, 5.0], [3.0, 7.0]
        boxes = [RoiBox(0, 0.0, 0.0, 0.5, 0.5), RoiBox(0, 0.26, 0.26, 0.75, 0.75)]
        out = write_back(x, make_set(Tensor(np.asarray([u, v])), boxes, 4, 4))
        assert np.allclose(out.data[0, 1, 1], [2.0, 6.0])  # overlap cell
        assert np.allclose(out.data[0, 0, 0], u)
        assert np.allclose(out.data[0, 2, 2], v)
        assert np.allclose(out.data[0, 3, 3], 0.0)

    def test_count_mismatch(self):
        x = Tensor(np.zeros((1, 4, 4, 2)))
        fset = make_set(Tensor(np.asarray([[1.0, 2.0]])), [RoiBox(0, 0.1, 0.1, 0.5, 0.5)], 4, 4)
        fset.spans = fset.spans[:0]
        with pytest.raises(ContractError):
            write_back(x, fset)

    def test_locality_bit_exact(self, rng):
        x = Tensor(rng.normal(size=(3, 6, 6, 4)))
        boxes = [random_box(rng, f) for f in (0, 1, 1, 2)]
        fset = extract_features(x, boxes)
        out = write_back(x, fset)
        covered = np.zeros((3, 6, 6), dtype=bool)
        for box, fp in zip(fset.boxes, fset.footprints):
            covered[box.frame, fp.w0 : fp.w1 + 1, fp.h0 : fp.h1 + 1] = True
        outside = ~covered
        assert np.array_equal(out.data[outside], x.data[outside])

    def test_order_independence_bitwise(self, rng):
        x = Tensor(rng.normal(size=(1, 5, 5, 3)))
        boxes = [RoiBox(0, 0.05, 0.05, 0.6, 0.6), RoiBox(0, 0.2, 0.2, 0.8, 0.8), RoiBox(0, 0.1, 0.3, 0.7, 0.9)]
        vectors = rng.normal(size=(3, 3))
        base = write_back(x, make_set(Tensor(vectors), boxes, 5, 5))
        for perm in ((2, 0, 1), (1, 2, 0), (2, 1, 0)):
            shuffled = write_back(
                x, make_set(Tensor(vectors[list(perm)]), [boxes[i] for i in perm], 5, 5)
            )
            assert np.array_equal(base.data, shuffled.data)

    def test_gradient_wrt_features(self, rng):
        with precision("f64"):
            x = Tensor(rng.normal(size=(1, 4, 4, 2)))
            boxes = [RoiBox(0, 0.0, 0.0, 0.5, 0.5), RoiBox(0, 0.26, 0.26, 0.75, 0.75)]
            feats = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
            fset = make_set(feats, boxes, 4, 4)
            proj = Tensor(rng.normal(size=(1, 4, 4, 2)))
            backward(reduce_sum(mul(write_back(x, fset), proj)))

            def scalar():
                fset2 = make_set(Tensor(feats.data), boxes, 4, 4)
                return float((write_back(x, fset2).data * proj.data).sum())

            for idx in range(feats.size):
                num = oracles.central_difference(scalar, feats.data, idx)
                ana = feats.grad.flat[idx]
                assert abs(num - ana) / max(abs(num), abs(ana), 1e-4) < 1e-4
