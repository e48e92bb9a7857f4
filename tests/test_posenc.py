import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from troikit.errors import ConfigError
from troikit.posenc import CoordEncoder, encoding_matrix, order_rois
from troikit.rois import RoiBox
from troikit.tensor import precision

import oracles
from test_rois import box_arrays


def ranks(rois, direction="left-right"):
    return order_rois(*box_arrays(rois), direction).tolist()


def boxes_strategy():
    coord = st.floats(min_value=0.0, max_value=0.8, allow_nan=False)
    return st.lists(
        st.tuples(st.integers(0, 3), coord, coord).map(
            lambda t: RoiBox(t[0], t[1], t[2], t[1] + 0.1, t[2] + 0.1)
        ),
        min_size=1,
        max_size=8,
    )


class TestOrdering:
    def test_one_roi_per_frame(self):
        rois = [RoiBox(2, 0.1, 0.1, 0.3, 0.3), RoiBox(0, 0.5, 0.5, 0.7, 0.7), RoiBox(1, 0.2, 0.2, 0.4, 0.4)]
        assert ranks(rois) == [2, 0, 1]

    def test_left_to_right_within_frame(self):
        rois = [RoiBox(0, 0.7, 0.1, 0.9, 0.3), RoiBox(0, 0.1, 0.1, 0.3, 0.3)]
        assert ranks(rois) == [1, 0]

    def test_right_to_left_flag(self):
        rois = [RoiBox(0, 0.7, 0.1, 0.9, 0.3), RoiBox(0, 0.1, 0.1, 0.3, 0.3)]
        assert ranks(rois, "right-left") == [0, 1]

    def test_duplicate_boxes_keep_input_order(self):
        box = RoiBox(0, 0.2, 0.2, 0.4, 0.4)
        assert ranks([box, box, box]) == [0, 1, 2]

    def test_y_breaks_x_ties(self):
        rois = [RoiBox(0, 0.2, 0.8, 0.4, 0.9), RoiBox(0, 0.2, 0.1, 0.4, 0.3)]
        assert ranks(rois) == [1, 0]

    def test_unknown_direction(self):
        with pytest.raises(ConfigError):
            ranks([], "top-down")

    @given(boxes_strategy(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_positions_are_permutation_and_stable_under_shuffle(self, rois, rand):
        positions = ranks(rois)
        assert sorted(positions) == list(range(len(rois)))
        # same box keeps its rank when distinct boxes are shuffled
        if len({(b.frame, b.x1, b.y1) for b in rois}) == len(rois):
            shuffled = list(enumerate(rois))
            rand.shuffle(shuffled)
            back = ranks([b for _, b in shuffled])
            for (orig_idx, _), rank in zip(shuffled, back):
                assert rank == positions[orig_idx]

    @given(boxes_strategy())
    @settings(max_examples=30, deadline=None)
    def test_both_directions_are_permutations(self, rois):
        for direction in ("left-right", "right-left"):
            assert sorted(ranks(rois, direction)) == list(range(len(rois)))


class TestSinusoid:
    def test_position_zero(self):
        enc = encoding_matrix([0], 8)[0]
        assert np.array_equal(enc[0::2], np.zeros(4))
        assert np.array_equal(enc[1::2], np.ones(4))

    def test_position_one_frozen(self):
        enc = encoding_matrix([1], 4)[0]
        ref = oracles.sinusoid_loops(1, 4)
        assert np.allclose(ref[:2], [0.84147, 0.54030], atol=1e-5)
        assert np.allclose(enc, ref, atol=1e-12)

    def test_distinct_positions_differ(self):
        a, b = encoding_matrix([0, 1], 16)
        assert np.linalg.norm(a - b) > 0

    def test_odd_channels_rejected(self):
        with pytest.raises(ConfigError):
            encoding_matrix([1], 7)

    def test_matrix_matches_loops(self):
        mat = encoding_matrix([0, 3, 11], 12)
        for row, pos in enumerate((0, 3, 11)):
            assert np.allclose(mat[row], oracles.sinusoid_loops(pos, 12), atol=1e-12)

    def test_matrix_is_bit_identical_to_one_row_at_a_time(self):
        # the table is one vectorized sin/cos; each row must equal the
        # same arithmetic done for one position alone
        i = np.arange(32, dtype=np.float64)
        mat = encoding_matrix(list(range(400)), 64)
        for pos in range(400):
            angles = pos / np.power(10000.0, 2.0 * i / 64)
            assert np.array_equal(mat[pos, 0::2], np.sin(angles))
            assert np.array_equal(mat[pos, 1::2], np.cos(angles))


class TestCoordEncoder:
    def test_zero_weights_are_inert(self, rng):
        enc = CoordEncoder(8, rng)
        for w in enc.weights:
            w.data = np.zeros_like(w.data)
        out = enc.encode(np.array([(0.1, 0.2, 0.5, 0.6)]))
        assert np.array_equal(out.data, np.zeros((1, 8)))

    def test_identical_boxes_identical_encodings(self, rng):
        enc = CoordEncoder(8, rng)
        out = enc.encode(np.array([(0.1, 0.2, 0.5, 0.6)] * 2))
        assert np.array_equal(out.data[0], out.data[1])

    def test_distinct_boxes_distinct_encodings(self, rng):
        with precision("f64"):
            enc = CoordEncoder(16, rng)
            out = enc.encode(np.array([(0.1, 0.2, 0.5, 0.6), (0.3, 0.1, 0.9, 0.4)]))
            assert not np.allclose(out.data[0], out.data[1])

    def test_channel_divisibility(self, rng):
        with pytest.raises(ConfigError):
            CoordEncoder(10, rng)
