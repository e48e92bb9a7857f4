from dataclasses import replace

import numpy as np
import pytest

from troikit.errors import ConfigError
from troikit.posenc import encoding_matrix, order_rois
from troikit.rois import RoiBox, extract_features, write_back
from troikit.tensor import Tensor, add, concat_axis0, precision, slice_axis0
from troikit.troi import TroiConfig, TroiModule, scene_tokens

from test_rois import random_box


def zero_module(module):
    for name, p in module.parameters():
        if "gamma" in name:
            p.data = np.ones_like(p.data)
        else:
            p.data = np.zeros_like(p.data)
    return module


class TestConfig:
    def test_defaults(self):
        cfg = TroiConfig()
        assert cfg.insert_at == "conv4" and cfg.layers == 1 and cfg.heads == 2

    def test_validation(self):
        with pytest.raises(ConfigError):
            TroiConfig(insert_at="conv9")
        with pytest.raises(ConfigError):
            TroiConfig(layers=0)
        with pytest.raises(ConfigError):
            TroiConfig(ordering="sideways")

    def test_variants_string(self):
        assert TroiConfig().variants() == "none"
        assert TroiConfig(scene_token=True, coord_encoding=True).variants() == "scene,coord"


class TestForward:
    def test_bypass_on_empty_rois(self, rng):
        module = TroiModule(8, TroiConfig(), rng)
        x = Tensor(rng.normal(size=(2, 4, 4, 8)))
        assert module.forward(x, []) is x

    def test_bypass_when_every_box_is_outside(self, rng):
        module = TroiModule(8, TroiConfig(), rng)
        x = Tensor(rng.normal(size=(2, 4, 4, 8)))
        out = module.forward(x, [RoiBox(0, 1.2, 1.2, 1.6, 1.6)])
        assert out is x

    def test_zeroed_module_touches_only_footprint(self, rng):
        module = zero_module(TroiModule(8, TroiConfig(), rng))
        x = Tensor(rng.normal(size=(2, 4, 4, 8)))
        box = RoiBox(0, 0.3, 0.3, 0.7, 0.7)
        out = module.forward(x, [box])
        from troikit.rois import box_to_footprint

        fp = box_to_footprint(box, 4, 4)
        covered = np.zeros((2, 4, 4), dtype=bool)
        covered[0, fp.w0 : fp.w1 + 1, fp.h0 : fp.h1 + 1] = True
        assert np.array_equal(out.data[~covered], x.data[~covered])
        assert not np.allclose(out.data[covered], x.data[covered])

    def test_matches_manual_pipeline(self, rng):
        with precision("f64"):
            module = TroiModule(8, TroiConfig(), rng)
            x = Tensor(rng.normal(size=(2, 4, 4, 8)))
            rois = [random_box(rng, 0), random_box(rng, 1), random_box(rng, 1)]
            out = module.forward(x, rois)

            fset = extract_features(x, rois)
            positions = order_rois(fset.frame, fset.coords)
            feats = add(fset.features, Tensor(encoding_matrix(positions, 8)))
            feats = module.encoder.forward(feats)
            expected = write_back(x, replace(fset, features=feats))
            assert np.allclose(out.data, expected.data, atol=1e-6)

    def test_shape_preserved(self, rng):
        module = TroiModule(8, TroiConfig(scene_token=True, coord_encoding=True), rng)
        x = Tensor(rng.normal(size=(3, 4, 4, 8)))
        rois = [random_box(rng, f) for f in (0, 0, 1, 2)]
        assert module.forward(x, rois).data.shape == x.data.shape

    def test_deterministic(self, rng):
        module = TroiModule(8, TroiConfig(scene_token=True), rng)
        x = Tensor(rng.normal(size=(2, 4, 4, 8)))
        rois = [random_box(rng, 0), random_box(rng, 1)]
        a = module.forward(x, rois)
        b = module.forward(x, rois)
        assert np.array_equal(a.data, b.data)

    def test_variable_roi_count(self, rng):
        module = TroiModule(8, TroiConfig(), rng)
        x = Tensor(rng.normal(size=(2, 4, 4, 8)))
        for n in (0, 1, 2, 7):
            rois = [random_box(rng, i % 2) for i in range(n)]
            assert module.forward(x, rois).data.shape == x.data.shape

    def test_channel_head_mismatch(self, rng):
        with pytest.raises(ConfigError):
            TroiModule(9, TroiConfig(heads=2), rng)


class TestSceneTokens:
    def test_constant_map_token_value(self):
        x = Tensor(np.full((2, 4, 4, 8), 1.25))
        out = scene_tokens(x)
        assert out.data.shape == (2, 8)  # one token per frame
        assert np.array_equal(out.data, np.full((2, 8), 1.25, dtype=out.data.dtype))

    def test_flag_off_leaves_rows_alone(self, rng):
        module = TroiModule(8, TroiConfig(scene_token=False), rng)
        x = Tensor(rng.normal(size=(1, 4, 4, 8)))
        rois = [random_box(rng)]
        record = []
        module.forward(x, rois, record)
        assert all(a.shape == (1, 1) for a in record)  # no extra attention rows

    def test_single_max_cell_dominates(self, rng):
        with precision("f64"):
            data = rng.normal(size=(1, 3, 3, 4))
            data[0, 1, 2] = 50.0  # channel-wise maximum lives in one cell
            out = scene_tokens(Tensor(data))
            assert np.array_equal(out.data[0], data[0, 1, 2])

    def test_forward_matches_manual_pipeline(self, rng):
        # scene rows take the positions after the video's ROI rows
        with precision("f64"):
            module = TroiModule(8, TroiConfig(scene_token=True), rng)
            x = Tensor(rng.normal(size=(3, 4, 4, 8)))
            rois = [random_box(rng, 2), random_box(rng, 0), random_box(rng, 2)]
            out = module.forward(x, rois)

            fset = extract_features(x, rois)
            feats = add(fset.features, Tensor(encoding_matrix(order_rois(fset.frame, fset.coords), 8)))
            tokens = add(scene_tokens(x), Tensor(encoding_matrix([3, 4, 5], 8)))
            feats = module.encoder.forward(concat_axis0([feats, tokens]))
            expected = write_back(x, replace(fset, features=slice_axis0(feats, 0, 3)))
            assert np.allclose(out.data, expected.data, atol=1e-12)

    def test_scene_rows_not_written_back(self, rng):
        module = TroiModule(8, TroiConfig(scene_token=True), rng)
        x = Tensor(rng.normal(size=(2, 4, 4, 8)))
        box = RoiBox(0, 0.3, 0.3, 0.7, 0.7)
        out = module.forward(x, [box])
        # frame 1 has no boxes: with scene tokens in play it must still be untouched
        assert np.array_equal(out.data[1], x.data[1])
