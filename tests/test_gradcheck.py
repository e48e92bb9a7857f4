import numpy as np
import pytest

from troikit.errors import ConfigError
from troikit.gradcheck import ALL_OPS, DEFAULT_TOL, check_point, format_report, run_checks
from troikit.rois import RoiBox, write_back
from troikit.tensor import (
    Tensor,
    add,
    concat_axis0,
    concat_cols,
    conv2d,
    cross_entropy,
    matmul,
    max_pool2d,
    mul,
    pack_rows,
    precision,
    reduce_max,
    reduce_sum,
    slice_axis0,
    softmax_rows,
    transpose,
    unpack_rows,
)

from test_rois import make_set


def test_registry_covers_every_differentiable_surface():
    assert set(ALL_OPS) == {
        "matmul", "softmax", "layer_norm", "relu", "linear", "conv2d",
        "roi_align", "encoder_layer", "troi_forward", "backbone_loss",
    }


def test_selected_ops_pass():
    results = run_checks(ops=["matmul", "roi_align"], points=3)
    assert [r.name for r in results] == ["matmul", "roi_align"]
    assert all(r.passed for r in results)
    assert all(r.max_rel_err < 1e-4 for r in results)


def test_perturbed_gradients_are_caught():
    # negative control: a wrong analytic gradient must be reported
    results = run_checks(ops=["linear"], points=1, perturb=0.25)
    assert not results[0].passed


def test_unknown_op_rejected():
    with pytest.raises(KeyError):
        run_checks(ops=["banana"])


@pytest.mark.parametrize(
    "kwargs",
    [{"points": 0}, {"tol": float("nan")}, {"tol": 0.0}, {"perturb": float("nan")}],
)
def test_meaningless_settings_are_rejected(kwargs):
    # no points, a NaN tol or a NaN perturb would report every op as a pass
    with pytest.raises(ConfigError, match="must be"):
        run_checks(ops=["matmul"], **{"points": 1, **kwargs})


def test_nan_error_is_a_failure(rng):
    # a gradient that is NaN everywhere must not read as a pass
    x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    with precision("f64"):
        ok, _, checked = check_point(lambda: reduce_sum(mul(x, Tensor(np.full((2, 2), np.nan)))), [x], rng, 1e-4, 4)
    assert checked == 4 and not ok


def test_report_formatting():
    results = run_checks(ops=["relu"], points=1)
    text = format_report(results)
    assert "relu" in text and "pass" in text and "max_rel_err" in text


# Unit-level finite-difference checks of ops that training uses but that
# ALL_OPS (pinned by criterion 1) reaches only through composites. Each
# builder returns (leaves, fn) like the registry's, and every leaf must
# receive a gradient.

def _build_reduce_max(rng):
    x = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
    axis = int(rng.integers(-3, 3))
    proj = Tensor(rng.normal(size=reduce_max(x, axis).shape))
    return [x], lambda: reduce_sum(mul(reduce_max(x, axis), proj))


def _build_cross_entropy_batched(rng):
    logits = Tensor(rng.normal(size=(5, 4)) * 2.0, requires_grad=True)
    labels = rng.integers(0, 4, size=5).tolist()
    return [logits], lambda: cross_entropy(logits, labels)


def _two_slices(rng, extent):
    """Two random [start, stop) ranges that share at least one index."""
    start = int(rng.integers(0, extent - 1))
    first = (start, int(rng.integers(start + 1, extent + 1)))
    second = (int(rng.integers(0, start + 1)), int(rng.integers(start + 1, extent + 1)))
    return first, second


def _build_slice_axis0(rng):
    a = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    spans = _two_slices(rng, 6)
    projs = [Tensor(rng.normal(size=(stop - start, 3))) for start, stop in spans]
    # overlapping slices of one tensor: the second backward must add to the first
    return [a], lambda: add(*(reduce_sum(mul(slice_axis0(a, *span), p)) for span, p in zip(spans, projs)))


def _build_concat_axis0(rng):
    parts = [Tensor(rng.normal(size=(n, 3)), requires_grad=True) for n in (2, 1, 3)]
    proj = Tensor(rng.normal(size=(6, 3)))
    return parts, lambda: reduce_sum(mul(concat_axis0(parts), proj))


def _build_concat_cols(rng):
    parts = [Tensor(rng.normal(size=(3, n)), requires_grad=True) for n in (2, 1, 3)]
    proj = Tensor(rng.normal(size=(3, 6)))
    return parts, lambda: reduce_sum(mul(concat_cols(parts), proj))


def _build_write_back_overlapping(rng):
    x = Tensor(rng.normal(size=(2, 5, 5, 3)), requires_grad=True)
    boxes = [
        RoiBox(0, 0.0, 0.0, 0.6, 0.6),
        RoiBox(0, 0.3, 0.3, 0.9, 0.9),
        RoiBox(0, 0.1, 0.4, 0.7, 1.0),
        RoiBox(1, 0.2, 0.2, 0.8, 0.8),
        RoiBox(1, 0.2, 0.2, 0.8, 0.8),  # the same footprint twice
    ]
    feats = Tensor(rng.normal(size=(len(boxes), 3)), requires_grad=True)
    fset = make_set(feats, boxes, 5, 5)
    proj = Tensor(rng.normal(size=x.shape))
    return [x, feats], lambda: reduce_sum(mul(write_back(x, fset), proj))


def _build_matmul_batched(rng):
    a = Tensor(rng.normal(size=(2, 3, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3, 4, 2)), requires_grad=True)
    proj = Tensor(rng.normal(size=(2, 3, 3, 2)))
    return [a, b], lambda: reduce_sum(mul(matmul(a, b), proj))


def _build_transpose_batched(rng):
    a = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 2, 5)), requires_grad=True)
    proj = Tensor(rng.normal(size=(3, 4, 5)))
    # a product so the transposed layout matters to the gradient
    return [a, b], lambda: reduce_sum(mul(matmul(transpose(a), b), proj))


def _build_softmax_batched(rng):
    x = Tensor(rng.normal(size=(3, 2, 4, 5)) * 2.0, requires_grad=True)
    proj = Tensor(rng.normal(size=(3, 2, 4, 5)))
    return [x], lambda: reduce_sum(mul(softmax_rows(x), proj))


def _build_pack_unpack_rows(rng):
    # 5 rows of 2 heads into 3 blocks of width 3 with 4 padding slots; the
    # packed blocks are mixed before unpacking, so padding and heads both count
    x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    slot = rng.permutation(9)[:5]
    mix = Tensor(rng.normal(size=(6, 3, 3)), requires_grad=True)
    proj = Tensor(rng.normal(size=(5, 4)))
    return [x, mix], lambda: reduce_sum(mul(unpack_rows(matmul(mix, pack_rows(x, slot, 3, 3, 2)), slot, 2), proj))


def _build_conv2d_three_frames(rng):
    # three frames split into chunks of one and two
    pad = int(rng.integers(2))
    x = Tensor(rng.normal(size=(3, 5, 4, 2)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 3, 2, 3)) * 0.5, requires_grad=True)
    b = Tensor(rng.normal(size=(3,)), requires_grad=True)
    proj = Tensor(rng.normal(size=(3, 3 + 2 * pad, 2 + 2 * pad, 3)))
    return [x, w, b], lambda: reduce_sum(mul(conv2d(x, w, b, pad=pad), proj))


def _build_max_pool2d_three_frames(rng):
    x = Tensor(rng.normal(size=(3, 5, 6, 2)), requires_grad=True)
    proj = Tensor(rng.normal(size=(3, 2, 3, 2)))
    return [x], lambda: reduce_sum(mul(max_pool2d(x), proj))


UNIT_BUILDERS = {
    "conv2d_three_frames": _build_conv2d_three_frames,
    "max_pool2d_three_frames": _build_max_pool2d_three_frames,
    "matmul_batched": _build_matmul_batched,
    "transpose_batched": _build_transpose_batched,
    "softmax_batched": _build_softmax_batched,
    "pack_unpack_rows": _build_pack_unpack_rows,
    "reduce_max": _build_reduce_max,
    "cross_entropy_batched": _build_cross_entropy_batched,
    "slice_axis0": _build_slice_axis0,
    "concat_axis0": _build_concat_axis0,
    "concat_cols": _build_concat_cols,
    "write_back_overlapping": _build_write_back_overlapping,
}


@pytest.mark.parametrize("name", sorted(UNIT_BUILDERS))
def test_unit_op_matches_finite_differences(name):
    max_coords = 24
    rng = np.random.default_rng(np.random.SeedSequence([0, sorted(UNIT_BUILDERS).index(name)]))
    with precision("f64"):
        for _ in range(5):
            leaves, fn = UNIT_BUILDERS[name](rng)
            passed, err, checked = check_point(fn, leaves, rng, DEFAULT_TOL, max_coords)
            assert passed, (name, err)
            assert checked == sum(min(leaf.size, max_coords) for leaf in leaves), "a leaf got no gradient"


def test_write_back_overlap_check_catches_a_wrong_gradient():
    # negative control for the unit checks: the same point with an offset
    # analytic gradient must fail
    rng = np.random.default_rng(1)
    with precision("f64"):
        leaves, fn = _build_write_back_overlapping(rng)
        passed, _, _ = check_point(fn, leaves, rng, DEFAULT_TOL, 24, perturb=0.25)
    assert not passed
