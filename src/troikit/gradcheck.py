"""Central finite-difference verification of the analytic gradients.

Each registered operation builds random 64-bit inputs, reduces the
output to a scalar through a fixed random projection, and compares the
backward-pass gradients against (f(x+h) - f(x-h)) / 2h coordinate by
coordinate. Large tensors are checked at a random coordinate subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .backbone import BackboneSpec, VideoClassifier
from .encoder import EncoderLayer
from .errors import ConfigError
from .rois import RoiBox, roi_align
from .tensor import (
    Tensor,
    backward,
    conv2d,
    cross_entropy,
    layer_norm,
    linear,
    matmul,
    mul,
    precision,
    reduce_sum,
    relu,
    softmax_rows,
    zero_grad,
)
from .troi import TroiConfig, TroiModule

STEP = 1e-5
DEFAULT_TOL = 1e-4
_REL_FLOOR = 1e-4  # treat gradients this small as zero-scale when comparing


@dataclass
class OpCheck:
    name: str
    passed: bool
    max_rel_err: float
    points: int
    coords: int


def _rel_err(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), _REL_FLOOR)


def _projection(rng, shape) -> Tensor:
    return Tensor(rng.normal(size=shape))


def _scalarize(out: Tensor, proj: Tensor) -> Tensor:
    return reduce_sum(mul(out, proj)) if out.data.shape else out


def check_point(fn, leaves, rng, tol: float, max_coords: int, perturb: float = 0.0):
    """Check one random input point; returns (passed, max_rel_err, coords)."""
    loss = fn()
    backward(loss)
    grads = [None if leaf.grad is None else leaf.grad.copy() for leaf in leaves]
    zero_grad(leaves)

    worst = 0.0
    checked = 0
    ok = True
    for leaf, grad in zip(leaves, grads):
        if grad is None:
            continue
        size = leaf.data.size
        if size <= max_coords:
            coords = np.arange(size)
        else:
            coords = rng.choice(size, size=max_coords, replace=False)
        flat = leaf.data.reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + STEP
            fplus = fn().item()
            flat[c] = orig - STEP
            fminus = fn().item()
            flat[c] = orig
            numeric = (fplus - fminus) / (2.0 * STEP)
            analytic = float(grad.reshape(-1)[c]) + perturb
            err = _rel_err(analytic, numeric)
            worst = max(worst, err)
            checked += 1
            if not err < tol:  # a NaN error fails too
                ok = False
    return ok, worst, checked


# ---------------------------------------------------------------------------
# operation builders: return (leaves, fn) with fresh random inputs


def _batch_axes(rng) -> tuple[int, ...]:
    # none, one or two leading batch axes
    return tuple(int(n) for n in rng.integers(1, 4, size=int(rng.integers(3))))


def _build_matmul(rng):
    lead = _batch_axes(rng)
    a = Tensor(rng.normal(size=lead + (3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=lead + (4, 2)), requires_grad=True)
    proj = _projection(rng, lead + (3, 2))
    return [a, b], lambda: _scalarize(matmul(a, b), proj)


def _build_softmax(rng):
    lead = _batch_axes(rng)
    x = Tensor(rng.normal(size=lead + (4, 5)) * 2.0, requires_grad=True)
    proj = _projection(rng, lead + (4, 5))
    return [x], lambda: _scalarize(softmax_rows(x), proj)


def _build_layer_norm(rng):
    x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    gamma = Tensor(rng.normal(size=(6,)), requires_grad=True)
    beta = Tensor(rng.normal(size=(6,)), requires_grad=True)
    proj = _projection(rng, (3, 6))
    return [x, gamma, beta], lambda: _scalarize(layer_norm(x, gamma, beta), proj)


def _build_relu(rng):
    x = Tensor(rng.normal(size=(3, 7)), requires_grad=True)
    proj = _projection(rng, (3, 7))
    return [x], lambda: _scalarize(relu(x), proj)


def _build_linear(rng):
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(5,)), requires_grad=True)
    proj = _projection(rng, (3, 5))
    return [x, w, b], lambda: _scalarize(linear(x, w, b), proj)


def _build_conv2d(rng):
    x = Tensor(rng.normal(size=(2, 5, 5, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 3, 3, 4)) * 0.5, requires_grad=True)
    b = Tensor(rng.normal(size=(4,)), requires_grad=True)
    proj = _projection(rng, (2, 5, 5, 4))
    return [x, w, b], lambda: _scalarize(conv2d(x, w, b), proj)


def _random_box(rng, frame: int = 0) -> RoiBox:
    x1, y1 = rng.uniform(0.05, 0.55, size=2)
    return RoiBox(frame, x1, y1, x1 + rng.uniform(0.2, 0.4), y1 + rng.uniform(0.2, 0.4))


def _build_roi_align(rng):
    x = Tensor(rng.normal(size=(6, 6, 4)), requires_grad=True)
    box = _random_box(rng)
    proj = _projection(rng, (2, 2, 4))
    return [x], lambda: _scalarize(roi_align(x, box, out=2), proj)


def _build_encoder_layer(rng):
    layer = EncoderLayer(8, heads=2, rng=rng)
    feats = Tensor(rng.normal(size=(5, 8)), requires_grad=True)
    proj = _projection(rng, (5, 8))
    leaves = [feats] + [p for _, p in layer.parameters()]
    return leaves, lambda: _scalarize(layer.forward(feats), proj)


def _build_troi_forward(rng):
    config = TroiConfig(layers=1, heads=2, scene_token=True, coord_encoding=True)
    module = TroiModule(8, config, rng)
    x = Tensor(rng.normal(size=(2, 4, 4, 8)), requires_grad=True)
    rois = [_random_box(rng, 0), _random_box(rng, 0), _random_box(rng, 1)]
    proj = _projection(rng, (2, 4, 4, 8))
    leaves = [x] + [p for _, p in module.parameters()]
    return leaves, lambda: _scalarize(module.forward(x, rois), proj)


def _build_backbone_loss(rng):
    spec = BackboneSpec(frames=2, size=16, channels=(4, 6, 8, 8), classes=3)
    model = VideoClassifier(spec, TroiConfig(insert_at="conv4", layers=1, heads=2), seed=int(rng.integers(1 << 31)))
    videos = Tensor(rng.uniform(size=(1, 2, 16, 16, 3)), requires_grad=True)
    rois = [_random_box(rng, 0), _random_box(rng, 1)]
    label = int(rng.integers(spec.classes))
    # the first conv stage, the head, and one attention projection cover
    # the full depth of the network
    leaves = [videos, model.stage_weights[0], model.head_w, model.troi.encoder.layers[0].w_qkv]
    return leaves, lambda: cross_entropy(model.forward_batch(videos, [rois]), [label])


ALL_OPS = {
    "matmul": _build_matmul,
    "softmax": _build_softmax,
    "layer_norm": _build_layer_norm,
    "relu": _build_relu,
    "linear": _build_linear,
    "conv2d": _build_conv2d,
    "roi_align": _build_roi_align,
    "encoder_layer": _build_encoder_layer,
    "troi_forward": _build_troi_forward,
    "backbone_loss": _build_backbone_loss,
}

# big composites get fewer probed coordinates to keep the suite quick
_MAX_COORDS = {"encoder_layer": 6, "troi_forward": 4, "backbone_loss": 6}


def run_checks(
    ops=None,
    points: int = 10,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    perturb: float = 0.0,
) -> list[OpCheck]:
    """Check each op at `points` random input points; `perturb` offsets
    the analytic gradients and exists so tests can prove the checker
    catches wrong gradients."""
    if points < 1:
        raise ConfigError(f"points must be at least 1, got {points}")
    if not (math.isfinite(tol) and tol > 0 and math.isfinite(perturb)):
        raise ConfigError(f"tol must be positive and finite and perturb finite, got {tol}/{perturb}")
    names = list(ALL_OPS) if ops is None else list(ops)
    if not names:
        raise ConfigError(f"the op list {ops!r} names no op; known: {sorted(ALL_OPS)}")
    unknown = [n for n in names if n not in ALL_OPS]
    if unknown:
        raise ConfigError(f"unknown op(s) {unknown}; known: {sorted(ALL_OPS)}")
    results = []
    with precision("f64"):
        for name in names:
            build = ALL_OPS[name]
            rng = np.random.default_rng(np.random.SeedSequence([seed, sorted(ALL_OPS).index(name)]))
            worst = 0.0
            coords = 0
            ok = True
            for _ in range(points):
                leaves, fn = build(rng)
                passed, err, checked = check_point(
                    fn, leaves, rng, tol, _MAX_COORDS.get(name, 24), perturb
                )
                ok = ok and passed
                worst = max(worst, err)
                coords += checked
            results.append(OpCheck(name, ok, worst, points, coords))
    return results


def format_report(results) -> str:
    width = max(len(r.name) for r in results)
    lines = [f"{'op'.ljust(width)}  result  max_rel_err  points  coords"]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{r.name.ljust(width)}  {status}    {r.max_rel_err:10.3e}  {r.points:6d}  {r.coords:6d}")
    return "\n".join(lines)
