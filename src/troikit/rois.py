"""ROI feature extraction and in-place write-back on feature maps.

A feature map is a (T, W, H, C) tensor. Boxes live in normalized image
coordinates: x spans axis 1 (scaled by W), y spans axis 2 (scaled by H).
Cell (i, j) is treated as centred at (i + 0.5, j + 0.5) in feature
coordinates, both for bilinear sampling and for footprint membership.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ContractError, DimensionError, InvalidBoxError
from .tensor import Tensor, _accumulate, concat_axis0, reshape, slice_axis0

ENTITY_TAGS = ("hand", "object", "scene")


@dataclass(frozen=True)
class RoiBox:
    """One region of interest: a frame index plus normalized box corners."""

    frame: int
    x1: float
    y1: float
    x2: float
    y2: float
    entity: str = "object"

    def __post_init__(self):
        if self.frame < 0:
            raise InvalidBoxError(f"negative frame index {self.frame}")
        if not all(map(math.isfinite, (self.x1, self.y1, self.x2, self.y2))):
            raise InvalidBoxError(f"non-finite box coordinates {(self.x1, self.y1, self.x2, self.y2)}")
        if self.entity not in ENTITY_TAGS:
            raise InvalidBoxError(f"unknown entity tag {self.entity!r}")

    def width(self) -> float:
        return self.x2 - self.x1

    def height(self) -> float:
        return self.y2 - self.y1


@dataclass(frozen=True)
class RoiFootprint:
    """Inclusive cell spans a box covers on a W x H feature map."""

    w0: int
    w1: int
    h0: int
    h1: int

    def cells(self):
        for w in range(self.w0, self.w1 + 1):
            for h in range(self.h0, self.h1 + 1):
                yield w, h


@dataclass(eq=False)
class RoiFeatureSet:
    """Pooled ROI features, row-aligned with their boxes and footprints."""

    features: Tensor  # (N, C)
    boxes: list[RoiBox]
    footprints: list[RoiFootprint]
    positions: list[int] | None = None
    dropped: int = 0  # boxes discarded as fully outside the image

    def __len__(self) -> int:
        return len(self.boxes)


def clip_box(box: RoiBox) -> RoiBox | None:
    """Clip to the unit square; None if no area remains."""
    x1 = min(max(box.x1, 0.0), 1.0)
    x2 = min(max(box.x2, 0.0), 1.0)
    y1 = min(max(box.y1, 0.0), 1.0)
    y2 = min(max(box.y2, 0.0), 1.0)
    if x2 - x1 <= 0.0 or y2 - y1 <= 0.0:
        return None
    return replace(box, x1=x1, y1=y1, x2=x2, y2=y2)


def _span(lo: float, hi: float, extent: int) -> tuple[int, int]:
    # cells whose centres fall inside [lo, hi] (feature coordinates),
    # widened to the single nearest cell when none qualifies
    first = math.ceil(lo - 0.5)
    last = math.floor(hi - 0.5)
    first = max(first, 0)
    last = min(last, extent - 1)
    if first > last:
        centre = 0.5 * (lo + hi)
        nearest = int(min(max(math.floor(centre), 0), extent - 1))
        return nearest, nearest
    return first, last


def box_to_footprint(box: RoiBox, w: int, h: int) -> RoiFootprint:
    """Map a normalized box to the feature-map cells it covers."""
    w0, w1 = _span(box.x1 * w, box.x2 * w, w)
    h0, h1 = _span(box.y1 * h, box.y2 * h, h)
    return RoiFootprint(w0, w1, h0, h1)


def _sample_grid(lo: float, hi: float, bins: int) -> np.ndarray:
    # two sample offsets per bin at 1/4 and 3/4 of the bin span
    width = (hi - lo) / bins
    offsets = (np.arange(2) + 0.5) / 2.0
    return lo + (np.arange(bins)[:, None] + offsets[None, :]) * width


def _interp_axis(coords: np.ndarray, extent: int):
    # clamp to the border cells so constants are preserved at the edges
    u = np.clip(coords - 0.5, 0.0, extent - 1)
    i0 = np.minimum(np.floor(u).astype(np.int64), max(extent - 2, 0))
    frac = (u - i0).astype(coords.dtype)
    i1 = np.minimum(i0 + 1, extent - 1)
    return i0, i1, frac


def roi_align(x_t: Tensor, box: RoiBox, out: int = 2) -> Tensor:
    """Pool a box into an out x out grid of bilinear samples.

    Each output bin averages 2x2 sample points; every sample is a
    bilinear interpolation of the four surrounding cell centres, with
    border clamping. Differentiable w.r.t. the feature map only.
    """
    if x_t.data.ndim != 3:
        raise DimensionError(f"roi_align expects a (W, H, C) map, got shape {x_t.data.shape}")
    if out < 1:
        raise ContractError(f"output grid must be at least 1, got {out}")
    w, h, c = x_t.data.shape
    clipped = clip_box(box)
    if clipped is None:
        raise InvalidBoxError(f"box {box} has no area inside the image")
    dtype = x_t.data.dtype

    ax = _sample_grid(clipped.x1 * w, clipped.x2 * w, out).astype(dtype)  # (out, 2)
    ay = _sample_grid(clipped.y1 * h, clipped.y2 * h, out).astype(dtype)
    i0, i1, tx = _interp_axis(ax, w)
    j0, j1, ty = _interp_axis(ay, h)

    # broadcast to the (out, 2, out, 2) sample lattice
    i0b, i1b = i0[:, :, None, None], i1[:, :, None, None]
    j0b, j1b = j0[None, None, :, :], j1[None, None, :, :]
    txb = tx[:, :, None, None, None]
    tyb = ty[None, None, :, :, None]

    xd = x_t.data
    w00 = (1 - txb) * (1 - tyb)
    w10 = txb * (1 - tyb)
    w01 = (1 - txb) * tyb
    w11 = txb * tyb
    samples = (
        xd[i0b, j0b] * w00 + xd[i1b, j0b] * w10 + xd[i0b, j1b] * w01 + xd[i1b, j1b] * w11
    )  # (out, 2, out, 2, C)
    result = samples.mean(axis=(1, 3))

    def _bw(g):
        if not x_t.requires_grad:
            return
        gs = np.broadcast_to(g[:, None, :, None, :], samples.shape) * np.asarray(0.25, dtype=g.dtype)
        gx = np.zeros_like(xd)
        shape4 = samples.shape[:4]
        for ib, jb, wgt in (
            (i0b, j0b, w00),
            (i1b, j0b, w10),
            (i0b, j1b, w01),
            (i1b, j1b, w11),
        ):
            np.add.at(
                gx,
                (np.broadcast_to(ib, shape4), np.broadcast_to(jb, shape4)),
                gs * wgt,
            )
        _accumulate(x_t, gx)

    return Tensor._result(result, (x_t,), _bw)


def pooled_roi_features(frame: Tensor, boxes: Sequence[RoiBox], pool_grid: int = 2) -> Tensor:
    """Align-and-average all boxes of one (W, H, C) frame in one op.

    Equivalent to roi_align followed by a spatial mean per box, but the
    sampling for every box is batched into a single gather/scatter.
    """
    if frame.data.ndim != 3:
        raise DimensionError(f"pooled_roi_features expects a (W, H, C) map, got {frame.data.shape}")
    w, h, c = frame.data.shape
    dtype = frame.data.dtype
    coords = np.array([(b.x1 * w, b.x2 * w, b.y1 * h, b.y2 * h) for b in boxes], dtype=dtype)
    grid = (np.arange(pool_grid)[:, None] + (np.arange(2)[None, :] + 0.5) / 2.0).astype(dtype)  # (out, 2)

    ax = coords[:, 0, None, None] + grid * ((coords[:, 1] - coords[:, 0]) / pool_grid)[:, None, None]
    ay = coords[:, 2, None, None] + grid * ((coords[:, 3] - coords[:, 2]) / pool_grid)[:, None, None]
    i0, i1, tx = _interp_axis(ax, w)  # (N, out, 2)
    j0, j1, ty = _interp_axis(ay, h)

    i0b, i1b = i0[:, :, :, None, None], i1[:, :, :, None, None]
    j0b, j1b = j0[:, None, None, :, :], j1[:, None, None, :, :]
    txb = tx[:, :, :, None, None, None]
    tyb = ty[:, None, None, :, :, None]

    xd = frame.data
    w00 = (1 - txb) * (1 - tyb)
    w10 = txb * (1 - tyb)
    w01 = (1 - txb) * tyb
    w11 = txb * tyb
    samples = (
        xd[i0b, j0b] * w00 + xd[i1b, j0b] * w10 + xd[i0b, j1b] * w01 + xd[i1b, j1b] * w11
    )  # (N, out, 2, out, 2, C)
    pooled = samples.mean(axis=(1, 2, 3, 4))

    def _bw(g):
        if not frame.requires_grad:
            return
        share = np.asarray(1.0 / (pool_grid * pool_grid * 4), dtype=g.dtype)
        gs = np.broadcast_to(g[:, None, None, None, None, :], samples.shape) * share
        gx = np.zeros_like(xd)
        shape5 = samples.shape[:5]
        for ib, jb, wgt in ((i0b, j0b, w00), (i1b, j0b, w10), (i0b, j1b, w01), (i1b, j1b, w11)):
            np.add.at(
                gx,
                (np.broadcast_to(ib, shape5), np.broadcast_to(jb, shape5)),
                gs * wgt,
            )
        _accumulate(frame, gx)

    return Tensor._result(pooled, (frame,), _bw)


def extract_features(x: Tensor, rois: Sequence[RoiBox], pool_grid: int = 2) -> RoiFeatureSet:
    """Pool each ROI to a C-vector: bilinear alignment to a small grid,
    then a spatial mean. Boxes fully outside the image are dropped and
    counted; survivors are grouped by frame (stable within a frame) and
    rows align 1:1 with the returned box list."""
    if x.data.ndim != 4:
        raise DimensionError(f"extract_features expects a (T, W, H, C) map, got {x.data.shape}")
    t, w, h, c = x.data.shape
    by_frame: dict[int, list[RoiBox]] = {}
    dropped = 0
    for box in rois:
        if box.frame >= t:
            raise InvalidBoxError(f"box frame {box.frame} outside video of {t} frames")
        clipped = clip_box(box)
        if clipped is None:
            dropped += 1
            continue
        by_frame.setdefault(box.frame, []).append(clipped)

    kept: list[RoiBox] = []
    chunks = []
    for ft in sorted(by_frame):
        boxes = by_frame[ft]
        frame = reshape(slice_axis0(x, ft, ft + 1), (w, h, c))
        chunks.append(pooled_roi_features(frame, boxes, pool_grid))
        kept.extend(boxes)
    if chunks:
        features = concat_axis0(chunks)
    else:
        features = Tensor(np.zeros((0, c)))
    footprints = [box_to_footprint(b, w, h) for b in kept]
    return RoiFeatureSet(features, kept, footprints, dropped=dropped)


def write_back(x: Tensor, fset: RoiFeatureSet) -> Tensor:
    """Replicate each feature row over its footprint, leaving everything
    else untouched. Cells covered by several ROIs receive the arithmetic
    mean of the contributors; contributions are summed in a canonical
    order so the result is independent of the ROI list order."""
    if x.data.ndim != 4:
        raise DimensionError(f"write_back expects a (T, W, H, C) map, got {x.data.shape}")
    t, w, h, c = x.data.shape
    feats = fset.features
    n = feats.data.shape[0]
    if n != len(fset.footprints) or n != len(fset.boxes):
        raise ContractError(
            f"feature rows ({n}) do not match footprints ({len(fset.footprints)})"
        )
    if n == 0:
        return x
    if feats.data.shape[1] != c:
        raise DimensionError(f"feature width {feats.data.shape[1]} does not match map channels {c}")

    cells: dict[tuple[int, int, int], list[int]] = {}
    for row, (box, fp) in enumerate(zip(fset.boxes, fset.footprints)):
        for cw, ch in fp.cells():
            cells.setdefault((box.frame, cw, ch), []).append(row)

    out = x.data.copy()
    fd = feats.data
    for (ft, cw, ch), rows in cells.items():
        if len(rows) == 1:
            out[ft, cw, ch] = fd[rows[0]]
        else:
            order = sorted(rows, key=lambda r: fd[r].tobytes())
            out[ft, cw, ch] = fd[order].sum(axis=0) / len(rows)

    def _bw(g):
        if x.requires_grad:
            gx = g.copy()
            for (ft, cw, ch) in cells:
                gx[ft, cw, ch] = 0
            _accumulate(x, gx)
        if feats.requires_grad:
            gf = np.zeros_like(fd)
            for (ft, cw, ch), rows in cells.items():
                share = g[ft, cw, ch] / len(rows)
                for r in rows:
                    gf[r] += share
            _accumulate(feats, gf)

    return Tensor._result(out, (x, feats), _bw)
