"""ROI feature extraction and in-place write-back on feature maps.

A feature map is a (T, W, H, C) tensor. Boxes live in normalized image
coordinates: x spans axis 1 (scaled by W), y spans axis 2 (scaled by H).
Cell (i, j) is treated as centred at (i + 0.5, j + 0.5) in feature
coordinates, both for bilinear sampling and for footprint membership.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, DimensionError, InvalidBoxError
from .tensor import Tensor, _accumulate

ENTITY_TAGS = ("hand", "object", "scene")
_POOL_GRID = 2  # roi_align bins per side that extract_features averages for each box


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
        # a bool or a non-integral frame would silently index the wrong frame
        if isinstance(self.frame, bool) or not isinstance(self.frame, (int, np.integer)):
            raise InvalidBoxError(f"frame index must be an integer, got {self.frame!r}")
        object.__setattr__(self, "frame", int(self.frame))
        if self.frame < 0:
            raise InvalidBoxError(f"negative frame index {self.frame}")
        if not (type(self.x1) is type(self.y1) is type(self.x2) is type(self.y2) is float):
            for name in ("x1", "y1", "x2", "y2"):
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(value, numbers.Real):
                    raise InvalidBoxError(f"box coordinate {name} must be a real number, got {value!r}")
                # numpy reals are stored as float, so a manifest gets plain reprs
                object.__setattr__(self, name, float(value))
        if not all(map(math.isfinite, (self.x1, self.y1, self.x2, self.y2))):
            raise InvalidBoxError(f"non-finite box coordinates {(self.x1, self.y1, self.x2, self.y2)}")
        if self.entity not in ENTITY_TAGS:
            raise InvalidBoxError(f"unknown entity tag {self.entity!r}")

    def width(self) -> float:
        return self.x2 - self.x1


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


class _RowView(Sequence):
    """A read-only sequence whose item i is made from row i of some arrays
    only when it is read."""

    def __init__(self, make, rows: int):
        self._make = make
        self._rows = rows

    def __len__(self) -> int:
        return self._rows

    def __getitem__(self, i: int):
        if not -self._rows <= i < self._rows:
            raise IndexError(f"row {i} out of range for {self._rows} rows")
        return self._make(i % self._rows)


@dataclass(eq=False)
class RoiFeatureSet:
    """Pooled ROI features, one row per kept box, with each box's frame,
    clipped coordinates and covered cells as row-aligned arrays."""

    features: Tensor  # (N, C)
    frame: np.ndarray  # (N,) int64 frame of the map the row was pooled from
    coords: np.ndarray  # (N, 4) clipped normalized (x1, y1, x2, y2)
    spans: np.ndarray  # (N, 4) int64 inclusive cell spans (w0, w1, h0, h1)
    dropped: int = 0  # boxes discarded as fully outside the image

    def __len__(self) -> int:
        return self.frame.shape[0]

    @property
    def boxes(self) -> Sequence[RoiBox]:
        """The kept boxes as ``RoiBox`` records (with the default entity
        tag), each built when it is read."""
        frame, coords = self.frame, self.coords
        return _RowView(lambda i: RoiBox(int(frame[i]), *coords[i].tolist()), len(frame))

    @property
    def footprints(self) -> Sequence[RoiFootprint]:
        """The kept boxes' footprints, each built when it is read."""
        spans = self.spans
        return _RowView(lambda i: RoiFootprint(*spans[i].tolist()), len(spans))


def _clip(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (N, 4) normalized (x1, y1, x2, y2) rows clipped to the unit square,
    # and which rows keep some area
    clipped = np.clip(coords, 0.0, 1.0)
    return clipped, (clipped[:, 2] - clipped[:, 0] > 0.0) & (clipped[:, 3] - clipped[:, 1] > 0.0)


def _corners(box: RoiBox) -> np.ndarray:
    return np.array([(box.x1, box.y1, box.x2, box.y2)])


def clip_box(box: RoiBox) -> RoiBox | None:
    """Clip to the unit square; None if no area remains."""
    clipped, keep = _clip(_corners(box))
    if not keep[0]:
        return None
    x1, y1, x2, y2 = clipped[0].tolist()
    return replace(box, x1=x1, y1=y1, x2=x2, y2=y2)


def _spans(lo: np.ndarray, hi: np.ndarray, extent: int) -> tuple[np.ndarray, np.ndarray]:
    # cells whose centres fall inside [lo, hi] (feature coordinates),
    # widened to the single nearest cell when none qualifies
    first = np.maximum(np.ceil(lo - 0.5), 0)
    last = np.minimum(np.floor(hi - 0.5), extent - 1)
    nearest = np.clip(np.floor(0.5 * (lo + hi)), 0, extent - 1)
    empty = first > last
    return np.where(empty, nearest, first), np.where(empty, nearest, last)


def _cell_spans(coords: np.ndarray, w: int, h: int) -> np.ndarray:
    # coords: (N, 4) normalized (x1, y1, x2, y2) rows; (N, 4) (w0, w1, h0, h1) spans
    w0, w1 = _spans(coords[:, 0] * w, coords[:, 2] * w, w)
    h0, h1 = _spans(coords[:, 1] * h, coords[:, 3] * h, h)
    return np.stack([w0, w1, h0, h1], axis=1).astype(np.int64)


def box_to_footprint(box: RoiBox, w: int, h: int) -> RoiFootprint:
    """Map a normalized box to the feature-map cells it covers."""
    return RoiFootprint(*_cell_spans(_corners(box), w, h)[0].tolist())


def _axis_weights(lo: np.ndarray, hi: np.ndarray, extent: int, bins: int) -> np.ndarray:
    """(N, bins, extent) sampling weights along one axis. Each bin takes
    two samples, at 1/4 and 3/4 of its span; each sample interpolates
    linearly between the two nearest cell centres, clamped to the border
    cells so constants are preserved at the edges. A bin's weights are
    the mean of its two samples' weights."""
    offsets = np.arange(bins)[:, None] + (np.arange(2) + 0.5) / 2.0  # (bins, 2)
    coords = lo[:, None, None] + offsets * ((hi - lo) / bins)[:, None, None]
    u = np.minimum(np.maximum(coords - 0.5, 0.0), extent - 1)
    i0 = np.minimum(np.floor(u), max(extent - 2, 0))
    frac = (u - i0)[..., None]
    cells = np.arange(extent)
    weights = (cells == i0[..., None]) * (1 - frac) + (cells == np.minimum(i0 + 1, extent - 1)[..., None]) * frac
    return (weights[:, :, 0] + weights[:, :, 1]) / 2


def _box_weights(coords: np.ndarray, w: int, h: int, bins: int) -> tuple[np.ndarray, np.ndarray]:
    # bilinear weights are separable: bin (bx, by) of box n reads
    # sum_ij ax[n, bx, i] * ay[n, by, j] * map[i, j]
    ax = _axis_weights(coords[:, 0] * w, coords[:, 2] * w, w, bins)
    ay = _axis_weights(coords[:, 1] * h, coords[:, 3] * h, h, bins)
    return ax, ay


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
    ax, ay = _box_weights(_corners(clipped), w, h, out)
    ax, ay = ax[0].astype(dtype), ay[0].astype(dtype)  # (out, W), (out, H)
    result = np.einsum("bi,ijc,dj->bdc", ax, x_t.data, ay)

    def _bw(g):
        if x_t.requires_grad:
            _accumulate(x_t, np.einsum("bi,bdc,dj->ijc", ax, g, ay), owned=True)

    return Tensor._result(result, (x_t,), _bw)


def extract_features(x: Tensor, rois: Sequence[RoiBox], per_video: Sequence[int] | None = None) -> RoiFeatureSet:
    """Pool each ROI to a C-vector: the mean of its 2 x 2 roi_align bins,
    for every box in one gather.

    ``x`` is an (F, W, H, C) map. Without ``per_video`` it holds one video
    and box frames index it directly. With ``per_video`` it holds
    ``len(per_video)`` videos of F / len(per_video) frames each, ``rois``
    is their box lists run together (``per_video[v]`` boxes for video v),
    each box frame counts from its own video's first frame, and a kept box
    comes back addressed by its frame in ``x``.

    Boxes fully outside the image are dropped and counted; survivors are
    ordered by frame of ``x`` (stable within a frame), and the set's frame,
    clipped-coordinate and cell-span arrays align 1:1 with its rows."""
    if x.data.ndim != 4:
        raise DimensionError(f"extract_features expects a (T, W, H, C) map, got {x.data.shape}")
    total, w, h, c = x.data.shape
    counts = [len(rois)] if per_video is None else list(per_video)
    if not counts or sum(counts) != len(rois) or total % len(counts):
        raise ContractError(f"{len(rois)} boxes in runs {counts} do not split a map of {total} frames")
    frames = total // len(counts)
    # every RoiBox was validated when it was built, and clipping keeps it finite
    raw = np.array([(b.frame, b.x1, b.y1, b.x2, b.y2) for b in rois], dtype=np.float64).reshape(-1, 5)
    outside = np.flatnonzero(raw[:, 0] >= frames)
    if outside.size:
        raise InvalidBoxError(f"box frame {rois[outside[0]].frame} outside video of {frames} frames")
    coords, keep = _clip(raw[:, 1:])
    frame = raw[:, 0].astype(np.int64) + np.repeat(np.arange(len(counts)) * frames, counts)
    order = np.flatnonzero(keep)
    order = order[np.argsort(frame[order], kind="stable")]
    frame, coords = frame[order], coords[order]
    dropped = len(rois) - order.size
    if not order.size:
        return RoiFeatureSet(Tensor(np.zeros((0, c))), frame, coords, _cell_spans(coords, w, h), dropped)

    ax, ay = _box_weights(coords, w, h, _POOL_GRID)
    n, cells = order.size, w * h
    kernel = (ax.mean(axis=1)[:, :, None] * ay.mean(axis=1)[:, None, :]).reshape(n, cells).astype(x.data.dtype)
    pooled = np.matmul(kernel[:, None, :], x.data.reshape(total, cells, c)[frame])[:, 0]

    def _bw(g):
        if not x.requires_grad:
            return
        # rows are grouped by frame: lay each frame's rows out along a
        # zero-padded depth axis and sum them with one batched matmul
        runs = np.flatnonzero(np.diff(frame, prepend=-1))
        run = np.repeat(np.arange(runs.size), np.diff(np.append(runs, n)))
        depth = np.arange(n) - runs[run]
        kpad = np.zeros((runs.size, depth.max() + 1, cells), dtype=kernel.dtype)
        gpad = np.zeros((runs.size, depth.max() + 1, c), dtype=g.dtype)
        kpad[run, depth] = kernel
        gpad[run, depth] = g
        gx = np.zeros_like(x.data)
        gx.reshape(total, cells, c)[frame[runs]] = np.matmul(kpad.transpose(0, 2, 1), gpad)
        _accumulate(x, gx, owned=True)

    features = Tensor._result(pooled, (x,), _bw)
    return RoiFeatureSet(features, frame, coords, _cell_spans(coords, w, h), dropped)


def write_back(x: Tensor, fset: RoiFeatureSet) -> Tensor:
    """Replicate each feature row over its footprint, leaving everything
    else untouched. Cells covered by several ROIs receive the arithmetic
    mean of the contributors; contributions are summed in a canonical
    order (by the bytes of each row) so the result is independent of the
    ROI list order."""
    if x.data.ndim != 4:
        raise DimensionError(f"write_back expects a (T, W, H, C) map, got {x.data.shape}")
    t, w, h, c = x.data.shape
    feats = fset.features
    n = feats.data.shape[0]
    if fset.frame.shape != (n,) or fset.spans.shape != (n, 4):
        raise ContractError(
            f"feature rows ({n}) do not match frames {fset.frame.shape} and spans {fset.spans.shape}"
        )
    if n == 0:
        return x
    if feats.data.shape[1] != c:
        raise DimensionError(f"feature width {feats.data.shape[1]} does not match map channels {c}")
    frame = fset.frame
    w0, w1, h0, h1 = fset.spans.T
    if frame.max() >= t:
        raise InvalidBoxError(f"box frame {frame.max()} outside a map of {t} frames")

    # one (row, cell) pair per covered cell of each box, grouped by row
    rows_h = h1 - h0 + 1
    sizes = (w1 - w0 + 1) * rows_h
    row = np.repeat(np.arange(n), sizes)
    first = np.cumsum(sizes) - sizes  # first pair of each row
    k = np.arange(row.size) - first[row]
    cell = (frame[row] * w + w0[row] + k // rows_h[row]) * h + h0[row] + k % rows_h[row]

    fd = feats.data
    as_bytes = np.ascontiguousarray(fd).view(np.dtype((np.void, fd.dtype.itemsize * c))).ravel()
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(as_bytes, kind="stable")] = np.arange(n)
    order = np.lexsort((rank[row], cell))  # by cell, then canonical row order
    starts = np.flatnonzero(np.diff(cell[order], prepend=-1))
    cells = cell[order][starts]
    contributors = np.diff(np.append(starts, row.size))  # per cell
    shared = contributors.astype(fd.dtype)[:, None]

    out = x.data.copy()
    out.reshape(-1, c)[cells] = np.add.reduceat(fd[row[order]], starts, axis=0) / shared

    def _bw(g):
        if x.requires_grad:
            gx = g.copy()
            gx.reshape(-1, c)[cells] = 0
            _accumulate(x, gx, owned=True)
        if feats.requires_grad:
            share = g.reshape(-1, c)[cells] / shared
            slot = np.empty(row.size, dtype=np.int64)  # each pair's index into cells
            slot[order] = np.repeat(np.arange(cells.size), contributors)
            _accumulate(feats, np.add.reduceat(share[slot], first, axis=0), owned=True)

    return Tensor._result(out, (x, feats), _bw)
