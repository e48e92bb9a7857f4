"""Synthetic relational videos with ground-truth boxes.

Each video shows a "hand" rectangle and one or two "object" rectangles
on a noisy background. The class is defined by how the entities move
and transform over time, not by any single frame: all classes draw the
same random attributes in the same order, so videos of different
classes generated from the same seed open on pixel-identical (or
near-identical) first frames and diverge only in their trajectories.

Classes
    put-beside  hand drags the object next to a second object
    cover       hand ends on top of the object, hiding it
    uncover     hand drags the object aside, revealing one hidden under it
    swap        the two objects exchange places while the hand hovers
    move-away   time reversal of put-beside: the hand drags the object
                away from the second object
    split       the object breaks into two separating halves

Matched seeds make cover, uncover and split open on the same first
frame (the object hidden under an uncover is invisible there), and
put-beside and swap likewise; move-away is frame-for-frame the reversal
of put-beside. Occluded entities (at least 90% covered) emit no box.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, InvalidBoxError
from .rois import RoiBox
from .tensor import read_tensor, write_tensor

CLASSES = ("put-beside", "cover", "uncover", "swap", "move-away", "split")
_IOU_TARGETS = {"iou@0.50": 0.50, "iou@0.25": 0.25, "iou@0.05": 0.05}  # mode -> overlap with the true box
_DROPPED = {"drop-hands": "hand", "drop-objects": "object"}  # mode -> entity removed
CORRUPT_MODES = (*_IOU_TARGETS, *_DROPPED, "drop-all")

_VISIBLE_FRACTION = 0.1  # below this an entity counts as occluded
_NOISE_AMPLITUDE = 0.08


@dataclass
class SynthVideo:
    frames: np.ndarray  # (T, S, S, 3) float32 in [0, 1]
    rois: list[RoiBox]
    label: int


@dataclass
class _Sprite:
    tag: str
    color: np.ndarray
    centers: list[tuple[float, float] | None]  # per frame; None = not alive
    half: tuple[float, float]


def _lerp(p, q, u):
    return (p[0] + (q[0] - p[0]) * u, p[1] + (q[1] - p[1]) * u)


def _sample_positions(rng: np.random.Generator, count: int, min_dist: float) -> list[tuple[float, float]]:
    points: list[tuple[float, float]] = []
    while len(points) < count:
        cand = tuple(rng.uniform(0.2, 0.8, size=2))
        if all(math.dist(cand, p) >= min_dist for p in points):
            points.append(cand)
    return points


def _sample_away(rng: np.random.Generator, origin, min_dist: float) -> tuple[float, float]:
    while True:
        cand = tuple(rng.uniform(0.2, 0.8, size=2))
        if math.dist(cand, origin) >= min_dist:
            return cand


def _shared_draws(rng: np.random.Generator, frames: int, size: int) -> dict:
    """Every class consumes the identical draw sequence, which is what
    makes matched-seed videos of different classes open identically."""
    base = rng.uniform(0.4, 0.6)
    background = rng.uniform(-_NOISE_AMPLITUDE, _NOISE_AMPLITUDE, size=(frames, size, size, 3))
    background += base
    np.minimum(np.maximum(background, 0.0, out=background), 1.0, out=background)  # np.clip without its dispatch cost

    hand_half = rng.uniform(0.10, 0.14)
    obj_half_raw = rng.uniform(0.09, 0.13)
    hidden_ratio = rng.uniform(0.70, 0.85)
    obj_half = min(obj_half_raw, 0.85 * hand_half)  # the hand can always cover it

    a, b, c = _sample_positions(rng, 3, min_dist=0.34)
    drag_to = _sample_away(rng, b, min_dist=0.30)
    push_to = _sample_away(rng, b, min_dist=0.30)

    hand_color = np.array([rng.uniform(0.70, 0.95), rng.uniform(0.25, 0.50), rng.uniform(0.15, 0.35)])
    obj_color = np.array([rng.uniform(0.10, 0.35), rng.uniform(0.35, 0.65), rng.uniform(0.65, 0.95)])
    obj2_color = np.array([rng.uniform(0.10, 0.35), rng.uniform(0.35, 0.65), rng.uniform(0.65, 0.95)])

    return {
        "background": background,
        "hand_half": hand_half,
        "obj_half": obj_half,
        "hidden_half": hidden_ratio * obj_half,
        "a": a,
        "b": b,
        "c": c,
        "drag_to": drag_to,
        "push_to": push_to,
        "hand_color": hand_color,
        "obj_color": obj_color,
        "obj2_color": obj2_color,
    }


def _grip(point, draws) -> tuple[float, float]:
    # hand rests just past the object edge, on whichever side has room
    offset = draws["hand_half"] + draws["obj_half"] + 0.01
    sign = 1.0 if draws["b"][1] <= 0.5 else -1.0
    return (point[0], point[1] + sign * offset)


def _build_sprites(cls: str, frames: int, draws: dict) -> list[_Sprite]:
    """Per-frame centers for every entity, bottom to top draw order."""
    t_meet = frames // 2
    a, b, c = draws["a"], draws["b"], draws["c"]

    def approach(target):
        return [_lerp(a, target, t / t_meet) for t in range(t_meet + 1)]

    def action_u(t):
        return (t - t_meet) / max(frames - 1 - t_meet, 1)

    hand_half = (draws["hand_half"], draws["hand_half"])
    obj_half = (draws["obj_half"], draws["obj_half"])

    if cls == "cover":
        hand = approach(b) + [b] * (frames - t_meet - 1)
        obj = [b] * frames
        return [
            _Sprite("object", draws["obj_color"], obj, obj_half),
            _Sprite("hand", draws["hand_color"], hand, hand_half),
        ]

    if cls == "uncover":
        grip = _grip(b, draws)
        obj_path = [b] * (t_meet + 1) + [_lerp(b, draws["drag_to"], action_u(t)) for t in range(t_meet + 1, frames)]
        hand = approach(grip) + [_grip(p, draws) for p in obj_path[t_meet + 1 :]]
        hidden = [b] * frames
        return [
            _Sprite("object", draws["obj2_color"], hidden, (draws["hidden_half"],) * 2),
            _Sprite("object", draws["obj_color"], obj_path, obj_half),
            _Sprite("hand", draws["hand_color"], hand, hand_half),
        ]

    if cls == "put-beside":
        grip = _grip(b, draws)
        side = draws["obj_half"] * 2 + 0.02
        dest = (c[0] + side, c[1]) if c[0] <= 0.5 else (c[0] - side, c[1])
        obj_path = [b] * (t_meet + 1) + [_lerp(b, dest, action_u(t)) for t in range(t_meet + 1, frames)]
        hand = approach(grip) + [_grip(p, draws) for p in obj_path[t_meet + 1 :]]
        return [
            _Sprite("object", draws["obj2_color"], [c] * frames, obj_half),
            _Sprite("object", draws["obj_color"], obj_path, obj_half),
            _Sprite("hand", draws["hand_color"], hand, hand_half),
        ]

    if cls == "swap":
        mid = _lerp(b, c, 0.5)
        hand = approach(mid) + [mid] * (frames - t_meet - 1)
        d = math.dist(b, c)
        perp = ((c[1] - b[1]) / d, -(c[0] - b[0]) / d)

        def arc(src, dst, direction):
            path = [src] * (t_meet + 1)
            for t in range(t_meet + 1, frames):
                u = action_u(t)
                base = _lerp(src, dst, u)
                bulge = 0.08 * math.sin(math.pi * u) * direction
                path.append((base[0] + perp[0] * bulge, base[1] + perp[1] * bulge))
            return path

        return [
            _Sprite("object", draws["obj2_color"], arc(c, b, -1.0), obj_half),
            _Sprite("object", draws["obj_color"], arc(b, c, 1.0), obj_half),
            _Sprite("hand", draws["hand_color"], hand, hand_half),
        ]

    # move-away is handled in generate() as a whole-video reversal

    if cls == "split":
        grip = _grip(b, draws)
        hand = approach(grip) + [grip] * (frames - t_meet - 1)
        whole = [b] * (t_meet + 1) + [None] * (frames - t_meet - 1)
        half_w = draws["obj_half"] / 2
        left: list = [None] * (t_meet + 1)
        right: list = [None] * (t_meet + 1)
        for t in range(t_meet + 1, frames):
            sep = half_w + 0.08 * action_u(t)
            left.append((b[0] - sep, b[1]))
            right.append((b[0] + sep, b[1]))
        return [
            _Sprite("object", draws["obj_color"], whole, obj_half),
            _Sprite("object", draws["obj_color"], left, (half_w, draws["obj_half"])),
            _Sprite("object", draws["obj_color"], right, (half_w, draws["obj_half"])),
            _Sprite("hand", draws["hand_color"], hand, hand_half),
        ]

    raise ConfigError(f"unknown class {cls!r}; expected one of {CLASSES}")


def _sprite_rects(sprites: list[_Sprite]) -> tuple[np.ndarray, np.ndarray]:
    """(frames, sprites, 4) box corners (x1, y1, x2, y2), each entity
    moved fully inside the image, and which sprites are alive per frame."""
    alive = np.array([[c is not None for c in s.centers] for s in sprites]).T
    centers = np.array([[(0.5, 0.5) if c is None else c for c in s.centers] for s in sprites]).transpose(1, 0, 2)
    half = np.array([s.half for s in sprites])
    center = np.minimum(np.maximum(centers, half), 1.0 - half)
    return np.concatenate([center - half, center + half], axis=2), alive


def _render(sprites: list[_Sprite], background: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Paint every sprite rectangle onto the background in draw order.

    A pixel belongs to a sprite when its centre (i + 0.5, j + 0.5) / size
    lies inside the sprite's rectangle. An integer owner map records the
    topmost sprite of each pixel, so a sprite's visible pixels are exactly
    the ones it still owns. Returns the float32 video, the rectangles and
    which (frame, sprite) pairs get a box: alive, at least one pixel,
    and not occluded.
    """
    size = background.shape[1]
    rects, alive = _sprite_rects(sprites)
    lo = np.maximum(np.ceil(rects[..., :2] * size - 0.5), 0).astype(np.int64)
    hi = np.minimum(np.floor(rects[..., 2:] * size - 0.5), size - 1).astype(np.int64)
    painted = alive & (lo <= hi).all(axis=2)
    video = background.astype(np.float32)
    colors = [s.color for s in sprites]
    owner = np.zeros(background.shape[:3], dtype=np.intp)  # 1 + frame * len(sprites) + sprite; 0 = background
    rows = zip(painted.reshape(-1).tolist(), lo.reshape(-1, 2).tolist(), hi.reshape(-1, 2).tolist())
    for n, (paint, (i0, j0), (i1, j1)) in enumerate(rows):
        if paint:
            t, k = divmod(n, len(sprites))
            video[t, i0 : i1 + 1, j0 : j1 + 1] = colors[k]
            owner[t, i0 : i1 + 1, j0 : j1 + 1] = n + 1
    visible = np.bincount(owner.ravel(), minlength=painted.size + 1)[1:].reshape(painted.shape)
    area = np.where(painted, (hi - lo + 1).prod(axis=2), 1)
    occluded = visible / area < _VISIBLE_FRACTION
    return video, rects, painted & ~occluded


def generate(seed: int, cls: str, frames: int = 8, size: int = 32) -> SynthVideo:
    """Render one labelled video; a pure function of its arguments."""
    if cls not in CLASSES:
        raise ConfigError(f"unknown class {cls!r}; expected one of {CLASSES}")
    if frames < 2 or size < 1:
        # every trajectory moves between a first and a middle frame (t / (frames // 2))
        raise ConfigError(f"a video needs at least 2 frames of at least 1x1 pixels, got {frames} frames of {size}x{size}")
    rng = np.random.default_rng(int(seed))
    draws = _shared_draws(rng, frames, size)
    # move-away is frame-for-frame the time reversal of put-beside: the
    # unordered frame set is identical, so only temporal order separates them
    reverse = cls == "move-away"
    sprites = _build_sprites("put-beside" if reverse else cls, frames, draws)
    video, rects, keep = _render(sprites, draws["background"])
    if reverse:
        video, rects, keep = np.ascontiguousarray(video[::-1]), rects[::-1], keep[::-1]
    ts, ks = np.nonzero(keep)  # frame-major, draw order within a frame
    rois = [
        RoiBox(t, x1, y1, x2, y2, sprites[k].tag)
        for t, k, (x1, y1, x2, y2) in zip(ts.tolist(), ks.tolist(), rects[ts, ks].tolist())
    ]
    return SynthVideo(video, rois, CLASSES.index(cls))


def video_seed(base_seed: int, class_id: int, index: int) -> int:
    return int(np.random.SeedSequence([base_seed, class_id, index]).generate_state(1, np.uint64)[0])


def _generate_job(args) -> SynthVideo:
    seed, cls, frames, size = args
    return generate(seed, cls, frames, size)


def build_dataset(
    base_seed: int,
    per_class: int,
    frames: int = 8,
    size: int = 32,
    classes=CLASSES,
    workers: int = 1,
) -> list[SynthVideo]:
    """Equal counts per class, interleaved; video seeds derive from
    (base_seed, class, index) so the set is order- and worker-independent.
    ``workers`` > 1 renders in that many processes; on 2 cores that was
    slower than one at every dataset size tried."""
    if per_class < 1 or base_seed < 0:
        raise ConfigError(f"per_class must be at least 1 and the seed non-negative, got {per_class}/{base_seed}")
    jobs = [
        (video_seed(base_seed, ci, idx), cls, frames, size)
        for idx in range(per_class)
        for ci, cls in enumerate(classes)
    ]
    workers = max(1, min(workers, len(jobs)))
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            return pool.map(_generate_job, jobs)
    return [_generate_job(job) for job in jobs]


# ---------------------------------------------------------------------------
# corruption transforms


def shift_for_iou(alpha: float) -> float:
    """Fraction of the box width to translate so that the shifted box
    overlaps the original at exactly the target ratio."""
    return (1.0 - alpha) / (1.0 + alpha)


def _shift_box(box: RoiBox, alpha: float) -> RoiBox:
    delta = shift_for_iou(alpha) * box.width()
    if box.x2 + delta <= 1.0:
        x1, x2 = box.x1 + delta, box.x2 + delta
    elif box.x1 - delta >= 0.0:
        x1, x2 = box.x1 - delta, box.x2 - delta
    else:
        x1, x2 = box.x1 + delta, min(box.x2 + delta, 1.0)  # clipped at the border
    return replace(box, x1=x1, x2=x2)


def corrupt_rois(rois, mode: str) -> list[RoiBox]:
    """Degrade a box list the way a worse detector would."""
    if mode == "drop-all":
        return []
    if mode in _DROPPED:
        return [b for b in rois if b.entity != _DROPPED[mode]]
    if mode not in _IOU_TARGETS:
        raise ConfigError(f"unknown corruption mode {mode!r}; expected one of {CORRUPT_MODES}")
    return [_shift_box(b, _IOU_TARGETS[mode]) for b in rois]


# ---------------------------------------------------------------------------
# on-disk format: manifest plus one tensor file per video

MANIFEST_NAME = "manifest.txt"


def _format_boxes(rois) -> str:
    if not rois:
        return "-"
    return ";".join(f"{b.frame},{b.x1!r},{b.y1!r},{b.x2!r},{b.y2!r},{b.entity}" for b in rois)


def _parse_boxes(text: str, frames: int) -> list[RoiBox]:
    if text == "-":
        return []
    boxes = []
    for part in text.split(";"):
        frame, x1, y1, x2, y2, entity = part.split(",")
        boxes.append(RoiBox(int(frame), float(x1), float(y1), float(x2), float(y2), entity))
        if boxes[-1].frame >= frames:
            raise InvalidBoxError(f"box frame {boxes[-1].frame} outside a video of {frames} frames")
    return boxes


def save_dataset(directory, videos, force: bool = False) -> Path:
    directory = Path(directory)
    manifest = directory / MANIFEST_NAME
    if manifest.exists() and not force:
        raise DataError(f"{manifest} already exists; pass force to overwrite")
    directory.mkdir(parents=True, exist_ok=True)
    lines = []
    for i, video in enumerate(videos):
        fname = f"{i:05d}.bin"
        with open(directory / fname, "wb") as fh:
            write_tensor(fh, video.frames)
        lines.append(f"{fname}\t{video.label}\t{video.frames.shape[0]}\t{_format_boxes(video.rois)}")
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def load_dataset(directory) -> list[SynthVideo]:
    """Round-trips save_dataset bit-exactly. A manifest that is not UTF-8 or
    lists no video, a malformed line, a box past the video's last frame, a
    file outside the directory, or a video unlike the first or not
    (T, S, S, 3) is a DataError."""
    directory = Path(directory)
    manifest = directory / MANIFEST_NAME
    if not manifest.exists():
        raise DataError(f"no manifest at {manifest}")
    try:
        text = manifest.read_text()
    except UnicodeDecodeError as exc:
        raise DataError(f"{manifest} is not UTF-8 text ({exc})") from None
    root = directory.resolve()
    videos = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{manifest}, line {lineno}"
        fields = line.split("\t")
        if len(fields) != 4:
            raise DataError(f"{where}: expected 4 tab-separated fields, got {len(fields)}")
        fname, label_text, frames_text, boxes = fields
        try:
            label, frames = int(label_text), int(frames_text)
        except ValueError:
            raise DataError(f"{where}: label {label_text!r} and frame count {frames_text!r} must be integers") from None
        if not 0 <= label < len(CLASSES):
            raise DataError(f"{where}: label {label} outside 0..{len(CLASSES) - 1}")
        path = (directory / fname).resolve()
        if path == root or not path.is_relative_to(root):
            raise DataError(f"{where}: {fname!r} is outside the dataset directory")
        try:
            rois = _parse_boxes(boxes, frames)
        except (ValueError, InvalidBoxError) as exc:
            raise DataError(f"{where}: malformed box list ({exc})") from None
        with open(path, "rb") as fh:
            data = read_tensor(fh)
        if data.ndim != 4 or data.shape != (frames, data.shape[1], data.shape[1], 3):
            raise DataError(f"{fname}: stored shape {data.shape} is not the manifest's ({frames}, S, S, 3)")
        if videos and data.shape != videos[0].frames.shape:
            raise DataError(f"{fname}: stored shape {data.shape} differs from the first video's {videos[0].frames.shape}")
        videos.append(SynthVideo(data, rois, label))
    if not videos:
        raise DataError(f"{manifest} lists no videos")
    return videos
