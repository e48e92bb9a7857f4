"""Independent reference implementations used to pin expected values.

Everything here is written as plain scalar loops over numpy arrays (or
closed-form math), deliberately sharing no code with the package, so a
bug in the implementation cannot hide in its own oracle.
"""

import math

import numpy as np


def matmul_loops(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += float(a[i, p]) * float(b[p, j])
            out[i, j] = acc
    return out


def softmax_loops(x):
    out = np.zeros_like(np.asarray(x, dtype=np.float64))
    for i, row in enumerate(np.asarray(x, dtype=np.float64)):
        exps = [math.exp(v - max(row)) for v in row]
        total = sum(exps)
        out[i] = [e / total for e in exps]
    return out


def layer_norm_loops(x, gamma, beta, eps):
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    for i, row in enumerate(x):
        mu = sum(row) / len(row)
        var = sum((v - mu) ** 2 for v in row) / len(row)
        inv = 1.0 / math.sqrt(var + eps)
        out[i] = [(v - mu) * inv * g + b for v, g, b in zip(row, gamma, beta)]
    return out


def conv2d_loops(x, w, b):
    # over the input bordered by one cell of zeros
    bsz, s1, s2, cin = x.shape
    k = w.shape[0]
    cout = w.shape[3]
    o1 = s1 + 3 - k
    o2 = s2 + 3 - k
    xp = np.zeros((bsz, s1 + 2, s2 + 2, cin), dtype=np.float64)
    xp[:, 1 : 1 + s1, 1 : 1 + s2, :] = x
    out = np.zeros((bsz, o1, o2, cout), dtype=np.float64)
    for n in range(bsz):
        for i in range(o1):
            for j in range(o2):
                for co in range(cout):
                    acc = 0.0
                    for di in range(k):
                        for dj in range(k):
                            for ci in range(cin):
                                acc += xp[n, i + di, j + dj, ci] * w[di, dj, ci, co]
                    out[n, i, j, co] = acc + b[co]
    return out


def max_pool_loops(x):
    """Max over side-by-side 2x2 windows; an odd trailing row or column
    is dropped."""
    bsz, s1, s2, c = x.shape
    out = np.zeros((bsz, s1 // 2, s2 // 2, c), dtype=np.float64)
    for n in range(bsz):
        for i in range(s1 // 2):
            for j in range(s2 // 2):
                for ch in range(c):
                    out[n, i, j, ch] = max(x[n, 2 * i + di, 2 * j + dj, ch] for di in range(2) for dj in range(2))
    return out


def max_pool_grad_loops(x, g):
    """Gradient of sum(g * max_pool(x)): each window passes its g to the
    first maximum in row-major window order."""
    gx = np.zeros(x.shape, dtype=np.float64)
    bsz, o1, o2, c = g.shape
    for n in range(bsz):
        for i in range(o1):
            for j in range(o2):
                for ch in range(c):
                    best = None
                    for di in range(2):
                        for dj in range(2):
                            v = x[n, 2 * i + di, 2 * j + dj, ch]
                            if best is None or v > best[0]:
                                best = (v, di, dj)
                    gx[n, 2 * i + best[1], 2 * j + best[2], ch] += g[n, i, j, ch]
    return gx


def bilinear_at(plane, fx, fy):
    """Value at continuous feature coordinates with half-cell centres and
    border clamping; plane is (W, H)."""
    w, h = plane.shape
    u = min(max(fx - 0.5, 0.0), w - 1)
    v = min(max(fy - 0.5, 0.0), h - 1)
    i0 = min(int(math.floor(u)), max(w - 2, 0))
    j0 = min(int(math.floor(v)), max(h - 2, 0))
    i1 = min(i0 + 1, w - 1)
    j1 = min(j0 + 1, h - 1)
    t = u - i0
    s = v - j0
    return (
        plane[i0, j0] * (1 - t) * (1 - s)
        + plane[i1, j0] * t * (1 - s)
        + plane[i0, j1] * (1 - t) * s
        + plane[i1, j1] * t * s
    )


def roi_align_loops(x, box, out):
    """x is (W, H, C); box has normalized corners; 2x2 samples per bin."""
    w, h, c = x.shape
    fx1, fx2 = box.x1 * w, box.x2 * w
    fy1, fy2 = box.y1 * h, box.y2 * h
    bw = (fx2 - fx1) / out
    bh = (fy2 - fy1) / out
    result = np.zeros((out, out, c), dtype=np.float64)
    for bx in range(out):
        for by in range(out):
            for ch in range(c):
                acc = 0.0
                for sx in (0.25, 0.75):
                    for sy in (0.25, 0.75):
                        fx = fx1 + (bx + sx) * bw
                        fy = fy1 + (by + sy) * bh
                        acc += bilinear_at(x[:, :, ch], fx, fy)
                result[bx, by, ch] = acc / 4.0
    return result


def footprint_loops(box, w, h):
    """Cells whose centres fall inside the scaled box; nearest cell to the
    box centre when none does."""
    cols = [i for i in range(w) if box.x1 * w <= i + 0.5 <= box.x2 * w]
    rows = [j for j in range(h) if box.y1 * h <= j + 0.5 <= box.y2 * h]
    if not cols:
        centre = 0.5 * (box.x1 + box.x2) * w
        cols = [int(min(max(math.floor(centre), 0), w - 1))]
    if not rows:
        centre = 0.5 * (box.y1 + box.y2) * h
        rows = [int(min(max(math.floor(centre), 0), h - 1))]
    return cols[0], cols[-1], rows[0], rows[-1]


def iou_loops(a, b):
    ix = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
    iy = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
    inter = ix * iy
    union = (a.x2 - a.x1) * (a.y2 - a.y1) + (b.x2 - b.x1) * (b.y2 - b.y1) - inter
    return inter / union if union else 0.0


def sinusoid_loops(pos, channels):
    enc = np.zeros(channels, dtype=np.float64)
    for i in range(channels // 2):
        angle = pos / (10000.0 ** (2.0 * i / channels))
        enc[2 * i] = math.sin(angle)
        enc[2 * i + 1] = math.cos(angle)
    return enc


def sgd_velocity_loops(theta0, grads, lr, momentum, decay):
    """Velocity recurrence unrolled one scalar step at a time."""
    theta = float(theta0)
    v = 0.0
    for g in grads:
        v = momentum * v + (g + decay * theta)
        theta = theta - lr * v
    return theta


def log_sum_exp_loops(values):
    m = max(values)
    return m + math.log(sum(math.exp(v - m) for v in values))


def central_difference(fn, arr, index, h=1e-5):
    orig = arr.flat[index]
    arr.flat[index] = orig + h
    fplus = fn()
    arr.flat[index] = orig - h
    fminus = fn()
    arr.flat[index] = orig
    return (fplus - fminus) / (2.0 * h)


def render_loops(background, sprites, visible_fraction=0.1):
    """Paint sprites one pixel at a time, then count each sprite's
    visible pixels with a boolean mask per sprite per frame.

    ``background`` is a (T, S, S, 3) float64 array; ``sprites`` lists
    (color, centers, (hx, hy), tag) bottom to top, with one centre (or
    None) per frame. A pixel (i, j) belongs to a sprite when its centre
    (i + 0.5, j + 0.5) lies inside the sprite's rectangle scaled by S,
    after the rectangle is moved to lie inside the unit square. Returns
    the float32 video and (frame, x1, y1, x2, y2, tag) boxes of sprites
    with at least ``visible_fraction`` of their pixels on top.
    """
    frames, size = background.shape[0], background.shape[1]
    video = np.array(background, dtype=np.float64)
    boxes = []
    for t in range(frames):
        rects, masks = [], []
        for color, centers, (hx, hy), tag in sprites:
            if centers[t] is None:
                rects.append(None)
                masks.append(None)
                continue
            cx = min(max(centers[t][0], hx), 1.0 - hx)
            cy = min(max(centers[t][1], hy), 1.0 - hy)
            rect = (cx - hx, cy - hy, cx + hx, cy + hy)
            mask = np.zeros((size, size), dtype=bool)
            for i in range(size):
                for j in range(size):
                    mask[i, j] = (
                        rect[0] * size <= i + 0.5 <= rect[2] * size and rect[1] * size <= j + 0.5 <= rect[3] * size
                    )
            for i, j in zip(*np.nonzero(mask)):
                video[t, i, j] = color
            rects.append(rect)
            masks.append(mask)
        for k, (rect, mask) in enumerate(zip(rects, masks)):
            if mask is None or not mask.any():
                continue
            covered = np.zeros((size, size), dtype=bool)
            for later in masks[k + 1 :]:
                if later is not None:
                    covered |= later
            if (mask & ~covered).sum() / mask.sum() < visible_fraction:
                continue
            boxes.append((t, *(float(v) for v in rect), sprites[k][3]))
    return video.astype(np.float32), boxes
