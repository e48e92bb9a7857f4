"""Dense tensors with reverse-mode automatic differentiation.

numpy supplies storage and flat arithmetic; every operation here builds
its own backward closure so the analytic gradients stay small enough to
audit against finite differences. Shapes are strict: the only permitted
broadcast is a bias vector over matrix rows (and plain Python scalars).
"""

from __future__ import annotations

import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError, DataError, DimensionError

_PRECISIONS = {"f32": np.float32, "f64": np.float64}
_state = {"dtype": np.float32, "grad_enabled": True}


def set_precision(mode: str) -> None:
    """Set the default scalar width ("f32" or "f64") for new tensors."""
    if mode not in _PRECISIONS:
        raise ContractError(f"unknown precision {mode!r}; expected one of {sorted(_PRECISIONS)}")
    _state["dtype"] = _PRECISIONS[mode]


def get_precision() -> str:
    return "f32" if _state["dtype"] is np.float32 else "f64"


@contextmanager
def precision(mode: str):
    """Temporarily switch the default precision (gradient checks run in f64)."""
    old = get_precision()
    set_precision(mode)
    try:
        yield
    finally:
        set_precision(old)


@contextmanager
def no_grad():
    """Skip graph construction inside the block (inference paths)."""
    old = _state["grad_enabled"]
    _state["grad_enabled"] = False
    try:
        yield
    finally:
        _state["grad_enabled"] = old


class Tensor:
    """N-dimensional array of reals, optionally tracked for gradients.

    Data is immutable by convention once constructed; only ``grad``
    buffers and optimizer updates (which swap in a fresh array) mutate
    state. Forward passes over shared read-only tensors are safe to run
    in parallel; backward and parameter updates are single-writer.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_state["dtype"])
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @classmethod
    def _result(cls, data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        tracked = _state["grad_enabled"] and any(p.requires_grad for p in parents)
        out.requires_grad = tracked
        out._parents = parents if tracked else ()
        out._backward = backward if tracked else None
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return int(self.data.size)

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single element, got shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add ``g`` into ``t.grad``. ``owned`` marks ``g`` as a fresh array
    that no other code holds, so a first gradient can adopt it uncopied."""
    if not t.requires_grad:
        return
    if t.grad is None:
        if owned and g.shape == t.data.shape and g.dtype == t.data.dtype:
            t.grad = g
            return
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Populate dLoss/dLeaf on every gradient-tracked leaf below ``loss``.
    An inner node's gradient is dropped once its closure has run, so the
    graph's gradients are not all held at once; leaves keep theirs.

    Calling backward again while leaf gradients are still set is an
    error; call ``zero_grad`` between steps. Silent accumulation hides
    training-loop bugs, so it is rejected outright.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ContractError("loss does not depend on any gradient-tracked tensor")
    order = _toposort(loss)
    stale = sum(
        1 for t in order if t.requires_grad and not t._parents and t.grad is not None
    )
    if stale:
        raise ContractError(
            f"{stale} leaf tensor(s) still hold gradients from a previous backward; "
            "call zero_grad first"
        )
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        if node._parents:
            node.grad = None  # its parents hold what it contributed


def zero_grad(params) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# elementwise and shape ops


def add(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.data.shape == b.data.shape:

        def _bw(g):
            _accumulate(a, g)
            _accumulate(b, g)

    elif b.data.ndim == 0 or a.data.ndim == 0:
        # plain scalar shift
        def _bw(g):
            _accumulate(a, g if a.data.ndim else np.asarray(g.sum(), dtype=g.dtype))
            _accumulate(b, g if b.data.ndim else np.asarray(g.sum(), dtype=g.dtype))

    elif a.data.ndim == 2 and b.data.ndim == 1 and b.data.shape[0] == a.data.shape[1]:
        # bias vector over matrix rows, the one permitted broadcast
        def _bw(g):
            _accumulate(a, g)
            _accumulate(b, g.sum(axis=0), owned=True)

    else:
        raise DimensionError(f"add: incompatible shapes {a.data.shape} and {b.data.shape}")
    return Tensor._result(a.data + b.data, (a, b), _bw)


def mul(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.data.shape != b.data.shape and a.data.ndim != 0 and b.data.ndim != 0:
        raise DimensionError(f"mul: incompatible shapes {a.data.shape} and {b.data.shape}")

    def _bw(g):
        ga = g * b.data
        gb = g * a.data
        _accumulate(a, ga if a.data.ndim else np.asarray(ga.sum(), dtype=g.dtype))
        _accumulate(b, gb if b.data.ndim else np.asarray(gb.sum(), dtype=g.dtype))

    return Tensor._result(a.data * b.data, (a, b), _bw)


def scale(a: Tensor, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)

    def _bw(g):
        _accumulate(a, g * c, owned=True)

    return Tensor._result(a.data * c, (a,), _bw)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    out = np.maximum(a.data, 0)

    def _bw(g):
        _accumulate(a, g * (out > 0), owned=True)  # derivative at exactly 0 is defined as 0

    return Tensor._result(out, (a,), _bw)


def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(int(s) for s in shape)
    out = a.data.reshape(shape)

    def _bw(g):
        _accumulate(a, g.reshape(a.data.shape))

    return Tensor._result(out, (a,), _bw)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes; any leading axes are batch axes."""
    a = _as_tensor(a)
    if a.data.ndim < 2:
        raise DimensionError(f"transpose expects a matrix or a stack of them, got shape {a.data.shape}")

    def _bw(g):
        _accumulate(a, g.swapaxes(-1, -2))

    return Tensor._result(a.data.swapaxes(-1, -2), (a,), _bw)


def slice_axis0(a: Tensor, start: int, stop: int) -> Tensor:
    a = _as_tensor(a)
    n = a.data.shape[0] if a.data.ndim else 0
    if not (0 <= start < stop <= n):
        raise DimensionError(f"slice [{start}:{stop}] out of range for axis of length {n}")

    def _bw(g):
        if not a.requires_grad:
            return
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[start:stop] += g

    return Tensor._result(a.data[start:stop], (a,), _bw)


def concat_axis0(parts: Sequence[Tensor]) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise DimensionError("concat_axis0 needs at least one tensor")
    trailing = parts[0].data.shape[1:]
    for p in parts:
        if p.data.shape[1:] != trailing:
            raise DimensionError(
                f"concat_axis0: trailing dims differ, {p.data.shape} vs {parts[0].data.shape}"
            )
    out = np.concatenate([p.data for p in parts], axis=0)

    def _bw(g):
        offset = 0
        for p in parts:
            n = p.data.shape[0]
            _accumulate(p, g[offset : offset + n])
            offset += n

    return Tensor._result(out, tuple(parts), _bw)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise DimensionError("concat_cols needs at least one tensor")
    rows = parts[0].data.shape[0]
    for p in parts:
        if p.data.ndim != 2 or p.data.shape[0] != rows:
            raise DimensionError(
                f"concat_cols: row counts differ, {p.data.shape} vs {parts[0].data.shape}"
            )
    out = np.concatenate([p.data for p in parts], axis=1)

    def _bw(g):
        offset = 0
        for p in parts:
            n = p.data.shape[1]
            _accumulate(p, g[:, offset : offset + n])
            offset += n

    return Tensor._result(out, tuple(parts), _bw)


# ---------------------------------------------------------------------------
# reductions


def _norm_axes(axis, ndim) -> tuple[int, ...] | None:
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(sorted(a % ndim for a in axis))


def reduce_sum(a: Tensor, axis=None) -> Tensor:
    a = _as_tensor(a)
    axes = _norm_axes(axis, a.data.ndim)
    out = a.data.sum(axis=axes)

    def _bw(g):
        if axes is None:
            _accumulate(a, np.broadcast_to(g, a.data.shape))
        else:
            _accumulate(a, np.broadcast_to(np.expand_dims(g, axes), a.data.shape))

    return Tensor._result(np.asarray(out, dtype=a.data.dtype), (a,), _bw)


def reduce_mean(a: Tensor, axis=None) -> Tensor:
    a = _as_tensor(a)
    axes = _norm_axes(axis, a.data.ndim)
    if axes is None:
        count = a.data.size
    else:
        count = 1
        for ax in axes:
            count *= a.data.shape[ax]
    out = a.data.mean(axis=axes)
    inv = 1.0 / count

    def _bw(g):
        if axes is None:
            _accumulate(a, np.broadcast_to(g * inv, a.data.shape))
        else:
            _accumulate(a, np.broadcast_to(np.expand_dims(g * inv, axes), a.data.shape))

    return Tensor._result(np.asarray(out, dtype=a.data.dtype), (a,), _bw)


def reduce_max(a: Tensor, axis: int) -> Tensor:
    """Max along one axis; on ties the gradient routes to the first maximum."""
    a = _as_tensor(a)
    axis = axis % a.data.ndim
    idx = np.argmax(a.data, axis=axis)
    out = np.take_along_axis(a.data, np.expand_dims(idx, axis), axis=axis).squeeze(axis)

    def _bw(g):
        gx = np.zeros_like(a.data)
        np.put_along_axis(gx, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis=axis)
        _accumulate(a, gx)

    return Tensor._result(out, (a,), _bw)


# ---------------------------------------------------------------------------
# linear algebra and normalization


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of (..., n, k) by (..., k, m); both operands must
    have the same leading batch axes."""
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.data.ndim < 2 or a.data.shape[:-2] != b.data.shape[:-2] or a.data.shape[-1:] != b.data.shape[-2:-1]:
        raise DimensionError(f"matmul: cannot multiply {a.data.shape} by {b.data.shape}")
    out = a.data @ b.data

    def _bw(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.swapaxes(-1, -2), owned=True)
        if b.requires_grad:
            _accumulate(b, a.data.swapaxes(-1, -2) @ g, owned=True)

    return Tensor._result(out, (a, b), _bw)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    y = matmul(x, w)
    return add(y, b) if b is not None else y


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax along the last axis with row-max subtraction for stability;
    any leading axes are batch axes. A -inf entry gets weight exactly 0."""
    x = _as_tensor(x)
    if x.data.ndim < 2:
        raise DimensionError(f"softmax_rows expects a matrix or a stack of them, got shape {x.data.shape}")
    # numpy reduces a short last axis one row at a time; with that axis
    # moved first, one pass takes the maximum of every row at once
    peak = np.ascontiguousarray(np.moveaxis(x.data, -1, 0)).max(axis=0)
    s = x.data - peak[..., None]
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)

    def _bw(g):
        gx = g - (g * s).sum(axis=-1, keepdims=True)
        gx *= s
        _accumulate(x, gx, owned=True)

    return Tensor._result(s, (x,), _bw)


def pack_rows(a: Tensor, slot: np.ndarray, blocks: int, width: int, heads: int = 1) -> Tensor:
    """Scatter the rows of an (N, heads*d) matrix into zero-padded
    (heads*blocks, width, d) blocks. ``slot[n]`` is row n's position in the
    flattened (blocks, width) grid; no two rows may share one. Head h of
    row n lands in block h*blocks + slot[n] // width, at row slot[n] % width,
    so the heads ride in the leading (batch) axis."""
    a = _as_tensor(a)
    if a.data.ndim != 2 or slot.shape != a.data.shape[:1] or a.data.shape[1] % heads:
        raise DimensionError(f"pack_rows: {slot.shape} slots or {heads} heads do not fit rows of shape {a.data.shape}")
    n, cols = a.data.shape
    d = cols // heads
    out = np.zeros((heads, blocks * width, d), dtype=a.data.dtype)
    out[:, slot] = a.data.reshape(n, heads, d).swapaxes(0, 1)

    def _bw(g):
        _accumulate(a, g.reshape(heads, blocks * width, d)[:, slot].swapaxes(0, 1).reshape(n, cols), owned=True)

    return Tensor._result(out.reshape(heads * blocks, width, d), (a,), _bw)


def unpack_rows(a: Tensor, slot: np.ndarray, heads: int = 1) -> Tensor:
    """Inverse of ``pack_rows``: gather the (N, heads*d) rows at ``slot``
    back out of (heads*blocks, width, d) blocks. Padding rows are dropped
    and get a zero gradient."""
    a = _as_tensor(a)
    if a.data.ndim != 3 or a.data.shape[0] % heads:
        raise DimensionError(f"unpack_rows expects (heads*blocks, width, d) blocks, got shape {a.data.shape}")
    stacked, width, d = a.data.shape
    n = slot.shape[0]
    out = a.data.reshape(heads, -1, d)[:, slot].swapaxes(0, 1).reshape(n, heads * d)

    def _bw(g):
        ga = np.zeros((heads, stacked // heads * width, d), dtype=g.dtype)
        ga[:, slot] = g.reshape(n, heads, d).swapaxes(0, 1)
        _accumulate(a, ga.reshape(a.data.shape), owned=True)

    return Tensor._result(out, (a,), _bw)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization to zero mean and unit variance, then affine."""
    x = _as_tensor(x)
    gamma = _as_tensor(gamma)
    beta = _as_tensor(beta)
    if eps <= 0:
        raise ContractError(f"layer_norm eps must be positive, got {eps}")
    if x.data.ndim != 2:
        raise DimensionError(f"layer_norm expects a matrix, got shape {x.data.shape}")
    c = x.data.shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise DimensionError(
            f"layer_norm scale/shift must have shape ({c},), got {gamma.data.shape} and {beta.data.shape}"
        )
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = xc * inv
    out = y * gamma.data + beta.data

    def _bw(g):
        _accumulate(beta, g.sum(axis=0), owned=True)
        _accumulate(gamma, (g * y).sum(axis=0), owned=True)
        dy = g * gamma.data
        m1 = dy.mean(axis=1, keepdims=True)
        m2 = (dy * y).mean(axis=1, keepdims=True)
        _accumulate(x, inv * (dy - m1 - y * m2), owned=True)

    return Tensor._result(out, (x, gamma, beta), _bw)


# ---------------------------------------------------------------------------
# convolution and pooling over (batch, s1, s2, channels) blocks
#
# A 2-D conv or pool treats each entry of the batch axis (a frame) on its own,
# so both ops split that axis into _CHUNKS contiguous ranges and run them on
# up to _CHUNKS cores: the calling thread takes the first range and _pool
# threads take the rest. The ranges depend only on the batch size, never on
# the core count, and every chunk runs the same code whether it is handed off
# or not, so results are bit-identical on any machine. A chunk touches only
# numpy arrays: the calling thread allocates the large ones, chunks fill
# disjoint slices, and every Tensor and gradient update stays on the calling
# thread.

_CHUNKS = 2
# the output size from which a hand-off pays, per op, set from A/B timings
# of each op inline and handed off on 2 cores (see CHANGES.md): a conv ran
# 1.2-1.9x faster from 512 KB up and 0.4-0.8x below 256 KB; a pool's forward
# ran 1.1-1.4x from 1 MB up and 0.8x at 512 KB
_CONV_HANDOFF_BYTES = 1 << 19
_POOL_HANDOFF_BYTES = 1 << 20


def _cores() -> int:
    """Cores this process may run on (the affinity mask where the OS has
    one, else the machine's core count)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _leave_the_main_threads_core() -> None:
    """Pool-thread initializer: keep off the core the main thread last ran
    on. Where the kernel does not balance load across cores (a cpuset with
    load balancing off, for one), a new thread stays on its creator's core
    for good, and both chunks would share it. Only Linux reports and sets
    a thread's core this way; elsewhere the thread is left where it is."""
    if not hasattr(os, "sched_setaffinity"):
        return
    try:
        with open(f"/proc/self/task/{threading.main_thread().native_id}/stat") as fh:
            core = int(fh.read().rsplit(")", 1)[1].split()[36])  # field 39, "processor"
    except (OSError, ValueError, IndexError):
        return
    others = os.sched_getaffinity(0) - {core}
    if others:
        os.sched_setaffinity(0, others)  # this thread only


def _new_pool() -> ThreadPoolExecutor | None:
    # the calling thread is one of the workers; pool threads start on the
    # first hand-off, not here
    workers = min(_CHUNKS, _cores())
    if workers < 2:
        return None
    return ThreadPoolExecutor(workers - 1, "troikit-chunk", _leave_the_main_threads_core)


_pool = _new_pool()


def _reset_pool_in_child() -> None:
    # a forked child inherits the executor but not its threads
    global _pool
    _pool = _new_pool()


if hasattr(os, "register_at_fork"):  # absent where processes cannot fork
    os.register_at_fork(after_in_child=_reset_pool_in_child)


def _frame_chunks(n: int) -> list[tuple[int, int]]:
    """``_CHUNKS`` contiguous (lo, hi) ranges covering ``range(n)``; empty
    ranges are left out, so a batch of one frame is one chunk."""
    cuts = [n * i // _CHUNKS for i in range(_CHUNKS + 1)]
    return [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]


def _in_errstate(err: dict, fn, lo: int, hi: int):
    with np.errstate(**err):
        return fn(lo, hi)


def _run_chunks(fn, chunks: list[tuple[int, int]], handoff: bool) -> list:
    """``fn(lo, hi)`` for every chunk, in parallel when ``handoff`` says the
    work is worth it; results come back in chunk order. The calling thread
    runs the first chunk and the pool the rest, under the caller's numpy
    error state. An exception is raised only once every chunk has stopped,
    and a handed-off chunk's exception keeps its type."""
    pool = _pool
    if pool is None or len(chunks) < 2 or not handoff:
        return [fn(lo, hi) for lo, hi in chunks]
    err = np.geterr()
    futures = [pool.submit(_in_errstate, err, fn, lo, hi) for lo, hi in chunks[1:]]
    try:
        first = fn(*chunks[0])
    finally:
        wait(futures)
    return [first] + [f.result() for f in futures]


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, pad: int = 0) -> Tensor:
    """2-D convolution with a square kernel and zero padding, one output
    cell per kernel position.

    ``x`` is (batch, s1, s2, c_in); ``w`` is (k, k, c_in, c_out). Each
    frame chunk lowers to one matrix product over its unrolled patches; the
    weight and bias gradients are the sum of the chunks' parts, added in
    chunk order.
    """
    x = _as_tensor(x)
    w = _as_tensor(w)
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise DimensionError(f"conv2d expects 4-d input and kernel, got {x.data.shape} and {w.data.shape}")
    bsz, s1, s2, cin = x.data.shape
    k, k2, cin2, cout = w.data.shape
    if k != k2 or cin != cin2:
        raise DimensionError(f"conv2d: kernel {w.data.shape} does not match input {x.data.shape}")
    if b is not None and b.data.shape != (cout,):
        raise DimensionError(f"conv2d bias must have shape ({cout},), got {b.data.shape}")
    if pad < 0:
        raise DimensionError(f"conv2d needs pad >= 0, got pad={pad}")
    o1 = s1 + 2 * pad - k + 1
    o2 = s2 + 2 * pad - k + 1
    if o1 < 1 or o2 < 1:
        raise DimensionError(f"conv2d: kernel {k} does not fit input {x.data.shape} with pad {pad}")

    dtype = x.data.dtype
    p1, p2 = s1 + 2 * pad, s2 + 2 * pad
    xp = np.zeros((bsz, p1, p2, cin), dtype=dtype) if pad else x.data
    # the unrolled patches, columns in (k, k, c_in) order
    mat = np.empty((bsz * o1 * o2, k * k * cin), dtype=dtype)
    wmat = w.data.reshape(k * k * cin, cout)
    out = np.empty((bsz * o1 * o2, cout), dtype=np.result_type(dtype, wmat.dtype))
    cells = o1 * o2
    chunks = _frame_chunks(bsz)

    def _fwd(lo, hi):
        if pad:
            xp[lo:hi, pad : pad + s1, pad : pad + s2] = x.data[lo:hi]
        rows = slice(lo * cells, hi * cells)
        win = sliding_window_view(xp[lo:hi], (k, k), axis=(1, 2))
        mat[rows].reshape(hi - lo, o1, o2, k, k, cin)[...] = win.transpose(0, 1, 2, 4, 5, 3)
        np.matmul(mat[rows], wmat, out=out[rows])
        if b is not None:
            out[rows] += b.data

    _run_chunks(_fwd, chunks, out.nbytes >= _CONV_HANDOFF_BYTES)
    out = out.reshape(bsz, o1, o2, cout)

    def _bw(g):
        gm = g.reshape(bsz * o1 * o2, cout)
        w_grad = w.requires_grad
        b_grad = b is not None and b.requires_grad
        if x.requires_grad:
            # the padded input gradient, its unpadded copy, and room for one
            # kernel tap's product, which each chunk scatters back while it
            # is in cache
            dxp = np.zeros((bsz, p1, p2, cin), dtype=g.dtype)
            dx = np.empty(x.data.shape, dtype=g.dtype) if pad else dxp
            tap = np.empty((bsz * cells, cin), dtype=g.dtype)

        def _bw_chunk(lo, hi):
            rows = slice(lo * cells, hi * cells)
            gw = (mat[rows].T @ gm[rows]) if w_grad else None
            gb = (np.ones(rows.stop - rows.start, dtype=gm.dtype) @ gm[rows]) if b_grad else None
            if x.requires_grad:
                for i in range(k):
                    for j in range(k):
                        np.matmul(gm[rows], w.data[i, j].T, out=tap[rows])
                        dxp[lo:hi, i : i + o1, j : j + o2, :] += tap[rows].reshape(hi - lo, o1, o2, cin)
                if pad:
                    dx[lo:hi] = dxp[lo:hi, pad : pad + s1, pad : pad + s2]
            return gw, gb

        # without the input gradient, a chunk is one memory-bound weight GEMM,
        # which ran 0.91x on two cores against one (stage 0)
        parts = _run_chunks(_bw_chunk, chunks, x.requires_grad and g.nbytes >= _CONV_HANDOFF_BYTES)
        # sum(rest, first) adds the chunks' parts in chunk order
        if w_grad:
            gws = [gw for gw, _ in parts]
            _accumulate(w, sum(gws[1:], gws[0]).reshape(w.data.shape), owned=True)
        if b_grad:
            gbs = [gb for _, gb in parts]
            _accumulate(b, sum(gbs[1:], gbs[0]), owned=True)
        if x.requires_grad:
            _accumulate(x, dx, owned=True)

    parents = (x, w) if b is None else (x, w, b)
    return Tensor._result(out, parents, _bw)


_POOL_SLICE_BYTES = 1 << 18  # max_pool2d output per batch slice, so its temporaries stay in cache


def max_pool2d(x: Tensor) -> Tensor:
    """Max over side-by-side 2x2 windows of the two spatial axes. An odd
    trailing row or column lies in no window: it is dropped, and its
    gradient is 0.

    The first maximum of a window in (i, j) scan order takes its gradient.
    When a graph is built, the forward pass keeps that position as a small
    integer array (a strict ``>`` against the running max), so the
    backward pass reads neither ``x`` nor the output. A window holding a
    NaN sends its gradient to one of its positions; training stops at a
    non-finite loss before ``backward``, so no training path reaches this
    case.
    """
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise DimensionError(f"max_pool2d expects 4-d input, got {x.data.shape}")
    bsz, s1, s2, c = x.data.shape
    o1, o2 = s1 // 2, s2 // 2
    if o1 < 1 or o2 < 1:
        raise DimensionError(f"2x2 pool window does not fit input {x.data.shape}")

    def window(a, n):  # tap n of each window, in (i, j) scan order
        i, j = divmod(n, 2)
        return a[:, i : i + 2 * o1 : 2, j : j + 2 * o2 : 2, :]

    out = np.empty((bsz, o1, o2, c), dtype=x.data.dtype)
    tracked = _state["grad_enabled"] and x.requires_grad
    # first[cell] is the scan-order tap of the window's first maximum
    first = np.zeros(out.shape, dtype=np.uint8) if tracked else None
    # each chunk goes in batch slices whose temporaries stay in cache
    step = max(1, _POOL_SLICE_BYTES // max(out[:1].nbytes, 1))
    chunks = _frame_chunks(bsz)

    def slices(lo, hi):
        return [slice(a, min(a + step, hi)) for a in range(lo, hi, step)]

    def _fwd(lo, hi):
        xs, outs = x.data[lo:hi], out[lo:hi]
        np.copyto(outs, window(xs, 0))
        if first is None:
            for n in range(1, 4):
                np.maximum(outs, window(xs, n), out=outs)
            return
        # a contiguous copy of each tap makes the compare and the max cheap;
        # the buffers are this chunk's own
        cand_buf = np.empty_like(out[: min(step, hi - lo)])
        hit_buf = np.empty(cand_buf.shape, dtype=bool)
        for sl in slices(lo, hi):
            xs, outs, firsts = x.data[sl], out[sl], first[sl]
            cand, hit = cand_buf[: len(outs)], hit_buf[: len(outs)]
            for n in range(1, 4):
                np.copyto(cand, window(xs, n))
                np.greater(cand, outs, out=hit)
                np.maximum(firsts, hit * np.uint8(n), out=firsts)
                np.maximum(outs, cand, out=outs)

    _run_chunks(_fwd, chunks, out.nbytes >= _POOL_HANDOFF_BYTES)
    if not tracked:
        return Tensor._result(out, (x,), None)

    def _bw(g):
        if s1 % 2 or s2 % 2:
            gx = np.zeros_like(x.data)
        else:
            gx = np.empty_like(x.data)  # the windows tile the input exactly

        def _bw_chunk(lo, hi):
            for sl in slices(lo, hi):
                gs, firsts, gxs = g[sl], first[sl], gx[sl]
                for n in range(4):
                    np.multiply(gs, firsts == n, out=window(gxs, n))

        _run_chunks(_bw_chunk, chunks, g.nbytes >= _POOL_HANDOFF_BYTES)
        _accumulate(x, gx, owned=True)

    return Tensor._result(out, (x,), _bw)


# ---------------------------------------------------------------------------
# classification loss


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Negative log-softmax at the true label, averaged over rows.

    Accepts a (K,) vector with a single int label or a (B, K) matrix
    with a sequence of labels.
    """
    logits = _as_tensor(logits)
    single = logits.data.ndim == 1
    z = logits.data[None, :] if single else logits.data
    if z.ndim != 2:
        raise DimensionError(f"cross_entropy expects logits of rank 1 or 2, got {logits.data.shape}")
    lab = np.asarray([labels] if single else list(labels), dtype=np.int64)
    bsz, k = z.shape
    if lab.shape != (bsz,):
        raise DimensionError(f"cross_entropy: {bsz} logit rows but {lab.shape[0]} labels")
    if (lab < 0).any() or (lab >= k).any():
        raise ContractError(f"label out of range [0, {k})")
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    losses = lse - z[np.arange(bsz), lab]
    out = np.asarray(losses.mean(), dtype=z.dtype)

    def _bw(g):
        p = np.exp(z - m)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(bsz), lab] -= 1.0
        gz = p * (g / bsz)
        _accumulate(logits, gz[0] if single else gz)

    return Tensor._result(out, (logits,), _bw)


# ---------------------------------------------------------------------------
# initialization and serialization


def init_uniform(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    """Uniform init with bound 1/sqrt(fan_in); the draw is always made in
    float64 so parameter values agree across precision modes."""
    bound = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def init_relu_uniform(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    """Uniform init with bound sqrt(6/fan_in), which keeps activation
    variance roughly constant through ReLU stages."""
    bound = math.sqrt(6.0 / fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def zeros_param(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def ones_param(shape) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)


def write_tensor(fh, tensor) -> None:
    """u32 rank, u32 extents, then row-major little-endian float32 payload."""
    arr = np.ascontiguousarray(tensor.data if isinstance(tensor, Tensor) else tensor)
    fh.write(struct.pack("<I", arr.ndim))
    if arr.ndim:
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(arr.astype("<f4", copy=False).tobytes(order="C"))


# header bounds: no troikit tensor comes near them, so a header past
# either is corrupt and is rejected before any payload is read
MAX_TENSOR_RANK = 8
MAX_TENSOR_ELEMENTS = 1 << 28  # 1 GiB of float32


def _bytes_left(fh) -> int | None:
    """Bytes from the current position to the end, or None if the stream
    cannot seek."""
    try:
        pos = fh.tell()
        end = fh.seek(0, 2)
        fh.seek(pos)
    except (AttributeError, OSError, ValueError):
        return None
    return end - pos


def read_tensor(fh) -> np.ndarray:
    """Inverse of write_tensor; returns a float32 array."""
    head = fh.read(4)
    if len(head) != 4:
        raise DataError("truncated tensor header")
    (rank,) = struct.unpack("<I", head)
    if rank > MAX_TENSOR_RANK:
        raise DataError(f"tensor header claims rank {rank}, more than {MAX_TENSOR_RANK}")
    if rank:
        raw_dims = fh.read(4 * rank)
        if len(raw_dims) != 4 * rank:
            raise DataError("truncated tensor extents")
        dims = struct.unpack(f"<{rank}I", raw_dims)
    else:
        dims = ()
    count = math.prod(dims)
    if count > MAX_TENSOR_ELEMENTS:
        raise DataError(f"tensor header claims {count} elements, more than {MAX_TENSOR_ELEMENTS}")
    left = _bytes_left(fh)
    if left is not None and 4 * count > left:
        raise DataError(f"truncated tensor payload: the header claims {4 * count} bytes, {left} remain")
    payload = fh.read(4 * count)
    if len(payload) != 4 * count:
        raise DataError("truncated tensor payload")
    return np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
