"""conv2d and max_pool2d split the frame axis into fixed chunks that run
on up to two threads. Whether a chunk is handed off must change no bit of
any result, a failing chunk must surface cleanly, and a process holding a
live chunk thread must still fork its dataset workers."""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import troikit.tensor as tensor_module
from troikit.backbone import BackboneSpec, VideoClassifier
from troikit.gradcheck import DEFAULT_TOL, check_point
from troikit.synth import build_dataset
from troikit.tensor import (
    Tensor,
    backward,
    conv2d,
    cross_entropy,
    max_pool2d,
    mul,
    no_grad,
    precision,
    reduce_sum,
    zero_grad,
)
from troikit.train import sgd_step
from troikit.troi import TroiConfig

import oracles
from test_gradcheck import UNIT_BUILDERS


class CountingPool(ThreadPoolExecutor):
    """A one-thread chunk pool that keeps the futures of the chunks handed
    to it."""

    def __init__(self):
        super().__init__(max_workers=1, thread_name_prefix="test-chunk")
        self.futures = []

    def submit(self, *args, **kwargs):
        future = super().submit(*args, **kwargs)
        self.futures.append(future)
        return future


@pytest.fixture
def pools(monkeypatch):
    """Switch the chunk pool: ``pools(1)`` runs every chunk inline, and
    ``pools(2)`` hands chunks to a counting pool."""
    made = []

    def use(workers):
        pool = CountingPool() if workers == 2 else None
        if pool is not None:
            made.append(pool)
        monkeypatch.setattr(tensor_module, "_pool", pool)
        return pool

    yield use
    for pool in made:
        pool.shutdown(wait=True)


@pytest.fixture
def eager(monkeypatch):
    """Hand off chunks of any size, so small test shapes use the pool too."""
    monkeypatch.setattr(tensor_module, "_CONV_HANDOFF_BYTES", 0)
    monkeypatch.setattr(tensor_module, "_POOL_HANDOFF_BYTES", 0)


def test_chunks_are_fixed_by_the_batch_size():
    assert tensor_module._frame_chunks(1) == [(0, 1)]
    assert tensor_module._frame_chunks(3) == [(0, 1), (1, 3)]
    assert tensor_module._frame_chunks(7) == [(0, 3), (3, 7)]
    assert tensor_module._frame_chunks(128) == [(0, 64), (64, 128)]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two cores")
def test_the_chunk_thread_leaves_one_core_to_the_main_thread():
    pool = tensor_module._new_pool()
    try:
        allowed = pool.submit(os.sched_getaffinity, 0).result(timeout=60)
    finally:
        pool.shutdown(wait=True)
    assert allowed < os.sched_getaffinity(0)
    assert len(allowed) == len(os.sched_getaffinity(0)) - 1


def test_the_pool_is_sized_from_the_core_count_where_there_is_no_affinity_mask(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert tensor_module._new_pool() is None
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    pool = tensor_module._new_pool()
    try:
        assert pool._max_workers == tensor_module._CHUNKS - 1
        assert pool.submit(threading.current_thread).result(timeout=60).name.startswith("troikit-chunk")
    finally:
        pool.shutdown(wait=True)


def test_troikit_imports_and_runs_without_the_linux_only_os_calls():
    # macOS lacks sched_getaffinity and sched_setaffinity, Windows also
    # register_at_fork; troikit must import and give the same bits there
    script = """
import os
for name in ("sched_getaffinity", "sched_setaffinity", "register_at_fork"):
    if hasattr(os, name):
        delattr(os, name)
import numpy as np
import troikit.tensor as t
x = t.Tensor(np.random.default_rng(0).normal(size=(4, 8, 8, 2)))
w = t.Tensor(np.random.default_rng(1).normal(size=(3, 3, 2, 3)))
t._CONV_HANDOFF_BYTES = t._POOL_HANDOFF_BYTES = 0
handed_off = t.max_pool2d(t.conv2d(x, w, pad=1)).data.tobytes()
pool, t._pool = t._pool, None
inline = t.max_pool2d(t.conv2d(x, w, pad=1)).data.tobytes()
print(pool is not None, handed_off == inline)
"""
    src = os.path.dirname(os.path.dirname(tensor_module.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str((os.cpu_count() or 1) >= 2), "True"]


# -- bit-identity between one and two workers --------------------------------

ACCEPTANCE = BackboneSpec()  # T=8, 32x32, channels 16/32/64/64


def _two_training_steps(mode):
    with precision(mode):
        videos = build_dataset(11, 6)  # 36 videos: two batches of 16
        model = VideoClassifier(ACCEPTANCE, TroiConfig(insert_at="conv4"), seed=5)
        params = model.parameters()
        state = {}
        for start in (0, 16):
            batch = videos[start : start + 16]
            logits = model.forward_batch(Tensor(np.stack([v.frames for v in batch])), [v.rois for v in batch])
            backward(cross_entropy(logits, [v.label for v in batch]))
            sgd_step(params, state, lr=0.05)
            zero_grad([p for _, p in params])
        return [p.data.tobytes() for _, p in params]


@pytest.mark.parametrize("mode", ["f32", "f64"])
def test_two_training_steps_are_byte_equal_at_one_and_two_workers(pools, mode):
    pools(1)
    inline = _two_training_steps(mode)
    pool = pools(2)
    threaded = _two_training_steps(mode)
    assert pool.futures, "no chunk was handed off"
    assert inline == threaded


def test_eval_logits_are_byte_equal_at_one_and_two_workers(pools):
    videos = build_dataset(12, 3)[:16]
    model = VideoClassifier(ACCEPTANCE, TroiConfig(insert_at="conv4"), seed=6)
    frames = Tensor(np.stack([v.frames for v in videos]))

    def logits():
        with no_grad():
            return model.forward_batch(frames, [v.rois for v in videos]).data.tobytes()

    pools(1)
    inline = logits()
    pool = pools(2)
    assert logits() == inline
    assert pool.futures


# -- uneven chunks and edge shapes --------------------------------------------


def _conv_results(x, w, b, pad, proj):
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    out = conv2d(xt, wt, bt, pad=pad)
    backward(reduce_sum(mul(out, Tensor(proj))))
    return out.data, xt.grad, wt.grad, bt.grad


@pytest.mark.parametrize("frames", [1, 3, 7])
@pytest.mark.parametrize("pad", [0, 1])
def test_conv_chunks_match_loops_and_each_other(pools, eager, rng, frames, pad):
    with precision("f64"):
        x = rng.normal(size=(frames, 6, 5, 3))
        w = rng.normal(size=(3, 3, 3, 4))
        b = rng.normal(size=4)
        proj = rng.normal(size=(frames, 4 + 2 * pad, 3 + 2 * pad, 4))
        pools(1)
        inline = _conv_results(x, w, b, pad, proj)
        pool = pools(2)
        threaded = _conv_results(x, w, b, pad, proj)
        assert bool(pool.futures) == (frames > 1)
    for a, c in zip(inline, threaded):
        assert a.tobytes() == c.tobytes()
    assert np.allclose(inline[0], oracles.conv2d_loops(x, w, b, pad=pad), atol=1e-12, rtol=0)


def _pool_results(x, proj):
    xt = Tensor(x, requires_grad=True)
    out = max_pool2d(xt)
    backward(reduce_sum(mul(out, Tensor(proj))))
    with no_grad():
        untracked = max_pool2d(Tensor(x))
    return out.data, xt.grad, untracked.data


@pytest.mark.parametrize("frames", [1, 3, 7])
@pytest.mark.parametrize("sides", [(6, 6), (5, 7)], ids=["even", "odd"])
def test_pool_chunks_match_loops_and_each_other(pools, eager, rng, monkeypatch, frames, sides):
    # one frame per cache slice, so every chunk of more than one frame is sliced
    monkeypatch.setattr(tensor_module, "_POOL_SLICE_BYTES", 1)
    with precision("f64"):
        # few distinct values, so windows with tied maxima are common
        x = rng.integers(-2, 3, size=(frames, *sides, 2)).astype(float)
        proj = rng.normal(size=(frames, sides[0] // 2, sides[1] // 2, 2))
        pools(1)
        inline = _pool_results(x, proj)
        pool = pools(2)
        threaded = _pool_results(x, proj)
        assert bool(pool.futures) == (frames > 1)
    for a, c in zip(inline, threaded):
        assert a.tobytes() == c.tobytes()
    assert np.array_equal(inline[0], oracles.max_pool_loops(x))
    assert np.array_equal(inline[2], inline[0])
    assert np.allclose(inline[1], oracles.max_pool_grad_loops(x, proj), atol=1e-12, rtol=0)


@pytest.mark.parametrize("name", ["conv2d_three_frames", "max_pool2d_three_frames"])
def test_three_frame_gradchecks_with_a_handed_off_chunk(pools, eager, name):
    pool = pools(2)
    rng = np.random.default_rng(31)
    with precision("f64"):
        for _ in range(3):
            leaves, fn = UNIT_BUILDERS[name](rng)
            passed, err, _ = check_point(fn, leaves, rng, DEFAULT_TOL, 24)
            assert passed, (name, err)
    assert pool.futures


def test_ops_from_more_threads_than_cores_keep_their_bits(pools, eager, rng):
    # chunks of concurrent ops share the pool thread and write disjoint
    # slices of per-op buffers; a lost or misplaced write changes the bits
    xs = [rng.normal(size=(5, 8, 8, 3)) for _ in range(4)]
    w = rng.normal(size=(3, 3, 3, 4))

    def run(x):
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = max_pool2d(conv2d(xt, wt, pad=1))
        backward(reduce_sum(out))
        return out.data.tobytes(), xt.grad.tobytes(), wt.grad.tobytes()

    pools(1)
    inline = [run(x) for x in xs]
    pool = pools(2)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(xs)) as callers:
            threaded = list(callers.map(run, xs * 5, timeout=120))
    finally:
        sys.setswitchinterval(switch)
    assert threaded == inline * 5
    assert len(pool.futures) >= 4 * len(threaded)


# -- a failing chunk ----------------------------------------------------------


class ChunkFailure(RuntimeError):
    pass


@pytest.mark.parametrize("failing", ["handed-off", "calling-thread"])
def test_a_failed_chunk_raises_its_own_error_after_both_chunks_stop(pools, eager, rng, monkeypatch, failing):
    x = Tensor(rng.normal(size=(4, 6, 6, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 3, 3, 5)), requires_grad=True)
    pool = pools(2)
    caller = threading.get_ident()
    real_view = tensor_module.sliding_window_view

    def flaky(*args, **kwargs):
        on_caller = threading.get_ident() == caller
        if on_caller == (failing == "calling-thread"):
            raise ChunkFailure(f"injected into the {failing} chunk")
        time.sleep(0.2)  # the other chunk is still running when this one fails
        return real_view(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(tensor_module, "sliding_window_view", flaky)
        with pytest.raises(ChunkFailure, match=failing):
            conv2d(x, w, pad=1)
        assert pool.futures and all(f.done() for f in pool.futures)

    # the pool is still usable, and the next op gives the inline result
    handed_off = len(pool.futures)
    out = conv2d(x, w, pad=1)
    backward(reduce_sum(out))
    threaded = (out.data.tobytes(), x.grad.tobytes(), w.grad.tobytes())
    assert len(pool.futures) > handed_off
    zero_grad([x, w])
    pools(1)
    out = conv2d(x, w, pad=1)
    backward(reduce_sum(out))
    assert threaded == (out.data.tobytes(), x.grad.tobytes(), w.grad.tobytes())


def test_a_handed_off_chunk_keeps_the_callers_numpy_error_state(pools, eager):
    pools(2)
    # only the second chunk overflows
    x = Tensor(np.concatenate([np.ones((2, 4, 4, 1)), np.full((2, 4, 4, 1), 3e38)]).astype(np.float32))
    w = Tensor(np.full((1, 1, 1, 1), 10.0))
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        conv2d(x, w)
    with np.errstate(over="ignore"):
        assert np.isinf(conv2d(x, w).data[2:]).all()


# -- forking dataset workers next to a live chunk thread -----------------------


def test_dataset_workers_fork_cleanly_after_a_threaded_step(pools, eager):
    pool = pools(2)
    spec = BackboneSpec(frames=2, size=16, channels=(4, 6, 8, 8), classes=3)
    model = VideoClassifier(spec, None, seed=1)
    clip = Tensor(np.random.default_rng(2).uniform(size=(1, 2, 16, 16, 3)))
    backward(cross_entropy(model.forward_batch(clip, [[]]), [0]))
    assert pool.futures and all(t.is_alive() for t in pool._threads)

    built = {}
    worker = threading.Thread(target=lambda: built.update(videos=build_dataset(4, 2, workers=2)), daemon=True)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive(), "build_dataset(workers=2) hung after a threaded step"
    serial = build_dataset(4, 2, workers=1)
    assert len(built["videos"]) == len(serial)
    for a, b in zip(built["videos"], serial):
        assert a.frames.tobytes() == b.frames.tobytes()
        assert (a.label, a.rois) == (b.label, b.rois)


def _pool_sum_in_child():
    x = Tensor(np.ones((4, 32, 32, 8)))
    return float(max_pool2d(x).data.sum())


def test_a_forked_child_gets_its_own_chunk_pool(pools, eager):
    pools(2)
    x = Tensor(np.ones((4, 32, 32, 8)))
    expected = float(max_pool2d(x).data.sum())  # the parent's chunk thread is now running
    with multiprocessing.get_context("fork").Pool(1) as children:
        assert children.apply_async(_pool_sum_in_child).get(timeout=60) == expected
