"""CheckpointStore, AsyncCheckpointWriter."""

import json
import sys
import tempfile
import threading
import time

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    AsyncCheckpointWriter,
    CheckpointStore,
    ShardedCheckpointStore,
    payload_nbytes,
)


def weights(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "d.kernel": rng.normal(size=(8, 4)).astype(np.float32),
        "d.bias": rng.normal(size=4).astype(np.float32),
    }


def test_save_load_round_trip(tmp_path):
    store = CheckpointStore(tmp_path)
    w = weights()
    store.save("m_000001", w, meta={"score": 0.5, "arch_seq": [1, 2]})
    assert store.exists("m_000001")
    loaded = store.load("m_000001")
    assert list(loaded) == list(w)          # order preserved
    assert all(np.array_equal(loaded[k], w[k]) for k in w)
    assert store.load_meta("m_000001") == {"score": 0.5, "arch_seq": [1, 2]}


def test_payload_nbytes_is_the_saved_payload_size(tmp_path):
    """The size the simulated cluster charges a save for, before the
    save: alignment padding between mixed dtypes included."""
    w = {"a": np.ones(3, np.int8), "b": np.ones(2, np.float64),
         "c": np.ones((2, 3), np.float32)}
    info = CheckpointStore(tmp_path).save("m", w)
    assert payload_nbytes(w) == info.nbytes == 8 + 16 + 24


def test_keys_len_sizes_delete(tmp_path):
    store = CheckpointStore(tmp_path)
    for i in range(3):
        store.save(f"m_{i:06d}", weights(i))
    assert len(store) == 3
    assert store.keys() == [f"m_{i:06d}" for i in range(3)]
    assert all(n > 0 for n in store.sizes().values())
    assert store.total_bytes() == sum(store.sizes().values())
    store.delete("m_000001")
    assert not store.exists("m_000001")
    assert len(store) == 2


def test_missing_key_raises(tmp_path):
    store = CheckpointStore(tmp_path)
    with pytest.raises(FileNotFoundError):
        store.load("nope")
    assert store.load_meta("nope") is None


def test_sharded_name_is_a_plain_store(tmp_path):
    """The retired sharded store is a kept name: one plain store at its
    root, with ``save``/``load`` in its own class body so traced runs
    can patch them."""
    store = ShardedCheckpointStore(tmp_path, num_shards=4)
    assert isinstance(store, CheckpointStore)
    assert {"save", "load"} <= set(vars(ShardedCheckpointStore))
    store.save("m_000001", weights())
    assert store.path("m_000001").parent == tmp_path
    np.testing.assert_array_equal(store.load("m_000001")["d.bias"],
                                  weights()["d.bias"])
    with pytest.raises(ValueError):
        ShardedCheckpointStore(tmp_path, num_shards=0)


def test_load_never_needs_pickle(tmp_path, monkeypatch):
    store = CheckpointStore(tmp_path)
    w = weights()
    store.save("k", w, meta={"score": 0.5})
    # the payload is the tensors' raw bytes in dict order; order, layout
    # and meta live in the sidecar
    assert store.path("k").name == "k.bin"
    assert store.path("k").read_bytes() == b"".join(
        a.tobytes() for a in w.values())
    f4 = np.dtype(np.float32).str
    sidecar = json.loads(store.meta_path("k").read_text())
    assert sidecar["__order__"] == list(w)
    assert sidecar["__layout__"] == [[f4, [8, 4], 0], [f4, [4], 128]]
    assert sidecar["__meta__"] == {"score": 0.5}

    def no_np_load(*args, **kwargs):
        raise AssertionError("raw checkpoints must not go through np.load")

    monkeypatch.setattr(np, "load", no_np_load)
    loaded = store.load("k")
    assert list(loaded) == list(w)
    assert all(np.array_equal(loaded[k], w[k]) for k in w)


def test_legacy_object_array_archive_still_loads(tmp_path):
    store = CheckpointStore(tmp_path)
    w = weights()
    # old stores embedded the order as an object array and wrote the raw
    # user meta (no __order__ wrapper) to the sidecar
    order = np.array(list(w.keys()), dtype=object)
    np.savez(store.path("k"), __order__=order, **w)
    store.meta_path("k").write_text(json.dumps({"score": 0.7}))
    loaded = store.load("k")
    assert list(loaded) == list(w)
    assert all(np.array_equal(loaded[k], w[k]) for k in w)
    assert store.load_meta("k") == {"score": 0.7}


#: names unpickled from a checkpoint's embedded ``__order__``
_UNPICKLED: list = []


def _unpickle_name(name):
    _UNPICKLED.append(name)
    return name


class _TrippedName:
    """Unpickles to its name, noting that it was unpickled."""

    def __init__(self, name):
        self.name = name

    def __reduce__(self):
        return _unpickle_name, (self.name,)


def test_legacy_object_array_is_never_unpickled(tmp_path):
    store = CheckpointStore(tmp_path)
    w = weights()
    order = np.array([_TrippedName(n) for n in w], dtype=object)
    np.savez(store.path("k"), __order__=order, **w)
    _UNPICKLED.clear()
    loaded = store.load("k")                    # zip-entry order
    assert _UNPICKLED == []
    assert list(loaded) == list(w)
    assert all(np.array_equal(loaded[k], w[k]) for k in w)


def test_legacy_archive_without_order_index_loads(tmp_path):
    store = CheckpointStore(tmp_path)
    w = weights()
    np.savez(store.path("k"), **w)              # no sidecar, no __order__
    loaded = store.load("k")                    # zip-entry order
    assert list(loaded) == list(w)
    assert store.load_meta("k") is None


def test_async_writer_flushes_to_store(tmp_path):
    store = CheckpointStore(tmp_path)
    with AsyncCheckpointWriter(store) as writer:
        for i in range(5):
            writer.save(f"m_{i:06d}", weights(i), meta={"i": i})
        writer.flush()
        assert len(store) == 5
    assert store.load_meta("m_000003") == {"i": 3}


class FlakyStore(CheckpointStore):
    """Fails the first ``fail`` saves, then behaves normally."""

    def __init__(self, root, fail=1):
        super().__init__(root)
        self.fail = fail

    def save(self, key, weights, meta=None):
        if self.fail > 0:
            self.fail -= 1
            raise OSError(f"disk full while writing {key}")
        return super().save(key, weights, meta)


class SlowStore(CheckpointStore):
    """Blocks every save on an event — lets tests hold the writer thread."""

    def __init__(self, root):
        super().__init__(root)
        self.gate = threading.Event()

    def save(self, key, weights, meta=None):
        self.gate.wait(timeout=10.0)
        return super().save(key, weights, meta)


def test_async_writer_errors_surface_only_on_each_save_future(tmp_path):
    store = FlakyStore(tmp_path, fail=1)
    writer = AsyncCheckpointWriter(store)
    bad = writer.save("bad", weights(0))
    good = writer.save("good", weights(1))
    writer.flush()                               # waits, never raises
    with pytest.raises(OSError, match="disk full while writing bad"):
        bad.result()
    assert good.result()[0].key == "good"
    assert store.exists("good") and not store.exists("bad")
    writer.close()                               # waits, never raises
    with pytest.raises(RuntimeError):
        writer.save("late", weights())


def test_async_writer_backpressure_blocks_the_next_save(tmp_path):
    """With ``max_queue=1`` a second save blocks until the writer thread
    has written the first."""
    store = SlowStore(tmp_path)
    writer = AsyncCheckpointWriter(store, max_queue=1)
    writer.save("k0", weights(0))
    written_on_return = []

    def second():
        writer.save("k1", weights(1))
        written_on_return.append(store.exists("k0"))

    thread = threading.Thread(target=second)
    thread.start()
    thread.join(timeout=0.2)
    assert thread.is_alive() and not store.exists("k0")
    store.gate.set()                             # release the writer
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert written_on_return == [True]
    writer.close()
    assert store.exists("k0") and store.exists("k1")


class _BlockingArray:
    """An array-like whose ``__array__`` waits on ``release``, so a save
    can be held inside its snapshot."""

    def __init__(self, arr):
        self.arr = arr
        self.entered = threading.Event()
        self.release = threading.Event()

    def __array__(self, dtype=None, copy=None):
        self.entered.set()
        self.release.wait(timeout=10.0)
        return self.arr


def test_save_racing_close_is_refused_not_written_late(tmp_path):
    """A save still snapshotting when ``close()`` runs must not reach
    the store after ``close()`` has returned: it raises instead."""
    store = CheckpointStore(tmp_path)
    writer = AsyncCheckpointWriter(store)
    blocking = _BlockingArray(np.ones(4, dtype=np.float32))
    outcome = []

    def late_save():
        try:
            writer.save("late", {"a": blocking})
            outcome.append("queued")
        except RuntimeError:
            outcome.append("refused")

    thread = threading.Thread(target=late_save)
    thread.start()
    assert blocking.entered.wait(timeout=10.0)
    writer.close()
    blocking.release.set()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    with AsyncCheckpointWriter(store) as probe:  # FIFO: runs after "late"
        probe.save("probe", weights())
    assert outcome == ["refused"]
    assert not store.exists("late")


def test_async_writer_snapshots_arrays_and_records_results(tmp_path):
    store = CheckpointStore(tmp_path)
    writer = AsyncCheckpointWriter(store)
    w = weights()
    done = writer.save("k", w)
    w["d.bias"][:] = -1.0                        # mutate after enqueue
    writer.flush()
    assert not np.array_equal(store.load("k")["d.bias"], w["d.bias"])
    assert done.done()
    info, seconds = done.result()
    assert info.key == "k" and info.nbytes == store.nbytes("k")
    assert seconds > 0.0
    writer.close()


# ---------------------------------------------------------------------------
# atomic saves + payload CRC
# ---------------------------------------------------------------------------

def test_save_leaves_no_temp_files(tmp_path):
    store = CheckpointStore(tmp_path)
    for i in range(5):
        store.save(f"m_{i:06d}", weights(i))
    leftovers = list(tmp_path.glob("*.tmp"))
    assert leftovers == []


def test_interrupted_save_never_tears_existing_checkpoint(tmp_path,
                                                          monkeypatch):
    """A crash mid-save (simulated: os.replace raises) must leave the
    previously saved checkpoint fully intact — readers see old-or-new,
    never a torn npz at the canonical name."""
    import os as _os

    store = CheckpointStore(tmp_path)
    w_old = weights(0)
    store.save("m_000001", w_old)

    real_replace = _os.replace

    def dying_replace(src, dst):
        raise OSError("crash before rename")

    monkeypatch.setattr("repro.checkpoint.store.os.replace", dying_replace)
    with pytest.raises(OSError, match="crash before rename"):
        store.save("m_000001", weights(1))
    monkeypatch.setattr("repro.checkpoint.store.os.replace", real_replace)
    # the old checkpoint still loads, bit-perfect, CRC included
    loaded = store.load("m_000001")
    assert all(np.array_equal(loaded[k], w_old[k]) for k in w_old)


def test_crc_mismatch_raises_corrupt_checkpoint(tmp_path):
    from repro.checkpoint import CorruptCheckpointError

    store = CheckpointStore(tmp_path)
    store.save("m_000001", weights())
    path = store.path("m_000001")
    # appended bytes keep the archive readable as a zip (the central
    # directory is found by scanning from the end) but change its hash
    path.write_bytes(path.read_bytes() + b"\x00" * 16)
    with pytest.raises(CorruptCheckpointError, match="CRC32"):
        store.load("m_000001")


def test_sidecar_without_crc_still_loads(tmp_path):
    """Backward compatibility: sidecars without a __crc32__ key load
    unchecked instead of erroring — and the layout's length check still
    catches a truncated raw payload."""
    from repro.checkpoint import CorruptCheckpointError

    store = CheckpointStore(tmp_path)
    w = weights()
    store.save("m_000001", w)
    sidecar_path = store.meta_path("m_000001")
    sidecar = json.loads(sidecar_path.read_text())
    assert "__layout__" in sidecar
    del sidecar["__crc32__"]
    sidecar_path.write_text(json.dumps(sidecar))
    loaded = store.load("m_000001")
    assert all(np.array_equal(loaded[k], w[k]) for k in w)
    path = store.path("m_000001")
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(CorruptCheckpointError, match="layout spans"):
        store.load("m_000001")


# ---------------------------------------------------------------------------
# idempotent close (service shutdown races session teardown)
# ---------------------------------------------------------------------------

def test_async_writer_double_close_is_noop(tmp_path):
    store = CheckpointStore(tmp_path)
    writer = AsyncCheckpointWriter(store)
    writer.save("k", weights())
    writer.close()
    writer.close()                           # second close: no-op
    assert store.exists("k")
    with pytest.raises(RuntimeError):
        writer.save("k2", weights())


def test_async_writer_concurrent_close_from_two_threads(tmp_path):
    store = CheckpointStore(tmp_path)
    writer = AsyncCheckpointWriter(store)
    for i in range(8):
        writer.save(f"k{i}", weights(i))
    errors, on_return = [], []

    def closer():
        try:
            writer.close()
        except Exception as exc:             # pragma: no cover
            errors.append(exc)
        on_return.append(len(store.keys()))

    threads = [threading.Thread(target=closer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    # every closer returned only after all eight saves were on disk
    assert on_return == [8] * 4


class ThreadRecordingStore(CheckpointStore):
    """Records the thread every save runs on."""

    def __init__(self, root):
        super().__init__(root)
        self.threads = []

    def save(self, key, weights, meta=None):
        self.threads.append(threading.current_thread())
        return super().save(key, weights, meta)


def test_writers_share_one_writer_thread(tmp_path):
    """Every writer saves on the one process-wide writer thread, so a
    service with many write-behind sessions starts no thread per
    session."""
    store = ThreadRecordingStore(tmp_path)
    writers = [AsyncCheckpointWriter(store) for _ in range(20)]
    for i, writer in enumerate(writers):
        writer.save(f"k{i}", weights(i))
    for writer in writers:
        writer.close()
    assert len(store.keys()) == 20
    assert len(set(store.threads)) == 1
    assert store.threads[0] is not threading.current_thread()


def test_concurrent_writers_keep_their_own_accounting(tmp_path):
    """Eight threads, each with its own writer, save and flush at once
    through the shared writer thread: every flush returns with exactly
    its own saves written, whatever the others have queued."""
    store = CheckpointStore(tmp_path)
    failures = []

    def worker(w):
        writer = AsyncCheckpointWriter(store, max_queue=2)
        keys = {f"w{w}_k{i}" for i in range(10)}
        saves = {key: writer.save(key, weights(i))
                 for i, key in enumerate(sorted(keys))}
        writer.flush()
        if not all(f.done() and f.result()[0].key == k
                   for k, f in saves.items()) \
                or not all(store.exists(k) for k in keys):
            failures.append(w)
        writer.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(w,))
                   for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert len(store.keys()) == 80


# ---------------------------------------------------------------------------
# raw codec: generated round trips, corruption, commit order
# ---------------------------------------------------------------------------

_DTYPES = [np.float32, np.float64, np.int64, np.bool_]


@st.composite
def _tensor(draw):
    """A tensor of a generated dtype and shape (0-d and zero-size
    included), given as is, as a transposed view, or as a leading-corner
    slice of a larger array."""
    dtype = draw(st.sampled_from(_DTYPES))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                  max_side=4))
    layout = draw(st.sampled_from(["plain", "transposed", "corner"]))
    if layout == "transposed":
        return draw(hnp.arrays(dtype, shape[::-1])).T
    if layout == "corner":
        grown = draw(hnp.arrays(dtype, tuple(n + 2 for n in shape)))
        return grown[tuple(slice(0, n) for n in shape)]
    return draw(hnp.arrays(dtype, shape))


_WEIGHTS = st.lists(_tensor(), min_size=1, max_size=4).map(
    lambda arrays: {f"layer{i}.w": a for i, a in enumerate(arrays)})


def _same_bits(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.ascontiguousarray(a).tobytes()
            == np.ascontiguousarray(b).tobytes())


@settings(max_examples=60, deadline=None)
@given(w=_WEIGHTS)
def test_codec_round_trip_is_bit_exact(w):
    with tempfile.TemporaryDirectory() as root:
        store = CheckpointStore(root)
        info = store.save("k", w)
        assert info.nbytes == store.nbytes("k")
        loaded = store.load("k")
        assert list(loaded) == list(w)
        assert all(_same_bits(loaded[k], w[k]) for k in w)


@settings(max_examples=60, deadline=None)
@given(w=_WEIGHTS, data=st.data())
def test_codec_rejects_truncated_or_flipped_payloads(w, data):
    """A truncated payload, a flipped byte, and a sidecar naming a codec
    other than ``"raw"`` (such as the retired ``"zlib"``) all load as
    :class:`CorruptCheckpointError`."""
    from repro.checkpoint import CorruptCheckpointError

    with tempfile.TemporaryDirectory() as root:
        store = CheckpointStore(root)
        store.save("k", w)
        sidecar_path = store.meta_path("k")
        sidecar = json.loads(sidecar_path.read_text())
        assert sidecar["__codec__"] == "raw"
        sidecar_path.write_text(json.dumps({**sidecar, "__codec__": "zlib"}))
        with pytest.raises(CorruptCheckpointError, match="codec"):
            store.load("k")
        sidecar_path.write_text(json.dumps(sidecar))
        path = store.path("k")
        blob = path.read_bytes()
        assume(blob)                     # all-empty tensors: nothing to cut
        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        path.write_bytes(blob[:cut])
        with pytest.raises(CorruptCheckpointError):
            store.load("k")
        pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
        flip = data.draw(st.integers(1, 255), label="xor")
        flipped = bytearray(blob)
        flipped[pos] ^= flip
        path.write_bytes(bytes(flipped))
        with pytest.raises(CorruptCheckpointError):
            store.load("k")


def test_reader_never_sees_payload_without_sidecar(tmp_path):
    """A reader polling exists → load while the async writer saves must
    never hit a payload whose sidecar is not in place yet: the sidecar
    is committed first."""
    store = CheckpointStore(tmp_path)
    keys = [f"m_{i:06d}" for i in range(60)]
    errors, loaded = [], []

    def reader():
        deadline = time.monotonic() + 30.0
        for key in keys:
            while not store.exists(key):
                if time.monotonic() > deadline:
                    return
            try:
                loaded.append(store.load(key)["d.bias"][0])
            except Exception as exc:      # pragma: no cover - the bug
                errors.append(exc)

    thread = threading.Thread(target=reader)
    thread.start()
    with AsyncCheckpointWriter(store) as writer:
        for i, key in enumerate(keys):
            w = weights(i)
            w["d.bias"][0] = i
            writer.save(key, w)
    thread.join()
    assert errors == []
    assert loaded == list(range(len(keys)))
