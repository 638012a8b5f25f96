"""Directory-backed checkpoint store (the HDF5/parallel-FS stand-in).

One checkpoint = a ``<key>.bin`` payload plus a ``<key>.json`` sidecar.
The payload is the tensors' raw C-contiguous bytes, concatenated in
dict order (each offset aligned to its dtype).  The sidecar carries the
tensor order (``__order__``), the per-tensor layout
``[dtype.str, shape, offset]`` (``__layout__``), the codec (always
``"raw"``), the optional user metadata (``__meta__``) and the payload's
CRC32 (``__crc32__``).  A load is one sidecar read
and one payload read into a writable buffer; each tensor comes back as
an ``np.frombuffer`` view of it — no zip, no ``.npy`` headers, no
pickle.  This is the only format the store reads: a sidecar without the
order, layout or CRC, or naming another codec, loads as corrupt.  A
save reports its payload bytes, which each trace record keeps for
Figure 11.

Concurrency contract: the store itself is **lock-free** — it owns no
shared in-memory state, and every file is committed by an atomic
``os.replace`` of a fully written temp file.  The sidecar is committed
*before* the payload: ``exists`` (and so every caller's "is this a
provider yet?" check) keys on the payload, so a reader that sees the
payload always finds its layout.  Keys are written once per candidate;
overwriting a key is atomic per file, not across the pair, and a reader
caught between the two renames gets :class:`CorruptCheckpointError`
from the CRC check.  Callers that layer mutable state on top
(:class:`~repro.checkpoint.cache.WeightCache`,
``AsyncCheckpointWriter``) bring their own locks; lint checks their
guarded writes (R007) and that each is a leaf within its module (R008),
and the runtime sanitizer checks the leaf rule across modules.  Store
calls take no lock, so a caller may make them while holding its own.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Payload suffix of the raw codec.
_RAW_SUFFIX = ".bin"
#: Sidecar key for the tensor order.
_ORDER_KEY = "__order__"
#: Sidecar key for the user metadata.
_META_KEY = "__meta__"
#: Sidecar key for the CRC32 of the payload file.
_CRC_KEY = "__crc32__"
#: Sidecar key for the per-tensor ``[dtype.str, shape, offset]`` layout
#: of the payload.
_LAYOUT_KEY = "__layout__"
#: Sidecar key for the payload codec; ``"raw"`` is the only one read.
_CODEC_KEY = "__codec__"
#: Sidecar directory corrupt checkpoints are quarantined into.
QUARANTINE_DIR = ".quarantine"


def _atomic_write_bytes(path: Path, blob) -> None:
    """Write ``blob`` to ``path`` via temp-file + fsync + ``os.replace``
    so a crash mid-write never leaves a torn file at the canonical name
    — readers see the old content or the new, nothing in between."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _read_into_buffer(path: Path) -> bytearray:
    """The whole file in one read, into a writable buffer."""
    with open(path, "rb") as fh:
        buf = bytearray(os.fstat(fh.fileno()).st_size)
        del buf[fh.readinto(buf):]
    return buf


def _encode(weights: dict) -> tuple[bytearray, list]:
    """Raw payload + layout: each tensor's C-order bytes at an offset
    aligned to its dtype, in dict order."""
    arrays = [np.asarray(arr) for arr in weights.values()]
    layout, end = [], 0
    for arr in arrays:
        if arr.dtype.hasobject:
            raise TypeError(f"cannot checkpoint object array ({arr.dtype})")
        offset = end + (-end % arr.dtype.alignment)
        layout.append([arr.dtype.str, list(arr.shape), offset])
        end = offset + arr.nbytes
    buf = bytearray(end)
    for arr, (_, _, offset) in zip(arrays, layout):
        np.copyto(np.frombuffer(buf, arr.dtype, arr.size, offset)
                  .reshape(arr.shape), arr)
    return buf, layout


def payload_nbytes(weights: dict) -> int:
    """Bytes of the raw payload :meth:`CheckpointStore.save` writes for
    ``weights`` (the length :func:`_encode` lays out), without writing
    it."""
    end = 0
    for arr in weights.values():
        end += -end % arr.dtype.alignment + arr.nbytes
    return end


def _decode(buf: bytearray, order: list, layout: list) -> dict:
    """Views of ``buf`` per the layout; the buffer length must be
    exactly what the layout spans."""
    if len(order) != len(layout):
        raise ValueError(f"{len(order)} names for {len(layout)} tensors")
    tensors = [(np.dtype(dtype), shape, math.prod(shape), offset)
               for dtype, shape, offset in layout]
    end = max((offset + count * dtype.itemsize
               for dtype, _, count, offset in tensors), default=0)
    if len(buf) != end:
        raise ValueError(f"payload holds {len(buf)} bytes, layout spans "
                         f"{end}")
    return {str(name): np.frombuffer(buf, dtype, count, offset).reshape(shape)
            for name, (dtype, shape, count, offset) in zip(order, tensors)}


class CorruptCheckpointError(Exception):
    """``load`` found the checkpoint on disk but could not decode it
    (truncated payload, CRC mismatch, a payload without a sidecar, an
    unreadable sidecar or one missing the order, layout or CRC, an
    unknown codec).

    Distinct from :class:`FileNotFoundError` — the caller's recovery is
    different: a corrupt checkpoint should be quarantined and the
    candidate cold-started, a missing one is simply not a provider.
    """

    def __init__(self, key: str, path, cause: Exception):
        super().__init__(f"corrupt checkpoint {key!r} at {path}: {cause!r}")
        self.key = key
        self.path = Path(path)
        self.cause = cause


@dataclass(frozen=True)
class CheckpointInfo:
    key: str
    path: Path
    nbytes: int


class CheckpointStore:
    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- paths ----------------------------------------------------------
    def path(self, key: str) -> Path:
        return self.root / f"{key}{_RAW_SUFFIX}"

    def meta_path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def exists(self, key: str) -> bool:
        return self.path(key).exists()

    # -- save / load ----------------------------------------------------
    def save(self, key: str, weights: dict[str, np.ndarray],
             meta: dict | None = None) -> CheckpointInfo:
        """Atomic save: sidecar, then payload, each written to a temp
        file in the same directory, fsynced, then ``os.replace``d — a
        crash mid-save never leaves a garbage payload at the canonical
        key, and a visible payload always has its sidecar.  The sidecar
        carries a CRC32 of the payload file; :meth:`load` verifies it."""
        payload, layout = _encode(weights)
        sidecar = {_ORDER_KEY: list(weights.keys()), _META_KEY: meta,
                   _CRC_KEY: zlib.crc32(payload) & 0xFFFFFFFF,
                   _LAYOUT_KEY: layout, _CODEC_KEY: "raw"}
        _atomic_write_bytes(self.meta_path(key),
                            json.dumps(sidecar).encode())
        path = self.path(key)
        _atomic_write_bytes(path, payload)
        return CheckpointInfo(key, path, len(payload))

    def load(self, key: str) -> dict[str, np.ndarray]:
        """Ordered named tensors, insertion order preserved.  The
        sidecar is checked before the payload is read.

        Raises :class:`FileNotFoundError` when the key has neither
        sidecar nor payload, or a sound sidecar whose payload is not on
        disk.  Raises :class:`CorruptCheckpointError` when the sidecar
        is unreadable, lacks the order, layout or CRC, or names a codec
        other than ``"raw"``; when a payload has no sidecar; or when the
        payload's bytes do not match the layout or the CRC32 recorded at
        save time — see :meth:`quarantine` for recovery."""
        path = self.path(key)
        try:
            try:
                sidecar = json.loads(self.meta_path(key).read_text())
            except FileNotFoundError:
                if path.exists():
                    raise ValueError("payload without a sidecar") from None
                raise
            order, layout, crc = (sidecar[_ORDER_KEY], sidecar[_LAYOUT_KEY],
                                  sidecar[_CRC_KEY])
            codec = sidecar.get(_CODEC_KEY, "raw")
            if codec != "raw":
                raise ValueError(f"unknown codec {codec!r}")
            buf = _read_into_buffer(path)
            hashed = zlib.crc32(buf) & 0xFFFFFFFF
            if hashed != crc:
                raise ValueError(f"CRC32 mismatch: sidecar records "
                                 f"{crc:#010x}, payload hashes {hashed:#010x}")
            return _decode(buf, order, layout)
        except FileNotFoundError:
            raise
        except (ValueError, TypeError, KeyError, OSError) as exc:
            raise CorruptCheckpointError(key, path, exc) from exc

    # -- corrupt-checkpoint quarantine ----------------------------------
    @property
    def quarantine_root(self) -> Path:
        return self.root / QUARANTINE_DIR

    def quarantine(self, key: str) -> Path:
        """Move a corrupt checkpoint (payload + sidecar, whichever is on
        disk) into the ``.quarantine/`` sidecar directory so it stops
        poisoning loads but stays on disk for post-mortem; returns the
        quarantined payload path.  After quarantine ``exists(key)`` is
        False and the scheduler cold-starts the candidate."""
        qroot = self.quarantine_root
        qroot.mkdir(parents=True, exist_ok=True)
        for src in (self.path(key), self.meta_path(key)):
            if src.exists():
                src.replace(qroot / src.name)
        return qroot / self.path(key).name

    def quarantined_keys(self) -> list[str]:
        return sorted({p.stem for p in self.quarantine_root.glob("*")})

    def nbytes(self, key: str) -> int:
        return self.path(key).stat().st_size
