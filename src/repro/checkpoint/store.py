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
pickle.  Sizes are real on-disk bytes — they feed Figure 11 and the
simulator's I/O cost model.

Legacy ``<key>.npz`` archives (written by older stores, with or
without a sidecar, or with the order index embedded as an object
array) stay readable through ``np.load``; every method that enumerates,
sizes, deletes or quarantines checkpoints sees either suffix.

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
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Payload suffixes: the raw codec, and the legacy npz archive.
_RAW_SUFFIX = ".bin"
_NPZ_SUFFIX = ".npz"
#: Sidecar key for the tensor order (legacy archives embedded it as an
#: object array under the same name, which needs pickle to read).
_ORDER_KEY = "__order__"
#: Sidecar key for the user metadata.
_META_KEY = "__meta__"
#: Sidecar key for the CRC32 of the payload file (sidecars written
#: before it existed load unchecked for backward compatibility).
_CRC_KEY = "__crc32__"
#: Sidecar key for the per-tensor ``[dtype.str, shape, offset]`` layout
#: of a raw payload; its absence marks a legacy npz checkpoint.
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
    (truncated payload, CRC mismatch, bad zip magic, missing member,
    unreadable sidecar, unknown codec).

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
    def _payload(self, key: str, root: Path | None = None) -> Path | None:
        """The key's payload file under ``root`` (default: the store),
        raw before legacy npz; None when neither is on disk."""
        root = self.root if root is None else root
        for suffix in (_RAW_SUFFIX, _NPZ_SUFFIX):
            path = root / f"{key}{suffix}"
            if path.exists():
                return path
        return None

    def path(self, key: str) -> Path:
        """The key's payload file: ``<key>.bin``, or a legacy
        ``<key>.npz``, whichever is on disk — in the store, else in its
        quarantine.  A key with neither resolves to the legacy name,
        which is where ``np.savez`` puts an archive for it."""
        return (self._payload(key) or self._payload(key, self.quarantine_root)
                or self.root / f"{key}{_NPZ_SUFFIX}")

    def meta_path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def exists(self, key: str) -> bool:
        return self._payload(key) is not None

    def keys(self) -> list[str]:
        return sorted({p.stem for suffix in (_RAW_SUFFIX, _NPZ_SUFFIX)
                       for p in self.root.glob(f"*{suffix}")})

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
        path = self.root / f"{key}{_RAW_SUFFIX}"
        _atomic_write_bytes(path, payload)
        return CheckpointInfo(key, path, len(payload))

    def _sidecar(self, key: str) -> dict | None:
        mp = self.meta_path(key)
        if not mp.exists():
            return None
        return json.loads(mp.read_text())

    def load(self, key: str) -> dict[str, np.ndarray]:
        """Ordered named tensors, insertion order preserved.

        Raises :class:`CorruptCheckpointError` when the payload exists
        but cannot be decoded (truncated payload, garbage npz, missing
        member, malformed sidecar, a codec other than ``"raw"``) — or
        its bytes no longer match the CRC32 recorded at save time — see
        :meth:`quarantine` for recovery."""
        path = self.root / f"{key}{_RAW_SUFFIX}"
        try:
            sidecar = self._sidecar(key)
            if sidecar is not None and _LAYOUT_KEY in sidecar:
                codec = sidecar.get(_CODEC_KEY, "raw")
                if codec != "raw":
                    raise ValueError(f"unknown codec {codec!r}")
                buf = _read_into_buffer(path)
                self._check_crc(key, path, sidecar, buf)
                return _decode(buf, sidecar[_ORDER_KEY], sidecar[_LAYOUT_KEY])
            path = self._payload(key)
            if path is None:
                raise FileNotFoundError(f"no checkpoint {key!r} in "
                                        f"{self.root}")
            if path.suffix == _RAW_SUFFIX:
                raise ValueError("raw payload without a layout sidecar")
            return self._load_npz(key, path, sidecar)
        except (FileNotFoundError, CorruptCheckpointError):
            raise
        except (ValueError, TypeError, KeyError, OSError, EOFError,
                zipfile.BadZipFile, json.JSONDecodeError) as exc:
            raise CorruptCheckpointError(key, path, exc) from exc

    @staticmethod
    def _check_crc(key: str, path: Path, sidecar: dict, blob) -> None:
        if _CRC_KEY not in sidecar:
            return
        crc = zlib.crc32(blob) & 0xFFFFFFFF
        if crc != sidecar[_CRC_KEY]:
            raise CorruptCheckpointError(key, path, ValueError(
                f"CRC32 mismatch: sidecar records {sidecar[_CRC_KEY]:#010x}, "
                f"payload hashes {crc:#010x}"))

    def _load_npz(self, key: str, path: Path,
                  sidecar: dict | None) -> dict[str, np.ndarray]:
        """The legacy read path: an npz archive, order from the sidecar
        or else from the zip entries (npz member order is insertion
        order).  Older archives also embed the order as a pickled object
        array; it names the zip-entry order and is skipped, never
        unpickled."""
        if sidecar is not None:
            self._check_crc(key, path, sidecar, path.read_bytes())
        with np.load(path) as data:        # allow_pickle stays False
            if sidecar is not None and _ORDER_KEY in sidecar:
                order = [str(n) for n in sidecar[_ORDER_KEY]]
            else:
                order = [n for n in data.files if n != _ORDER_KEY]
            return {name: data[name] for name in order}

    # -- corrupt-checkpoint quarantine ----------------------------------
    @property
    def quarantine_root(self) -> Path:
        return self.root / QUARANTINE_DIR

    def quarantine(self, key: str) -> Path:
        """Move a corrupt checkpoint (payload + sidecar) into the
        ``.quarantine/`` sidecar directory so it stops poisoning loads
        but stays on disk for post-mortem; returns the quarantined
        payload path.  After quarantine ``exists(key)`` is False and
        the scheduler cold-starts the candidate."""
        qroot = self.quarantine_root
        qroot.mkdir(parents=True, exist_ok=True)
        dest = qroot / f"{key}{_RAW_SUFFIX}"
        for suffix in (_NPZ_SUFFIX, _RAW_SUFFIX):
            src = self.root / f"{key}{suffix}"
            if src.exists():
                dest = qroot / src.name
                src.replace(dest)
        mp = self.meta_path(key)
        if mp.exists():
            mp.replace(qroot / mp.name)
        return dest

    def quarantined_keys(self) -> list[str]:
        if not self.quarantine_root.exists():
            return []
        return sorted({p.stem for suffix in (_RAW_SUFFIX, _NPZ_SUFFIX)
                       for p in self.quarantine_root.glob(f"*{suffix}")})

    def load_meta(self, key: str) -> dict | None:
        sidecar = self._sidecar(key)
        if sidecar is None:
            return None
        if _ORDER_KEY in sidecar:              # store-written sidecar
            return sidecar.get(_META_KEY)
        return sidecar                          # legacy: raw user meta

    def delete(self, key: str) -> None:
        for suffix in (_RAW_SUFFIX, _NPZ_SUFFIX):
            (self.root / f"{key}{suffix}").unlink(missing_ok=True)
        self.meta_path(key).unlink(missing_ok=True)

    # -- size accounting ------------------------------------------------
    def nbytes(self, key: str) -> int:
        path = self._payload(key)
        if path is None:
            raise FileNotFoundError(f"no checkpoint {key!r} in {self.root}")
        return path.stat().st_size

    def sizes(self) -> dict[str, int]:
        return {key: self.nbytes(key) for key in self.keys()}

    def total_bytes(self) -> int:
        return sum(self.sizes().values())

    def __len__(self) -> int:
        return len(self.keys())
