"""TFRecord-style binary record files.

TensorFlow trains from *TFRecords* -- framed, checksummed byte records --
and the paper's key pipeline optimisation (Section III-B1) is to binarise
the dataset into this format **offline, once**, instead of re-transforming
raw volumes every epoch.  This module reimplements the container:

frame layout (little-endian, identical to TFRecord):

    uint64  length
    uint32  masked_crc32(length bytes)
    bytes   payload[length]
    uint32  masked_crc32(payload)

TensorFlow uses CRC32-C (Castagnoli); without a hardware-accelerated
crc32c available offline this implementation uses ``zlib.crc32`` with the
same masking scheme -- byte-for-byte framing compatibility is not a goal,
corruption *detection* is.

On top of the framing, :func:`encode_example` / :func:`decode_example`
serialise a ``dict[str, ndarray]`` feature map (the tf.train.Example
analogue) with dtype/shape preserved.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Iterator

import numpy as np

__all__ = [
    "RecordWriter",
    "RecordReader",
    "IndexedRecordReader",
    "RecordCorruptionError",
    "RecordIndexError",
    "encode_example",
    "decode_example",
    "index_path_for",
    "write_example_file",
    "read_example_file",
]

_MASK_DELTA = 0xA282EAD8

# Index sidecar: "<record file>.idx" holding fixed-size (offset, payload
# length) entries, giving O(1) random access without a decode-and-CRC
# scan of the record file.
INDEX_MAGIC = b"RIDX"
INDEX_VERSION = 1
_INDEX_HEADER = struct.Struct("<4sI")
_INDEX_ENTRY = struct.Struct("<QQ")


def index_path_for(path) -> Path:
    """The sidecar path of a record file (``train.rec`` -> ``train.rec.idx``)."""
    path = Path(path)
    return path.with_name(path.name + ".idx")


class RecordCorruptionError(ValueError):
    """A record frame failed its CRC check or was truncated."""


class RecordIndexError(RecordCorruptionError):
    """An index sidecar is missing, truncated, stale, or inconsistent
    with its record file.  A :class:`RecordCorruptionError` subclass so
    callers that already guard against corruption fall back the same
    way; random-access readers must *never* serve records through a bad
    index."""


def _masked_crc(data: bytes) -> int:
    crc = zlib.crc32(data) & 0xFFFFFFFF
    return (((crc >> 15) | (crc << 17)) + _MASK_DELTA) & 0xFFFFFFFF


class RecordWriter:
    """Append framed records to a file.  Usable as a context manager.

    Unless ``index=False``, an index sidecar (``<path>.idx``) is written
    alongside: one ``(offset, payload length)`` entry per record, the
    handle :class:`IndexedRecordReader` uses for O(1) random access.
    The sidecar is closed *after* the record file so a complete pair
    always satisfies ``mtime(idx) >= mtime(rec)`` -- the staleness
    invariant readers check.
    """

    def __init__(self, path, index: bool = True):
        self.path = Path(path)
        self._f = open(self.path, "wb")
        self._count = 0
        self._idx = None
        if index:
            self._idx = open(index_path_for(self.path), "wb")
            self._idx.write(_INDEX_HEADER.pack(INDEX_MAGIC, INDEX_VERSION))

    def write(self, payload: bytes) -> None:
        if self._f is None:
            raise RuntimeError("writer is closed")
        offset = self._f.tell()
        header = struct.pack("<Q", len(payload))
        self._f.write(header)
        self._f.write(struct.pack("<I", _masked_crc(header)))
        self._f.write(payload)
        self._f.write(struct.pack("<I", _masked_crc(payload)))
        if self._idx is not None:
            self._idx.write(_INDEX_ENTRY.pack(offset, len(payload)))
        self._count += 1

    @property
    def num_records(self) -> int:
        return self._count

    def close(self) -> None:
        if self._f is not None:
            self._f.close()
            self._f = None
        if self._idx is not None:
            self._idx.close()
            self._idx = None

    def __enter__(self) -> "RecordWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RecordReader:
    """Iterate framed records from a file, verifying CRCs."""

    def __init__(self, path, verify: bool = True):
        self.path = Path(path)
        self.verify = bool(verify)

    def __iter__(self) -> Iterator[bytes]:
        with open(self.path, "rb") as f:
            while True:
                header = f.read(8)
                if not header:
                    return
                if len(header) < 8:
                    raise RecordCorruptionError(
                        f"{self.path}: truncated length header"
                    )
                (length,) = struct.unpack("<Q", header)
                (hcrc,) = struct.unpack("<I", f.read(4))
                if self.verify and hcrc != _masked_crc(header):
                    raise RecordCorruptionError(
                        f"{self.path}: length CRC mismatch"
                    )
                payload = f.read(length)
                if len(payload) < length:
                    raise RecordCorruptionError(
                        f"{self.path}: truncated payload "
                        f"({len(payload)}/{length} bytes)"
                    )
                (pcrc,) = struct.unpack("<I", f.read(4))
                if self.verify and pcrc != _masked_crc(payload):
                    raise RecordCorruptionError(
                        f"{self.path}: payload CRC mismatch"
                    )
                yield payload

    def count(self) -> int:
        """Number of records, answered from the index sidecar when a
        valid one is present (O(1)), else by a full verifying scan."""
        try:
            return len(IndexedRecordReader(self.path, verify=False))
        except (RecordIndexError, OSError):
            return sum(1 for _ in self)


class IndexedRecordReader:
    """O(1) random access into a record file via its ``.idx`` sidecar.

    The record file is mapped once (``np.memmap``); ``payload(i)`` is a
    zero-copy ``memoryview`` slice of the mapping and ``example(i)``
    decodes it into ndarray *views* over the mapped bytes -- no decode
    copy, the multi-process completion of the binarise-once argument.
    Pass ``zero_copy=False`` for writable (copied) arrays.

    The constructor validates the sidecar and raises
    :class:`RecordIndexError` (a :class:`RecordCorruptionError`) when it
    is missing, truncated, stale (record file modified after the index
    was written), or inconsistent with the record file's size -- a bad
    index must never silently serve wrong examples.
    """

    def __init__(self, path, verify: bool = True, zero_copy: bool = True):
        self.path = Path(path)
        self.index_path = index_path_for(self.path)
        self.verify = bool(verify)
        self.zero_copy = bool(zero_copy)
        if not self.index_path.exists():
            raise RecordIndexError(f"{self.path}: no index sidecar")
        try:
            rec_stat = os.stat(self.path)
        except FileNotFoundError:
            raise RecordIndexError(f"{self.path}: record file missing")
        idx_stat = os.stat(self.index_path)
        if rec_stat.st_mtime_ns > idx_stat.st_mtime_ns:
            raise RecordIndexError(
                f"{self.index_path}: stale index (record file is newer)"
            )
        raw = self.index_path.read_bytes()
        if len(raw) < _INDEX_HEADER.size:
            raise RecordIndexError(f"{self.index_path}: truncated header")
        magic, version = _INDEX_HEADER.unpack_from(raw, 0)
        if magic != INDEX_MAGIC or version != INDEX_VERSION:
            raise RecordIndexError(
                f"{self.index_path}: bad magic/version "
                f"({magic!r} v{version})"
            )
        body = len(raw) - _INDEX_HEADER.size
        if body % _INDEX_ENTRY.size:
            raise RecordIndexError(
                f"{self.index_path}: truncated entry "
                f"({body} bytes is not a multiple of {_INDEX_ENTRY.size})"
            )
        n = body // _INDEX_ENTRY.size
        entries = np.frombuffer(
            raw, dtype=np.uint64, offset=_INDEX_HEADER.size
        ).reshape(n, 2)
        self._offsets = entries[:, 0]
        self._lengths = entries[:, 1]
        # Consistency: frames must tile the record file exactly.  A
        # record file with extra frames (appended without the index) or
        # a truncated one both fail here instead of mis-serving.
        expect = 0
        for off, length in zip(self._offsets, self._lengths):
            if int(off) != expect:
                raise RecordIndexError(
                    f"{self.index_path}: offset {int(off)} does not "
                    f"abut previous frame (expected {expect})"
                )
            expect = int(off) + 16 + int(length)
        if expect != rec_stat.st_size:
            raise RecordIndexError(
                f"{self.index_path}: index covers {expect} bytes, record "
                f"file has {rec_stat.st_size} (count mismatch or "
                "truncation)"
            )
        self._mm = (
            np.memmap(self.path, dtype=np.uint8, mode="r")
            if rec_stat.st_size
            else np.empty(0, dtype=np.uint8)
        )

    def __len__(self) -> int:
        return len(self._offsets)

    def count(self) -> int:
        return len(self)

    def payload(self, i: int) -> memoryview:
        """Zero-copy view of record ``i``'s payload bytes (CRC-checked
        when ``verify``)."""
        n = len(self)
        if not -n <= i < n:
            raise IndexError(f"record index {i} out of range [0, {n})")
        if i < 0:
            i += n
        off, length = int(self._offsets[i]), int(self._lengths[i])
        frame = memoryview(self._mm)[off : off + 16 + length]
        if self.verify:
            header = bytes(frame[:8])
            (hcrc,) = struct.unpack_from("<I", frame, 8)
            if hcrc != _masked_crc(header):
                raise RecordCorruptionError(
                    f"{self.path}: length CRC mismatch at record {i}"
                )
            (pcrc,) = struct.unpack_from("<I", frame, 12 + length)
            if pcrc != _masked_crc(frame[12 : 12 + length]):
                raise RecordCorruptionError(
                    f"{self.path}: payload CRC mismatch at record {i}"
                )
        return frame[12 : 12 + length]

    def example(self, i: int) -> dict[str, np.ndarray]:
        """Record ``i`` decoded as a feature map.  With ``zero_copy``
        (the default) arrays are read-only views into the file mapping."""
        return decode_example(self.payload(i), copy=not self.zero_copy)

    def __iter__(self) -> Iterator[dict[str, np.ndarray]]:
        for i in range(len(self)):
            yield self.example(i)


# ---------------------------------------------------------------------------
# Example (feature-map) serialisation
# ---------------------------------------------------------------------------

def encode_example(features: dict[str, np.ndarray]) -> bytes:
    """Serialise a name -> ndarray map (the tf.train.Example analogue)."""
    parts = [struct.pack("<I", len(features))]
    for name in sorted(features):
        arr = np.asarray(features[name])
        if arr.ndim:  # ascontiguousarray would promote 0-d to 1-d
            arr = np.ascontiguousarray(arr)
        name_b = name.encode()
        dtype_b = arr.dtype.str.encode()  # e.g. b"<f4"
        raw = arr.tobytes()
        parts.append(struct.pack("<H", len(name_b)))
        parts.append(name_b)
        parts.append(struct.pack("<H", len(dtype_b)))
        parts.append(dtype_b)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{max(arr.ndim,1)}q", *(arr.shape or (0,))))
        parts.append(struct.pack("<Q", len(raw)))
        parts.append(raw)
    return b"".join(parts)


def decode_example(payload, copy: bool = True) -> dict[str, np.ndarray]:
    """Inverse of :func:`encode_example`.

    ``payload`` is any buffer (bytes, memoryview, or a slice of an
    ``np.memmap``).  With ``copy=False`` the returned arrays are
    zero-copy (read-only) views over the buffer -- combined with
    :class:`IndexedRecordReader` that means decoding never materialises
    a second copy of the volume data.
    """
    mv = memoryview(payload)
    out: dict[str, np.ndarray] = {}
    off = 0

    def take(fmt):
        nonlocal off
        vals = struct.unpack_from(fmt, mv, off)
        off += struct.calcsize(fmt)
        return vals

    (n,) = take("<I")
    for _ in range(n):
        (name_len,) = take("<H")
        name = bytes(mv[off : off + name_len]).decode()
        off += name_len
        (dtype_len,) = take("<H")
        dtype = np.dtype(bytes(mv[off : off + dtype_len]).decode())
        off += dtype_len
        (ndim,) = take("<B")
        shape = take(f"<{max(ndim,1)}q")
        shape = tuple(shape[:ndim])
        (nbytes,) = take("<Q")
        count = nbytes // dtype.itemsize
        arr = np.frombuffer(mv, dtype=dtype, count=count, offset=off)
        off += nbytes
        out[name] = arr.reshape(shape)
        if copy:
            out[name] = out[name].copy()
    if off != len(mv):
        raise RecordCorruptionError(
            f"example payload has {len(mv) - off} trailing bytes"
        )
    return out


def write_example_file(path, examples) -> int:
    """Write an iterable of feature maps; returns the record count."""
    with RecordWriter(path) as w:
        for ex in examples:
            w.write(encode_example(ex))
        return w.num_records


def read_example_file(path) -> Iterator[dict[str, np.ndarray]]:
    """Yield feature maps from a record file."""
    for payload in RecordReader(path):
        yield decode_example(payload)
