"""Payload batching: chunking large payloads into MQTT-sized pieces.

Real MQTT brokers cap packet sizes (EMQX defaults to 1 MiB), and a multi-MB
deep-network state dict does not fit in one PUBLISH.  The paper (§IV)
describes a batching mechanism at the core of MQTTFC that serializes the
payload, divides it into batches, encodes them with allocated batch ids, and
compiles them back at the receiver.

:class:`BatchEncoder` splits a byte payload into :class:`BatchChunk` items,
each carrying a compact binary header (batch id, chunk index, chunk count,
payload CRC32); :class:`BatchAssembler` reassembles chunks, tolerating
duplicates and out-of-order arrival, and verifies integrity before releasing
the payload.
"""

from __future__ import annotations

import itertools
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.mqttfc.serialization import PayloadFrame
from repro.utils.validation import require_positive

__all__ = ["BatchChunk", "BatchEncoder", "BatchAssembler", "BatchReassemblyError"]

#: header: magic(2s) | version(B) | batch_id(16s) | index(I) | count(I) | total_len(Q) | crc32(I)
_HEADER_STRUCT = struct.Struct("<2sB16sIIQI")
_MAGIC = b"FB"
_VERSION = 1

DEFAULT_CHUNK_BYTES = 256 * 1024


class BatchReassemblyError(ValueError):
    """Raised when chunks cannot be reassembled into the original payload."""


@dataclass(frozen=True)
class BatchChunk:
    """One chunk of a batched payload, ready to be published as message bytes.

    ``data`` is any buffer-protocol object; chunks parsed from a
    ``memoryview`` keep their data as zero-copy views into the received
    payload.
    """

    batch_id: str
    index: int
    count: int
    total_length: int
    crc32: int
    data: "bytes | memoryview"

    def to_bytes(self) -> bytes:
        """Serialize header + data into a single MQTT payload."""
        batch_id_bytes = self.batch_id.encode("ascii")[:16].ljust(16, b"\x00")
        header = _HEADER_STRUCT.pack(
            _MAGIC, _VERSION, batch_id_bytes, self.index, self.count, self.total_length, self.crc32
        )
        # join() accepts buffer objects, so memoryview chunk data works too.
        return b"".join((header, self.data))

    @classmethod
    def from_bytes(cls, payload: bytes) -> "BatchChunk":
        """Parse a chunk previously produced by :meth:`to_bytes`."""
        if len(payload) < _HEADER_STRUCT.size:
            raise BatchReassemblyError("payload too short to contain a batch header")
        magic, version, batch_id_bytes, index, count, total_length, crc = _HEADER_STRUCT.unpack(
            payload[: _HEADER_STRUCT.size]
        )
        if magic != _MAGIC:
            raise BatchReassemblyError("payload does not carry the batch magic bytes")
        if version != _VERSION:
            raise BatchReassemblyError(f"unsupported batch format version {version}")
        try:
            batch_id = batch_id_bytes.rstrip(b"\x00").decode("ascii")
        except UnicodeDecodeError as exc:
            raise BatchReassemblyError(f"batch id is not ASCII: {exc}") from exc
        return cls(
            batch_id=batch_id,
            index=index,
            count=count,
            total_length=total_length,
            crc32=crc,
            data=payload[_HEADER_STRUCT.size :],
        )

    @property
    def size_bytes(self) -> int:
        """Total serialized size of this chunk (header + data)."""
        return _HEADER_STRUCT.size + len(self.data)


class BatchEncoder:
    """Splits byte payloads into chunks of at most ``chunk_bytes`` data bytes."""

    def __init__(self, chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> None:
        self.chunk_bytes = int(require_positive(chunk_bytes, "chunk_bytes"))
        self._batch_counter = itertools.count()

    def next_batch_id(self) -> str:
        """Allocate a new (locally unique) batch id."""
        return f"b{next(self._batch_counter):010d}"

    def split(self, payload: bytes, batch_id: Optional[str] = None) -> List[BatchChunk]:
        """Split ``payload`` into chunks sharing one batch id.

        A zero-length payload still produces a single (empty) chunk so the
        receiver observes the batch completing.
        """
        if batch_id is None:
            batch_id = self.next_batch_id()
        if len(batch_id) > 16:
            raise ValueError(f"batch id {batch_id!r} exceeds 16 characters")
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        total = len(payload)
        count = max(1, -(-total // self.chunk_bytes))  # ceil division, at least one chunk
        chunks: List[BatchChunk] = []
        for index in range(count):
            start = index * self.chunk_bytes
            chunks.append(
                BatchChunk(
                    batch_id=batch_id,
                    index=index,
                    count=count,
                    total_length=total,
                    crc32=crc,
                    data=payload[start : start + self.chunk_bytes],
                )
            )
        return chunks

    def iter_payloads(self, payload: bytes, batch_id: Optional[str] = None) -> Iterator[bytes]:
        """Yield ready-to-publish chunk payload bytes."""
        for chunk in self.split(payload, batch_id):
            yield chunk.to_bytes()

    def iter_payloads_frame(
        self, frame: PayloadFrame, batch_id: Optional[str] = None
    ) -> Iterator[bytes]:
        """Yield wire chunk payloads for a segmented frame, writev-style.

        The frame's segments are never joined into an intermediate whole: the
        CRC streams across them and each wire chunk is gathered *once*
        directly behind its header.  The emitted bytes are identical to
        ``iter_payloads(frame.tobytes(), batch_id)``, but the only copy of
        the payload data on the send path is the per-chunk gather itself.
        """
        if batch_id is None:
            batch_id = self.next_batch_id()
        if len(batch_id) > 16:
            raise ValueError(f"batch id {batch_id!r} exceeds 16 characters")
        crc = 0
        for segment in frame.segments:
            crc = zlib.crc32(segment, crc)
        crc &= 0xFFFFFFFF
        total = frame.nbytes
        count = max(1, -(-total // self.chunk_bytes))  # ceil division, at least one chunk
        batch_id_bytes = batch_id.encode("ascii")[:16].ljust(16, b"\x00")

        segments = iter(frame.segments)
        current = memoryview(b"")
        for index in range(count):
            header = _HEADER_STRUCT.pack(
                _MAGIC, _VERSION, batch_id_bytes, index, count, total, crc
            )
            wire = bytearray(header)
            needed = min(self.chunk_bytes, total - index * self.chunk_bytes)
            while needed > 0:
                if not len(current):
                    current = memoryview(next(segments)).cast("B")
                    continue
                take = current[:needed] if len(current) > needed else current
                wire += take
                needed -= len(take)
                current = current[len(take):]
            yield bytes(wire)


class BatchAssembler:
    """Reassembles chunks into payloads, keyed by ``(sender, batch_id)``.

    The assembler is tolerant of duplicated chunks (QoS 1 re-delivery) and
    out-of-order arrival; it raises :class:`BatchReassemblyError` on
    inconsistent metadata or CRC mismatch.
    """

    def __init__(self, max_open_batches: int = 1024) -> None:
        self.max_open_batches = int(require_positive(max_open_batches, "max_open_batches"))
        self._open: Dict[Tuple[str, str], Dict[int, BatchChunk]] = {}
        self.completed_batches = 0
        self.duplicate_chunks = 0

    def open_batches(self) -> int:
        """Number of partially received batches currently buffered."""
        return len(self._open)

    def add(self, sender: str, payload: bytes) -> "Optional[bytes | memoryview]":
        """Feed one received chunk payload.

        Returns the fully reassembled original payload once the last chunk of
        a batch arrives, otherwise ``None``.
        """
        chunk = BatchChunk.from_bytes(payload)
        return self.add_chunk(sender, chunk)

    def add_chunk(self, sender: str, chunk: BatchChunk) -> "Optional[bytes | memoryview]":
        """Feed one parsed :class:`BatchChunk`; see :meth:`add`.

        The completed payload is released scatter-aware: a single-chunk batch
        returns the chunk's own data (a zero-copy view into the received
        message when the chunk was parsed from a ``memoryview``), and a
        multi-chunk batch gathers into one preallocated buffer while the CRC
        streams across the same pass — one copy total, no intermediate
        ``join`` and no second integrity sweep over the joined bytes.
        """
        if chunk.count <= 0 or chunk.index >= chunk.count:
            raise BatchReassemblyError(
                f"invalid chunk indexing: index={chunk.index} count={chunk.count}"
            )
        key = (sender, chunk.batch_id)
        bucket = self._open.get(key)
        if bucket is None:
            if len(self._open) >= self.max_open_batches:
                raise BatchReassemblyError(
                    f"too many open batches (> {self.max_open_batches}); possible sender leak"
                )
            bucket = {}
            self._open[key] = bucket
        else:
            sample = next(iter(bucket.values()))
            if sample.count != chunk.count or sample.total_length != chunk.total_length or sample.crc32 != chunk.crc32:
                raise BatchReassemblyError(
                    f"inconsistent metadata within batch {chunk.batch_id!r} from {sender!r}"
                )
        if chunk.index in bucket:
            self.duplicate_chunks += 1
            return None
        bucket[chunk.index] = chunk
        if len(bucket) < chunk.count:
            return None

        # Complete: release scatter-aware (one gather pass with streamed CRC).
        del self._open[key]
        if chunk.count == 1:
            data = bucket[0].data
            if len(data) != chunk.total_length:
                raise BatchReassemblyError(
                    f"reassembled length {len(data)} != declared {chunk.total_length}"
                )
            if (zlib.crc32(data) & 0xFFFFFFFF) != chunk.crc32:
                raise BatchReassemblyError(
                    f"CRC mismatch for batch {chunk.batch_id!r} from {sender!r}"
                )
            self.completed_batches += 1
            return data

        gathered = bytearray(chunk.total_length)
        crc = 0
        offset = 0
        for index in range(chunk.count):
            data = bucket[index].data
            end = offset + len(data)
            if end > chunk.total_length:
                raise BatchReassemblyError(
                    f"reassembled length exceeds declared {chunk.total_length}"
                )
            gathered[offset:end] = data
            crc = zlib.crc32(data, crc)
            offset = end
        if offset != chunk.total_length:
            raise BatchReassemblyError(
                f"reassembled length {offset} != declared {chunk.total_length}"
            )
        if (crc & 0xFFFFFFFF) != chunk.crc32:
            raise BatchReassemblyError(f"CRC mismatch for batch {chunk.batch_id!r} from {sender!r}")
        self.completed_batches += 1
        return memoryview(gathered).toreadonly()

    def discard(self, sender: str, batch_id: str) -> bool:
        """Drop a partially received batch (e.g. sender disconnected)."""
        return self._open.pop((sender, batch_id), None) is not None

    def clear(self) -> None:
        """Drop all partially received batches."""
        self._open.clear()
