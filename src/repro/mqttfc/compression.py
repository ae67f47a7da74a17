"""Optional zlib compression for MQTTFC payloads (paper §IV).

Compressed payloads are self-describing: a 1-byte flag followed by the body,
so the receiver never needs out-of-band knowledge of what the sender did.

``\\x00``  raw — the frame as encoded.
``\\x01``  one zlib stream over the frame as encoded.
``\\x02``  one zlib stream over the frame with every multi-byte ndarray leaf
          transposed into byte planes (all first bytes, then all second
          bytes, … — the HDF5 / Blosc "shuffle" filter).  The receiver undoes
          the transpose from the inflated frame's own JSON header (``dtype``
          and ``buffer_lengths``).

LZ77 match search finds nothing in float mantissas; what a float tensor has
to give sits in its sign/exponent bytes, which the transpose gathers into one
low-entropy plane.  So a frame that is at least half leaves of multi-byte
elements — every model frame on this wire: float32 uploads, relayed
aggregates and globals, float16 updates — is entropy-coded only
(``Z_HUFFMAN_ONLY``), and of a float leaf only the most significant plane is
handed to the coder at all: the mantissa planes (byte entropy 7.96–7.99 bit)
are what zlib would tally, build a tree for and then store anyway, so a
level-0 deflater writes them straight out as stored blocks.  Both deflaters
are raw (``wbits=-15``); their byte-aligned pieces (``Z_SYNC_FLUSH``) are
concatenated in frame order between a literal ``78 01`` header and the
adler32 of everything — still one standard zlib stream, so the receiver is
the same ``zlib`` inflate for every flag.  Anything else gets plain level 1
from the coder alone: JSON topologies and uint8-quantised updates (a stored
piece may not enter a stream that has LZ77 on — match distances would count
past it).  Every coded plane ends its deflate block, so each gets its own
Huffman table.  The rule reads nothing but the frame.
Compression is skipped below a configurable size, and a result that is not
smaller than the input is discarded for the raw flag — this matches the
paper's "for larger payloads, a compression mechanism using zlib".
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.mqttfc.serialization import PayloadFrame, SerializationError, leaf_spans
from repro.utils.validation import require_positive

__all__ = [
    "CodedFrame",
    "CompressionConfig",
    "compress_frame",
    "decompress_payload",
    "CompressionError",
]

_FLAG_RAW = b"\x00"
_FLAG_ZLIB = b"\x01"
_FLAG_SHUFFLED = b"\x02"
_ZLIB_HEADER = b"\x78\x01"  # deflate, 32 KiB window, "fastest" level hint


class CompressionError(ValueError):
    """Raised when a compressed payload cannot be decoded."""


@dataclass(frozen=True)
class CompressionConfig:
    """Compression policy for an MQTTFC endpoint.

    Attributes
    ----------
    enabled:
        Master switch; when False every payload is sent raw (flag 0).
    min_bytes:
        Payloads smaller than this are never compressed — the zlib header and
        CPU cost outweigh any savings for small coordination messages.
    """

    enabled: bool = True
    min_bytes: int = 1024

    def __post_init__(self) -> None:
        require_positive(self.min_bytes, "min_bytes", strict=False)


class CodedFrame(PayloadFrame):
    """A wire frame plus how :func:`compress_frame` arrived at it.

    ``coding`` is ``"raw"`` (compression not attempted), ``"huffman"`` or
    ``"level1"`` (the deflate that was kept) or ``"discarded"`` (a deflate
    that did not shrink the frame, sent raw).
    """

    __slots__ = ("coding",)

    def __init__(self, segments: List[object], coding: str) -> None:
        super().__init__(segments)
        self.coding = coding


def compress_frame(frame: PayloadFrame, config: CompressionConfig | None = None) -> CodedFrame:
    """Wrap ``frame`` with the compression flag, compressing if worthwhile.

    ``frame`` must come from :func:`~repro.mqttfc.serialization.encode_payload_frame`:
    its ``memoryview`` segments are the ndarray leaves its header describes,
    and their itemsize is read from the array each one aliases.

    When compression is skipped (disabled, below the threshold, or not
    worthwhile) the result is the input frame with the raw flag *prepended as
    a segment* — the model-parameter segments keep aliasing their source
    arrays and nothing is copied.  Only a kept compression materializes
    anything and returns a two-segment ``flag + compressed`` frame.
    """
    config = config or CompressionConfig()
    if not config.enabled or frame.nbytes < config.min_bytes:
        return CodedFrame([_FLAG_RAW, *frame.segments], "raw")
    parts: List[tuple] = []  # (bytes-like, is a float leaf's mantissa plane)
    wide = 0  # bytes in leaves of multi-byte elements
    for segment in frame.segments:
        leaf = segment.obj if isinstance(segment, memoryview) else None
        if not isinstance(leaf, np.ndarray) or leaf.itemsize == 1 or not segment.nbytes:
            parts.append((segment, False))
            continue
        wide += segment.nbytes
        items = np.frombuffer(segment, np.uint8).reshape(-1, leaf.itemsize)
        top = 0 if leaf.dtype.str[0] == ">" else leaf.itemsize - 1  # sign/exponent plane
        mantissa = leaf.dtype.kind == "f"
        for k, plane in enumerate(np.ascontiguousarray(items.T)):  # one row per byte plane
            parts.append((plane, mantissa and k != top))
    huffman = 2 * wide >= frame.nbytes
    strategy = zlib.Z_HUFFMAN_ONLY if huffman else zlib.Z_DEFAULT_STRATEGY
    # Two raw deflaters write the one stream: the coder, and — for the planes
    # Huffman coding only ever stored — a level-0 deflater that goes straight
    # to stored blocks (and splits them at 65 535 bytes).
    coder = zlib.compressobj(1, zlib.DEFLATED, -zlib.MAX_WBITS, zlib.DEF_MEM_LEVEL, strategy)
    storer = zlib.compressobj(0, zlib.DEFLATED, -zlib.MAX_WBITS)
    pieces = [_ZLIB_HEADER]
    checksum = 1
    previous = None
    for part, mantissa in parts:
        deflater = storer if mantissa and huffman else coder
        if deflater is storer:
            # With LZ77 on, match distances would count past the stored bytes.
            assert strategy == zlib.Z_HUFFMAN_ONLY
        if previous is not None:
            # Same deflater: end the block (a Huffman table per plane).  Other
            # deflater: also pad to a byte boundary so the pieces concatenate.
            pieces.append(
                previous.flush(zlib.Z_BLOCK if previous is deflater else zlib.Z_SYNC_FLUSH)
            )
        pieces.append(deflater.compress(part))
        checksum = zlib.adler32(part, checksum)
        previous = deflater
    if previous is storer:
        pieces.append(storer.flush(zlib.Z_SYNC_FLUSH))
    pieces.append(coder.flush())  # the final block
    pieces.append(checksum.to_bytes(4, "big"))
    compressed = b"".join(pieces)
    if len(compressed) >= frame.nbytes:
        return CodedFrame([_FLAG_RAW, *frame.segments], "discarded")
    return CodedFrame(
        [_FLAG_SHUFFLED if wide else _FLAG_ZLIB, compressed],
        "huffman" if huffman else "level1",
    )


def _unshuffle(body: bytes) -> bytes:
    """Put the leaves of an inflated flag-``\\x02`` body back in element order."""
    try:
        spans = leaf_spans(body)
    except SerializationError as exc:
        raise CompressionError(f"corrupt byte-plane payload: {exc}") from exc
    planes = np.frombuffer(body, np.uint8)
    frame = planes.copy()
    for start, stop, itemsize in spans:
        if itemsize == 1 or start == stop:
            continue
        items = frame[start:stop].reshape(-1, itemsize)
        for k, plane in enumerate(planes[start:stop].reshape(itemsize, -1)):
            items[:, k] = plane  # a third of the cost of one transposed assignment
    return frame.tobytes()


def decompress_payload(data: "bytes | memoryview", copy: bool = True) -> "bytes | memoryview":
    """Undo :func:`compress_frame` on the contiguous wire bytes.

    With ``copy=False`` an uncompressed body comes back as a ``memoryview``
    aliasing ``data`` (no copy); compressed bodies always inflate into fresh
    bytes — for flag ``\\x02`` the frame with its leaves back in element
    order, so views decoded from it alias what every receiver of the publish
    can share.  The zlib stream must span the whole body: a truncated stream
    or bytes after its end raise :class:`CompressionError`, as does a byte-
    plane body whose header does not describe it.
    """
    if len(data) < 1:
        raise CompressionError("empty payload cannot carry a compression flag")
    view = memoryview(data)
    flag, body = bytes(view[:1]), view[1:]
    if flag == _FLAG_RAW:
        return bytes(body) if copy else body
    if flag not in (_FLAG_ZLIB, _FLAG_SHUFFLED):
        raise CompressionError(f"unknown compression flag byte {flag!r}")
    inflater = zlib.decompressobj()
    try:
        inflated = inflater.decompress(body)
    except zlib.error as exc:
        raise CompressionError(f"corrupt zlib payload: {exc}") from exc
    if not inflater.eof:
        raise CompressionError("corrupt zlib payload: truncated stream")
    if inflater.unused_data:
        raise CompressionError(
            f"corrupt zlib payload: {len(inflater.unused_data)} trailing bytes after the stream"
        )
    return inflated if flag == _FLAG_ZLIB else _unshuffle(inflated)
