"""Optional zlib compression for MQTTFC payloads (paper §IV).

Compressed payloads are self-describing: a 1-byte flag (``0`` = raw, ``1`` =
zlib) followed by the (possibly compressed) body, so the receiver never needs
out-of-band knowledge of whether compression was enabled on the sender.
Compression is skipped when the payload is below a configurable threshold or
when compressing did not actually shrink it (dense float weights often barely
compress), in which case the raw flag is used — this matches the paper's
"for larger payloads, a compression mechanism using zlib" wording.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.mqttfc.serialization import PayloadFrame
from repro.utils.validation import require_in_range, require_positive

__all__ = [
    "CompressionConfig",
    "compress_payload",
    "compress_frame",
    "decompress_payload",
    "CompressionError",
]

_FLAG_RAW = b"\x00"
_FLAG_ZLIB = b"\x01"


class CompressionError(ValueError):
    """Raised when a compressed payload cannot be decoded."""


@dataclass(frozen=True)
class CompressionConfig:
    """Compression policy for an MQTTFC endpoint.

    Attributes
    ----------
    enabled:
        Master switch; when False every payload is sent raw (flag 0).
    level:
        zlib compression level, 1 (fastest) … 9 (best).
    min_bytes:
        Payloads smaller than this are never compressed — the zlib header and
        CPU cost outweigh any savings for small coordination messages.
    """

    enabled: bool = True
    level: int = 6
    min_bytes: int = 1024

    def __post_init__(self) -> None:
        require_in_range(self.level, "level", 1, 9)
        require_positive(self.min_bytes, "min_bytes", strict=False)


def compress_payload(data: bytes, config: CompressionConfig | None = None) -> bytes:
    """Wrap ``data`` with the compression flag, compressing if worthwhile."""
    config = config or CompressionConfig()
    if not config.enabled or len(data) < config.min_bytes:
        return _FLAG_RAW + data
    compressed = zlib.compress(data, config.level)
    if len(compressed) >= len(data):
        return _FLAG_RAW + data
    return _FLAG_ZLIB + compressed


def compress_frame(frame: PayloadFrame, config: CompressionConfig | None = None) -> PayloadFrame:
    """Frame-preserving :func:`compress_payload`.

    When compression is skipped (disabled, below the threshold, or not
    worthwhile) the result is the input frame with the raw flag *prepended as
    a segment* — the model-parameter segments keep aliasing their source
    arrays and nothing is copied.  Only a successful compression materializes
    the frame (zlib needs the contiguous stream anyway) and returns a
    two-segment ``flag + compressed`` frame.  The wire bytes are identical to
    ``compress_payload(frame.tobytes(), config)``.
    """
    config = config or CompressionConfig()
    if not config.enabled or frame.nbytes < config.min_bytes:
        return PayloadFrame([_FLAG_RAW, *frame.segments])
    data = frame.tobytes()
    compressed = zlib.compress(data, config.level)
    if len(compressed) >= len(data):
        return PayloadFrame([_FLAG_RAW, *frame.segments])
    return PayloadFrame([_FLAG_ZLIB, compressed])


def decompress_payload(data: "bytes | memoryview", copy: bool = True) -> "bytes | memoryview":
    """Undo :func:`compress_payload`.

    With ``copy=False`` an uncompressed body comes back as a ``memoryview``
    aliasing ``data`` (no copy); compressed bodies always inflate into fresh
    bytes.  The zlib stream must span the whole body: a truncated stream or
    bytes after its end raise :class:`CompressionError`.
    """
    if len(data) < 1:
        raise CompressionError("empty payload cannot carry a compression flag")
    view = memoryview(data)
    flag, body = bytes(view[:1]), view[1:]
    if flag == _FLAG_RAW:
        return bytes(body) if copy else body
    if flag == _FLAG_ZLIB:
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
        return inflated
    raise CompressionError(f"unknown compression flag byte {flag!r}")
