"""Pickle-free binary serialization for MQTTFC payloads.

The payloads SDFLMQ moves around are (a) small JSON-like coordination
structures (session requests, role assignments, client stats) and (b) large
model state dicts — nested dicts whose leaves are numpy arrays.  The paper
serializes messages into a "customized separable text format" with JSON for
stats/topologies; for model parameters a binary path is essential, so the
codec here keeps the JSON readability for the structure while transporting
ndarray leaves as raw contiguous buffers:

``MQFC`` magic (4 bytes) | header length (u32 LE) | UTF-8 JSON header |
buffer 0 | buffer 1 | ...

The JSON header is the original structure with each ndarray leaf replaced by
``{"__nd__": index, "dtype": ..., "shape": [...]}``; buffer byte lengths are
listed in the header so decoding can slice the tail without copies
(``np.frombuffer`` views into the payload).

Supported leaf types: ``None``, ``bool``, ``int``, ``float``, ``str``,
``bytes`` (base64 in the header), numpy scalars and ndarrays, plus arbitrarily
nested ``dict`` / ``list`` / ``tuple`` containers (tuples decode as lists,
matching JSON semantics).

Zero-copy fast path
-------------------

:func:`encode_payload_frame` is the hot-path entry point: it produces a
:class:`PayloadFrame` — the frame prefix (magic + header length + JSON
header) plus an ordered list of ``memoryview`` segments that *alias* the
ndarray leaves instead of copying them.  Nothing is materialized until a
consumer asks for contiguous bytes (:meth:`PayloadFrame.tobytes`, a single
writev-style gather), and :attr:`PayloadFrame.nbytes` / :func:`payload_size`
never materialize at all.  :func:`encode_payload` is the
materializing convenience wrapper; the decode side has always returned
``np.frombuffer`` views when asked (``copy_arrays=False``).
"""

from __future__ import annotations

import base64
import json
from typing import Any, List

import numpy as np

__all__ = [
    "PayloadFrame",
    "encode_payload",
    "encode_payload_frame",
    "decode_payload",
    "leaf_spans",
    "payload_size",
    "SerializationError",
]

MAGIC = b"MQFC"
_HEADER_LEN_BYTES = 4


class SerializationError(ValueError):
    """Raised when an object cannot be encoded or a payload cannot be decoded."""


class PayloadFrame:
    """A segmented, immutable-by-convention MQTTFC frame.

    ``segments`` is the ordered list of buffers that make up the frame: the
    prefix (``MQFC`` magic + header length + JSON header, one ``bytes``
    object) followed by one ``memoryview`` per ndarray leaf, each aliasing
    the source array's memory — encoding a 10 MB state dict copies none of
    its parameter bytes.  Consumers either iterate :attr:`segments`
    writev-style (the chunking transport does) or call :meth:`tobytes` for a
    contiguous frame, which performs the single unavoidable gather copy and
    caches it.

    Frames are shared across broker fan-out (every subscriber's delivery
    record holds the same message object, hence the same frame), so the
    segments — and the arrays they alias — must not be mutated after
    encoding.
    """

    __slots__ = ("segments", "nbytes", "_joined")

    def __init__(self, segments: List[object]) -> None:
        self.segments = segments
        self.nbytes = sum(
            s.nbytes if isinstance(s, memoryview) else len(s) for s in segments
        )
        self._joined: bytes | None = None

    def __len__(self) -> int:
        return self.nbytes

    def tobytes(self) -> bytes:
        """Materialize the frame as one contiguous ``bytes`` (cached).

        This is the only copy the encode path performs: a single gather of
        every segment into the result, with no per-leaf intermediates.
        """
        if self._joined is None:
            self._joined = b"".join(self.segments)
        return self._joined

    def __bytes__(self) -> bytes:
        return self.tobytes()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"PayloadFrame(segments={len(self.segments)}, nbytes={self.nbytes})"


def _leaf_view(array: np.ndarray) -> memoryview:
    """A flat byte view aliasing ``array``'s buffer (no copy for contiguous data)."""
    if array.nbytes == 0:
        # Zero-size views cannot be cast ("zeros in shape or strides").
        return memoryview(b"")
    return memoryview(array).cast("B")


def _encode_node(node: Any, buffers: List[memoryview]) -> Any:
    """Recursively convert ``node`` into a JSON-compatible structure.

    ndarray leaves are appended to ``buffers`` as aliasing memoryviews; only
    non-contiguous arrays are compacted (``ascontiguousarray``) first, which
    is the copy a wire format cannot avoid.
    """
    if node is None or isinstance(node, (bool, int, float, str)):
        return node
    if isinstance(node, (np.bool_,)):
        return bool(node)
    if isinstance(node, np.integer):
        return int(node)
    if isinstance(node, np.floating):
        return float(node)
    if isinstance(node, (bytes, bytearray, memoryview)):
        return {"__bytes__": base64.b64encode(bytes(node)).decode("ascii")}
    if isinstance(node, np.ndarray):
        array = np.ascontiguousarray(node)
        index = len(buffers)
        buffers.append(_leaf_view(array))
        return {
            "__nd__": index,
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "nbytes": int(array.nbytes),
        }
    if isinstance(node, dict):
        encoded = {}
        for key, value in node.items():
            if not isinstance(key, str):
                raise SerializationError(
                    f"dict keys must be strings for MQTTFC payloads, got {type(key).__name__}"
                )
            if key.startswith("__") and key.endswith("__"):
                raise SerializationError(f"reserved key name {key!r} in payload")
            encoded[key] = _encode_node(value, buffers)
        return encoded
    if isinstance(node, (list, tuple)):
        return [_encode_node(item, buffers) for item in node]
    raise SerializationError(f"unsupported type in MQTTFC payload: {type(node).__name__}")


def _decode_leaf(node: dict, buffers: List[memoryview], copy_arrays: bool) -> Any:
    """Decode one ``__nd__`` / ``__bytes__`` marker node of a received header."""
    try:
        if "__nd__" not in node:
            return base64.b64decode(node["__bytes__"])
        index = node["__nd__"]
        if type(index) is not int or not 0 <= index < len(buffers):
            raise ValueError(f"no buffer {index!r} among {len(buffers)}")
        array = np.frombuffer(buffers[index], dtype=np.dtype(node["dtype"]))
        array = array.reshape(tuple(node["shape"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"corrupt MQTTFC leaf node: {exc}") from exc
    return array.copy() if copy_arrays else array


def _decode_node(node: Any, buffers: List[memoryview], copy_arrays: bool) -> Any:
    if isinstance(node, dict):
        if "__nd__" in node or "__bytes__" in node:
            return _decode_leaf(node, buffers, copy_arrays)
        return {key: _decode_node(value, buffers, copy_arrays) for key, value in node.items()}
    if isinstance(node, list):
        return [_decode_node(item, buffers, copy_arrays) for item in node]
    return node


def encode_payload_frame(obj: Any) -> PayloadFrame:
    """Encode ``obj`` into a segmented :class:`PayloadFrame` (zero leaf copies).

    The returned frame's segments alias every contiguous ndarray leaf in
    ``obj``; neither the leaves nor a whole-frame concatenation are
    materialized here.
    """
    buffers: List[memoryview] = []
    structure = _encode_node(obj, buffers)
    header = {
        "v": 1,
        "structure": structure,
        "buffer_lengths": [b.nbytes for b in buffers],
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    prefix = MAGIC + len(header_bytes).to_bytes(_HEADER_LEN_BYTES, "little") + header_bytes
    return PayloadFrame([prefix, *buffers])


def encode_payload(obj: Any) -> bytes:
    """Encode ``obj`` into the MQTTFC binary payload format (contiguous bytes).

    Convenience wrapper over :func:`encode_payload_frame`: the leaves are
    gathered into the result in one pass, with no per-leaf ``tobytes`` copies
    and no second whole-frame concatenation.
    """
    return encode_payload_frame(obj).tobytes()


def _parse_frame(view: memoryview) -> "tuple[dict, List[dict], List[tuple[int, int]]]":
    """Validate a contiguous frame and split it without touching the buffers.

    Returns the parsed JSON header, its ``__nd__`` / ``__bytes__`` marker
    nodes, and one ``(start, stop)`` byte span per entry of
    ``buffer_lengths``; the spans tile the rest of the frame exactly.
    """
    if len(view) < len(MAGIC) + _HEADER_LEN_BYTES:
        raise SerializationError("payload too short to be an MQTTFC payload")
    if bytes(view[: len(MAGIC)]) != MAGIC:
        raise SerializationError("payload does not start with MQTTFC magic bytes")
    offset = len(MAGIC)
    header_len = int.from_bytes(view[offset : offset + _HEADER_LEN_BYTES], "little")
    offset += _HEADER_LEN_BYTES
    if offset + header_len > len(view):
        raise SerializationError("truncated MQTTFC header")
    # Every JSON object passes through the hook, so ``markers`` staying empty
    # proves the parsed header holds no ndarray / bytes leaf (a byte scan
    # would miss an escaped ``"\u005f_nd__"`` key).
    markers: List[dict] = []

    def note_marker(node: dict) -> dict:
        if "__nd__" in node or "__bytes__" in node:
            markers.append(node)
        return node

    try:
        header = json.loads(
            bytes(view[offset : offset + header_len]).decode("utf-8"), object_hook=note_marker
        )
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"corrupt MQTTFC header: {exc}") from exc
    offset += header_len

    if not isinstance(header, dict) or "structure" not in header:
        raise SerializationError("MQTTFC header is not an object with a 'structure' entry")
    buffer_lengths = header.get("buffer_lengths", [])
    if not isinstance(buffer_lengths, list) or any(
        type(length) is not int or length < 0 for length in buffer_lengths
    ):
        raise SerializationError("MQTTFC buffer_lengths is not a list of non-negative integers")
    spans: List[tuple[int, int]] = []
    for length in buffer_lengths:
        end = offset + length
        if end > len(view):
            raise SerializationError("truncated MQTTFC buffer section")
        spans.append((offset, end))
        offset = end
    if offset != len(view):
        raise SerializationError(
            f"trailing bytes in MQTTFC payload ({len(view) - offset} unexpected bytes)"
        )
    return header, markers, spans


def decode_payload(payload: "bytes | bytearray | memoryview | PayloadFrame", copy_arrays: bool = True) -> Any:
    """Decode a payload produced by :func:`encode_payload` (or a frame).

    Parameters
    ----------
    payload:
        The raw bytes (any buffer-protocol object) or a :class:`PayloadFrame`.
    copy_arrays:
        When True (default) ndarray leaves own their memory; when False they
        are read-only views into ``payload`` (zero-copy, useful for the
        aggregation hot path where the arrays are immediately reduced).
    """
    if isinstance(payload, PayloadFrame):
        payload = payload.tobytes()
    view = memoryview(payload)
    header, markers, spans = _parse_frame(view)
    structure = header["structure"]
    if not markers:
        # Control messages: ``json.loads`` already built, node for node, the
        # tree ``_decode_node`` would rebuild.
        return structure
    return _decode_node(structure, [view[start:stop] for start, stop in spans], copy_arrays)


def leaf_spans(payload: "bytes | bytearray | memoryview") -> "List[tuple[int, int, int]]":
    """``(start, stop, itemsize)`` of every buffer of a contiguous frame.

    The itemsize is that of the ``dtype`` the header's ``__nd__`` node gives
    the buffer (1 for a buffer no node names).  This is what the compression
    layer needs to undo its per-leaf byte transpose from the frame alone; a
    header whose nodes disagree about a buffer, name a dtype numpy rejects or
    one whose itemsize does not divide a non-empty buffer raises
    :class:`SerializationError`.
    """
    _header, markers, spans = _parse_frame(memoryview(payload))
    itemsizes: List[int] = [0] * len(spans)
    for node in markers:
        if "__nd__" not in node:
            continue
        index = node["__nd__"]
        try:
            if type(index) is not int or not 0 <= index < len(spans):
                raise ValueError(f"no buffer {index!r} among {len(spans)}")
            itemsize = np.dtype(node["dtype"]).itemsize
            length = spans[index][1] - spans[index][0]
            if length and (itemsize < 1 or length % itemsize):
                raise ValueError(
                    f"itemsize {itemsize} does not divide the {length}-byte buffer {index}"
                )
            if itemsizes[index] not in (0, itemsize):
                raise ValueError(f"leaf nodes disagree about buffer {index}'s dtype")
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"corrupt MQTTFC leaf node: {exc}") from exc
        itemsizes[index] = itemsize
    return [(start, stop, itemsize or 1) for (start, stop), itemsize in zip(spans, itemsizes)]


def payload_size(obj: Any) -> int:
    """Return the encoded size of ``obj`` in bytes without materializing it.

    Only the JSON header is built; ndarray leaf sizes are summed from the
    aliasing segment views, so sizing a multi-MB state dict copies nothing.
    """
    return encode_payload_frame(obj).nbytes
