"""Zero-copy guard + throughput microbench for the MQTTFC payload codec.

The codec's fast path (`encode_payload_frame`) must assemble the ``MQFC``
frame *writev-style*: the frame's segments alias the ndarray leaves of the
state dict being encoded, with no per-leaf ``tobytes()`` copies and no second
whole-frame concatenation.  This file pins that property with **aliasing
assertions** (``np.shares_memory`` against the source arrays), not timing —
a refactor that silently reintroduces per-leaf copies fails deterministically
regardless of machine speed.

The decode side is pinned symmetrically: with ``copy_arrays=False`` every
decoded ndarray leaf must be a read-only ``np.frombuffer`` view into the
frame buffer.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
from conftest import emit, fast_mode

from repro.mqttfc.codecs import make_update_codec
from repro.mqttfc.serialization import (
    decode_payload,
    encode_payload_frame,
)

#: ~10 MB of float32 parameters (the acceptance target for the zero-copy
#: encode check), shrunk in fast mode.
STATE_MB = 2 if fast_mode() else 10


def _state_dict(payload_mb: int) -> dict:
    """~``payload_mb`` MB of model parameters (float32-heavy, mixed dtypes)."""
    rng = np.random.default_rng(7)
    floats = payload_mb * 1024 * 1024 // 4
    half = floats // 2
    return {
        "dense.weight": rng.normal(size=(half // 256, 256)).astype(np.float32),
        "dense.bias": rng.normal(size=256).astype(np.float32),
        "head.weight": rng.normal(size=(half // 64, 64)).astype(np.float32),
        "head.bias": np.zeros(64, dtype=np.float64),
    }


def test_encode_is_zero_copy_per_leaf():
    """Every contiguous leaf's bytes appear in the frame as an aliasing view."""
    state = _state_dict(STATE_MB)
    payload = {"state": state, "round_index": 3, "sender": "client_007"}
    frame = encode_payload_frame(payload)

    # Segment 0 is the prefix (magic + header length + JSON header); each
    # ndarray leaf contributes exactly one segment, in encounter order.
    leaf_arrays = list(state.values())
    leaf_segments = frame.segments[1:]
    assert len(leaf_segments) == len(leaf_arrays)
    for array, segment in zip(leaf_arrays, leaf_segments):
        assert isinstance(segment, memoryview)
        assert segment.nbytes == array.nbytes
        # The aliasing check: the segment is a view of the array's buffer,
        # not a copy of its bytes.
        assert np.shares_memory(np.frombuffer(segment, dtype=np.uint8), array)

    # The single gather happens only on request, and is cached.
    raw = frame.tobytes()
    assert len(raw) == frame.nbytes
    assert frame.tobytes() is raw


def test_decode_views_alias_the_frame():
    state = _state_dict(1)
    raw = encode_payload_frame({"state": state}).tobytes()
    decoded = decode_payload(raw, copy_arrays=False)["state"]
    for name, source in state.items():
        view = decoded[name]
        assert not view.flags.writeable  # frombuffer on bytes is read-only
        assert np.shares_memory(view, np.frombuffer(raw, dtype=np.uint8))
        assert np.array_equal(view, source)


def test_update_codec_encode_reuses_scratch_without_copies():
    """Steady-state update-codec encodes allocate **zero** new data buffers.

    Every quantized payload the int8 pipeline emits must be one of the
    codec's declared :class:`ScratchArena` buffers (no per-leaf copies), and
    a second encode of the same shapes must reuse them all: the arena's
    allocation counter stays flat and the transient footprint (tracked with
    ``tracemalloc``) stays a small fraction of the update size.
    """
    state = _state_dict(STATE_MB)
    codec = make_update_codec("int8")
    first = codec.encode_state("bench_session", state)
    buffers = list(codec.arena._buffers.values())
    for entry in first["tensors"]:
        # Identity, not just shares_memory: the payload *is* the scratch.
        assert any(entry["data"] is buffer for buffer in buffers)

    allocations = codec.arena.allocations
    tracemalloc.start()
    second = codec.encode_state("bench_session", state)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert codec.arena.allocations == allocations
    for entry_a, entry_b in zip(first["tensors"], second["tensors"]):
        assert entry_b["data"] is entry_a["data"]
    bytes_in = sum(array.nbytes for array in state.values())
    assert peak < 0.1 * bytes_in


def test_update_codec_wire_aliases_scratch_in_the_frame():
    """The encoded update feeds the frame path with aliasing segments.

    End to end: codec scratch → wire dict → ``encode_payload_frame``; each
    tensor payload must appear in the frame as a memoryview over the arena
    buffer, so the whole send path stays copy-free until the chunk gather.
    """
    state = _state_dict(1)
    codec = make_update_codec("fp16")
    encoded = codec.encode_state("bench_session", state)
    frame = encode_payload_frame({"state": encoded, "round_index": 1})

    scratch = list(codec.arena._buffers.values())
    data_arrays = [entry["data"] for entry in encoded["tensors"]]
    leaf_segments = frame.segments[1:]
    assert len(leaf_segments) == len(data_arrays)
    for array, segment in zip(data_arrays, leaf_segments):
        assert isinstance(segment, memoryview)
        assert np.shares_memory(np.frombuffer(segment, dtype=np.uint8), array)
        assert any(np.shares_memory(array, buffer) for buffer in scratch)


def test_update_codec_decode_is_read_only():
    state = _state_dict(1)
    codec = make_update_codec("int8")
    raw = encode_payload_frame({"state": codec.encode_state("bench_session", state)}).tobytes()
    received = decode_payload(raw, copy_arrays=False)["state"]
    decoded = codec.decode_state("bench_session", received)
    for name, source in state.items():
        view = decoded[name]
        assert not view.flags.writeable
        assert view.shape == source.shape
        assert view.dtype == source.dtype


def test_codec_throughput(benchmark):
    state = _state_dict(STATE_MB)
    payload = {"state": state, "round_index": 0, "sender": "client_000"}
    size_mb = encode_payload_frame(payload).nbytes / (1024 * 1024)

    def round_trip():
        start = time.perf_counter()
        raw = encode_payload_frame(payload).tobytes()
        encode_s = time.perf_counter() - start
        start = time.perf_counter()
        decoded = decode_payload(raw, copy_arrays=False)
        decode_s = time.perf_counter() - start
        return raw, decoded, encode_s, decode_s

    raw, decoded, encode_s, decode_s = benchmark.pedantic(round_trip, rounds=3, iterations=1)
    assert np.array_equal(decoded["state"]["dense.bias"], state["dense.bias"])

    encode_mb_s = size_mb / max(encode_s, 1e-9)
    decode_mb_s = size_mb / max(decode_s, 1e-9)
    emit(
        "MQTTFC codec — encode/decode throughput",
        f"payload size:     {size_mb:.2f} MB\n"
        f"encode:           {encode_mb_s:,.0f} MB/s\n"
        f"decode (views):   {decode_mb_s:,.0f} MB/s",
    )
    # Conservative floors: a copy-per-leaf regression drops encode well under
    # a GB/s; the zero-copy decode path has no business under 1 GB/s either.
    assert encode_mb_s > 200
    assert decode_mb_s > 200
