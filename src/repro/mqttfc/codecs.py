"""Pluggable update-compression codecs for model state dicts.

Real fleet-scale FL never ships full-precision parameters: updates travel
quantized (8-bit affine, half precision), sparsified (top-k by magnitude)
or as deltas against the last global model the coordinator broadcast.
This module adds that stage to the reproduction's wire path as an
*object-level* transform on the contribution's state dict, slotted
directly before :func:`repro.mqttfc.serialization.encode_payload_frame`:

    state dict → **update codec** → ``encode_payload_frame`` →
    ``compress_frame`` → chunking → broker

The codec emits a self-describing dict whose tensor payloads are plain
ndarrays, so the existing zero-copy frame path aliases them with
``memoryview`` segments exactly as it does raw parameters — no new copies
are introduced downstream of the codec.

Zero-copy / scratch discipline
------------------------------

Encoding quantizes into preallocated per-tensor scratch buffers owned by a
:class:`ScratchArena`; steady-state encodes perform **zero** new data-buffer
allocations for the quantized payloads (top-k selection and delta escape
gathers are the declared exceptions, both ``O(k)``).  Reuse is safe because
the endpoint's ``_send_logical`` gathers every wire chunk synchronously at
publish time — by the time ``encode_state`` returns to the caller, the
scratch bytes have been copied into the published chunks.  Decoding returns
**read-only** arrays: either ``np.frombuffer`` views into the received
frame (when no transform is needed) or freshly materialized arrays with
``writeable=False``.

Stages and composition
----------------------

``fp16``
    Cast to IEEE half precision.  Lossless for inputs already representable
    in fp16; otherwise round-to-nearest.
``int8``
    Per-tensor affine 8-bit quantization: ``q = round((x - zero) / scale)``
    clipped to ``[0, 255]``, with float32 ``scale``/``zero`` stored in the
    header.  Tensors containing non-finite values (or whose range overflows
    float32) pass through raw.
``topk`` / ``topk=<density>``
    Keep the ``ceil(density * n)`` largest-magnitude values; indices travel
    as sorted int32 delta runs, values in the original dtype.  ``topk=1.0``
    is lossless.
``delta``
    Encode ``state - last_global`` against the round-indexed reference both
    sides captured from the coordinator's global broadcast.  Floating-point
    subtraction is *not* exactly invertible, so the encoder verifies the
    reconstruction bit-for-bit and ships any mismatching elements (including
    NaNs and signed zeros) raw in an escape sidecar — the decode is exact by
    construction, for any dtype.

Stages compose with ``+`` in fixed order ``delta → topk → fp16 → int8``
(e.g. ``"delta+int8"``): delta runs on raw parameters, sparsification on the
dense delta, quantizers last.  Escape sidecars bypass the lossy stages, so
``delta``'s exactness guarantee survives composition — the *dense* part is
quantized, the escapes are not.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.mqttfc.codec_spec import (
    DEFAULT_TOPK_DENSITY,
    CodecError,
    parse_codec_grammar,
    topk_density,
)

__all__ = [
    "CODEC_WIRE_KEY",
    "CodecError",
    "CodecStats",
    "DEFAULT_TOPK_DENSITY",
    "ScratchArena",
    "UpdateCodec",
    "is_encoded_state",
    "make_update_codec",
    "parse_codec_spec",
]

#: Marker key identifying a codec-encoded state on the wire.  Deliberately
#: not dunder-styled (the MQTTFC serializer reserves ``__*__`` keys) and not
#: dotted (model parameter names are, e.g. ``dense.weight``), so a plain
#: state dict can never be mistaken for an encoded one.
CODEC_WIRE_KEY = "updatecodec"

#: Delta references kept per session (rounds of history).  Contributions
#: always reference a recently broadcast global, but a client rejoining
#: after a long blackout may encode against an older round.
_REF_HISTORY = 16


@dataclass
class CodecStats:
    """Counters for one endpoint's update codec."""

    updates_encoded: int = 0
    updates_decoded: int = 0
    tensors_encoded: int = 0
    #: Raw ndarray bytes entering the encoder (the uncompressed update).
    bytes_in: int = 0
    #: ndarray bytes leaving the encoder (quantized payloads + sidecars).
    bytes_out: int = 0
    #: ``bytes_in - bytes_out`` accumulated (negative if a codec expands).
    bytes_saved: int = 0
    #: Elements shipped raw by ``delta``'s exactness escape hatch.
    escape_values: int = 0


class ScratchArena:
    """Keyed, reusable scratch buffers for the encode hot path.

    ``array(key, shape, dtype)`` returns the cached buffer when the shape
    and dtype still match (the steady state — model shapes never change
    round over round) and reallocates otherwise.  ``allocations`` counts
    every fresh allocation, which the zero-copy regression tests pin.
    """

    def __init__(self) -> None:
        self._buffers: Dict[Tuple, np.ndarray] = {}
        self.allocations = 0

    def array(self, key: Tuple, shape: Tuple[int, ...], dtype: Any) -> np.ndarray:
        shape = tuple(int(dim) for dim in shape)
        dtype = np.dtype(dtype)
        buffer = self._buffers.get(key)
        if buffer is None or buffer.shape != shape or buffer.dtype != dtype:
            buffer = np.empty(shape, dtype=dtype)
            self._buffers[key] = buffer
            self.allocations += 1
        return buffer


class _Op:
    """Per-encode/decode context threaded through the stages."""

    __slots__ = ("arena", "refs", "stats")

    def __init__(
        self,
        arena: ScratchArena,
        refs: Optional[Dict[str, np.ndarray]],
        stats: CodecStats,
    ) -> None:
        self.arena = arena
        self.refs = refs
        self.stats = stats


def _ref_for(op: _Op, name: str, shape: Tuple[int, ...]) -> Optional[np.ndarray]:
    """The delta reference for ``name``, or None when absent/shape-changed.

    Encode and decode must make the *same* decision from the same refs, so
    this is the single home of the rule.
    """
    if op.refs is None:
        return None
    ref = op.refs.get(name)
    if ref is None or ref.shape != shape:
        return None
    return ref


def _bitwise_mismatch(recon: np.ndarray, original: np.ndarray, out: np.ndarray) -> None:
    """Elementwise ``recon != original`` compared on raw bits.

    Bit comparison (not value comparison) makes the delta escape hatch catch
    NaNs (``NaN != NaN`` would also work) *and* signed zeros
    (``-0.0 == +0.0`` would not), so the decode is bit-identical.
    """
    itemsize = original.dtype.itemsize
    if original.dtype.kind in "fiub" and itemsize in (1, 2, 4, 8):
        np.not_equal(
            recon.view(f"u{itemsize}"), original.view(f"u{itemsize}"), out=out
        )
    else:  # pragma: no cover - exotic dtypes fall back to value comparison
        np.not_equal(recon, original, out=out)


class _Stage:
    """One pipeline stage: ``encode`` mutates the tensor entry in place
    (replacing ``entry["data"]`` and adding sidecar keys), ``decode``
    reverses it."""

    name = "?"

    def spec(self) -> str:
        return self.name

    def encode(self, entry: Dict[str, Any], op: _Op, key: Tuple) -> None:
        raise NotImplementedError

    def decode(self, entry: Dict[str, Any], op: _Op) -> None:
        raise NotImplementedError


class DeltaStage(_Stage):
    """Round-over-round delta with a bit-exact escape hatch."""

    name = "delta"

    def encode(self, entry: Dict[str, Any], op: _Op, key: Tuple) -> None:
        data = entry["data"]
        if data.size == 0:
            entry["esc_idx"] = np.empty(0, np.int64)
            entry["esc_val"] = np.empty(0, data.dtype)
            return
        shape = data.shape
        arena = op.arena
        ref = _ref_for(op, entry["name"], shape)

        # Non-finite inputs make the subtraction warn (inf - inf) — the
        # escape hatch ships those elements raw, so the warning is noise.
        with np.errstate(invalid="ignore", over="ignore"):
            state64 = arena.array(("delta_s64",) + key, shape, np.float64)
            np.copyto(state64, data, casting="unsafe")
            if ref is not None:
                np.subtract(state64, ref, out=state64)
            delta = arena.array(("delta_d",) + key, shape, data.dtype)
            np.copyto(delta, state64, casting="unsafe")

            # Verify the reconstruction the receiver will compute, on raw bits.
            recon64 = arena.array(("delta_r64",) + key, shape, np.float64)
            np.copyto(recon64, delta, casting="unsafe")
            if ref is not None:
                np.add(recon64, ref, out=recon64)
            recon = arena.array(("delta_rc",) + key, shape, data.dtype)
            np.copyto(recon, recon64, casting="unsafe")
        mismatch = arena.array(("delta_mm",) + key, shape, np.bool_)
        _bitwise_mismatch(recon, data, out=mismatch)

        escape_idx = np.flatnonzero(mismatch).astype(np.int64, copy=False)
        entry["esc_idx"] = escape_idx
        entry["esc_val"] = data.reshape(-1)[escape_idx]
        entry["data"] = delta
        op.stats.escape_values += int(escape_idx.size)

    def decode(self, entry: Dict[str, Any], op: _Op) -> None:
        delta = entry["data"]
        dtype = np.dtype(entry["dtype"])
        shape = tuple(entry["shape"])
        escape_idx = entry.pop("esc_idx")
        escape_val = entry.pop("esc_val")
        if delta.size == 0:
            entry["data"] = np.empty(shape, dtype)
            return
        ref = _ref_for(op, entry["name"], shape)
        with np.errstate(invalid="ignore", over="ignore"):
            recon64 = delta.astype(np.float64).reshape(shape)
            if ref is not None:
                recon64 += ref
            recon = recon64.astype(dtype)
        if escape_idx.size:
            recon.reshape(-1)[np.asarray(escape_idx)] = np.asarray(
                escape_val, dtype=dtype
            )
        entry["data"] = recon


class TopKStage(_Stage):
    """Top-k-by-magnitude sparsification (sorted index delta runs + values)."""

    name = "topk"

    def __init__(self, density: float = DEFAULT_TOPK_DENSITY) -> None:
        self.density = topk_density(density)

    def spec(self) -> str:
        return f"topk={self.density:g}" if self.density != DEFAULT_TOPK_DENSITY else "topk"

    def encode(self, entry: Dict[str, Any], op: _Op, key: Tuple) -> None:
        data = entry["data"]
        n = data.size
        if n == 0:
            entry["topk_idx"] = np.empty(0, np.int32)
            entry["data"] = data.reshape(-1)
            return
        if n >= 2**31:  # pragma: no cover - sim models are far smaller
            raise CodecError("topk index runs require tensors with < 2**31 elements")
        k = min(n, max(1, int(math.ceil(self.density * n))))
        flat = data.reshape(-1)
        if k == n:
            # Lossless fast path: every element survives, no ordering needed
            # (and NaNs, which magnitude sorting would misplace, are kept).
            idx = np.arange(n, dtype=np.int64)
        else:
            magnitude = np.abs(flat.astype(np.float64, copy=False))
            idx = np.sort(np.argsort(-magnitude, kind="stable")[:k])
        runs = op.arena.array(("topk_i",) + key, (k,), np.int32)
        runs[0] = idx[0]
        np.subtract(idx[1:], idx[:-1], out=runs[1:], casting="unsafe")
        values = op.arena.array(("topk_v",) + key, (k,), data.dtype)
        np.take(flat, idx, out=values)
        entry["topk_idx"] = runs
        entry["data"] = values

    def decode(self, entry: Dict[str, Any], op: _Op) -> None:
        runs = entry.pop("topk_idx")
        values = entry["data"]
        count = 1
        for dim in entry["shape"]:
            count *= int(dim)
        flat = np.zeros(count, dtype=values.dtype)
        if np.asarray(runs).size:
            idx = np.cumsum(np.asarray(runs, dtype=np.int64))
            flat[idx] = values
        entry["data"] = flat


class Fp16Stage(_Stage):
    """IEEE half-precision cast (round-to-nearest)."""

    name = "fp16"

    def encode(self, entry: Dict[str, Any], op: _Op, key: Tuple) -> None:
        data = entry["data"]
        if data.dtype == np.float16:
            return
        half = op.arena.array(("fp16",) + key, data.shape, np.float16)
        np.copyto(half, data, casting="unsafe")
        entry["data"] = half

    def decode(self, entry: Dict[str, Any], op: _Op) -> None:
        # Nothing to undo: the next stage inward (or the final dtype
        # normalization) widens the half floats back to the original dtype.
        return


class Int8Stage(_Stage):
    """Per-tensor affine 8-bit quantization (float32 scale/zero-point)."""

    name = "int8"

    def encode(self, entry: Dict[str, Any], op: _Op, key: Tuple) -> None:
        data = entry["data"]
        if data.size == 0:
            entry["scale"] = 1.0
            entry["zero"] = 0.0
            entry["data"] = np.empty(data.shape, np.uint8)
            return
        low = float(data.min())
        high = float(data.max())
        scale = float(np.float32((high - low) / 255.0))
        zero = float(np.float32(low))
        if not (math.isfinite(low) and math.isfinite(high) and math.isfinite(scale)):
            # Non-finite values (or a float32-overflowing range) cannot be
            # affine-quantized; ship the tensor raw, flagged for the decoder.
            entry["rawq"] = True
            return
        if scale == 0.0:
            scale = 1.0  # constant tensor: everything lands on the zero-point
        arena = op.arena
        staged = arena.array(("int8_f",) + key, data.shape, np.float32)
        np.subtract(data, np.float32(zero), out=staged, casting="unsafe")
        np.divide(staged, np.float32(scale), out=staged)
        np.rint(staged, out=staged)
        np.clip(staged, 0.0, 255.0, out=staged)
        quantized = arena.array(("int8_q",) + key, data.shape, np.uint8)
        np.copyto(quantized, staged, casting="unsafe")
        entry["scale"] = scale
        entry["zero"] = zero
        entry["data"] = quantized

    def decode(self, entry: Dict[str, Any], op: _Op) -> None:
        if entry.pop("rawq", False):
            return
        quantized = entry["data"]
        out = np.empty(quantized.shape, np.float32)
        np.multiply(quantized, np.float32(entry["scale"]), out=out, casting="unsafe")
        np.add(out, np.float32(entry["zero"]), out=out)
        entry["data"] = out


_STAGE_FACTORIES = {
    "delta": DeltaStage,
    "topk": TopKStage,
    "fp16": Fp16Stage,
    "int8": Int8Stage,
}


def parse_codec_spec(spec: Optional[str]) -> Optional[Tuple[str, Tuple[_Stage, ...]]]:
    """Parse a codec spec string into ``(canonical_spec, stages)``.

    The grammar (and every :class:`CodecError` it raises) is
    :func:`repro.mqttfc.codec_spec.parse_codec_grammar`; ``None`` means *no
    codec*.
    """
    parsed = parse_codec_grammar(spec)
    if parsed is None:
        return None
    stages = tuple(_STAGE_FACTORIES[name](*args) for name, args in parsed)
    canonical = "+".join(stage.spec() for stage in stages)
    return canonical, stages


def is_encoded_state(obj: Any) -> bool:
    """Whether ``obj`` is a codec-encoded state (vs a plain state dict)."""
    return isinstance(obj, dict) and isinstance(obj.get(CODEC_WIRE_KEY), str)


class UpdateCodec:
    """A parsed codec pipeline plus one endpoint's codec state.

    Holds the scratch arena, the per-session round-indexed delta references
    and the :class:`CodecStats` counters.  One instance per endpoint: the
    references must track what *this* participant observed from the global
    broadcast, and scratch reuse assumes the sequential encode-then-publish
    discipline of a single endpoint.
    """

    def __init__(self, spec: str, stages: Tuple[_Stage, ...]) -> None:
        self.spec = spec
        self.stages = stages
        self.stats = CodecStats()
        self.arena = ScratchArena()
        self._needs_refs = any(stage.name == "delta" for stage in stages)
        self._refs: Dict[str, "OrderedDict[int, Dict[str, np.ndarray]]"] = {}
        self._latest: Dict[str, int] = {}

    # ------------------------------------------------------------ references

    def observe_global(self, session_id: str, state: Any, round_index: int) -> None:
        """Capture the broadcast global model as the delta reference.

        Called for *every* participant when ``apply_global`` arrives (before
        the has-a-local-model gate, so aggregator-only clients keep decoding
        deltas).  No-op unless the pipeline contains ``delta``.
        """
        if not self._needs_refs or not isinstance(state, dict):
            return
        refs = {
            name: np.asarray(array, order="C").astype(np.float64)
            for name, array in state.items()
            if isinstance(array, np.ndarray)
        }
        per_session = self._refs.setdefault(session_id, OrderedDict())
        per_session[int(round_index)] = refs
        self._latest[session_id] = max(
            self._latest.get(session_id, -1), int(round_index)
        )
        while len(per_session) > _REF_HISTORY:
            per_session.popitem(last=False)

    def _refs_for_round(
        self, session_id: str, ref_round: int
    ) -> Optional[Dict[str, np.ndarray]]:
        if ref_round < 0:
            return None  # zeros reference: no global observed yet
        refs = self._refs.get(session_id, {}).get(ref_round)
        if refs is None:
            raise CodecError(
                f"no delta reference for session {session_id!r} round {ref_round}; "
                f"observed rounds: {sorted(self._refs.get(session_id, {}))}"
            )
        return refs

    # ---------------------------------------------------------------- encode

    def encode_state(self, session_id: str, state: Dict[str, Any]) -> Dict[str, Any]:
        """Encode a flat ``{name: ndarray}`` state dict into the wire form."""
        ref_round = self._latest.get(session_id, -1) if self._needs_refs else -1
        op = _Op(self.arena, self._refs_for_round(session_id, ref_round), self.stats)
        entries: List[Dict[str, Any]] = []
        bytes_in = bytes_out = 0
        for name, array in state.items():
            if not isinstance(array, np.ndarray):
                raise CodecError(
                    f"update codec requires ndarray leaves, got "
                    f"{type(array).__name__} for {name!r}"
                )
            # Not ascontiguousarray: that would promote 0-d tensors to 1-d.
            array = np.asarray(array, order="C")
            bytes_in += array.nbytes
            entry: Dict[str, Any] = {
                "name": name,
                "shape": list(array.shape),
                "dtype": array.dtype.str,
                "data": array,
            }
            for stage in self.stages:
                stage.encode(entry, op, (session_id, name))
            bytes_out += sum(
                value.nbytes for value in entry.values() if isinstance(value, np.ndarray)
            )
            entries.append(entry)
        self.stats.updates_encoded += 1
        self.stats.tensors_encoded += len(entries)
        self.stats.bytes_in += bytes_in
        self.stats.bytes_out += bytes_out
        self.stats.bytes_saved += bytes_in - bytes_out
        encoded: Dict[str, Any] = {CODEC_WIRE_KEY: self.spec, "tensors": entries}
        if self._needs_refs:
            encoded["ref_round"] = ref_round
        return encoded

    # ---------------------------------------------------------------- decode

    def decode_state(self, session_id: str, encoded: Dict[str, Any]) -> Dict[str, np.ndarray]:
        """Decode a wire dict back into a read-only ``{name: ndarray}`` state."""
        wire_spec = encoded.get(CODEC_WIRE_KEY)
        if wire_spec != self.spec:
            raise CodecError(
                f"update codec mismatch: wire says {wire_spec!r}, "
                f"this endpoint runs {self.spec!r}"
            )
        ref_round = int(encoded.get("ref_round", -1))
        op = _Op(self.arena, self._refs_for_round(session_id, ref_round), self.stats)
        state: Dict[str, np.ndarray] = {}
        for wire_entry in encoded["tensors"]:
            entry = dict(wire_entry)  # stages pop sidecar keys; keep the wire intact
            for stage in reversed(self.stages):
                stage.decode(entry, op)
            data = np.asarray(entry["data"])
            dtype = np.dtype(entry["dtype"])
            shape = tuple(int(dim) for dim in entry["shape"])
            if data.dtype != dtype:
                data = data.astype(dtype)
            data = data.reshape(shape)
            if data.flags.writeable:
                data.flags.writeable = False
            state[str(entry["name"])] = data
        self.stats.updates_decoded += 1
        return state


def make_update_codec(spec: Optional[str]) -> Optional[UpdateCodec]:
    """Build an :class:`UpdateCodec` from a spec string (None for "none")."""
    parsed = parse_codec_spec(spec)
    if parsed is None:
        return None
    canonical, stages = parsed
    return UpdateCodec(canonical, stages)
