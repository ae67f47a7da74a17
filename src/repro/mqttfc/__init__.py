"""MQTT Fleet Control (MQTTFC) — the RFC layer SDFLMQ is built on.

The paper describes MQTTFC as "a lightweight RFC infrastructure [that] simply
binds clients' remotely executable functions to MQTT topics" (§III.B.1), with
a batching mechanism that serializes large payloads, splits them into encoded
chunks with batch ids, and reassembles them at the receiver, plus zlib
compression for large payloads (§IV).

This package provides:

* :mod:`repro.mqttfc.serialization` — a pickle-free binary codec for nested
  Python structures containing numpy arrays (model state dicts travel as raw
  contiguous buffers, never as pickled objects);
* :mod:`repro.mqttfc.codecs` — pluggable update-compression codecs
  (fp16/int8 quantization, top-k sparsification, exact delta encoding)
  applied to model state dicts before the frame codec; their spec grammar
  lives in the numpy-free :mod:`repro.mqttfc.codec_spec`;
* :mod:`repro.mqttfc.compression` — optional zlib compression (byte-plane
  transpose + entropy-only deflate for tensor frames) behind a
  self-describing flag byte;
* :mod:`repro.mqttfc.batching` — chunking of large payloads into fixed-size
  batches and reassembly with integrity checking;
* :mod:`repro.mqttfc.rfc` — the :class:`FleetControlEndpoint` that registers
  remotely callable functions under ``mqttfc/<client>/<function>`` topics and
  issues calls with correlation ids and optional responses.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.mqttfc.serialization": (
            "PayloadFrame", "decode_payload", "encode_payload", "encode_payload_frame",
            "payload_size",
        ),
        "repro.mqttfc.codec_spec": ("CodecError", "available_codecs"),
        "repro.mqttfc.codecs": (
            "CodecStats", "UpdateCodec", "is_encoded_state", "make_update_codec",
            "parse_codec_spec",
        ),
        "repro.mqttfc.compression": ("decompress_payload", "CompressionConfig"),
        "repro.mqttfc.batching": (
            "BatchEncoder", "BatchAssembler", "BatchChunk", "BatchReassemblyError",
        ),
        "repro.mqttfc.rfc": (
            "FleetControlEndpoint", "PendingCall", "RemoteCallError", "RemoteFunctionNotFound",
            "call_topic", "response_topic",
        ),
    },
)
