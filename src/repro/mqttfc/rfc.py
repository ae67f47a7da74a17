"""Remote function calls bound to MQTT topics (MQTT Fleet Control).

Every :class:`FleetControlEndpoint` wraps one :class:`repro.mqtt.MQTTClient`
and exposes two primitives:

* ``register(name, func, topic=None)`` — bind a locally executable function to
  an MQTT topic (default ``mqttfc/<client_id>/call/<name>``).  Any remote
  endpoint that publishes a request payload to that topic causes the function
  to run here.  Several endpoints may register the same *shared* topic, which
  is exactly how SDFLMQ fans a single "send your stats" call out to a whole
  role group.
* ``call(target, name, ...)`` / ``call_topic(topic, ...)`` — publish a request
  to a remote function and (optionally) receive the return value on this
  endpoint's response topic, correlated by a unique id.

Requests and responses are encoded with the MQTTFC payload codec
(:mod:`repro.mqttfc.serialization`), optionally zlib-compressed
(:mod:`repro.mqttfc.compression`), then split
into chunks (:mod:`repro.mqttfc.batching`) so that arbitrarily large model
state dicts fit under the broker's packet size limit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.mqtt.client import MQTTClient
from repro.mqtt.messages import MQTTMessage, QoS
from repro.mqttfc.batching import BatchAssembler, BatchEncoder, DEFAULT_CHUNK_BYTES
from repro.mqttfc.codecs import CodecStats, UpdateCodec, make_update_codec
from repro.mqttfc.compression import CompressionConfig, compress_frame, decompress_payload
from repro.mqttfc.serialization import decode_payload, encode_payload_frame
from repro.utils.identifiers import validate_identifier

__all__ = [
    "FleetControlEndpoint",
    "PendingCall",
    "RemoteCallError",
    "RemoteFunctionNotFound",
    "call_topic",
    "response_topic",
]

#: Root of the MQTTFC topic namespace.
MQTTFC_ROOT = "mqttfc"

#: ``(wire payload, its decoded payload)`` of the last single-chunk publish
#: any endpoint in this process decoded.  Broker fan-out, retained copies and
#: bridge forwarding hand every subscriber the *same* immutable ``bytes``
#: object, so one publish is verified, inflated and decoded once, not once per
#: receiver, and every receiver dispatches the same (read-only) tree.
#: Process-wide on purpose: the receivers of one publish are different
#: endpoints on different brokers.  The entry keeps its key alive and is
#: matched with ``is``, so a recycled ``id()`` cannot alias, and it is replaced
#: by one tuple assignment, so a reader never sees a key paired with another
#: payload.
_last_received: "tuple[Optional[bytes], Any]" = (None, None)


def call_topic(client_id: str, function: str) -> str:
    """Default topic on which ``client_id`` listens for calls to ``function``."""
    return f"{MQTTFC_ROOT}/{client_id}/call/{function}"


def response_topic(client_id: str) -> str:
    """Topic on which ``client_id`` receives responses to its outbound calls."""
    return f"{MQTTFC_ROOT}/{client_id}/response"


class RemoteCallError(RuntimeError):
    """Raised when a remote function reported an error."""


class RemoteFunctionNotFound(RemoteCallError):
    """Raised (remotely) when a request names a function the endpoint lacks."""


@dataclass
class PendingCall:
    """Handle for an in-flight remote call.

    The call completes when the response arrives and is pumped through the
    local client's ``loop()``.  ``result()`` raises if the call is still
    pending or the remote side reported an error.
    """

    correlation_id: str
    function: str
    target_topic: str
    done: bool = False
    _result: Any = None
    _error: Optional[str] = None
    responder: Optional[str] = None

    def resolve(self, result: Any, responder: Optional[str]) -> None:
        """Mark the call successful (used by the endpoint)."""
        self._result = result
        self.responder = responder
        self.done = True

    def fail(self, error: str, responder: Optional[str] = None) -> None:
        """Mark the call failed (used by the endpoint)."""
        self._error = error
        self.responder = responder
        self.done = True

    @property
    def failed(self) -> bool:
        """Whether the call completed with an error."""
        return self.done and self._error is not None

    def result(self) -> Any:
        """Return the remote return value, raising on error or if still pending."""
        if not self.done:
            raise RemoteCallError(
                f"call {self.correlation_id} to {self.function!r} has not completed; "
                "pump the message loop before requesting the result"
            )
        if self._error is not None:
            raise RemoteCallError(f"remote function {self.function!r} failed: {self._error}")
        return self._result

    def result_or(self, default: Any = None) -> Any:
        """Return the result if available and successful, otherwise ``default``."""
        if self.done and self._error is None:
            return self._result
        return default


@dataclass
class EndpointStats:
    """Counters for one MQTTFC endpoint."""

    calls_sent: int = 0
    calls_served: int = 0
    responses_sent: int = 0
    responses_received: int = 0
    request_bytes_sent: int = 0
    response_bytes_sent: int = 0
    chunks_sent: int = 0
    chunks_received: int = 0
    errors_returned: int = 0
    #: Logical payloads by what ``compress_frame`` did with them: sent raw
    #: without trying (disabled / below ``min_bytes``), kept an entropy-only
    #: or a level-1 deflate, or deflated and threw the result away.
    frames_sent_raw: int = 0
    frames_sent_huffman: int = 0
    frames_sent_level1: int = 0
    frames_deflate_discarded: int = 0
    #: zlib-flagged frames this endpoint inflated itself.
    frames_inflated: int = 0
    #: Receives served with the payload another receiver of the same publish
    #: had already decoded (see ``_last_received``), whatever its flag.
    receives_shared: int = 0


class FleetControlEndpoint:
    """MQTTFC endpoint: function registry + remote call issuing, over one client.

    Parameters
    ----------
    client:
        The MQTT client to communicate through (must be connected before calls
        are issued or served).
    chunk_bytes:
        Maximum data bytes per published chunk.
    compression:
        Compression policy applied to every logical payload.
    qos:
        QoS used for all MQTTFC traffic (the reproduction defaults to QoS 1,
        matching SDFLMQ's need for at-least-once delivery of model parameters).
    update_codec:
        Optional update-compression codec (a spec string like ``"int8"`` or
        ``"delta+int8"``, or a prebuilt :class:`~repro.mqttfc.codecs.UpdateCodec`)
        applied to model update payloads by the FL client before the frame
        codec.  ``None``/``"none"`` ships full-precision states unchanged.

    A payload handed to a registered function is read-only: every receiver of
    one publish gets the same decoded tree (containers and read-only ndarray
    leaves alike), so a handler copies what it wants to change.
    """

    def __init__(
        self,
        client: MQTTClient,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        compression: Optional[CompressionConfig] = None,
        qos: QoS | int = QoS.AT_LEAST_ONCE,
        update_codec: "Optional[str | UpdateCodec]" = None,
    ) -> None:
        self.client = client
        self.client_id = client.client_id
        self.qos = QoS.coerce(qos)
        self.compression = compression or CompressionConfig()
        self.update_codec: Optional[UpdateCodec] = (
            make_update_codec(update_codec)
            if update_codec is None or isinstance(update_codec, str)
            else update_codec
        )
        self._encoder = BatchEncoder(chunk_bytes=chunk_bytes)
        self._assembler = BatchAssembler()
        self._functions: Dict[str, Callable[..., Any]] = {}
        self._topic_functions: Dict[str, str] = {}
        self._pending: Dict[str, PendingCall] = {}
        self._call_counter = itertools.count()
        self.stats = EndpointStats()
        # Optional sim-time tracer (repro.obs); ``None`` keeps the frame
        # paths free of any instrumentation cost beyond one attribute check.
        self.tracer: Optional[Any] = None

        self._response_topic = response_topic(self.client_id)
        client.message_callback_add(self._response_topic, self._on_raw_message)

    # ---------------------------------------------------------------- set-up

    def start(self) -> None:
        """Subscribe to the response topic and any topics registered before
        the client connected (call after the client connects)."""
        self.client.subscribe(self._response_topic, self.qos)
        for topic in self._topic_functions:
            self.client.subscribe(topic, self.qos)

    # -------------------------------------------------------------- registry

    def register(
        self, name: str, func: Callable[..., Any], topic: Optional[str] = None
    ) -> str:
        """Bind ``func`` to an MQTT topic and subscribe to it.

        Returns the topic the function listens on.  Registering the same name
        again replaces the binding (the old topic is unsubscribed if it is no
        longer used).  ``func`` must not mutate its arguments: they may be
        shared with the other receivers of the same publish.
        """
        validate_identifier(name, "function name")
        new_topic = topic or call_topic(self.client_id, name)
        old_topic = self._find_topic(name)
        if old_topic is not None and old_topic != new_topic:
            self.unregister(name)
        self._functions[name] = func
        self._topic_functions[new_topic] = name
        self.client.message_callback_add(new_topic, self._on_raw_message)
        if self.client.connected:
            self.client.subscribe(new_topic, self.qos)
        return new_topic

    def remote_function(self, name: str, topic: Optional[str] = None) -> Callable:
        """Decorator form of :meth:`register`."""

        def decorator(func: Callable[..., Any]) -> Callable[..., Any]:
            self.register(name, func, topic)
            return func

        return decorator

    def unregister(self, name: str) -> bool:
        """Remove a function binding; returns True if it existed."""
        if name not in self._functions:
            return False
        del self._functions[name]
        topic = self._find_topic(name)
        if topic is not None:
            del self._topic_functions[topic]
            self.client.message_callback_remove(topic)
            if self.client.connected:
                self.client.unsubscribe(topic)
        return True

    def registered_functions(self) -> List[str]:
        """Names of all locally registered functions (sorted)."""
        return sorted(self._functions)

    def _find_topic(self, name: str) -> Optional[str]:
        for topic, fname in self._topic_functions.items():
            if fname == name:
                return topic
        return None

    # ----------------------------------------------------------------- calls

    def call(
        self,
        target_client_id: str,
        function: str,
        *args: Any,
        expect_response: bool = True,
        **kwargs: Any,
    ) -> PendingCall:
        """Call ``function`` on ``target_client_id``'s endpoint."""
        return self.call_topic(
            call_topic(target_client_id, function),
            function,
            *args,
            expect_response=expect_response,
            **kwargs,
        )

    def call_topic(
        self,
        topic: str,
        function: str,
        *args: Any,
        expect_response: bool = True,
        **kwargs: Any,
    ) -> PendingCall:
        """Publish a call request on an explicit topic (shared/group topics)."""
        # Correlation ids only need to be unique per caller endpoint (responses
        # come back on this endpoint's own response topic), so a local counter
        # keeps them deterministic across repeated runs in one process.
        correlation_id = f"{self.client_id}.c{next(self._call_counter)}"
        pending = PendingCall(correlation_id=correlation_id, function=function, target_topic=topic)
        request = {
            "kind": "request",
            "function": function,
            "args": list(args),
            "kwargs": dict(kwargs),
            "correlation_id": correlation_id,
            "reply_to": self._response_topic if expect_response else None,
            "sender": self.client_id,
        }
        if expect_response:
            self._pending[correlation_id] = pending
        sent = self._send_logical(topic, request)
        self.stats.calls_sent += 1
        self.stats.request_bytes_sent += sent
        if not expect_response:
            pending.resolve(None, None)
        return pending

    def notify(self, target_client_id: str, function: str, *args: Any, **kwargs: Any) -> PendingCall:
        """Fire-and-forget call (no response expected)."""
        return self.call(target_client_id, function, *args, expect_response=False, **kwargs)

    def pending_calls(self) -> int:
        """Number of calls still awaiting a response."""
        return sum(1 for call in self._pending.values() if not call.done)

    def reset_stats(self) -> None:
        """Zero every counter this endpoint owns (RFC *and* codec counters).

        Mirrors the broker's cache-counter reset fix: counters that live
        outside the main stats object (here, the update codec's) used to be
        the ones that drift across endpoint reuse, so the codec's
        :class:`~repro.mqttfc.codecs.CodecStats` is replaced too.  The codec
        keeps its scratch buffers and delta references — only the accounting
        restarts.
        """
        self.stats = EndpointStats()
        if self.update_codec is not None:
            self.update_codec.stats = CodecStats()

    # -------------------------------------------------------------- transport

    def _send_logical(self, topic: str, payload_obj: Any) -> int:
        """Encode, compress, chunk and publish one logical payload; returns bytes sent.

        The whole path is segment-based: the codec frame aliases every
        ndarray leaf, the compression wrapper prepends its flag as a segment
        when it skips compressing, and the chunker gathers each wire chunk
        straight from the segments — a model upload's parameter bytes are
        copied exactly once, into the published chunks.
        """
        frame = compress_frame(encode_payload_frame(payload_obj), self.compression)
        stats = self.stats
        if frame.coding == "raw":
            stats.frames_sent_raw += 1
        elif frame.coding == "huffman":
            stats.frames_sent_huffman += 1
        elif frame.coding == "level1":
            stats.frames_sent_level1 += 1
        else:
            stats.frames_deflate_discarded += 1
        total = 0
        tracer = self.tracer
        for chunk_bytes in self._encoder.iter_payloads_frame(frame):
            self.client.publish(topic, chunk_bytes, qos=self.qos)
            self.stats.chunks_sent += 1
            total += len(chunk_bytes)
            if tracer is not None:
                tracer.instant(
                    "chunk-encode",
                    "codec",
                    args={"endpoint": self.client_id, "bytes": len(chunk_bytes)},
                )
        return total

    def _on_raw_message(self, _client: MQTTClient, message: MQTTMessage) -> None:
        """Chunk-level handler for both request and response topics."""
        global _last_received
        self.stats.chunks_received += 1
        if self.tracer is not None:
            self.tracer.instant(
                "chunk-decode",
                "codec",
                args={"endpoint": self.client_id, "bytes": len(message.payload)},
            )
        wire = message.payload
        shared_wire, payload = _last_received
        # An open batch takes the full path, so a chunk that conflicts with it
        # raises exactly as if nothing had been shared.
        if shared_wire is wire and not self._assembler.open_batches():
            self.stats.receives_shared += 1
            self._assembler.completed_batches += 1
        else:
            complete = self._assembler.add(message.sender_id or "?", memoryview(wire))
            if complete is None:
                return
            # Zero-copy receive: ndarray leaves in the decoded payload are
            # read-only views into the reassembled frame or its inflated body.
            body = decompress_payload(complete, copy=False)
            if type(body) is bytes:  # inflated; a raw-flag body is a view
                self.stats.frames_inflated += 1
            payload = decode_payload(body, copy_arrays=False)
            if not isinstance(payload, dict) or "kind" not in payload:
                raise RemoteCallError(f"malformed MQTTFC payload on topic {message.topic!r}")
            if payload["kind"] not in ("request", "response"):
                raise RemoteCallError(f"unknown MQTTFC payload kind {payload['kind']!r}")
            # Shareable only when the frame is the single-chunk view into an
            # immutable wire payload: a multi-chunk frame is this receiver's
            # own gathered buffer.
            if type(wire) is bytes and complete.obj is wire:
                _last_received = (wire, payload)
        if payload["kind"] == "request":
            self._serve_request(message.topic, payload)
        else:
            self._accept_response(payload)

    def _serve_request(self, topic: str, request: Dict[str, Any]) -> None:
        function_name = request.get("function", "")
        func = self._functions.get(function_name)
        # Shared-topic registrations may use a local alias; fall back to the
        # function bound to this topic.
        if func is None:
            bound_name = self._topic_functions.get(topic)
            if bound_name is not None:
                func = self._functions.get(bound_name)
        reply_to = request.get("reply_to")
        correlation_id = request.get("correlation_id", "?")
        sender = request.get("sender")

        if func is None:
            self.stats.errors_returned += 1
            if reply_to:
                self._send_response(reply_to, correlation_id, error=f"function {function_name!r} not found")
            return

        try:
            result = func(*request.get("args", []), **request.get("kwargs", {}))
        except Exception as exc:  # noqa: BLE001 - errors cross the wire as strings
            self.stats.errors_returned += 1
            if reply_to:
                self._send_response(reply_to, correlation_id, error=f"{type(exc).__name__}: {exc}")
            return
        self.stats.calls_served += 1
        if reply_to:
            self._send_response(reply_to, correlation_id, result=result)
        _ = sender  # sender is informational; kept in the payload for tracing

    def _send_response(
        self,
        reply_to: str,
        correlation_id: str,
        result: Any = None,
        error: Optional[str] = None,
    ) -> None:
        response = {
            "kind": "response",
            "correlation_id": correlation_id,
            "sender": self.client_id,
            "status": "error" if error is not None else "ok",
            "result": result,
            "error": error,
        }
        sent = self._send_logical(reply_to, response)
        self.stats.responses_sent += 1
        self.stats.response_bytes_sent += sent

    def _accept_response(self, response: Dict[str, Any]) -> None:
        self.stats.responses_received += 1
        correlation_id = response.get("correlation_id", "")
        pending = self._pending.pop(correlation_id, None)
        if pending is None:
            return  # response to a call we no longer track (timeout/duplicate)
        if response.get("status") == "ok":
            pending.resolve(response.get("result"), response.get("sender"))
        else:
            pending.fail(response.get("error") or "unknown remote error", response.get("sender"))
