"""Tests for the MQTT Fleet Control remote-function-call layer."""

from __future__ import annotations

import json
import zlib

import numpy as np
import pytest

from repro.mqtt.bridge import BrokerBridge
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.mqtt.messages import MQTTMessage
from repro.mqttfc import rfc
from repro.mqttfc.batching import BatchChunk, BatchEncoder, BatchReassemblyError
from repro.mqttfc.compression import CompressionConfig, CompressionError, compress_frame
from repro.mqttfc.rfc import (
    FleetControlEndpoint,
    PendingCall,
    RemoteCallError,
    call_topic,
    response_topic,
)
from repro.mqttfc.serialization import PayloadFrame, SerializationError, encode_payload_frame
from repro.runtime.pump import MessagePump


@pytest.fixture
def rig(broker):
    """Two connected endpoints plus a pump that drives both."""
    pump = MessagePump()

    def make(client_id, **kwargs):
        client = MQTTClient(client_id)
        client.connect(broker)
        endpoint = FleetControlEndpoint(client, **kwargs)
        endpoint.start()
        pump.register(client)
        return endpoint

    return make, pump


class TestTopics:
    def test_call_topic_layout(self):
        assert call_topic("worker", "train") == "mqttfc/worker/call/train"

    def test_response_topic_layout(self):
        assert response_topic("worker") == "mqttfc/worker/response"


class TestRegistry:
    def test_register_and_list(self, rig):
        make, _ = rig
        endpoint = make("server")
        assert endpoint.register("add", lambda a, b: a + b) == call_topic("server", "add")
        assert endpoint.register("sub", lambda a, b: a - b, topic="jobs/sub") == "jobs/sub"
        assert endpoint.register("add", lambda a, b: b + a) == call_topic("server", "add")
        with pytest.raises(ValueError, match="already registered"):
            endpoint.register("add", lambda a, b: a + b, topic="jobs/add")

    def test_invalid_function_name_rejected(self, rig):
        make, _ = rig
        endpoint = make("server")
        with pytest.raises(ValueError):
            endpoint.register("has space", lambda: None)


class TestCalls:
    def test_simple_call_with_result(self, rig):
        make, pump = rig
        server = make("server")
        caller = make("caller")
        server.register("add", lambda a, b: a + b)
        call = caller.call_topic(call_topic("server", "add"), "add", 2, 3)
        assert not call.done
        pump.run_until_idle()
        assert call.done and not call.failed
        assert call.result() == 5
        assert call.responder == "server"

    def test_kwargs_supported(self, rig):
        make, pump = rig
        server = make("server")
        caller = make("caller")
        server.register("scale", lambda value, factor=1: value * factor)
        call = caller.call_topic(call_topic("server", "scale"), "scale", 5, factor=3)
        pump.run_until_idle()
        assert call.result() == 15

    def test_result_before_completion_raises(self, rig):
        make, _ = rig
        server = make("server")
        caller = make("caller")
        server.register("noop", lambda: None)
        call = caller.call_topic(call_topic("server", "noop"), "noop")
        with pytest.raises(RemoteCallError, match="not completed"):
            call.result()
        assert call.result_or("fallback") == "fallback"

    def test_notify_fire_and_forget(self, rig):
        make, pump = rig
        server = make("server")
        caller = make("caller")
        seen = []
        server.register("log", lambda msg: seen.append(msg))
        call = caller.call_topic(call_topic("server", "log"), "log", "hello", expect_response=False)
        assert call.done  # resolved immediately, no response expected
        pump.run_until_idle()
        assert seen == ["hello"]
        assert server.stats.responses_sent == 0

    def test_remote_exception_reported(self, rig):
        make, pump = rig
        server = make("server")
        caller = make("caller")

        def fails():
            raise ValueError("remote boom")

        server.register("fails", fails)
        call = caller.call_topic(call_topic("server", "fails"), "fails")
        pump.run_until_idle()
        assert call.failed
        with pytest.raises(RemoteCallError, match="remote boom"):
            call.result()

    def test_unknown_function_reported(self, rig):
        make, pump = rig
        server = make("server")
        caller = make("caller")
        # The server listens on a wildcard store topic (as the parameter server
        # does), so the request is delivered, but the named function does not
        # exist in its registry → a "not found" error response comes back.
        server.register("store", lambda *_a, **_k: None, topic="jobs/+/store")
        call = caller.call_topic("jobs/abc/store", "does_not_exist")
        pump.run_until_idle()
        assert call.failed
        with pytest.raises(RemoteCallError, match="not found"):
            call.result()

    def test_call_to_unsubscribed_topic_stays_pending(self, rig):
        make, pump = rig
        make("server")
        caller = make("caller")
        call = caller.call_topic(call_topic("server", "never_registered"), "never_registered")
        pump.run_until_idle()
        # No subscriber on the topic → the request vanishes, exactly as with a
        # real broker; the call simply never completes.
        assert not call.done

    def test_numpy_arguments_and_results(self, rig):
        make, pump = rig
        server = make("server")
        caller = make("caller")
        server.register("sum_arrays", lambda arrays: {"total": np.sum([np.asarray(a) for a in arrays], axis=0)})
        arrays = [np.arange(6, dtype=np.float64).reshape(2, 3) for _ in range(3)]
        call = caller.call_topic(call_topic("server", "sum_arrays"), "sum_arrays", arrays)
        pump.run_until_idle()
        np.testing.assert_array_equal(call.result()["total"], 3 * arrays[0])

    def test_large_payload_chunked_and_reassembled(self, rig):
        make, pump = rig
        server = make("server", chunk_bytes=1024)
        caller = make("caller", chunk_bytes=1024, compression=CompressionConfig(enabled=False))
        server.register("param_count", lambda state: int(sum(np.asarray(v).size for v in state.values())))
        state = {f"layer{i}": np.random.default_rng(i).normal(size=(50, 50)) for i in range(4)}
        call = caller.call_topic(call_topic("server", "param_count"), "param_count", state)
        pump.run_until_idle()
        assert call.result() == 4 * 2500
        assert caller.stats.chunks_sent > 1  # the request definitely did not fit one chunk

    def test_shared_topic_fanout(self, rig, broker):
        make, pump = rig
        workers = [make(f"worker{i}") for i in range(3)]
        caller = make("caller")
        hits = []
        for index, worker in enumerate(workers):
            worker.register(f"task_local_{index}", (lambda i: (lambda payload: hits.append((i, payload))))(index),
                            topic="jobs/broadcast")
        caller.call_topic("jobs/broadcast", "task", "work-item", expect_response=False)
        pump.run_until_idle()
        assert sorted(hits) == [(0, "work-item"), (1, "work-item"), (2, "work-item")]

    def test_two_way_calls_between_peers(self, rig):
        make, pump = rig
        alice = make("alice")
        bob = make("bob")
        alice.register("ping", lambda: "alice-pong")
        bob.register("ping", lambda: "bob-pong")
        call_ab = alice.call_topic(call_topic("bob", "ping"), "ping")
        call_ba = bob.call_topic(call_topic("alice", "ping"), "ping")
        pump.run_until_idle()
        assert call_ab.result() == "bob-pong"
        assert call_ba.result() == "alice-pong"

    def test_stats_counters(self, rig):
        make, pump = rig
        server = make("server")
        caller = make("caller")
        server.register("echo", lambda x: x)
        for i in range(3):
            caller.call_topic(call_topic("server", "echo"), "echo", i)
        pump.run_until_idle()
        assert caller.stats.calls_sent == 3
        assert caller.stats.responses_received == 3
        assert server.stats.calls_served == 3
        assert server.stats.responses_sent == 3

    def test_concurrent_pending_calls_correlated(self, rig):
        make, pump = rig
        server = make("server")
        caller = make("caller")
        server.register("square", lambda x: x * x)
        calls = [caller.call_topic(call_topic("server", "square"), "square", i) for i in range(10)]
        assert not any(call.done for call in calls)
        pump.run_until_idle()
        assert [c.result() for c in calls] == [i * i for i in range(10)]

    def test_compression_transparent_to_caller(self, rig):
        make, pump = rig
        server = make("server", compression=CompressionConfig(enabled=True, min_bytes=16))
        caller = make("caller", compression=CompressionConfig(enabled=True, min_bytes=16))
        server.register("length", lambda text: len(text))
        call = caller.call_topic(call_topic("server", "length"), "length", "z" * 50_000)
        pump.run_until_idle()
        assert call.result() == 50_000


class TestCodingCounters:
    """``EndpointStats`` says what compression did with every logical payload."""

    @staticmethod
    def _codings(stats):
        return (stats.frames_sent_raw, stats.frames_sent_huffman,
                stats.frames_sent_level1, stats.frames_deflate_discarded)

    def test_each_send_is_counted_once_by_its_coding(self, rig):
        make, pump = rig
        server = make("server", compression=CompressionConfig(enabled=False))
        caller = make("caller")
        server.register("take", lambda _payload: None)
        rng = np.random.default_rng(3)
        payloads = [
            "below min_bytes",
            {"w": (rng.standard_normal(5000) * 0.05).astype(np.float32)},
            {"w": rng.standard_normal(5000) / 3},
            {"nodes": [f"client_{i:03d}" for i in range(400)]},
            {"w": np.frombuffer(rng.bytes(1 << 20), dtype=np.float32)},
        ]
        for payload in payloads:
            caller.call_topic(call_topic("server", "take"), "take", payload)
        pump.run_until_idle()
        assert self._codings(caller.stats) == (1, 2, 1, 1)
        assert self._codings(server.stats) == (len(payloads), 0, 0, 0)  # compression off

    def test_a_frame_with_stored_planes_is_one_huffman_frame_end_to_end(self, rig):
        """Chunked, reassembled, inflated once, un-shuffled: the receiver gets
        the sender's bits, and the frame counts as Huffman-coded, as before."""
        make, pump = rig
        got = []
        server, caller = make("server"), make("caller")
        server.register("take", got.append)
        rng = np.random.default_rng(4)
        state = {"w": (rng.standard_normal(70_000) * 0.05).astype(np.float32),  # 70 000-byte planes
                 "b": (rng.standard_normal(64) * 0.05).astype(">f4")}  # ends on a stored plane
        caller.call_topic(call_topic("server", "take"), "take", state)
        pump.run_until_idle()
        assert self._codings(caller.stats) == (0, 1, 0, 0)
        assert caller.stats.request_bytes_sent < state["w"].nbytes  # and it still shrank
        assert got[0].keys() == state.keys()
        for name, sent in state.items():
            assert got[0][name].dtype == sent.dtype and got[0][name].tobytes() == sent.tobytes()


class TestSharedInflate:
    """One verify / inflate / decode per publish, shared by identity of the wire bytes."""

    ZLIB_ON = CompressionConfig(enabled=True, min_bytes=16)

    @pytest.fixture(autouse=True)
    def inflates(self, monkeypatch):
        """Empty memo for the test; returns the list of inflates it then sees."""
        monkeypatch.setattr(rfc, "_last_received", (None, None))
        calls, real = [], zlib.decompressobj
        monkeypatch.setattr(zlib, "decompressobj", lambda: calls.append(1) or real())
        return calls

    @pytest.fixture
    def decodes(self, monkeypatch):
        """The list of payloads the endpoints decode from here on."""
        calls, real = [], rfc.decode_payload
        monkeypatch.setattr(
            rfc, "decode_payload", lambda body, **kw: calls.append(real(body, **kw)) or calls[-1]
        )
        return calls

    @staticmethod
    def _state(value=0.0, size=4096):
        return {"w": np.full(size, value), "b": np.arange(8, dtype=np.float32)}

    @staticmethod
    def _wire(state, compression=ZLIB_ON, kind="request", encoder=None):
        """The wire chunks one ``notify`` of ``state`` publishes."""
        request = {"kind": kind, "function": "take", "args": [state], "kwargs": {},
                   "correlation_id": "caller.c0", "reply_to": None, "sender": "caller"}
        frame = compress_frame(encode_payload_frame(request), compression)
        return list((encoder or BatchEncoder()).iter_payloads_frame(frame))

    @staticmethod
    def _receivers(broker, count, func=None):
        """``count`` endpoints serving ``take`` plus the states each one got."""
        got, endpoints = [], []
        for index in range(count):
            client = MQTTClient(f"receiver{index}")
            client.connect(broker)
            endpoint = FleetControlEndpoint(client)
            endpoint.register("take", func or got.append, topic="jobs/take")
            endpoints.append(endpoint)
        return endpoints, got

    @staticmethod
    def _deliver(endpoint, payload):
        endpoint._on_raw_message(
            endpoint.client, MQTTMessage("jobs/take", payload, sender_id="caller")
        )

    def test_fanout_inflates_once_and_every_receiver_decodes(self, rig, inflates, decodes):
        make, pump = rig
        workers = [make(f"worker{i}") for i in range(5)]
        caller = make("caller", compression=self.ZLIB_ON)
        got = []
        for worker in workers:
            worker.register("take", got.append, topic="jobs/broadcast")
        sent = self._state(3.5)
        caller.call_topic("jobs/broadcast", "take", sent, expect_response=False)
        pump.run_until_idle()
        assert len(got) == 5 and len(inflates) == 1 and len(decodes) == 1
        assert all(state is got[0] for state in got)  # one tree, dispatched five times
        np.testing.assert_array_equal(got[0]["w"], sent["w"])
        np.testing.assert_array_equal(got[0]["b"], sent["b"])
        assert not got[0]["w"].flags.writeable and not got[0]["b"].flags.writeable
        assert sum(w.stats.frames_inflated for w in workers) == 1
        assert sum(w.stats.receives_shared for w in workers) == 4
        assert [w.stats.chunks_received for w in workers] == [1] * 5
        assert [w._assembler.completed_batches for w in workers] == [1] * 5

    def test_equal_content_in_distinct_objects_is_not_shared(self, broker, inflates, decodes):
        (first, second), got = self._receivers(broker, 2)
        (wire,) = self._wire(self._state(1.0))
        twin = bytes(bytearray(wire))
        assert twin == wire and twin is not wire
        self._deliver(first, wire)
        self._deliver(second, twin)
        assert len(inflates) == len(decodes) == 2 and second.stats.receives_shared == 0
        assert got[0] is not got[1]
        np.testing.assert_array_equal(got[0]["w"], got[1]["w"])

    def test_a_freed_payload_never_lends_its_body_to_the_next(self, broker):
        (endpoint,), got = self._receivers(broker, 1)
        seen_ids = set()
        for value in range(200):
            (wire,) = self._wire(self._state(float(value), size=512))
            seen_ids.add(id(wire))
            self._deliver(endpoint, wire)
            assert rfc._last_received[0] is wire  # kept alive: its id cannot be reused yet
            del wire
            assert got.pop()["w"][0] == value
        assert len(seen_ids) < 200  # addresses were recycled, payloads were not
        assert endpoint.stats.receives_shared == 0

    @pytest.mark.parametrize(
        "compression",
        [
            pytest.param(CompressionConfig(enabled=False), id="raw-flag"),
            pytest.param(CompressionConfig(min_bytes=10**6), id="below-min-bytes"),
        ],
    )
    def test_single_chunk_raw_payloads_are_shared(self, broker, compression, inflates, decodes):
        endpoints, got = self._receivers(broker, 3)
        (wire,) = self._wire(self._state(2.0), compression)
        for endpoint in endpoints:
            self._deliver(endpoint, wire)
        assert rfc._last_received[0] is wire and len(decodes) == 1 and inflates == []
        assert [e.stats.receives_shared for e in endpoints] == [0, 1, 1]
        assert [e.stats.frames_inflated for e in endpoints] == [0, 0, 0]
        assert got[0] is got[1] is got[2]
        np.testing.assert_array_equal(got[0]["w"], np.full(4096, 2.0))
        assert not got[0]["w"].flags.writeable and np.shares_memory(got[0]["w"], np.frombuffer(wire, np.uint8))

    @pytest.mark.parametrize(
        "compression, wrap",
        [
            pytest.param(ZLIB_ON, bytearray, id="bytearray-payload"),
            pytest.param(ZLIB_ON, memoryview, id="memoryview-payload"),
            pytest.param(CompressionConfig(enabled=False), bytearray, id="raw-bytearray-payload"),
        ],
    )
    def test_ineligible_payloads_bypass_the_memo(self, broker, compression, wrap, decodes):
        endpoints, got = self._receivers(broker, 2)
        (wire,) = self._wire(self._state(2.0), compression)
        payload = wrap(wire)
        for endpoint in endpoints:
            self._deliver(endpoint, payload)
        assert rfc._last_received == (None, None) and len(decodes) == 2
        assert [e.stats.receives_shared for e in endpoints] == [0, 0]
        for state in got:
            np.testing.assert_array_equal(state["w"], np.full(4096, 2.0))

    def test_multi_chunk_broadcast_inflates_per_receiver(self, rig, inflates, decodes):
        make, pump = rig
        workers = [make(f"worker{i}") for i in range(2)]
        caller = make("caller")
        got = []
        for worker in workers:
            worker.register("take", got.append, topic="jobs/broadcast")
        noise = np.random.default_rng(0).integers(0, 2**16, size=300_000, dtype=np.int64)
        caller.call_topic("jobs/broadcast", "take", {"w": noise}, expect_response=False)
        pump.run_until_idle()
        assert caller.stats.chunks_sent > 1  # > 256 KiB after deflate
        assert len(inflates) == len(decodes) == 2 and rfc._last_received == (None, None)
        assert [w.stats.frames_inflated for w in workers] == [1, 1]
        assert [w.stats.receives_shared for w in workers] == [0, 0]
        for state in got:
            np.testing.assert_array_equal(state["w"], noise)

    def test_corrupt_zlib_body_fails_every_receiver(self, broker):
        endpoints, got = self._receivers(broker, 3)
        frame = PayloadFrame([b"\x01", b"not a zlib stream"])
        (wire,) = BatchEncoder().iter_payloads_frame(frame)
        for endpoint in endpoints:
            with pytest.raises(CompressionError):
                self._deliver(endpoint, wire)
        assert rfc._last_received == (None, None) and got == []

    @staticmethod
    def _bad_crc(wire):
        chunk = BatchChunk.from_bytes(wire)
        return BatchChunk(chunk.batch_id, 0, 1, chunk.total_length, chunk.crc32 ^ 1, chunk.data).to_bytes()

    @staticmethod
    def _bad_frame_header(_wire):
        (wire,) = BatchEncoder().iter_payloads_frame(PayloadFrame([b"\x00", b"MQFC\x05\x00\x00\x00{nope"]))
        return wire

    @pytest.mark.parametrize(
        "corrupt, error",
        [
            pytest.param(lambda self, wire: self._bad_crc(wire), BatchReassemblyError, id="bad-crc"),
            pytest.param(lambda self, wire: b"XX" + wire[2:], BatchReassemblyError, id="bad-chunk-magic"),
            pytest.param(lambda self, wire: self._bad_frame_header(wire), SerializationError,
                         id="corrupt-frame-header"),
            pytest.param(lambda self, wire: self._wire(self._state(1.0), kind="gossip")[0],
                         RemoteCallError, id="unknown-kind"),
            pytest.param(lambda self, wire: next(BatchEncoder().iter_payloads_frame(
                compress_frame(encode_payload_frame([1, 2]), CompressionConfig(enabled=False)))),
                RemoteCallError, id="not-a-dict"),
        ],
    )
    def test_a_bad_publish_raises_in_every_receiver_and_is_never_memoized(self, broker, corrupt, error):
        endpoints, got = self._receivers(broker, 3)
        (good,) = self._wire(self._state(1.0), CompressionConfig(enabled=False))
        bad = corrupt(self, good)
        for endpoint in endpoints:
            with pytest.raises(error):
                self._deliver(endpoint, bad)
        assert rfc._last_received == (None, None) and got == []
        assert [e.stats.receives_shared for e in endpoints] == [0, 0, 0]

    def test_a_raising_handler_does_not_stop_the_other_receivers(self, rig, decodes):
        make, pump = rig
        workers = [make(f"worker{i}") for i in range(4)]
        caller = make("caller")
        got = []

        def boom(state):
            raise ValueError("receiver 0 is broken")

        workers[0].register("take", boom, topic="jobs/broadcast")
        for worker in workers[1:]:
            worker.register("take", got.append, topic="jobs/broadcast")
        caller.call_topic("jobs/broadcast", "take", self._state(4.0), expect_response=False)
        pump.run_until_idle()
        assert len(got) == 3 and got[0] is got[1] is got[2] and len(decodes) == 1
        assert [w.stats.errors_returned for w in workers] == [1, 0, 0, 0]
        assert [w.stats.calls_served for w in workers] == [0, 1, 1, 1]

    def test_an_open_batch_conflicting_with_a_memoized_chunk_still_raises(self, broker):
        (first, second), got = self._receivers(broker, 2)
        (small,) = self._wire(self._state(1.0, size=8), encoder=BatchEncoder())
        large = self._wire(self._state(1.0, size=100_000), CompressionConfig(enabled=False),
                           encoder=BatchEncoder(chunk_bytes=64 * 1024))
        assert len(large) > 1 and BatchChunk.from_bytes(large[0]).batch_id == BatchChunk.from_bytes(small).batch_id
        self._deliver(first, small)
        assert rfc._last_received[0] is small
        self._deliver(second, large[0])  # same sender and batch id, still open
        with pytest.raises(BatchReassemblyError, match="inconsistent metadata"):
            self._deliver(second, small)
        assert second.stats.receives_shared == 0 and len(got) == 1

    def test_a_qos1_duplicate_to_the_same_endpoint_is_served_again(self, broker, decodes):
        (endpoint,), got = self._receivers(broker, 1)
        (wire,) = self._wire(self._state(5.0), CompressionConfig(enabled=False))
        self._deliver(endpoint, wire)
        self._deliver(endpoint, wire)
        assert len(got) == 2 and got[0] is got[1] and len(decodes) == 1
        assert endpoint.stats.calls_served == 2 and endpoint.stats.receives_shared == 1
        assert endpoint.stats.chunks_received == 2

    def test_receivers_share_one_unshuffled_body(self, broker, inflates):
        endpoints, got = self._receivers(broker, 3)
        (wire,) = self._wire(self._state(1.5))
        assert BatchChunk.from_bytes(wire).data[:1] == b"\x02"
        for endpoint in endpoints:
            self._deliver(endpoint, wire)
        assert len(inflates) == 1
        for state in got:  # element order restored before it was shared
            np.testing.assert_array_equal(state["w"], np.full(4096, 1.5))
            np.testing.assert_array_equal(state["b"], np.arange(8, dtype=np.float32))
            assert state["w"].base is not None and not state["w"].flags.writeable
        assert got[0] is got[2] and rfc._last_received[1]["args"][0] is got[0]

    @pytest.mark.parametrize(
        "header, buffers",
        [
            pytest.param({"v": 1, "structure": {"__nd__": 0, "dtype": "<f8", "shape": [1]},
                          "buffer_lengths": [12]}, bytes(12), id="itemsize-does-not-divide-leaf"),
            pytest.param({"v": 1, "structure": {"__nd__": 0, "dtype": "<f4", "shape": [3]},
                          "buffer_lengths": [12]}, bytes(20), id="lengths-disagree-with-body"),
            pytest.param({"v": 1, "structure": {"__nd__": 0, "dtype": "nope", "shape": [3]},
                          "buffer_lengths": [12]}, bytes(12), id="unknown-dtype"),
        ],
    )
    def test_corrupt_byte_plane_body_fails_every_receiver(self, broker, header, buffers):
        endpoints, got = self._receivers(broker, 3)
        document = json.dumps(header).encode()
        body = b"MQFC" + len(document).to_bytes(4, "little") + document + buffers
        (wire,) = BatchEncoder().iter_payloads_frame(PayloadFrame([b"\x02", zlib.compress(body)]))
        for endpoint in endpoints:
            with pytest.raises(CompressionError):
                self._deliver(endpoint, wire)
        assert rfc._last_received == (None, None) and got == []
        assert [e.stats.frames_inflated for e in endpoints] == [0, 0, 0]

    def test_bridged_three_region_broadcast_inflates_once(self, inflates, decodes):
        brokers = [MQTTBroker(f"region-{i}") for i in range(3)]
        BrokerBridge(brokers[0], brokers[1])
        BrokerBridge(brokers[0], brokers[2])
        pump, got, workers = MessagePump(), [], []
        for index, broker in enumerate(brokers):
            for copy in range(2):
                client = MQTTClient(f"worker{index}{copy}")
                client.connect(broker)
                endpoint = FleetControlEndpoint(client)
                endpoint.start()
                endpoint.register("take", got.append, topic="jobs/broadcast")
                pump.register(client)
                workers.append(endpoint)
        client = MQTTClient("caller")
        client.connect(brokers[0])
        caller = FleetControlEndpoint(client, compression=self.ZLIB_ON)
        caller.call_topic("jobs/broadcast", "take", self._state(7.0), expect_response=False)
        pump.run_until_idle()
        assert len(got) == 6 and len(inflates) == len(decodes) == 1
        assert sum(w.stats.receives_shared for w in workers) == 5
