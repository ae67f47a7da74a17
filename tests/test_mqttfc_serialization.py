"""Tests for the MQTTFC payload codec (pickle-free serialization)."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.mqttfc.serialization import (
    SerializationError,
    decode_payload,
    encode_payload_frame,
)


def _assert_equal(original, decoded):
    """Structural equality where ndarrays compare element-wise and tuples decode as lists."""
    if isinstance(original, np.ndarray):
        np.testing.assert_array_equal(np.asarray(decoded), original)
        assert np.asarray(decoded).dtype == original.dtype
    elif isinstance(original, dict):
        assert set(original) == set(decoded)
        for key in original:
            _assert_equal(original[key], decoded[key])
    elif isinstance(original, (list, tuple)):
        assert len(original) == len(decoded)
        for a, b in zip(original, decoded):
            _assert_equal(a, b)
    elif isinstance(original, float):
        assert decoded == pytest.approx(original, nan_ok=True)
    else:
        assert decoded == original


class TestRoundTrip:
    def test_scalars_and_strings(self):
        payload = {"a": 1, "b": 2.5, "c": "text", "d": None, "e": True}
        _assert_equal(payload, decode_payload(encode_payload_frame(payload).tobytes()))

    def test_nested_containers(self):
        payload = {"outer": [{"inner": [1, 2, 3]}, "x"], "t": (1, 2)}
        decoded = decode_payload(encode_payload_frame(payload).tobytes())
        assert decoded["outer"][0]["inner"] == [1, 2, 3]
        assert decoded["t"] == [1, 2]  # tuples decode as lists (JSON semantics)

    def test_bytes_leaf(self):
        payload = {"blob": b"\x00\x01\xff"}
        assert decode_payload(encode_payload_frame(payload).tobytes())["blob"] == b"\x00\x01\xff"

    def test_ndarray_dtypes_preserved(self):
        for dtype in (np.float32, np.float64, np.int32, np.int64, np.uint8):
            array = np.arange(12, dtype=dtype).reshape(3, 4)
            decoded = decode_payload(encode_payload_frame({"w": array}).tobytes())["w"]
            assert decoded.dtype == dtype
            np.testing.assert_array_equal(decoded, array)

    def test_empty_array(self):
        decoded = decode_payload(encode_payload_frame(np.zeros((0, 3))).tobytes())
        assert decoded.shape == (0, 3)

    def test_numpy_scalars_become_python_scalars(self):
        decoded = decode_payload(encode_payload_frame({"a": np.int64(3), "b": np.float32(1.5), "c": np.bool_(True)}).tobytes())
        assert decoded == {"a": 3, "b": 1.5, "c": True}

    def test_state_dict_like_payload(self):
        state = {
            "0.weight": np.random.default_rng(0).normal(size=(64, 32)).astype(np.float32),
            "0.bias": np.zeros(32, dtype=np.float32),
        }
        decoded = decode_payload(encode_payload_frame({"state": state, "round": 3}).tobytes())
        _assert_equal(state, decoded["state"])
        assert decoded["round"] == 3

    def test_zero_copy_views(self):
        array = np.arange(10, dtype=np.float64)
        encoded = encode_payload_frame(array).tobytes()
        view = decode_payload(encoded, copy_arrays=False)
        assert not view.flags.writeable  # frombuffer on bytes is read-only
        copy = decode_payload(encoded, copy_arrays=True)
        copy[0] = 99  # owned memory is writable
        assert copy[0] == 99

    @settings(max_examples=30, deadline=None)
    @given(
        st.dictionaries(
            st.text(alphabet="abcdefgh", min_size=1, max_size=6),
            st.one_of(
                st.integers(min_value=-(2**40), max_value=2**40),
                st.floats(allow_nan=False, allow_infinity=False, width=64),
                st.text(max_size=12),
                st.none(),
                st.booleans(),
                hnp.arrays(dtype=np.float64, shape=hnp.array_shapes(max_dims=2, max_side=6)),
            ),
            max_size=6,
        )
    )
    def test_roundtrip_property(self, payload):
        _assert_equal(payload, decode_payload(encode_payload_frame(payload).tobytes()))


class TestErrors:
    def test_unsupported_type_rejected(self):
        with pytest.raises(SerializationError):
            encode_payload_frame({"bad": object()}).tobytes()

    def test_non_string_keys_rejected(self):
        with pytest.raises(SerializationError):
            encode_payload_frame({1: "x"}).tobytes()

    def test_reserved_keys_rejected(self):
        with pytest.raises(SerializationError):
            encode_payload_frame({"__nd__": 1}).tobytes()

    def test_bad_magic_rejected(self):
        with pytest.raises(SerializationError):
            decode_payload(b"NOPE" + b"\x00" * 20)

    def test_truncated_header_rejected(self):
        encoded = encode_payload_frame({"a": 1}).tobytes()
        with pytest.raises(SerializationError):
            decode_payload(encoded[:6])

    def test_truncated_buffer_rejected(self):
        encoded = encode_payload_frame({"w": np.zeros(100)}).tobytes()
        with pytest.raises(SerializationError):
            decode_payload(encoded[:-10])

    def test_trailing_garbage_rejected(self):
        encoded = encode_payload_frame({"a": 1}).tobytes()
        with pytest.raises(SerializationError):
            decode_payload(encoded + b"extra")

    def test_corrupt_json_header_rejected(self):
        encoded = bytearray(encode_payload_frame({"a": 1}).tobytes())
        encoded[10] = 0xFF
        with pytest.raises(SerializationError):
            decode_payload(bytes(encoded))

    @pytest.mark.parametrize(
        "header, tail",
        [
            pytest.param([1, 2], b"", id="header-is-a-list"),
            pytest.param({"v": 1, "buffer_lengths": []}, b"", id="structure-missing"),
            pytest.param({"structure": {}, "buffer_lengths": ["x"]}, b"", id="non-integer-length"),
            pytest.param({"structure": {}, "buffer_lengths": [-1]}, b"", id="negative-length"),
            pytest.param({"structure": {}, "buffer_lengths": 8}, b"\x00" * 8, id="lengths-not-a-list"),
            pytest.param(
                {"structure": {"__nd__": 1, "dtype": "<f8", "shape": [1]}, "buffer_lengths": [8]},
                b"\x00" * 8,
                id="leaf-index-past-the-table",
            ),
            pytest.param(
                {"structure": {"__nd__": 0, "dtype": "no-such", "shape": [1]}, "buffer_lengths": [8]},
                b"\x00" * 8,
                id="unknown-dtype",
            ),
            pytest.param(
                {"structure": {"__nd__": 0, "dtype": "<f8", "shape": [3]}, "buffer_lengths": [8]},
                b"\x00" * 8,
                id="shape-does-not-match-buffer",
            ),
            pytest.param({"structure": {"__bytes__": "a"}, "buffer_lengths": []}, b"", id="bad-base64"),
        ],
    )
    def test_malformed_header_raises_the_typed_error(self, header, tail):
        text = json.dumps(header).encode()
        frame = b"MQFC" + len(text).to_bytes(4, "little") + text + tail
        with pytest.raises(SerializationError):
            decode_payload(frame)


class TestMarkerFreeHeaders:
    """Headers without an ndarray / bytes leaf come back as parsed."""

    def test_control_message_equals_the_sent_structure(self):
        message = {"kind": "request", "args": [{"n": 1, "xs": [1.5, None, True]}], "kwargs": {}}
        assert decode_payload(encode_payload_frame(message).tobytes()) == message

    def test_escaped_marker_key_is_still_decoded(self):
        # ``json.dumps`` never escapes ``_``; a hostile or foreign encoder may.
        text = b'{"structure":{"\\u005f_bytes__":"aGk="},"buffer_lengths":[]}'
        frame = b"MQFC" + len(text).to_bytes(4, "little") + text
        assert decode_payload(frame) == b"hi"

    def test_each_decode_owns_its_tree(self):
        encoded = encode_payload_frame({"roster": ["a"]}).tobytes()
        first, second = decode_payload(encoded), decode_payload(encoded)
        first["roster"].append("b")
        assert second == {"roster": ["a"]}


class TestPayloadFrame:
    """The PR-5 zero-copy fast path: segmented frames, aliasing both ways."""

    def test_segments_alias_source_arrays(self):
        state = {
            "w": np.arange(64, dtype=np.float32).reshape(8, 8),
            "b": np.linspace(0.0, 1.0, 16),
        }
        frame = encode_payload_frame({"state": state})
        # prefix + one segment per leaf, no materialization yet
        assert len(frame.segments) == 3
        assert frame._joined is None
        for array, segment in zip(state.values(), frame.segments[1:]):
            assert isinstance(segment, memoryview)
            assert np.shares_memory(np.frombuffer(segment, dtype=np.uint8), array)

    def test_payload_size_without_materialization(self):
        payload = {"state": {"w": np.zeros((256, 256))}}
        assert encode_payload_frame(payload).nbytes == len(encode_payload_frame(payload).tobytes())

    def test_decode_accepts_frame(self):
        payload = {"w": np.arange(5.0)}
        _assert_equal(payload, decode_payload(encode_payload_frame(payload)))

    def test_noncontiguous_leaves_are_compacted_not_broken(self):
        base = np.arange(20, dtype=np.float64)
        strided = base[::2]
        frame = encode_payload_frame({"s": strided})
        decoded = decode_payload(frame.tobytes(), copy_arrays=False)
        np.testing.assert_array_equal(decoded["s"], strided)

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.text(
                alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
                min_size=1,
                max_size=8,
            ),
            hnp.arrays(
                dtype=st.sampled_from([np.float32, np.float64, np.int32, np.uint8]),
                shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_round_trip_leaves_are_views_into_the_frame(self, state):
        """Property: decoded ndarray leaves *alias* the frame buffer — no hidden copies."""
        raw = encode_payload_frame({"state": state}).tobytes()
        raw_bytes = np.frombuffer(raw, dtype=np.uint8)
        decoded = decode_payload(raw, copy_arrays=False)["state"]
        assert set(decoded) == set(state)
        for name, original in state.items():
            view = decoded[name]
            np.testing.assert_array_equal(view, original)
            assert view.dtype == original.dtype
            # The decoded leaf is a read-only np.frombuffer view of the raw
            # frame, not a copy (zero-size leaves carry no buffer to alias).
            assert not view.flags.writeable
            if view.nbytes:
                assert np.shares_memory(view, raw_bytes)
        # And the copying mode really does detach from the frame.
        copied = decode_payload(raw, copy_arrays=True)["state"]
        for name in state:
            if copied[name].nbytes:
                assert not np.shares_memory(copied[name], raw_bytes)
