"""Tests for MQTTFC compression and payload batching."""

from __future__ import annotations

import itertools
import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mqttfc.batching import BatchAssembler, BatchChunk, BatchEncoder, BatchReassemblyError
from repro.mqttfc.codecs import make_update_codec
from repro.mqttfc.compression import (
    CompressionConfig,
    CompressionError,
    compress_frame,
    decompress_payload,
)
from repro.mqttfc.serialization import (
    MAGIC,
    SerializationError,
    decode_payload,
    encode_payload_frame,
)

EAGER = CompressionConfig(enabled=True, min_bytes=1)


def wire_of(obj, config=None) -> bytes:
    """What the transport would chunk: flag byte + (possibly deflated) frame."""
    return compress_frame(encode_payload_frame(obj), config).tobytes()


def assert_same_tree(got, sent):
    """Bit-for-bit equality of two payload trees (NaN payloads included)."""
    if isinstance(sent, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.dtype == sent.dtype and got.shape == sent.shape
        assert got.tobytes() == np.ascontiguousarray(sent).tobytes()
    elif isinstance(sent, dict):
        assert isinstance(got, dict) and got.keys() == sent.keys()
        for key in sent:
            assert_same_tree(got[key], sent[key])
    elif isinstance(sent, (list, tuple)):
        assert len(got) == len(sent)
        for got_item, sent_item in zip(got, sent):
            assert_same_tree(got_item, sent_item)
    else:
        assert got == sent


class TestCompression:
    def test_roundtrip_compressible(self):
        obj = {"text": "abc" * 10_000}
        wrapped = wire_of(obj, CompressionConfig(enabled=True))
        assert wrapped[:1] == b"\x01"
        assert len(wrapped) < len(encode_payload_frame(obj).tobytes())
        assert decompress_payload(wrapped) == encode_payload_frame(obj).tobytes()

    def test_small_payload_not_compressed(self):
        wrapped = wire_of("tiny", CompressionConfig(enabled=True, min_bytes=1024))
        assert wrapped[0:1] == b"\x00"
        assert decompress_payload(wrapped) == encode_payload_frame("tiny").tobytes()

    def test_disabled_compression(self):
        obj = {"text": "abc" * 10_000}
        wrapped = wire_of(obj, CompressionConfig(enabled=False))
        assert wrapped[0:1] == b"\x00"
        assert len(wrapped) == len(encode_payload_frame(obj).tobytes()) + 1

    def test_incompressible_payload_falls_back_to_raw(self):
        for dtype in (np.uint8, np.uint16, np.float32, np.uint64):
            noise = np.frombuffer(np.random.default_rng(0).bytes(200_000), dtype=dtype)
            frame = compress_frame(encode_payload_frame({"noise": noise}), CompressionConfig())
            assert frame.coding == "discarded"
            wrapped = frame.tobytes()
            assert wrapped[:1] == b"\x00"
            assert len(wrapped) == len(encode_payload_frame({"noise": noise}).tobytes()) + 1
            assert decompress_payload(wrapped) == encode_payload_frame({"noise": noise}).tobytes()

    def test_empty_payload_roundtrip(self):
        assert decompress_payload(b"\x00") == b""
        assert decode_payload(decompress_payload(wire_of(None, EAGER))) is None

    def test_unknown_flag_rejected(self):
        with pytest.raises(CompressionError):
            decompress_payload(b"\x07abc")

    def test_corrupt_zlib_body_rejected(self):
        for flag in (b"\x01", b"\x02"):
            with pytest.raises(CompressionError):
                decompress_payload(flag + b"notzlib")

    @pytest.mark.parametrize("damage", [lambda wire: wire + b"junk", lambda wire: wire[:-4]],
                             ids=["trailing-bytes", "truncated-stream"])
    def test_zlib_stream_must_span_the_body(self, damage):
        for obj, flag in (({"text": "a" * 5000}, b"\x01"), ({"w": np.ones(2000, np.float32)}, b"\x02")):
            wire = wire_of(obj)
            assert wire[:1] == flag
            with pytest.raises(CompressionError):
                decompress_payload(damage(wire))

    def test_empty_buffer_rejected(self):
        with pytest.raises(CompressionError):
            decompress_payload(b"")

    def test_config_is_two_fields(self):
        assert set(CompressionConfig.__dataclass_fields__) == {"enabled", "min_bytes"}
        with pytest.raises(ValueError):
            CompressionConfig(min_bytes=-1)

    @given(st.binary(max_size=5000))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, data):
        obj = {"blob": data, "note": "x" * len(data)}
        wrapped = wire_of(obj, EAGER)
        assert decompress_payload(wrapped) == encode_payload_frame(obj).tobytes()
        assert decode_payload(decompress_payload(wrapped, copy=False)) == obj


DTYPES = ("<f2", "<f4", "<f8", "<i4", "<i8", "|u1", "|b1", ">f4", "<c16")


@st.composite
def leaves(draw):
    """An ndarray whose bytes are arbitrary: any NaN payload, ±inf, −0.0, denormals."""
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    # (65_540,): byte planes longer than one stored deflate block.
    shape = draw(
        st.sampled_from([(), (0,), (1,), (7,), (3, 5), (2, 0, 3), (64,), (33, 3), (65_540,)])
    )
    count = int(np.prod(shape, dtype=int))
    fill = draw(st.sampled_from(["noise", "smooth", "special"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if dtype.kind == "b":
        array = rng.integers(0, 2, count).astype(dtype)
    elif fill == "noise" or dtype.kind == "c":
        array = np.frombuffer(rng.bytes(count * dtype.itemsize), dtype=dtype)
    elif fill == "smooth":
        array = (rng.standard_normal(count) * 0.05).astype(dtype)
    else:
        specials = np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, 5e-324])
        with np.errstate(invalid="ignore", over="ignore"):
            array = specials[rng.integers(0, len(specials), count)].astype(dtype)
    array = array.reshape(shape)
    if draw(st.booleans()) and array.ndim:
        # A non-contiguous view of the same values: the encoder must compact it.
        doubled = np.repeat(array, 2, axis=-1)
        array = doubled[..., ::2]
        assert not array.flags.c_contiguous or array.size <= 1
    return array


payload_trees = st.recursive(
    st.one_of(leaves(), st.text(max_size=20), st.integers(-10, 10), st.none(), st.binary(max_size=40)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text("abcdefgh", min_size=1, max_size=6), children, max_size=4),
    ),
    max_leaves=8,
)


class TestBytePlanes:
    """shuffle → deflate → inflate → un-shuffle → decode is the identity."""

    @given(payload_trees)
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, tree):
        frame = encode_payload_frame(tree)
        coded = compress_frame(frame, EAGER)
        wire = coded.tobytes()
        assert coded.coding in ("huffman", "level1", "discarded")
        assert (wire[:1] == b"\x00") == (coded.coding == "discarded")
        body = decompress_payload(wire, copy=False)
        assert bytes(body) == frame.tobytes()
        if coded.coding != "discarded":  # one standard zlib stream, whoever wrote its blocks
            assert len(zlib.decompress(wire[1:])) == frame.nbytes
        # The reference is the uncompressed path (it turns tuples into lists
        # and 0-d arrays into shape ``(1,)``).
        assert_same_tree(decode_payload(body, copy_arrays=False), decode_payload(frame.tobytes()))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_every_dtype_takes_the_plane_path_and_decodes_to_views(self, dtype):
        dtype = np.dtype(dtype)
        sent = (np.arange(3000) % 251).astype(dtype)
        tree = {"w": sent, "odd": sent[:7], "empty": sent[:0], "scalar": sent[3:4].reshape(())}
        wire = wire_of(tree)
        assert wire[:1] == (b"\x01" if dtype.itemsize == 1 else b"\x02")
        body = decompress_payload(wire, copy=False)
        assert type(body) is bytes
        got = decode_payload(body, copy_arrays=False)
        assert_same_tree(got, decode_payload(encode_payload_frame(tree).tobytes()))
        assert_same_tree(got["w"], sent)
        assert not got["w"].flags.writeable and not got["w"].flags.owndata

    def test_float_bit_patterns_survive(self):
        bits = np.array([0x7FC00001, 0xFFC00000, 0x7F800000, 0xFF800000, 0x80000000, 0x00000001],
                        dtype=np.uint32)
        sent = {"f32": np.tile(bits.view(np.float32), 300),
                "f64": np.tile(np.array([np.nan, -0.0, np.inf, -np.inf, 5e-324]), 300)}
        got = decode_payload(decompress_payload(wire_of(sent)))
        assert_same_tree(got, sent)
        assert np.signbit(got["f64"][1]) and got["f32"].view(np.uint32)[0] == 0x7FC00001

    def test_frames_without_ndarray_leaves_stay_plain_zlib(self):
        topology = {"nodes": [{"id": f"client_{i:03d}", "parent": "client_000"} for i in range(200)]}
        frame = compress_frame(encode_payload_frame(topology))
        assert frame.coding == "level1" and frame.tobytes()[:1] == b"\x01"
        assert decode_payload(decompress_payload(frame.tobytes())) == topology

    def test_strategy_follows_what_the_frame_contains(self):
        rng = np.random.default_rng(5)
        update = (rng.standard_normal(8000) * 0.05).astype(np.float32)
        aggregate = update.astype(np.float64) / 3
        quantised = rng.integers(0, 255, 8000).astype(np.uint8)
        coding = lambda obj: compress_frame(encode_payload_frame(obj)).coding
        assert coding({"w": update}) == "huffman"
        assert coding({"w": update.astype(np.float16)}) == "huffman"
        assert coding({"w": aggregate}) == "huffman"  # 8-byte leaves follow the same rule
        assert coding({"w": quantised, "scale": np.float32(0.1)}) == "level1"
        assert coding({"w": update, "pad": np.zeros(40_000, np.uint8)}) == "level1"

    def test_float_updates_ship_fewer_bytes_than_level_6(self):
        rng = np.random.default_rng(11)
        state = {"w": (rng.standard_normal((784, 22)) * 0.05).astype(np.float32),
                 "b": np.zeros(22, np.float32)}
        assert len(wire_of(state)) < len(zlib.compress(encode_payload_frame(state).tobytes(), 6))

    @pytest.mark.parametrize(
        "stages", [c for n in range(5) for c in itertools.combinations(("delta", "topk=0.5", "fp16", "int8"), n)],
        ids=lambda stages: "+".join(stages) or "none",
    )
    def test_every_update_codec_composition(self, stages):
        rng = np.random.default_rng(1212)
        state = {"dense.weight": rng.standard_normal((64, 40)).astype(np.float32),
                 "dense.bias": rng.standard_normal(41).astype(np.float64),
                 "head.scale": rng.standard_normal(5).astype(np.float16)}
        spec = "+".join(stages) or None
        encoder, decoder = make_update_codec(spec), make_update_codec(spec)
        sent = state
        if encoder is not None:
            encoder.observe_global("s", state, 0)
            decoder.observe_global("s", state, 0)
            sent = encoder.encode_state("s", {k: v + v.dtype.type(0.01) for k, v in state.items()})
        expected = decode_payload(encode_payload_frame({"state": sent}).tobytes())
        body = decompress_payload(wire_of({"state": sent}, EAGER), copy=False)
        received = decode_payload(body, copy_arrays=False)
        assert_same_tree(received, expected)
        if decoder is not None:
            reference = make_update_codec(spec)
            reference.observe_global("s", state, 0)
            want = reference.decode_state("s", expected["state"])
            got = decoder.decode_state("s", received["state"])
            assert_same_tree(got, want)


def plane(array: np.ndarray, k: int) -> bytes:
    """Byte plane ``k`` of ``array`` as it sits in a shuffled frame."""
    return array.view(np.uint8).reshape(-1, array.itemsize)[:, k].tobytes()


class TestStoredPlanes:
    """A Huffman frame's mantissa planes ride verbatim, as stored deflate
    blocks of the same zlib stream the sign/exponent planes are coded into."""

    RNG = np.random.default_rng(24)
    SMALL = (RNG.standard_normal(3000) * 0.05).astype("<f4")
    LONG = (RNG.standard_normal(70_000) * 0.05).astype("<f4")  # planes of 70 000 > 65 535 bytes

    @pytest.fixture
    def stored(self, monkeypatch):
        """Sizes of the pieces handed to a level-0 deflater during the test."""
        sizes, real = [], zlib.compressobj

        class Spy:
            def __init__(self, level, *rest):
                self.level, self.inner = level, real(level, *rest)

            def compress(self, data):
                if self.level == 0:
                    sizes.append(len(data))
                return self.inner.compress(data)

            def flush(self, *mode):
                return self.inner.flush(*mode)

        monkeypatch.setattr(zlib, "compressobj", Spy)
        return sizes

    @staticmethod
    def check(tree) -> bytes:
        frame = encode_payload_frame(tree)
        wire = compress_frame(frame, EAGER).tobytes()
        assert decompress_payload(wire) == frame.tobytes()
        assert len(zlib.decompress(wire[1:])) == frame.nbytes  # stock zlib inflates it
        return wire

    @pytest.mark.parametrize("dtype", ["<f2", "<f4", "<f8", ">f4", ">f8"])
    def test_every_plane_but_the_most_significant_rides_verbatim(self, dtype, stored):
        sent = self.SMALL.astype(dtype)
        wire = self.check({"w": sent})
        assert stored == [sent.size] * (sent.itemsize - 1)
        top = 0 if dtype[0] == ">" else sent.itemsize - 1
        assert all(plane(sent, k) in wire for k in range(sent.itemsize) if k != top)
        assert plane(sent, top) not in wire

    def test_integer_and_byte_leaves_are_all_coded(self, stored):
        tree = {"n": np.arange(3000, dtype="<i4"), "q": np.arange(3000).astype(np.uint8)}
        assert compress_frame(encode_payload_frame(tree), EAGER).coding == "huffman"
        assert stored == []

    def test_no_stored_piece_under_the_half_wide_threshold(self, stored):
        tree = {"w": self.SMALL, "pad": np.zeros(4 * self.SMALL.nbytes, np.uint8)}
        frame = compress_frame(encode_payload_frame(tree), EAGER)
        assert frame.coding == "level1"  # LZ77 is on: a spliced piece would break its distances
        assert stored == []
        assert decompress_payload(frame.tobytes()) == encode_payload_frame(tree).tobytes()

    def test_a_plane_longer_than_one_stored_block(self):
        wire = self.check({"w": self.LONG, "b": self.SMALL})
        low = plane(self.LONG, 0)
        assert low[:16_384] in wire and low[-1024:] in wire and low not in wire  # zlib split it

    def test_a_frame_may_end_on_a_stored_plane(self):
        sent = self.SMALL.astype(">f4")
        wire = self.check({"w": sent})
        tail = wire[-(len(plane(sent, 3)) + 32):]
        assert plane(sent, 3) in tail  # nothing but the stream's closing bytes after it

    def test_empty_and_mixed_leaves(self):
        self.check({"e": self.SMALL[:0], "w": self.SMALL, "e2": self.SMALL[:0].astype("<f8"),
                    "q": self.RNG.integers(0, 255, 500).astype(np.uint8), "n": np.arange(900, dtype="<i4"),
                    "h": self.SMALL.astype("<f2"), "d": self.SMALL.astype("<f8")})

    #: (tree, coding, wire length, crc32 of the wire), pinned from the deflater
    #: pair as it stood before a level-1 frame stopped building a storer.
    PINNED = [
        ({"q": (np.arange(4000) * 7 % 251).astype(np.uint8), "scale": 0.5}, "level1", 424, 0x9D1728B6),
        ({"w": np.linspace(-1.0, 1.0, 3000, dtype="<f4"), "n": np.arange(500, dtype="<i4")},
         "huffman", 10924, 0x389D2F84),
    ]

    @pytest.mark.parametrize("tree, coding, length, crc", PINNED, ids=["level1", "huffman"])
    def test_only_a_huffman_frame_builds_a_storer(self, monkeypatch, tree, coding, length, crc):
        levels, real = [], zlib.compressobj
        monkeypatch.setattr(
            zlib, "compressobj", lambda level, *rest: levels.append(level) or real(level, *rest)
        )
        frame = compress_frame(encode_payload_frame(tree))
        wire = frame.tobytes()
        assert frame.coding == coding
        assert levels == ([1, 0] if coding == "huffman" else [1])
        assert (len(wire), zlib.crc32(wire)) == (length, crc)

    def test_the_checksum_covers_the_stored_planes(self):
        wire = self.check({"w": self.LONG})
        at = wire.index(plane(self.LONG, 1)[:64]) + 17
        flipped = bytearray(wire)
        flipped[at] ^= 0x04
        for damaged in (bytes(flipped), wire[:-1], wire[: len(wire) // 2], wire + b"\x00"):
            with pytest.raises(CompressionError):
                decompress_payload(damaged)


def planes_wire(header: dict, buffers: bytes, flag: bytes = b"\x02") -> bytes:
    """A flag-``\\x02`` wire whose inflated body is exactly ``header`` + ``buffers``."""
    document = json.dumps(header, separators=(",", ":")).encode()
    return flag + zlib.compress(MAGIC + len(document).to_bytes(4, "little") + document + buffers)


def nd(index, dtype, count):
    return {"__nd__": index, "dtype": dtype, "shape": [count], "nbytes": 0}


class TestHostileBytePlaneBodies:
    """A flag-``\\x02`` body is parsed before any receiver trusts it."""

    @pytest.mark.parametrize(
        "header, buffers",
        [
            pytest.param({"v": 1, "structure": nd(0, "<f4", 3), "buffer_lengths": [12]},
                         bytes(8), id="body-shorter-than-lengths"),
            pytest.param({"v": 1, "structure": nd(0, "<f4", 3), "buffer_lengths": [12]},
                         bytes(16), id="body-longer-than-lengths"),
            pytest.param({"v": 1, "structure": nd(0, "<f8", 1), "buffer_lengths": [12]},
                         bytes(12), id="itemsize-does-not-divide-leaf"),
            pytest.param({"v": 1, "structure": [nd(0, "<f4", 3), nd(0, "<f8", 3)], "buffer_lengths": [24]},
                         bytes(24), id="nodes-disagree-on-dtype"),
            pytest.param({"v": 1, "structure": nd(3, "<f4", 3), "buffer_lengths": [12]},
                         bytes(12), id="node-names-no-buffer"),
            pytest.param({"v": 1, "structure": nd(0, "float33", 3), "buffer_lengths": [12]},
                         bytes(12), id="unknown-dtype"),
            pytest.param({"v": 1, "structure": nd(0, None, 3), "buffer_lengths": [12]},
                         bytes(12), id="dtype-not-a-string"),
            pytest.param({"v": 1, "structure": {"__nd__": 0}, "buffer_lengths": [12]},
                         bytes(12), id="node-without-dtype"),
            pytest.param({"v": 1, "structure": nd(0, "<f4", 3), "buffer_lengths": [-12]},
                         bytes(12), id="negative-length"),
            pytest.param({"v": 1, "structure": nd(0, "<f4", 3), "buffer_lengths": "12"},
                         bytes(12), id="lengths-not-a-list"),
            pytest.param({"v": 1, "buffer_lengths": [12]}, bytes(12), id="no-structure"),
        ],
    )
    def test_header_that_does_not_describe_the_body_raises(self, header, buffers):
        with pytest.raises(CompressionError):
            decompress_payload(planes_wire(header, buffers), copy=False)

    def test_body_that_is_not_a_frame_raises(self):
        for body in (b"", b"MQF", b"XXXX" + bytes(20), MAGIC + (99).to_bytes(4, "little") + b"{}",
                     MAGIC + (2).to_bytes(4, "little") + b"\xff\xfe"):
            with pytest.raises(CompressionError):
                decompress_payload(b"\x02" + zlib.compress(body))

    def test_zero_length_leaf_with_a_huge_itemsize_is_harmless(self):
        header = {"v": 1, "structure": nd(0, "V2000000000", 0), "buffer_lengths": [0]}
        body = decompress_payload(planes_wire(header, b""))
        assert body.startswith(MAGIC)

    def test_well_formed_hand_built_body_unshuffles(self):
        sent = np.arange(6, dtype="<f4")
        planes = sent.view(np.uint8).reshape(-1, 4).T.tobytes()
        header = {"v": 1, "structure": nd(0, "<f4", 6), "buffer_lengths": [24]}
        got = decode_payload(decompress_payload(planes_wire(header, planes)))
        np.testing.assert_array_equal(got, sent)

    @given(st.binary(min_size=1, max_size=300), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_mutated_wire_raises_typed_errors_only(self, noise, seed):
        rng = np.random.default_rng(seed)
        wire = bytearray(wire_of({"w": np.linspace(0, 1, 500, dtype=np.float32), "k": "v" * 40}))
        assert wire[0] == 2
        inflated = bytearray(zlib.decompress(bytes(wire[1:])))
        at = int(rng.integers(0, len(inflated)))
        inflated[at : at + len(noise)] = noise
        try:
            decode_payload(decompress_payload(b"\x02" + zlib.compress(bytes(inflated)), copy=False))
        except (CompressionError, SerializationError):
            pass


class TestBatchEncoder:
    def test_single_chunk_for_small_payload(self):
        encoder = BatchEncoder(chunk_bytes=1024)
        chunks = encoder.split(b"hello")
        assert len(chunks) == 1
        assert chunks[0].count == 1
        assert chunks[0].data == b"hello"

    def test_multi_chunk_split_sizes(self):
        encoder = BatchEncoder(chunk_bytes=100)
        payload = bytes(range(256)) * 2  # 512 bytes
        chunks = encoder.split(payload)
        assert len(chunks) == 6
        assert all(len(c.data) == 100 for c in chunks[:-1])
        assert len(chunks[-1].data) == 12
        assert all(c.count == 6 for c in chunks)
        assert {c.index for c in chunks} == set(range(6))

    def test_empty_payload_still_one_chunk(self):
        chunks = BatchEncoder().split(b"")
        assert len(chunks) == 1
        assert chunks[0].total_length == 0

    def test_batch_ids_unique(self):
        encoder = BatchEncoder()
        ids = {encoder.next_batch_id() for _ in range(100)}
        assert len(ids) == 100

    def test_long_batch_id_rejected(self):
        with pytest.raises(ValueError):
            BatchEncoder().split(b"x", batch_id="x" * 17)

    def test_chunk_wire_roundtrip(self):
        chunk = BatchEncoder(chunk_bytes=8).split(b"0123456789", batch_id="b1")[1]
        parsed = BatchChunk.from_bytes(chunk.to_bytes())
        assert parsed == chunk


class TestBatchAssembler:
    def _chunks(self, payload=b"payload-bytes" * 50, chunk_bytes=64, batch_id=None):
        return BatchEncoder(chunk_bytes=chunk_bytes).split(payload, batch_id=batch_id), payload

    def test_in_order_reassembly(self):
        chunks, payload = self._chunks()
        assembler = BatchAssembler()
        results = [assembler.add("sender", c.to_bytes()) for c in chunks]
        assert results[-1] == payload
        assert all(r is None for r in results[:-1])
        assert assembler.completed_batches == 1
        assert assembler.open_batches() == 0

    def test_out_of_order_reassembly(self):
        chunks, payload = self._chunks()
        assembler = BatchAssembler()
        result = None
        for chunk in reversed(chunks):
            result = assembler.add_chunk("sender", chunk) or result
        assert result == payload

    def test_duplicate_chunks_tolerated(self):
        chunks, payload = self._chunks()
        assembler = BatchAssembler()
        assembler.add_chunk("sender", chunks[0])
        assembler.add_chunk("sender", chunks[0])  # duplicate
        for chunk in chunks[1:]:
            result = assembler.add_chunk("sender", chunk)
        assert result == payload
        assert assembler.duplicate_chunks == 1

    def test_single_chunk_completion_is_zero_copy(self):
        # A batch that fits in one chunk must come back as a view into the
        # received wire payload — no gather copy on the receive path.
        payload = bytes(np.arange(2048, dtype=np.uint8).tobytes())
        chunks = BatchEncoder(chunk_bytes=1 << 20).split(payload)
        assert len(chunks) == 1
        wire = chunks[0].to_bytes()
        out = BatchAssembler().add("s", memoryview(wire))
        assert isinstance(out, memoryview)
        assert np.shares_memory(
            np.frombuffer(out, dtype=np.uint8), np.frombuffer(wire, dtype=np.uint8)
        )
        assert out == payload

    def test_multi_chunk_completion_gathers_once_read_only(self):
        chunks, payload = self._chunks()
        assembler = BatchAssembler()
        out = None
        for chunk in chunks:
            out = assembler.add("s", memoryview(chunk.to_bytes())) or out
        assert isinstance(out, memoryview)
        assert out.readonly
        assert out == payload

    def test_interleaved_senders_kept_separate(self):
        chunks_a, payload_a = self._chunks(payload=b"A" * 300, batch_id="ba")
        chunks_b, payload_b = self._chunks(payload=b"B" * 300, batch_id="bb")
        assembler = BatchAssembler()
        result_a = result_b = None
        for ca, cb in zip(chunks_a, chunks_b):
            result_a = assembler.add_chunk("alice", ca) or result_a
            result_b = assembler.add_chunk("bob", cb) or result_b
        assert result_a == payload_a
        assert result_b == payload_b

    def test_corrupted_data_detected_by_crc(self):
        chunks, _ = self._chunks()
        bad = BatchChunk(
            batch_id=chunks[0].batch_id,
            index=chunks[0].index,
            count=chunks[0].count,
            total_length=chunks[0].total_length,
            crc32=chunks[0].crc32,
            data=b"X" * len(chunks[0].data),
        )
        assembler = BatchAssembler()
        assembler.add_chunk("sender", bad)
        with pytest.raises(BatchReassemblyError, match="CRC"):
            for chunk in chunks[1:]:
                assembler.add_chunk("sender", chunk)

    def test_inconsistent_metadata_rejected(self):
        chunks, _ = self._chunks()
        assembler = BatchAssembler()
        assembler.add_chunk("sender", chunks[0])
        tampered = BatchChunk(
            batch_id=chunks[1].batch_id,
            index=chunks[1].index,
            count=chunks[1].count + 1,
            total_length=chunks[1].total_length,
            crc32=chunks[1].crc32,
            data=chunks[1].data,
        )
        with pytest.raises(BatchReassemblyError, match="inconsistent"):
            assembler.add_chunk("sender", tampered)

    def test_invalid_index_rejected(self):
        with pytest.raises(BatchReassemblyError):
            BatchAssembler().add_chunk(
                "s", BatchChunk(batch_id="b", index=5, count=3, total_length=0, crc32=0, data=b"")
            )

    def test_not_a_chunk_rejected(self):
        with pytest.raises(BatchReassemblyError):
            BatchAssembler().add("s", b"random bytes that are not a chunk")

    def test_non_ascii_batch_id_rejected(self):
        wire = bytearray(BatchEncoder().split(b"payload")[0].to_bytes())
        wire[3] = 0xFF  # first byte of the batch id
        with pytest.raises(BatchReassemblyError):
            BatchAssembler().add("s", bytes(wire))

    def test_open_batch_limit(self):
        assembler = BatchAssembler(max_open_batches=2)
        encoder = BatchEncoder(chunk_bytes=4)
        for i in range(2):
            assembler.add_chunk("s", encoder.split(b"0123456789", batch_id=f"b{i}")[0])
        with pytest.raises(BatchReassemblyError, match="too many open batches"):
            assembler.add_chunk("s", encoder.split(b"0123456789", batch_id="b99")[0])

    @given(st.binary(min_size=0, max_size=3000), st.integers(min_value=1, max_value=500))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, payload, chunk_bytes):
        chunks = BatchEncoder(chunk_bytes=chunk_bytes).split(payload)
        assembler = BatchAssembler()
        result = None
        for chunk in chunks:
            out = assembler.add("s", chunk.to_bytes())
            if out is not None:
                result = out
        assert result == payload
