"""Entry layout and rpc-id counter tests.

The byte-layout table below was written down before the encoder and acts
as the independent oracle: _build_from_table assembles entries by plain
index arithmetic, never via the production struct format.
"""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicsim import protocol
from nicsim.errors import MalformedEntry, PayloadTooLarge
from nicsim.protocol import ConnectionRecord, RpcEntry

GOLDEN = Path(__file__).parent / "golden"

# field -> (offset, size); all integers little-endian
LAYOUT = {
    "valid_flag": (0, 1),
    "kind": (1, 1),
    "connection_id": (2, 2),
    "rpc_id": (4, 4),
    "function_id": (8, 2),
    "payload_len": (10, 1),
    "reserved": (11, 5),
    "payload": (16, 48),
}


def _build_from_table(kind, conn, rpc, fn, payload, valid=1):
    block = bytearray(64)
    for name, value in (
        ("valid_flag", valid),
        ("kind", kind),
        ("connection_id", conn),
        ("rpc_id", rpc),
        ("function_id", fn),
        ("payload_len", len(payload)),
    ):
        off, size = LAYOUT[name]
        block[off : off + size] = value.to_bytes(size, "little")
    off, size = LAYOUT["payload"]
    block[off : off + len(payload)] = payload
    return bytes(block)


def _random_entry(rng):
    payload = rng.randbytes(rng.randint(0, protocol.MAX_PAYLOAD))
    return RpcEntry(
        kind=rng.choice([protocol.KIND_REQUEST, protocol.KIND_RESPONSE, protocol.KIND_ERROR]),
        connection_id=rng.randint(0, 0xFFFF),
        rpc_id=rng.randint(0, 0xFFFFFFFF),
        function_id=rng.randint(0, 0xFFFF),
        payload=payload,
    )


def test_entry_size_constant():
    assert protocol.ENTRY_SIZE == 64
    assert protocol.HEADER_SIZE == 16
    assert protocol.MAX_PAYLOAD == 48


def test_ping_request_block():
    entry = RpcEntry(kind=protocol.KIND_REQUEST, connection_id=1, rpc_id=7,
                     function_id=0, payload=b"ping")
    block = protocol.encode_entry(entry)
    assert len(block) == 64
    assert block[0] == 1  # valid flag leads the line
    assert block == _build_from_table(0, 1, 7, 0, b"ping")


def test_empty_payload_block():
    entry = RpcEntry(kind=protocol.KIND_RESPONSE, connection_id=9, rpc_id=1,
                     function_id=2, payload=b"")
    block = protocol.encode_entry(entry)
    assert block[10] == 0
    assert protocol.decode_entry(block).payload == b""


def test_golden_vectors():
    vectors = json.loads((GOLDEN / "entry_vectors.json").read_text())
    for vec in vectors:
        entry = RpcEntry(
            kind=vec["kind"],
            connection_id=vec["connection_id"],
            rpc_id=vec["rpc_id"],
            function_id=vec["function_id"],
            payload=bytes.fromhex(vec["payload_hex"]),
        )
        assert protocol.encode_entry(entry).hex() == vec["hex"], vec["name"]
        decoded = protocol.decode_entry(bytes.fromhex(vec["hex"]))
        assert decoded == entry, vec["name"]


def test_pack_and_unpack_match_the_golden_vectors():
    for vec in json.loads((GOLDEN / "entry_vectors.json").read_text()):
        fields = (vec["kind"], vec["connection_id"], vec["rpc_id"], vec["function_id"],
                  bytes.fromhex(vec["payload_hex"]))
        assert protocol.pack_entry(*fields).hex() == vec["hex"], vec["name"]
        assert protocol.unpack_entry(bytes.fromhex(vec["hex"])) == fields, vec["name"]


def test_roundtrip_random_fields_against_layout_table():
    rng = random.Random(0xD46)
    for _ in range(10_000):
        entry = _random_entry(rng)
        block = protocol.encode_entry(entry)
        expected = _build_from_table(
            entry.kind, entry.connection_id, entry.rpc_id,
            entry.function_id, entry.payload,
        )
        assert block == expected
        assert protocol.decode_entry(block) == entry


def test_all_zero_block_is_free_slot():
    decoded = protocol.decode_entry(bytes(64))
    assert decoded.valid_flag == 0
    assert decoded.payload == b""


def test_payload_too_large():
    entry = RpcEntry(kind=0, connection_id=0, rpc_id=0, function_id=0, payload=b"x" * 49)
    with pytest.raises(PayloadTooLarge):
        protocol.encode_entry(entry)


def test_decode_rejects_bad_length_byte():
    block = bytearray(_build_from_table(0, 1, 1, 1, b"abc"))
    block[10] = 49
    with pytest.raises(MalformedEntry):
        protocol.decode_entry(bytes(block))


def test_decode_rejects_bad_kind_and_size():
    block = bytearray(_build_from_table(0, 1, 1, 1, b""))
    block[1] = 7
    with pytest.raises(MalformedEntry):
        protocol.decode_entry(bytes(block))
    with pytest.raises(MalformedEntry):
        protocol.decode_entry(b"\x00" * 63)


@settings(max_examples=500, deadline=None, database=None)
@given(
    kind=st.sampled_from([protocol.KIND_REQUEST, protocol.KIND_RESPONSE, protocol.KIND_ERROR]),
    conn=st.integers(0, 0xFFFF),
    rpc=st.integers(0, 1 << 40),
    fn=st.integers(0, 0xFFFF),
    payload=st.binary(max_size=protocol.MAX_PAYLOAD),
)
def test_decode_inverts_encode(kind, conn, rpc, fn, payload):
    entry = RpcEntry(kind=kind, connection_id=conn, rpc_id=rpc, function_id=fn, payload=payload)
    decoded = protocol.decode_entry(protocol.encode_entry(entry))
    assert decoded == RpcEntry(kind=kind, connection_id=conn, rpc_id=rpc % (1 << 32),
                               function_id=fn, payload=payload)


@settings(max_examples=500, deadline=None, database=None)
@given(block=st.one_of(st.binary(min_size=64, max_size=64), st.binary(max_size=80)))
def test_any_block_decodes_or_is_malformed(block):
    try:
        entry = protocol.decode_entry(block)
    except MalformedEntry:
        return
    assert len(block) == 64
    assert protocol.encode_entry(entry)[:16] == block[:11] + bytes(5)
    assert entry.payload == block[16 : 16 + block[10]]


def _unpack_from_table(block):
    """unpack_entry's result or MalformedEntry message for block, read by
    plain index arithmetic from LAYOUT."""
    if len(block) != 64:
        return f"expected 64 bytes, got {len(block)}"

    def field(name):
        off, size = LAYOUT[name]
        return int.from_bytes(bytes(block[off:off + size]), "little")

    plen, kind = field("payload_len"), field("kind")
    if plen > protocol.MAX_PAYLOAD:
        return f"payload_len {plen} exceeds {protocol.MAX_PAYLOAD}"
    if kind not in (protocol.KIND_REQUEST, protocol.KIND_RESPONSE, protocol.KIND_ERROR):
        return f"unrecognized kind byte {kind}"
    off = LAYOUT["payload"][0]
    return (kind, field("connection_id"), field("rpc_id"), field("function_id"),
            bytes(block[off:off + plen]))


@settings(max_examples=500, deadline=None, database=None)
@given(block=st.one_of(st.binary(min_size=64, max_size=64), st.binary(max_size=80)),
       kind_byte=st.integers(0, 3), plen=st.integers(0, 50),
       buffer=st.sampled_from([bytes, bytearray, memoryview]))
def test_unpack_entry_reads_any_buffer_as_the_layout_table_does(block, kind_byte, plen,
                                                                  buffer):
    if len(block) == 64:  # mostly legal kind and length bytes, some illegal
        block = block[:1] + bytes((kind_byte,)) + block[2:10] + bytes((plen,)) + block[11:]
    expected = _unpack_from_table(block)
    try:
        got = protocol.unpack_entry(buffer(block))
    except MalformedEntry as exc:
        assert str(exc) == expected
        return
    assert got == expected
    assert [type(v) for v in got] == [int, int, int, int, bytes]


def test_rpc_id_wraps():
    rec = ConnectionRecord(connection_id=1)
    rec.next_rpc_id = (1 << 32) - 1
    assert rec.take_rpc_id() == (1 << 32) - 1
    assert rec.take_rpc_id() == 0


def test_rpc_id_of_reads_the_rpc_id_field():
    block = protocol.pack_entry(protocol.KIND_RESPONSE, 7, 0xDEADBEEF, 3, b"x")
    assert protocol.rpc_id_of(block) == (0xDEADBEEF,)
