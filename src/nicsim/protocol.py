"""RPC entry wire format and the client's rpc-id counter.

Every transfer unit is one 64-byte cache-line-sized entry. Byte layout
(little-endian, normative):

    offset  size  field
    ------  ----  -----------------------------------------------
    0       1     valid_flag   0 = free slot, 1 = occupied/dirty
    1       1     kind         0 = request, 1 = response, 2 = error response
    2       2     connection_id  (u16)
    4       4     rpc_id         (u32, per-connection monotonic)
    8       2     function_id    (u16)
    10      1     payload_len    (u8, 0..48)
    11      5     reserved       (zero)
    16      48    payload        (first payload_len bytes meaningful,
                                  rest zero)

The 16-byte header + 48-byte payload split keeps the total at exactly one
cache line; the valid flag sits in byte 0 so a polling reader inspects a
single leading byte.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .errors import MalformedEntry, PayloadTooLarge

ENTRY_SIZE = 64
HEADER_SIZE = 16
MAX_PAYLOAD = ENTRY_SIZE - HEADER_SIZE  # 48

KIND_REQUEST = 0
KIND_RESPONSE = 1
KIND_ERROR = 2  # error response (unknown function id, oversized reply, ...)
_KINDS = (KIND_REQUEST, KIND_RESPONSE, KIND_ERROR)

_HEADER_FMT = "<BBHIHB5s"
_ENTRY_FMT = _HEADER_FMT + "48s"
assert struct.calcsize(_ENTRY_FMT) == ENTRY_SIZE
_ENTRY = struct.Struct(_ENTRY_FMT)
_pack = _ENTRY.pack
_unpack_header = struct.Struct("<xBHIHB").unpack_from  # bytes 1..11, as in the table above
_RESERVED = bytes(5)
rpc_id_of = struct.Struct("<4xI").unpack_from  # (rpc_id,): bytes 4..8, as in the table above

RPC_ID_MODULUS = 1 << 32


@dataclass
class RpcEntry:
    """Decoded form of one 64-byte entry, for callers outside the datapath;
    the simulated host carries entries as packed blocks (pack_entry)."""

    kind: int
    connection_id: int
    rpc_id: int
    function_id: int
    payload: bytes
    valid_flag: int = 1


def pack_entry(kind: int, conn: int, rpc: int, fn: int, payload: bytes, valid: int = 1) -> bytes:
    """Pack one entry's fields into its 64-byte wire form.

    Raises PayloadTooLarge if the payload exceeds 48 bytes.
    """
    plen = len(payload)
    if plen > MAX_PAYLOAD:
        raise PayloadTooLarge(f"payload is {plen} bytes, limit {MAX_PAYLOAD}")
    return _pack(valid, kind, conn, rpc % RPC_ID_MODULUS, fn, plen, _RESERVED, payload)


def unpack_entry(block: bytes) -> tuple[int, int, int, int, bytes]:
    """Unpack a 64-byte block into (kind, conn, rpc, fn, payload).

    Inverse of pack_entry, apart from the valid flag, which is block[0].
    Raises MalformedEntry on a wrong block length or an illegal length
    byte or kind byte.
    """
    if len(block) != ENTRY_SIZE:
        raise MalformedEntry(f"expected {ENTRY_SIZE} bytes, got {len(block)}")
    kind, conn, rpc, fn, plen = _unpack_header(block)
    if plen > MAX_PAYLOAD:
        raise MalformedEntry(f"payload_len {plen} exceeds {MAX_PAYLOAD}")
    if kind not in _KINDS:
        raise MalformedEntry(f"unrecognized kind byte {kind}")
    payload = block[HEADER_SIZE:HEADER_SIZE + plen]
    if payload.__class__ is not bytes:  # a bytearray's or memoryview's slice
        payload = bytes(payload)
    return kind, conn, rpc, fn, payload


def encode_entry(entry: RpcEntry) -> bytes:
    """pack_entry over an RpcEntry."""
    return pack_entry(entry.kind, entry.connection_id, entry.rpc_id, entry.function_id,
                      entry.payload, entry.valid_flag)


def decode_entry(block: bytes) -> RpcEntry:
    """unpack_entry into an RpcEntry. Inverse of encode_entry.

    valid_flag is returned verbatim (an all-zero block decodes to a free
    slot).
    """
    kind, conn, rpc, fn, payload = unpack_entry(block)
    return RpcEntry(kind, conn, rpc, fn, payload, valid_flag=block[0])


@dataclass
class ConnectionRecord:
    """A client connection's rpc-id counter."""

    connection_id: int
    next_rpc_id: int = 0

    def take_rpc_id(self) -> int:
        rid = self.next_rpc_id
        self.next_rpc_id = (self.next_rpc_id + 1) % RPC_ID_MODULUS
        return rid
