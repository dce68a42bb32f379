"""Frame protocol: framing, int64 result blocks, decoding, and error
round-tripping."""

import io
import json
import struct

import pytest

from repro.core.temporal import UPPER_INF, UPPER_NOW
from repro.service import protocol
from repro.service.ops import INT64_MAX, INT64_MIN
from repro.service.protocol import (
    HEADER,
    MAX_FRAME_BYTES,
    ProtocolError,
    ServiceError,
    decode_payload,
    encode_frame,
    error_response,
    raise_for_response,
    read_frame,
    write_frame,
)

from .test_service import remote, seeded_store


class _Stream(io.BytesIO):
    """A BytesIO that also answers flush() like a socket makefile."""


def roundtrip(message):
    stream = _Stream()
    write_frame(stream, message)
    stream.seek(0)
    return read_frame(stream)


def test_frame_roundtrip():
    message = {"id": 7, "op": "intersection", "lower": 3, "upper": 9}
    assert roundtrip(message) == message


def test_sentinel_bounds_survive_the_wire():
    message = {"id": 1, "records": [[5, UPPER_INF, 1], [2, UPPER_NOW, 2]]}
    out = roundtrip(message)
    assert out["records"][0][1] == UPPER_INF
    assert out["records"][1][1] == UPPER_NOW


def test_clean_eof_reads_none():
    assert read_frame(_Stream()) is None


def test_truncated_header_is_a_protocol_error():
    with pytest.raises(ProtocolError, match="mid-header"):
        read_frame(_Stream(b"\x00\x00"))


def test_truncated_payload_is_a_protocol_error():
    stream = _Stream(HEADER.pack(10) + b"short")
    with pytest.raises(ProtocolError, match="mid-frame"):
        read_frame(stream)


def test_oversized_header_is_rejected_before_allocation():
    stream = _Stream(HEADER.pack(MAX_FRAME_BYTES + 1))
    with pytest.raises(ProtocolError, match="frame limit"):
        read_frame(stream)


def test_oversized_outgoing_frame_is_rejected():
    with pytest.raises(ProtocolError, match="frame limit"):
        encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})


def test_non_json_payload_is_a_protocol_error():
    with pytest.raises(ProtocolError, match="undecodable"):
        decode_payload(b"\xff\xfe not json")


def test_non_object_payload_is_a_protocol_error():
    with pytest.raises(ProtocolError, match="JSON object"):
        decode_payload(b"[1, 2, 3]")


def test_header_is_four_byte_big_endian():
    frame = encode_frame({"id": 1})
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4


def test_success_response_returns_result():
    assert raise_for_response({"id": 1, "ok": True, "result": [4, 5]}) == [4, 5]


@pytest.mark.parametrize("name, exc_class", [
    ("KeyError", KeyError),
    ("ValueError", ValueError),
    ("TypeError", TypeError),
    ("NotImplementedError", NotImplementedError),
])
def test_contract_errors_roundtrip_by_type(name, exc_class):
    response = error_response(3, exc_class("boom"))
    assert response["ok"] is False
    assert response["error_type"] == name
    with pytest.raises(exc_class):
        raise_for_response(response)


def test_unknown_error_types_degrade_to_service_error():
    response = error_response(3, RuntimeError("weird"))
    with pytest.raises(ServiceError, match="RuntimeError"):
        raise_for_response(response)


# ----------------------------------------------------------------------
# int64 result blocks
# ----------------------------------------------------------------------
def block_payload(header: dict, values) -> bytes:
    """A hand-built block payload: compact JSON, ``\\n``, int64 values."""
    head = json.dumps(header, separators=(",", ":")).encode()
    return head + b"\n" + struct.pack(f"<{len(values)}q", *values)


@pytest.mark.parametrize("result, width", [
    ([3, -1, 0, UPPER_INF, UPPER_NOW, INT64_MIN, INT64_MAX], 1),
    ([[-5, 7], [UPPER_INF, INT64_MIN]], 2),
    ([[5, UPPER_INF, 1], [-9, UPPER_NOW, INT64_MAX], [0, 0, -1]], 3),
    ([], 1),
    ([], 3),
])
def test_block_roundtrips_byte_for_byte(result, width):
    message = {"id": 4, "ok": True, "result": result, "width": width}
    frame = encode_frame(message)
    payload = frame[HEADER.size:]
    decoded = decode_payload(payload)
    assert decoded == message
    assert encode_frame(decoded) == frame
    head, block = payload.split(b"\n", 1)
    assert json.loads(head) == {**message, "result": len(result)}
    assert len(block) == len(result) * width * 8


def test_block_values_are_little_endian_int64():
    frame = encode_frame({"id": 1, "ok": True, "result": [1, -2],
                          "width": 1})
    assert frame.endswith(struct.pack("<2q", 1, -2))


def test_tuple_rows_decode_as_lists():
    message = {"id": 1, "ok": True, "result": [(1, 2), (3, 4)], "width": 2}
    assert decode_payload(encode_frame(message)[HEADER.size:])[
        "result"] == [[1, 2], [3, 4]]


def test_json_frame_reencodes_byte_for_byte():
    frame = encode_frame({"id": 2, "ok": True, "result": [[1, 2], [3]]})
    assert encode_frame(decode_payload(frame[HEADER.size:])) == frame


def test_truncated_block_is_a_protocol_error():
    payload = block_payload({"id": 1, "ok": True, "result": 3, "width": 1},
                            [1, 2, 3])
    with pytest.raises(ProtocolError, match="does not hold 3 rows"):
        decode_payload(payload[:-8])
    stream = _Stream(HEADER.pack(len(payload)) + payload[:-5])
    with pytest.raises(ProtocolError, match="mid-frame"):
        read_frame(stream)


@pytest.mark.parametrize("extra", [b"", b"\x00" * 3, b"\x00" * 16])
def test_block_length_must_match_rows_times_width(extra):
    payload = block_payload({"id": 1, "ok": True, "result": 2, "width": 2},
                            [1, 2, 3])
    with pytest.raises(ProtocolError, match="does not hold 2 rows of width 2"):
        decode_payload(payload + extra)


@pytest.mark.parametrize("width", [0, -1, "1", 1.0, True, None])
def test_block_width_must_be_a_positive_integer(width):
    payload = block_payload({"id": 1, "ok": True, "result": 1,
                             "width": width}, [7])
    with pytest.raises(ProtocolError, match="width"):
        decode_payload(payload)
    with pytest.raises(ProtocolError, match="width"):
        encode_frame({"id": 1, "ok": True, "result": [7], "width": width})


@pytest.mark.parametrize("count", [-1, "1", 1.0, None])
def test_block_row_count_must_be_a_non_negative_integer(count):
    payload = block_payload({"id": 1, "ok": True, "result": count,
                             "width": 1}, [7])
    with pytest.raises(ProtocolError, match="row count"):
        decode_payload(payload)


def test_width_without_block_is_a_protocol_error():
    with pytest.raises(ProtocolError, match="no block"):
        decode_payload(b'{"id":1,"ok":true,"result":[7],"width":1}')


@pytest.mark.parametrize("rows, width", [
    ([1.5], 1), (["7"], 1), ([2**63], 1), ([-2**63 - 1], 1),
    ([[1, 2], [3]], 2), ([[1, 2, 3]], 2),
])
def test_unencodable_block_rows_are_a_protocol_error(rows, width):
    with pytest.raises(ProtocolError):
        encode_frame({"id": 1, "ok": True, "result": rows, "width": width})


def test_unencodable_json_is_a_protocol_error():
    with pytest.raises(ProtocolError, match="unencodable"):
        encode_frame({"id": 1, "ok": True, "result": {1, 2}})


class _Unpackable:
    """A result that claims a million rows and fails when iterated."""

    def __len__(self):
        return 1_000_000

    def __iter__(self):
        raise AssertionError("an oversized block must not be packed")


def test_oversized_block_is_refused_before_packing(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 4096)
    with pytest.raises(ProtocolError, match="4096-byte frame limit"):
        encode_frame({"id": 1, "ok": True, "result": _Unpackable(),
                      "width": 3})


def test_oversized_incoming_block_is_refused_before_allocation(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 4096)
    payload = block_payload({"id": 1, "ok": True, "result": 600,
                             "width": 1}, list(range(600)))
    stream = _Stream(HEADER.pack(len(payload)) + payload)
    with pytest.raises(ProtocolError, match="frame limit"):
        read_frame(stream)
    assert stream.tell() == HEADER.size, "no payload byte may be read"


def test_block_frames_survive_the_stream():
    message = {"id": 9, "ok": True, "result": [[UPPER_NOW, -3, 5]],
               "width": 3}
    assert roundtrip(message) == message


def test_intersection_many_of_equal_sized_windows_stays_lists():
    # Equally many ids per window must not read as fixed-width rows.
    with remote(seeded_store([(0, 10, 1), (20, 30, 2)])) as proxy:
        result = proxy.intersection_many([(0, 5), (20, 25)])
    assert result == [[1], [2]]
    assert all(type(ids) is list for ids in result)
