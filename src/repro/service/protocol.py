"""Wire protocol of the interval query service: length-prefixed frames
of compact JSON, with integer results as one packed int64 block.

One frame is a 4-byte big-endian payload length followed by that many
bytes of payload -- the simplest self-delimiting framing that both
:mod:`asyncio` streams (the server, the load driver) and blocking
sockets (the router's shard proxies) can speak without a parser state
machine.  A payload is a compact UTF-8 JSON object, optionally followed
by ``\\n`` and a block (see below).  Messages are:

* request: ``{"id": <int>, "op": <str>, ...params}`` -- ``id`` is a
  client-chosen correlation token echoed back verbatim, so a client may
  pipeline many requests over one connection;
* success: ``{"id": <int>, "ok": true, "result": <value>}``;
* failure: ``{"id": <int>, "ok": false, "error": <message>,
  "error_type": <exception class name>}``.

**Blocks.**  A message carrying ``"width": <w>`` holds as ``result`` a
list of integers (``w == 1``) or of ``w``-integer rows, and travels as
the JSON header -- the message with ``result`` replaced by its row
count -- then ``\\n``, then the rows as ``count * w`` little-endian
int64 values.  Compact JSON never contains a raw newline byte, so the
first ``\\n`` of a payload ends the header.  :func:`decode_payload`
keeps ``width`` in the decoded message, so re-encoding a decoded frame
reproduces it byte for byte.  The wire-op table
(:data:`repro.service.ops.OPS`) decides which results are blocks;
requests are always plain JSON.

The failure's ``error_type`` round-trips the store-contract exceptions
(:class:`KeyError` from a fuzzy delete, :class:`ValueError` from a
malformed interval, ...) so a remote store misbehaves exactly like a
local one; unknown types surface as :class:`ServiceError`.

Integers travel unmodified: JSON fields as decimal text, block values
as int64 -- the temporal sentinels :data:`~repro.core.temporal.
UPPER_INF` / ``UPPER_NOW`` (``2**60``-sized) fit either bit for bit,
and the wire-op table refuses any id or bound outside int64.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from itertools import chain
from typing import BinaryIO, Optional

#: Frame header: one unsigned 32-bit big-endian payload length.
HEADER = struct.Struct(">I")

#: Upper bound on one frame's payload -- a malformed or hostile header
#: must not allocate unbounded memory.  A request over it -- a batch of
#: about two million JSON records -- is refused before it is sent.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Bytes per block value: one int64.
BLOCK_ITEM = 8

#: ``array("q")`` packs in native order; blocks are little-endian.
_SWAP = sys.byteorder != "little"

#: Exception types allowed to round-trip the wire by name.  Anything
#: else degrades to :class:`ServiceError` -- the protocol restores the
#: *store contract's* error surface, not arbitrary exceptions.
ERROR_TYPES = {
    "KeyError": KeyError,
    "ValueError": ValueError,
    "TypeError": TypeError,
    "NotImplementedError": NotImplementedError,
}


class ServiceError(RuntimeError):
    """A service-side failure with no contract-level exception type."""


class ProtocolError(RuntimeError):
    """A malformed or unencodable frame (bad header, oversized payload,
    non-JSON, a block that does not match its header)."""


def _json(message: dict) -> bytes:
    try:
        return json.dumps(message, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unencodable message: {exc}") from exc


def _check_size(size: int) -> None:
    if size > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {size} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit")


def _check_width(width) -> int:
    if type(width) is not int or width < 1:
        raise ProtocolError(
            f"block width must be a positive integer, got {width!r}")
    return width


def encode_frame(message: dict) -> bytes:
    """One wire frame: header plus compact JSON payload, and the
    ``result`` rows as an int64 block when the message has a ``width``.

    Raises :class:`ProtocolError` for a message that does not encode or
    whose payload would exceed :data:`MAX_FRAME_BYTES`; an oversized
    block is refused before it is packed.
    """
    if "width" not in message:
        payload = _json(message)
        _check_size(len(payload))
        return HEADER.pack(len(payload)) + payload
    width = _check_width(message["width"])
    rows = message["result"]
    head = _json({**message, "result": len(rows)}) + b"\n"
    _check_size(len(head) + len(rows) * width * BLOCK_ITEM)
    if width > 1 and set(map(len, rows)) - {width}:
        raise ProtocolError(f"block rows must all have width {width}")
    try:
        block = array("q", rows if width == 1 else chain.from_iterable(rows))
    except (TypeError, OverflowError) as exc:
        raise ProtocolError(f"unencodable block value: {exc}") from exc
    if _SWAP:
        block.byteswap()
    return b"".join(
        (HEADER.pack(len(head) + len(block) * BLOCK_ITEM), head, block))


def decode_payload(payload: bytes) -> dict:
    """Parse one frame payload back into a message object; a block
    becomes the ``result`` list (of ``width``-long lists when
    ``width > 1``)."""
    end = payload.find(b"\n")
    head = payload if end < 0 else payload[:end]
    try:
        message = json.loads(head.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got "
            f"{type(message).__name__}")
    if end < 0:
        if "width" in message:
            raise ProtocolError("frame declares a width but has no block")
        return message
    width = _check_width(message.get("width"))
    count = message.get("result")
    if type(count) is not int or count < 0:
        raise ProtocolError(
            f"block row count must be a non-negative integer, got {count!r}")
    block = memoryview(payload)[end + 1:]
    if len(block) != count * width * BLOCK_ITEM:
        raise ProtocolError(
            f"block of {len(block)} bytes does not hold {count} rows of "
            f"width {width} ({count * width * BLOCK_ITEM} bytes)")
    values = array("q")
    values.frombytes(block)
    if _SWAP:
        values.byteswap()
    flat = values.tolist()
    message["result"] = (flat if width == 1
                         else list(map(list, zip(*[iter(flat)] * width))))
    return message


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame header announces {length} bytes, over the "
            f"{MAX_FRAME_BYTES}-byte frame limit")


async def read_raw_frame_async(reader) -> Optional[bytes]:
    """Read one frame's payload bytes from an :class:`asyncio.
    StreamReader` without decoding them (the router's byte-relay path).

    Returns ``None`` on a clean end of stream (the peer closed between
    frames); raises :class:`ProtocolError` on a truncated or oversized
    frame.
    """
    import asyncio

    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-header") from exc
    (length,) = HEADER.unpack(header)
    _check_length(length)
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc


async def read_frame_async(reader) -> Optional[dict]:
    """Read one frame from an :class:`asyncio.StreamReader`.

    Returns ``None`` on a clean end of stream (the peer closed between
    frames); raises :class:`ProtocolError` on a truncated or malformed
    frame.
    """
    payload = await read_raw_frame_async(reader)
    return None if payload is None else decode_payload(payload)


async def write_frame_async(writer, message: dict) -> None:
    """Write one frame to an :class:`asyncio.StreamWriter` and drain."""
    writer.write(encode_frame(message))
    await writer.drain()


def read_frame(stream: BinaryIO) -> Optional[dict]:
    """Blocking :func:`read_frame_async`: reads from a binary file-like
    (``socket.makefile("rb")``)."""
    header = stream.read(HEADER.size)
    if not header:
        return None
    if len(header) < HEADER.size:
        raise ProtocolError("connection closed mid-header")
    (length,) = HEADER.unpack(header)
    _check_length(length)
    payload = b""
    while len(payload) < length:
        chunk = stream.read(length - len(payload))
        if not chunk:
            raise ProtocolError("connection closed mid-frame")
        payload += chunk
    return decode_payload(payload)


def write_frame(stream: BinaryIO, message: dict) -> None:
    """Blocking :func:`write_frame_async` onto a writable binary stream."""
    stream.write(encode_frame(message))
    stream.flush()


def error_response(request_id, exc: BaseException) -> dict:
    """The failure frame for ``exc``, typed for client-side re-raise."""
    return {
        "id": request_id,
        "ok": False,
        "error": str(exc) or type(exc).__name__,
        "error_type": type(exc).__name__,
    }


def raise_for_response(response: dict):
    """Return a success frame's result; re-raise a failure frame.

    The contract exceptions listed in :data:`ERROR_TYPES` come back as
    themselves (a remote ``delete`` of an absent record raises
    :class:`KeyError`, like a local store); everything else raises
    :class:`ServiceError` carrying the remote type name.
    """
    if response.get("ok"):
        return response.get("result")
    error_type = response.get("error_type", "")
    message = response.get("error", "remote error")
    exc_class = ERROR_TYPES.get(error_type)
    if exc_class is not None:
        raise exc_class(message)
    raise ServiceError(f"{error_type or 'remote error'}: {message}")
