"""Fixed-width record and page serialisation.

All engine schemas in this reproduction are tuples of signed 64-bit integers
(interval bounds, backbone node values, tile numbers, identifiers, row ids).
Restricting the engine to one primitive type keeps page geometry exact and
cheap: an entry of arity *k* occupies exactly ``8 * k`` bytes, so the number
of entries per 2 KB block -- the quantity that drives every I/O figure in the
paper -- is a simple function of the schema.

A page body is a run of little-endian int64 values, so it has two in-memory
forms that encode to the same bytes: a list of tuples, which
:class:`IntTupleCodec` packs with one :mod:`struct` call per page, and one
flat ``array('q')``, which the page loaders fill with one copy of the block
(:func:`values_to_bytes` encodes it back).
Decoding a page into tuples costs one tuple per entry; on a workload that
misses the buffer cache on nearly every read (the paper's Section 6
setting) that decoding took about half the response time, so B+-tree
leaves and heap pages read from disk start as arrays (see
:mod:`repro.engine.bptree` for when a leaf turns into tuples, and
:mod:`repro.engine.heap`).
"""

from __future__ import annotations

import struct
import sys
from array import array
from itertools import chain
from typing import Sequence

from .errors import SerializationError

#: Smallest/largest values storable in an engine column.  Also used as
#: open-bound sentinels when padding range-scan prefixes.
INT_MIN = -(2**63)
INT_MAX = 2**63 - 1


class IntTupleCodec:
    """Codec for lists of fixed-arity signed 64-bit integer tuples.

    ``pack_many`` encodes the tuple form of a page -- leaves and internal
    pages when they are written back -- without per-entry Python work,
    streaming the entries through one cached :class:`struct.Struct` per
    batch size.  The internal-page loader decodes keys with
    :attr:`stored`; ``rows`` serves the array form.
    """

    __slots__ = ("arity", "entry_size", "stored", "_batch_structs", "native")

    def __init__(self, arity: int) -> None:
        if arity < 1:
            raise SerializationError(f"arity must be positive, got {arity}")
        self.arity = arity
        self.entry_size = 8 * arity
        #: One entry as stored on disk (little-endian): decodes the
        #: tuple form of a page straight out of its block.
        self.stored = struct.Struct(f"<{arity}q")
        # Cache of batch Structs keyed by entry count.  Page geometry caps
        # the number of distinct counts at the page capacity, so the cache
        # stays small for the codec's lifetime.
        self._batch_structs: dict[int, struct.Struct] = {}
        #: One entry in the host's byte order: unpacks rows out of a page's
        #: ``array('q')`` form, which holds native values.
        self.native = struct.Struct(f"={arity}q")

    def _batch_struct(self, count: int) -> struct.Struct:
        cached = self._batch_structs.get(count)
        if cached is None:
            cached = struct.Struct(f"<{count * self.arity}q")
            self._batch_structs[count] = cached
        return cached

    def pack_many(self, entries: Sequence[tuple[int, ...]]) -> bytes:
        """Encode ``entries`` back to back."""
        count = len(entries)
        if count == 0:
            return b""
        try:
            return self._batch_struct(count).pack(*chain.from_iterable(entries))
        except struct.error as exc:
            raise SerializationError(str(exc)) from exc

    def rows(self, values: array) -> list[tuple[int, ...]]:
        """The entries of a flat array as tuples."""
        return list(self.native.iter_unpack(values))


#: Page header: page type tag (1 byte), entry count (4 bytes),
#: auxiliary block pointer (8 bytes, e.g. the next-leaf link), padding.
PAGE_HEADER = struct.Struct("<bxxxiq")
PAGE_HEADER_SIZE = PAGE_HEADER.size


def pack_header(page_type: int, count: int, aux: int) -> bytes:
    """Encode the common page header."""
    return PAGE_HEADER.pack(page_type, count, aux)


#: Whether a page's ``array('q')`` form holds its values byte-swapped: on a
#: big-endian host.  The page loaders swap after their one copy when set.
SWAP_BYTES = sys.byteorder != "little"


def values_to_bytes(values: array, byteorder: str = sys.byteorder) -> bytes:
    """The little-endian encoding of the native int64 ``values``; a
    big-endian host (``byteorder``) swaps a copy first."""
    if byteorder != "little":
        values = array("q", values)
        values.byteswap()
    return values.tobytes()


def pad_low(prefix: Sequence[int], arity: int) -> tuple[int, ...]:
    """Extend ``prefix`` to ``arity`` with minimal values (range-scan lower bound)."""
    return tuple(prefix) + (INT_MIN,) * (arity - len(prefix))


def pad_high(prefix: Sequence[int], arity: int) -> tuple[int, ...]:
    """Extend ``prefix`` to ``arity`` with maximal values (range-scan upper bound)."""
    return tuple(prefix) + (INT_MAX,) * (arity - len(prefix))
