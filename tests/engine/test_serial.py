"""Unit and property tests for record serialisation and page forms."""

import struct
import sys
from array import array
from itertools import chain
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import bptree, heap
from repro.engine.bptree import (
    NO_BLOCK,
    PAGE_INTERNAL,
    PAGE_LEAF,
    InternalPage,
    LeafPage,
    load_node,
)
from repro.engine.errors import SerializationError
from repro.engine.heap import PAGE_HEAP, HeapPage, load_page
from repro.engine.serial import (
    INT_MAX,
    INT_MIN,
    IntTupleCodec,
    pack_header,
    pad_high,
    pad_low,
    values_to_bytes,
)

int64 = st.integers(min_value=INT_MIN, max_value=INT_MAX)
#: Values a page holds: any int64, with the range-scan padding keys and
#: small negatives drawn often.
page_value = st.one_of(
    st.sampled_from([INT_MIN, INT_MAX, -1, 0]), st.integers(-50, 50), int64
)


def _leaf_block(codec, entries, next_leaf=NO_BLOCK):
    """The block of a leaf holding ``entries``, as it is written to disk."""
    return pack_header(PAGE_LEAF, len(entries), next_leaf) + codec.pack_many(entries)


def _read_back(codec, entries):
    """``entries`` packed into a leaf block and decoded by the leaf loader."""
    return codec.rows(load_node(codec, _leaf_block(codec, entries)).values)


def test_pack_unpack_roundtrip_simple():
    codec = IntTupleCodec(3)
    entries = [(1, 2, 3), (-5, 0, INT_MAX)]
    assert _read_back(codec, entries) == entries


def test_entry_size_is_exact():
    codec = IntTupleCodec(4)
    assert codec.entry_size == 32
    assert len(codec.pack_many([(0, 0, 0, 0)])) == 32


def test_empty_pack():
    codec = IntTupleCodec(2)
    assert codec.pack_many([]) == b""
    assert _read_back(codec, []) == []


def test_unpack_short_buffer_rejected():
    codec = IntTupleCodec(2)
    with pytest.raises(SerializationError):
        load_node(codec, pack_header(PAGE_LEAF, 1, NO_BLOCK) + b"\x00" * 8)


def test_out_of_range_value_rejected():
    codec = IntTupleCodec(1)
    with pytest.raises(SerializationError):
        codec.pack_many([(2**63,)])


def test_zero_arity_rejected():
    with pytest.raises(SerializationError):
        IntTupleCodec(0)


def test_single_heap_slot_roundtrip():
    codec = IntTupleCodec(3)
    block = pack_header(PAGE_HEAP, 1, 0) + codec.pack_many([(1, 7, -9)])
    assert codec.rows(load_page(codec, block).values) == [(1, 7, -9)]


@pytest.mark.parametrize("next_leaf", [NO_BLOCK, 0, 2**40, INT_MAX])
def test_header_roundtrip(next_leaf):
    codec = IntTupleCodec(2)
    entries = [(i, -i) for i in range(1000)]
    read = load_node(codec, _leaf_block(codec, entries, next_leaf))
    assert read.next_leaf == next_leaf
    assert len(read.values) == 2 * len(entries)


@pytest.mark.parametrize("load", [load_node, load_page])
def test_header_too_short(load):
    with pytest.raises(SerializationError):
        load(IntTupleCodec(2), b"\x01")


def test_pad_low_and_high():
    assert pad_low((5,), 3) == (5, INT_MIN, INT_MIN)
    assert pad_high((5,), 3) == (5, INT_MAX, INT_MAX)
    assert pad_low((1, 2, 3), 3) == (1, 2, 3)


@given(st.lists(st.tuples(int64, int64, int64), max_size=50))
def test_roundtrip_property(entries):
    assert _read_back(IntTupleCodec(3), entries) == entries


@given(st.integers(1, 6), st.data())
def test_roundtrip_any_arity(arity, data):
    codec = IntTupleCodec(arity)
    entries = data.draw(st.lists(st.tuples(*[int64] * arity), max_size=20))
    packed = codec.pack_many(entries)
    assert len(packed) == len(entries) * codec.entry_size
    assert _read_back(codec, entries) == entries


def test_batch_struct_cache_reused():
    codec = IntTupleCodec(2)
    for _ in range(3):
        for count in (1, 4, 7):
            entries = [(i, -i) for i in range(count)]
            assert _read_back(codec, entries) == entries
    # One cached Struct per distinct batch size, however often it is hit.
    assert set(codec._batch_structs) == {1, 4, 7}


def test_loaders_accept_memoryview_and_extra_tail():
    codec = IntTupleCodec(3)
    entries = [(1, 2, 3), (4, 5, 6)]
    block = memoryview(_leaf_block(codec, entries) + b"\xff" * 11)
    assert codec.rows(load_node(codec, block).values) == entries


@given(st.lists(int64, min_size=0, max_size=3), st.integers(1, 5))
def test_padding_orders_extremes(prefix, arity):
    if len(prefix) > arity:
        prefix = prefix[:arity]
    low = pad_low(prefix, arity)
    high = pad_high(prefix, arity)
    assert low <= high
    assert len(low) == len(high) == arity


# ----------------------------------------------------------------------
# page forms: a flat array('q') and a tuple list encode to the same bytes
# ----------------------------------------------------------------------
#: Bytes a block holds after a part-filled page's entries.
TAIL = b"\xa5" * 40


@given(st.integers(1, 5), st.data())
def test_leaf_forms_encode_to_the_same_bytes(arity, data):
    codec = IntTupleCodec(arity)
    entries = sorted(data.draw(st.sets(st.tuples(*[page_value] * arity), max_size=40)))
    next_leaf = data.draw(st.sampled_from([-1, 0, 7, 2**40]))
    header = pack_header(PAGE_LEAF, len(entries), next_leaf)
    encoded = header + codec.pack_many(entries)
    tuple_page = LeafPage(codec, list(entries), next_leaf)
    array_page = LeafPage(
        codec, None, next_leaf, array("q", chain.from_iterable(entries))
    )
    assert tuple_page.to_bytes() == encoded
    assert array_page.to_bytes() == encoded
    read = load_node(codec, encoded + TAIL)
    assert isinstance(read, LeafPage)
    assert read.entries is None
    assert read.next_leaf == next_leaf
    assert read.to_bytes() == encoded
    assert codec.rows(read.values) == tuple_page.entries


@given(st.integers(1, 5), st.data())
def test_internal_page_decodes_to_tuple_keys_and_a_child_list(arity, data):
    codec = IntTupleCodec(arity)
    keys = sorted(data.draw(st.sets(st.tuples(*[page_value] * arity), max_size=30)))
    size = len(keys) + 1
    children = data.draw(st.lists(st.integers(0, 2**40), min_size=size, max_size=size))
    page = InternalPage(codec, keys, children)
    encoded = (
        pack_header(PAGE_INTERNAL, len(keys), -1)
        + struct.pack(f"<{size}q", *children)
        + codec.pack_many(keys)
    )
    assert page.to_bytes() == encoded
    read = load_node(codec, encoded + TAIL)
    assert isinstance(read, InternalPage)
    assert read.keys == keys and all(type(key) is tuple for key in read.keys)
    assert read.children == children and type(read.children) is list
    assert read.to_bytes() == encoded


@given(st.integers(1, 4), st.data())
def test_heap_page_encodes_as_flagged_slots(arity, data):
    codec = IntTupleCodec(arity + 1)
    row = st.tuples(*[page_value] * arity)
    slots = data.draw(st.lists(st.one_of(st.none(), row), max_size=30))
    flagged = [(0,) * (arity + 1) if row is None else (1, *row) for row in slots]
    encoded = pack_header(PAGE_HEAP, len(slots), 0) + codec.pack_many(flagged)
    page = HeapPage(codec, array("q", chain.from_iterable(flagged)))
    assert page.to_bytes() == encoded
    read = load_page(codec, encoded + TAIL)
    assert read.to_bytes() == encoded
    assert codec.rows(read.values) == flagged


def test_page_of_the_wrong_type_is_rejected():
    codec = IntTupleCodec(2)
    leaf = LeafPage(codec, [(1, 2)]).to_bytes()
    with pytest.raises(SerializationError):
        load_page(codec, leaf)
    with pytest.raises(SerializationError):
        load_node(codec, HeapPage(codec, array("q")).to_bytes())


@pytest.mark.parametrize(
    "page_type, load",
    [(PAGE_LEAF, load_node), (PAGE_INTERNAL, load_node), (PAGE_HEAP, load_page)],
)
def test_page_shorter_than_its_count_rejected(page_type, load):
    codec = IntTupleCodec(2)
    header = pack_header(page_type, 3, -1)
    with pytest.raises(SerializationError):
        load(codec, header[:5])
    with pytest.raises(SerializationError):
        load(codec, header + b"\x00" * 8)


@given(st.lists(page_value, max_size=20))
def test_values_follow_the_little_endian_format(values):
    data = struct.pack(f"<{len(values)}q", *values)
    codec = IntTupleCodec(1)
    leaf = load_node(codec, pack_header(PAGE_LEAF, len(values), NO_BLOCK) + data)
    slots = load_page(codec, pack_header(PAGE_HEAP, len(values), 0) + data)
    assert leaf.values.tolist() == slots.values.tolist() == values
    assert values_to_bytes(array("q", values)) == data


@given(st.lists(page_value, max_size=20))
def test_values_byteswap_on_a_big_endian_host(values):
    """The swap branch of the loaders and of the encoder, run directly
    whatever the host's order."""
    data = struct.pack(f"<{len(values)}q", *values)
    codec = IntTupleCodec(1)
    with (
        mock.patch.object(bptree, "SWAP_BYTES", True),
        mock.patch.object(heap, "SWAP_BYTES", True),
    ):
        leaf = load_node(codec, pack_header(PAGE_LEAF, len(values), NO_BLOCK) + data)
        slots = load_page(codec, pack_header(PAGE_HEAP, len(values), 0) + data)
    # In memory, the big-endian host holds each value's bytes reversed.
    swapped = struct.pack(f">{len(values)}q", *values)
    for read in (leaf, slots):
        assert read.values.tobytes() == swapped
        assert values_to_bytes(read.values, byteorder="big") == data
        # Encoding copies: the page's array keeps its bytes.
        assert read.values.tobytes() == swapped
    assert values_to_bytes(array("q", values), byteorder=sys.byteorder) == data
