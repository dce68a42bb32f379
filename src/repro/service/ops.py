"""The wire-op table: one declaration per store op the service speaks.

The server runs every store request through :meth:`WireOp.run`,
:meth:`~repro.service.client.RemoteStore.submit` encodes every contract
call with :meth:`WireOp.request`, and the loadgen oracle evaluates
through :func:`apply` (the table lookup plus ``run``) -- so adding an
op is one entry in :data:`OPS`.  Bound, id and clock fields decode
through :func:`integer`, which refuses floats, numeric strings and
bools with :class:`TypeError` and integers outside int64 with
:class:`ValueError` before the store is touched -- so every id and
bound a served store holds fits a result block
(:mod:`repro.service.protocol`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Optional

from ..core.predicates import compile_query
from ..core.verify import VerificationReport


#: The wire's integer range: one int64 block value.
INT64_MIN, INT64_MAX = -2**63, 2**63 - 1


def _out_of_range(value: int) -> ValueError:
    return ValueError(f"integer {value} does not fit the wire's int64 "
                      f"range [-2**63, 2**63)")


def integer(value) -> int:
    """A wire integer: exactly ``int`` within int64, never a float,
    string or bool."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    if not INT64_MIN <= value <= INT64_MAX:
        raise _out_of_range(value)
    return value


def optional_integer(value) -> Optional[int]:
    """:func:`integer`, or ``None`` for an absent or null field."""
    return None if value is None else integer(value)


def _integer_rows(rows: list) -> list:
    values = list(chain.from_iterable(rows))
    kinds = set(map(type, values)) - {int}
    if kinds:
        raise TypeError(f"expected rows of integers, got "
                        f"{sorted(kind.__name__ for kind in kinds)}")
    if values:
        low, high = min(values), max(values)
        if low < INT64_MIN or high > INT64_MAX:
            raise _out_of_range(low if low < INT64_MIN else high)
    return rows


def records(value) -> list[tuple[int, int, int]]:
    """``[[lower, upper, id], ...]`` as record tuples."""
    return _integer_rows([(lo, up, rid) for lo, up, rid in value])


def optional_records(value) -> list[tuple[int, int, int]]:
    """:func:`records`, or ``[]`` for an absent or null field."""
    return [] if value is None else records(value)


def windows(value) -> list[tuple[int, int]]:
    """``[[lower, upper], ...]`` as query windows."""
    return _integer_rows([(lo, up) for lo, up in value])


def _tuples(rows) -> list[tuple]:
    return [tuple(row) for row in rows]


def encode_predicate(predicate) -> dict:
    """A predicate's name, or a family's name plus its ``params``."""
    params = getattr(predicate, "params", ())
    if params:
        return {"predicate": predicate.family.name, "params": dict(params)}
    return {"predicate": getattr(predicate, "name", predicate)}


def decode_predicate(message: dict, default):
    """The request's predicate, a family rebuilt by ``compile_query``."""
    predicate = message.get("predicate", default)
    params = message.get("params")
    if predicate is None or not params:
        return predicate
    return compile_query(predicate, params)


#: Marks an op without a ``predicate=`` argument.
_NO_PREDICATE = object()


@dataclass(frozen=True)
class WireOp:
    """One wire op: the store method it runs and how it travels."""

    name: str
    mutates: bool
    args: tuple[tuple[str, Callable], ...] = ()
    #: The store method, when it is not spelled like the op.
    method: str = ""
    predicate: Any = _NO_PREDICATE
    #: Integers per result row when the result travels as an int64
    #: block (ids 1, join pairs 2, records 3); 0 keeps it JSON.
    width: int = 0
    #: Result to wire form (server side) and back (client side).
    encode: Optional[Callable] = None
    decode: Optional[Callable] = None

    def __post_init__(self) -> None:
        if not self.method:
            object.__setattr__(self, "method", self.name)

    def request(self, args: tuple, kwargs: dict) -> dict:
        """The request fields of ``method(*args, **kwargs)``, in wire
        order; an unfilled field travels as ``null``."""
        if len(args) > len(self.args):
            raise TypeError(f"{self.method}() takes {len(self.args)} "
                            f"arguments, got {len(args)}")
        fields = {}
        for index, (field, decode) in enumerate(self.args):
            value = (args[index] if index < len(args)
                     else kwargs.pop(field, None))
            fields[field] = (value if decode in _SCALARS
                             else list(() if value is None else value))
        if self.predicate is not _NO_PREDICATE:
            fields.update(encode_predicate(
                kwargs.pop("predicate", self.predicate)))
        if kwargs:
            raise TypeError(f"{self.method}() got unexpected keyword "
                            f"arguments {sorted(kwargs)}")
        return fields

    def run(self, store, message: dict):
        """Decode ``message``'s fields, call the store, encode the result."""
        args = []
        for field, decode in self.args:
            if field not in message and decode not in _OPTIONAL:
                raise ValueError(f"request is missing field {field!r}")
            args.append(decode(message.get(field)))
        method = getattr(store, self.method, None)
        if method is None:
            raise NotImplementedError(
                f"backend {store.method_name!r} has no temporal support "
                f"({self.method})")
        if self.predicate is _NO_PREDICATE:
            result = method(*args)
        else:
            result = method(*args, predicate=decode_predicate(
                message, self.predicate))
        return result if self.encode is None else self.encode(result)


_SCALARS = (integer, optional_integer)
_OPTIONAL = (optional_integer, optional_records)
_WINDOW = (("lower", integer), ("upper", integer))
_RECORD = _WINDOW + (("interval_id", integer),)
_RECORDS = (("records", records),)
_PROBES = (("probes", records),)

#: Op name -> declaration: the whole store surface of the wire.
OPS: dict[str, WireOp] = {op.name: op for op in (
    WireOp("insert", True, _RECORD),
    WireOp("delete", True, _RECORD),
    WireOp("bulk_load", True, _RECORDS),
    WireOp("ingest_batch", True, _RECORDS + (("closes", optional_records),),
           method="append_batch"),
    WireOp("advance_to", True, (("now", integer),)),
    WireOp("stab", False, (("value", integer),), width=1),
    WireOp("intersection", False, _WINDOW, width=1),
    WireOp("intersection_count", False, _WINDOW),
    WireOp("intersection_many", False, (("queries", windows),)),
    WireOp("query", False, (("lower", integer), ("upper", optional_integer)),
           predicate="intersects", width=1),
    WireOp("join_pairs", False, _PROBES, predicate=None, width=2,
           decode=_tuples),
    WireOp("join_count", False, _PROBES, predicate=None),
    WireOp("stored_records", False, width=3, decode=_tuples),
    WireOp("verify", False, encode=VerificationReport.as_dict,
           decode=VerificationReport.from_dict),
)}

#: Store method name -> declaration: the client's view of :data:`OPS`.
METHODS: dict[str, WireOp] = {op.method: op for op in OPS.values()}


def apply(store, message: dict):
    """Run one request message against ``store``; the wire result.

    Raises :class:`ValueError` for an unknown op or a missing field,
    :class:`TypeError` for a non-integer bound, id or clock, and
    :class:`NotImplementedError` for a method the served store lacks
    (the clock, on a store without one).
    """
    op = OPS.get(message.get("op"))
    if op is None:
        raise ValueError(f"unknown op {message.get('op')!r}; expected one "
                         f"of {sorted(OPS)}")
    return op.run(store, message)
