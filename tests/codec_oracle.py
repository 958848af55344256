"""The trace-record grammar as a field-by-field reader: the specification
``core/codec.py``'s record decoder is tested against.

This is the codec's original ``PayloadDecoder`` -- string table, varint,
tagged value, read/write sets and the whole trace record, each a method
that advances one cursor and checks its own bounds -- moved here verbatim
when ``core/codec.py`` became one set of ``read_*`` functions.  It shares
no code with them (the wire constants are spelled out again below), takes
no single-byte fast path and builds every record by keyword, so it cannot
share a defect with the code under test.  ``tests/test_codec.py`` fuzzes
``decode_batch`` against it over the full value grammar.
"""

import struct
from typing import List, Union

from repro.core.codec import CodecError
from repro.core.intervals import Interval
from repro.core.trace import CODE_TO_KIND, CODE_TO_STATUS, KeyRange, Trace

_DD = struct.Struct("<dd")
_D = struct.Struct("<d")

# Value tags and record flag bits of ``repro.traces/v1b``.
_V_NONE = 0
_V_TRUE = 1
_V_FALSE = 2
_V_INT = 3
_V_FLOAT = 4
_V_STR = 5
_V_TUPLE = 6

_F_STATUS = 0x04
_F_FOR_UPDATE = 0x08
_F_PREDICATE = 0x10
_F_READS = 0x20
_F_WRITES = 0x40


class ReferenceDecoder:
    """Streaming reader over one frame payload (table read up front)."""

    __slots__ = ("_data", "_pos", "_strings")

    def __init__(self, data: Union[bytes, memoryview]) -> None:
        self._data = bytes(data)
        self._pos = 0
        count = self.varint()
        strings: List[str] = []
        for _ in range(count):
            length = self.varint()
            end = self._pos + length
            strings.append(self._data[self._pos : end].decode("utf-8"))
            self._pos = end
        self._strings = strings

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._data)

    # -- primitives --------------------------------------------------------

    def varint(self) -> int:
        data = self._data
        pos = self._pos
        shift = 0
        result = 0
        try:
            while True:
                byte = data[pos]
                pos += 1
                result |= (byte & 0x7F) << shift
                if not byte & 0x80:
                    break
                shift += 7
        except IndexError:
            raise CodecError("truncated varint") from None
        self._pos = pos
        return result

    def zigzag(self) -> int:
        zz = self.varint()
        return (zz >> 1) ^ -(zz & 1)

    def u8(self) -> int:
        try:
            byte = self._data[self._pos]
        except IndexError:
            raise CodecError("truncated record") from None
        self._pos += 1
        return byte

    def double(self) -> float:
        end = self._pos + 8
        if end > len(self._data):
            raise CodecError("truncated double")
        (value,) = _D.unpack_from(self._data, self._pos)
        self._pos = end
        return value

    def double_pair(self):
        end = self._pos + 16
        if end > len(self._data):
            raise CodecError("truncated doubles")
        pair = _DD.unpack_from(self._data, self._pos)
        self._pos = end
        return pair

    def string(self) -> str:
        index = self.varint()
        try:
            return self._strings[index]
        except IndexError:
            raise CodecError(f"string table index {index} out of range") from None

    def raw(self) -> bytes:
        length = self.varint()
        end = self._pos + length
        if end > len(self._data):
            raise CodecError("truncated raw bytes")
        data = self._data[self._pos : end]
        self._pos = end
        return data

    def value(self):
        tag = self.u8()
        if tag == _V_NONE:
            return None
        if tag == _V_TRUE:
            return True
        if tag == _V_FALSE:
            return False
        if tag == _V_INT:
            return self.zigzag()
        if tag == _V_FLOAT:
            end = self._pos + 8
            if end > len(self._data):
                raise CodecError("truncated float")
            (value,) = _D.unpack_from(self._data, self._pos)
            self._pos = end
            return value
        if tag == _V_STR:
            return self.string()
        if tag == _V_TUPLE:
            return tuple(self.value() for _ in range(self.varint()))
        raise CodecError(f"unknown value tag {tag}")

    def _sets(self) -> dict:
        out = {}
        for _ in range(self.varint()):
            key = self.value()
            columns = {}
            for _ in range(self.varint()):
                column = self.string()
                columns[column] = self.value()
            out[key] = columns
        return out

    # -- records -----------------------------------------------------------

    def trace(self) -> Trace:
        flags = self.u8()
        kind = CODE_TO_KIND.get(flags & 0x03)
        if kind is None:  # pragma: no cover - 2-bit code is always mapped
            raise CodecError(f"unknown op kind code {flags & 0x03}")
        txn_id = self.string()
        ts_bef, ts_aft = self.double_pair()
        client_id = self.zigzag()
        op_index = self.varint()
        reads = self._sets() if flags & _F_READS else {}
        writes = self._sets() if flags & _F_WRITES else {}
        predicate = None
        if flags & _F_PREDICATE:
            prefix = self.value()
            lo = self.zigzag()
            hi = self.zigzag()
            predicate = KeyRange(prefix=prefix, lo=lo, hi=hi)
        return Trace(
            interval=Interval(ts_bef, ts_aft),
            kind=kind,
            txn_id=txn_id,
            client_id=client_id,
            reads=reads,
            writes=writes,
            status=CODE_TO_STATUS[1 if flags & _F_STATUS else 0],
            for_update=bool(flags & _F_FOR_UPDATE),
            predicate=predicate,
            op_index=op_index,
        )


def decode_reference(payload: Union[bytes, memoryview]) -> List[Trace]:
    """One frame payload, record by record, through the reference."""
    decoder = ReferenceDecoder(payload)
    traces = [decoder.trace() for _ in range(decoder.varint())]
    assert decoder.exhausted
    return traces
