"""MicroC runtime values and memory model.

Every scalar value carried by the VM is a :class:`TaintedValue`: alongside the
wrapped concrete value it carries the shadow state the paper's Valgrind-based
instrumentation maintains — the symbolic expression over input fields that
produced the value — plus an infinite-precision "true" value used to detect
integer overflow at allocation sites (the DIODE error model).

The heap consists of :class:`Buffer` objects (bounds-checked byte buffers
returned by ``malloc``) and :class:`StructInstance` objects (struct variables
and the targets of struct pointers).  Addressable storage locations are
:class:`Cell` objects; pointers reference cells or buffers.  The CP data
structure traversal (Figure 6) walks exactly these objects, using cell
identity for its ``Visited`` set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Union

from ..symbolic.expr import Expr
from .types import IntType, PointerType, StructType, Type


class MemoryFault(Exception):
    """Internal signal for memory errors; converted to ErrorReport by the VM."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind
        self.message = message


@dataclass(frozen=True)
class TaintedValue:
    """A scalar runtime value with taint/symbolic shadow state."""

    value: int
    width: int
    signed: bool = False
    symbolic: Optional[Expr] = None
    true_value: Optional[int] = None

    def __post_init__(self) -> None:
        mask = (1 << self.width) - 1
        object.__setattr__(self, "value", self.value & mask)
        if self.true_value is None:
            object.__setattr__(self, "true_value", self.as_int)

    @property
    def as_int(self) -> int:
        """The value interpreted according to its signedness."""
        if self.signed and self.value >= 1 << (self.width - 1):
            return self.value - (1 << self.width)
        return self.value

    @property
    def is_tainted(self) -> bool:
        return self.symbolic is not None

    @property
    def truth(self) -> bool:
        return self.value != 0

    def fields(self) -> frozenset[str]:
        """Input-field paths this value depends on."""
        if self.symbolic is None:
            return frozenset()
        return self.symbolic.fields()

    @property
    def overflowed(self) -> bool:
        """Whether the wrapped value no longer equals the true computation."""
        return self.true_value != self.as_int


def make_value(
    value: int,
    ctype: Type,
    symbolic: Optional[Expr] = None,
    true_value: Optional[int] = None,
) -> TaintedValue:
    """Construct a TaintedValue for an integer type."""
    if not isinstance(ctype, IntType):
        raise TypeError(f"make_value requires an integer type, got {ctype}")
    return TaintedValue(
        value=value,
        width=ctype.width,
        signed=ctype.signed,
        symbolic=symbolic,
        true_value=true_value,
    )


def fast_value(
    value: int, width: int, signed: bool, symbolic: Optional[Expr], true_value: int
) -> TaintedValue:
    """Construct a :class:`TaintedValue` without dataclass ``__init__`` cost.

    The compiled execution tier (:mod:`repro.lang.bytecode`) builds tens of
    thousands of scalar values per run; going through the frozen dataclass
    constructor (``__init__`` + ``__post_init__`` + ``object.__setattr__``)
    dominates its profile.  Callers must uphold the constructor's invariants
    themselves: ``value`` is already masked to ``width`` and ``true_value``
    is the intended infinite-precision value (never ``None``).
    """
    tv = _TV_NEW(TaintedValue)
    d = tv.__dict__
    d["value"] = value
    d["width"] = width
    d["signed"] = signed
    d["symbolic"] = symbolic
    d["true_value"] = true_value
    return tv


_TV_NEW = TaintedValue.__new__

#: Interned untainted byte values: the compiled tier's arena loads
#: produce these instead of allocating.
U8_CONSTANTS = tuple(TaintedValue(value, 8) for value in range(256))


class WrappedInt(int):
    """A concrete-artifact integer whose true value differs from its wrapped one.

    The concrete artifact (:mod:`repro.lang.concrete`) represents an integer
    as a plain ``int``: the value read in its statically known type, whose
    infinite-precision true value is the same number.  Only when the two
    differ — a computation wrapped, or a conversion changed the reading —
    does it carry this subclass, whose ``int`` value is the wrapped one and
    whose ``true_value`` is the true one.  Every operation that ignores true
    values (comparisons, bit operations, branches, output) therefore works
    on it unchanged.
    """

    true_value: int


def wrapped_int(value: int, true_value: int) -> WrappedInt:
    """A :class:`WrappedInt` reading ``value`` with the given true value."""
    wrapped = WrappedInt(value)
    wrapped.true_value = true_value
    return wrapped


_object_counter = itertools.count(1)


@dataclass
class Buffer:
    """A ``malloc``-allocated, bounds-checked byte buffer."""

    size: int
    site_id: int
    function: str
    object_id: int = field(default_factory=lambda: next(_object_counter))
    overflowed_size: bool = False
    contents: dict[int, TaintedValue] = field(default_factory=dict)

    def check_index(self, index: int, access: str) -> None:
        if index < 0 or index >= self.size:
            raise MemoryFault(
                "out-of-bounds-write" if access == "write" else "out-of-bounds-read",
                f"{access} at index {index} outside buffer of size {self.size} "
                f"allocated at statement {self.site_id} in {self.function}",
            )

    def store(self, index: int, value: TaintedValue) -> None:
        self.check_index(index, "write")
        self.contents[index] = value

    def load(self, index: int) -> TaintedValue:
        self.check_index(index, "read")
        return self.contents.get(index, TaintedValue(0, 8))


#: Allocations at or below this size get a real ``bytearray`` arena; larger
#: ones (``malloc64`` can legally request terabytes under the default heap
#: budget) stay sparse so the host never materialises the allocation.
ARENA_LIMIT = 1 << 20


@dataclass
class ArenaBuffer(Buffer):
    """A buffer whose concrete bytes live in a flat ``bytearray`` arena.

    Used by the compiled execution tier.  Plain concrete bytes are stored
    directly in ``data``; the inherited ``contents`` dict is demoted to a
    *shadow* map holding only the values that carry state a byte cannot —
    a symbolic expression or a ``true_value`` that differs from the wrapped
    byte.  Loads therefore reconstruct values bit-for-bit equal to what a
    dict-backed :class:`Buffer` would return (``tests/lang`` holds the
    parity proof), while sequential byte traffic touches no dicts and
    allocates nothing.
    """

    data: Optional[bytearray] = None

    def __post_init__(self) -> None:
        if self.data is None and 0 <= self.size <= ARENA_LIMIT:
            self.data = bytearray(self.size)

    def store(self, index: int, value: TaintedValue) -> None:
        data = self.data
        if data is None:
            Buffer.store(self, index, value)
            return
        if index < 0 or index >= self.size:
            self.check_index(index, "write")
        if value.symbolic is None and value.true_value == value.value:
            data[index] = value.value
            if self.contents:
                self.contents.pop(index, None)
        else:
            self.contents[index] = value

    def load(self, index: int) -> TaintedValue:
        data = self.data
        if data is None:
            return Buffer.load(self, index)
        if index < 0 or index >= self.size:
            self.check_index(index, "read")
        if self.contents:
            shadowed = self.contents.get(index)
            if shadowed is not None:
                return shadowed
        return U8_CONSTANTS[data[index]]

    # -- concrete artifact: plain ints in, plain ints out ----------------------------

    def store_int(self, index: int, value: int) -> None:
        """Store a u8 concrete value (an ``int`` or :class:`WrappedInt`).

        The heap ends up exactly as :meth:`store` would leave it for the
        equivalent untainted :class:`TaintedValue`.
        """
        data = self.data
        if data is not None and 0 <= index < self.size and value.__class__ is int:
            data[index] = value
            if self.contents:
                self.contents.pop(index, None)
            return
        if value.__class__ is int:
            self.store(index, U8_CONSTANTS[value])
        else:
            self.store(index, fast_value(int(value), 8, False, None, value.true_value))

    def load_int(self, index: int) -> int:
        """Load a u8 as a concrete value (an ``int`` or :class:`WrappedInt`)."""
        data = self.data
        if data is not None and 0 <= index < self.size and not self.contents:
            return data[index]
        loaded = self.load(index)
        if loaded.true_value == loaded.value:
            return loaded.value
        return wrapped_int(loaded.value, loaded.true_value)


@dataclass
class Cell:
    """A mutable storage location (variable, struct field, or pointee)."""

    declared_type: Type
    value: Union[TaintedValue, "StructInstance", "Pointer", None] = None
    object_id: int = field(default_factory=lambda: next(_object_counter))


@dataclass
class StructInstance:
    """A struct value: one cell per field, instantiated eagerly."""

    struct_type: StructType
    cells: dict[str, Cell] = field(default_factory=dict)
    object_id: int = field(default_factory=lambda: next(_object_counter))

    def cell(self, name: str) -> Cell:
        try:
            return self.cells[name]
        except KeyError:
            raise MemoryFault(
                "bad-field", f"struct {self.struct_type.name} has no field {name!r}"
            ) from None


@dataclass(frozen=True)
class Pointer:
    """A pointer to a cell (scalars, structs) or to a heap buffer."""

    target: Union[Cell, Buffer, None]
    pointee_type: Type

    @property
    def is_null(self) -> bool:
        return self.target is None


def null_pointer(pointee: Type) -> Pointer:
    return Pointer(target=None, pointee_type=pointee)


#: Interned zero values per integer type (values are immutable).
_ZEROS: dict[IntType, TaintedValue] = {}


def instantiate(ctype: Type) -> Union[TaintedValue, StructInstance, Pointer]:
    """Default (zero) value for a declared type."""
    if isinstance(ctype, IntType):
        zero = _ZEROS.get(ctype)
        if zero is None:
            zero = _ZEROS.setdefault(ctype, make_value(0, ctype))
        return zero
    if isinstance(ctype, PointerType):
        return null_pointer(ctype.pointee)
    if isinstance(ctype, StructType):
        instance = StructInstance(struct_type=ctype)
        for entry in ctype.fields:
            instance.cells[entry.name] = Cell(declared_type=entry.type, value=instantiate(entry.type))
        return instance
    raise TypeError(f"cannot instantiate type {ctype}")


def new_cell(ctype: Type) -> Cell:
    """A fresh cell holding the default value of ``ctype``."""
    return Cell(declared_type=ctype, value=instantiate(ctype))
