"""MicroC type system.

MicroC is the small C-like language in which the donor and recipient
applications of this reproduction are written.  The type system covers what
the paper's benchmark code actually exercises: fixed-width signed/unsigned
integers, pointers, and named structs (whose layout the CP data-structure
traversal of Figure 6 walks via debugging information).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional


class TypeError_(Exception):
    """Raised for MicroC type errors (named to avoid clashing with the builtin)."""


@dataclass(frozen=True)
class Type:
    """Base class for MicroC types."""

    def __str__(self) -> str:  # pragma: no cover - overridden
        return "type"

    @property
    def is_struct(self) -> bool:
        return isinstance(self, StructType)


@dataclass(frozen=True)
class VoidType(Type):
    """The void type (function returns only)."""

    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class IntType(Type):
    """A fixed-width integer type (u8/u16/u32/u64, i8/i16/i32/i64)."""

    width: int = 32
    signed: bool = True

    def __post_init__(self) -> None:
        if self.width not in (8, 16, 32, 64):
            raise TypeError_(f"unsupported integer width {self.width}")

    def __str__(self) -> str:
        return f"{'i' if self.signed else 'u'}{self.width}"

    @property
    def max_unsigned(self) -> int:
        return (1 << self.width) - 1


@dataclass(frozen=True)
class PointerType(Type):
    """Pointer to a pointee type (struct, integer, or another pointer)."""

    pointee: Type = field(default_factory=lambda: IntType(8, False))

    def __str__(self) -> str:
        return f"{self.pointee}*"


@dataclass(frozen=True)
class StructField:
    """One field of a struct type."""

    name: str
    type: Type


@dataclass(frozen=True)
class StructType(Type):
    """A named struct type with ordered fields."""

    name: str = ""
    fields: tuple[StructField, ...] = ()

    def __str__(self) -> str:
        return f"struct {self.name}"

    def field_type(self, name: str) -> Type:
        for entry in self.fields:
            if entry.name == name:
                return entry.type
        raise TypeError_(f"struct {self.name} has no field {name!r}")

    def has_field(self, name: str) -> bool:
        return any(entry.name == name for entry in self.fields)


# -- named integer types ---------------------------------------------------------

U8 = IntType(8, False)
U16 = IntType(16, False)
U32 = IntType(32, False)
U64 = IntType(64, False)
I8 = IntType(8, True)
I16 = IntType(16, True)
I32 = IntType(32, True)
I64 = IntType(64, True)
VOID = VoidType()

INTEGER_TYPE_NAMES: dict[str, IntType] = {
    "u8": U8,
    "u16": U16,
    "u32": U32,
    "u64": U64,
    "i8": I8,
    "i16": I16,
    "i32": I32,
    "i64": I64,
    # C-flavoured aliases used by application sources transcribed from the paper.
    "char": I8,
    "uchar": U8,
    "short": I16,
    "ushort": U16,
    "int": I32,
    "uint": U32,
    "long": I64,
    "ulong": U64,
}


def integer_type(name: str) -> Optional[IntType]:
    """Look up an integer type by keyword, or None if not an integer keyword."""
    return INTEGER_TYPE_NAMES.get(name)


def promote(left: Type, right: Type) -> IntType:
    """MicroC's simplified usual-arithmetic-conversions.

    The result is the wider of the two integer types; on equal widths the
    result is unsigned if either operand is unsigned (mirroring C, which is
    what makes the donor applications' overflow checks behave the way the
    paper describes).
    """
    if not isinstance(left, IntType) or not isinstance(right, IntType):
        raise TypeError_(f"cannot apply arithmetic promotion to {left} and {right}")
    if left.width > right.width:
        return left
    if right.width > left.width:
        return right
    return IntType(left.width, left.signed and right.signed)


def assignable(target: Type, value: Type) -> bool:
    """Whether a value of type ``value`` may be assigned to ``target``."""
    if isinstance(target, IntType) and isinstance(value, IntType):
        return True  # implicit integer conversions, as in C
    if isinstance(target, PointerType) and isinstance(value, PointerType):
        return target.pointee == value.pointee or isinstance(
            value.pointee, VoidType
        ) or isinstance(target.pointee, VoidType)
    return target == value


class StructTable:
    """Registry of struct definitions for one translation unit."""

    def __init__(self) -> None:
        self._structs: dict[str, StructType] = {}

    def define(self, name: str, fields: Iterable[StructField]) -> StructType:
        if name in self._structs:
            raise TypeError_(f"struct {name!r} redefined")
        struct = StructType(name=name, fields=tuple(fields))
        self._structs[name] = struct
        return struct

    def lookup(self, name: str) -> StructType:
        try:
            return self._structs[name]
        except KeyError:
            raise TypeError_(f"unknown struct {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self._structs

    def all(self) -> list[StructType]:
        return list(self._structs.values())
