"""Fixed-layout format specifications.

The simplified formats used by the MicroC applications all have a fixed byte
layout (a handful of header fields at known offsets followed by a small body).
:class:`FixedLayoutFormat` implements :class:`repro.formats.fields.FormatSpec`
for that case from a declarative description: magic bytes, a list of
:class:`FieldDefault` entries, and the total file size.

Real formats of course have variable layouts — the original CP leans on
Hachoir for exactly this reason — but a fixed layout preserves everything the
CP algorithms observe (which bytes belong to which named field and how the
applications consume them) while keeping the application substrate small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .fields import Field, FieldMap, FormatError, FormatSpec, merge_values


@dataclass(frozen=True)
class FieldDefault:
    """A field definition plus the value it takes in the canonical seed input."""

    path: str
    offset: int
    size: int
    default: int
    endianness: str = "big"
    description: str = ""

    def to_field(self) -> Field:
        return Field(
            path=self.path,
            offset=self.offset,
            size=self.size,
            endianness=self.endianness,
            description=self.description,
        )


@dataclass(frozen=True)
class LiteralBytes:
    """Fixed bytes (magic numbers, markers, padding) at a given offset."""

    offset: int
    data: bytes
    description: str = ""


class FixedLayoutFormat(FormatSpec):
    """A format whose fields live at fixed offsets."""

    #: Subclasses set these class attributes.
    name: str = ""
    description: str = ""
    total_size: int = 0
    literals: Sequence[LiteralBytes] = ()
    field_defaults: Sequence[FieldDefault] = ()

    def __init__(self) -> None:
        if not self.name:
            raise FormatError("format subclasses must define a name")
        if self.total_size <= 0:
            raise FormatError(f"format {self.name!r} must define a positive total_size")
        self._fields = [entry.to_field() for entry in self.field_defaults]
        for entry in self.field_defaults:
            if entry.offset + entry.size > self.total_size:
                raise FormatError(
                    f"field {entry.path!r} extends beyond the {self.name} file size"
                )
        for literal in self.literals:
            if literal.offset + len(literal.data) > self.total_size:
                raise FormatError(f"literal at {literal.offset} extends beyond the file size")

    # -- FormatSpec interface ---------------------------------------------------

    def matches(self, data: bytes) -> bool:
        if len(data) < self.total_size:
            return False
        magic = self.literals[0] if self.literals else None
        if magic is None:
            return True
        return data[magic.offset : magic.offset + len(magic.data)] == magic.data

    def field_map(self, data: bytes) -> FieldMap:
        return FieldMap(self._fields, total_size=self.total_size, format_name=self.name)

    def layout(self) -> FieldMap:
        """The field layout independent of any concrete input."""
        return FieldMap(self._fields, total_size=self.total_size, format_name=self.name)

    def build(self, values: Mapping[str, int] | None = None, **overrides: int) -> bytes:
        defaults = {entry.path: entry.default for entry in self.field_defaults}
        merged = merge_values(defaults, values, overrides)
        unknown = set(merged) - set(defaults)
        if unknown:
            raise FormatError(
                f"unknown field(s) for format {self.name}: {', '.join(sorted(unknown))}"
            )
        data = bytearray(self.total_size)
        for literal in self.literals:
            data[literal.offset : literal.offset + len(literal.data)] = literal.data
        field_map = self.layout()
        for path, value in merged.items():
            field_map.field(path).write(data, value)
        return bytes(data)

    # -- convenience --------------------------------------------------------------

    def seed(self) -> bytes:
        """The canonical seed input (all defaults)."""
        return self.build()

    def describe(self) -> str:
        """A human-readable layout summary (used by the CLI and docs)."""
        lines = [f"format {self.name}: {self.description} ({self.total_size} bytes)"]
        for entry in sorted(self.field_defaults, key=lambda e: e.offset):
            lines.append(
                f"  [{entry.offset:3d}:{entry.offset + entry.size:3d}] "
                f"{entry.path}  ({entry.size * 8}-bit {entry.endianness}-endian, "
                f"default {entry.default})"
            )
        return "\n".join(lines)
