"""Input field descriptions (the reproduction's Hachoir).

CP "uses Hachoir to convert byte ranges into symbolic input fields" (§3.2):
the taint labels attached to input bytes are not raw offsets but named fields
such as ``/start_frame/content/height``, which is what makes the excised check
application independent.  This module provides the same capability for the
simplified binary formats used by the MicroC applications:

* :class:`Field` — one named field: path, byte offset, size, endianness.
* :class:`FieldMap` — the set of fields of one concrete input, with lookups
  from byte offsets to the symbolic expression describing that byte.
* :class:`FormatSpec` — a file format: how to recognise it, how to lay out its
  fields, how to build a file from field values, and how to parse one.

When a format is unknown (or Hachoir-style parsing is disabled) CP falls back
to *raw mode*, where every byte is its own 8-bit field (see
:mod:`repro.formats.raw`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field as dataclass_field
from typing import Iterable, Mapping, Optional, Sequence

from ..symbolic import builder
from ..symbolic.expr import Expr


class FormatError(Exception):
    """Raised when an input cannot be parsed or built for a format."""


@dataclass(frozen=True)
class Field:
    """A single named input field."""

    path: str
    offset: int
    size: int
    endianness: str = "big"
    description: str = ""

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise FormatError(f"field {self.path!r} has non-positive size {self.size}")
        if self.endianness not in ("big", "little"):
            raise FormatError(f"field {self.path!r} has unknown endianness {self.endianness!r}")
        if not self.path.startswith("/"):
            raise FormatError(f"field path {self.path!r} must be absolute (start with '/')")

    @property
    def width(self) -> int:
        """Width of the field in bits."""
        return self.size * 8

    @property
    def end(self) -> int:
        """Offset one past the last byte of the field."""
        return self.offset + self.size

    def covers(self, offset: int) -> bool:
        return self.offset <= offset < self.end

    def read(self, data: bytes) -> int:
        """The concrete value of this field in ``data``."""
        if len(data) < self.end:
            raise FormatError(
                f"input too short for field {self.path!r} (need {self.end} bytes, have {len(data)})"
            )
        chunk = data[self.offset : self.end]
        return int.from_bytes(chunk, "big" if self.endianness == "big" else "little")

    def write(self, data: bytearray, value: int) -> None:
        """Store ``value`` into ``data`` at this field's location."""
        if len(data) < self.end:
            raise FormatError(f"buffer too short for field {self.path!r}")
        order = "big" if self.endianness == "big" else "little"
        data[self.offset : self.end] = (value & ((1 << self.width) - 1)).to_bytes(self.size, order)

    def symbolic(self) -> Expr:
        """The symbolic expression for the whole field (an input-field leaf)."""
        return builder.input_field(self.path, self.width)

    def symbolic_byte(self, offset: int) -> Expr:
        """The symbolic expression for the byte of the file at ``offset``.

        For a big-endian field the first byte in the file is the most
        significant byte of the field; for little-endian it is the least
        significant.  The returned expression is an 8-bit extraction of the
        field leaf, which is exactly the label the paper's taint tracker
        attaches to the byte.
        """
        if not self.covers(offset):
            raise FormatError(f"offset {offset} is not inside field {self.path!r}")
        index = offset - self.offset
        if self.endianness == "big":
            hi = self.width - 1 - index * 8
        else:
            hi = index * 8 + 7
        return builder.extract(self.symbolic(), hi, hi - 7)


class FieldMap:
    """The fields of one concrete input, indexed by path and by byte offset."""

    def __init__(self, fields: Iterable[Field], total_size: int, format_name: str = "raw") -> None:
        self._fields: list[Field] = sorted(fields, key=lambda f: f.offset)
        self._by_path: dict[str, Field] = {}
        self.total_size = total_size
        self.format_name = format_name
        for entry in self._fields:
            if entry.path in self._by_path:
                raise FormatError(f"duplicate field path {entry.path!r}")
            self._by_path[entry.path] = entry
        overlap = self._find_overlap()
        if overlap is not None:
            first, second = overlap
            raise FormatError(f"fields {first.path!r} and {second.path!r} overlap")

    def _find_overlap(self) -> Optional[tuple[Field, Field]]:
        for first, second in zip(self._fields, self._fields[1:]):
            if second.offset < first.end:
                return first, second
        return None

    # -- lookups ----------------------------------------------------------------

    def __iter__(self):
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    def paths(self) -> list[str]:
        return [entry.path for entry in self._fields]

    def field(self, path: str) -> Field:
        try:
            return self._by_path[path]
        except KeyError:
            raise FormatError(f"unknown field path {path!r}") from None

    def has_field(self, path: str) -> bool:
        return path in self._by_path

    def field_at(self, offset: int) -> Optional[Field]:
        """The field covering byte ``offset``, or None for unstructured bytes."""
        for entry in self._fields:
            if entry.covers(offset):
                return entry
            if entry.offset > offset:
                break
        return None

    def symbolic_byte(self, offset: int) -> Expr:
        """Symbolic label for the input byte at ``offset``.

        Bytes outside any named field get a raw per-byte field so that taint
        tracking remains complete.
        """
        entry = self.field_at(offset)
        if entry is not None:
            return entry.symbolic_byte(offset)
        return builder.input_field(f"/raw/offset_{offset}", 8)

    # -- concrete values -----------------------------------------------------------

    def values(self, data: bytes) -> dict[str, int]:
        """Concrete value of every field present in ``data``."""
        result = {}
        for entry in self._fields:
            if entry.end <= len(data):
                result[entry.path] = entry.read(data)
        return result

    def value(self, data: bytes, path: str) -> int:
        return self.field(path).read(data)

    def with_values(self, data: bytes, values: Mapping[str, int]) -> bytes:
        """A copy of ``data`` with the fields at the given paths replaced."""
        written = bytearray(data)
        for path, value in values.items():
            self.field(path).write(written, value)
        return bytes(written)

    def differing_fields(self, first: bytes, second: bytes) -> list[str]:
        """Field paths whose values differ between two inputs.

        This is how CP identifies the *relevant bytes* in its experiments: "CP
        identifies the relevant bytes as those input fields that differ
        between the seed and error-triggering inputs" (§3.2).
        """
        first_values = self.values(first)
        second_values = self.values(second)
        differing = []
        for path in self.paths():
            if first_values.get(path) != second_values.get(path):
                differing.append(path)
        return differing


class FormatSpec(abc.ABC):
    """A binary input format understood by the donor/recipient applications."""

    #: Short format name ("jpeg", "png", ...).
    name: str = ""
    #: Human-readable description.
    description: str = ""

    @abc.abstractmethod
    def matches(self, data: bytes) -> bool:
        """Whether ``data`` looks like this format (magic-byte check)."""

    @abc.abstractmethod
    def field_map(self, data: bytes) -> FieldMap:
        """The field layout of ``data``."""

    @abc.abstractmethod
    def build(self, values: Mapping[str, int] | None = None, **overrides: int) -> bytes:
        """Construct a well-formed file, applying ``values``/``overrides`` on
        top of the format's defaults."""

    def parse(self, data: bytes) -> dict[str, int]:
        """Field path -> concrete value for ``data``."""
        return self.field_map(data).values(data)

    def with_values(self, base: bytes, **overrides: int) -> bytes:
        """Return a copy of ``base`` with the given field values replaced."""
        return self.field_map(base).with_values(
            base, {_normalise_path(path): value for path, value in overrides.items()}
        )


def _normalise_path(path: str) -> str:
    """Allow keyword-friendly field names (``sof_height``) as overrides."""
    if path.startswith("/"):
        return path
    return "/" + path.replace("__", "/")


def merge_values(
    defaults: Mapping[str, int],
    values: Mapping[str, int] | None,
    overrides: Mapping[str, int],
) -> dict[str, int]:
    """Merge default, explicit, and keyword-style field values."""
    merged = dict(defaults)
    if values:
        for path, value in values.items():
            merged[_normalise_path(path)] = value
    for path, value in overrides.items():
        merged[_normalise_path(path)] = value
    return merged
