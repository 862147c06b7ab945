"""Debugging information for MicroC programs.

CP's check-insertion phase relies on the recipient's debugging information:
"To find the values, CP uses the debugging information from the recipient
binary to identify the local and global variables available at that candidate
insertion point.  Using these variables as roots, it traverses the data
structures..." (§2, §3.3).

The MicroC checker produces the equivalent artefact: for every statement
(program point) the set of variables in scope together with their declared
types, plus the struct layouts needed by the Figure 6 traversal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .types import StructTable, Type


@dataclass(frozen=True)
class ScopeVariable:
    """A variable visible at a program point."""

    name: str
    type: Type
    kind: str  # "local", "param", or "global"


@dataclass
class DebugInfo:
    """Per-program-point scope information plus type layouts."""

    struct_table: StructTable
    #: statement node_id -> variables in scope immediately *after* the statement.
    scopes: dict[int, tuple[ScopeVariable, ...]] = field(default_factory=dict)
    #: statement node_id -> enclosing function name.
    functions: dict[int, str] = field(default_factory=dict)
    #: function name -> variables in scope at function entry (parameters + globals).
    entry_scopes: dict[str, tuple[ScopeVariable, ...]] = field(default_factory=dict)

    def record(self, statement_id: int, function: str, variables: Iterable[ScopeVariable]) -> None:
        self.scopes[statement_id] = tuple(variables)
        self.functions[statement_id] = function

    def scope_at(self, statement_id: int) -> tuple[ScopeVariable, ...]:
        """Variables in scope immediately after the given statement."""
        try:
            return self.scopes[statement_id]
        except KeyError:
            raise KeyError(f"no debug information for statement {statement_id}") from None

    def has(self, statement_id: int) -> bool:
        return statement_id in self.scopes

    def variable(self, statement_id: int, name: str) -> Optional[ScopeVariable]:
        for entry in self.scope_at(statement_id):
            if entry.name == name:
                return entry
        return None
