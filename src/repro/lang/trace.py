"""Execution traces, error reports, and instrumentation hooks.

A plain run of a MicroC application produces a :class:`RunResult`; an
instrumented run additionally records the artefacts CP consumes:

* :class:`BranchRecord` — one entry per executed conditional branch, with the
  direction taken and the symbolic condition (the raw material of candidate
  check discovery, §3.2),
* :class:`AllocationRecord` — one entry per ``malloc``, with the concrete and
  symbolic size and whether the size computation overflowed (the raw material
  of DIODE-style error discovery),
* the :class:`Hooks` callbacks that the CP insertion-point analysis uses to
  snapshot recipient state at program points.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Protocol

from ..symbolic import builder
from ..symbolic.expr import Expr
from ..symbolic.simplify import simplify


class ErrorKind(enum.Enum):
    """Classes of runtime errors the VM detects (the paper's three, plus
    null dereference and resource exhaustion for completeness)."""

    INTEGER_OVERFLOW = "integer-overflow"
    OUT_OF_BOUNDS_WRITE = "out-of-bounds-write"
    OUT_OF_BOUNDS_READ = "out-of-bounds-read"
    DIVIDE_BY_ZERO = "divide-by-zero"
    NULL_DEREFERENCE = "null-dereference"
    RESOURCE_EXHAUSTED = "resource-exhausted"


class RunStatus(enum.Enum):
    """How an execution terminated."""

    OK = "ok"                # main returned normally
    EXIT = "exit"            # exit() was called (e.g. by an inserted patch)
    ERROR = "error"          # a runtime error was detected


@dataclass(frozen=True)
class ErrorReport:
    """A detected runtime error."""

    kind: ErrorKind
    message: str
    function: str
    statement_id: int
    line: int

    def location(self) -> str:
        return f"{self.function}@{self.line}"


@dataclass(frozen=True)
class BranchRecord:
    """One execution of a conditional branch."""

    branch_id: int          # node id of the if/while statement
    function: str
    line: int
    taken: bool
    condition_value: int
    symbolic: Optional[Expr]
    sequence: int           # execution order index within the run

    def fields(self) -> frozenset[str]:
        if self.symbolic is None:
            return frozenset()
        return self.symbolic.fields()


@dataclass(frozen=True)
class AllocationRecord:
    """One execution of an allocation site."""

    site_id: int            # node id of the malloc call expression
    statement_id: int       # node id of the enclosing statement
    function: str
    line: int
    size: int               # wrapped size passed to malloc
    true_size: int          # infinite-precision size of the same computation
    symbolic: Optional[Expr]
    overflowed: bool
    sequence: int

    def fields(self) -> frozenset[str]:
        if self.symbolic is None:
            return frozenset()
        return self.symbolic.fields()


@dataclass(frozen=True)
class DivisionRecord:
    """One executed division/remainder whose divisor is input-dependent."""

    site_id: int
    function: str
    line: int
    divisor: int
    symbolic: Optional[Expr]
    sequence: int


@dataclass
class RunResult:
    """Outcome of one execution."""

    status: RunStatus
    exit_code: int = 0
    error: Optional[ErrorReport] = None
    output: list[int] = field(default_factory=list)
    branches: list[BranchRecord] = field(default_factory=list)
    allocations: list[AllocationRecord] = field(default_factory=list)
    divisions: list[DivisionRecord] = field(default_factory=list)
    steps: int = 0
    fields_read: frozenset[str] = frozenset()
    #: How many leading input bytes the run could have observed:
    #: ``min(final cursor, len(data))``.  Input is read forward only, so an
    #: untracked run is a function of ``data[:input_extent]`` and ``len(data)``.
    input_extent: int = 0

    @property
    def ok(self) -> bool:
        """Whether the run completed without a detected error.

        Note that an ``exit()`` call (used by donor checks and inserted
        patches to reject an input) still counts as processing the input
        without error.
        """
        return self.status is not RunStatus.ERROR

    @property
    def crashed(self) -> bool:
        return self.status is RunStatus.ERROR

    @property
    def accepted(self) -> bool:
        """Whether the input was processed to completion (not rejected)."""
        return self.status is RunStatus.OK and self.exit_code == 0

    def behaviour(self) -> tuple:
        """A comparable summary used by regression testing (output + exit)."""
        return (self.status, self.exit_code, tuple(self.output))


# ---------------------------------------------------------------------------
# Batched record materialisation (compiled execution tier)
# ---------------------------------------------------------------------------
#
# The compiled tier (repro.lang.bytecode) does not build record dataclasses
# or simplify branch conditions while the dispatch loop is hot; it appends
# raw tuples and materialises them here once, after the run.  The sequence
# counters in the interpreter increment exactly once per appended record, so
# the enumeration index reproduces them.


def materialize_branches(raw: list, simplify_options) -> list[BranchRecord]:
    """Build :class:`BranchRecord` objects from ``(marker, taken, value,
    symbolic)`` tuples, where ``marker`` is ``(function, branch_id, line)``."""
    records = []
    for sequence, (marker, taken, condition_value, symbolic) in enumerate(raw):
        if symbolic is not None:
            symbolic = simplify(builder.is_nonzero(symbolic), simplify_options)
        records.append(
            BranchRecord(
                branch_id=marker[1],
                function=marker[0],
                line=marker[2],
                taken=taken,
                condition_value=condition_value,
                symbolic=symbolic,
                sequence=sequence,
            )
        )
    return records


def materialize_concrete_branches(raw: list) -> list[BranchRecord]:
    """Build :class:`BranchRecord` objects from the concrete artifact's
    ``(marker, condition_value)`` pairs: no symbolic half, and ``taken`` is
    ``condition_value != 0`` exactly as the interpreter derives it."""
    new = object.__new__
    records = []
    append = records.append
    for sequence, (marker, condition_value) in enumerate(raw):
        # A frozen dataclass's __init__ goes through object.__setattr__ per
        # field; filling __dict__ directly builds the identical record.
        record = new(BranchRecord)
        record.__dict__.update(
            branch_id=marker[1],
            function=marker[0],
            line=marker[2],
            taken=condition_value != 0,
            condition_value=condition_value,
            symbolic=None,
            sequence=sequence,
        )
        append(record)
    return records


def materialize_allocations(raw: list) -> list[AllocationRecord]:
    """Build :class:`AllocationRecord` objects from raw allocation tuples."""
    return [
        AllocationRecord(
            site_id=site_id,
            statement_id=statement_id,
            function=function,
            line=line,
            size=size,
            true_size=true_size,
            symbolic=symbolic,
            overflowed=overflowed,
            sequence=sequence,
        )
        for sequence, (
            site_id,
            statement_id,
            function,
            line,
            size,
            true_size,
            symbolic,
            overflowed,
        ) in enumerate(raw)
    ]


def materialize_divisions(raw: list) -> list[DivisionRecord]:
    """Build :class:`DivisionRecord` objects from raw division tuples."""
    return [
        DivisionRecord(
            site_id=site_id,
            function=function,
            line=line,
            divisor=divisor,
            symbolic=symbolic,
            sequence=sequence,
        )
        for sequence, (site_id, function, line, divisor, symbolic) in enumerate(raw)
    ]


class Hooks(Protocol):
    """Instrumentation callbacks; all methods are optional no-ops by default."""

    def on_statement(self, vm, frame, statement) -> None:  # pragma: no cover - protocol
        ...

    def on_branch(self, vm, frame, record: BranchRecord) -> None:  # pragma: no cover
        ...

    def on_allocation(self, vm, frame, record: AllocationRecord) -> None:  # pragma: no cover
        ...

    def on_call(self, vm, frame) -> None:  # pragma: no cover
        ...

    def on_return(self, vm, frame) -> None:  # pragma: no cover
        ...


class NullHooks:
    """Default hooks implementation: does nothing."""

    def on_statement(self, vm, frame, statement) -> None:
        return None

    def on_branch(self, vm, frame, record: BranchRecord) -> None:
        return None

    def on_allocation(self, vm, frame, record: AllocationRecord) -> None:
        return None

    def on_call(self, vm, frame) -> None:
        return None

    def on_return(self, vm, frame) -> None:
        return None


#: Shared do-nothing hooks for runs that install none.
NULL_HOOKS = NullHooks()
