"""Candidate insertion point identification and unstable-point filtering (§3.3).

CP runs an instrumented version of the recipient on the seed input.  A
statement is a *candidate insertion point* when, at some execution of that
statement, the enclosing function has read all of the input fields that the
excised check needs.  Because multipurpose code can execute the same point
with different values on different executions, CP filters out *unstable*
points — points whose reachable relevant values differ across executions — so
that the inserted check "performs the check only when it is relevant to the
error".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..formats.fields import FieldMap
from ..lang.checker import Program
from ..lang.compile import run_compiled
from ..lang.trace import RunResult
from ..lang.vm import VM, VMConfig
from .traversal import RecipientName, names_at_statement


@dataclass(frozen=True)
class InsertionPoint:
    """A stable candidate insertion point with its reachable relevant values."""

    statement_id: int
    function: str
    line: int
    names: tuple[RecipientName, ...]


@dataclass
class InsertionReport:
    """Outcome of the insertion-point analysis for one recipient/check pair.

    The Figure 8 accounting ``X - Y - Z = W`` reads: ``X`` candidate points,
    minus ``Y`` unstable points, minus ``Z`` points where translation fails,
    leaves ``W`` usable points.  ``Z`` and ``W`` are filled in later by the
    rewrite stage; this report provides ``X`` and ``Y`` and the stable points.
    """

    required_fields: frozenset[str]
    candidate_count: int
    unstable_count: int
    stable_points: list[InsertionPoint] = field(default_factory=list)
    unstable_points: list[InsertionPoint] = field(default_factory=list)
    run_result: Optional[RunResult] = None

    @property
    def stable_count(self) -> int:
        return self.candidate_count - self.unstable_count


class _InsertionHooks:
    """VM hooks that snapshot reachable names at qualifying program points."""

    def __init__(self, program: Program, required_fields: frozenset[str]) -> None:
        self.program = program
        self.required_fields = required_fields
        # statement id -> list of snapshots (one per qualifying execution)
        self.snapshots: dict[int, list[tuple[RecipientName, ...]]] = {}
        self.locations: dict[int, tuple[str, int]] = {}

    # Hook protocol -----------------------------------------------------------

    def on_statement(self, vm, frame, statement) -> None:
        if not self.required_fields:
            return
        if not self.required_fields.issubset(frame.fields_accessed):
            return
        if not self.program.debug_info.has(statement.node_id):
            return
        names = names_at_statement(
            frame.locals, vm.globals, self.program.debug_info, statement.node_id
        )
        relevant = tuple(
            name for name in names if name.expression.fields() & self.required_fields
        )
        self.snapshots.setdefault(statement.node_id, []).append(relevant)
        self.locations[statement.node_id] = (frame.function, statement.line)

    def on_branch(self, vm, frame, record) -> None:
        return None

    def on_allocation(self, vm, frame, record) -> None:
        return None

    def on_call(self, vm, frame) -> None:
        return None

    def on_return(self, vm, frame) -> None:
        return None


class _SlotLocals:
    """Read-only name -> Cell view of a compiled activation's local slots.

    ``collect_names`` only calls ``.get`` and reads ``cell.value``.  Boxed
    and dynamic slots hold real :class:`Cell` objects; simple slots hold raw
    runtime values and are wrapped in a fresh Cell here (safe because a
    simple slot is by construction never address-taken, so cell identity is
    not observable).  A ``None`` slot means the declaration has not executed
    yet on this path — absent, exactly like the interpreter's flat locals
    before the ``VarDecl`` runs.

    Wrapper cells are kept alive in ``wrapper_cache`` (keyed by slot, reused
    while the slot still holds the same value object): the traversal dedupes
    reachable cells by ``id()``, so letting a transient wrapper be freed
    would let the next one reuse its address and be wrongly pruned — and
    loop-heavy programs snapshot the same unchanged slots hundreds of times.
    """

    __slots__ = ("L", "slot_map", "wrapper_cache")

    def __init__(self, L: list, slot_map: dict, wrapper_cache: dict) -> None:
        self.L = L
        self.slot_map = slot_map
        self.wrapper_cache = wrapper_cache

    def get(self, name: str, default=None):
        entry = self.slot_map.get(name)
        if entry is None:
            return default
        slot, kind, ctype = entry
        value = self.L[slot]
        if value is None:
            return default
        if kind == 0:  # _SIMPLE slot: raw runtime value
            cached = self.wrapper_cache.get(slot)
            if cached is not None and cached.value is value:
                return cached
            cell = _RootCell(ctype, value)
            self.wrapper_cache[slot] = cell
            return cell
        return value  # _BOXED/_DYN slots hold the Cell itself


class _RootCell:
    """Minimal cell stand-in for simple-slot values handed to the traversal
    (which reads only ``value`` and dedupes by object identity)."""

    __slots__ = ("declared_type", "value")

    def __init__(self, declared_type, value) -> None:
        self.declared_type = declared_type
        self.value = value


class _CompiledCollector:
    """Observed-tier counterpart of :class:`_InsertionHooks`.

    Invoked at every post-statement ``OP_OBS`` point of the compiled
    observed artifact with the activation's accumulated field reads
    (``rt.frame_fields``) standing in for ``Frame.fields_accessed``.
    """

    __slots__ = (
        "vm",
        "debug_info",
        "required_fields",
        "snapshots",
        "locations",
        "_wrapper_caches",
    )

    def __init__(
        self, vm: VM, program: Program, required_fields: frozenset[str]
    ) -> None:
        self.vm = vm
        self.debug_info = program.debug_info
        self.required_fields = required_fields
        self.snapshots: dict[int, list[tuple[RecipientName, ...]]] = {}
        self.locations: dict[int, tuple[str, int]] = {}
        # One wrapper cache per compiled function (slot maps are per-function
        # and live as long as the compiled program, so their ids are stable).
        self._wrapper_caches: dict[int, dict] = {}

    def __call__(self, rt, marker, slot_map, L) -> None:
        required = self.required_fields
        if not required.issubset(rt.frame_fields):
            return
        statement_id = marker[1]
        if not self.debug_info.has(statement_id):
            return
        caches = self._wrapper_caches
        key = id(slot_map)
        cache = caches.get(key)
        if cache is None:
            cache = caches[key] = {}
        names = names_at_statement(
            _SlotLocals(L, slot_map, cache),
            self.vm.globals,
            self.debug_info,
            statement_id,
        )
        relevant = tuple(
            name for name in names if name.expression.fields() & required
        )
        self.snapshots.setdefault(statement_id, []).append(relevant)
        self.locations[statement_id] = (marker[0], marker[2])


def find_insertion_points(
    program: Program,
    seed_input: bytes,
    field_map: FieldMap,
    required_fields: frozenset[str],
) -> InsertionReport:
    """Run the recipient on the seed input and identify insertion points."""
    vm = VM(program, config=VMConfig(track_symbolic=True))
    if vm.config.use_compiled:
        if required_fields:
            collector = _CompiledCollector(vm, program, required_fields)
            result = run_compiled(
                vm, seed_input, field_map=field_map, observer=collector
            )
            snapshots, locations = collector.snapshots, collector.locations
        else:
            # No required fields: no statement can ever qualify, so a plain
            # compiled run (no observed artifact) produces the same report.
            result = run_compiled(vm, seed_input, field_map=field_map)
            snapshots, locations = {}, {}
    else:
        hooks = _InsertionHooks(program, required_fields)
        result = vm.run(seed_input, field_map=field_map, hooks=hooks)
        snapshots, locations = hooks.snapshots, hooks.locations

    report = InsertionReport(
        required_fields=required_fields,
        candidate_count=len(snapshots),
        unstable_count=0,
        run_result=result,
    )
    for statement_id, executions in sorted(snapshots.items()):
        function, line = locations[statement_id]
        point = InsertionPoint(
            statement_id=statement_id,
            function=function,
            line=line,
            names=executions[0],
        )
        if _is_unstable(executions):
            report.unstable_count += 1
            report.unstable_points.append(point)
            continue
        report.stable_points.append(point)
    return report


def _is_unstable(snapshots: list[tuple[RecipientName, ...]]) -> bool:
    """A point is unstable when different executions see different values."""
    if len(snapshots) <= 1:
        return False
    first = snapshots[0]
    return any(snapshot != first for snapshot in snapshots[1:])
