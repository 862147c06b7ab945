"""DIODE-style integer-overflow discovery.

DIODE (ASPLOS 2015) "performs a directed search on the input space to discover
inputs that trigger integer overflow errors at memory allocation sites".  The
reproduction follows the same structure:

1. run the application, instrumented, on a seed input and record every
   allocation site together with the symbolic expression of its size in terms
   of input fields;
2. for a target site, search the values of exactly those fields for an
   assignment that makes the size computation overflow — using the symbolic
   overflow condition (via the SMT-lite engine) to propose witnesses and a
   structured schedule of boundary values to cover the cases the sampler
   misses;
3. confirm every proposed input by concretely re-running the application: an
   input is only reported when the run actually fails with an integer
   overflow (or the out-of-bounds write it causes) at the targeted site.

A confirming run is skipped when an earlier trial of the same ``Diode`` read
the same bytes: MicroC reads its input forward only, so an untracked run
depends on nothing but ``data[:input_extent]`` and ``len(data)`` (see
``docs/VM.md``), and such a trial reuses the earlier result.  The memo never
changes what is judged: every assignment still counts as a trial.

The same machinery is reused by patch validation ("CP runs the patched version
of the application through the DIODE error discovery tool to determine if
DIODE can generate new error-triggering inputs", §2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..formats.fields import FormatSpec
from ..lang.checker import Program
from ..lang.trace import AllocationRecord, ErrorKind, RunResult
from ..lang.vm import VM, VMConfig
from ..solver.equivalence import EquivalenceChecker
from ..solver.overflow import overflow_witness


@dataclass(frozen=True)
class OverflowFinding:
    """An error-triggering input for one allocation site."""

    error_input: bytes
    field_values: dict
    allocation_site: int
    site_function: str
    site_line: int
    result: RunResult


@dataclass
class DiodeOptions:
    """Search configuration."""

    #: Per-field candidate values tried by the structured schedule, expressed
    #: as fractions of the field's maximum plus explicit landmarks.
    max_candidates_per_field: int = 12
    #: Upper bound on the number of concrete executions per site.
    max_trials: int = 400
    #: Restrict the search to allocation sites in these functions (None = all).
    functions: Optional[frozenset[str]] = None


class Diode:
    """Goal-directed integer-overflow discovery at memory allocation sites."""

    def __init__(
        self,
        program: Program,
        format_spec: FormatSpec,
        options: Optional[DiodeOptions] = None,
        checker: Optional[EquivalenceChecker] = None,
    ) -> None:
        self.program = program
        self.format = format_spec
        self.options = options or DiodeOptions()
        self.checker = checker or EquivalenceChecker()
        self.trials = 0
        #: Trials that ran the VM; the rest reused an earlier trial's result.
        self.runs = 0
        # One VM serves every trial: runs reset all per-run state, and an
        # untracked run needs no field map (no byte gets a symbolic label).
        self._trial_vm = VM(program, config=VMConfig(track_symbolic=False))
        # Trial results by the bytes their run read, shared by every site this
        # instance attacks: len(data) -> input extent -> data[:extent] -> result.
        self._memo: dict[int, dict[int, dict[bytes, RunResult]]] = {}

    # -- public API ---------------------------------------------------------------

    def allocation_sites(self, seed: bytes) -> list[AllocationRecord]:
        """Allocation records observed on the seed input (one per execution)."""
        result = self._run(seed)
        records = result.allocations
        if self.options.functions is not None:
            records = [r for r in records if r.function in self.options.functions]
        return records

    def discover(self, seed: bytes, site_function: Optional[str] = None) -> list[OverflowFinding]:
        """Find error-triggering inputs for allocation sites reachable from ``seed``.

        ``site_function`` restricts the search to sites inside one function
        (used when validating a patch for a specific target).
        """
        findings: list[OverflowFinding] = []
        seen_sites: set[int] = set()
        for record in self.allocation_sites(seed):
            if site_function is not None and record.function != site_function:
                continue
            if record.site_id in seen_sites:
                continue
            seen_sites.add(record.site_id)
            finding = self.attack_site(seed, record)
            if finding is not None:
                findings.append(finding)
        return findings

    def attack_site(self, seed: bytes, record: AllocationRecord) -> Optional[OverflowFinding]:
        """Search for an input that overflows one allocation site.

        The trial budget applies per site (``self.trials`` accumulates the
        total across sites as a statistic only).  The seed's field map is
        parsed once per site; each trial only writes its assignment into a
        copy of the seed and runs it untracked, unless an earlier trial read
        the same bytes (:meth:`_trial`).
        """
        if record.symbolic is None:
            return None
        fields = sorted(record.symbolic.fields())
        if not fields:
            return None
        field_map = self.format.field_map(seed)
        fields = [path for path in fields if field_map.has_field(path)]
        if not fields:
            return None

        site_trials = 0
        for assignment in self._candidate_assignments(record, fields, field_map):
            if site_trials >= self.options.max_trials:
                break
            site_trials += 1
            self.trials += 1
            candidate = field_map.with_values(seed, assignment)
            result = self._trial(candidate)
            if self._hits_site(result, record):
                return OverflowFinding(
                    error_input=candidate,
                    field_values=dict(assignment),
                    allocation_site=record.site_id,
                    site_function=record.function,
                    site_line=record.line,
                    result=result,
                )
        return None

    # -- candidate generation -------------------------------------------------------

    def _candidate_assignments(
        self, record: AllocationRecord, fields: Sequence[str], field_map
    ) -> Iterable[dict]:
        """Assignments to try, most promising first."""
        # First: a witness from the symbolic overflow condition, if one exists.
        witness = overflow_witness(self.checker, record.symbolic)
        if witness is not None:
            filtered = {path: value for path, value in witness.items() if path in fields}
            if filtered:
                yield filtered

        # Then: a structured schedule over per-field landmark values.
        per_field_values = []
        for path in fields:
            width = field_map.field(path).width
            maximum = (1 << width) - 1
            landmarks = [
                maximum,
                maximum - 1,
                1 << (width - 1),
                (1 << (width - 1)) + 1,
                1 << (width // 2),
                (1 << (width // 2)) + 1,
                maximum // 3,
                maximum // 2,
                46341,  # ceil(sqrt(2^31)): the classic 32-bit product boundary
                65536,
                40000,
                33000,
                16385,
                255,
            ]
            values = []
            for value in landmarks:
                value &= maximum
                if value not in values and value > 0:
                    values.append(value)
            per_field_values.append(values[: self.options.max_candidates_per_field])

        for combination in itertools.product(*per_field_values):
            yield dict(zip(fields, combination))

    # -- execution helpers --------------------------------------------------------------

    def _run(self, data: bytes) -> RunResult:
        """A tracked run: its allocation records carry symbolic sizes."""
        vm = VM(self.program, config=VMConfig(track_symbolic=True))
        return vm.run(data, field_map=self.format.field_map(data))

    def _trial(self, data: bytes) -> RunResult:
        """The untracked run of ``data``, reused from an earlier trial when one
        of the same length read the same bytes (it cannot behave differently)."""
        by_extent = self._memo.setdefault(len(data), {})
        for extent, results in by_extent.items():
            result = results.get(data[:extent])
            if result is not None:
                return result
        self.runs += 1
        result = self._trial_vm.run(data)
        extent = result.input_extent
        by_extent.setdefault(extent, {})[data[:extent]] = result
        return result

    def _hits_site(self, result: RunResult, record: AllocationRecord) -> bool:
        """Whether the run failed with an overflow (or resulting OOB) at the site."""
        if not result.crashed or result.error is None:
            return False
        error = result.error
        if error.kind not in (ErrorKind.INTEGER_OVERFLOW, ErrorKind.OUT_OF_BOUNDS_WRITE):
            return False
        return error.function == record.function


def diode_rescan(
    program: Program,
    format_spec: FormatSpec,
    seed: bytes,
    site_function: Optional[str] = None,
    options: Optional[DiodeOptions] = None,
) -> list[OverflowFinding]:
    """Run a fresh DIODE pass (used by patch validation and the benchmarks)."""
    diode = Diode(program, format_spec, options=options)
    return diode.discover(seed, site_function=site_function)
