"""Check excision (§3.2's "Check Excision" stage).

Excision turns a candidate donor check into its application-independent form:
a symbolic expression over named input fields capturing every computation the
donor performed to produce the branch condition — endianness conversions,
casts, shifts, masks, and all.  In this reproduction the instrumented VM
already reconstructs that expression during execution: excision takes the
condition of the chosen branch from the donor's tracked run on the
error-triggering input, the run check discovery made with the requested
simplification options (the rewrite-rule ablation disables the Figure 5
rules there).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..lang.trace import RunResult
from ..symbolic import builder, metrics
from ..symbolic.expr import Expr
from .check_discovery import CandidateCheck


@dataclass(frozen=True)
class ExcisedCheck:
    """The application-independent form of a donor check."""

    candidate: CandidateCheck
    condition: Expr       # the branch condition over input fields
    guard: Expr           # condition under which the input must be rejected
    donor: str = ""

    @property
    def fields(self) -> frozenset[str]:
        return self.condition.fields()

    @property
    def operation_count(self) -> int:
        return metrics.operation_count(self.condition)


def excise_check(
    candidate: CandidateCheck,
    donor_name: str = "",
    error_run: Optional[RunResult] = None,
) -> ExcisedCheck:
    """Excise ``candidate`` into its application-independent form.

    ``error_run`` is the donor's tracked run on the error input (check
    discovery's ``error_run``); the condition is that of its first symbolic
    record of the candidate's branch, so it reflects the simplification
    options the run was made with.  Without it the condition recorded during
    candidate discovery is used.
    """
    condition = candidate.condition
    if error_run is not None:
        for record in error_run.branches:
            if record.branch_id == candidate.branch_id and record.symbolic is not None:
                condition = record.symbolic
                break

    guard = condition if candidate.error_direction else builder.logical_not(condition)
    return ExcisedCheck(
        candidate=candidate, condition=condition, guard=guard, donor=donor_name
    )
