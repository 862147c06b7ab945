#!/usr/bin/env python3
"""Continuous multiple-application improvement (§1.2).

The paper sketches a system that continuously runs error-discovery tools
(DIODE, fuzzers) over a library of applications and uses horizontal code
transfer to repair every error they find.  This example runs that loop over
three recipients: errors are *discovered from scratch* by the in-repo DIODE
reproduction and field fuzzer (not taken from the benchmark definitions), and
each discovered error is repaired by transferring a check from whichever donor
in the application database validates first.

Run with::

    python examples/continuous_improvement.py
"""

from repro.api import RepairRequest, RepairSession
from repro.apps import get_application
from repro.core import select_donors
from repro.core.reporting import ResultsDatabase
from repro.discovery import Diode, FieldFuzzer, FuzzerOptions
from repro.formats import get_format
from repro.lang import ErrorKind


#: (application, format, discovery tool) triples to sweep.
LIBRARY = [
    ("cwebp", "jpeg", "diode"),
    ("gif2tiff", "gif", "fuzzer"),
    ("wireshark-1.4.14", "dcp", "fuzzer"),
]


def discover(app_name: str, format_name: str, tool: str):
    """Run the discovery tool and return (seed, error_input, target) or None."""
    application = get_application(app_name)
    fmt = get_format(format_name)
    seed = fmt.build()
    if tool == "diode":
        findings = Diode(application.program(), fmt).discover(seed)
        if not findings:
            return None
        finding = findings[0]
        error_input, function = finding.error_input, finding.site_function
    else:
        fuzzer = FieldFuzzer(application.program(), fmt, FuzzerOptions(iterations=500, stop_after=1))
        findings = fuzzer.campaign(seed, application=app_name)
        if not findings:
            return None
        finding = findings[0]
        error_input, function = findings[0].error_input, finding.report.function
    target = next(t for t in application.targets if t.site_function == function)
    return seed, error_input, target


def main() -> None:
    database = ResultsDatabase()
    session = RepairSession()

    for app_name, format_name, tool in LIBRARY:
        application = get_application(app_name)
        print(f"=== {application.full_name} ({format_name}, discovery: {tool}) ===")
        discovered = discover(app_name, format_name, tool)
        if discovered is None:
            print("no error discovered\n")
            continue
        seed, error_input, target = discovered
        print(f"discovered error at {target.target_id} ({target.error_kind.value})")

        selection = select_donors(format_name, seed, error_input, recipient=application)
        print("candidate donors:", [donor.full_name for donor in selection.donors])

        request = RepairRequest(application, target, seed, error_input, format_name,
                                donors=selection.donors)
        outcome = session.run(request).outcome
        record = database.add(outcome)
        if outcome.success:
            print(f"repaired with a check from {outcome.donor}:")
            print("  ", outcome.checks[-1].patch.render())
        else:
            print("repair failed:", outcome.failure_reason)
        print()

    print(database.to_table(title="Continuous improvement sweep"))


if __name__ == "__main__":
    main()
