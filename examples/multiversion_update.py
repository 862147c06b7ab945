#!/usr/bin/env python3
"""Multiversion code transfer: a targeted Wireshark update (§1.2, §4.5).

Wireshark 1.4.14 divides by a zero payload-length field when dissecting
degenerate DCP-ETSI packets.  Instead of upgrading to 1.8.6 (with all the
disruption a full upgrade brings), Code Phage transfers just the ``if
(real_len)`` guard from the newer version — and, following §4.5, can generate
either the exit(-1) patch or the "return 0 and keep going" variant.

Run with::

    python examples/multiversion_update.py
"""

from repro.api import CodePhageOptions, RepairRequest, repair
from repro.core import PatchStrategy
from repro.experiments import ERROR_CASES
from repro.formats import get_format
from repro.lang import compile_program, run_program


def transfer(strategy: PatchStrategy):
    case = ERROR_CASES["wireshark-dcp"]
    request = RepairRequest.for_case(case, donor="wireshark-1.8.6")
    options = CodePhageOptions(patch_strategy=strategy)
    return case, repair(request, options=options).outcome


def main() -> None:
    fmt = get_format("dcp")

    for strategy in (PatchStrategy.EXIT, PatchStrategy.RETURN_ZERO):
        case, outcome = transfer(strategy)
        check = outcome.checks[-1]
        print(f"=== strategy: {strategy.value} ===")
        print("patch:", check.patch.render())

        patched = compile_program(outcome.patched_source, name="wireshark-patched")
        error_input = case.error_input()
        result = run_program(patched, error_input, fmt.field_map(error_input))
        print(f"degenerate packet -> {result.status.value} "
              f"(exit {result.exit_code}, output {result.output})")
        normal = case.seed_input()
        ok = run_program(patched, normal, fmt.field_map(normal))
        print(f"normal packet     -> {ok.status.value} (output {ok.output})")
        print()


if __name__ == "__main__":
    main()
