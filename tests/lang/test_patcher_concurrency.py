"""The patcher renders from a checked program that every caller shares.

``apply_patch`` reads the recipient's AST from the checked program
``compile_program`` caches for its source, and the repair daemon's worker
threads patch the same recipient at the same time.  Rendering a patch must
therefore never touch that shared AST: a patcher that splices the patch
statement in, renders, and takes it out again lets one thread render the
other's patch, and a badly timed removal leaves the cached AST corrupted
for every later caller.
"""

from __future__ import annotations

import sys
import threading

from repro.apps.registry import get_application
from repro.lang import SourcePatch, apply_patch, compile_program
from repro.lang.printer import render_program

ROUNDS = 300


def _patches(program) -> list[SourcePatch]:
    anchors = [statement.node_id for statement in program.unit.all_statements()][:6]
    return [
        SourcePatch(anchor, f"{index} > {index + 1}")
        for index, anchor in enumerate(anchors)
    ]


def test_concurrent_patches_match_their_serial_results_and_leave_the_ast_intact():
    application = get_application("cwebp")
    source, name = application.source, application.full_name
    program = compile_program(source, name=name)
    rendered = render_program(program.unit)
    patches = _patches(program)
    serial = {patch: apply_patch(source, patch, name).source for patch in patches}

    mismatches: list[str] = []

    def patch_repeatedly(own: list[SourcePatch]) -> None:
        for _ in range(ROUNDS):
            for patch in own:
                try:
                    result = apply_patch(source, patch, name).source
                except Exception as error:  # a corrupted AST fails to recompile
                    mismatches.append(f"{patch.insertion_statement_id}: {error}")
                    continue
                if result != serial[patch]:
                    mismatches.append(f"{patch.insertion_statement_id}: wrong source")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        threads = [
            threading.Thread(target=patch_repeatedly, args=(patches[:3],)),
            threading.Thread(target=patch_repeatedly, args=(patches[3:],)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)

    assert not mismatches, f"{len(mismatches)} results differ, e.g. {mismatches[:3]}"
    # A later serial caller still gets the serial result ...
    for patch in patches:
        assert apply_patch(source, patch, name).source == serial[patch]
    # ... and the shared checked program renders exactly as before.
    assert compile_program(source, name=name) is program
    assert render_program(program.unit) == rendered
