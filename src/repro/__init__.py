"""Code Phage (CP) reproduction.

Automatic error elimination by horizontal code transfer across multiple
applications (Sidiroglou-Douskos, Lahtinen, Long, Rinard -- PLDI 2015).

The top-level package exposes the subpackages of the reproduction; see
``README.md`` for a quickstart and ``DESIGN.md`` for the full system map.

Subpackages
-----------
``repro.symbolic``
    Application-independent bitvector expression IR, simplifier, printers.
``repro.solver``
    SMT-lite equivalence/satisfiability engine (CDCL SAT + bit-blasting).
``repro.formats``
    Hachoir-style input field trees and the simplified binary formats.
``repro.lang``
    MicroC: the application substrate (parser, compiler, taint/symbolic VM).
``repro.apps``
    The donor and recipient applications used in the paper's evaluation.
``repro.discovery``
    DIODE-style integer-overflow discovery and a mutational fuzzer.
``repro.core``
    The Code Phage pipeline itself (the paper's contribution): the
    transfer engine, the event stream, and the per-stage algorithms.
``repro.api``
    The public repair surface: ``RepairRequest`` -> ``RepairReport``.
``repro.campaign``
    Parallel, resumable batch campaigns over the evaluation space.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
