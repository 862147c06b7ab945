"""Start the repair daemon for the service workload, optionally traced.

    python3 perfbench/serve_launcher.py [--trace-dir DIR] serve --port 0 ...

Everything after the launcher's own option goes to ``repro.cli.main``.
With ``--trace-dir`` the layer wrappers of :mod:`perfbench.tracing` are
installed before the daemon starts, and its spans are written to ``DIR``
when it exits (on SIGINT, like ``codephage serve``).
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))


def main(argv: list[str]) -> int:
    import repro.cli

    recorder = None
    if argv[:1] == ["--trace-dir"]:
        from perfbench.tracing import SpanRecorder, install

        recorder = SpanRecorder(argv[1])
        install(recorder)
        argv = argv[2:]
    try:
        return repro.cli.main(argv)
    finally:
        if recorder is not None:
            recorder.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
