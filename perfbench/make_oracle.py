"""Generate or confirm ``figure8_oracle.json``.

    python3 perfbench/make_oracle.py           # write the oracle
    python3 perfbench/make_oracle.py --check   # confirm the committed one

Both modes run all 18 Figure 8 rows in three seeded row orders on the
compiled tier and once more on the interpreter tier
(``set_default_execution_tier(False)``), each pass on a fresh
``RepairSession``, and refuse to write or confirm unless every pass gives
byte-identical results.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench.oracle import ORACLE_PATH, expected_row, load_figure8_oracle, row_key  # noqa: E402


def figure8_results(order_seed: int) -> dict[str, dict]:
    from repro.api import RepairRequest, RepairSession
    from repro.apps import get_application
    from repro.experiments import FIGURE8_ROWS

    rows = list(FIGURE8_ROWS)
    random.Random(order_seed).shuffle(rows)
    session = RepairSession()
    results = {}
    for row in rows:
        report = session.run(
            RepairRequest.for_case(row.case, donor=get_application(row.donor))
        )
        results[row_key(row.case_id, row.donor)] = expected_row(report.outcome)
    return dict(sorted(results.items()))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="confirm the committed oracle")
    args = parser.parse_args(argv)

    from repro.api import set_default_execution_tier

    passes = {f"compiled, order {seed}": figure8_results(seed) for seed in (0, 1, 2)}
    set_default_execution_tier(False)
    passes["interpreter"] = figure8_results(0)
    reference = passes["compiled, order 0"]
    for label, results in passes.items():
        if results != reference:
            print(f"error: {label} disagrees with compiled order 0", file=sys.stderr)
            return 1
    if args.check:
        if load_figure8_oracle() != reference:
            print(f"error: {ORACLE_PATH.name} does not match this tree", file=sys.stderr)
            return 1
        print(f"{ORACLE_PATH.name}: {len(reference)} rows confirmed on {len(passes)} passes")
        return 0
    ORACLE_PATH.write_text(json.dumps({"rows": reference}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {ORACLE_PATH.name}: {len(reference)} rows, identical on {len(passes)} passes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
