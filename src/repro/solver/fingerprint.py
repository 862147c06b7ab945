"""Value fingerprints: an expression's values on a fixed bank of points.

Rewrite (paper Figure 7) asks, at every donor subtree, whether some
recipient name always equals that subtree.  Two equivalent expressions agree
on every input, so in particular they agree on any fixed bank of inputs.
Bucketing names by their values on such a bank sends only the names that
could match to the equivalence checker: this is the candidate index of
Bansal and Aiken's peephole superoptimizer ("Automatic Generation of
Peephole Superoptimizers", ASPLOS 2006).  The checker still decides every
match; the index can only withhold a name the bank refutes.

Every input-field path gets :data:`POINTS` values: the corner values of
:data:`_CORNERS`, then random values from a generator seeded with the path
*string*.  The bank is therefore the same in every process, and so is which
names reach the checker.  Values are drawn at 64 bits; :func:`evaluate`
masks each field leaf to its own width, so one value per path is always a
consistent assignment, whatever widths the path is read at.
"""

from __future__ import annotations

import random

from ..symbolic.evaluate import evaluate
from ..symbolic.expr import Expr

#: Points per bank, and therefore values per fingerprint.
POINTS = 16

#: The first values of every path's bank (masked to the leaf's width).
_CORNERS = (0, 1, 0x7F, 0x80, 0xFF, (1 << 64) - 1)


def path_bank(path: str) -> tuple[int, ...]:
    """The :data:`POINTS` values input field ``path`` takes on the bank."""
    rng = random.Random(f"rewrite-fingerprint:{path}")
    randoms = tuple(rng.getrandbits(64) for _ in range(POINTS - len(_CORNERS)))
    return _CORNERS + randoms


class Fingerprints:
    """Per-session memo of fingerprints, owned by the equivalence checker.

    Expressions are interned, so the memo hashes by identity and a warm
    session pays one dict probe per expression.  :attr:`derived` memoises
    expressions a caller builds before fingerprinting them (Rewrite's
    width-adapted names) under the caller's own keys.
    """

    def __init__(self) -> None:
        self._banks: dict[str, tuple[int, ...]] = {}
        self._memo: dict[Expr, tuple[int, ...]] = {}
        self.derived: dict[tuple, tuple[Expr, tuple[int, ...]]] = {}

    def of(self, expr: Expr) -> tuple[int, ...]:
        """``expr``'s values on the bank, one per point."""
        fingerprint = self._memo.get(expr)
        if fingerprint is None:
            banks = [(path, self._bank(path)) for path in expr.fields()]
            fingerprint = tuple(
                evaluate(expr, {path: values[point] for path, values in banks})
                for point in range(POINTS)
            )
            self._memo[expr] = fingerprint
        return fingerprint

    def _bank(self, path: str) -> tuple[int, ...]:
        bank = self._banks.get(path)
        if bank is None:
            bank = self._banks[path] = path_bank(path)
        return bank

    def __len__(self) -> int:
        return len(self._memo)
