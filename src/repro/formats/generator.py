"""Input generation and mutation.

The CP experiments obtain their seed and error-triggering inputs from DIODE,
from standard fuzzing, and from CVE proof-of-concept inputs.  This module
provides the building blocks those tools (and the regression suites used
during patch validation) need: seed corpora per format and field-level
mutation of existing inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .fields import FormatSpec


@dataclass(frozen=True)
class LabeledInput:
    """An input file plus the format it was generated for."""

    data: bytes
    format_name: str
    description: str = ""


class InputGenerator:
    """Seed corpora and field mutations for a given format."""

    def __init__(self, format_spec: FormatSpec, seed: int = 0xD10DE) -> None:
        self.format = format_spec
        self._random = random.Random(seed)

    # -- seed corpora ------------------------------------------------------------

    def seed_input(self) -> bytes:
        """The canonical, well-formed seed input."""
        return self.format.build()

    def regression_corpus(self, count: int = 8) -> list[bytes]:
        """A small corpus of benign inputs used as a regression suite.

        The corpus varies every field over modest values that keep the inputs
        well within the applications' supported ranges.
        """
        corpus = [self.seed_input()]
        layout = self.format.field_map(corpus[0])
        paths = layout.paths()
        for index in range(count - 1):
            values: dict[str, int] = {}
            for path in paths:
                width = layout.field(path).width
                # Small benign values, mimicking real-world files: single-byte
                # fields (sampling factors, colour types, code sizes, tile
                # counts) stay in 1..4; wider fields (dimensions, lengths)
                # stay in 1..64.  Never zero: zero-sized dimensions are not
                # representative regression inputs.
                maximum = 4 if width <= 8 else 64
                values[path] = self._random.randrange(1, maximum + 1)
            corpus.append(self.format.build(values))
        return corpus

    # -- mutation ----------------------------------------------------------------

    def mutate_field(self, base: bytes, path: str, value: int) -> bytes:
        """Return ``base`` with a single field replaced."""
        return self.format.with_values(base, **{path: value})

    def random_field_mutations(
        self, base: bytes, count: int, paths: Sequence[str] | None = None
    ) -> Iterator[bytes]:
        """Yield ``count`` single-field mutations of ``base``.

        Mutated values are drawn from a mix of boundary values (zero, small,
        maximum, powers of two) and uniformly random values — the classic
        fuzzing value schedule.
        """
        layout = self.format.field_map(base)
        candidate_paths = list(paths) if paths is not None else layout.paths()
        for _ in range(count):
            path = self._random.choice(candidate_paths)
            width = layout.field(path).width
            yield self.mutate_field(base, path, self._interesting_value(width))

    def _interesting_value(self, width: int) -> int:
        maximum = (1 << width) - 1
        boundary = [0, 1, 2, maximum, maximum - 1, maximum // 2, 1 << (width - 1)]
        boundary.extend((1 << shift) for shift in range(0, width, 4))
        if self._random.random() < 0.6:
            return self._random.choice(boundary) & maximum
        return self._random.getrandbits(width)


def corpus_for(formats: Iterable[FormatSpec], per_format: int = 4) -> list[LabeledInput]:
    """A labelled corpus across several formats (used by the donor database)."""
    corpus: list[LabeledInput] = []
    for format_spec in formats:
        generator = InputGenerator(format_spec)
        for index, data in enumerate(generator.regression_corpus(per_format)):
            corpus.append(
                LabeledInput(
                    data=data,
                    format_name=format_spec.name,
                    description=f"{format_spec.name} regression input {index}",
                )
            )
    return corpus
