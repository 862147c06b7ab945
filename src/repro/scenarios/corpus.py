"""Scenario corpora: deterministic batches of generated pairs, with a manifest.

A corpus is the unit the transfer matrix runs over: ``pairs_per_class``
donor/recipient pairs for every requested :class:`ErrorKind`, formats rotated
per pair so a class is exercised over several input formats.  Everything is a
pure function of :class:`CorpusConfig`, so

* the same config always yields byte-identical sources, names, and case ids
  (and therefore byte-identical campaign job ids — resume safety);
* campaign workers do not need the generating process alive: the corpus is
  written to a JSON **manifest** which workers load and register from
  (:mod:`repro.scenarios.runner`).

Corpora span **hardness dimensions** (:data:`HARDNESS_DIMENSIONS`): the
``baseline`` diagonal the paper evaluates, plus adversarial dimensions —
multi-defect recipients, cross-format donors, near-miss donors the
validation must reject, and mutation-discovered triggers.  Each requested
dimension contributes ``pairs_per_class`` pairs per error class.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Optional

from ..lang.trace import ErrorKind
from .generate import (
    ScenarioError,
    ScenarioPair,
    suitable_fields,
    synthesize_cross_format_pair,
    synthesize_multi_defect_pair,
    synthesize_mutation_pair,
    synthesize_near_miss_pair,
    synthesize_pair,
)
from .templates import NEAR_MISS_MODES, TEMPLATES

#: Manifest schema version; bump when the payload shape changes.
MANIFEST_VERSION = 2

#: Manifest versions this reader still accepts (v1 pairs deserialize with
#: baseline-dimension defaults).
SUPPORTED_MANIFEST_VERSIONS = (1, 2)

#: Error classes generated by default: every kind with a defect template.
DEFAULT_ERROR_KINDS: tuple[ErrorKind, ...] = tuple(TEMPLATES)

#: Hardness dimensions a corpus can span, easiest first.
HARDNESS_DIMENSIONS: tuple[str, ...] = (
    "baseline",
    "multi_defect",
    "cross_format",
    "adversarial",
    "mutation",
)


@dataclass(frozen=True)
class CorpusConfig:
    """Generation knobs (all deterministic inputs)."""

    seed: int = 0
    pairs_per_class: int = 2
    error_kinds: tuple[ErrorKind, ...] = DEFAULT_ERROR_KINDS
    #: Restrict generation to these formats (default: every format the
    #: template can seed a defect on, in registry order).
    formats: tuple[str, ...] = ()
    #: Which hardness dimensions to generate, in order.
    hardness: tuple[str, ...] = ("baseline",)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "pairs_per_class": self.pairs_per_class,
            "error_kinds": [kind.value for kind in self.error_kinds],
            "formats": list(self.formats),
            "hardness": list(self.hardness),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CorpusConfig":
        return cls(
            seed=payload.get("seed", 0),
            pairs_per_class=payload.get("pairs_per_class", 2),
            error_kinds=tuple(
                ErrorKind(value)
                for value in payload.get(
                    "error_kinds", [kind.value for kind in DEFAULT_ERROR_KINDS]
                )
            ),
            formats=tuple(payload.get("formats", ())),
            hardness=tuple(payload.get("hardness", ("baseline",))),
        )


@dataclass(frozen=True)
class ScenarioCorpus:
    """An ordered collection of generated pairs plus the config that made it."""

    config: CorpusConfig
    pairs: tuple[ScenarioPair, ...] = ()

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    @cached_property
    def _by_case(self) -> dict[str, ScenarioPair]:
        return {pair.case_id: pair for pair in self.pairs}

    def pair(self, case_id: str) -> ScenarioPair:
        try:
            return self._by_case[case_id]
        except KeyError:
            known = ", ".join(entry.case_id for entry in self.pairs)
            raise ScenarioError(
                f"corpus has no case {case_id!r} (known: {known})"
            ) from None

    def kind_of_case(self) -> dict[str, str]:
        """case id -> error-class value (campaign per-class accounting)."""
        return {pair.case_id: pair.error_kind.value for pair in self.pairs}

    def classes_of_case(self) -> dict[str, tuple[str, ...]]:
        """case id -> every accounting class the job belongs to.

        Alongside the error class, each pair carries its hardness dimension
        (``hardness:<name>``) and, where applicable, the per-dimension axes
        ``defect_count:<n>``, ``cross_format``, and ``adversarial`` — the
        scheduler folds one :class:`~repro.campaign.execution.ClassAccountant`
        row per class, so per-dimension success (and the false-accept rate
        over ``hardness:adversarial``) falls out of ``class_stats``.
        """
        classes: dict[str, tuple[str, ...]] = {}
        for pair in self.pairs:
            names = [pair.error_kind.value, f"hardness:{pair.hardness}"]
            if pair.defect_count > 1:
                names.append(f"defect_count:{pair.defect_count}")
            if pair.cross_format:
                names.append("cross_format")
            if pair.adversarial:
                names.append("adversarial")
            classes[pair.case_id] = tuple(names)
        return classes

    def kind_of_recipient(self) -> dict[str, str]:
        """recipient full name -> error-class value (record classification)."""
        return {
            pair.recipient.full_name: pair.error_kind.value for pair in self.pairs
        }

    def hardness_of_recipient(self) -> dict[str, str]:
        """recipient full name -> hardness dimension (record classification)."""
        return {pair.recipient.full_name: pair.hardness for pair in self.pairs}

    # -- manifest --------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": MANIFEST_VERSION,
            "config": self.config.to_dict(),
            "pairs": [pair.to_dict() for pair in self.pairs],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioCorpus":
        version = payload.get("version")
        if version not in SUPPORTED_MANIFEST_VERSIONS:
            raise ScenarioError(
                f"unsupported scenario manifest version {version!r} "
                f"(supported: {SUPPORTED_MANIFEST_VERSIONS})"
            )
        return cls(
            config=CorpusConfig.from_dict(payload.get("config", {})),
            pairs=tuple(
                ScenarioPair.from_dict(entry) for entry in payload.get("pairs", ())
            ),
        )

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioCorpus":
        try:
            payload = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ScenarioError(f"scenario manifest {path} does not exist") from None
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario manifest {path} is corrupt: {exc}") from None
        return cls.from_dict(payload)


def generate_corpus(config: Optional[CorpusConfig] = None, **overrides) -> ScenarioCorpus:
    """Generate a corpus for ``config`` (keyword overrides build one ad hoc).

    Formats rotate per pair within a class, starting at a seeded offset, so
    ``pairs_per_class`` up to the number of suitable formats exercises each
    class over distinct formats before repeating any.  Every requested
    hardness dimension contributes its own ``pairs_per_class`` pairs per
    error class.
    """
    if config is None:
        config = CorpusConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a CorpusConfig or keyword overrides, not both")
    unknown = [name for name in config.hardness if name not in HARDNESS_DIMENSIONS]
    if unknown:
        raise ScenarioError(
            f"unknown hardness dimension(s) {unknown!r}; "
            f"choose from {HARDNESS_DIMENSIONS}"
        )

    pairs: list[ScenarioPair] = []
    for dimension in config.hardness:
        pairs.extend(_DIMENSION_GENERATORS[dimension](config))
    return ScenarioCorpus(config=config, pairs=tuple(pairs))


def _generate_baseline(config: CorpusConfig) -> list[ScenarioPair]:
    pairs: list[ScenarioPair] = []
    for kind in config.error_kinds:
        template = _template(kind)
        fields_by_format = _fields_by_format(template, config.formats)
        if not fields_by_format:
            raise ScenarioError(
                f"no registered format has suitable fields for {kind.value}"
            )
        formats = list(fields_by_format)
        # One seeded draw decides where the rotation starts for this class.
        offset = random.Random(f"{config.seed}:{kind.value}:rotation").randrange(
            len(formats)
        )
        for index in range(config.pairs_per_class):
            format_name = formats[(offset + index) % len(formats)]
            pairs.append(
                synthesize_pair(
                    kind,
                    format_name,
                    index=index,
                    seed=config.seed,
                    candidates=fields_by_format[format_name],
                )
            )
    return pairs


def _generate_multi_defect(config: CorpusConfig) -> list[ScenarioPair]:
    """2-4 stacked defects per pair; every error class leads one stack."""
    kinds = list(config.error_kinds)
    if len(kinds) < 2:
        raise ScenarioError(
            "the multi_defect dimension needs at least two error classes to stack"
        )
    pairs: list[ScenarioPair] = []
    for kind in kinds:
        pool = [other for other in kinds if other is not kind]
        for index in range(config.pairs_per_class):
            rng = random.Random(f"{config.seed}:multi-stack:{kind.value}:{index}")
            size = rng.randrange(2, min(4, len(pool) + 1) + 1)
            partners = rng.sample(pool, size - 1)
            formats = _rotated_formats(
                config, f"{kind.value}:multi", offset_extra=index
            )
            pair = None
            # Not every format has enough disjoint fields for the drawn
            # stack; shrink it until one does.
            for stack_end in range(len(partners), -1, -1):
                stack = (kind, *partners[:stack_end])
                if len(stack) < 2:
                    break
                for format_name in formats:
                    try:
                        pair = synthesize_multi_defect_pair(
                            stack, format_name, index=index, seed=config.seed
                        )
                        break
                    except ScenarioError:
                        continue
                if pair is not None:
                    break
            if pair is None:
                raise ScenarioError(
                    f"no registered format can stack {kind.value} with any of "
                    f"{[other.value for other in partners]}"
                )
            pairs.append(pair)
    return pairs


def _generate_cross_format(config: CorpusConfig) -> list[ScenarioPair]:
    pairs: list[ScenarioPair] = []
    for kind in config.error_kinds:
        template = _template(kind)
        fields_by_format = _fields_by_format(template, config.formats)
        if not fields_by_format:
            raise ScenarioError(
                f"no registered format has suitable fields for {kind.value}"
            )
        formats = list(fields_by_format)
        all_names = _format_names(config)
        offset = random.Random(f"{config.seed}:{kind.value}:cross").randrange(
            len(formats)
        )
        for index in range(config.pairs_per_class):
            format_name = formats[(offset + index) % len(formats)]
            foreign = [name for name in all_names if name != format_name]
            if not foreign:
                raise ScenarioError(
                    "the cross_format dimension needs at least two registered formats"
                )
            donor_format = foreign[(offset + index) % len(foreign)]
            pairs.append(
                synthesize_cross_format_pair(
                    kind,
                    format_name,
                    donor_format,
                    index=index,
                    seed=config.seed,
                )
            )
    return pairs


def _generate_adversarial(config: CorpusConfig) -> list[ScenarioPair]:
    """Near-miss donors; modes alternate per index so both windows appear."""
    pairs: list[ScenarioPair] = []
    for kind in config.error_kinds:
        for index in range(config.pairs_per_class):
            mode = NEAR_MISS_MODES[index % len(NEAR_MISS_MODES)]
            pairs.append(
                _first_feasible(
                    lambda format_name: synthesize_near_miss_pair(
                        kind, format_name, index=index, seed=config.seed, mode=mode
                    ),
                    _rotated_formats(config, f"{kind.value}:adv", offset_extra=index),
                    f"{mode} near-miss for {kind.value}",
                )
            )
    return pairs


def _generate_mutation(config: CorpusConfig) -> list[ScenarioPair]:
    pairs: list[ScenarioPair] = []
    for kind in config.error_kinds:
        for index in range(config.pairs_per_class):
            pairs.append(
                _first_feasible(
                    lambda format_name: synthesize_mutation_pair(
                        kind, format_name, index=index, seed=config.seed
                    ),
                    _rotated_formats(config, f"{kind.value}:mut", offset_extra=index),
                    f"fuzzer-discovered {kind.value}",
                )
            )
    return pairs


_DIMENSION_GENERATORS = {
    "baseline": _generate_baseline,
    "multi_defect": _generate_multi_defect,
    "cross_format": _generate_cross_format,
    "adversarial": _generate_adversarial,
    "mutation": _generate_mutation,
}


def _template(kind: ErrorKind):
    template = TEMPLATES.get(kind)
    if template is None:
        raise ScenarioError(f"no defect template for error kind {kind.value!r}")
    return template


def _format_names(config: CorpusConfig) -> list[str]:
    from ..formats.registry import all_formats

    if config.formats:
        return list(config.formats)
    return [spec.name for spec in all_formats()]


def _rotated_formats(
    config: CorpusConfig, salt: str, offset_extra: int = 0
) -> list[str]:
    names = _format_names(config)
    offset = (
        random.Random(f"{config.seed}:{salt}:rotation").randrange(len(names))
        + offset_extra
    )
    return [names[(offset + shift) % len(names)] for shift in range(len(names))]


def _first_feasible(synthesize, formats: Iterable[str], what: str) -> ScenarioPair:
    """The first format (rotation order) the synthesizer accepts."""
    last_error: Optional[ScenarioError] = None
    for format_name in formats:
        try:
            return synthesize(format_name)
        except ScenarioError as exc:
            last_error = exc
    raise ScenarioError(
        f"no registered format can generate a {what}"
        + (f" (last: {last_error})" if last_error else "")
    )


def _fields_by_format(template, requested: Iterable[str]) -> dict[str, list]:
    """Suitable fields per format (registry order), formats without enough dropped."""
    from ..formats.registry import all_formats, get_format

    if requested:
        specs = [get_format(name) for name in requested]
    else:
        specs = all_formats()
    by_format = {}
    for spec in specs:
        fields = suitable_fields(spec, template, allow_empty=True)
        if len(fields) >= template.field_count:
            by_format[spec.name] = fields
    return by_format
