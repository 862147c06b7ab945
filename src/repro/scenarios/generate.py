"""Donor/recipient pair synthesis.

One :func:`synthesize_pair` call turns ``(error kind, format, seeded RNG)``
into a matched pair of MicroC applications:

* both applications read the *same* input fields of the shared format — the
  reader code is generated from the format's :class:`~repro.formats.fields.Field`
  layout (offset, size, endianness), assembling multi-byte fields from
  individual bytes with shifts and ors exactly like the hand-written
  applications in ``src/repro/apps/`` do (or via the ``read_u16/u32``
  builtins; the RNG picks a style per program, so a pair may mix styles and
  the rewrite stage has to prove the equivalence);
* the recipient uses one field at a seeded defect site without the
  protective check (:mod:`repro.scenarios.templates`);
* the donor performs the same computation behind the protective check.

Names are **content-addressed**: the application name ends in a digest of
both sources plus the seed/error field values, so two different generations
can never collide in the registry, and the same configuration always
produces byte-identical names (which is what makes campaign job ids — and
therefore ``--resume`` — stable across processes and runs).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field as dataclass_field, replace as dataclass_replace
from typing import Optional, Sequence

from ..apps.registry import Application, ErrorTarget
from ..formats.fields import FormatSpec
from ..formats.registry import get_format
from ..lang.trace import ErrorKind
from .templates import (
    NEAR_MISS_MODES,
    TEMPLATES,
    DefectPlan,
    DefectTemplate,
    FieldAccess,
    rename_locals,
)


class ScenarioError(ValueError):
    """Raised when a scenario cannot be generated as requested."""


#: Function-name pools; the RNG picks per program for surface variety.
_RECIPIENT_FUNCTIONS = ("decode_frame", "parse_header", "read_image", "process_chunk")
_DONOR_FUNCTIONS = ("load_input", "validate_and_load", "scan_header", "import_frame")


@dataclass(frozen=True)
class ScenarioPair:
    """One generated donor/recipient pair plus its seed and error inputs.

    Mirrors the surface of :class:`repro.experiments.ErrorCase`
    (``application()``/``target()``/``seed_input()``/``error_input()``/
    ``format_name``) so the :mod:`repro.api` facade can run either without
    knowing which corpus it came from — except that ``application()``
    returns the held object directly instead of a registry lookup, because
    generated pairs are only registered for the duration of a run.
    """

    case_id: str
    error_kind: ErrorKind
    format_name: str
    index: int
    recipient: Application
    donor: Application
    error_values: dict[str, int] = dataclass_field(default_factory=dict)
    defect_fields: tuple[str, ...] = ()
    threshold: int = 0
    description: str = ""
    #: Which hardness dimension generated this pair (see
    #: :data:`repro.scenarios.corpus.HARDNESS_DIMENSIONS`).
    hardness: str = "baseline"
    #: Number of seeded defects (``> 1`` for multi-defect recipients).
    defect_count: int = 1
    #: Error kinds of every seeded defect, in defect order (empty means the
    #: single :attr:`error_kind`).
    error_kinds: tuple[str, ...] = ()
    #: Per-defect trigger field values, in defect order (empty for
    #: single-defect pairs; the facade turns these into probe inputs).
    trigger_values: tuple[dict, ...] = ()
    #: The donor reads the recipient's byte stream through a different
    #: format's field vocabulary and decomposition.
    cross_format: bool = False
    #: Name of the format whose layout the donor is written against (set
    #: only for cross-format pairs).
    donor_format: str = ""
    #: The pair's ``donor`` is an almost-protective near-miss that
    #: validation must reject; any accepted transfer is a false accept.
    adversarial: bool = False
    #: Which near-miss construction (``fails-open``/``overbroad``).
    near_miss_mode: str = ""
    #: The genuinely protective donor for adversarial pairs (differential
    #: tests assert it is accepted on the same recipient).
    true_donor: Optional[Application] = None
    #: Decoy donors that protect only a subset of a multi-defect
    #: recipient's defects; the matrix runs them ahead of the full donor to
    #: exercise the multi-donor search for real.
    decoy_donors: tuple[Application, ...] = ()

    @property
    def donor_name(self) -> str:
        return self.donor.name

    @property
    def donor_pool(self) -> tuple[Application, ...]:
        """Every donor a matrix job should attempt, decoys first."""
        return (*self.decoy_donors, self.donor)

    def probe_inputs(self) -> tuple[bytes, ...]:
        """One known error trigger per defect (multi-defect pairs only)."""
        if not self.trigger_values:
            return ()
        spec = get_format(self.format_name)
        seed = self.seed_input()
        return tuple(
            spec.with_values(seed, **values) for values in self.trigger_values
        )

    @property
    def recipient_name(self) -> str:
        return self.recipient.name

    def application(self) -> Application:
        return self.recipient

    def target(self) -> ErrorTarget:
        return self.recipient.targets[0]

    @property
    def target_id(self) -> str:
        return self.target().target_id

    def seed_input(self) -> bytes:
        # The seed is always the format's canonical defaults; templates pick
        # fields whose defaults sit in the benign window.
        return get_format(self.format_name).build()

    def error_input(self) -> bytes:
        spec = get_format(self.format_name)
        return spec.with_values(self.seed_input(), **self.error_values)

    @property
    def digest(self) -> str:
        """The content digest embedded in the generated names."""
        return self.case_id.rsplit("-", 1)[-1]

    # -- serialisation (the corpus manifest) ---------------------------------------

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "error_kind": self.error_kind.value,
            "format_name": self.format_name,
            "index": self.index,
            "recipient": _application_to_dict(self.recipient),
            "donor": _application_to_dict(self.donor),
            "error_values": dict(self.error_values),
            "defect_fields": list(self.defect_fields),
            "threshold": self.threshold,
            "description": self.description,
            "hardness": self.hardness,
            "defect_count": self.defect_count,
            "error_kinds": list(self.error_kinds),
            "trigger_values": [dict(values) for values in self.trigger_values],
            "cross_format": self.cross_format,
            "donor_format": self.donor_format,
            "adversarial": self.adversarial,
            "near_miss_mode": self.near_miss_mode,
            "true_donor": (
                _application_to_dict(self.true_donor) if self.true_donor else None
            ),
            "decoy_donors": [
                _application_to_dict(donor) for donor in self.decoy_donors
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioPair":
        true_donor = payload.get("true_donor")
        return cls(
            case_id=payload["case_id"],
            error_kind=ErrorKind(payload["error_kind"]),
            format_name=payload["format_name"],
            index=payload["index"],
            recipient=_application_from_dict(payload["recipient"]),
            donor=_application_from_dict(payload["donor"]),
            error_values=dict(payload.get("error_values", {})),
            defect_fields=tuple(payload.get("defect_fields", ())),
            threshold=payload.get("threshold", 0),
            description=payload.get("description", ""),
            hardness=payload.get("hardness", "baseline"),
            defect_count=payload.get("defect_count", 1),
            error_kinds=tuple(payload.get("error_kinds", ())),
            trigger_values=tuple(
                dict(values) for values in payload.get("trigger_values", ())
            ),
            cross_format=payload.get("cross_format", False),
            donor_format=payload.get("donor_format", ""),
            adversarial=payload.get("adversarial", False),
            near_miss_mode=payload.get("near_miss_mode", ""),
            true_donor=_application_from_dict(true_donor) if true_donor else None,
            decoy_donors=tuple(
                _application_from_dict(entry)
                for entry in payload.get("decoy_donors", ())
            ),
        )


def _application_to_dict(application: Application) -> dict:
    return {
        "name": application.name,
        "version": application.version,
        "source": application.source,
        "formats": list(application.formats),
        "role": application.role,
        "description": application.description,
        "library": application.library,
        "targets": [
            {
                "target_id": target.target_id,
                "error_kind": target.error_kind.value,
                "site_function": target.site_function,
                "description": target.description,
            }
            for target in application.targets
        ],
    }


def _application_from_dict(payload: dict) -> Application:
    return Application(
        name=payload["name"],
        version=payload["version"],
        source=payload["source"],
        formats=tuple(payload["formats"]),
        role=payload["role"],
        description=payload.get("description", ""),
        library=payload.get("library", ""),
        targets=tuple(
            ErrorTarget(
                target_id=entry["target_id"],
                error_kind=ErrorKind(entry["error_kind"]),
                site_function=entry["site_function"],
                description=entry.get("description", ""),
            )
            for entry in payload.get("targets", ())
        ),
    )


# -- field selection ---------------------------------------------------------------


def suitable_fields(
    spec: FormatSpec, template: DefectTemplate, allow_empty: bool = False
) -> list[FieldAccess]:
    """The format's fields this template can seed a defect on.

    An empty result raises a :class:`ScenarioError` naming the template and
    the format (pass ``allow_empty=True`` to get the bare list instead —
    the corpus generator scans formats that way).  Historically the empty
    list leaked through to a confusing "no suitable fields (need N)" error
    much later; now the incompatibility is reported where it is detected,
    with the constraints that were violated.
    """
    seed = spec.build()
    entries = list(spec.field_map(seed))
    names = _variable_names([entry.path for entry in entries])
    accesses = []
    for entry in entries:
        access = FieldAccess(
            path=entry.path,
            var=names[entry.path],
            offset=entry.offset,
            size=entry.size,
            endianness=entry.endianness,
            default=entry.read(seed),
        )
        if template.suits(access):
            accesses.append(access)
    if not accesses and not allow_empty:
        constraints = [
            f"width >= {template.min_field_bits} bits",
            "width <= 32 bits",
            "format default in (0, 64]",
        ]
        if template.requires_nonzero_default:
            constraints.append("non-zero format default")
        raise ScenarioError(
            f"no field of format {spec.name!r} suits the {template.kind.value} "
            f"template ({type(template).__name__}); it needs "
            f"{template.field_count} field(s) with " + ", ".join(constraints)
        )
    return accesses


def _variable_names(paths: Sequence[str]) -> dict[str, str]:
    """Readable MicroC identifiers per field path (``/ihdr/width`` -> ``width``).

    When two paths share a leaf (GIF has ``/screen/width`` and
    ``/image/width``) every colliding path keeps its parent as a prefix, so
    donor and recipient — both named from the full field list — always agree.
    """
    leaves = {path: _identifier(path.rstrip("/").rsplit("/", 1)[-1]) for path in paths}
    counts: dict[str, int] = {}
    for leaf in leaves.values():
        counts[leaf] = counts.get(leaf, 0) + 1
    names = {}
    for path, leaf in leaves.items():
        if counts[leaf] > 1:
            segments = [part for part in path.split("/") if part]
            names[path] = _identifier("_".join(segments[-2:]))
        else:
            names[path] = leaf
    return names


def _identifier(text: str) -> str:
    cleaned = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in text)
    if not cleaned or cleaned[0].isdigit():
        cleaned = f"field_{cleaned}"
    return cleaned


# -- reader codegen ----------------------------------------------------------------


def _reader_lines(fields: Sequence[FieldAccess], style: str) -> list[str]:
    """MicroC statements reading ``fields`` (offset order) into u32 locals."""
    ordered = sorted(fields, key=lambda access: access.offset)

    def manual(access: FieldAccess) -> bool:
        # The read_uN builtins only exist for 16 and 32 bits; odd-sized
        # fields (e.g. 24-bit lengths) always take the byte-assembly path.
        return style == "manual" or access.size not in (2, 4)

    lines: list[str] = []
    if any(access.size > 1 and manual(access) for access in ordered):
        widest = max(access.size for access in ordered if manual(access))
        for i in range(widest):
            lines.append(f"    u8 b{i};")
    cursor = 0
    for access in ordered:
        if access.offset > cursor:
            lines.append(f"    skip_bytes({access.offset - cursor});")
        cursor = access.offset + access.size
        if access.size == 1:
            lines.append(f"    u32 {access.var} = (u32) read_byte();")
            continue
        if not manual(access):
            suffix = "be" if access.endianness == "big" else "le"
            width = access.size * 8
            lines.append(f"    u32 {access.var} = (u32) read_u{width}_{suffix}();")
            continue
        for i in range(access.size):
            lines.append(f"    b{i} = read_byte();")
        parts = []
        for i in range(access.size):
            shift = (
                (access.size - 1 - i) * 8
                if access.endianness == "big"
                else i * 8
            )
            parts.append(f"((u32) b{i})" if shift == 0 else f"(((u32) b{i}) << {shift})")
        lines.append(f"    u32 {access.var} = " + " | ".join(parts) + ";")
    return lines


def _cross_reader_lines(
    fields: Sequence[FieldAccess], rng: random.Random
) -> list[str]:
    """A foreign-layout reader: same byte stream, different decomposition.

    Cross-format donors parse the recipient's byte stream the way *their*
    format would: every multi-byte field is assembled from two windows split
    at an RNG-chosen byte boundary (the way a foreign layout would group
    those bytes into adjacent narrower fields) and recombined with shifts.
    The values are the same — the expression structure the solver has to
    reason through is not, so a transferred check only validates if the
    rewrite genuinely translates between the two decompositions.
    """
    ordered = sorted(fields, key=lambda access: access.offset)
    lines: list[str] = []
    widest = max((access.size for access in ordered), default=1)
    if widest > 1:
        for i in range(widest):
            lines.append(f"    u8 b{i};")
    cursor = 0
    for access in ordered:
        if access.offset > cursor:
            lines.append(f"    skip_bytes({access.offset - cursor});")
        cursor = access.offset + access.size
        if access.size == 1:
            lines.append(f"    u32 {access.var} = (u32) read_byte();")
            continue
        split = rng.randrange(1, access.size)
        for i in range(access.size):
            lines.append(f"    b{i} = read_byte();")

        def window(start: int, stop: int) -> str:
            parts = []
            for i in range(start, stop):
                shift = (
                    (stop - 1 - i) * 8
                    if access.endianness == "big"
                    else (i - start) * 8
                )
                parts.append(
                    f"((u32) b{i})" if shift == 0 else f"(((u32) b{i}) << {shift})"
                )
            return " | ".join(parts)

        lines.append(f"    u32 {access.var}_w0 = {window(0, split)};")
        lines.append(f"    u32 {access.var}_w1 = {window(split, access.size)};")
        if access.endianness == "big":
            combined = (
                f"({access.var}_w0 << {(access.size - split) * 8}) | {access.var}_w1"
            )
        else:
            combined = f"{access.var}_w0 | ({access.var}_w1 << {split * 8})"
        lines.append(f"    u32 {access.var} = {combined};")
    return lines


def _render_program(
    title: str,
    function: str,
    reader: Sequence[str],
    body: Sequence[str],
    fields: Sequence[FieldAccess],
) -> str:
    lines = [f"// {title}", "", f"int {function}() {{"]
    lines.extend(reader)
    lines.extend(body)
    for access in sorted(fields, key=lambda entry: entry.offset):
        lines.append(f"    emit({access.var});")
    lines.append("    return 0;")
    lines.append("}")
    lines.append("")
    lines.append("int main() {")
    lines.append(f"    return {function}();")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- pair synthesis ----------------------------------------------------------------


def synthesize_pair(
    error_kind: ErrorKind,
    format_name: str,
    index: int = 0,
    seed: int = 0,
    rng: Optional[random.Random] = None,
    candidates: Optional[Sequence[FieldAccess]] = None,
) -> ScenarioPair:
    """Generate one matched donor/recipient pair for an error class.

    Deterministic: the RNG is derived from ``(seed, error_kind, format,
    index)`` unless one is passed in, and everything else is a pure function
    of its draws.  ``candidates`` short-circuits the field-suitability scan
    when the caller (the corpus generator) has already computed it.
    """
    template = TEMPLATES.get(error_kind)
    if template is None:
        raise ScenarioError(f"no defect template for error kind {error_kind.value!r}")
    if candidates is None:
        candidates = suitable_fields(get_format(format_name), template)
    if len(candidates) < template.field_count:
        raise ScenarioError(
            f"format {format_name!r} has no suitable fields for "
            f"{error_kind.value} (need {template.field_count})"
        )
    if rng is None:
        rng = random.Random(f"{seed}:{error_kind.value}:{format_name}:{index}")

    chosen = rng.sample(candidates, template.field_count)
    chosen.sort(key=lambda access: access.offset)
    plan = template.instantiate(chosen, rng)

    recipient_function = rng.choice(_RECIPIENT_FUNCTIONS)
    donor_function = rng.choice(_DONOR_FUNCTIONS)
    recipient_style = rng.choice(("manual", "builtin"))
    donor_style = rng.choice(("manual", "builtin"))

    kind_slug = error_kind.value.replace("-", "")
    recipient_source = _render_program(
        f"Generated recipient: seeded {error_kind.value} over {format_name} "
        f"({plan.description}).",
        recipient_function,
        _reader_lines(chosen, recipient_style),
        plan.recipient_body,
        chosen,
    )
    donor_source = _render_program(
        f"Generated donor: protective {error_kind.value} check over {format_name}.",
        donor_function,
        _reader_lines(chosen, donor_style),
        plan.donor_body,
        chosen,
    )

    digest = hashlib.sha1(
        json.dumps(
            {
                "recipient": recipient_source,
                "donor": donor_source,
                "error_values": sorted(plan.error_values.items()),
                "format": format_name,
            },
            sort_keys=True,
        ).encode("utf-8")
    ).hexdigest()[:8]

    case_id = f"gen-{kind_slug}-{format_name}-{index}-{digest}"
    # Names end in the digest so Application.full_name stays the bare name.
    recipient_name = f"gen-{kind_slug}-rx{index}-{digest}"
    donor_name = f"gen-{kind_slug}-dn{index}-{digest}"
    defect_line = recipient_source.splitlines().index(plan.defect_marker) + 1

    target = ErrorTarget(
        target_id=f"{recipient_name}.c:{defect_line}",
        error_kind=error_kind,
        site_function=recipient_function,
        description=plan.description,
    )
    recipient = Application(
        name=recipient_name,
        version=digest,
        source=recipient_source,
        formats=(format_name,),
        role="recipient",
        library=f"gen-{format_name}",
        description=f"generated recipient with a seeded {error_kind.value} defect",
        targets=(target,),
    )
    donor = Application(
        name=donor_name,
        version=digest,
        source=donor_source,
        formats=(format_name,),
        role="donor",
        library=f"gen-{format_name}",
        description=f"generated donor carrying the {error_kind.value} protective check",
    )
    return ScenarioPair(
        case_id=case_id,
        error_kind=error_kind,
        format_name=format_name,
        index=index,
        recipient=recipient,
        donor=donor,
        error_values=dict(plan.error_values),
        defect_fields=tuple(access.path for access in chosen),
        threshold=plan.threshold,
        description=plan.description,
    )


# -- hardness-dimension synthesis --------------------------------------------------


def _content_digest(**payload) -> str:
    return hashlib.sha1(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()[:8]


def _regression_rows(spec: FormatSpec, paths: Sequence[str]) -> list[dict]:
    """Per-field values of the regression corpus validation will replay.

    Uses the engine's defaults (:class:`~repro.core.pipeline.CodePhageOptions`
    and the seeded :class:`~repro.formats.generator.InputGenerator`), so
    bounds derived from these rows hold exactly for the validator's step-3
    comparison under default options.
    """
    from ..core.pipeline import CodePhageOptions
    from ..formats.generator import InputGenerator

    wanted = set(paths)
    corpus = InputGenerator(spec).regression_corpus(CodePhageOptions().regression_inputs)
    rows = []
    for data in corpus:
        rows.append(
            {
                entry.path: entry.read(data)
                for entry in spec.field_map(data)
                if entry.path in wanted
            }
        )
    return rows


def _donor_application(
    name: str, digest: str, source: str, format_name: str, description: str
) -> Application:
    return Application(
        name=name,
        version=digest,
        source=source,
        formats=(format_name,),
        role="donor",
        library=f"gen-{format_name}",
        description=description,
    )


def synthesize_multi_defect_pair(
    error_kinds: Sequence[ErrorKind],
    format_name: str,
    index: int = 0,
    seed: int = 0,
) -> ScenarioPair:
    """Generate a recipient stacking several defects of distinct kinds.

    Each defect consumes its own disjoint field set and carries its own
    trigger input; the donor stacks every protective check, and one decoy
    donor protects only the first defect (a matrix job that runs the decoy
    first gets a partial repair, residual errors, and a donor fallback —
    the multi-donor search exercised for real).  Defect ``i``'s template
    locals are renamed with a ``_d{i+1}`` suffix so stacked bodies share
    one function scope without collisions.
    """
    kinds = tuple(error_kinds)
    if not 2 <= len(kinds) <= 4:
        raise ScenarioError(
            f"a multi-defect recipient stacks 2-4 defects, got {len(kinds)}"
        )
    if len(set(kinds)) != len(kinds):
        raise ScenarioError("multi-defect kinds must be distinct")
    spec = get_format(format_name)
    stack_slug = "+".join(kind.value for kind in kinds)
    rng = random.Random(f"{seed}:multi:{stack_slug}:{format_name}:{index}")

    used_paths: set[str] = set()
    slots: list[tuple[DefectTemplate, list[FieldAccess], DefectPlan]] = []
    for kind in kinds:
        template = TEMPLATES.get(kind)
        if template is None:
            raise ScenarioError(f"no defect template for error kind {kind.value!r}")
        candidates = [
            access
            for access in suitable_fields(spec, template, allow_empty=True)
            if access.path not in used_paths
        ]
        if len(candidates) < template.field_count:
            raise ScenarioError(
                f"format {format_name!r} cannot stack {stack_slug}: no disjoint "
                f"fields left for {kind.value} (need {template.field_count})"
            )
        chosen = rng.sample(candidates, template.field_count)
        chosen.sort(key=lambda access: access.offset)
        used_paths.update(access.path for access in chosen)
        slots.append((template, chosen, template.instantiate(chosen, rng)))

    all_fields = sorted(
        (access for _, chosen, _ in slots for access in chosen),
        key=lambda access: access.offset,
    )
    recipient_body: list[str] = []
    donor_body: list[str] = []
    markers: list[str] = []
    trigger_values: list[dict] = []
    for slot_index, (template, _, plan) in enumerate(slots):
        mapping = {name: f"{name}_d{slot_index + 1}" for name in template.local_names}
        recipient_body.extend(rename_locals(plan.recipient_body, mapping))
        donor_body.extend(rename_locals(plan.donor_body, mapping))
        markers.append(rename_locals((plan.defect_marker,), mapping)[0])
        trigger_values.append(dict(plan.error_values))

    recipient_function = rng.choice(_RECIPIENT_FUNCTIONS)
    recipient_source = _render_program(
        f"Generated recipient: {len(slots)} stacked defects ({stack_slug}) "
        f"over {format_name}.",
        recipient_function,
        _reader_lines(all_fields, rng.choice(("manual", "builtin"))),
        recipient_body,
        all_fields,
    )
    donor_source = _render_program(
        f"Generated donor: the full {len(slots)}-check protective stack over "
        f"{format_name}.",
        rng.choice(_DONOR_FUNCTIONS),
        _reader_lines(all_fields, rng.choice(("manual", "builtin"))),
        donor_body,
        all_fields,
    )
    decoy_template, decoy_fields, decoy_plan = slots[0]
    decoy_source = _render_program(
        f"Generated decoy donor: only the {kinds[0].value} check over "
        f"{format_name}.",
        rng.choice(_DONOR_FUNCTIONS),
        _reader_lines(decoy_fields, rng.choice(("manual", "builtin"))),
        rename_locals(
            decoy_plan.donor_body,
            {name: f"{name}_d1" for name in decoy_template.local_names},
        ),
        decoy_fields,
    )

    digest = _content_digest(
        recipient=recipient_source,
        donor=donor_source,
        decoy=decoy_source,
        trigger_values=[sorted(values.items()) for values in trigger_values],
        format=format_name,
    )
    slug = f"multi{len(slots)}"
    case_id = f"gen-{slug}-{format_name}-{index}-{digest}"
    recipient_name = f"gen-{slug}-rx{index}-{digest}"
    source_lines = recipient_source.splitlines()
    targets = tuple(
        ErrorTarget(
            target_id=f"{recipient_name}.c:{source_lines.index(marker) + 1}",
            error_kind=kind,
            site_function=recipient_function,
            description=plan.description,
        )
        for marker, kind, (_, _, plan) in zip(markers, kinds, slots)
    )
    recipient = Application(
        name=recipient_name,
        version=digest,
        source=recipient_source,
        formats=(format_name,),
        role="recipient",
        library=f"gen-{format_name}",
        description=f"generated recipient with {len(slots)} stacked defects "
        f"({stack_slug})",
        targets=targets,
    )
    donor = _donor_application(
        f"gen-{slug}-dn{index}-{digest}",
        digest,
        donor_source,
        format_name,
        f"generated donor carrying the full {stack_slug} check stack",
    )
    decoy = _donor_application(
        f"gen-{slug}-dc{index}-{digest}",
        digest,
        decoy_source,
        format_name,
        f"generated decoy donor carrying only the {kinds[0].value} check",
    )
    return ScenarioPair(
        case_id=case_id,
        error_kind=kinds[0],
        format_name=format_name,
        index=index,
        recipient=recipient,
        donor=donor,
        error_values=dict(trigger_values[0]),
        defect_fields=tuple(access.path for access in all_fields),
        threshold=slots[0][2].threshold,
        description="; ".join(plan.description for _, _, plan in slots),
        hardness="multi_defect",
        defect_count=len(slots),
        error_kinds=tuple(kind.value for kind in kinds),
        trigger_values=tuple(trigger_values),
        decoy_donors=(decoy,),
    )


def synthesize_cross_format_pair(
    error_kind: ErrorKind,
    format_name: str,
    donor_format: str,
    index: int = 0,
    seed: int = 0,
) -> ScenarioPair:
    """Generate a pair whose donor is written against a foreign layout.

    The donor consumes the recipient-format byte stream, but through
    ``donor_format``'s field vocabulary (its locals are named after the
    foreign format's fields) and a foreign decomposition (every multi-byte
    field assembled as two split windows — see :func:`_cross_reader_lines`).
    The transferred check therefore only validates if the rewrite stage
    translates the donor's expression structure into the recipient's field
    symbols; simple name matching finds nothing shared.
    """
    if donor_format == format_name:
        raise ScenarioError(
            f"cross-format donor needs a different layout than {format_name!r}"
        )
    template = TEMPLATES.get(error_kind)
    if template is None:
        raise ScenarioError(f"no defect template for error kind {error_kind.value!r}")
    spec = get_format(format_name)
    donor_spec = get_format(donor_format)
    rng = random.Random(
        f"{seed}:cross:{error_kind.value}:{format_name}:{donor_format}:{index}"
    )
    candidates = suitable_fields(spec, template)
    if len(candidates) < template.field_count:
        raise ScenarioError(
            f"format {format_name!r} has no suitable fields for "
            f"{error_kind.value} (need {template.field_count})"
        )
    chosen = rng.sample(candidates, template.field_count)
    chosen.sort(key=lambda access: access.offset)
    plan = template.instantiate(chosen, rng)

    donor_seed = donor_spec.build()
    vocab = list(
        _variable_names(
            [entry.path for entry in donor_spec.field_map(donor_seed)]
        ).values()
    )
    prefix = _identifier(donor_format)
    mapping: dict[str, str] = {}
    used: set[str] = set()
    for position, access in enumerate(chosen):
        base = f"{prefix}_{vocab[position % len(vocab)]}"
        name, suffix = base, 2
        while name in used:
            name = f"{base}{suffix}"
            suffix += 1
        used.add(name)
        mapping[access.var] = name
    donor_fields = [
        dataclass_replace(access, var=mapping[access.var]) for access in chosen
    ]

    kind_slug = error_kind.value.replace("-", "")
    recipient_function = rng.choice(_RECIPIENT_FUNCTIONS)
    recipient_source = _render_program(
        f"Generated recipient: seeded {error_kind.value} over {format_name} "
        f"({plan.description}).",
        recipient_function,
        _reader_lines(chosen, rng.choice(("manual", "builtin"))),
        plan.recipient_body,
        chosen,
    )
    donor_source = _render_program(
        f"Generated donor: protective {error_kind.value} check through a "
        f"{donor_format}-layout reader.",
        rng.choice(_DONOR_FUNCTIONS),
        _cross_reader_lines(donor_fields, rng),
        rename_locals(plan.donor_body, mapping),
        donor_fields,
    )

    digest = _content_digest(
        recipient=recipient_source,
        donor=donor_source,
        error_values=sorted(plan.error_values.items()),
        format=format_name,
        donor_format=donor_format,
    )
    case_id = f"gen-x{kind_slug}-{format_name}-{donor_format}-{index}-{digest}"
    recipient_name = f"gen-x{kind_slug}-rx{index}-{digest}"
    defect_line = recipient_source.splitlines().index(plan.defect_marker) + 1
    recipient = Application(
        name=recipient_name,
        version=digest,
        source=recipient_source,
        formats=(format_name,),
        role="recipient",
        library=f"gen-{format_name}",
        description=f"generated recipient with a seeded {error_kind.value} defect",
        targets=(
            ErrorTarget(
                target_id=f"{recipient_name}.c:{defect_line}",
                error_kind=error_kind,
                site_function=recipient_function,
                description=plan.description,
            ),
        ),
    )
    donor = _donor_application(
        f"gen-x{kind_slug}-dn{index}-{digest}",
        digest,
        donor_source,
        donor_format,
        f"generated {donor_format}-layout donor carrying the "
        f"{error_kind.value} protective check",
    )
    return ScenarioPair(
        case_id=case_id,
        error_kind=error_kind,
        format_name=format_name,
        index=index,
        recipient=recipient,
        donor=donor,
        error_values=dict(plan.error_values),
        defect_fields=tuple(access.path for access in chosen),
        threshold=plan.threshold,
        description=plan.description,
        hardness="cross_format",
        cross_format=True,
        donor_format=donor_format,
    )


def synthesize_near_miss_pair(
    error_kind: ErrorKind,
    format_name: str,
    index: int = 0,
    seed: int = 0,
    mode: str = "fails-open",
) -> ScenarioPair:
    """Generate an adversarial pair whose donor check is almost protective.

    The pair's ``donor`` is the near-miss (the matrix runs it and must
    reject the transfer — any accepted one is a false accept), and
    :attr:`ScenarioPair.true_donor` carries the genuinely protective donor
    for the same recipient (differential tests assert it still validates).
    """
    if mode not in NEAR_MISS_MODES:
        raise ScenarioError(
            f"unknown near-miss mode {mode!r}; one of {NEAR_MISS_MODES}"
        )
    template = TEMPLATES.get(error_kind)
    if template is None:
        raise ScenarioError(f"no defect template for error kind {error_kind.value!r}")
    spec = get_format(format_name)
    rng = random.Random(
        f"{seed}:nearmiss:{mode}:{error_kind.value}:{format_name}:{index}"
    )
    candidates = suitable_fields(spec, template)
    if len(candidates) < template.field_count:
        raise ScenarioError(
            f"format {format_name!r} has no suitable fields for "
            f"{error_kind.value} (need {template.field_count})"
        )
    rows = _regression_rows(spec, [access.path for access in candidates])

    if mode == "overbroad":
        # The overbroad bound must sit inside the benign window, which needs
        # a regression value strictly past the field's default; scan field
        # combinations in offset order for the first feasible one.
        ordered = sorted(candidates, key=lambda access: access.offset)
        if template.field_count == 1:
            combos = [[access] for access in ordered]
        else:
            combos = [
                [first, second]
                for position, first in enumerate(ordered)
                for second in ordered[position + 1 :]
            ]
        chosen = next(
            (
                combo
                for combo in combos
                if template.near_miss_condition(combo, None, mode, rows) is not None
            ),
            None,
        )
        if chosen is None:
            raise ScenarioError(
                f"no overbroad near-miss window for {error_kind.value} on "
                f"{format_name!r}: no regression value escapes the field defaults"
            )
    else:
        chosen = rng.sample(candidates, template.field_count)
        chosen.sort(key=lambda access: access.offset)
    plan = template.instantiate(chosen, rng)
    near_miss_body = template.near_miss_donor_body(chosen, plan, mode, rows)
    if near_miss_body is None:
        raise ScenarioError(
            f"near-miss mode {mode!r} is infeasible for {error_kind.value} on "
            f"{format_name!r}"
        )

    kind_slug = error_kind.value.replace("-", "")
    recipient_function = rng.choice(_RECIPIENT_FUNCTIONS)
    recipient_source = _render_program(
        f"Generated recipient: seeded {error_kind.value} over {format_name} "
        f"({plan.description}).",
        recipient_function,
        _reader_lines(chosen, rng.choice(("manual", "builtin"))),
        plan.recipient_body,
        chosen,
    )
    true_donor_source = _render_program(
        f"Generated donor: protective {error_kind.value} check over {format_name}.",
        rng.choice(_DONOR_FUNCTIONS),
        _reader_lines(chosen, rng.choice(("manual", "builtin"))),
        plan.donor_body,
        chosen,
    )
    near_miss_source = _render_program(
        f"Generated near-miss donor ({mode}): almost-protective "
        f"{error_kind.value} check over {format_name}.",
        rng.choice(_DONOR_FUNCTIONS),
        _reader_lines(chosen, rng.choice(("manual", "builtin"))),
        near_miss_body,
        chosen,
    )

    digest = _content_digest(
        recipient=recipient_source,
        near_miss=near_miss_source,
        true_donor=true_donor_source,
        error_values=sorted(plan.error_values.items()),
        format=format_name,
        mode=mode,
    )
    case_id = f"gen-adv-{kind_slug}-{format_name}-{index}-{digest}"
    recipient_name = f"gen-adv-{kind_slug}-rx{index}-{digest}"
    defect_line = recipient_source.splitlines().index(plan.defect_marker) + 1
    recipient = Application(
        name=recipient_name,
        version=digest,
        source=recipient_source,
        formats=(format_name,),
        role="recipient",
        library=f"gen-{format_name}",
        description=f"generated recipient with a seeded {error_kind.value} defect",
        targets=(
            ErrorTarget(
                target_id=f"{recipient_name}.c:{defect_line}",
                error_kind=error_kind,
                site_function=recipient_function,
                description=plan.description,
            ),
        ),
    )
    near_miss_donor = _donor_application(
        f"gen-adv-{kind_slug}-nm{index}-{digest}",
        digest,
        near_miss_source,
        format_name,
        f"generated near-miss donor ({mode}) whose {error_kind.value} check "
        f"must be rejected",
    )
    true_donor = _donor_application(
        f"gen-adv-{kind_slug}-dn{index}-{digest}",
        digest,
        true_donor_source,
        format_name,
        f"generated donor carrying the {error_kind.value} protective check",
    )
    return ScenarioPair(
        case_id=case_id,
        error_kind=error_kind,
        format_name=format_name,
        index=index,
        recipient=recipient,
        donor=near_miss_donor,
        error_values=dict(plan.error_values),
        defect_fields=tuple(access.path for access in chosen),
        threshold=plan.threshold,
        description=plan.description,
        hardness="adversarial",
        adversarial=True,
        near_miss_mode=mode,
        true_donor=true_donor,
    )


def synthesize_mutation_pair(
    error_kind: ErrorKind,
    format_name: str,
    index: int = 0,
    seed: int = 0,
    iterations: int = 200,
) -> ScenarioPair:
    """Generate a pair whose trigger the seeded fuzzer discovered.

    The defect is seeded as usual, but the error input is *not* taken from
    the template's declaration: a seeded :class:`~repro.discovery.fuzzer.
    FieldFuzzer` mutates the recipient's defect fields over the format byte
    stream until it finds a crash of the expected kind, and the crashing
    field values become the pair's error values.  Raises
    :class:`ScenarioError` when the campaign finds nothing (the corpus
    generator rotates to the next format).
    """
    from ..discovery.fuzzer import FieldFuzzer, FuzzerOptions
    from ..lang.checker import compile_program

    template = TEMPLATES.get(error_kind)
    if template is None:
        raise ScenarioError(f"no defect template for error kind {error_kind.value!r}")
    spec = get_format(format_name)
    rng = random.Random(f"{seed}:mutation:{error_kind.value}:{format_name}:{index}")
    candidates = suitable_fields(spec, template)
    if error_kind is ErrorKind.INTEGER_OVERFLOW:
        # The fuzzer mutates one field per mutant; only a full-width 32-bit
        # factor can wrap the size product against a default-valued partner.
        candidates = [access for access in candidates if access.size == 4]
    if len(candidates) < template.field_count:
        raise ScenarioError(
            f"format {format_name!r} has no fuzzable fields for "
            f"{error_kind.value} (need {template.field_count})"
        )
    chosen = rng.sample(candidates, template.field_count)
    chosen.sort(key=lambda access: access.offset)
    plan = template.instantiate(chosen, rng)

    kind_slug = error_kind.value.replace("-", "")
    recipient_function = rng.choice(_RECIPIENT_FUNCTIONS)
    recipient_source = _render_program(
        f"Generated recipient: seeded {error_kind.value} over {format_name}, "
        f"trigger discovered by fuzzing.",
        recipient_function,
        _reader_lines(chosen, rng.choice(("manual", "builtin"))),
        plan.recipient_body,
        chosen,
    )
    donor_source = _render_program(
        f"Generated donor: protective {error_kind.value} check over {format_name}.",
        rng.choice(_DONOR_FUNCTIONS),
        _reader_lines(chosen, rng.choice(("manual", "builtin"))),
        plan.donor_body,
        chosen,
    )

    program = compile_program(recipient_source, name=f"gen-mut-{kind_slug}-probe")
    fuzzer = FieldFuzzer(
        program,
        spec,
        FuzzerOptions(
            iterations=iterations,
            seed=rng.randrange(1 << 30),
            fields=tuple(access.path for access in chosen),
            stop_after=1,
        ),
    )
    findings = fuzzer.campaign()
    finding = next(
        (entry for entry in findings if entry.report.kind is error_kind), None
    )
    if finding is None:
        raise ScenarioError(
            f"the seeded fuzzer found no {error_kind.value} on {format_name!r} "
            f"in {iterations} mutants"
        )
    wanted = {access.path for access in chosen}
    error_values = {
        entry.path: entry.read(finding.error_input)
        for entry in spec.field_map(finding.error_input)
        if entry.path in wanted
    }

    digest = _content_digest(
        recipient=recipient_source,
        donor=donor_source,
        error_values=sorted(error_values.items()),
        format=format_name,
        discovered_by="fuzzer",
    )
    case_id = f"gen-mut-{kind_slug}-{format_name}-{index}-{digest}"
    recipient_name = f"gen-mut-{kind_slug}-rx{index}-{digest}"
    defect_line = recipient_source.splitlines().index(plan.defect_marker) + 1
    recipient = Application(
        name=recipient_name,
        version=digest,
        source=recipient_source,
        formats=(format_name,),
        role="recipient",
        library=f"gen-{format_name}",
        description=f"generated recipient with a seeded {error_kind.value} defect "
        f"(trigger discovered by the seeded fuzzer)",
        targets=(
            ErrorTarget(
                target_id=f"{recipient_name}.c:{defect_line}",
                error_kind=error_kind,
                site_function=recipient_function,
                description=plan.description,
            ),
        ),
    )
    donor = _donor_application(
        f"gen-mut-{kind_slug}-dn{index}-{digest}",
        digest,
        donor_source,
        format_name,
        f"generated donor carrying the {error_kind.value} protective check",
    )
    return ScenarioPair(
        case_id=case_id,
        error_kind=error_kind,
        format_name=format_name,
        index=index,
        recipient=recipient,
        donor=donor,
        error_values=error_values,
        defect_fields=tuple(access.path for access in chosen),
        threshold=plan.threshold,
        description=f"fuzzer-discovered trigger: {plan.description}",
        hardness="mutation",
    )
