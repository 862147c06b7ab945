"""The typed pipeline event stream (pipeline observability).

Every stage execution and every notable pipeline decision is reported as a
:class:`PipelineEvent` on an :class:`EventBus`.  Stages never know who is
listening: the CLI renders live progress from the same stream the campaign
store persists per-stage timings from, and :class:`StageTimingObserver`
folds ``StageFinished`` events into the per-transfer
:attr:`~repro.core.pipeline.TransferMetrics.stage_timings` breakdown.

Observers are plain callables invoked synchronously, in subscription order,
on the engine's thread.  An observer that raises aborts the transfer — the
stream is part of the pipeline, not a best-effort side channel — so
observers should be cheap and total.

Event taxonomy
--------------

=======================  ========================================================
Event                    Emitted when
=======================  ========================================================
``StageStarted``         a stage begins (name, round, free-form detail)
``StageFinished``        a stage completes, with its wall-clock ``elapsed_s``
``DonorAttempted``       ``repair`` starts the pipeline against one donor
``CandidateRejected``    a check / insertion point / patch is dropped, with why
``PatchValidated``       validation accepts a patch (sizes and location)
``ResidualErrorFound``   the validation rescan found errors; another round runs
=======================  ========================================================
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Callable, Iterable, Optional, Sequence

Observer = Callable[["PipelineEvent"], None]


@dataclass(frozen=True)
class PipelineEvent:
    """Base class of everything the transfer engine emits."""


@dataclass(frozen=True)
class StageStarted(PipelineEvent):
    stage: str
    round_index: int = 0
    detail: str = ""


@dataclass(frozen=True)
class StageFinished(PipelineEvent):
    stage: str
    elapsed_s: float
    round_index: int = 0
    detail: str = ""


@dataclass(frozen=True)
class DonorAttempted(PipelineEvent):
    """``repair`` is about to run the full pipeline against one donor."""

    donor: str
    index: int
    total: int


@dataclass(frozen=True)
class CandidateRejected(PipelineEvent):
    """A candidate was dropped; ``kind`` says at which level of the search.

    ``kind`` is ``"check"`` (a candidate check yielded no validated patch),
    ``"insertion-point"`` (the check could not be translated into the names
    reachable at the point), or ``"patch"`` (the generated patch failed to
    apply or to validate).
    """

    kind: str
    function: str
    line: int
    reason: str


@dataclass(frozen=True)
class PatchValidated(PipelineEvent):
    donor: str
    function: str
    line: int
    excised_size: int
    translated_size: int
    round_index: int = 0


@dataclass(frozen=True)
class ResidualErrorFound(PipelineEvent):
    """The post-patch rescan found residual errors; a recursive round follows.

    ``kinds`` lists the error kinds still reproducible on the patched
    program, in repair order: probe-input failures first (the order the
    recipient's defects were declared in), then DIODE rescan findings.
    """

    count: int
    round_index: int
    kinds: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # JSON round-trips deliver lists; normalise so restored events
        # compare equal to the originals.
        if not isinstance(self.kinds, tuple):
            object.__setattr__(self, "kinds", tuple(self.kinds))


# -- serialization ---------------------------------------------------------------------
#
# Events cross process and disk boundaries: campaign workers ship their event
# stream back through the run store, evidence bundles embed it, and the trace
# exporter replays it.  The registry is *explicit* — a new event class must be
# added here, and ``tests/core/test_event_serialization.py`` fails if the
# registry and the set of PipelineEvent subclasses ever drift apart.

#: Every concrete event type, keyed by its serialized name.
EVENT_TYPES: dict[str, type["PipelineEvent"]] = {}


def _register_event_types() -> None:
    for cls in (
        StageStarted,
        StageFinished,
        DonorAttempted,
        CandidateRejected,
        PatchValidated,
        ResidualErrorFound,
    ):
        EVENT_TYPES[cls.__name__] = cls


_register_event_types()


def event_to_dict(event: "PipelineEvent") -> dict:
    """One event as a JSON-ready dict with an ``event`` type tag."""
    name = type(event).__name__
    if name not in EVENT_TYPES:
        raise ValueError(f"unregistered event type {name!r}; add it to EVENT_TYPES")
    return {"event": name, **asdict(event)}


def event_from_dict(payload: dict) -> "PipelineEvent":
    """Rebuild an event from :func:`event_to_dict` output.

    Unknown *fields* are dropped (a newer writer may have added one); an
    unknown *event type* raises — silently swallowing a whole event class
    would defeat the taxonomy-drift tests.
    """
    name = payload.get("event", "")
    try:
        cls = EVENT_TYPES[name]
    except KeyError:
        raise ValueError(f"unknown event type {name!r} in payload") from None
    known = {f.name for f in fields(cls)}
    return cls(**{key: value for key, value in payload.items() if key in known})


def events_to_jsonl(events: Iterable["PipelineEvent"]) -> str:
    """The event stream as JSON Lines (one event per line, append-friendly)."""
    return "".join(
        json.dumps(event_to_dict(event), separators=(",", ":")) + "\n"
        for event in events
    )


def events_from_jsonl(text: str) -> list["PipelineEvent"]:
    """Parse :func:`events_to_jsonl` output (blank lines skipped)."""
    return [
        event_from_dict(json.loads(line))
        for line in text.splitlines()
        if line.strip()
    ]


def events_as_dicts(events: Sequence["PipelineEvent"]) -> list[dict]:
    """The event stream as a list of dicts (payload transport)."""
    return [event_to_dict(event) for event in events]


# -- SSE wire framing --------------------------------------------------------------------
#
# The repair service (:mod:`repro.service`) streams live events to HTTP
# clients as Server-Sent Events.  The framing lives here, next to the JSON
# serializers it wraps, so the wire format is covered by the same
# exhaustiveness tests that guard the registry: a new event type that
# round-trips through JSONL round-trips through SSE by construction.
#
# One event per frame::
#
#     id: 7
#     event: StageFinished
#     data: {"event":"StageFinished","stage":"excision",...}
#
# The ``event`` field carries the registry tag and the ``data`` JSON embeds
# the same tag, so a frame is self-describing even for SSE clients that only
# surface the data payload.


def event_to_sse(event: "PipelineEvent", event_id: Optional[int] = None) -> str:
    """One event as a complete SSE frame (terminated by a blank line)."""
    payload = event_to_dict(event)
    lines = []
    if event_id is not None:
        lines.append(f"id: {event_id}")
    lines.append(f"event: {payload['event']}")
    # Per the SSE spec a payload may span several data: lines (re-joined
    # with newlines on receipt); compact JSON never contains one, but the
    # parser below handles the general form, so stay symmetric.
    for chunk in json.dumps(payload, separators=(",", ":")).split("\n"):
        lines.append(f"data: {chunk}")
    return "\n".join(lines) + "\n\n"


def event_from_sse(frame: str) -> "PipelineEvent":
    """Rebuild an event from one :func:`event_to_sse` frame.

    Raises ``ValueError`` on frames without a data payload, on unknown event
    types, and on frames whose ``event`` field disagrees with the tag inside
    the data JSON — a disagreement means the frame was assembled by
    something other than :func:`event_to_sse` and must not be trusted.
    """
    name: Optional[str] = None
    data_chunks: list[str] = []
    for line in frame.split("\n"):
        if not line or line.startswith(":"):
            continue  # blank terminator / keep-alive comment
        field_name, _, value = line.partition(":")
        value = value[1:] if value.startswith(" ") else value
        if field_name == "event":
            name = value
        elif field_name == "data":
            data_chunks.append(value)
    if not data_chunks:
        raise ValueError("SSE frame has no data payload")
    payload = json.loads("\n".join(data_chunks))
    if name is not None and payload.get("event") != name:
        raise ValueError(
            f"SSE frame event field {name!r} disagrees with data tag "
            f"{payload.get('event')!r}"
        )
    return event_from_dict(payload)


def events_to_sse(events: Iterable["PipelineEvent"], start_id: int = 0) -> str:
    """A whole event stream as consecutive SSE frames with sequential ids."""
    return "".join(
        event_to_sse(event, event_id=start_id + index)
        for index, event in enumerate(events)
    )


def events_from_sse(text: str) -> list["PipelineEvent"]:
    """Parse every *pipeline-event* frame out of an SSE stream.

    Frames carrying non-pipeline event names (the service's ``status`` /
    ``end`` control frames, keep-alive comments) are skipped; a frame that
    *claims* a registered event type but fails to parse raises.
    """
    events = []
    for frame in text.split("\n\n"):
        if not frame.strip():
            continue
        name = None
        for line in frame.split("\n"):
            if line.startswith("event:"):
                name = line.partition(":")[2].strip()
                break
        if name in EVENT_TYPES:
            events.append(event_from_sse(frame))
    return events


class EventBus:
    """Synchronous fan-out of pipeline events to registered observers."""

    def __init__(self) -> None:
        self._observers: list[Observer] = []

    def subscribe(self, observer: Observer) -> Observer:
        self._observers.append(observer)
        return observer

    def unsubscribe(self, observer: Observer) -> None:
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    def emit(self, event: PipelineEvent) -> None:
        for observer in list(self._observers):
            observer(event)


class EventLog:
    """An observer that records every event (reports and tests)."""

    def __init__(self) -> None:
        self.events: list[PipelineEvent] = []

    def __call__(self, event: PipelineEvent) -> None:
        self.events.append(event)


class StageTimingObserver:
    """Accumulates ``StageFinished`` durations into per-stage totals.

    This is the *only* source of the ``TransferMetrics.stage_timings``
    breakdown: the engine subscribes one per transfer and copies its totals
    into the metrics when the transfer ends, so no stage ever reports its
    own timing.
    """

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}

    def __call__(self, event: PipelineEvent) -> None:
        if isinstance(event, StageFinished):
            self.totals[event.stage] = self.totals.get(event.stage, 0.0) + event.elapsed_s
