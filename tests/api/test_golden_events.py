"""The repair event stream, pinned against a golden file.

Each repair below is run and its event sequence compared, event by event,
with ``golden_events.json``: event type, stage, detail, round, donor,
reason and sizes — everything but ``elapsed_s``.  A change to the engine
that reorders, renames or drops an event fails here.

Regenerate the golden file (only when a change to the stream is intended)::

    PYTHONPATH=src python tests/api/test_golden_events.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import api
from repro.core import CodePhageOptions
from repro.core.events import events_as_dicts
from repro.experiments import ERROR_CASES

GOLDEN = Path(__file__).with_name("golden_events.json")

#: Generated pairs: (corpus seed, pairs per class, hardness dimension, case id).
SCENARIOS = {
    # A decoy donor fails, then the true donor repairs both defects in two rounds.
    "multi-defect": (0, 1, "multi_defect", "gen-multi2-jpeg-0-107266a7"),
    # A near-miss donor: checks, insertion points and patches are all rejected.
    "near-miss": (0, 2, "adversarial", "gen-adv-outofboundswrite-tiff-1-c8bd7a7c"),
}


def _stripped(events) -> list[dict]:
    payloads = []
    for payload in events_as_dicts(events):
        payload.pop("elapsed_s", None)
        payloads.append(payload)
    # JSON round trip: tuples become lists, as in the golden file.
    return json.loads(json.dumps(payloads))


def _scenario_events(seed: int, pairs: int, hardness: str, case_id: str) -> list[dict]:
    from repro.scenarios import CorpusConfig, generate_corpus
    from repro.scenarios.runner import run_pair

    corpus = generate_corpus(
        CorpusConfig(seed=seed, pairs_per_class=pairs, hardness=(hardness,))
    )
    return _stripped(run_pair(corpus.pair(case_id), CodePhageOptions()).events)


def repair_events(name: str) -> list[dict]:
    """The stripped event stream of one named repair."""
    if name == "cwebp-jpegdec/feh":
        request = api.RepairRequest.for_case(ERROR_CASES["cwebp-jpegdec"], donor="feh")
        return _stripped(api.repair(request).events)
    if name == "cwebp-jpegdec/selection":
        request = api.RepairRequest.for_case(ERROR_CASES["cwebp-jpegdec"])
        return _stripped(api.repair(request).events)
    return _scenario_events(*SCENARIOS[name])


REPAIRS = ("cwebp-jpegdec/feh", "cwebp-jpegdec/selection", *SCENARIOS)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_repair(golden):
    assert set(golden) == set(REPAIRS)


@pytest.mark.parametrize("name", REPAIRS)
def test_event_stream_matches_the_golden_file(golden, name):
    actual = repair_events(name)
    expected = golden[name]
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"{name}: event {index} differs"
    assert len(actual) == len(expected), f"{name}: event count differs"


if __name__ == "__main__":
    streams = {name: repair_events(name) for name in REPAIRS}
    GOLDEN.write_text(json.dumps(streams, indent=1, sort_keys=True) + "\n")
    print(
        f"wrote {GOLDEN}: "
        + ", ".join(f"{name} ({len(events)} events)" for name, events in streams.items())
    )
