from __future__ import annotations

import pytest

from triagerank.corpus import (
    EhrRecord,
    LabeledMessage,
    Message,
    UrgencyLabel,
    fixture_corpus_path,
    load_corpus,
)

from .mock_gateway import MockEndpoint


def make_message(
    message_id: str,
    text: str | None = None,
    ehr: EhrRecord | None = None,
    response: str | None = None,
) -> Message:
    return Message(
        id=message_id,
        text=text or f"patient message {message_id}",
        ehr=ehr,
        clinician_response=response,
    )


def make_labeled(
    message_id: str,
    level: int,
    text: str | None = None,
    ehr: EhrRecord | None = None,
    response: str | None = None,
) -> LabeledMessage:
    return LabeledMessage(
        message=make_message(message_id, text, ehr, response),
        label=UrgencyLabel(f"L{level}"),
    )


def level_corpus(per_level: dict[int, int]) -> list[LabeledMessage]:
    """Synthetic corpus with ``per_level[level]`` messages per level."""
    corpus = []
    for level, count in sorted(per_level.items()):
        for index in range(count):
            corpus.append(make_labeled(f"L{level}x{index:03d}", level))
    return corpus


@pytest.fixture(scope="session")
def fixture_corpus() -> list[LabeledMessage]:
    return load_corpus(fixture_corpus_path())


@pytest.fixture()
def mock_endpoint():
    endpoint = MockEndpoint().start()
    yield endpoint
    endpoint.stop()
