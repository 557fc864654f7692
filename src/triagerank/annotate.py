"""Urgency annotation: response classification and sextile classes.

Labels are derived from clinician responses by a deterministic keyword
classifier, so the whole pipeline runs offline. A ranking can be cut
into six predicted classes, its sextiles.
"""

from __future__ import annotations

import logging
from typing import Sequence

from .corpus import LabeledMessage, Message, UrgencyLabel
from .errors import TooFewMessages

logger = logging.getLogger(__name__)


# Keyword cues per label, scanned in priority order: emergency directives
# first, then supportive-care referrals (which would otherwise collide with
# appointment language), then the remaining levels from most to least urgent.
_KEYWORD_RULES: tuple[tuple[UrgencyLabel, tuple[str, ...]], ...] = (
    (
        UrgencyLabel.L1,
        (
            "emergency room",
            "go to the ed",
            "go to the er",
            " 911",
            "call an ambulance",
            "emergency department",
            "immediate attention",
            "life-threatening",
        ),
    ),
    (
        UrgencyLabel.SUPPORTIVE_CARE,
        (
            "physical therapy",
            "physical therapist",
            "counseling",
            "counselor",
            "mental health session",
            "support group",
        ),
    ),
    (
        UrgencyLabel.L2,
        ("urgent care", "same-day", "same day", "seen today", "today"),
    ),
    (
        UrgencyLabel.L3,
        (
            "within 1-3 days",
            "in the next few days",
            "appointment soon",
            "make an appointment",
            "schedule an appointment",
        ),
    ),
    (
        UrgencyLabel.L4,
        (
            "near future",
            "next few weeks",
            "routine visit",
            "follow up with your doctor",
            "next scheduled visit",
        ),
    ),
    (
        UrgencyLabel.L5,
        (
            "at home",
            "self-care",
            "rest and hydrate",
            "over-the-counter",
            "over the counter",
            "warm compress",
            "hydrate",
        ),
    ),
    (
        UrgencyLabel.L6,
        (
            "no further steps",
            "non-issue",
            "nothing to worry about",
            "no action needed",
            "completely normal",
            "reassurance",
        ),
    ),
)


def classify_response(response: str) -> UrgencyLabel:
    """Label a clinician response by keyword rules.

    First matching rule wins; responses matching nothing are UNCLEAR.
    """
    text = response.lower()
    for label, cues in _KEYWORD_RULES:
        if any(cue in text for cue in cues):
            return label
    return UrgencyLabel.UNCLEAR


def auto_label_corpus(messages: Sequence[Message]) -> list[LabeledMessage]:
    """Label each message from its clinician response.

    Messages without a response are skipped and reported (MissingResponse
    logged per id), not fatal. Sentinel labels are retained; run
    split_ordinal downstream to drop them.
    """
    labeled: list[LabeledMessage] = []
    for message in messages:
        if message.clinician_response is None:
            logger.warning(
                "MissingResponse: message %r has no clinician response, skipped",
                message.id,
            )
            continue
        label = classify_response(message.clinician_response)
        labeled.append(LabeledMessage(message=message, label=label))
    if len(labeled) < len(messages):
        logger.info(
            "auto-label skipped %d of %d messages",
            len(messages) - len(labeled),
            len(messages),
        )
    return labeled


def sextile_classes(ranking: Sequence[str]) -> list[list[str]]:
    """Cut a ranking, most urgent first, into six predicted classes L1..L6.

    The classes are contiguous slices of the ranking whose sizes differ by
    at most one, larger classes first (most urgent end).
    """
    n = len(ranking)
    if n < 6:
        raise TooFewMessages(f"sextile labeling needs >= 6 messages, got {n}")
    base, remainder = divmod(n, 6)
    classes = []
    start = 0
    for level in range(6):
        end = start + base + (level < remainder)
        classes.append(list(ranking[start:end]))
        start = end
    return classes
