"""Urgency annotation: response classification and sextile labels.

Labels are derived from clinician responses by a deterministic keyword
classifier, so the whole pipeline runs offline. Win-rate-sorted inboxes
can be cut into sextile labels.
"""

from __future__ import annotations

import logging
import math
from typing import Sequence

from .corpus import LabeledMessage, Message, UrgencyLabel, label_for_level
from .errors import DataError, TooFewMessages

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


def sextile_labels_from_winrate(
    inbox: Sequence[tuple[str, float]],
) -> dict[str, UrgencyLabel]:
    """Assign L1..L6 by position in the win-rate-sorted inbox.

    Sorts descending by win-rate with ties broken by ascending id; the
    sorted list is cut into six contiguous blocks whose sizes differ by at
    most one, larger blocks first (most urgent end).
    """
    n = len(inbox)
    if n < 6:
        raise TooFewMessages(f"sextile labeling needs >= 6 messages, got {n}")
    if len({message_id for message_id, _ in inbox}) != n:
        raise DataError("inbox contains duplicate message ids")
    for message_id, winrate in inbox:
        if not math.isfinite(winrate):
            raise DataError(f"non-finite winrate for {message_id!r}")
    ordered = sorted(inbox, key=lambda item: (-item[1], item[0]))
    base, remainder = divmod(n, 6)
    sizes = [base + 1] * remainder + [base] * (6 - remainder)
    labels: dict[str, UrgencyLabel] = {}
    position = 0
    for level, size in enumerate(sizes, start=1):
        for message_id, _ in ordered[position : position + size]:
            labels[message_id] = label_for_level(level)
        position += size
    return labels

