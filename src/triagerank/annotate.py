"""Urgency annotation: response classification, pair filtration, sextiles.

Labels are derived from clinician responses through a pluggable classifier
interface; candidate test pairs go through a two-pass judge filtration
that keeps only pairs whose auto-label both passes confirm as clearly
correct. Win-rate-sorted inboxes can be cut into sextile labels.

A deterministic keyword classifier and an ordinal mock judge ship here so
the whole pipeline runs offline; remote LLM backends are alternative
implementations of the same interfaces.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Protocol, Sequence

from .compare import Winner
from .corpus import (
    LabeledMessage,
    Message,
    UrgencyLabel,
    label_for_level,
    read_jsonl,
    write_jsonl,
)
from .errors import DataError, TooFewMessages
from .pairs import EvalPair

logger = logging.getLogger(__name__)


class Verdict(Enum):
    A_MORE_URGENT = "A_MORE_URGENT"
    B_MORE_URGENT = "B_MORE_URGENT"
    UNCLEAR = "UNCLEAR"


class JudgeVariant(Enum):
    V1 = "v1"
    V2 = "v2"


class ResponseClassifier(Protocol):
    def classify(self, response: str, message: str) -> UrgencyLabel: ...


class PairJudge(Protocol):
    def judge(
        self, a: LabeledMessage, b: LabeledMessage, variant: JudgeVariant
    ) -> Verdict: ...


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


class KeywordResponseClassifier:
    """Deterministic keyword-rule classifier over clinician responses.

    First matching rule wins; responses matching nothing are UNCLEAR.
    """

    def classify(self, response: str, message: str) -> UrgencyLabel:
        text = response.lower()
        for label, cues in _KEYWORD_RULES:
            if any(cue in text for cue in cues):
                return label
        return UrgencyLabel.UNCLEAR


class OrdinalPairJudge:
    """Mock judge that reads the ordinal labels directly.

    With ``unclear_below_gap`` > 1 it refuses close calls, which is handy
    for exercising the filtration paths. Deterministic for fixed inputs
    and variant.
    """

    def __init__(self, unclear_below_gap: int = 1):
        self.unclear_below_gap = unclear_below_gap

    def judge(
        self, a: LabeledMessage, b: LabeledMessage, variant: JudgeVariant
    ) -> Verdict:
        gap = abs(a.level - b.level)
        if gap < self.unclear_below_gap:
            return Verdict.UNCLEAR
        if a.level == b.level:
            return Verdict.UNCLEAR
        return Verdict.A_MORE_URGENT if a.level < b.level else Verdict.B_MORE_URGENT


@dataclass(frozen=True)
class JudgedPair:
    """One candidate pair with its auto-label and both judge verdicts.

    accepted is true iff both verdicts equal the auto-label and neither
    is UNCLEAR.
    """

    a_id: str
    b_id: str
    auto_label: Winner
    verdict_v1: Verdict
    verdict_v2: Verdict
    accepted: bool

    def __post_init__(self):
        if self.auto_label not in (Winner.A, Winner.B):
            raise DataError("auto_label must be A or B")
        expected = _accepted(self.auto_label, self.verdict_v1, self.verdict_v2)
        if self.accepted != expected:
            raise DataError(
                f"inconsistent accepted flag for pair ({self.a_id}, {self.b_id})"
            )

    def to_record(self) -> dict:
        return {
            "a_id": self.a_id,
            "b_id": self.b_id,
            "auto_label": self.auto_label.value,
            "verdict_v1": self.verdict_v1.value,
            "verdict_v2": self.verdict_v2.value,
            "accepted": self.accepted,
        }

    @classmethod
    def from_record(cls, record: dict) -> "JudgedPair":
        return cls(
            a_id=record["a_id"],
            b_id=record["b_id"],
            auto_label=Winner(record["auto_label"]),
            verdict_v1=Verdict(record["verdict_v1"]),
            verdict_v2=Verdict(record["verdict_v2"]),
            accepted=record["accepted"],
        )


def _matches(verdict: Verdict, side: Winner) -> bool:
    return (verdict is Verdict.A_MORE_URGENT and side is Winner.A) or (
        verdict is Verdict.B_MORE_URGENT and side is Winner.B
    )


def _accepted(auto_label: Winner, v1: Verdict, v2: Verdict) -> bool:
    return _matches(v1, auto_label) and _matches(v2, auto_label)


def auto_label_corpus(
    messages: Sequence[Message],
    classifier: ResponseClassifier,
) -> list[LabeledMessage]:
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
        label = classifier.classify(message.clinician_response, message.text)
        labeled.append(LabeledMessage(message=message, label=label))
    if len(labeled) < len(messages):
        logger.info(
            "auto-label skipped %d of %d messages",
            len(messages) - len(labeled),
            len(messages),
        )
    return labeled


def filter_pairs(
    pairs: Iterable[tuple[LabeledMessage, LabeledMessage]],
    judge: PairJudge,
) -> list[JudgedPair]:
    """Run the two-pass judge filtration over candidate pairs.

    Every input pair appears in the output with its accepted flag; the
    accepted subset forms the test-set candidates. Every pair is checked
    before the first judge call: a sentinel label raises BadLabel, equal
    levels raise EqualLabels.
    """
    eval_pairs = [EvalPair(a, b) for a, b in pairs]
    judged: list[JudgedPair] = []
    for pair in eval_pairs:
        auto_label = pair.gold_more_urgent
        verdict_v1 = judge.judge(pair.a, pair.b, JudgeVariant.V1)
        verdict_v2 = judge.judge(pair.a, pair.b, JudgeVariant.V2)
        judged.append(
            JudgedPair(
                a_id=pair.a.id,
                b_id=pair.b.id,
                auto_label=auto_label,
                verdict_v1=verdict_v1,
                verdict_v2=verdict_v2,
                accepted=_accepted(auto_label, verdict_v1, verdict_v2),
            )
        )
    return judged


def write_judged_pairs(pairs: Iterable[JudgedPair], path: str | Path) -> int:
    """Write the filtration audit log (line-delimited JSON, all verdicts)."""
    return write_jsonl((pair.to_record() for pair in pairs), path)


def read_judged_pairs(path: str | Path) -> list[JudgedPair]:
    return read_jsonl(path, JudgedPair.from_record)


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


def is_adult(
    message: Message, text_predicate: Callable[[str], bool] | None = None
) -> bool:
    """Age >= 18 from the EHR when present, else the pluggable text check.

    Without either signal the message is excluded (conservative default).
    """
    if message.ehr is not None:
        return message.ehr.age >= 18
    if text_predicate is not None:
        return bool(text_predicate(message.text))
    return False


def apply_inclusion(
    corpus: Iterable[LabeledMessage],
    *predicates: Callable[[Message], bool],
) -> list[LabeledMessage]:
    """Keep records passing every predicate (adult, acute onset, ...)."""
    return [
        labeled
        for labeled in corpus
        if all(predicate(labeled.message) for predicate in predicates)
    ]
