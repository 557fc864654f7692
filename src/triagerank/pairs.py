"""Evaluation pairs, training triplets, SFT/reward exports, and inboxes.

Pair difficulty follows the level gap: easy means a gap of at least 4,
medium a gap of 2 or 3, hard a gap of 1. Triplets are (anchor, more
urgent, less urgent) with anchors drawn from L2..L5 only, since nothing
is reliably more urgent than L1 or less urgent than L6.

All generation is seeded; exports are byte-identical for the same seed
and inputs.
"""

from __future__ import annotations

import bisect
import collections.abc
import random
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from . import prompts
from .compare import Winner
from .corpus import (
    LabeledMessage,
    by_level,
    encode_json,
    label_for_level,
    line_format,
    read_jsonl,
    split_ordinal,
    write_jsonl,
    write_lines,
)
from .errors import (
    ConfigError,
    EqualLabels,
    InsufficientLevel,
    NoTriplets,
    NoValidPairs,
)

T = TypeVar("T")
R = TypeVar("R")


class Difficulty(Enum):
    EASY = "easy"
    MEDIUM = "medium"
    HARD = "hard"


def difficulty_for_gap(gap: int) -> Difficulty:
    if gap >= 4:
        return Difficulty.EASY
    if gap >= 2:
        return Difficulty.MEDIUM
    if gap == 1:
        return Difficulty.HARD
    raise EqualLabels(f"no difficulty for gap {gap}")


@dataclass(frozen=True)
class EvalPair:
    """Two messages of different urgency levels.

    The gold side, the gap and the difficulty stratum all follow from the
    two levels: the lower level is the more urgent message.
    """

    a: LabeledMessage
    b: LabeledMessage

    def __post_init__(self):
        if self.a.level == self.b.level:
            raise EqualLabels(f"pair ({self.a.id}, {self.b.id}) has equal urgency levels")

    @property
    def gold_more_urgent(self) -> Winner:
        return Winner.A if self.a.level < self.b.level else Winner.B

    @property
    def gap(self) -> int:
        return abs(self.a.level - self.b.level)

    @property
    def difficulty(self) -> Difficulty:
        return difficulty_for_gap(self.gap)

    def to_record(self) -> dict:
        return {
            "a": self.a.to_record(),
            "b": self.b.to_record(),
            "gold_more_urgent": self.gold_more_urgent.value,
            "difficulty": self.difficulty.value,
            "gap": self.gap,
        }

    @classmethod
    def from_record(cls, record: Mapping) -> "EvalPair":
        """Read the two messages; the stored derived fields are ignored."""
        return cls(
            LabeledMessage.from_record(record["a"]),
            LabeledMessage.from_record(record["b"]),
        )


class _CrossLevelPairs(collections.abc.Sequence):
    """Index pairs (i, j), i < j, whose level gap is in ``gaps``, row by row.

    Equal to the list comprehension over all i < j in the same order, but
    it holds only one sorted partner list per level and one offset per row:
    row i is the tail after i of its level's partner list, and
    ``__getitem__`` finds the row by bisecting the row offsets.
    """

    def __init__(self, levels: Sequence[int], gaps: Iterable[int]):
        gaps = set(gaps)
        partners = {
            level: [j for j, other in enumerate(levels) if abs(other - level) in gaps]
            for level in set(levels)
        }
        self._rows: list[tuple[int, list[int], int]] = []  # (i, partners, start)
        self._offsets: list[int] = []
        self._len = 0
        for i, level in enumerate(levels):
            row = partners[level]
            start = bisect.bisect_right(row, i)
            if start < len(row):
                self._rows.append((i, row, start))
                self._offsets.append(self._len)
                self._len += len(row) - start

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index: int) -> tuple[int, int]:
        if not 0 <= index < self._len:
            raise IndexError("pair index out of range")
        row = bisect.bisect_right(self._offsets, index) - 1
        i, partners, start = self._rows[row]
        return i, partners[start + index - self._offsets[row]]

    def __iter__(self):
        for i, partners, start in self._rows:
            for position in range(start, len(partners)):
                yield i, partners[position]


def check_pair_count(count: int) -> None:
    """Raise the ConfigError build_eval_pairs raises for ``count``."""
    if count < 0:
        raise ConfigError("count must be non-negative")


def build_eval_pairs(
    corpus: Sequence[LabeledMessage],
    count: int,
    seed: int,
    difficulty_quotas: Mapping[Difficulty, int] | None = None,
) -> list[EvalPair]:
    """Sample seeded cross-level evaluation pairs.

    Returns exactly ``count`` pairs, or all feasible ones when fewer
    exist. The orientation of each pair (which message is a) is
    randomized. With ``difficulty_quotas`` the sample is drawn per
    difficulty stratum instead and ``count`` is ignored.

    The candidates are every cross-level (i, j), i < j, over the ordinal
    messages in row order, and ``random.sample`` draws from them by index.
    They are never listed: memory is O(N) in the corpus size, and the
    sample for a seed is the same as drawing from the full candidate list.
    """
    check_pair_count(count)
    ordinal = split_ordinal(corpus)[0]
    levels = [labeled.level for labeled in ordinal]
    if len(set(levels)) < 2:
        raise NoValidPairs("corpus has fewer than two distinct urgency levels")
    rng = random.Random(seed)

    def _draw(pool: _CrossLevelPairs, wanted: int) -> list[EvalPair]:
        chosen = pool if wanted >= len(pool) else rng.sample(pool, wanted)
        drawn = []
        for i, j in chosen:
            first, second = (i, j) if rng.random() < 0.5 else (j, i)
            drawn.append(EvalPair(ordinal[first], ordinal[second]))
        return drawn

    if difficulty_quotas is None:
        return _draw(_CrossLevelPairs(levels, range(1, 6)), count)
    pairs: list[EvalPair] = []
    for difficulty in Difficulty:
        wanted = difficulty_quotas.get(difficulty, 0)
        if wanted <= 0:
            continue
        gaps = [gap for gap in range(1, 6) if difficulty_for_gap(gap) is difficulty]
        pairs.extend(_draw(_CrossLevelPairs(levels, gaps), wanted))
    return pairs


@dataclass(frozen=True)
class Triplet:
    """(anchor, more urgent, less urgent); anchor level must be 2..5."""

    anchor: LabeledMessage
    more_urgent: LabeledMessage
    less_urgent: LabeledMessage

    def __post_init__(self):
        if not 2 <= self.anchor.level <= 5:
            raise NoTriplets(
                f"anchor {self.anchor.id!r} has level {self.anchor.level}, need 2..5"
            )
        if not self.more_urgent.level < self.anchor.level < self.less_urgent.level:
            raise NoTriplets(
                f"triplet ({self.more_urgent.id}, {self.anchor.id}, "
                f"{self.less_urgent.id}) violates the level ordering"
            )

    def to_record(self) -> dict:
        return {
            "anchor": self.anchor.to_record(),
            "more_urgent": self.more_urgent.to_record(),
            "less_urgent": self.less_urgent.to_record(),
        }

    @classmethod
    def from_record(cls, record: Mapping) -> "Triplet":
        return cls(
            anchor=LabeledMessage.from_record(record["anchor"]),
            more_urgent=LabeledMessage.from_record(record["more_urgent"]),
            less_urgent=LabeledMessage.from_record(record["less_urgent"]),
        )


DEFAULT_MAX_USES = 4


def check_triplet_limits(max_uses_per_message: int, count: int | None = None) -> None:
    """Raise the ConfigError build_triplets raises for these arguments."""
    if max_uses_per_message < 1:
        raise ConfigError("max_uses_per_message must be >= 1")
    if count is not None and count < 1:
        raise ConfigError("count must be >= 1 when given")


def build_triplets(
    corpus: Sequence[LabeledMessage],
    max_uses_per_message: int = DEFAULT_MAX_USES,
    seed: int = 0,
    count: int | None = None,
) -> list[Triplet]:
    """Generate seeded training triplets with partner usage caps.

    Anchors (levels 2..5) are visited in random order; for each, a more-
    and a less-urgent partner are drawn by first picking an eligible level
    uniformly, then a message within it, skipping messages already used as
    a partner ``max_uses_per_message`` times. Without ``count`` every
    anchor is visited once; with it, passes repeat until the target or the
    supply is exhausted.
    """
    check_triplet_limits(max_uses_per_message, count)
    levels = by_level(corpus)
    anchors = [
        labeled
        for level in (2, 3, 4, 5)
        for labeled in levels.get(level, ())
    ]
    if not anchors:
        raise NoTriplets("no messages with level 2..5 to anchor on")
    rng = random.Random(seed)
    usage: Counter = Counter()
    triplets: list[Triplet] = []
    # per level, the messages still under the cap, in corpus order
    open_partners = {level: list(members) for level, members in levels.items()}
    levels_of_id: dict[str, set[int]] = {}
    for level, members in levels.items():
        for m in members:
            levels_of_id.setdefault(m.id, set()).add(level)

    def _use(message_id: str) -> None:
        usage[message_id] += 1
        if usage[message_id] == max_uses_per_message:
            for level in levels_of_id[message_id]:
                open_partners[level] = [
                    m for m in open_partners[level] if m.id != message_id
                ]

    def _pick_partner(eligible_levels: list[int]) -> LabeledMessage | None:
        available = [level for level in eligible_levels if open_partners.get(level)]
        if not available:
            return None
        level = rng.choice(available)
        return rng.choice(open_partners[level])

    while True:
        progressed = False
        for anchor in rng.sample(anchors, len(anchors)):
            if count is not None and len(triplets) >= count:
                break
            more = _pick_partner(list(range(1, anchor.level)))
            less = _pick_partner(list(range(anchor.level + 1, 7)))
            if more is None or less is None:
                continue
            _use(more.id)
            _use(less.id)
            triplets.append(
                Triplet(anchor=anchor, more_urgent=more, less_urgent=less)
            )
            progressed = True
        if count is None or len(triplets) >= count or not progressed:
            break
    if not triplets:
        raise NoTriplets("no triplet could be formed from the corpus")
    return triplets


def write_eval_pairs(eval_pairs: Iterable[EvalPair], path: str | Path) -> int:
    return write_jsonl((pair.to_record() for pair in eval_pairs), path)


def read_eval_pairs(path: str | Path) -> list[EvalPair]:
    return read_jsonl(path, EvalPair.from_record)


def _per_object(encode: Callable[[T], R]) -> Callable[[T], R]:
    """``encode`` run once per object, for one file.

    Objects are told apart by identity: hashing a message costs more than
    encoding it. The memo holds each object, so no other can reuse its id.
    """
    memo: dict[int, tuple[T, R]] = {}

    def encoded(item: T) -> R:
        entry = memo.get(id(item))
        if entry is None:
            entry = memo[id(item)] = (item, encode(item))
        return entry[1]

    return encoded


_TRIPLET_LINE = line_format(("anchor", "more_urgent", "less_urgent"))


def write_triplets(triplets: Iterable[Triplet], path: str | Path) -> int:
    """Write ``Triplet.to_record`` lines, each message's record encoded once."""
    record = _per_object(lambda labeled: encode_json(labeled.to_record()))
    return write_lines(
        (
            _TRIPLET_LINE.format(
                record(triplet.anchor), record(triplet.more_urgent), record(triplet.less_urgent)
            )
            for triplet in triplets
        ),
        path,
    )


def read_triplets(path: str | Path) -> list[Triplet]:
    return read_jsonl(path, Triplet.from_record)


@dataclass(frozen=True)
class ExportSummary:
    records: int
    path: Path


_SFT_LINE = line_format(("prompt", "completion"))
_REWARD_LINE = line_format(("prompt", "chosen", "rejected"))
_YES, _NO = encode_json("YES"), encode_json("NO")


def export_sft(triplets: Sequence[Triplet], path: str | Path) -> ExportSummary:
    """Write the SFT training export (JSONL of {prompt, completion}).

    Four yes/no records per triplet, exactly label-balanced. Each record's
    prompt asks whether the new (second) message is more urgent than the
    existing (first) one, so:
    (anchor, more) -> YES, (anchor, less) -> NO,
    (more, anchor) -> NO,  (less, anchor) -> YES.
    The lines stream into the file, joined from each message's encoding.
    """
    if not triplets:
        raise NoTriplets("nothing to export")
    encoded = _per_object(prompts.encode_message)

    def lines():
        for triplet in triplets:
            anchor = encoded(triplet.anchor.message)
            more = encoded(triplet.more_urgent.message)
            less = encoded(triplet.less_urgent.message)
            layout = (
                (anchor, more, _YES),
                (anchor, less, _NO),
                (more, anchor, _NO),
                (less, anchor, _YES),
            )
            for existing, new, target in layout:
                prompt = prompts.render_json(
                    prompts.URGENT_SFT, prompts.encoded_pair_bindings(existing, new)
                )
                yield _SFT_LINE.format(prompt, target)

    return ExportSummary(write_lines(lines(), path), Path(path))


def export_reward(triplets: Sequence[Triplet], path: str | Path) -> ExportSummary:
    """Write the reward training export (JSONL of {prompt, chosen, rejected}).

    Two preference records per triplet: forward and inverse prompts.
    Forward asks for a more urgent message (chosen = more urgent); the
    inverse asks for a less urgent one (chosen = less urgent), balancing
    gradient updates against the four SFT records. The lines stream into
    the file, joined from each message's encoding.
    """
    if not triplets:
        raise NoTriplets("nothing to export")
    encoded = _per_object(lambda message: prompts.encode_message(message).block)

    def lines():
        for triplet in triplets:
            anchor = {"message": encoded(triplet.anchor.message)}
            # chosen and rejected are the blocks themselves, as JSON strings
            more = f'"{encoded(triplet.more_urgent.message)}"'
            less = f'"{encoded(triplet.less_urgent.message)}"'
            forward = prompts.render_json(prompts.URGENT_REWARD, anchor)
            inverse = prompts.render_json(prompts.URGENT_REWARD_INVERSE, anchor)
            yield _REWARD_LINE.format(forward, more, less)
            yield _REWARD_LINE.format(inverse, less, more)

    return ExportSummary(write_lines(lines(), path), Path(path))


@dataclass(frozen=True)
class InboxSpec:
    """Message counts for L1..L6 in order, e.g. (5, 3, 5, 7, 7, 4), plus the sampling seed."""

    counts: tuple[int, ...]
    seed: int = 0

    def __post_init__(self):
        counts = tuple(self.counts)
        if len(counts) != 6:
            raise ConfigError("inbox spec needs exactly 6 counts (L1..L6)")
        for level, count in enumerate(counts, start=1):
            if count < 0:
                raise ConfigError(f"negative count for L{level}")
        if sum(counts) < 2:
            raise ConfigError("inbox spec must request at least 2 messages")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return sum(self.counts)


def assemble_inbox(
    corpus: Sequence[LabeledMessage], spec: InboxSpec
) -> list[LabeledMessage]:
    """Draw the requested per-level counts and shuffle the result.

    Sampling and the final order are both seeded; the initial order is a
    uniform shuffle since win-rate ranking is order-insensitive anyway.
    """
    levels = by_level(corpus)
    rng = random.Random(spec.seed)
    picked: list[LabeledMessage] = []
    for level, wanted in enumerate(spec.counts, start=1):
        if wanted == 0:
            continue
        pool = levels.get(level, [])
        if len(pool) < wanted:
            label = label_for_level(level)
            raise InsufficientLevel(
                f"need {wanted} {label.value} messages, corpus has {len(pool)}",
                label=label,
            )
        picked.extend(rng.sample(pool, wanted))
    rng.shuffle(picked)
    return picked
