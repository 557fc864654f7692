"""Tournament ranking: all-pairs comparison and win-rate sort.

Every unordered pair is compared exactly once (two directed backend
scores). The winner's running score grows by 1 + |eta|; a tie credits 0.5
to each side. The final ranking sorts by total score, ids ascending on
exact ties, which makes the result invariant to the input inbox order.

Every credit is a float in [1, 2] or 0.5, so each is a whole number of
2**-52 units. Totals are summed in those integer units and divided once,
so a score is exact whatever order its credits arrived in: an
incrementally built ranking equals the full tournament bit for bit.

A comparator with ``score_batch`` is handed the pairs ``_BATCH`` at a
time and yields their outcomes in pair order; any other is asked pair by
pair through ``compare``. The tournament itself runs on the calling
thread: a remote comparator keeps its own requests in flight. Each
outcome is credited in pair order, then written to the tournament's log
or dropped, so memory is O(``_BATCH``), not O(pairs). A failed comparison
aborts the tournament, leaving no new log: a triage ranking built on
partial comparisons is a safety hazard.
"""

from __future__ import annotations

from collections import deque
from contextlib import closing
from dataclasses import dataclass, field
from itertools import combinations, islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .compare import Comparator, ComparisonOutcome, Winner, compare
from .corpus import Message, write_lines
from .errors import DataError, DuplicateId

_UNIT = 2**52
_HALF = _UNIT // 2
# pairs handed to a comparator's score_batch at a time
_BATCH = 256


@dataclass(frozen=True)
class TournamentResult:
    """Ranking, exact scores and comparison counts of a tournament.

    The outcomes are not held: ``run_tournament`` writes them to its log.
    comparisons_made counts pairs that reached the backend; cache_hits
    counts pairs served entirely from cache. Their sum is n(n-1)/2 for a
    full tournament over n messages. score_units holds the exact totals
    behind scores, in units of 2**-52.
    """

    messages: tuple[Message, ...]
    ranking: tuple[str, ...]
    scores: dict[str, float]
    ties_encountered: int
    comparisons_made: int
    cache_hits: int
    score_units: dict[str, int] = field(repr=False, compare=False)

    def to_record(self) -> dict:
        """The report's view: no messages."""
        return {
            "ranking": list(self.ranking),
            "scores": {k: self.scores[k] for k in sorted(self.scores)},
            "ties_encountered": self.ties_encountered,
            "comparisons_made": self.comparisons_made,
            "cache_hits": self.cache_hits,
        }


def _execute_pairs(
    pairs: Iterable[tuple[Message, Message]], comparator: Comparator
) -> Iterator[tuple[ComparisonOutcome, bool]]:
    """Yield (outcome, served_from_cache) in the given pair order.

    A comparator with ``score_batch`` is handed a list of at most
    ``_BATCH`` pairs at a time, so the pairs pulled ahead of the last one
    yielded do not grow with the pairs; any other is asked through
    ``compare``, one pair at a time.
    """
    score_batch = getattr(comparator, "score_batch", None)
    if score_batch is None:
        for a, b in pairs:
            yield compare(comparator, a, b), False
        return
    pairs = iter(pairs)
    while batch := list(islice(pairs, _BATCH)):
        yield from score_batch(batch)


def _credit(
    executed: Iterable[tuple[ComparisonOutcome, bool]],
    units: dict[str, int],
    counts: list[int],
) -> Iterator[ComparisonOutcome]:
    """Credit each pair's score mass in exact units, in order, and yield its outcome.

    Once ``executed`` is exhausted, its ties, comparisons made and cache
    hits are added to ``counts``, in that order.
    """
    ties = made = hits = 0
    tie, b_wins = Winner.TIE, Winner.B  # read once: enum members are slow to look up
    for outcome, from_cache in executed:
        if from_cache:
            hits += 1
        else:
            made += 1
        a_id, b_id, _, _, eta, winner, _ = outcome  # one unpack, not four field reads
        if winner is tie:
            units[a_id] += _HALF
            units[b_id] += _HALF
            ties += 1
        else:
            units[b_id if winner is b_wins else a_id] += int((1.0 + abs(eta)) * _UNIT)
        yield outcome
    counts[0] += ties
    counts[1] += made
    counts[2] += hits


def _result(
    messages: tuple[Message, ...], units: dict[str, int], counts: list[int]
) -> TournamentResult:
    """Scores from the exact totals, ranked by total then id."""
    ties, made, hits = counts
    return TournamentResult(
        messages=messages,
        ranking=tuple(sorted(units, key=lambda message_id: (-units[message_id], message_id))),
        scores={message_id: total / _UNIT for message_id, total in units.items()},
        ties_encountered=ties,
        comparisons_made=made,
        cache_hits=hits,
        score_units=units,
    )


def run_tournament(
    inbox: Sequence[Message], comparator: Comparator, max_workers: int = 1,
    log: str | Path | None = None,
) -> TournamentResult:
    """Compare all n-choose-2 pairs and sort the inbox by total score.

    Pairs are visited in sorted-id order, so scores do not depend on the
    input permutation. With ``log``, each outcome's ``to_line()`` is
    written to that path through ``write_lines`` as soon as it is credited:
    a failed comparison leaves no new log, and the previous one whole.
    Without it, outcomes are dropped.

    ``max_workers`` has no effect. It is kept only because bench/workloads.py
    passes it, and goes with ROADMAP item 7.
    """
    if len(inbox) < 2:
        raise DataError(f"tournament needs at least 2 messages, got {len(inbox)}")
    ids = [message.id for message in inbox]
    if len(set(ids)) != len(ids):
        raise DuplicateId("inbox contains duplicate message ids")
    ordered = sorted(inbox, key=lambda message: message.id)
    units = {message.id: 0 for message in ordered}
    counts = [0, 0, 0]
    executed = _execute_pairs(combinations(ordered, 2), comparator)
    with closing(executed):  # on a failed write too, so a batch's requests end with the call
        credited = _credit(executed, units, counts)
        if log is None:
            deque(credited, maxlen=0)
        else:
            write_lines((outcome.to_line() for outcome in credited), log)
    return _result(tuple(ordered), units, counts)


def insert_incremental(
    result: TournamentResult,
    new_message: Message,
    comparator: Comparator,
    max_workers: int = 1,
) -> TournamentResult:
    """Add one message using only n new comparisons.

    All previous pairwise scores are kept untouched; only the new
    message's pairs are compared, in the same id-sorted direction the full
    tournament uses, so a cached re-run over the enlarged inbox needs zero
    backend calls. The new outcomes are dropped, as with no log.
    ``max_workers`` has no effect, as in ``run_tournament``.
    """
    if new_message.id in result.scores:
        raise DuplicateId(f"message {new_message.id!r} is already ranked")
    units = dict(result.score_units)
    units[new_message.id] = 0
    counts = [result.ties_encountered, result.comparisons_made, result.cache_hits]
    new_id = new_message.id
    pairs = (
        (existing, new_message) if existing.id < new_id else (new_message, existing)
        for existing in result.messages
    )
    deque(_credit(_execute_pairs(pairs, comparator), units, counts), maxlen=0)
    messages = tuple(sorted((*result.messages, new_message), key=lambda message: message.id))
    return _result(messages, units, counts)
