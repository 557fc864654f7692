"""Pairwise urgency comparators and the pair-score contract.

A comparator scores a pair in both directions, (s_ab, s_ba), where s_ab
answers "how strongly is b, the new message, more urgent than a, the
existing one" and s_ba the same with the roles swapped. It implements
score_pair(a, b), which returns the two, or score_batch(pairs), which
yields whole outcomes; score_pairs() is the one entry point to either, and
compare() is its one-pair case. An outcome reduces the two scores to a
signed margin eta in [-1, 1]:

    probability backends:  eta = s_ab - s_ba
    reward backends:       eta = sigmoid(d) - sigmoid(-d),  d = s_ab - s_ba

eta > 0 means the second argument (b) is more urgent; eta < 0 the first;
eta = 0 is an explicit TIE. Exact score equality is the only tie; there is
no epsilon band.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
import os
import re
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Protocol, Sequence

from . import gateway, prompts
from .corpus import LabeledMessage, Message, UrgencyLabel
from .gateway import CompletionResult, finite_score
from .errors import (
    BadScore,
    ComparisonFailed,
    ConfigError,
    ExportFailed,
    OracleNeedsLabels,
    TriageRankError,
    UnparseableAnswer,
    UnparseableLogprobs,
)

logger = logging.getLogger(__name__)


class Winner(Enum):
    A = "A"
    B = "B"
    TIE = "TIE"


class ScoreKind(Enum):
    PROBABILITY = "probability"
    REWARD = "reward"


_KINDS = {kind.value: kind for kind in ScoreKind}

# reading an enum member through its class takes the enum metaclass's slow
# attribute path; the per-pair constructors below read these names instead
_PROBABILITY = ScoreKind.PROBABILITY
_A, _B, _TIE = Winner.A, Winner.B, Winner.TIE
# a member's .value is a property (150-270 ns a read on Python 3.11), so the line
# writers pick a kind's or a winner's text by identity against the names above
_PROBABILITY_NAME, _REWARD_NAME = ScoreKind.PROBABILITY.value, ScoreKind.REWARD.value


# frozen records set their slots once, in __init__, through object.__setattr__
_set = object.__setattr__


@dataclass(frozen=True, slots=True, init=False)
class DirectionScore:
    """Score for one prompt direction. Probability kind must be in [0, 1].

    The value is a plain finite float, by ``gateway.finite_score``'s rule;
    a value that already is one skips the rule.
    """

    value: float
    kind: ScoreKind

    def __init__(self, value: float, kind: ScoreKind):
        if type(value) is not float or not math.isfinite(value):
            value = finite_score(value)
        if kind is _PROBABILITY and not 0.0 <= value <= 1.0:
            raise BadScore(f"probability score out of [0, 1]: {value!r}")
        _set(self, "value", value)
        _set(self, "kind", kind)


class ComparisonOutcome(tuple):
    """Both directed scores for a pair plus the margin and winner derived from them.

    An immutable record: a tuple of (a_id, b_id, ab, ba, eta, winner, kind),
    the two scores held as plain floats of one kind. a_id, b_id, eta and
    winner are read by name; ``s_ab`` and ``s_ba`` build the pair's
    DirectionScores when read. eta is
    ``_eta(kind, ab, ba)``, and every way to build one derives it there: the
    public constructor from two DirectionScores, raising ComparisonFailed on
    mixed kinds, and ``_outcome`` from values already checked.
    """

    __slots__ = ()

    def __new__(cls, a_id: str, b_id: str, s_ab: DirectionScore, s_ba: DirectionScore):
        kind = s_ab.kind
        if s_ba.kind is not kind:
            raise _mixed_kinds(s_ab, s_ba)
        return _outcome(a_id, b_id, kind, s_ab.value, s_ba.value)

    a_id = property(itemgetter(0))
    b_id = property(itemgetter(1))
    eta = property(itemgetter(4))
    winner = property(itemgetter(5))

    @property
    def s_ab(self) -> DirectionScore:
        return DirectionScore(self[2], self[6])

    @property
    def s_ba(self) -> DirectionScore:
        return DirectionScore(self[3], self[6])

    def __getnewargs__(self) -> tuple[str, str, DirectionScore, DirectionScore]:
        # copy and pickle rebuild an outcome from its scores, deriving the rest again
        return self[0], self[1], self.s_ab, self.s_ba

    def __repr__(self) -> str:
        a_id, b_id, _, _, eta, winner, _ = self
        return (
            f"ComparisonOutcome(a_id={a_id!r}, b_id={b_id!r}, s_ab={self.s_ab!r}, "
            f"s_ba={self.s_ba!r}, eta={eta!r}, winner={winner!r})"
        )

    def to_line(self) -> str:
        """The outcome's line of a tournament's outcome log.

        It is ``json.dumps(record, sort_keys=True) + "\\n"`` for the record of
        a_id, b_id, eta, kind, s_ab, s_ba and winner, the enums by their
        values. Every score and eta is a finite plain float, which json.dumps
        writes by repr; the kind and winner names need no escaping. The two
        ids are encoded per line; the rest, from ``"eta"`` on, comes from
        ``_outcome_tail``, which formats each distinct pair of scores once and
        holds the last ``_TAIL_CACHE_SIZE`` of them. A pair with a zero score
        skips that cache: ``0.0 == -0.0`` and both hash alike, but they print
        differently.
        """
        a_id, b_id, ab, ba, _, _, kind = self
        tail = _outcome_tail if ab and ba else _outcome_tail.__wrapped__
        return (
            f'{{"a_id": {encode_basestring_ascii(a_id)}, '
            f'"b_id": {encode_basestring_ascii(b_id)}, {tail(kind is _PROBABILITY, ab, ba)}'
        )


# how many distinct score pairs each line-tail cache below holds; the oracle
# gives three, and a remote run's one-off values evict each other
_TAIL_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_TAIL_CACHE_SIZE)
def _outcome_tail(is_probability: bool, ab: float, ba: float) -> str:
    """An outcome line from ``"eta"`` to its end, eta and the winner derived as ``_outcome`` does.

    Keyed on a bool, not the ScoreKind: an enum member hashes in Python.
    """
    eta = _eta(_PROBABILITY if is_probability else ScoreKind.REWARD, ab, ba)
    won = "B" if eta > 0 else "A" if eta < 0 else "TIE"
    kind_name = _PROBABILITY_NAME if is_probability else _REWARD_NAME
    return (
        f'"eta": {eta!r}, "kind": "{kind_name}", "s_ab": {ab!r}, "s_ba": {ba!r}, '
        f'"winner": "{won}"}}\n'
    )


_new_tuple = tuple.__new__


def _outcome(a_id: str, b_id: str, kind: ScoreKind, ab: float, ba: float) -> ComparisonOutcome:
    """The pair's outcome from its two scores of one kind, values DirectionScore accepts."""
    eta = _eta(kind, ab, ba)
    winner = _B if eta > 0 else _A if eta < 0 else _TIE
    return _new_tuple(ComparisonOutcome, (a_id, b_id, ab, ba, eta, winner, kind))


class Comparator(Protocol):
    """Scores pairs through ``score_pair`` or ``score_batch``.

    ``score_pair(a, b)`` returns both directions' scores in one call, as the
    oracle does, which looks up a pair's levels and draws its flip once.
    ``score_batch(pairs)`` yields each pair's ``(outcome, served_from_cache)``
    in pair order, as the remote comparators and the cache do. Callers go
    through ``score_pairs`` or ``compare``, never either method. A
    comparator that goes behind ``CachedComparator`` also has
    ``backend_view(message)``.
    """

    def score_pair(self, a: Message, b: Message) -> tuple[DirectionScore, DirectionScore]: ...


def _logistic(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def _mixed_kinds(s_ab: DirectionScore, s_ba: DirectionScore) -> ComparisonFailed:
    return ComparisonFailed(f"mixed score kinds: {s_ab.kind.value} vs {s_ba.kind.value}")


def _eta(kind: ScoreKind, ab: float, ba: float) -> float:
    """The signed margin in [-1, 1] of two directed scores of one kind."""
    if kind is _PROBABILITY:
        return ab - ba
    difference = ab - ba
    return _logistic(difference) - _logistic(-difference)


# pairs handed to a comparator's score_batch at a time
_BATCH = 256


def score_pairs(
    comparator: Comparator, pairs: Iterable[tuple[Message, Message]]
) -> Iterator[tuple[ComparisonOutcome, bool]]:
    """Yield each pair's (outcome, served_from_cache) in pair order.

    A comparator with ``score_batch`` is handed a list of at most ``_BATCH``
    pairs at a time, so the pairs pulled ahead of the last one yielded do
    not grow with the pairs; a self-pair raises ConfigError before its list
    is handed over. Any other is asked through ``score_pair``, one pair at a
    time: a self-pair raises ConfigError, and a failure in either
    direction, a comparator without ``score_pair``, a return of anything but
    two DirectionScores, or scores of mixed kinds raise ComparisonFailed.
    No partial outcome is produced.
    """
    score_batch = getattr(comparator, "score_batch", None)
    if score_batch is not None:
        pairs = iter(pairs)
        while batch := list(islice(pairs, _BATCH)):
            for a, b in batch:
                if a.id == b.id:
                    raise _self_pair(a.id)
            yield from score_batch(batch)
        return
    for a, b in pairs:
        a_id, b_id = a.id, b.id
        if a_id == b_id:
            raise _self_pair(a_id)
        try:
            scores = comparator.score_pair(a, b)
        except ComparisonFailed:
            raise
        except Exception as exc:
            raise _failed(a_id, b_id, exc) from exc
        try:
            s_ab, s_ba = scores
        except (TypeError, ValueError):
            raise _malformed(a_id, b_id, scores) from None
        if type(s_ab) is not DirectionScore or type(s_ba) is not DirectionScore:
            raise _malformed(a_id, b_id, scores)
        kind = s_ab.kind
        if s_ba.kind is not kind:
            raise _mixed_kinds(s_ab, s_ba)
        yield _outcome(a_id, b_id, kind, s_ab.value, s_ba.value), False


def compare(comparator: Comparator, a: Message, b: Message) -> ComparisonOutcome:
    """The pair's outcome: the one ``score_pairs`` yields for it alone."""
    ((outcome, _),) = score_pairs(comparator, ((a, b),))
    return outcome


def _self_pair(message_id: str) -> ConfigError:
    return ConfigError(f"cannot compare message {message_id!r} with itself")


def _failed(a_id: str, b_id: str, exc: Exception) -> ComparisonFailed:
    detail = exc if isinstance(exc, TriageRankError) else f"{type(exc).__name__}: {exc}"
    return ComparisonFailed(f"pair ({a_id}, {b_id}): {detail}")


def _malformed(a_id: str, b_id: str, scores: object) -> ComparisonFailed:
    return ComparisonFailed(
        f"pair ({a_id}, {b_id}): score_pair returned {scores!r:.200}, not two DirectionScores"
    )


# the oracle's probability distance from 0.5 unless a caller sets one
ORACLE_MARGIN = 0.4


class NoisyOracleComparator:
    """Label-aware test double with gap-dependent error.

    Knows the gold labels and emits calibrated-looking probabilities of
    0.5 +/- margin. With probability flip(gap) the wrong message is
    favored. A pair's draw is a keyed hash of (seed, sorted id pair), so
    results are independent of call order and concurrency.
    """

    def __init__(
        self,
        labels: Mapping[str, UrgencyLabel] | Iterable[LabeledMessage],
        flip_prob_by_gap: Mapping[int, float] | None = None,
        seed: int = 0,
        margin: float = ORACLE_MARGIN,
    ):
        if not isinstance(labels, Mapping):
            labels = {item.id: item.label for item in labels}
        self._levels = {
            message_id: label.level
            for message_id, label in labels.items()
            if label.is_ordinal
        }
        self._flip = dict(flip_prob_by_gap or {})
        for gap, probability in self._flip.items():
            if not 1 <= gap <= 5:
                raise ConfigError(f"flip gap {gap} out of 1..5, the gaps between two levels")
            if not 0.0 <= probability <= 1.0:
                raise ConfigError(f"flip probability for gap {gap} out of [0, 1]")
        if not 0.0 < margin <= 0.5:
            raise ConfigError("margin must be in (0, 0.5]")
        self._seed = seed
        # the only three scores the oracle gives, built and checked once
        self._more_urgent = DirectionScore(0.5 + margin, ScoreKind.PROBABILITY)
        self._less_urgent = DirectionScore(0.5 - margin, ScoreKind.PROBABILITY)
        self._even = DirectionScore(0.5, ScoreKind.PROBABILITY)
        # names the draw, so a cache written under another draw rule misses
        self.cache_identity = (
            f"oracle(draw=blake2b,seed={seed},margin={margin},"
            f"flip={sorted(self._flip.items())})"
        )

    def backend_view(self, message: Message) -> str:
        """The id, which keys the flip draw, and the gold level (null if none)."""
        return json.dumps([message.id, self._levels.get(message.id)])

    def _flipped(self, id_a: str, id_b: str, flip: float) -> bool:
        """The pair's seeded flip draw, shared by both directions.

        u is the 8-byte BLAKE2b digest of ``"{seed}|{first}|{second}"``
        (the ids sorted), read big-endian; its top 53 bits make a float in
        [0, 1) the way ``random.random()`` builds one, and the pair flips
        iff that float is below ``flip``.
        """
        first, second = (id_a, id_b) if id_a < id_b else (id_b, id_a)
        key = f"{self._seed}|{first}|{second}".encode()
        u = int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")
        return (u >> 11) * 2**-53 < flip

    def score_pair(self, a: Message, b: Message) -> tuple[DirectionScore, DirectionScore]:
        """(s_ab, s_ba) from one lookup of each level and one flip draw.

        A message without an ordinal label raises OracleNeedsLabels, a's
        before b's.
        """
        levels = self._levels
        level_a = levels.get(a.id)
        level_b = levels.get(b.id)
        if level_a is None or level_b is None:
            missing = a if level_a is None else b
            raise OracleNeedsLabels(
                f"no ordinal label for message {missing.id!r}", message_id=missing.id
            )
        if level_a == level_b:
            return self._even, self._even
        b_is_more_urgent = level_b < level_a
        flip = self._flip.get(abs(level_a - level_b), 0.0)
        if flip > 0.0 and self._flipped(a.id, b.id, flip):
            b_is_more_urgent = not b_is_more_urgent
        if b_is_more_urgent:
            return self._more_urgent, self._less_urgent
        return self._less_urgent, self._more_urgent

    # kept only because bench/spans.py wraps it; goes with ROADMAP item 7
    def score_directed(self, existing: Message, new: Message) -> DirectionScore:
        return self.score_pair(existing, new)[0]


def perfect_oracle(
    labels: Mapping[str, UrgencyLabel] | Iterable[LabeledMessage],
) -> NoisyOracleComparator:
    """Noiseless oracle: always agrees with the gold level ordering."""
    return NoisyOracleComparator(labels, flip_prob_by_gap=None)


class _EndpointComparator:
    """A comparator that sends one request per direction to an endpoint.

    ``score_batch`` hands every request of its pairs to one pool of
    ``max_parallel`` threads, so that many are in flight across pairs. The
    threads are reused across calls and end once the comparator is dropped;
    the gateway's ``max_parallel`` semaphore still bounds the requests in
    flight per endpoint.
    """

    def __init__(self, config: gateway.EndpointConfig):
        self._config = config
        self._requests = ThreadPoolExecutor(
            config.max_parallel, thread_name_prefix="triagerank-request"
        )

    def score_batch(
        self, pairs: Sequence[tuple[Message, Message]]
    ) -> Iterator[tuple[ComparisonOutcome, bool]]:
        """Yield each pair's (outcome, False) in pair order, all its requests sent at once.

        The first pair in order that fails raises ComparisonFailed, its
        forward's error before its reverse's. On that error, and when the
        caller stops early, the requests not yet started are cancelled and
        the running ones awaited, so no request outlives the call.
        """
        submit, directed = self._requests.submit, self.score_directed
        sent = [(submit(directed, a, b), submit(directed, b, a)) for a, b in pairs]
        try:
            for (a, b), (forward, reverse) in zip(pairs, sent):
                try:
                    s_ab, s_ba = forward.result(), reverse.result()
                except ComparisonFailed:
                    raise
                except Exception as exc:
                    raise _failed(a.id, b.id, exc) from exc
                yield ComparisonOutcome(a.id, b.id, s_ab, s_ba), False
        finally:
            requests = [request for both in sent for request in both]
            for request in requests:
                request.cancel()
            wait(requests)


class LogprobComparator(_EndpointComparator):
    """Directed probability from the YES token mass of a chat backend."""

    _identity_prefix = "logprob"
    _want_logprobs = True

    def __init__(self, config: gateway.EndpointConfig):
        super().__init__(config)
        self.cache_identity = f"{self._identity_prefix}({config.model_name})"
        self.prompt_variant = f"urgent_sft@{prompts.CATALOG_VERSION}"

    def backend_view(self, message: Message) -> str:
        """The two strings ``pair_bindings`` binds, as one JSON array.

        Not ``message_block``: a text ending in an EHR block, with no EHR, has
        the block of the bare text with that EHR, but renders another prompt.
        """
        return json.dumps([message.text, prompts.format_ehr_block(message.ehr)])

    def score_directed(self, existing: Message, new: Message) -> DirectionScore:
        prompt = prompts.render(prompts.URGENT_SFT, prompts.pair_bindings(existing, new))
        result = gateway.complete(
            self._config, prompts.SYSTEM.body, prompt, want_logprobs=self._want_logprobs
        )
        return DirectionScore(self._answer(result, existing, new), ScoreKind.PROBABILITY)

    def _answer(self, result: CompletionResult, existing: Message, new: Message) -> float:
        if not result.token_probabilities:
            raise UnparseableLogprobs(
                f"no YES/NO probability for pair ({existing.id}, {new.id})"
            )
        return result.token_probabilities["YES"]


_FINAL_ANSWER = re.compile(r"\b(YES|NO)\b", re.IGNORECASE)


def parse_final_answer(text: str) -> str:
    """Last standalone YES/NO in a completion; raises UnparseableAnswer."""
    matches = _FINAL_ANSWER.findall(text)
    if not matches:
        raise UnparseableAnswer(f"no YES/NO found in completion: {text[:200]!r}")
    return matches[-1].upper()


class ReasoningComparator(LogprobComparator):
    """Hard 0/1 probability from the final YES/NO of a free-text completion."""

    _identity_prefix = "reasoning"
    _want_logprobs = False

    def _answer(self, result: CompletionResult, existing: Message, new: Message) -> float:
        return 1.0 if parse_final_answer(result.text) == "YES" else 0.0


class RewardComparator(_EndpointComparator):
    """Scalar reward for the new message as a more-urgent completion."""

    def __init__(self, config: gateway.EndpointConfig):
        super().__init__(config)
        self.cache_identity = f"reward({config.model_name})"
        self.prompt_variant = f"urgent_reward@{prompts.CATALOG_VERSION}"

    def backend_view(self, message: Message) -> str:
        """``message_block``, the one string either direction sends of a message."""
        return prompts.message_block(message)

    def score_directed(self, existing: Message, new: Message) -> DirectionScore:
        prompt = prompts.render(
            prompts.URGENT_REWARD, {"message": prompts.message_block(existing)}
        )
        value = gateway.score(self._config, prompt, prompts.message_block(new))
        return DirectionScore(value, ScoreKind.REWARD)


_KEY_WIDTH = 16 + 2 * 32  # hex digits: the comparator's digest, then two message digests


class ComparisonCache:
    """Append-only on-disk store of compared pairs, one line per pair.

    A line is ``<key> <kind> <first> <second>``: a fixed-width hex key, the
    score kind and the pair's two scores by repr, in the order of the key's
    two message digests. A loaded line is held as its kind and two floats,
    with no DirectionScore built: the load applies DirectionScore's rule to
    each value (finite, and a probability in [0, 1]), and ``get`` returns
    ``(kind, first, second)``. A load drops corrupt lines with a warning
    each, among them a line that does not decode as UTF-8 (valid lines are
    ASCII), and lines of the old per-direction format, which can never hit,
    with one; they stay in the file and are dropped again by every load.
    Later lines win. A load never rewrites the file, so every store's append
    handle stays on the file that loads read: its one write cuts off, in
    place, a last line without its newline, which a write that stopped
    partway leaves, so that the next append starts a line of its own.

    Writes go through one unbuffered binary append handle, opened on the
    first put; each line is one write (repeated only after a short write),
    so another store opened on the same path sees every pair written so far.
    """

    def __init__(self, path: str | Path):
        self._path = Path(path)
        self._entries: dict[str, tuple[ScoreKind, float, float]] = {}
        self._lock = threading.Lock()
        self._handle = None
        if self._path.exists():
            self._load()

    def __len__(self) -> int:
        return len(self._entries)

    def _load(self) -> None:
        old_format = 0
        entries, isfinite = self._entries, math.isfinite
        try:
            # a byte that does not decode spoils only its line, which the loop drops,
            # and surrogateescape keeps it one character, so a line's bytes can be
            # counted; only "\n" ends a line: text mode turns "\r\n" and "\r" into it
            with self._path.open(encoding="utf-8", errors="surrogateescape") as lines:
                for line in lines:
                    if line[-1] != "\n":
                        # the last line, cut short by a write that stopped partway: it
                        # may still parse, to a wrong score, and would swallow an append
                        logger.warning(
                            "CacheInvalid: dropping unterminated last line in %s", self._path
                        )
                        end = lines.buffer.tell()
                        start = end - len(line.encode("utf-8", "surrogateescape"))
                        try:  # in place, and only while no store has appended after it
                            if os.fstat(lines.fileno()).st_size == end:
                                os.truncate(self._path, start)
                        except OSError as exc:
                            logger.warning("CacheInvalid: cannot cut %s short (%s)", self._path, exc)
                        break
                    if line == "\n":
                        continue
                    try:
                        # the line keeps its "\n", which float() ignores like any
                        # whitespace around a number
                        key, kind_name, first, second = line.split(" ")
                        kind = _KINDS[kind_name]
                        first, second = float(first), float(second)
                        # an ASCII key of the width, and values that pass DirectionScore's rule
                        if len(key) != _KEY_WIDTH or not key.isascii() or not (
                            0.0 <= first <= 1.0 and 0.0 <= second <= 1.0
                            if kind is _PROBABILITY
                            else isfinite(first) and isfinite(second)
                        ):
                            raise ValueError("bad line")
                    except (ValueError, KeyError):
                        if line.startswith("{"):
                            old_format += 1
                        else:
                            logger.warning(
                                "CacheInvalid: dropping corrupt cache line in %s", self._path
                            )
                        continue
                    entries[key] = (kind, first, second)
        except OSError as exc:
            entries.clear()
            logger.warning(
                "CacheInvalid: cannot read cache %s (%s); starting empty", self._path, exc
            )
            return
        if old_format:
            logger.warning(
                "CacheInvalid: dropping %d old-format lines in %s", old_format, self._path
            )

    @staticmethod
    def _format_line(key: str, kind: ScoreKind, first: float, second: float) -> str:
        """The pair's line: key, kind and the two values by repr.

        The part after the key comes from ``_cache_line_tail``, which formats
        each distinct pair of values once and holds the last
        ``_TAIL_CACHE_SIZE`` of them. A pair with a zero value skips that
        cache: ``0.0 == -0.0`` and both hash alike, but they print differently.
        """
        tail = _cache_line_tail if first and second else _cache_line_tail.__wrapped__
        return key + tail(kind is _PROBABILITY, first, second)

    def get(self, key: str) -> tuple[ScoreKind, float, float] | None:
        """The pair's (kind, first, second), in the order of the key's digests, or None."""
        return self._entries.get(key)

    def put(self, key: str, kind: ScoreKind, first: float, second: float) -> None:
        """Store the pair's (kind, first, second), as ``get`` returns them, and append its line.

        The scores are values DirectionScore accepts, as an outcome holds them.
        An OSError from the append -> ExportFailed, naming the cache file.
        """
        scores = (kind, first, second)
        line = self._format_line(key, kind, first, second).encode("ascii")
        with self._lock:
            self._entries[key] = scores
            try:
                handle = self._handle
                if handle is None:
                    handle = self._handle = self._path.open("ab", buffering=0)
                    # a store dropped without close() still closes its handle
                    weakref.finalize(self, handle.close)
                written = handle.write(line)
                while written < len(line):
                    written += handle.write(line[written:])
            except OSError as exc:
                raise ExportFailed(f"cannot write {self._path}: {exc}") from exc

    def close(self) -> None:
        """Close the append handle; a later put opens it again."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


@functools.lru_cache(maxsize=_TAIL_CACHE_SIZE)
def _cache_line_tail(is_probability: bool, first: float, second: float) -> str:
    """A cache line after its key: the kind and the two values by repr."""
    kind_name = _PROBABILITY_NAME if is_probability else _REWARD_NAME
    return f" {kind_name} {first!r} {second!r}\n"


def _hex_digest(data: str, size: int) -> str:
    # surrogatepass encodes a lone surrogate too, and still one way only
    return hashlib.blake2b(data.encode("utf-8", "surrogatepass"), digest_size=size).hexdigest()


class CachedComparator:
    """Transparent read-through cache around another comparator, one line per pair.

    A pair's key is a digest of ``cache_identity`` and ``prompt_variant``,
    then the digests of the inner comparator's ``backend_view`` of its two
    messages (one per message object) in ascending order: an edited message
    misses, and the other order of a pair reads its line with the scores
    swapped, unless the digests are equal (one prompt both ways). ``hits``
    and ``misses`` count directed scores read from the store and computed.
    Pairs are served in batches, through ``score_batch``.
    """

    def __init__(self, inner: Comparator, store: ComparisonCache):
        self._inner = inner
        self._store = store
        self.cache_identity = getattr(inner, "cache_identity", type(inner).__name__)
        self.prompt_variant = getattr(inner, "prompt_variant", "default")
        self._prefix = _hex_digest(json.dumps([self.cache_identity, self.prompt_variant]), 8)
        # by id(message): _held keeps each message alive, so no other object takes its id
        self._digests: dict[int, str] = {}
        self._held: list[Message] = []
        self._count_lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _digest(self, message: Message) -> str:
        digest = self._digests.get(id(message))
        if digest is None:
            self._held.append(message)  # before its id is stored
            digest = self._digests[id(message)] = _hex_digest(self._inner.backend_view(message), 16)
        return digest

    def _read(
        self, a: Message, b: Message
    ) -> tuple[str, bool, tuple[ScoreKind, float, float] | None]:
        """The pair's key, whether its line holds (b, a)'s order, and its (kind, ab, ba) or None."""
        digests = self._digests  # a stored digest is read here, without a call
        first = digests.get(id(a)) or self._digest(a)
        second = digests.get(id(b)) or self._digest(b)
        swapped = second < first
        key = f"{self._prefix}{second}{first}" if swapped else f"{self._prefix}{first}{second}"
        stored = self._store.get(key)
        if stored is not None and swapped:
            stored = stored[0], stored[2], stored[1]
        return key, swapped, stored

    # kept only because bench/spans.py wraps it; goes with ROADMAP item 7
    def has_cached_pair(self, a: Message, b: Message) -> ComparisonOutcome | None:
        """The pair's outcome when its line is stored, else None; never a self-pair's."""
        stored = None if a.id == b.id else self._read(a, b)[2]
        if stored is None:
            return None
        outcome = _outcome(a.id, b.id, *stored)
        with self._count_lock:
            self.hits += 2
        return outcome

    def score_batch(
        self, pairs: Sequence[tuple[Message, Message]]
    ) -> Iterator[tuple[ComparisonOutcome, bool]]:
        """Yield each pair's (outcome, served_from_cache) in pair order.

        Each pair's line is read once, before the inner comparator starts.
        The misses go to it through ``score_pairs``: only the first pair of
        each key, as a later pair of that key is served from the first one's
        scores. Each miss is stored from its outcome's floats as it returns.
        The first pair that fails raises; it stores nothing, and the misses
        before it stay stored.
        """
        read = self._read
        lines = [read(a, b) for a, b in pairs]
        first_of_key: dict[str, tuple[Message, Message]] = {}
        for pair, (key, _, stored) in zip(pairs, lines):
            if stored is None and key not in first_of_key:
                first_of_key[key] = pair
        scored = score_pairs(self._inner, first_of_key.values())
        computed: dict[str, tuple[ScoreKind, float, float]] = {}
        hits = misses = 0
        try:
            for (a, b), (key, swapped, stored) in zip(pairs, lines):
                if stored is None:
                    line = computed.get(key)
                    if line is None:
                        outcome, _ = next(scored)
                        _, _, ab, ba, _, _, kind = outcome
                        line = computed[key] = (kind, ba, ab) if swapped else (kind, ab, ba)
                        self._store.put(key, *line)
                        misses += 2
                        yield outcome, False
                        continue
                    stored = (line[0], line[2], line[1]) if swapped else line
                hits += 2
                yield _outcome(a.id, b.id, *stored), True
        finally:
            scored.close()
            with self._count_lock:
                self.hits += hits
                self.misses += misses

    # kept only because bench/spans.py wraps it; goes with ROADMAP item 7
    def score_directed(self, existing: Message, new: Message) -> DirectionScore:
        return compare(self, existing, new).s_ab
