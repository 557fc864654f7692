"""Pairwise urgency comparators and the directed-score contract.

A comparator scores one direction at a time: score_directed(existing, new)
answers "how strongly is the new message more urgent than the existing
one". compare() runs both directions and reduces them to a signed margin
eta in [-1, 1]:

    probability backends:  eta = s_ab - s_ba
    reward backends:       eta = sigmoid(d) - sigmoid(-d),  d = s_ab - s_ba

eta > 0 means the second argument (b) is more urgent; eta < 0 the first;
eta = 0 is an explicit TIE. Exact score equality is the only tie; there is
no epsilon band.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import re
import threading
import weakref
from dataclasses import dataclass
from enum import Enum
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Mapping, Protocol

from . import gateway, prompts
from .corpus import LabeledMessage, Message, UrgencyLabel, write_lines
from .gateway import CompletionResult, finite_score
from .errors import (
    BadScore,
    ComparisonFailed,
    ConfigError,
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


@dataclass(frozen=True, slots=True, init=False)
class ComparisonOutcome:
    """Both directed scores for a pair plus the margin and winner derived from them.

    eta is ``pair_eta(s_ab, s_ba)``, so mixed score kinds raise ComparisonFailed.
    """

    a_id: str
    b_id: str
    s_ab: DirectionScore
    s_ba: DirectionScore
    eta: float
    winner: Winner

    def __init__(self, a_id: str, b_id: str, s_ab: DirectionScore, s_ba: DirectionScore):
        eta = pair_eta(s_ab, s_ba)
        _set(self, "a_id", a_id)
        _set(self, "b_id", b_id)
        _set(self, "s_ab", s_ab)
        _set(self, "s_ba", s_ba)
        _set(self, "eta", eta)
        _set(self, "winner", _B if eta > 0 else _A if eta < 0 else _TIE)

    def to_line(self) -> str:
        """The outcome's line of a tournament's outcome log.

        It is ``json.dumps(record, sort_keys=True) + "\\n"`` for the record of
        a_id, b_id, eta, kind, s_ab, s_ba and winner, the enums by their
        values. Every score and eta is a finite plain float, which json.dumps
        writes by repr; the kind and winner names need no escaping.
        """
        kind = _PROBABILITY_NAME if self.s_ab.kind is _PROBABILITY else _REWARD_NAME
        winner = self.winner
        won = "B" if winner is _B else "A" if winner is _A else "TIE"
        return (
            f'{{"a_id": {encode_basestring_ascii(self.a_id)}, '
            f'"b_id": {encode_basestring_ascii(self.b_id)}, "eta": {self.eta!r}, '
            f'"kind": "{kind}", "s_ab": {self.s_ab.value!r}, "s_ba": {self.s_ba.value!r}, '
            f'"winner": "{won}"}}\n'
        )


class Comparator(Protocol):
    def score_directed(self, existing: Message, new: Message) -> DirectionScore: ...


def _logistic(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def pair_eta(s_ab: DirectionScore, s_ba: DirectionScore) -> float:
    """Reduce two directed scores to the signed margin eta in [-1, 1]."""
    if s_ab.kind is not s_ba.kind:
        raise ComparisonFailed(
            f"mixed score kinds: {s_ab.kind.value} vs {s_ba.kind.value}"
        )
    if s_ab.kind is _PROBABILITY:
        return s_ab.value - s_ba.value
    difference = s_ab.value - s_ba.value
    return _logistic(difference) - _logistic(-difference)


def compare(comparator: Comparator, a: Message, b: Message) -> ComparisonOutcome:
    """Run both directions; the outcome derives eta and the winner.

    Any backend failure in either direction raises ComparisonFailed; no
    partial outcome is produced.
    """
    if a.id == b.id:
        raise ConfigError(f"cannot compare message {a.id!r} with itself")
    try:
        s_ab = comparator.score_directed(a, b)
        s_ba = comparator.score_directed(b, a)
    except ComparisonFailed:
        raise
    except TriageRankError as exc:
        raise ComparisonFailed(f"pair ({a.id}, {b.id}): {exc}") from exc
    except Exception as exc:
        raise ComparisonFailed(
            f"pair ({a.id}, {b.id}): {type(exc).__name__}: {exc}"
        ) from exc
    return ComparisonOutcome(a.id, b.id, s_ab, s_ba)


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
        self._last_draw: tuple[tuple[str, str] | None, bool] = (None, False)
        # names the draw, so a cache written under another draw rule misses
        self.cache_identity = (
            f"oracle(draw=blake2b,seed={seed},margin={margin},"
            f"flip={sorted(self._flip.items())})"
        )

    def _level(self, message: Message) -> int:
        level = self._levels.get(message.id)
        if level is None:
            raise OracleNeedsLabels(
                f"no ordinal label for message {message.id!r}", message_id=message.id
            )
        return level

    def _flipped(self, id_a: str, id_b: str, flip: float) -> bool:
        """The pair's seeded flip draw, shared by both directions.

        u is the 8-byte BLAKE2b digest of ``"{seed}|{first}|{second}"``
        (the ids sorted), read big-endian; its top 53 bits make a float in
        [0, 1) the way ``random.random()`` builds one, and the pair flips
        iff that float is below ``flip``. The last pair's result is kept
        for the reverse direction that ``compare`` asks for next, which
        saves one hash per pair. The memo is one tuple swapped whole, so
        a concurrent caller can only miss it, never read a mixed entry.
        """
        pair = (id_a, id_b) if id_a < id_b else (id_b, id_a)
        last_pair, last_flipped = self._last_draw
        if last_pair == pair:
            return last_flipped
        key = f"{self._seed}|{pair[0]}|{pair[1]}".encode()
        u = int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")
        flipped = (u >> 11) * 2**-53 < flip
        self._last_draw = (pair, flipped)
        return flipped

    def score_directed(self, existing: Message, new: Message) -> DirectionScore:
        level_existing = self._level(existing)
        level_new = self._level(new)
        if level_existing == level_new:
            return self._even
        flip = self._flip.get(abs(level_existing - level_new), 0.0)
        flipped = flip > 0.0 and self._flipped(existing.id, new.id, flip)
        new_is_more_urgent = level_new < level_existing
        if flipped:
            new_is_more_urgent = not new_is_more_urgent
        return self._more_urgent if new_is_more_urgent else self._less_urgent


def perfect_oracle(
    labels: Mapping[str, UrgencyLabel] | Iterable[LabeledMessage],
) -> NoisyOracleComparator:
    """Noiseless oracle: always agrees with the gold level ordering."""
    return NoisyOracleComparator(labels, flip_prob_by_gap=None)


class LogprobComparator:
    """Directed probability from the YES token mass of a chat backend."""

    _identity_prefix = "logprob"
    _want_logprobs = True

    def __init__(self, config: gateway.EndpointConfig):
        self._config = config
        self.cache_identity = f"{self._identity_prefix}({config.model_name})"
        self.prompt_variant = f"urgent_sft@{prompts.CATALOG_VERSION}"

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


class RewardComparator:
    """Scalar reward for the new message as a more-urgent completion."""

    def __init__(self, config: gateway.EndpointConfig):
        self._config = config
        self.cache_identity = f"reward({config.model_name})"
        self.prompt_variant = f"urgent_reward@{prompts.CATALOG_VERSION}"

    def score_directed(self, existing: Message, new: Message) -> DirectionScore:
        prompt = prompts.render(
            prompts.URGENT_REWARD, {"message": prompts.message_block(existing)}
        )
        value = gateway.score(self._config, prompt, prompts.message_block(new))
        return DirectionScore(value, ScoreKind.REWARD)


_CANONICAL_HEAD = '{"key": "'
# what follows the key in a canonical line: the kind and a JSON number,
# whose fraction or exponent (group 3) makes json read it as a float
_CANONICAL_TAIL = re.compile(
    r', "kind": "(' + "|".join(map(re.escape, _KINDS)) + r')", '
    r'"value": (-?(?:0|[1-9][0-9]*)((?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?))\}'
)


def _read_line(line: str) -> tuple[str, DirectionScore]:
    """The key and score of one cache line; raises on a corrupt line.

    A canonical line is read by scanning its key string and matching the
    rest; any other line is parsed by json.loads. Both read the value as
    json.loads would, and DirectionScore turns it into a float or rejects it.
    """
    if line.startswith(_CANONICAL_HEAD):
        try:
            key, end = scanstring(line, len(_CANONICAL_HEAD))
        except ValueError:
            pass  # json.loads below rejects the same string
        else:
            match = _CANONICAL_TAIL.fullmatch(line, end)
            if match is not None:
                kind, number, fraction = match.groups()
                value = float(number) if fraction else int(number)
                return key, DirectionScore(value, _KINDS[kind])
    entry = json.loads(line)
    key = entry["key"]
    if not isinstance(key, str):
        raise TypeError("key is not a string")
    return key, DirectionScore(entry["value"], _KINDS[entry["kind"]])


class ComparisonCache:
    """Append-only on-disk store of directed scores.

    File format: one JSON object per line with fields key, kind and value;
    other fields are ignored. Lines are written in one canonical form,
    ``{"key": ..., "kind": ..., "value": ...}`` as json.dumps writes it,
    which the load reads without the generic JSON parser; any other
    well-formed line goes through json.loads. Later entries win; the file
    is compacted on load when duplicates or corrupt lines are found.
    Corrupt lines, a value that is not a finite JSON number among them,
    are dropped with a warning and those keys fall back to the backend.
    Compaction writes a temporary file and swaps it in, so a crash leaves
    the old file whole.

    Writes go through one unbuffered binary append handle, opened on the
    first put; each line is one write (repeated only after a short write),
    so another store opened on the same path sees every entry written so far.
    """

    def __init__(self, path: str | Path):
        self._path = Path(path)
        self._entries: dict[str, DirectionScore] = {}
        self._lock = threading.Lock()
        self._handle = None
        if self._path.exists():
            self._load()

    def __len__(self) -> int:
        return len(self._entries)

    def _load(self) -> None:
        try:
            text = self._path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            logger.warning(
                "CacheInvalid: cannot read cache %s (%s); starting empty",
                self._path,
                exc,
            )
            return
        # a last line without its newline would swallow the next append
        dirty = bool(text) and not text.endswith("\n")
        # only "\n" ends a line: the text-mode read has turned "\r\n" and "\r"
        # into it, and str.splitlines would also break a key at U+2028 or U+0085
        for line in text.split("\n"):
            if not line.strip():
                continue
            try:
                key, score = _read_line(line)
            except (ValueError, KeyError, TypeError, BadScore):
                logger.warning(
                    "CacheInvalid: dropping corrupt cache line in %s", self._path
                )
                dirty = True
                continue
            if key in self._entries:
                dirty = True
            self._entries[key] = score
        if dirty:
            self._compact()

    def _compact(self) -> None:
        def lines():
            for key, score in self._entries.items():
                kind = _PROBABILITY_NAME if score.kind is _PROBABILITY else _REWARD_NAME
                yield self._format_line(key, score.value, kind)

        write_lines(lines(), self._path)

    @staticmethod
    def _format_line(key: str, value: float, kind: str) -> str:
        """``json.dumps({"key": key, "kind": kind, "value": value}) + "\\n"``.

        A DirectionScore's value is a finite plain float, which json.dumps
        writes by repr.
        """
        return (
            f'{{"key": {encode_basestring_ascii(key)}, '
            f'"kind": {encode_basestring_ascii(kind)}, "value": {value!r}}}\n'
        )

    def get(self, key: str) -> DirectionScore | None:
        return self._entries.get(key)

    def put(self, key: str, score: DirectionScore) -> None:
        kind = _PROBABILITY_NAME if score.kind is _PROBABILITY else _REWARD_NAME
        line = self._format_line(key, score.value, kind).encode("ascii")
        with self._lock:
            self._entries[key] = score
            handle = self._handle
            if handle is None:
                handle = self._handle = self._path.open("ab", buffering=0)
                # a store dropped without close() still closes its handle
                weakref.finalize(self, handle.close)
            written = handle.write(line)
            while written < len(line):
                written += handle.write(line[written:])

    def close(self) -> None:
        """Close the append handle; a later put opens it again."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class CachedComparator:
    """Transparent read-through cache around another comparator.

    Keys are the JSON array ``[identity, variant, existing_id, new_id]``,
    so the two directions of a pair are cached independently. Each key is
    assembled from a prefix built once and one memoized JSON string per
    message id. ``hits`` and ``misses`` count directed lookups.
    """

    def __init__(self, inner: Comparator, store: ComparisonCache):
        self._inner = inner
        self._store = store
        self.cache_identity = getattr(inner, "cache_identity", type(inner).__name__)
        self.prompt_variant = getattr(inner, "prompt_variant", "default")
        self._prefix = json.dumps([self.cache_identity, self.prompt_variant])[:-1] + ", "
        self._id_json: dict[str, str] = {}
        self._count_lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _key(self, existing: Message, new: Message) -> str:
        id_json = self._id_json
        first = id_json.get(existing.id)
        if first is None:
            first = id_json[existing.id] = json.dumps(existing.id)
        second = id_json.get(new.id)
        if second is None:
            second = id_json[new.id] = json.dumps(new.id)
        return f"{self._prefix}{first}, {second}]"

    def has_cached_pair(self, a: Message, b: Message) -> ComparisonOutcome | None:
        """The pair's outcome when both directions are stored, else None.

        Each directed key is looked up once. A served pair counts two hits,
        as ``compare`` would; an unserved one counts nothing, and a self-pair
        is never served, so ``compare`` looks it up again or refuses it.
        """
        if a.id == b.id:
            return None
        get = self._store.get
        s_ab = get(self._key(a, b))
        if s_ab is None:
            return None
        s_ba = get(self._key(b, a))
        if s_ba is None:
            return None
        outcome = ComparisonOutcome(a.id, b.id, s_ab, s_ba)
        with self._count_lock:
            self.hits += 2
        return outcome

    def score_directed(self, existing: Message, new: Message) -> DirectionScore:
        key = self._key(existing, new)
        cached_score = self._store.get(key)
        if cached_score is not None:
            with self._count_lock:
                self.hits += 1
            return cached_score
        score = self._inner.score_directed(existing, new)
        self._store.put(key, score)
        with self._count_lock:
            self.misses += 1
        return score
