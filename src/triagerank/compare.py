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

import json
import logging
import math
import os
import random
import re
import threading
import weakref
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Protocol

from . import gateway, prompts
from .corpus import LabeledMessage, Message, UrgencyLabel
from .gateway import CompletionResult
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


@dataclass(frozen=True, slots=True)
class DirectionScore:
    """Score for one prompt direction. Probability kind must be in [0, 1]."""

    value: float
    kind: ScoreKind

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise BadScore(f"direction score is not finite: {self.value!r}")
        if self.kind is ScoreKind.PROBABILITY and not 0.0 <= self.value <= 1.0:
            raise BadScore(f"probability score out of [0, 1]: {self.value!r}")


@dataclass(frozen=True)
class ComparisonOutcome:
    """Both directed scores for a pair plus the derived margin and winner."""

    a_id: str
    b_id: str
    s_ab: DirectionScore
    s_ba: DirectionScore
    eta: float
    winner: Winner

    def to_record(self) -> dict:
        return {
            "a_id": self.a_id,
            "b_id": self.b_id,
            "s_ab": self.s_ab.value,
            "s_ba": self.s_ba.value,
            "kind": self.s_ab.kind.value,
            "eta": self.eta,
            "winner": self.winner.value,
        }


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
    if s_ab.kind is ScoreKind.PROBABILITY:
        return s_ab.value - s_ba.value
    difference = s_ab.value - s_ba.value
    return _logistic(difference) - _logistic(-difference)


def compare(comparator: Comparator, a: Message, b: Message) -> ComparisonOutcome:
    """Run both directions and derive eta and the winner.

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
    eta = pair_eta(s_ab, s_ba)
    if eta > 0:
        winner = Winner.B
    elif eta < 0:
        winner = Winner.A
    else:
        winner = Winner.TIE
    return ComparisonOutcome(a.id, b.id, s_ab, s_ba, eta, winner)


# the oracle's probability distance from 0.5 unless a caller sets one
ORACLE_MARGIN = 0.4


class NoisyOracleComparator:
    """Label-aware test double with gap-dependent error.

    Knows the gold labels and emits calibrated-looking probabilities of
    0.5 +/- margin. With probability flip(gap) the wrong message is
    favored. Per-pair randomness derives from (seed, sorted id pair), so
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
        self.cache_identity = (
            f"oracle(seed={seed},margin={margin},"
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

        The draw (a string-seeded ``random.Random``) is most of a call, so
        the last pair's result is kept for the reverse direction that
        ``compare`` asks for next. The memo is one tuple swapped whole, so
        a concurrent caller can only miss it, never read a mixed entry.
        """
        pair = (id_a, id_b) if id_a < id_b else (id_b, id_a)
        last_pair, last_flipped = self._last_draw
        if last_pair == pair:
            return last_flipped
        flipped = random.Random(f"{self._seed}|{pair[0]}|{pair[1]}").random() < flip
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


class ComparisonCache:
    """Append-only on-disk store of directed scores.

    File format: one JSON object per line with fields key, kind and value;
    other fields are ignored. Later entries win; the file is compacted on
    load when duplicates or corrupt lines are found. Corrupt lines are
    dropped with a warning and those keys fall back to the backend.
    Compaction writes a temporary file and swaps it in, so a crash leaves
    the old file whole.

    Writes go through one append handle, opened on the first put and
    flushed after every line, so another store opened on the same path
    sees every entry written so far.
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
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                key = entry["key"]
                if not isinstance(key, str):
                    raise TypeError("key is not a string")
                score = DirectionScore(float(entry["value"]), _KINDS[entry["kind"]])
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
        temporary = self._path.with_name(f"{self._path.name}.{os.getpid()}.tmp")
        try:
            with temporary.open("w", encoding="utf-8") as handle:
                for key, score in self._entries.items():
                    handle.write(self._format_line(key, score.value, score.kind.value))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temporary, self._path)
        except BaseException:
            temporary.unlink(missing_ok=True)
            raise

    @staticmethod
    def _format_line(key: str, value: float, kind: str) -> str:
        return json.dumps({"key": key, "kind": kind, "value": value}) + "\n"

    def get(self, key: str) -> DirectionScore | None:
        return self._entries.get(key)

    def put(self, key: str, score: DirectionScore) -> None:
        line = self._format_line(key, score.value, score.kind.value)
        with self._lock:
            self._entries[key] = score
            if self._handle is None:
                self._handle = self._path.open("a", encoding="utf-8")
                # a store dropped without close() still closes its handle
                weakref.finalize(self, self._handle.close)
            self._handle.write(line)
            self._handle.flush()

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

    def has_cached_pair(self, a: Message, b: Message) -> bool:
        """True when both directions of the pair are already stored."""
        get = self._store.get
        return get(self._key(a, b)) is not None and get(self._key(b, a)) is not None

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
