from __future__ import annotations

import copy
import gc
import hashlib
import json
import math
import os
import pickle
import random
import re
import signal
import struct
import subprocess
import sys
import threading
import time
from itertools import combinations, permutations
from pathlib import Path

import pytest

import triagerank
from triagerank import gateway, prompts
from triagerank.compare import (
    CachedComparator,
    ComparisonCache,
    ComparisonOutcome,
    DirectionScore,
    LogprobComparator,
    NoisyOracleComparator,
    ReasoningComparator,
    RewardComparator,
    ScoreKind,
    Winner,
    _cache_line_tail,
    _outcome_tail,
    compare,
    parse_final_answer,
    perfect_oracle,
)
from triagerank.corpus import EhrRecord
from triagerank.errors import (
    BadScore,
    ComparisonFailed,
    ConfigError,
    ExportFailed,
    OracleNeedsLabels,
    UnparseableAnswer,
    UnparseableLogprobs,
)
from triagerank.gateway import CompletionResult, EndpointConfig, finite_score
from triagerank.rank import insert_incremental, run_tournament

from .conftest import level_corpus, make_labeled, make_message
from .mock_gateway import answer_by_new_message, load_fixture, new_slot
from .test_gateway import config_for


class ScriptedComparator:
    """Returns fixed directed scores from a (existing_id, new_id) table; counts directions."""

    def __init__(self, table, kind=ScoreKind.PROBABILITY):
        self.table = table
        self.kind = kind
        self.calls = 0

    def backend_view(self, message):
        return message.id

    def score_pair(self, a, b):
        self.calls += 2
        table, kind = self.table, self.kind
        return DirectionScore(table[a.id, b.id], kind), DirectionScore(table[b.id, a.id], kind)


def test_eta_formula_probability():
    comparator = ScriptedComparator({("a", "b"): 0.9, ("b", "a"): 0.2})
    outcome = compare(comparator, make_message("a"), make_message("b"))
    assert outcome.eta == pytest.approx(0.7)
    assert outcome.winner is Winner.B


def test_eta_symmetry_tie():
    comparator = ScriptedComparator({("a", "b"): 0.5, ("b", "a"): 0.5})
    outcome = compare(comparator, make_message("a"), make_message("b"))
    assert outcome.eta == 0.0
    assert outcome.winner is Winner.TIE


def test_reward_eta_logistic_normalization():
    comparator = ScriptedComparator(
        {("a", "b"): 2.0, ("b", "a"): -1.0}, kind=ScoreKind.REWARD
    )
    outcome = compare(comparator, make_message("a"), make_message("b"))
    # independent oracle: sigma(3) - sigma(-3) computed from the definition
    expected = 1.0 / (1.0 + math.exp(-3.0)) - 1.0 / (1.0 + math.exp(3.0))
    assert outcome.eta == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.905, abs=5e-4)
    assert outcome.winner is Winner.B
    assert abs(outcome.eta) <= 1.0


def test_swap_negates_eta_exactly():
    rng = random.Random(11)
    for _ in range(200):
        s_ab, s_ba = rng.random(), rng.random()
        comparator = ScriptedComparator({("a", "b"): s_ab, ("b", "a"): s_ba})
        a, b = make_message("a"), make_message("b")
        forward = compare(comparator, a, b)
        backward = compare(comparator, b, a)
        assert backward.eta == -forward.eta
        if forward.winner is Winner.TIE:
            assert backward.winner is Winner.TIE
        else:
            assert {forward.winner, backward.winner} == {Winner.A, Winner.B}


def test_reward_eta_bounded_for_large_scores():
    rng = random.Random(3)
    for _ in range(200):
        s_ab = rng.uniform(-50, 50)
        s_ba = rng.uniform(-50, 50)
        comparator = ScriptedComparator(
            {("a", "b"): s_ab, ("b", "a"): s_ba}, kind=ScoreKind.REWARD
        )
        outcome = compare(comparator, make_message("a"), make_message("b"))
        assert abs(outcome.eta) <= 1.0
        if s_ab > s_ba:
            assert outcome.winner is Winner.B
        elif s_ab < s_ba:
            assert outcome.winner is Winner.A
        else:
            assert outcome.winner is Winner.TIE


def test_mixed_kinds_fail():
    class Mixed:
        def score_pair(self, a, b):
            return DirectionScore(0.5, ScoreKind.PROBABILITY), DirectionScore(0.5, ScoreKind.REWARD)

    with pytest.raises(ComparisonFailed):
        compare(Mixed(), make_message("a"), make_message("b"))


class DirectedOnly:
    """A comparator that scores one direction at a time and has no score_pair."""

    def backend_view(self, message):
        return message.id

    def score_directed(self, existing, new):
        return DirectionScore(0.5, ScoreKind.PROBABILITY)


class PairCalls:
    """Records the ids of each score_pair call, then asks the comparator it wraps."""

    def __init__(self, inner):
        self.inner = inner
        self.pairs = []

    def backend_view(self, message):
        return self.inner.backend_view(message)

    def score_pair(self, a, b):
        self.pairs.append((a.id, b.id))
        return self.inner.score_pair(a, b)


def test_a_comparator_without_score_pair_fails_naming_it(tmp_path):
    messages = [make_message(message_id) for message_id in ("a", "b", "c")]
    with pytest.raises(ComparisonFailed, match="score_pair"):
        compare(DirectedOnly(), *messages[:2])
    for workers in (1, 4):
        with pytest.raises(ComparisonFailed, match="score_pair"):
            run_tournament(messages, DirectedOnly(), max_workers=workers)
    store = ComparisonCache(tmp_path / "cache.jsonl")
    with pytest.raises(ComparisonFailed, match="score_pair"):
        compare(CachedComparator(DirectedOnly(), store), *messages[:2])
    assert len(store) == 0



class ReturnsScores:
    """A comparator whose score_pair returns a fixed object, whatever it is."""

    def __init__(self, scores):
        self.scores = scores

    def backend_view(self, message):
        return message.id

    def score_pair(self, a, b):
        return self.scores


_HALF = DirectionScore(0.5, ScoreKind.PROBABILITY)


@pytest.mark.parametrize(
    "scores",
    [(0.75, 0.25), (_HALF,), (_HALF, _HALF, _HALF), (_HALF, 0.5), (0.5, _HALF), None, "ab"],
    ids=["two-floats", "one", "three", "second-float", "first-float", "none", "string"],
)
def test_a_malformed_score_pair_return_fails_the_comparison_naming_it(tmp_path, scores):
    a, b = make_message("a"), make_message("b")
    with pytest.raises(ComparisonFailed, match="score_pair returned .*not two DirectionScores"):
        compare(ReturnsScores(scores), a, b)
    for workers in (1, 4):
        with pytest.raises(ComparisonFailed, match="score_pair returned"):
            run_tournament([a, b], ReturnsScores(scores), max_workers=workers)
    # behind the cache too, which then stores nothing
    store = ComparisonCache(tmp_path / "cache.jsonl")
    cached = CachedComparator(ReturnsScores(scores), store)
    with pytest.raises(ComparisonFailed, match="score_pair returned .*not two DirectionScores"):
        compare(cached, a, b)
    with pytest.raises(ComparisonFailed, match="score_pair returned"):
        run_tournament([a, b], cached)
    assert len(store) == 0 and cached.misses == 0
    # a list of two scores is two scores
    assert compare(ReturnsScores([_HALF, _HALF]), a, b).winner is Winner.TIE

def test_compare_asks_score_pair_once_per_pair():
    table = {(x, y): 0.25 if x < y else 0.75 for x in "abcd" for y in "abcd" if x != y}
    messages = [make_message(message_id) for message_id in "dbca"]
    comparator = PairCalls(ScriptedComparator(table))
    compare(comparator, messages[0], messages[1])
    assert comparator.pairs == [("d", "b")]
    comparator.pairs.clear()
    run_tournament(messages, comparator)
    assert comparator.pairs == list(combinations("abcd", 2))


def test_a_cache_miss_asks_the_inner_score_pair_once_and_a_hit_never(tmp_path):
    inner = PairCalls(ScriptedComparator({("a", "b"): 0.75, ("b", "a"): 0.25}))
    comparator = CachedComparator(inner, ComparisonCache(tmp_path / "cache.jsonl"))
    a, b = make_message("a"), make_message("b")
    miss = comparator.score_pair(a, b)
    assert inner.pairs == [("a", "b")]
    assert comparator.score_pair(a, b) == miss
    assert comparator.score_pair(b, a) == miss[::-1]
    assert compare(comparator, b, a).s_ab == miss[1]
    assert inner.pairs == [("a", "b")]
    assert (comparator.hits, comparator.misses) == (6, 2)


@pytest.mark.parametrize(
    "kind, s_ab, s_ba, winner",
    [
        (ScoreKind.PROBABILITY, 0.9, 0.2, Winner.B),
        (ScoreKind.PROBABILITY, 0.2, 0.9, Winner.A),
        (ScoreKind.PROBABILITY, 0.5, 0.5, Winner.TIE),
        (ScoreKind.REWARD, -1.5, 2.0, Winner.A),
        (ScoreKind.REWARD, 3.0, 3.0, Winner.TIE),
    ],
)
def test_outcome_derives_eta_and_winner(kind, s_ab, s_ba, winner):
    def logistic(x):  # the stable form, so the expected eta is exact
        return 1.0 / (1.0 + math.exp(-x)) if x >= 0 else math.exp(x) / (1.0 + math.exp(x))

    first, second = DirectionScore(s_ab, kind), DirectionScore(s_ba, kind)
    outcome = ComparisonOutcome("a", "b", first, second)
    d = s_ab - s_ba
    assert outcome.eta == (d if kind is ScoreKind.PROBABILITY else logistic(d) - logistic(-d))
    assert outcome.winner is winner
    assert (outcome.eta > 0, outcome.eta < 0) == (winner is Winner.B, winner is Winner.A)


def test_outcome_fields_are_read_only():
    first = DirectionScore(0.9, ScoreKind.PROBABILITY)
    second = DirectionScore(0.1, ScoreKind.PROBABILITY)
    outcome = ComparisonOutcome("a", "b", first, second)
    for name, value in [
        ("a_id", "x"), ("b_id", "x"), ("s_ab", second), ("s_ba", first),
        ("eta", -0.8), ("winner", Winner.A), ("other", 1),
    ]:
        with pytest.raises(AttributeError):
            setattr(outcome, name, value)
    assert (outcome.a_id, outcome.b_id, outcome.s_ab, outcome.s_ba) == ("a", "b", first, second)
    assert outcome.eta == pytest.approx(0.8) and outcome.winner is Winner.B
    # no path builds an outcome without deriving eta and the winner from its scores
    assert not hasattr(ComparisonOutcome, "_replace") and not hasattr(ComparisonOutcome, "_make")
    for copied in (copy.copy(outcome), copy.deepcopy(outcome), pickle.loads(pickle.dumps(outcome))):
        assert type(copied) is ComparisonOutcome and copied == outcome
    assert repr(outcome).startswith("ComparisonOutcome(a_id='a', b_id='b', s_ab=DirectionScore(")


def test_outcome_of_mixed_kinds_fails():
    with pytest.raises(ComparisonFailed):
        ComparisonOutcome(
            "a", "b",
            DirectionScore(0.5, ScoreKind.PROBABILITY), DirectionScore(0.5, ScoreKind.REWARD),
        )


def test_compare_same_id_rejected():
    comparator = ScriptedComparator({})
    with pytest.raises(ConfigError):
        compare(comparator, make_message("a"), make_message("a"))


def test_probability_score_bounds():
    with pytest.raises(BadScore):
        DirectionScore(1.2, ScoreKind.PROBABILITY)
    with pytest.raises(BadScore):
        DirectionScore(float("nan"), ScoreKind.REWARD)


# -------------------------------------------------------------------- oracle


def test_perfect_oracle_agrees_with_gold(fixture_corpus):
    oracle = perfect_oracle(fixture_corpus)
    by_id = {labeled.id: labeled for labeled in fixture_corpus}
    for a_id, b_id in [("m01", "m30"), ("m06", "m02"), ("m11", "m16"), ("m21", "m14")]:
        a, b = by_id[a_id], by_id[b_id]
        outcome = compare(oracle, a.message, b.message)
        expected = Winner.A if a.level < b.level else Winner.B
        assert outcome.winner is expected


def test_oracle_same_level_is_tie(fixture_corpus):
    oracle = perfect_oracle(fixture_corpus)
    by_id = {labeled.id: labeled for labeled in fixture_corpus}
    outcome = compare(oracle, by_id["m01"].message, by_id["m02"].message)
    assert outcome.winner is Winner.TIE


def test_oracle_emits_calibrated_margin(fixture_corpus):
    oracle = NoisyOracleComparator(fixture_corpus, margin=0.4)
    by_id = {labeled.id: labeled for labeled in fixture_corpus}
    score = oracle.score_pair(by_id["m30"].message, by_id["m01"].message)[0]
    assert score.value == 0.9
    score = oracle.score_pair(by_id["m01"].message, by_id["m30"].message)[0]
    assert score.value == pytest.approx(0.1)


def test_oracle_needs_labels(fixture_corpus):
    oracle = perfect_oracle(fixture_corpus)
    with pytest.raises(ComparisonFailed):
        compare(oracle, make_message("stranger"), fixture_corpus[0].message)
    with pytest.raises(OracleNeedsLabels):
        oracle.score_pair(make_message("stranger"), fixture_corpus[0].message)


def test_oracle_flip_half_gives_coin_accuracy():
    correct = 0
    trials = 10_000
    for index in range(trials):
        high = make_labeled(f"hp{index}", 1)
        low = make_labeled(f"lp{index}", 6)
        oracle = NoisyOracleComparator([high, low], {5: 0.5}, seed=42)
        outcome = compare(oracle, high.message, low.message)
        correct += outcome.winner is Winner.A
    assert correct / trials == pytest.approx(0.5, abs=0.02)


def test_oracle_deterministic_and_order_invariant():
    a = make_labeled("a", 1)
    b = make_labeled("b", 4)
    first = NoisyOracleComparator([a, b], {3: 0.5}, seed=9)
    second = NoisyOracleComparator([a, b], {3: 0.5}, seed=9)
    outcome_1 = compare(first, a.message, b.message)
    outcome_2 = compare(second, b.message, a.message)
    assert outcome_1.winner.value == {"A": "B", "B": "A"}[outcome_2.winner.value]
    assert outcome_1.eta == -outcome_2.eta


def test_oracle_flip_probability_validation():
    with pytest.raises(ConfigError):
        NoisyOracleComparator([make_labeled("a", 1)], {1: 1.5})
    with pytest.raises(ConfigError):
        NoisyOracleComparator([make_labeled("a", 1)], margin=0.6)


def reference_draw(seed, first, second):
    """The oracle's flip draw u for a sorted id pair: 8 BLAKE2b bytes, big-endian."""
    key = f"{seed}|{first}|{second}".encode("utf-8")
    return struct.unpack(">Q", hashlib.blake2b(key, digest_size=8).digest())[0]


def reference_uniform(u):
    """The top 53 bits of u as a float in [0, 1)."""
    return math.ldexp(u >> 11, -53)


class AlwaysDrawOracle:
    """The noisy oracle's rule with a fresh per-pair draw for every direction."""

    def __init__(self, labeled, flip, seed, margin=0.4):
        self.levels = {item.id: item.level for item in labeled}
        self.flip, self.seed, self.margin = flip, seed, margin

    def score_pair(self, a, b):
        return self.directed_score(a, b), self.directed_score(b, a)

    def directed_score(self, existing, new):
        level_existing, level_new = self.levels[existing.id], self.levels[new.id]
        if level_existing == level_new:
            return DirectionScore(0.5, ScoreKind.PROBABILITY)
        first, second = sorted((existing.id, new.id))
        draw = reference_uniform(reference_draw(self.seed, first, second))
        flipped = draw < self.flip.get(abs(level_existing - level_new), 0.0)
        new_is_more_urgent = (level_new < level_existing) != flipped
        value = 0.5 + self.margin if new_is_more_urgent else 0.5 - self.margin
        return DirectionScore(value, ScoreKind.PROBABILITY)


NOISY_FLIP = {1: 0.3, 2: 0.15, 3: 0.0, 4: 1.0}  # gap 5 is absent: never flipped


def _noisy_inbox(count=36, seed=2):
    rng = random.Random(seed)
    return [make_labeled(f"n{index:02d}", rng.randint(1, 6)) for index in range(count)]


def test_oracle_equals_always_draw_reference_with_interleaved_pairs():
    labeled = _noisy_inbox()
    messages = [item.message for item in labeled]
    # the oracle's scores are built once per instance: they must equal the
    # reference's fresh ones, also at the edge margin whose scores are 1 and 0
    for margin in (0.4, 0.5):
        oracle = NoisyOracleComparator(labeled, NOISY_FLIP, seed=5, margin=margin)
        reference = AlwaysDrawOracle(labeled, NOISY_FLIP, seed=5, margin=margin)
        rng = random.Random(8)
        for _ in range(3000):
            existing, new = rng.sample(messages, 2)
            assert oracle.score_pair(existing, new) == reference.score_pair(existing, new)
        # both directions of one pair, then of another, then back: no draw
        # may answer for a different pair
        pairs = [rng.sample(messages, 2) for _ in range(200)]
        for (a, b), (c, d) in zip(pairs, pairs[1:]):
            for existing, new in ((a, b), (c, d), (b, a), (d, c), (b, a)):
                assert oracle.score_pair(existing, new) == reference.score_pair(existing, new)
            assert compare(oracle, a, b) == compare(reference, a, b)


def test_oracle_equals_always_draw_reference_in_parallel_tournament(tmp_path):
    labeled = _noisy_inbox(count=40, seed=3)
    messages = [item.message for item in labeled]
    reference_log, log = tmp_path / "reference.jsonl", tmp_path / "oracle.jsonl"
    reference = run_tournament(
        messages, AlwaysDrawOracle(labeled, NOISY_FLIP, seed=11), log=reference_log
    )
    # the oracle's own sequential tournament, which parallel workers must equal
    sequential_log = tmp_path / "sequential.jsonl"
    sequential = run_tournament(
        messages, NoisyOracleComparator(labeled, NOISY_FLIP, seed=11), log=sequential_log
    )
    assert sequential_log.read_bytes() == reference_log.read_bytes()
    assert sequential == reference
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so shared state would show
    try:
        for _ in range(3):
            oracle = NoisyOracleComparator(labeled, NOISY_FLIP, seed=11)
            result = run_tournament(messages, oracle, max_workers=4, log=log)
            assert log.read_bytes() == reference_log.read_bytes()
            assert result.scores == reference.scores
            assert result.ranking == reference.ranking
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("seed", [0, 5, 11])
@pytest.mark.parametrize("flip", [NOISY_FLIP, {1: 0.3, 2: 0.15}], ids=["noisy", "default"])
@pytest.mark.parametrize("margin", [0.4, 0.5])
def test_oracle_score_pair_equals_both_directed_scores(seed, flip, margin):
    labeled = _noisy_inbox(count=30, seed=seed)
    oracle = NoisyOracleComparator(labeled, flip, seed=seed, margin=margin)
    reference = AlwaysDrawOracle(labeled, flip, seed=seed, margin=margin)
    for a, b in permutations([item.message for item in labeled], 2):
        pair = oracle.score_pair(a, b)
        assert pair == oracle.score_pair(b, a)[::-1]
        assert pair == (reference.directed_score(a, b), reference.directed_score(b, a))


@pytest.mark.parametrize("unlabelled", ["a", "b", "both"])
def test_oracle_unlabelled_message_fails_the_comparison_naming_it(unlabelled):
    labeled = [make_labeled("m1", 1), make_labeled("m2", 4)]
    oracle = NoisyOracleComparator(labeled, {3: 0.5}, seed=1)
    a = make_message("s1") if unlabelled in ("a", "both") else labeled[0].message
    b = make_message("s2") if unlabelled in ("b", "both") else labeled[1].message
    named = a.id if unlabelled != "b" else b.id  # a's missing label is named first
    with pytest.raises(ComparisonFailed) as excinfo:
        compare(oracle, a, b)
    assert str(excinfo.value) == f"pair ({a.id}, {b.id}): no ordinal label for message {named!r}"
    cause = excinfo.value.__cause__
    assert type(cause) is OracleNeedsLabels and cause.message_id == named
    with pytest.raises(OracleNeedsLabels) as excinfo:
        oracle.score_pair(a, b)
    assert excinfo.value.message_id == named


# (seed, first id, second id) -> u, the draw's 64-bit integer
PINNED_DRAWS = [
    ((0, "a", "b"), 0x84F43B621C3848A4),
    ((3, "m01", "m02"), 0x0B461A74E2AF08A6),
    ((11, "n00", "n35"), 0xE31FDA55D1808E40),
    ((42, "msg-7", "msg-70"), 0xB5752A65EF024EBE),
    ((-1, "na\u00efve", "\u6025"), 0xF8C5658BCD6ABE0C),
]


@pytest.mark.parametrize("key, u", PINNED_DRAWS, ids=[str(key) for key, _ in PINNED_DRAWS])
def test_oracle_flip_draw_pinned(key, u):
    seed, first, second = key
    assert reference_draw(seed, first, second) == u
    draw = reference_uniform(u)
    labeled = [make_labeled(first, 1), make_labeled(second, 2)]
    urgent, less_urgent = labeled[0].message, labeled[1].message
    # the pair flips iff its draw is below flip: not at flip == draw, but
    # at the next float up, so the oracle's draw is exactly this one
    for flip, flipped in ((draw, False), (math.nextafter(draw, 1.0), True)):
        oracle = NoisyOracleComparator(labeled, {1: flip}, seed=seed)
        for existing, new in ((less_urgent, urgent), (urgent, less_urgent)):
            new_wins = oracle.score_pair(existing, new)[0].value > 0.5
            assert new_wins == ((new is urgent) != flipped), (flip, new.id)


@pytest.mark.parametrize("probability", [0.05, 0.3, 0.5])
def test_oracle_flip_share_is_uniform(probability):
    # 200 level-1 and 100 level-2 messages: 20,000 distinct pairs at gap 1
    labeled = level_corpus({1: 200, 2: 100})
    urgent = [item.message for item in labeled if item.level == 1]
    less_urgent = [item.message for item in labeled if item.level == 2]
    oracle = NoisyOracleComparator(labeled, {1: probability}, seed=7)
    flips = sum(
        oracle.score_pair(existing, new)[0].value < 0.5
        for existing in less_urgent
        for new in urgent
    )
    pairs = len(urgent) * len(less_urgent)
    sigma = math.sqrt(pairs * probability * (1 - probability))
    assert abs(flips - pairs * probability) <= 4 * sigma, (flips, pairs)


# -------------------------------------------------- gateway-backed comparators


def test_logprob_comparator_scores(mock_endpoint):
    comparator = LogprobComparator(config_for(mock_endpoint))
    mock_endpoint.enqueue_fixture("logprob_top2")
    score = comparator.score_directed(make_message("a"), make_message("b"))
    assert score.value == pytest.approx(0.8, abs=1e-9)
    assert score.kind is ScoreKind.PROBABILITY
    prompt = mock_endpoint.requests[0]["body"]["messages"][1]["content"]
    assert "Existing Patient" in prompt


def test_logprob_comparator_unparseable(mock_endpoint):
    comparator = LogprobComparator(config_for(mock_endpoint))
    mock_endpoint.enqueue_fixture("logprob_unparseable")
    with pytest.raises(UnparseableLogprobs):
        comparator.score_directed(make_message("a"), make_message("b"))


def test_logprob_comparator_backend_down_fails_comparison(mock_endpoint):
    comparator = LogprobComparator(config_for(mock_endpoint, max_retries=0))
    mock_endpoint.enqueue(500, {"error": "down"})
    with pytest.raises(ComparisonFailed):
        compare(comparator, make_message("a"), make_message("b"))


def test_parse_final_answer():
    assert parse_final_answer("thinking... therefore YES") == "YES"
    assert parse_final_answer("NO") == "NO"
    assert parse_final_answer("yes at first, but finally no") == "NO"
    with pytest.raises(UnparseableAnswer):
        parse_final_answer("I cannot decide.")
    with pytest.raises(UnparseableAnswer):
        parse_final_answer("NOTED")  # no standalone token


def test_reasoning_comparator_hard_probabilities(mock_endpoint):
    comparator = ReasoningComparator(config_for(mock_endpoint))
    a, b = make_message("a"), make_message("b")
    mock_endpoint.answer = answer_by_new_message(
        {b.text: "completion_reason_yes", a.text: "completion_reason_no"}
    )
    assert comparator.score_directed(a, b).value == 1.0
    assert comparator.score_directed(b, a).value == 0.0


def test_reasoning_both_yes_is_tie(mock_endpoint):
    comparator = ReasoningComparator(config_for(mock_endpoint))
    mock_endpoint.enqueue_fixture("completion_reason_yes")
    mock_endpoint.enqueue_fixture("completion_reason_yes")
    outcome = compare(comparator, make_message("a"), make_message("b"))
    assert outcome.winner is Winner.TIE
    assert outcome.eta == 0.0


def test_reasoning_unparseable(mock_endpoint):
    comparator = ReasoningComparator(config_for(mock_endpoint))
    mock_endpoint.enqueue_fixture("completion_reason_plain")
    with pytest.raises(UnparseableAnswer):
        comparator.score_directed(make_message("a"), make_message("b"))


def test_reward_comparator_prompt_and_score(mock_endpoint):
    comparator = RewardComparator(config_for(mock_endpoint))
    mock_endpoint.enqueue_fixture("reward_ok")
    existing = make_message("a", text="mild rash on arm")
    new = make_message("b", text="chest pain radiating")
    score = comparator.score_directed(existing, new)
    assert score.value == 1.25
    assert score.kind is ScoreKind.REWARD
    body = mock_endpoint.requests[0]["body"]
    assert "mild rash on arm" in body["prompt"]
    assert body["completion"] == "chest pain radiating"


def test_reward_strict_comparison_no_epsilon(mock_endpoint):
    comparator = RewardComparator(config_for(mock_endpoint))
    a, b = make_message("a"), make_message("b")
    mock_endpoint.answer = answer_by_new_message(
        {b.text: "reward_strict_a", a.text: "reward_strict_b"}
    )
    outcome = compare(comparator, a, b)
    # s_ab = 0.1 < s_ba = 0.1000001, strictly: the first argument wins
    assert outcome.winner is Winner.A


def test_reward_equal_scores_tie(mock_endpoint):
    comparator = RewardComparator(config_for(mock_endpoint))
    mock_endpoint.enqueue_fixture("reward_ok")
    mock_endpoint.enqueue_fixture("reward_ok")
    outcome = compare(comparator, make_message("a"), make_message("b"))
    assert outcome.winner is Winner.TIE


# --------------------------------------------------------------------- cache


class CountingComparator:
    def __init__(self, inner):
        self.inner = inner
        self.backend_calls = 0

    def backend_view(self, message):
        return self.inner.backend_view(message)

    def score_pair(self, a, b):
        self.backend_calls += 2
        return self.inner.score_pair(a, b)


def test_cache_hit_skips_backend(tmp_path, fixture_corpus):
    counting = CountingComparator(perfect_oracle(fixture_corpus))
    store = ComparisonCache(tmp_path / "cache.jsonl")
    comparator = CachedComparator(counting, store)
    a, b = fixture_corpus[0].message, fixture_corpus[7].message
    first = compare(comparator, a, b)
    assert counting.backend_calls == 2
    second = compare(comparator, a, b)
    assert counting.backend_calls == 2
    assert second.eta == first.eta
    assert second.winner is first.winner
    assert comparator.hits == 2
    assert comparator.misses == 2


def test_cache_key_is_direction_sensitive(tmp_path):
    # one line holds the pair, and each direction is served its own score
    path = tmp_path / "cache.jsonl"
    counting = CountingComparator(ScriptedComparator({("a", "b"): 0.75, ("b", "a"): 0.25}))
    comparator = CachedComparator(counting, ComparisonCache(path))
    a, b = make_message("a"), make_message("b")
    s_ab, s_ba = comparator.score_pair(a, b)
    assert s_ab.value == 0.75
    assert counting.backend_calls == 2  # a miss asks for both directions
    assert s_ba.value == 0.25
    assert (comparator.hits, comparator.misses) == (0, 2)
    for existing, new, value in ((b, a, 0.25), (a, b, 0.75)):
        reloaded = CachedComparator(counting, ComparisonCache(path))
        assert reloaded.score_pair(existing, new)[0].value == value
        assert (reloaded.hits, reloaded.misses) == (2, 0)  # one lookup reads both
    assert counting.backend_calls == 2


def test_cache_serves_a_pair_asked_in_the_other_order(tmp_path):
    path = tmp_path / "cache.jsonl"
    counting = CountingComparator(ScriptedComparator({("a", "b"): 0.75, ("b", "a"): 0.25}))
    a, b = make_message("a"), make_message("b")
    forward = compare(CachedComparator(counting, ComparisonCache(path)), a, b)
    assert len(path.read_text(encoding="ascii").splitlines()) == 1
    comparator = CachedComparator(counting, ComparisonCache(path))
    backward = comparator.has_cached_pair(b, a)
    assert (backward.s_ab.value, backward.s_ba.value) == (0.25, 0.75)
    assert backward.eta == -forward.eta and backward == compare(counting.inner, b, a)
    assert compare(comparator, b, a) == backward
    assert counting.backend_calls == 2 and comparator.misses == 0


def test_equal_digests_are_served_as_stored_and_are_no_self_pair(tmp_path):
    class SameView(ScriptedComparator):
        def backend_view(self, message):
            return "one prompt both ways"

    counting = CountingComparator(SameView({("a", "b"): 0.75, ("b", "a"): 0.25}))
    comparator = CachedComparator(counting, ComparisonCache(tmp_path / "cache.jsonl"))
    a, b = make_message("a"), make_message("b")
    compare(comparator, a, b)
    for first, second in ((a, b), (b, a)):
        outcome = comparator.has_cached_pair(first, second)
        assert (outcome.a_id, outcome.s_ab.value, outcome.s_ba.value) == (first.id, 0.75, 0.25)
    assert counting.backend_calls == 2


def test_cached_oracle_relabel_misses(tmp_path):
    # an L3-vs-L5 pair is cached, then the L5 is relabelled L1 under its id
    path = tmp_path / "cache.jsonl"
    before = [make_labeled("a", 3), make_labeled("b", 5)]
    after = [before[0], make_labeled("b", 1)]
    a, b = before[0].message, before[1].message

    def cached(labels):
        return CachedComparator(perfect_oracle(labels), ComparisonCache(path))

    assert compare(cached(before), a, b).winner is Winner.A
    assert compare(perfect_oracle(after), a, b).winner is Winner.B
    relabelled = cached(after)
    assert compare(relabelled, a, b).winner is Winner.B
    assert (relabelled.hits, relabelled.misses) == (0, 2)
    # the old verdict stays stored for the old labels
    assert compare(cached(before), a, b).winner is Winner.A


def _answer_by_urgency(body):
    """A logprob reply: YES with probability 0.9 when the new message's urgency is higher.

    Each message text holds ``urgency N``; the existing message's comes first.
    """
    prompt = body["messages"][-1]["content"]
    existing, new = (int(level) for level in re.findall(r"urgency (\d)", prompt))
    p_yes = 0.9 if new < existing else 0.1 if new > existing else 0.5
    top = [
        {"token": "YES", "logprob": math.log(p_yes)},
        {"token": "NO", "logprob": math.log(1.0 - p_yes)},
    ]
    first = {"token": "YES", "logprob": top[0]["logprob"], "top_logprobs": top}
    return {"choices": [{"message": {"content": "YES"}, "logprobs": {"content": [first]}}]}


def test_logprob_text_edit_asks_once_per_direction_of_each_affected_pair(
    tmp_path, mock_endpoint
):
    mock_endpoint.answer = _answer_by_urgency
    path = tmp_path / "cache.jsonl"
    comparator = LogprobComparator(config_for(mock_endpoint))
    messages = [
        make_message(f"m{index}", f"urgency {level}") for index, level in enumerate((2, 4, 5, 3))
    ]
    run_tournament(messages, CachedComparator(comparator, ComparisonCache(path)))
    assert len(mock_endpoint.requests) == 2 * 6
    edited = make_message("m2", "urgency 1, and worse since this morning")
    inbox = messages[:2] + [edited] + messages[3:]
    cached = CachedComparator(comparator, ComparisonCache(path))
    result = run_tournament(inbox, cached, log=tmp_path / "cached.jsonl")
    new_prompts = [
        request["body"]["messages"][-1]["content"] for request in mock_endpoint.requests[12:]
    ]
    expected = [
        prompts.render(prompts.URGENT_SFT, prompts.pair_bindings(existing, new))
        for other in inbox if other is not edited
        for existing, new in ((other, edited), (edited, other))
    ]
    assert sorted(new_prompts) == sorted(expected) and len(set(expected)) == 6
    assert (result.comparisons_made, result.cache_hits) == (3, 3)
    assert (cached.hits, cached.misses) == (6, 6)
    fresh = run_tournament(inbox, comparator, log=tmp_path / "fresh.jsonl")
    assert result.ranking == fresh.ranking and result.ranking[0] == "m2"
    assert (tmp_path / "cached.jsonl").read_bytes() == (tmp_path / "fresh.jsonl").read_bytes()


def test_reward_ehr_edit_misses(tmp_path, mock_endpoint):
    path = tmp_path / "cache.jsonl"
    comparator = RewardComparator(config_for(mock_endpoint))
    a = make_message("a", "chest pain", EhrRecord(age=40))
    b = make_message("b", "chest pain", EhrRecord(age=40))
    b_edited = make_message("b", "chest pain", EhrRecord(active_medications=("warfarin",), age=40))
    # a and b send the same block both ways, so the reward depends only on the EHR edit
    mock_endpoint.answer = lambda body: load_fixture(
        "reward_high" if "warfarin" in body["completion"] else "reward_low"
    )
    cached = CachedComparator(comparator, ComparisonCache(path))
    before = compare(cached, a, b)
    after = compare(cached, a, b_edited)
    assert len(mock_endpoint.requests) == 4
    assert before.winner is not after.winner
    # the edited pair's two requests, in whichever order they arrived
    assert any("warfarin" in request["body"]["prompt"] for request in mock_endpoint.requests[2:])
    # both versions stay served from the reloaded file
    reloaded = CachedComparator(comparator, ComparisonCache(path))
    assert compare(reloaded, a, b) == before and compare(reloaded, a, b_edited) == after
    assert len(mock_endpoint.requests) == 4 and reloaded.misses == 0


# ------------------------------------------------------ a pair's two requests


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
@pytest.mark.parametrize(
    "kind", [LogprobComparator, ReasoningComparator, RewardComparator],
    ids=lambda kind: kind.__name__,
)
def test_a_pairs_two_requests_are_in_flight_together(tmp_path, monkeypatch, kind, cached):
    # each request waits at the barrier for a second one: sent one after the
    # other, the first would wait out the timeout and fail the comparison
    barrier = threading.Barrier(2, timeout=5)

    def complete(config, system, user, want_logprobs=False):
        barrier.wait()
        return CompletionResult("YES", {"YES": 0.75, "NO": 0.25})

    def score(config, prompt, completion):
        barrier.wait()
        return 0.5

    monkeypatch.setattr(gateway, "complete", complete)
    monkeypatch.setattr(gateway, "score", score)
    comparator = kind(EndpointConfig(base_url="http://127.0.0.1:9", model_name="m"))
    if cached:
        comparator = CachedComparator(comparator, ComparisonCache(tmp_path / "cache.jsonl"))
    messages = [make_message(name) for name in "abcd"]
    result = run_tournament(messages, comparator, max_workers=1)
    assert result.comparisons_made == 6 and result.ties_encountered == 6


def _answer_after(delays: dict[str, float], rejected: dict[str, int]):
    """An answer keyed on the text of the request's new message.

    It waits ``delays[text]`` seconds (none if absent), then replies with
    the status ``rejected[text]``, or as ``_answer_by_urgency`` does.
    """

    def answer(body):
        text = new_slot(body).split("\n", 1)[0]
        time.sleep(delays.get(text, 0.0))
        if text in rejected:
            return rejected[text], {"error": "rejected"}
        return _answer_by_urgency(body)

    return answer


@pytest.mark.parametrize("rejected", ["forward", "reverse"])
def test_a_rejected_direction_fails_only_after_the_other_returned(
    tmp_path, mock_endpoint, monkeypatch, rejected
):
    # the forward is (a, b), with b in the new slot; the other direction answers 0.3 s late
    a, b = make_message("a", "urgency 2"), make_message("b", "urgency 4")
    rejected_text, late_text = (b.text, a.text) if rejected == "forward" else (a.text, b.text)
    mock_endpoint.answer = _answer_after({late_text: 0.3}, {rejected_text: 403})
    returned = []
    original = gateway.complete

    def spy(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        finally:
            returned.append(time.monotonic())

    monkeypatch.setattr(gateway, "complete", spy)
    threads_before = set(threading.enumerate())
    path = tmp_path / "cache.jsonl"
    store = ComparisonCache(path)
    comparator = CachedComparator(LogprobComparator(config_for(mock_endpoint)), store)
    with pytest.raises(ComparisonFailed, match="returned 403"):
        try:
            compare(comparator, a, b)
        finally:
            settled = len(returned)
    assert settled == 2 and len(mock_endpoint.requests) == 2
    assert not path.exists() and len(store) == 0 and comparator.misses == 0
    # the helper that sent the other request is idle, and ends with its comparator
    del comparator
    gc.collect()
    for thread in set(threading.enumerate()) - threads_before:
        thread.join(timeout=5)
        assert not thread.is_alive(), thread.name


def test_when_both_directions_fail_the_forwards_error_is_raised(mock_endpoint):
    # the reverse is rejected at once, the forward 0.2 s later
    a, b = make_message("a"), make_message("b")
    mock_endpoint.answer = _answer_after({b.text: 0.2}, {b.text: 401, a.text: 403})
    with pytest.raises(ComparisonFailed, match="returned 401"):
        compare(LogprobComparator(config_for(mock_endpoint)), a, b)
    assert len(mock_endpoint.requests) == 2


def test_parallel_tournament_keeps_max_parallel_requests_in_flight(tmp_path, mock_endpoint):
    texts = [f"urgency {level}" for level in (2, 4, 5, 3, 1, 6)]
    # long enough for requests to overlap at the server
    mock_endpoint.answer = _answer_after(dict.fromkeys(texts, 0.01), {})
    messages = [make_message(f"m{index}", text) for index, text in enumerate(texts)]
    comparator = LogprobComparator(config_for(mock_endpoint, max_parallel=2))
    cached = CachedComparator(comparator, ComparisonCache(tmp_path / "cache.jsonl"))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a lost update would show
    try:
        run_tournament(messages, cached, max_workers=4, log=tmp_path / "parallel.jsonl")
    finally:
        sys.setswitchinterval(interval)
    assert len(mock_endpoint.requests) == cached.misses == 2 * 15
    assert mock_endpoint.inflight_peak == 2
    run_tournament(messages, comparator, log=tmp_path / "sequential.jsonl")
    parallel = (tmp_path / "parallel.jsonl").read_bytes()
    assert parallel == (tmp_path / "sequential.jsonl").read_bytes()


def test_equal_views_ask_the_backend_as_one_worker_did(tmp_path, mock_endpoint):
    # a and b send the same prompt text, so their pairs with c, d and e share
    # keys: the first of each key is asked, the second served from its line
    mock_endpoint.answer = _answer_by_urgency
    levels = {"a": 3, "b": 3, "c": 5, "d": 2, "e": 4}
    messages = [make_message(name, f"urgency {level}") for name, level in levels.items()]
    cached = CachedComparator(
        LogprobComparator(config_for(mock_endpoint)), ComparisonCache(tmp_path / "cache.jsonl")
    )
    result = run_tournament(messages, cached, log=tmp_path / "cached.jsonl")
    # the counts of a one-worker run before pairs were scored in batches
    assert len(mock_endpoint.requests) == 14
    assert (result.comparisons_made, result.cache_hits) == (7, 3)
    assert (cached.hits, cached.misses) == (6, 14)
    uncached = LogprobComparator(config_for(mock_endpoint))
    run_tournament(messages, uncached, log=tmp_path / "uncached.jsonl")
    assert (tmp_path / "cached.jsonl").read_bytes() == (tmp_path / "uncached.jsonl").read_bytes()


def test_a_failed_pair_in_a_batch_stores_the_misses_before_it(tmp_path, mock_endpoint, monkeypatch):
    # every request with m3 in its new slot is rejected, so (m0, m3), the third
    # pair in order, fails; m3's requests answer after the others have started
    messages = [make_message(f"m{index}", f"urgency {index + 2}") for index in range(4)]
    mock_endpoint.answer = _answer_after({messages[3].text: 0.05}, {messages[3].text: 403})
    running = []
    original = gateway.complete

    def spy(*args, **kwargs):
        running.append(1)
        try:
            return original(*args, **kwargs)
        finally:
            running.pop()

    monkeypatch.setattr(gateway, "complete", spy)
    path = tmp_path / "cache.jsonl"
    store = ComparisonCache(path)
    comparator = CachedComparator(LogprobComparator(config_for(mock_endpoint)), store)
    with pytest.raises(ComparisonFailed, match=r"pair \(m0, m3\).*returned 403"):
        try:
            run_tournament(messages, comparator)
        finally:
            left_running = len(running)
    sent = len(mock_endpoint.requests)
    time.sleep(0.1)
    assert left_running == 0 and len(mock_endpoint.requests) == sent
    store.close()
    assert len(path.read_text(encoding="ascii").splitlines()) == 2
    assert comparator.misses == 4
    # a rerun asks only the four pairs not stored
    mock_endpoint.answer = _answer_by_urgency
    mock_endpoint.requests.clear()
    rerun = CachedComparator(LogprobComparator(config_for(mock_endpoint)), ComparisonCache(path))
    result = run_tournament(messages, rerun)
    assert (result.comparisons_made, result.cache_hits) == (4, 2)
    assert len(mock_endpoint.requests) == 8


def test_message_block_ambiguity_gets_two_digests(tmp_path):
    ehr = EhrRecord(problem_list=("asthma",), age=30)
    bare = make_message("a", f"short of breath\n{prompts.format_ehr_block(ehr)}")
    with_ehr = make_message("b", "short of breath", ehr)
    other = make_message("c", "a rash")
    assert prompts.message_block(bare) == prompts.message_block(with_ehr)
    config = EndpointConfig(base_url="http://127.0.0.1:9", model_name="m")
    store = ComparisonCache(tmp_path / "cache.jsonl")
    logprob = CachedComparator(LogprobComparator(config), store)
    reward = CachedComparator(RewardComparator(config), store)
    # the chat prompts differ, so the digests must too
    assert prompts.pair_bindings(bare, other) != prompts.pair_bindings(with_ehr, other)
    assert logprob._digest(bare) != logprob._digest(with_ehr)
    # the reward backend is sent the same string for both
    assert reward._digest(bare) == reward._digest(with_ehr)


def test_old_format_file_warns_once_compacts_and_misses(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    table = {("a", "b"): 0.75, ("b", "a"): 0.25, ("a", "c"): 0.5, ("c", "a"): 0.5}
    counting = CountingComparator(ScriptedComparator(table))
    a, b, c = make_message("a"), make_message("b"), make_message("c")
    compare(CachedComparator(counting, ComparisonCache(path)), a, c)
    kept = path.read_text(encoding="ascii")
    with path.open("a", encoding="utf-8") as handle:
        # the pair (a, b) in the per-direction format, scored against the backend,
        # so one hit would show
        for first, second, value in ((a, b, 0.25), (b, a, 0.75)):
            key = json.dumps(["CountingComparator", "default", first.id, second.id])
            handle.write(json.dumps({"key": key, "kind": "probability", "value": value}) + "\n")
    with caplog.at_level("WARNING"):
        store = ComparisonCache(path)
    warnings = [record.getMessage() for record in caplog.records]
    assert len(warnings) == 1 and "dropping 2 old-format lines" in warnings[0]
    assert path.read_text(encoding="ascii") == kept and len(store) == 1
    comparator = CachedComparator(counting, store)
    assert compare(comparator, a, b).winner is Winner.B
    assert compare(comparator, a, c).winner is Winner.TIE
    assert counting.backend_calls == 4 and (comparator.hits, comparator.misses) == (2, 2)


def test_cache_cleared_behaves_like_uncached(tmp_path, fixture_corpus):
    oracle = perfect_oracle(fixture_corpus)
    store = ComparisonCache(tmp_path / "cache.jsonl")
    comparator = CachedComparator(CountingComparator(oracle), store)
    a, b = fixture_corpus[0].message, fixture_corpus[7].message
    cached_outcome = compare(comparator, a, b)
    fresh_store = ComparisonCache(tmp_path / "fresh.jsonl")
    fresh_outcome = compare(CachedComparator(CountingComparator(oracle), fresh_store), a, b)
    plain_outcome = compare(oracle, a, b)
    assert cached_outcome.eta == fresh_outcome.eta == plain_outcome.eta


def test_cache_persists_across_instances(tmp_path, fixture_corpus):
    path = tmp_path / "cache.jsonl"
    counting = CountingComparator(perfect_oracle(fixture_corpus))
    a, b = fixture_corpus[0].message, fixture_corpus[7].message
    compare(CachedComparator(counting, ComparisonCache(path)), a, b)
    assert counting.backend_calls == 2
    reopened = CachedComparator(counting, ComparisonCache(path))
    compare(reopened, a, b)
    assert counting.backend_calls == 2
    assert reopened.hits == 2


def test_cache_lines_hold_key_kind_value(tmp_path, fixture_corpus):
    path = tmp_path / "cache.jsonl"
    store = ComparisonCache(path)
    a, b = fixture_corpus[0].message, fixture_corpus[7].message
    outcome = compare(CachedComparator(perfect_oracle(fixture_corpus), store), a, b)
    store.close()
    lines = path.read_text(encoding="ascii").splitlines()
    assert len(lines) == 1
    key, kind, first, second = lines[0].split(" ")
    assert len(key) == 80 and set(key) <= set("0123456789abcdef")
    assert kind == "probability"
    assert {float(first), float(second)} == {outcome.s_ab.value, outcome.s_ba.value}


def test_cache_corruption_falls_back_and_compacts(tmp_path, fixture_corpus, caplog):
    path = tmp_path / "cache.jsonl"
    counting = CountingComparator(perfect_oracle(fixture_corpus))
    a, b = fixture_corpus[0].message, fixture_corpus[7].message
    compare(CachedComparator(counting, ComparisonCache(path)), a, b)
    with path.open("a", encoding="utf-8") as handle:
        handle.write("{corrupt line\n")
    with caplog.at_level("WARNING"):
        store = ComparisonCache(path)
    assert any("CacheInvalid" in record.message for record in caplog.records)
    assert len(store) == 1
    # compaction rewrote the file without the corrupt line
    reloaded = ComparisonCache(path)
    assert len(reloaded) == 1
    compare(CachedComparator(counting, reloaded), a, b)
    assert counting.backend_calls == 2  # still served from cache


def test_cache_unreadable_file_starts_empty(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    path.write_bytes(b"\xff\xfe garbage \x00")
    with caplog.at_level("WARNING"):
        store = ComparisonCache(path)
    assert len(store) == 0
    assert any("CacheInvalid" in record.message for record in caplog.records)


def test_cached_scores_lose_only_raw_payload(tmp_path, fixture_corpus):
    store = ComparisonCache(tmp_path / "cache.jsonl")
    comparator = CachedComparator(perfect_oracle(fixture_corpus), store)
    a, b = fixture_corpus[0].message, fixture_corpus[7].message
    fresh = comparator.score_pair(a, b)[0]
    again = comparator.score_pair(a, b)[0]
    assert again.value == fresh.value
    assert again.kind is fresh.kind


def test_cache_written_under_the_old_oracle_draw_misses(tmp_path, fixture_corpus):
    # the identity the oracle had while its flips came from random.Random
    old_identity = "oracle(seed=3,margin=0.4,flip=[(1, 0.3), (2, 0.15)])"
    flip = {1: 0.3, 2: 0.15}
    oracle = NoisyOracleComparator(fixture_corpus, flip, seed=3)

    class OldDraw:
        """Stores the opposite of every score of today's oracle, so one hit would show."""

        cache_identity = old_identity
        backend_view = oracle.backend_view

        def score_pair(self, a, b):
            return tuple(
                DirectionScore(1.0 - score.value, ScoreKind.PROBABILITY)
                for score in oracle.score_pair(a, b)
            )

    messages = [labeled.message for labeled in fixture_corpus]
    path = tmp_path / "cache.jsonl"
    store = ComparisonCache(path)
    run_tournament(messages, CachedComparator(OldDraw(), store))
    store.close()
    n = len(messages)
    reloaded = ComparisonCache(path)
    assert len(reloaded) == n * (n - 1) // 2  # valid lines, kept but never matched
    cached = CachedComparator(NoisyOracleComparator(fixture_corpus, flip, seed=3), reloaded)
    assert cached.cache_identity != old_identity
    result = run_tournament(messages, cached, log=tmp_path / "cached.jsonl")
    uncached = run_tournament(messages, oracle, log=tmp_path / "uncached.jsonl")
    assert cached.hits == 0 and cached.misses == n * (n - 1)
    assert (tmp_path / "cached.jsonl").read_bytes() == (tmp_path / "uncached.jsonl").read_bytes()
    assert result.scores == uncached.scores
    assert result.ranking == uncached.ranking
    reloaded.close()


def test_cache_counters_exact_under_parallel_tournaments(tmp_path, fixture_corpus):
    messages = [labeled.message for labeled in fixture_corpus[:16]]
    comparator = CachedComparator(
        NoisyOracleComparator(fixture_corpus, {1: 0.3}, seed=3),
        ComparisonCache(tmp_path / "cache.jsonl"),
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a lost += would show
    try:
        run_tournament(messages, comparator, max_workers=4)
        run_tournament(messages, comparator, max_workers=4)
    finally:
        sys.setswitchinterval(interval)
    n = len(messages)
    assert comparator.hits == comparator.misses == n * (n - 1)


class CountingStore(ComparisonCache):
    """A store that counts its lookups."""

    def __init__(self, path):
        self.gets = 0
        self._gets_lock = threading.Lock()
        super().__init__(path)

    def get(self, key):
        with self._gets_lock:
            self.gets += 1
        return super().get(key)


@pytest.mark.parametrize("max_workers", [1, 4])
def test_warm_rerank_reads_each_directed_key_once(tmp_path, fixture_corpus, max_workers):
    # one lookup reads a pair's two directed scores: one per pair, warm or cold
    messages = [labeled.message for labeled in fixture_corpus[:12]]
    counting = CountingComparator(NoisyOracleComparator(fixture_corpus, {1: 0.3}, seed=3))
    path = tmp_path / "cache.jsonl"
    cold_store = CountingStore(path)
    cold_log, warm_log = tmp_path / "cold.jsonl", tmp_path / "warm.jsonl"
    run_tournament(
        messages, CachedComparator(counting, cold_store), max_workers=max_workers, log=cold_log
    )
    cold_store.close()
    pairs = 12 * 11 // 2
    assert cold_store.gets == pairs
    backend_calls = counting.backend_calls
    store = CountingStore(path)
    comparator = CachedComparator(counting, store)
    warm = run_tournament(messages, comparator, max_workers=max_workers, log=warm_log)
    assert store.gets == pairs
    assert counting.backend_calls == backend_calls
    assert warm.cache_hits == pairs and warm.comparisons_made == 0
    assert comparator.hits == 2 * pairs and comparator.misses == 0
    assert warm_log.read_bytes() == cold_log.read_bytes()


def test_cache_counts_exact_with_pairs_cached_in_one_direction(tmp_path, fixture_corpus):
    messages = [labeled.message for labeled in fixture_corpus[:16]]
    oracle = NoisyOracleComparator(fixture_corpus, {1: 0.3}, seed=3)
    counting = CountingComparator(oracle)
    path = tmp_path / "cache.jsonl"
    store = ComparisonCache(path)
    seeding = CachedComparator(counting, store)
    forward = backward = 0
    # a third of the pairs cached in the tournament's order, a third reversed, a third not
    for index, (a, b) in enumerate(combinations(messages, 2)):
        if index % 3 == 0:
            seeding.score_pair(a, b)
            forward += 1
        elif index % 3 == 1:
            seeding.score_pair(b, a)
            backward += 1
    store.close()
    neither = 16 * 15 // 2 - forward - backward
    counting.backend_calls = 0
    comparator = CachedComparator(counting, ComparisonCache(path))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a lost += would show
    try:
        result = run_tournament(messages, comparator, max_workers=4, log=tmp_path / "mixed.jsonl")
    finally:
        sys.setswitchinterval(interval)
    assert result.cache_hits == forward + backward
    assert result.comparisons_made == neither
    assert comparator.hits == 2 * (forward + backward)
    assert comparator.misses == 2 * neither == counting.backend_calls
    run_tournament(messages, oracle, log=tmp_path / "uncached.jsonl")
    assert (tmp_path / "mixed.jsonl").read_bytes() == (tmp_path / "uncached.jsonl").read_bytes()


def test_probe_never_serves_a_self_pair(tmp_path):
    a = make_message("a")
    store = ComparisonCache(tmp_path / "cache.jsonl")
    comparator = CachedComparator(ScriptedComparator({}), store)
    # the self-pair's one line, written by hand
    store.put(comparator._read(a, a)[0], ScoreKind.PROBABILITY, 0.5, 0.5)
    assert comparator.has_cached_pair(a, a) is None
    assert comparator.hits == 0
    with pytest.raises(ConfigError):
        compare(comparator, a, a)
    store.close()


def test_probe_of_mixed_kinds_fails(tmp_path):
    class MixedKinds(ScriptedComparator):
        def score_pair(self, a, b):
            return DirectionScore(0.5, ScoreKind.PROBABILITY), DirectionScore(0.5, ScoreKind.REWARD)

    a, b = make_message("a"), make_message("b")
    store = ComparisonCache(tmp_path / "cache.jsonl")
    comparator = CachedComparator(MixedKinds({}), store)
    assert comparator.has_cached_pair(a, b) is None
    with pytest.raises(ComparisonFailed, match="mixed score kinds"):
        compare(comparator, a, b)
    with pytest.raises(ComparisonFailed):
        run_tournament([a, b], comparator)
    assert len(store) == 0 and comparator.misses == 0
    store.close()


class ShortWrites:
    """A raw append handle that takes at most seven bytes per write."""

    def __init__(self, raw):
        self.raw = raw
        self.writes = 0

    def write(self, data):
        self.writes += 1
        return self.raw.write(bytes(data[:7]))

    def close(self):
        self.raw.close()


def test_put_finishes_each_line_across_short_writes(tmp_path, monkeypatch):
    handles = []
    open_path = Path.open

    def short_append(path, mode="r", *args, **kwargs):
        handle = open_path(path, mode, *args, **kwargs)
        if mode == "ab":
            handles.append(ShortWrites(handle))
            return handles[-1]
        return handle

    monkeypatch.setattr(Path, "open", short_append)
    path = tmp_path / "cache.jsonl"
    store = ComparisonCache(path)
    entries = {
        f"{index:080x}": (
            DirectionScore(index / 7, ScoreKind.PROBABILITY),
            DirectionScore(1 - index / 7, ScoreKind.PROBABILITY),
        )
        for index in range(5)
    }
    reward = (DirectionScore(-12.5, ScoreKind.REWARD), DirectionScore(3.0, ScoreKind.REWARD))
    entries["f" * 80] = reward
    stored = {key: (first.kind, first.value, second.value) for key, (first, second) in entries.items()}
    for key, scores in stored.items():
        store.put(key, *scores)
    store.close()
    lines = [ComparisonCache._format_line(key, *scores) for key, scores in stored.items()]
    assert lines[-1] == f"{'f' * 80} reward -12.5 3.0\n"
    assert len(handles) == 1
    assert handles[0].writes == sum(-(-len(line) // 7) for line in lines)
    assert path.read_text(encoding="ascii") == "".join(lines)
    reloaded = ComparisonCache(path)
    assert {key: reloaded.get(key) for key in entries} == stored


# sha256 of the cache file a cached noisy-oracle tournament over the first 25
# fixture messages and five inserts write (one line per pair)
GOLDEN_CACHE_SHA256 = "fa477623dcd1d9247cf5d9f1d5ee56c2a2a3161c7eb2cd192fab5345bcfaacca"


def test_cache_file_bytes_golden(tmp_path, fixture_corpus):
    path = tmp_path / "cache.jsonl"
    store = ComparisonCache(path)
    comparator = CachedComparator(
        NoisyOracleComparator(fixture_corpus, {1: 0.3, 2: 0.15}, seed=3), store
    )
    messages = [labeled.message for labeled in fixture_corpus]
    result = run_tournament(messages[:25], comparator)
    for message in messages[25:]:
        result = insert_incremental(result, message, comparator)
    store.close()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CACHE_SHA256
    # a warm re-rank from a fresh store is served whole and appends nothing
    rerun = run_tournament(messages, CachedComparator(comparator._inner, ComparisonCache(path)))
    assert rerun.cache_hits == 30 * 29 // 2 and rerun.scores == result.scores
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CACHE_SHA256


def test_second_store_sees_entries_while_first_holds_handle(tmp_path, fixture_corpus):
    path = tmp_path / "cache.jsonl"
    first = ComparisonCache(path)
    comparator = CachedComparator(perfect_oracle(fixture_corpus), first)
    messages = [labeled.message for labeled in fixture_corpus[:6]]
    for a, b in zip(messages, messages[1:]):
        compare(comparator, a, b)
    second = ComparisonCache(path)
    assert len(second) == len(first) == 5
    for key in ("0" * 80, "1" * 80):
        first.put(key, ScoreKind.PROBABILITY, 0.5, 0.5)
    assert len(ComparisonCache(path)) == 7
    first.close()


def test_cache_repairs_missing_final_newline_before_appending(tmp_path, fixture_corpus):
    path = tmp_path / "cache.jsonl"
    counting = CountingComparator(perfect_oracle(fixture_corpus))
    a, b, c = (fixture_corpus[i].message for i in (0, 7, 14))
    store = ComparisonCache(path)
    compare(CachedComparator(counting, store), a, b)
    store.close()
    path.write_bytes(path.read_bytes().rstrip(b"\n"))
    store = ComparisonCache(path)
    # the line without its newline is dropped: its pair is asked again, and
    # neither append is swallowed by it
    comparator = CachedComparator(counting, store)
    compare(comparator, a, c)
    compare(comparator, a, b)
    store.close()
    assert len(ComparisonCache(path)) == 2
    assert counting.backend_calls == 6


def test_a_line_cut_short_is_scored_again_not_served(tmp_path, fixture_corpus, caplog):
    # a write that stopped partway leaves "... 0.09999999999999998 0" of
    # "... 0.09999999999999998 0.9\n", which parses to the other winner
    path = tmp_path / "cache.jsonl"
    oracle = perfect_oracle(fixture_corpus)
    counting = CountingComparator(oracle)
    for a, b in combinations([labeled.message for labeled in fixture_corpus], 2):
        store = ComparisonCache(path)
        compare(CachedComparator(counting, store), a, b)
        store.close()
        line = path.read_bytes()
        if line.endswith(b" 0.9\n"):
            break
        path.unlink()
    path.write_bytes(line[:-3])
    counting.backend_calls = 0
    with caplog.at_level("WARNING"):
        store = ComparisonCache(path)
    assert len(store) == 0
    assert any("unterminated last line" in record.getMessage() for record in caplog.records)
    comparator = CachedComparator(counting, store)
    assert compare(comparator, a, b) == compare(oracle, a, b)
    assert counting.backend_calls == 2 and comparator.misses == 2
    store.close()
    assert path.read_bytes() == line
    reloaded = CachedComparator(counting, ComparisonCache(path))
    assert reloaded.has_cached_pair(a, b) == compare(oracle, a, b)
    assert counting.backend_calls == 2


def test_compaction_failure_leaves_cache_file_intact(tmp_path, fixture_corpus, monkeypatch):
    path = tmp_path / "cache.jsonl"
    store = ComparisonCache(path)
    comparator = CachedComparator(perfect_oracle(fixture_corpus), store)
    messages = [labeled.message for labeled in fixture_corpus[:6]]
    for a, b in combinations(messages, 2):
        compare(comparator, a, b)
    store.close()
    with path.open("a", encoding="utf-8") as handle:
        handle.write("{corrupt line\n")
    before = path.read_bytes()

    format_line = ComparisonCache._format_line
    written = []

    def fail_halfway(key, kind, first, second):
        if len(written) == 5:
            raise OSError("disk full")
        written.append(key)
        return format_line(key, kind, first, second)

    monkeypatch.setattr(ComparisonCache, "_format_line", staticmethod(fail_halfway))
    with pytest.raises(ExportFailed, match="disk full"):
        ComparisonCache(path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.jsonl"]


# Loads the cache at argv[2] and kills its own process at the m-th line (argv[1])
# the load's compaction formats, before that line is written to the temporary file.
_KILLED_AT_MTH_COMPACTED_LINE = """\
import os, signal, sys
from triagerank.compare import ComparisonCache
format_line, kill_at = ComparisonCache._format_line, int(sys.argv[1])
formatted = []
def format_until_killed(key, kind, first, second):
    formatted.append(key)
    if len(formatted) == kill_at:
        os.kill(os.getpid(), signal.SIGKILL)
    return format_line(key, kind, first, second)
ComparisonCache._format_line = staticmethod(format_until_killed)
ComparisonCache(sys.argv[2])
"""


@pytest.mark.parametrize("kill_at", [1, 8, 15])
def test_a_kill_mid_compaction_leaves_the_cache_file_whole(tmp_path, fixture_corpus, kill_at):
    """A real SIGKILL at the m-th line of a load's compaction leaves the old file as it was.

    The only trace of the kill is the child's temporary file; a fresh load
    drops the corrupt line again and serves every good pair. Power loss (an
    unsynced directory, a torn page) cannot be simulated in a test, so only
    the kill is checked.
    """
    path = tmp_path / "cache.jsonl"
    store = ComparisonCache(path)
    comparator = CachedComparator(perfect_oracle(fixture_corpus), store)
    messages = [labeled.message for labeled in fixture_corpus[:6]]
    outcomes = [compare(comparator, a, b) for a, b in combinations(messages, 2)]
    store.close()
    with path.open("a", encoding="utf-8") as handle:
        handle.write("not a cache line\n")
    before = path.read_bytes()
    env = {**os.environ, "PYTHONPATH": str(Path(triagerank.__file__).resolve().parents[1])}
    child = subprocess.Popen(
        [sys.executable, "-c", _KILLED_AT_MTH_COMPACTED_LINE, str(kill_at), str(path)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    assert child.wait(timeout=120) == -signal.SIGKILL
    assert path.read_bytes() == before
    leftover = f"cache.jsonl.{child.pid}.tmp"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.jsonl", leftover]
    reloaded = ComparisonCache(path)
    assert len(reloaded) == len(outcomes) == 15
    comparator = CachedComparator(perfect_oracle(fixture_corpus), reloaded)
    for (a, b), outcome in zip(combinations(messages, 2), outcomes):
        assert comparator.has_cached_pair(a, b) == outcome


def test_a_line_that_does_not_decode_is_dropped_and_the_rest_served(tmp_path, caplog):
    # an undecodable byte in a key and one in a value each spoil only their own line
    path = tmp_path / "cache.jsonl"
    path.write_bytes(
        _GOOD_LINE.encode("ascii")
        + b"b" * 79 + b"\xff probability 0.5 0.5\n"
        + b"c" * 80 + b" reward 0.\xff5 1.0\n"
    )
    with caplog.at_level("WARNING"):
        store = ComparisonCache(path)
    dropped = [record for record in caplog.records if "CacheInvalid" in record.getMessage()]
    assert len(dropped) == 2 and "corrupt cache line" in dropped[0].getMessage()
    assert len(store) == 1 and store.get("a" * 80) == (ScoreKind.PROBABILITY, 0.9, 0.1)
    assert path.read_bytes() == _GOOD_LINE.encode("ascii")
    store.put("d" * 80, ScoreKind.REWARD, -2.5, 4.0)
    store.close()
    caplog.clear()
    with caplog.at_level("WARNING"):
        reloaded = ComparisonCache(path)
    assert not caplog.records
    assert reloaded.get("a" * 80) == (ScoreKind.PROBABILITY, 0.9, 0.1)
    assert reloaded.get("d" * 80) == (ScoreKind.REWARD, -2.5, 4.0)
    assert len(reloaded) == 2



class _FloatSubclass(float):
    pass


@pytest.mark.parametrize("value", [True, False, "0.25", None], ids=repr)
def test_direction_score_value_must_be_a_number(value):
    with pytest.raises(BadScore):
        DirectionScore(value, ScoreKind.REWARD)


@pytest.mark.parametrize("value", [2, _FloatSubclass(0.25)], ids=repr)
def test_direction_score_value_is_a_plain_float(value):
    score = DirectionScore(value, ScoreKind.REWARD)
    assert type(score.value) is float and score.value == value


@pytest.mark.parametrize("kind", list(ScoreKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize(
    "value",
    [math.nan, math.inf, -math.inf, _FloatSubclass(math.inf)],
    ids=["nan", "inf", "-inf", "float-subclass-inf"],
)
def test_direction_score_rejects_non_finite(value, kind):
    with pytest.raises(BadScore) as expected:
        finite_score(value)
    with pytest.raises(BadScore) as excinfo:
        DirectionScore(value, kind)
    assert str(excinfo.value) == str(expected.value)


def test_direction_score_of_an_int_too_large_for_a_float_is_bad():
    with pytest.raises(BadScore):
        DirectionScore(10**400, ScoreKind.REWARD)



@pytest.mark.parametrize("value", [2, -0.0, 1e16, 5e-324, _FloatSubclass(0.25)], ids=repr)
def test_cache_reads_back_every_score_it_writes(tmp_path, monkeypatch, value):
    path = tmp_path / "cache.jsonl"
    store = ComparisonCache(path)
    key = "k" * 80
    score, negated = DirectionScore(value, ScoreKind.REWARD), DirectionScore(-value, ScoreKind.REWARD)
    store.put(key, ScoreKind.REWARD, score.value, negated.value)
    store.close()
    reloaded, compacted = _load_spying_compaction(path, monkeypatch)
    assert not compacted
    kind, first, second = reloaded.get(key)
    assert kind is ScoreKind.REWARD
    assert (repr(first), repr(second)) == (repr(float(value)), repr(-float(value)))


_AWKWARD_KEYS = [
    json.dumps(["oracle(seed=3)", "default", "m-1", "m-2"]),
    'quote " and backslash \\ and slash /',
    "controls \x00\x01\x1f\t\n\r\x7f",
    "non-ASCII caf\u00e9 \u4e2d \U0001f600 \u2028",
    "lone surrogate \ud800 and \udfff",
]
_AWKWARD_VALUES = [
    (5e-324, "probability"),
    (1e-07, "probability"),
    (0.1 + 0.2, "probability"),
    (-0.0, "probability"),
    (1e16, "reward"),
    (-3.75, "reward"),
    (2, "reward"),  # an int is stored as the float it converts to
]


@pytest.mark.parametrize("key", _AWKWARD_KEYS)
@pytest.mark.parametrize("value,kind", _AWKWARD_VALUES)
def test_cache_line_bytes_equal_json_dumps(tmp_path, key, value, kind):
    # any cache_identity hashes into a hex key; each score is written as json.dumps writes it
    path = tmp_path / "cache.jsonl"
    inner = ScriptedComparator({("a", "b"): value, ("b", "a"): value}, ScoreKind(kind))
    inner.cache_identity = key
    store = ComparisonCache(path)
    compare(CachedComparator(inner, store), make_message("a"), make_message("b"))
    store.close()

    def digest(text, size):
        return hashlib.blake2b(text.encode("utf-8", "surrogatepass"), digest_size=size).hexdigest()

    pair_key = digest(json.dumps([key, "default"]), 8) + "".join(
        sorted(digest(message_id, 16) for message_id in ("a", "b"))
    )
    score = json.dumps(float(value))
    assert path.read_bytes() == f"{pair_key} {kind} {score} {score}\n".encode("ascii")
    reloaded = CachedComparator(inner, ComparisonCache(path))
    outcome = reloaded.has_cached_pair(make_message("b"), make_message("a"))
    assert (repr(outcome.s_ab.value), repr(outcome.s_ba.value)) == (repr(float(value)),) * 2
    assert inner.calls == 2



# ------------------------------------------------------------ cached line tails


def _tail_value_sets():
    """(kind, s_ab, s_ba) sets: the oracle's three pairs, random floats, the
    smallest subnormal, and a signed zero in each position."""
    rng = random.Random(30)
    low = 0.5 - 0.4  # 0.09999999999999998, the oracle's less-urgent score
    zeros = [(x, y) for x in (0.0, -0.0, 0.5) for y in (0.0, -0.0, 0.5) if x == 0.0 or y == 0.0]
    probability = [(0.9, low), (low, 0.9), (0.5, 0.5), (5e-324, 0.5), (1.0, 5e-324), *zeros]
    probability += [(rng.random(), rng.random()) for _ in range(40)]
    reward = [(-5e-324, 5e-324), (5e-324, 5e-324), (-3.0, 3.0), *zeros]
    reward += [(-x, y) for x, y in zeros]
    reward += [(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(40)]
    return [(ScoreKind.PROBABILITY, *pair) for pair in probability] + [
        (ScoreKind.REWARD, *pair) for pair in reward
    ]


def test_outcome_and_cache_lines_equal_their_reference_formats_on_misses_and_hits():
    key = "0123456789abcdef" * 5
    values = _tail_value_sets()
    for _ in range(2):  # the second round is served by the caches
        for kind, ab, ba in values:
            outcome = ComparisonOutcome(
                "a\u00e9\"", "b\n", DirectionScore(ab, kind), DirectionScore(ba, kind)
            )
            record = {
                "a_id": outcome.a_id, "b_id": outcome.b_id, "eta": outcome.eta,
                "kind": kind.value, "s_ab": ab, "s_ba": ba, "winner": outcome.winner.value,
            }
            assert outcome.to_line() == json.dumps(record, sort_keys=True) + "\n"
            line = ComparisonCache._format_line(key, kind, ab, ba)
            assert line == f"{key} {kind.value} {ab!r} {ba!r}\n"


def test_a_negative_zero_is_not_served_the_line_of_a_positive_zero():
    # 0.0 == -0.0 and both hash alike, so a cache keyed on the values alone would
    # serve the first zero's text for the second
    reward = ScoreKind.REWARD
    for ab, ba in [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (0.0, 0.0)]:
        line = ComparisonOutcome(
            "a", "b", DirectionScore(ab, reward), DirectionScore(ba, reward)
        ).to_line()
        assert f'"s_ab": {ab!r}, "s_ba": {ba!r},' in line
        assert ComparisonCache._format_line("k", reward, ab, ba) == f"k reward {ab!r} {ba!r}\n"


def test_line_tail_caches_stay_within_their_bound():
    for tail in (_outcome_tail, _cache_line_tail):
        for value in range(1, 10_001):
            tail(False, float(value), 0.5)
        info = tail.cache_info()
        assert info.maxsize is not None and 0 < info.currsize <= info.maxsize

@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"], ids=["LS", "PS", "NEL"])
def test_cache_key_holding_a_raw_unicode_line_break_loads(
    tmp_path, caplog, monkeypatch, separator
):
    # the pair key is built from a message id holding a character str.splitlines breaks on
    path = tmp_path / "cache.jsonl"
    odd_id = f"id{separator}x"
    counting = CountingComparator(ScriptedComparator({(odd_id, "b"): 0.75, ("b", odd_id): 0.25}))
    a, b = make_message(odd_id), make_message("b")
    store = ComparisonCache(path)
    compare(CachedComparator(counting, store), a, b)
    store.close()
    text = path.read_text(encoding="ascii")
    assert len(text.splitlines()) == 1
    with caplog.at_level("WARNING"):
        store, compacted = _load_spying_compaction(path, monkeypatch)
    assert len(store) == 1
    assert not any("CacheInvalid" in record.message for record in caplog.records)
    assert not compacted
    assert path.read_text(encoding="ascii") == text
    comparator = CachedComparator(counting, store)
    outcome = comparator.has_cached_pair(a, b)
    assert (outcome.s_ab.value, outcome.s_ba.value) == (0.75, 0.25)
    assert counting.backend_calls == 2 and comparator.hits == 2


def test_identical_duplicate_line_leaves_a_live_writer_where_loads_read(tmp_path, monkeypatch):
    # two stores that both missed a pair each append its line; a later load must
    # not rename a new file under the store still holding its append handle
    path = tmp_path / "cache.jsonl"
    probability = ScoreKind.PROBABILITY
    writer = ComparisonCache(path)
    writer.put("a" * 80, probability, 0.9, 0.1)
    writer.put("a" * 80, probability, 0.9, 0.1)
    before = path.read_bytes()
    inode = path.stat().st_ino
    loaded, compacted = _load_spying_compaction(path, monkeypatch)
    assert not compacted and len(loaded) == 1
    assert path.stat().st_ino == inode and path.read_bytes() == before
    writer.put("b" * 80, probability, 0.1, 0.9)
    writer.close()
    assert ComparisonCache(path).get("b" * 80) == (ScoreKind.PROBABILITY, 0.1, 0.9)


def test_duplicate_line_with_different_scores_compacts_to_the_later(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    later = f"{'a' * 80} probability 0.8 0.2\n"
    path.write_text(f"{'a' * 80} probability 0.9 0.1\n" + later, encoding="ascii")
    inode = path.stat().st_ino
    loaded, compacted = _load_spying_compaction(path, monkeypatch)
    assert compacted
    assert path.read_text(encoding="ascii") == later and path.stat().st_ino != inode
    assert loaded.get("a" * 80) == (ScoreKind.PROBABILITY, 0.8, 0.2)


def _load_spying_compaction(path, monkeypatch):
    compactions = []
    compact = ComparisonCache._compact

    def spy(self):
        compactions.append(self)
        compact(self)

    monkeypatch.setattr(ComparisonCache, "_compact", spy)
    return ComparisonCache(path), bool(compactions)


_GOOD_LINE = f"{'a' * 80} probability 0.9 0.1\n"


@pytest.mark.parametrize("layout", ["canonical", "legacy"])
@pytest.mark.parametrize(
    "value_json", ["1" * 400, "true", '"0.25"', '" 7 "'], ids=["400-digit int", "bool", "numeric string", "padded string"]
)
def test_cache_value_that_is_not_a_finite_json_number_is_corrupt(
    tmp_path, caplog, layout, value_json
):
    if layout == "canonical":
        bad_line = f"{'b' * 80} reward {value_json} 1.5\n"
    else:
        bad_line = f'{{"key": "bad", "kind": "reward", "timestamp": 0.0, "value": {value_json}}}\n'
    path = tmp_path / "cache.jsonl"
    path.write_text(_GOOD_LINE + bad_line, encoding="utf-8")
    with caplog.at_level("WARNING"):
        store = ComparisonCache(path)
    assert any("CacheInvalid" in record.message for record in caplog.records)
    assert store.get("b" * 80) is None and len(store) == 1
    assert path.read_text(encoding="utf-8") == _GOOD_LINE


_TOKENS = [
    "0.25", "-0.0", "5e-324", "1e16", "1.5", "-0.1", "nan", "inf", "-inf", "1e309",
    "1" * 400, "1_0", "0x1",
]


@pytest.mark.parametrize("kind", list(ScoreKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("token", _TOKENS, ids=lambda token: token[:12])
def test_cache_load_keeps_exactly_the_values_a_direction_score_accepts(
    tmp_path, caplog, monkeypatch, token, kind
):
    # the load checks values without building scores; it must agree with DirectionScore
    try:
        expected = DirectionScore(float(token), kind)
    except (ValueError, BadScore):
        expected = None
    path = tmp_path / "cache.jsonl"
    # the token first in one line and second in another, the other value 0.5
    lines = [f"{'e' * 80} {kind.value} {token} 0.5\n", f"{'f' * 80} {kind.value} 0.5 {token}\n"]
    path.write_text(_GOOD_LINE + "".join(lines), encoding="ascii")
    with caplog.at_level("WARNING"):
        store, compacted = _load_spying_compaction(path, monkeypatch)
    if expected is None:
        assert len(store) == 1 and compacted
        assert store.get("e" * 80) is None and store.get("f" * 80) is None
        assert sum("CacheInvalid" in record.getMessage() for record in caplog.records) == 2
        assert path.read_text(encoding="ascii") == _GOOD_LINE
        return
    assert len(store) == 3 and not compacted and not caplog.records
    e_kind, e_first, e_second = store.get("e" * 80)
    f_kind, f_first, f_second = store.get("f" * 80)
    assert e_kind is f_kind is kind and e_second == f_first == 0.5
    for value in (e_first, f_second):
        assert DirectionScore(value, kind) == expected and repr(value) == repr(expected.value)


def test_direction_scores_carry_no_backend_payload(mock_endpoint):
    comparator = LogprobComparator(config_for(mock_endpoint))
    mock_endpoint.enqueue_fixture("logprob_top2")
    score = comparator.score_directed(make_message("a"), make_message("b"))
    assert not hasattr(score, "raw")
