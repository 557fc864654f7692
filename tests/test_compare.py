from __future__ import annotations

import json
import math
import random
import sys

import pytest

from triagerank.compare import (
    CachedComparator,
    ComparisonCache,
    DirectionScore,
    LogprobComparator,
    NoisyOracleComparator,
    ReasoningComparator,
    RewardComparator,
    ScoreKind,
    Winner,
    compare,
    parse_final_answer,
    perfect_oracle,
)
from triagerank.errors import (
    BadScore,
    ComparisonFailed,
    ConfigError,
    OracleNeedsLabels,
    UnparseableAnswer,
    UnparseableLogprobs,
)
from triagerank.rank import run_tournament

from .conftest import make_labeled, make_message
from .test_gateway import config_for


class ScriptedComparator:
    """Returns fixed directed scores from a (existing_id, new_id) table."""

    def __init__(self, table, kind=ScoreKind.PROBABILITY):
        self.table = table
        self.kind = kind
        self.calls = 0

    def score_directed(self, existing, new):
        self.calls += 1
        return DirectionScore(self.table[(existing.id, new.id)], self.kind)


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
        def __init__(self):
            self.kinds = [ScoreKind.PROBABILITY, ScoreKind.REWARD]

        def score_directed(self, existing, new):
            return DirectionScore(0.5, self.kinds.pop(0))

    with pytest.raises(ComparisonFailed):
        compare(Mixed(), make_message("a"), make_message("b"))


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
    score = oracle.score_directed(by_id["m30"].message, by_id["m01"].message)
    assert score.value == 0.9
    score = oracle.score_directed(by_id["m01"].message, by_id["m30"].message)
    assert score.value == pytest.approx(0.1)


def test_oracle_needs_labels(fixture_corpus):
    oracle = perfect_oracle(fixture_corpus)
    with pytest.raises(ComparisonFailed):
        compare(oracle, make_message("stranger"), fixture_corpus[0].message)
    with pytest.raises(OracleNeedsLabels):
        oracle.score_directed(make_message("stranger"), fixture_corpus[0].message)


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


class AlwaysDrawOracle:
    """The noisy oracle's rule with a fresh per-pair draw on every call."""

    def __init__(self, labeled, flip, seed, margin=0.4):
        self.levels = {item.id: item.level for item in labeled}
        self.flip, self.seed, self.margin = flip, seed, margin

    def score_directed(self, existing, new):
        level_existing, level_new = self.levels[existing.id], self.levels[new.id]
        if level_existing == level_new:
            return DirectionScore(0.5, ScoreKind.PROBABILITY)
        first, second = sorted((existing.id, new.id))
        rng = random.Random(f"{self.seed}|{first}|{second}")
        flipped = rng.random() < self.flip.get(abs(level_existing - level_new), 0.0)
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
            assert oracle.score_directed(existing, new) == reference.score_directed(
                existing, new
            )
        # both directions of one pair, then of another, then back: the memo
        # of the last draw must never answer for a different pair
        pairs = [rng.sample(messages, 2) for _ in range(200)]
        for (a, b), (c, d) in zip(pairs, pairs[1:]):
            for existing, new in ((a, b), (c, d), (b, a), (d, c), (b, a)):
                assert oracle.score_directed(existing, new) == reference.score_directed(
                    existing, new
                )
            assert compare(oracle, a, b) == compare(reference, a, b)


def test_oracle_equals_always_draw_reference_in_parallel_tournament():
    labeled = _noisy_inbox(count=40, seed=3)
    messages = [item.message for item in labeled]
    reference = run_tournament(messages, AlwaysDrawOracle(labeled, NOISY_FLIP, seed=11))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a shared memo would show
    try:
        for _ in range(3):
            oracle = NoisyOracleComparator(labeled, NOISY_FLIP, seed=11)
            result = run_tournament(messages, oracle, max_workers=4)
            assert result.outcomes == reference.outcomes
            assert result.scores == reference.scores
            assert result.ranking == reference.ranking
    finally:
        sys.setswitchinterval(interval)


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
    mock_endpoint.enqueue_fixture("completion_reason_yes")
    assert comparator.score_directed(make_message("a"), make_message("b")).value == 1.0
    mock_endpoint.enqueue_fixture("completion_reason_no")
    assert comparator.score_directed(make_message("a"), make_message("b")).value == 0.0


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
    mock_endpoint.enqueue_fixture("reward_strict_a")
    mock_endpoint.enqueue_fixture("reward_strict_b")
    outcome = compare(comparator, make_message("a"), make_message("b"))
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

    def score_directed(self, existing, new):
        self.backend_calls += 1
        return self.inner.score_directed(existing, new)


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


def test_cache_key_is_direction_sensitive(tmp_path, fixture_corpus):
    counting = CountingComparator(perfect_oracle(fixture_corpus))
    comparator = CachedComparator(counting, ComparisonCache(tmp_path / "cache.jsonl"))
    a, b = fixture_corpus[0].message, fixture_corpus[7].message
    comparator.score_directed(a, b)
    assert counting.backend_calls == 1
    comparator.score_directed(b, a)
    assert counting.backend_calls == 2


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
    compare(CachedComparator(perfect_oracle(fixture_corpus), store), a, b)
    store.close()
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert all(list(json.loads(line)) == ["key", "kind", "value"] for line in lines)


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
    assert len(store) == 2
    # compaction rewrote the file without the corrupt line
    reloaded = ComparisonCache(path)
    assert len(reloaded) == 2
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
    fresh = comparator.score_directed(a, b)
    again = comparator.score_directed(a, b)
    assert again.value == fresh.value
    assert again.kind is fresh.kind


def test_cache_serves_hand_written_old_style_keys(tmp_path):
    # ids that JSON escapes: the keys must match json.dumps byte for byte
    a, b = make_message('m"1'), make_message("m\u00e92")
    path = tmp_path / "cache.jsonl"
    with path.open("w", encoding="utf-8") as handle:
        for (first, second), value in (((a, b), 0.75), ((b, a), 0.25)):
            key = json.dumps(["CountingComparator", "default", first.id, second.id])
            line = {"key": key, "value": value, "kind": "probability", "timestamp": 0.0}
            handle.write(json.dumps(line, sort_keys=True) + "\n")
    counting = CountingComparator(ScriptedComparator({}))
    comparator = CachedComparator(counting, ComparisonCache(path))
    assert comparator.has_cached_pair(a, b)
    outcome = compare(comparator, a, b)
    assert counting.backend_calls == 0
    assert comparator.hits == 2 and comparator.misses == 0
    assert (outcome.s_ab.value, outcome.s_ba.value) == (0.75, 0.25)


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


def test_second_store_sees_entries_while_first_holds_handle(tmp_path, fixture_corpus):
    path = tmp_path / "cache.jsonl"
    first = ComparisonCache(path)
    comparator = CachedComparator(perfect_oracle(fixture_corpus), first)
    messages = [labeled.message for labeled in fixture_corpus[:6]]
    for a, b in zip(messages, messages[1:]):
        compare(comparator, a, b)
    second = ComparisonCache(path)
    assert len(second) == len(first) == 10
    for key in ("x", "y"):
        first.put(key, DirectionScore(0.5, ScoreKind.PROBABILITY))
    assert len(ComparisonCache(path)) == 12
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
    compare(CachedComparator(counting, store), a, c)
    store.close()
    assert len(ComparisonCache(path)) == 4
    assert counting.backend_calls == 4


def test_compaction_failure_leaves_cache_file_intact(tmp_path, fixture_corpus, monkeypatch):
    path = tmp_path / "cache.jsonl"
    store = ComparisonCache(path)
    comparator = CachedComparator(perfect_oracle(fixture_corpus), store)
    messages = [labeled.message for labeled in fixture_corpus[:6]]
    for a, b in zip(messages, messages[1:]):
        compare(comparator, a, b)
    store.close()
    with path.open("a", encoding="utf-8") as handle:
        handle.write("{corrupt line\n")
    before = path.read_bytes()

    format_line = ComparisonCache._format_line
    written = []

    def fail_halfway(key, value, kind):
        if len(written) == 5:
            raise OSError("disk full")
        written.append(key)
        return format_line(key, value, kind)

    monkeypatch.setattr(ComparisonCache, "_format_line", staticmethod(fail_halfway))
    with pytest.raises(OSError, match="disk full"):
        ComparisonCache(path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.jsonl"]


def test_direction_scores_carry_no_backend_payload(mock_endpoint):
    comparator = LogprobComparator(config_for(mock_endpoint))
    mock_endpoint.enqueue_fixture("logprob_top2")
    score = comparator.score_directed(make_message("a"), make_message("b"))
    assert not hasattr(score, "raw")
