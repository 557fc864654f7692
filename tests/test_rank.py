from __future__ import annotations

import itertools
import json
import random
import threading
import time

import pytest

from triagerank.compare import (
    CachedComparator,
    ComparisonCache,
    ComparisonOutcome,
    DirectionScore,
    NoisyOracleComparator,
    ScoreKind,
    Winner,
    compare,
    perfect_oracle,
)
from triagerank.errors import ComparisonFailed, DataError, DuplicateId, ExportFailed
from triagerank.rank import insert_incremental, run_tournament

from .conftest import make_labeled, make_message
from .test_compare import CountingComparator, ScriptedComparator


def test_three_messages_perfect_oracle_gold_order():
    corpus = [make_labeled("m1", 1), make_labeled("m2", 3), make_labeled("m3", 6)]
    result = run_tournament([c.message for c in corpus], perfect_oracle(corpus))
    assert result.ranking == ("m1", "m2", "m3")
    # two wins, one win, zero wins
    assert result.scores["m1"] > result.scores["m2"] > result.scores["m3"] == 0.0
    assert result.comparisons_made == 3
    assert result.ties_encountered == 0


def test_eta_weighted_increment():
    comparator = ScriptedComparator({("a", "b"): 0.85, ("b", "a"): 0.15})
    result = run_tournament([make_message("a"), make_message("b")], comparator)
    assert result.scores["b"] == pytest.approx(1.7)
    assert result.scores["a"] == 0.0
    assert result.ranking == ("b", "a")


def test_tie_credits_half_each_and_ranks_by_id():
    comparator = ScriptedComparator({("a", "b"): 0.5, ("b", "a"): 0.5})
    result = run_tournament([make_message("b"), make_message("a")], comparator)
    assert result.scores == {"a": 0.5, "b": 0.5}
    assert result.ranking == ("a", "b")
    assert result.ties_encountered == 1


def test_score_mass_conservation(tmp_path):
    corpus = [make_labeled(f"x{i}", (i % 6) + 1) for i in range(12)]
    oracle = NoisyOracleComparator(corpus, {1: 0.4, 2: 0.2}, seed=3)
    log = tmp_path / "outcomes.jsonl"
    result = run_tournament([c.message for c in corpus], oracle, log=log)
    outcomes = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(outcomes) == 12 * 11 // 2
    pair_masses = [
        1.0 if outcome["winner"] == Winner.TIE.value else 1.0 + abs(outcome["eta"])
        for outcome in outcomes
    ]
    assert sum(result.scores.values()) == pytest.approx(sum(pair_masses))
    for pair_mass in pair_masses:
        assert pair_mass == pytest.approx(1.0) or 1.0 < pair_mass <= 2.0


def test_order_invariance():
    corpus = [make_labeled(f"x{i}", (i % 6) + 1) for i in range(10)]
    oracle = NoisyOracleComparator(corpus, {1: 0.3, 2: 0.1}, seed=8)
    messages = [c.message for c in corpus]
    baseline = run_tournament(messages, oracle)
    rng = random.Random(0)
    for _ in range(5):
        shuffled = messages[:]
        rng.shuffle(shuffled)
        result = run_tournament(shuffled, oracle)
        assert result.scores == baseline.scores
        assert result.ranking == baseline.ranking


def test_perfect_oracle_recovers_gold_cross_level(fixture_corpus):
    result = run_tournament(
        [labeled.message for labeled in fixture_corpus], perfect_oracle(fixture_corpus)
    )
    levels = {labeled.id: labeled.level for labeled in fixture_corpus}
    ranked_levels = [levels[message_id] for message_id in result.ranking]
    assert ranked_levels == sorted(ranked_levels)
    assert result.comparisons_made + result.cache_hits == 30 * 29 // 2


def test_small_inbox_and_duplicates_rejected():
    with pytest.raises(DataError):
        run_tournament([make_message("a")], ScriptedComparator({}))
    with pytest.raises(DuplicateId):
        run_tournament([make_message("a"), make_message("a")], ScriptedComparator({}))


def test_failure_aborts_with_partial_outcomes():
    class FailsAfter:
        def __init__(self, limit):
            self.limit = limit
            self.calls = 0

        def score_directed(self, existing, new):
            self.calls += 1
            if self.calls > self.limit:
                raise RuntimeError("backend fell over")
            value = 0.6 if new.id > existing.id else 0.4
            return DirectionScore(value, ScoreKind.PROBABILITY)

    messages = [make_message(f"m{i}") for i in range(5)]
    backend = FailsAfter(limit=6)
    with pytest.raises(ComparisonFailed):
        run_tournament(messages, backend)  # fails during the 4th pair
    # the 7th call failed, and no pair after the failure was tried
    assert backend.calls == 7


class FailsOnPair:
    """Prefers the larger id, and fails on the first direction of the k-th pair (1-based)."""

    def __init__(self, k):
        self.failing_call = 2 * k - 1
        self.calls = 0

    def score_directed(self, existing, new):
        self.calls += 1
        if self.calls == self.failing_call:
            raise RuntimeError("backend fell over")
        return DirectionScore(0.6 if new.id > existing.id else 0.4, ScoreKind.PROBABILITY)


def test_failed_comparison_leaves_the_previous_log_whole(tmp_path):
    messages = [make_message(f"m{i}") for i in range(6)]
    log = tmp_path / "outcomes.jsonl"
    log.write_bytes(b"previous run\n")
    with pytest.raises(ComparisonFailed):
        run_tournament(messages, FailsOnPair(k=5), log=log)
    assert log.read_bytes() == b"previous run\n"
    assert list(tmp_path.glob("*.tmp")) == []
    # a log changes nothing in the result; there is no pair 0, so nothing fails
    unlogged = run_tournament(messages, FailsOnPair(k=0))
    logged = run_tournament(messages, FailsOnPair(k=0), log=log)
    assert logged == unlogged and logged.score_units == unlogged.score_units
    assert len(log.read_text().splitlines()) == 6 * 5 // 2
    assert list(tmp_path.glob("*.tmp")) == []


def test_failed_log_write_stops_the_worker_pool(tmp_path, monkeypatch, fixture_corpus):
    to_line = ComparisonOutcome.to_line
    written = itertools.count(1)

    def to_line_until_disk_full(outcome):
        if next(written) == 3:
            raise OSError(28, "No space left on device")
        return to_line(outcome)

    monkeypatch.setattr(ComparisonOutcome, "to_line", to_line_until_disk_full)
    messages = [labeled.message for labeled in fixture_corpus[:12]]
    oracle = NoisyOracleComparator(fixture_corpus, {1: 0.3}, seed=3)
    threads = threading.active_count()
    with pytest.raises(ExportFailed, match="No space left") as raised:
        run_tournament(messages, oracle, max_workers=4, log=tmp_path / "outcomes.jsonl")
    # the error's traceback still holds the call's frames, yet no worker outlived the call
    assert raised.value.__traceback__ is not None
    assert threading.active_count() == threads
    assert list(tmp_path.iterdir()) == []


def test_insert_makes_exactly_n_new_comparisons(fixture_corpus):
    five = fixture_corpus[:5]
    extra = fixture_corpus[10]
    counting = CountingComparator(perfect_oracle(fixture_corpus))
    result = run_tournament([labeled.message for labeled in five], counting)
    assert counting.backend_calls == 10 * 2  # C(5,2) pairs, two directions each
    updated = insert_incremental(result, extra.message, counting)
    assert counting.backend_calls == (10 + 5) * 2
    assert updated.comparisons_made == 15
    assert extra.id in updated.ranking


def test_insert_preserves_existing_scores(fixture_corpus):
    five = fixture_corpus[5:10]
    extra = fixture_corpus[0]  # most urgent level
    oracle = perfect_oracle(fixture_corpus)
    before = run_tournament([labeled.message for labeled in five], oracle)
    after = insert_incremental(before, extra.message, oracle)
    # the new pairs, each in the tournament's id-sorted direction
    new_outcomes = [
        compare(oracle, *sorted((existing, extra.message), key=lambda message: message.id))
        for existing in before.messages
    ]
    for message_id, score in before.scores.items():
        contribution = sum(
            1.0 + abs(outcome.eta)
            if outcome.winner.value == ("A" if outcome.a_id == message_id else "B")
            else (0.5 if outcome.winner is Winner.TIE else 0.0)
            for outcome in new_outcomes
            if message_id in (outcome.a_id, outcome.b_id)
        )
        assert after.scores[message_id] == pytest.approx(score + contribution)


def test_insert_most_urgent_ranks_first(fixture_corpus):
    rest = fixture_corpus[5:]
    most_urgent = fixture_corpus[0]
    oracle = perfect_oracle(fixture_corpus)
    base = run_tournament([labeled.message for labeled in rest], oracle)
    updated = insert_incremental(base, most_urgent.message, oracle)
    assert updated.ranking[0] == most_urgent.id


def test_insert_duplicate_rejected(fixture_corpus):
    oracle = perfect_oracle(fixture_corpus)
    result = run_tournament([l.message for l in fixture_corpus[:4]], oracle)
    with pytest.raises(DuplicateId):
        insert_incremental(result, fixture_corpus[0].message, oracle)


def test_parallel_equals_sequential(tmp_path, fixture_corpus):
    corpus = fixture_corpus[:12]
    messages = [labeled.message for labeled in corpus]
    oracle = NoisyOracleComparator(fixture_corpus, {1: 0.3, 2: 0.1}, seed=17)
    sequential = run_tournament(messages, oracle, log=tmp_path / "sequential.jsonl")
    parallel = run_tournament(messages, oracle, max_workers=4, log=tmp_path / "parallel.jsonl")
    assert parallel.scores == sequential.scores
    assert parallel.ranking == sequential.ranking
    log = (tmp_path / "parallel.jsonl").read_bytes()
    assert log == (tmp_path / "sequential.jsonl").read_bytes()
    assert len(log.splitlines()) == 12 * 11 // 2

    cache_comparator = CachedComparator(oracle, ComparisonCache(tmp_path / "cache.jsonl"))
    warm = run_tournament(messages, cache_comparator, max_workers=4)
    rerun = run_tournament(messages, cache_comparator, max_workers=4)
    assert warm.cache_hits == 0
    assert rerun.cache_hits == 12 * 11 // 2
    assert rerun.ranking == sequential.ranking


def test_parallel_failure_still_aborts(fixture_corpus):
    class Flaky:
        def score_directed(self, existing, new):
            if new.id == "m09" or existing.id == "m09":
                raise RuntimeError("backend fell over")
            return DirectionScore(0.6 if new.id > existing.id else 0.4, ScoreKind.PROBABILITY)

    messages = [labeled.message for labeled in fixture_corpus[:10]]
    with pytest.raises(ComparisonFailed):
        run_tournament(messages, Flaky(), max_workers=4)


def test_incremental_then_cached_rerun_identical(tmp_path, fixture_corpus):
    corpus = fixture_corpus[:20]
    first_19 = [labeled.message for labeled in corpus[:19]]
    twentieth = corpus[19].message
    counting = CountingComparator(perfect_oracle(fixture_corpus))
    comparator = CachedComparator(counting, ComparisonCache(tmp_path / "cache.jsonl"))

    partial = run_tournament(first_19, comparator)
    extended = insert_incremental(partial, twentieth, comparator)
    assert extended.comparisons_made == 20 * 19 // 2  # 190 total pair comparisons
    backend_calls_before = counting.backend_calls

    rerun = run_tournament([labeled.message for labeled in corpus], comparator)
    assert counting.backend_calls == backend_calls_before  # zero new backend calls
    assert rerun.cache_hits == 20 * 19 // 2
    assert rerun.comparisons_made == 0
    assert rerun.ranking == extended.ranking
    assert rerun.scores == pytest.approx(extended.scores)


def test_insert_built_scores_equal_full_tournament_exactly():
    class RandomProbabilities:
        """A fixed pseudo-random probability per directed pair."""

        def score_directed(self, existing, new):
            rng = random.Random(f"{existing.id}|{new.id}")
            return DirectionScore(rng.random(), ScoreKind.PROBABILITY)

    comparator = RandomProbabilities()
    messages = [make_message(f"m{index:02d}") for index in range(40)]
    random.Random(5).shuffle(messages)
    built = run_tournament(messages[:10], comparator)
    for message in messages[10:]:
        built = insert_incremental(built, message, comparator)
    full = run_tournament(messages, comparator)
    assert built.scores == full.scores
    assert built.ranking == full.ranking
    assert built.score_units == full.score_units


class _ThreadRecordingStore(ComparisonCache):
    """A cache that records the thread of every lookup."""

    def __init__(self, path):
        super().__init__(path)
        self.threads = set()

    def get(self, key):
        self.threads.add(threading.get_ident())
        return super().get(key)


def test_warm_parallel_rerank_is_served_on_the_calling_thread(tmp_path, fixture_corpus):
    messages = [labeled.message for labeled in fixture_corpus[:15]]
    counting = CountingComparator(NoisyOracleComparator(fixture_corpus, {1: 0.3}, seed=2))
    cold_store = ComparisonCache(tmp_path / "cache")
    cold = run_tournament(messages, CachedComparator(counting, cold_store), max_workers=4)
    cold_store.close()
    calls = counting.backend_calls
    store = _ThreadRecordingStore(tmp_path / "cache")
    threads = threading.active_count()
    warm = run_tournament(messages, CachedComparator(counting, store), max_workers=4)
    assert store.threads == {threading.get_ident()}
    assert counting.backend_calls == calls
    assert threading.active_count() == threads  # no worker was started
    assert (warm.cache_hits, warm.comparisons_made) == (15 * 14 // 2, 0)
    assert warm.score_units == cold.score_units and warm.ranking == cold.ranking


class _FirstPairBlocks:
    """Serves every pair but the first from a probe; the first is scored on a worker.

    The first pair's score waits until the probes stop coming, then records
    how many pairs had been probed by then.
    """

    def __init__(self):
        self.probes = 0
        self.probed_while_blocked = None

    def has_cached_pair(self, a, b):
        self.probes += 1
        if self.probes == 1:
            return None
        return ComparisonOutcome(
            a.id, b.id, DirectionScore(0.4, ScoreKind.PROBABILITY),
            DirectionScore(0.6, ScoreKind.PROBABILITY),
        )

    def score_directed(self, existing, new):
        if self.probed_while_blocked is None:
            seen, steady, deadline = -1, 0, time.monotonic() + 10
            while steady < 5 and time.monotonic() < deadline:
                steady = steady + 1 if self.probes == seen else 0
                seen = self.probes
                time.sleep(0.01)
            self.probed_while_blocked = seen
        return DirectionScore(0.5, ScoreKind.PROBABILITY)


def test_parallel_lookahead_past_an_unfinished_miss_does_not_grow_with_the_inbox():
    pulled = []
    for n in (60, 120):
        comparator = _FirstPairBlocks()
        result = run_tournament([make_message(f"m{i:03d}") for i in range(n)], comparator, max_workers=4)
        assert (result.comparisons_made, result.cache_hits) == (1, n * (n - 1) // 2 - 1)
        pulled.append(comparator.probed_while_blocked - 1)
    assert pulled[0] == pulled[1] < 60 * 59 // 2 - 1


def test_mixed_hits_and_misses_log_the_same_for_any_worker_count(tmp_path, fixture_corpus):
    messages = [labeled.message for labeled in fixture_corpus[:24]]
    oracle = NoisyOracleComparator(fixture_corpus, {1: 0.3, 2: 0.15}, seed=4)
    warm = tmp_path / "warm"
    # every third message was ranked before, so hits and misses interleave
    run_tournament(messages[::3], CachedComparator(oracle, ComparisonCache(warm)))
    runs = []
    for workers in (1, 2, 4):
        cache = tmp_path / f"cache-{workers}"
        cache.write_bytes(warm.read_bytes())
        log = tmp_path / f"outcomes-{workers}.jsonl"
        result = run_tournament(
            messages, CachedComparator(oracle, ComparisonCache(cache)), max_workers=workers, log=log
        )
        runs.append((log.read_bytes(), result.comparisons_made, result.cache_hits, cache.read_bytes()))
    assert runs[0][1:3] == (24 * 23 // 2 - 8 * 7 // 2, 8 * 7 // 2)
    assert runs[1][:3] == runs[0][:3] and runs[2][:3] == runs[0][:3]
    # the misses append in completion order, so the cache holds the same lines
    assert [sorted(run[3].splitlines()) for run in runs[1:]] == [sorted(runs[0][3].splitlines())] * 2


def _workers_alive():
    return [thread for thread in threading.enumerate() if thread.name.startswith("ThreadPoolExecutor")]


def test_parallel_failure_among_hits_leaves_the_previous_log_whole(tmp_path, fixture_corpus):
    messages = [labeled.message for labeled in fixture_corpus[:12]]
    oracle = perfect_oracle(fixture_corpus)
    cache = tmp_path / "cache"
    run_tournament(messages[::2], CachedComparator(oracle, ComparisonCache(cache)))
    failing = {messages[2].id, messages[5].id}
    # in the tournament's pair order, stored pairs come both before and after the failing one
    order = [{a.id, b.id} for a, b in itertools.combinations(sorted(messages, key=lambda m: m.id), 2)]
    stored = [i for i, pair in enumerate(order) if pair <= {m.id for m in messages[::2]}]
    assert stored[0] < order.index(failing) < stored[-1]

    class FailsOnOnePair:
        cache_identity = oracle.cache_identity

        def backend_view(self, message):
            return oracle.backend_view(message)

        def score_directed(self, existing, new):
            if {existing.id, new.id} == failing:
                raise RuntimeError("backend fell over")
            return oracle.score_directed(existing, new)

    log = tmp_path / "outcomes.jsonl"
    log.write_bytes(b"previous run\n")
    comparator = CachedComparator(FailsOnOnePair(), ComparisonCache(cache))
    with pytest.raises(ComparisonFailed, match="backend fell over"):
        run_tournament(messages, comparator, max_workers=4, log=log)
    assert log.read_bytes() == b"previous run\n"
    assert list(tmp_path.glob("*.tmp")) == []
    assert _workers_alive() == []
    assert comparator.hits > 0


def test_parallel_errors_surface_in_pair_order():
    class SlowFirstFailureThenBrokenProbe:
        """The first pair fails slowly on a worker; the fourth pair's probe fails at once."""

        def __init__(self):
            self.probes = 0

        def has_cached_pair(self, a, b):
            self.probes += 1
            if self.probes == 4:
                raise LookupError("probe fell over")
            if self.probes == 1:
                return None
            return ComparisonOutcome(
                a.id, b.id, DirectionScore(0.4, ScoreKind.PROBABILITY),
                DirectionScore(0.6, ScoreKind.PROBABILITY),
            )

        def score_directed(self, existing, new):
            time.sleep(0.05)
            raise RuntimeError("first pair fell over")

    messages = [make_message(f"m{i}") for i in range(6)]
    for workers in (1, 4):
        with pytest.raises(ComparisonFailed, match="first pair fell over"):
            run_tournament(messages, SlowFirstFailureThenBrokenProbe(), max_workers=workers)
    assert _workers_alive() == []
