"""Acceptance suite: one test per criterion, printed pass lines included.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Pinned expected values come from independent brute-force
oracles (see comments at each site); tolerances are fixed here, not
calibrated after the fact.
"""

from __future__ import annotations

import json
import math
import random
import time
from collections import Counter

import pytest

from triagerank import cli
from triagerank.compare import (
    CachedComparator,
    ComparisonCache,
    LogprobComparator,
    NoisyOracleComparator,
    RewardComparator,
    Winner,
    compare,
    perfect_oracle,
)
from triagerank.corpus import (
    UrgencyLabel,
    fixture_corpus_path,
    labels_by_id,
    load_corpus,
)
from triagerank.errors import (
    BadScore,
    EndpointUnavailable,
    ProtocolError,
    RequestRejected,
)
from triagerank.gateway import complete, score
from triagerank.metrics import (
    agreement,
    chi_square_independence,
    expected_t_ndcg,
    intrinsic_accuracy,
    ndcg_at_k,
    t_ndcg_at_k,
)
from triagerank.pairs import (
    Difficulty,
    EvalPair,
    build_triplets,
    export_reward,
    export_sft,
)
from triagerank.rank import insert_incremental, run_tournament

from .conftest import level_corpus, make_labeled, make_message
from .mock_gateway import answer_by_new_message
from .test_compare import CountingComparator, ScriptedComparator
from .test_gateway import config_for

# Frozen from the brute-force DCG oracle (sum (2^rel - 1) / log2(i + 1)
# over the reversed ideal 5-per-level inbox): 1 - NDCG@30(reversed ideal).
PINNED_T_NDCG_30 = 0.5192992857463741


def _passed(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


def test_criterion_01_perfect_oracle_recovery():
    started = time.monotonic()
    corpus = load_corpus(fixture_corpus_path())
    assert len(corpus) == 30
    assert Counter(labeled.level for labeled in corpus) == {
        level: 5 for level in range(1, 7)
    }
    oracle = perfect_oracle(corpus)

    pairs = [
        EvalPair(a, b)
        for i, a in enumerate(corpus)
        for b in corpus[i + 1 :]
        if a.level != b.level
    ]
    report = intrinsic_accuracy(pairs, oracle)
    assert report.overall_accuracy == 1.0

    result = run_tournament([labeled.message for labeled in corpus], oracle)
    levels = {labeled.id: labeled.level for labeled in corpus}
    ranked_levels = [levels[message_id] for message_id in result.ranking]
    assert ranked_levels == sorted(ranked_levels), "cross-level order must match gold"

    observed = t_ndcg_at_k(result.ranking, labels_by_id(corpus), k=30)
    assert observed == pytest.approx(PINNED_T_NDCG_30, abs=1e-9)

    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _passed(1, f"accuracy 1.0, gold ordering, T-NDCG@30={observed:.6f}, {elapsed:.2f}s")


def test_criterion_02_eta_mechanics():
    rng = random.Random(202)
    for _ in range(1000):
        s_ab = rng.random()
        s_ba = rng.random()
        comparator = ScriptedComparator({("a", "b"): s_ab, ("b", "a"): s_ba})
        a, b = make_message("a"), make_message("b")
        outcome = compare(comparator, a, b)
        assert outcome.eta == s_ab - s_ba
        assert abs(outcome.eta) <= 1.0
        if outcome.eta > 0:
            assert outcome.winner is Winner.B
        elif outcome.eta < 0:
            assert outcome.winner is Winner.A
        else:
            assert outcome.winner is Winner.TIE
        swapped = compare(comparator, b, a)
        assert swapped.eta == -outcome.eta
    _passed(2, "sign rule, |eta| <= 1, exact swap negation over 1000 pairs")


def test_criterion_03_t_ndcg_antisymmetry():
    rng = random.Random(303)
    trials = 10_000
    for _ in range(trials):
        n = rng.randint(2, 40)
        ranking = [f"id{i:03d}" for i in range(n)]
        labels = {
            message_id: UrgencyLabel(f"L{rng.randint(1, 6)}") for message_id in ranking
        }
        k = rng.randint(1, n)
        total = t_ndcg_at_k(ranking, labels, k=k) + t_ndcg_at_k(
            list(reversed(ranking)), labels, k=k
        )
        assert abs(total) <= 1e-12
    _passed(3, f"t_ndcg(L) + t_ndcg(reverse(L)) = 0 within 1e-12 over {trials} lists")


def test_criterion_04_expected_t_ndcg_degenerate():
    corpus = load_corpus(fixture_corpus_path())
    ranking = sorted(labeled.id for labeled in corpus)
    labels = labels_by_id(corpus)

    mean, _ = expected_t_ndcg([ranking], labels, k=30)
    assert abs(mean) < 0.05

    singleton_groups = [[message_id] for message_id in ranking]
    exact_mean, stddev = expected_t_ndcg(singleton_groups, labels, k=30)
    assert stddev == 0.0
    assert exact_mean == pytest.approx(t_ndcg_at_k(ranking, labels, k=30), abs=1e-12)
    _passed(4, f"single class |mean|={abs(mean):.4f} < 0.05, singleton stddev = 0")


def test_criterion_05_export_cardinality_and_balance(tmp_path):
    corpus = level_corpus({level: 20 for level in range(1, 7)})
    triplets = build_triplets(corpus, max_uses_per_message=4, seed=5, count=100)
    assert len(triplets) == 100

    sft = export_sft(triplets, tmp_path / "sft.jsonl")
    assert sft.records == 4 * len(triplets)
    sft_lines = [
        json.loads(line) for line in (tmp_path / "sft.jsonl").read_text().splitlines()
    ]
    targets = Counter(line["completion"] for line in sft_lines)
    assert targets["YES"] == targets["NO"] == 2 * len(triplets)

    reward = export_reward(triplets, tmp_path / "reward.jsonl")
    assert reward.records == 2 * len(triplets)
    reward_lines = [
        json.loads(line)
        for line in (tmp_path / "reward.jsonl").read_text().splitlines()
    ]
    for forward, inverse, triplet in zip(
        reward_lines[0::2], reward_lines[1::2], triplets
    ):
        assert "more medically urgent" in forward["prompt"]
        assert "less medically urgent" in inverse["prompt"]
        assert forward["chosen"] == inverse["rejected"]
        assert forward["rejected"] == inverse["chosen"]
        assert triplet.more_urgent.message.text in forward["chosen"]
    _passed(5, "SFT = 4x triplets at 50% YES; reward = 2x with paired inverse prompts")


def test_criterion_06_difficulty_monotonicity():
    flip = {1: 0.3, 2: 0.15, 3: 0.15, 4: 0.05, 5: 0.05}
    rng = random.Random(1000)
    pairs = []
    for gap in range(1, 6):
        for index in range(1000):
            high_level = rng.randint(1, 6 - gap)
            a = make_labeled(f"g{gap}a{index}", high_level)
            b = make_labeled(f"g{gap}b{index}", high_level + gap)
            if rng.random() < 0.5:
                a, b = b, a
            pairs.append(EvalPair(a, b))
    labels = {}
    for pair in pairs:
        labels[pair.a.id] = pair.a.label
        labels[pair.b.id] = pair.b.label
    oracle = NoisyOracleComparator(labels, flip, seed=0)

    by_gap: dict[int, list[bool]] = {gap: [] for gap in range(1, 6)}
    for pair in pairs:
        outcome = compare(oracle, pair.a.message, pair.b.message)
        by_gap[pair.gap].append(outcome.winner is pair.gold_more_urgent)
    for gap in range(1, 6):
        accuracy = sum(by_gap[gap]) / len(by_gap[gap])
        assert accuracy == pytest.approx(1.0 - flip[gap], abs=0.03), f"gap {gap}"

    report = intrinsic_accuracy(pairs, oracle)
    easy, _ = report.per_difficulty[Difficulty.EASY]
    medium, _ = report.per_difficulty[Difficulty.MEDIUM]
    hard, _ = report.per_difficulty[Difficulty.HARD]
    assert easy > medium > hard
    assert report.total == 5000
    _passed(
        6,
        f"easy {easy:.3f} > medium {medium:.3f} > hard {hard:.3f}; "
        "per-gap accuracy within 0.03 of 1 - flip(gap)",
    )


def test_criterion_07_cache_incremental_equivalence(tmp_path):
    corpus = load_corpus(fixture_corpus_path())[:20]
    counting = CountingComparator(perfect_oracle(corpus))
    comparator = CachedComparator(counting, ComparisonCache(tmp_path / "cache.jsonl"))

    partial = run_tournament([labeled.message for labeled in corpus[:19]], comparator)
    extended = insert_incremental(partial, corpus[19].message, comparator)
    assert extended.comparisons_made + extended.cache_hits == 190
    assert extended.comparisons_made == 190

    backend_calls = counting.backend_calls
    rerun = run_tournament([labeled.message for labeled in corpus], comparator)
    assert counting.backend_calls == backend_calls, "re-run must not hit the backend"
    assert rerun.cache_hits == 190
    assert rerun.comparisons_made == 0
    assert rerun.ranking == extended.ranking
    _passed(7, "C(20,2)=190 comparisons total; cached re-run identical, 0 backend calls")


def test_criterion_08_statistics_oracles():
    # hand computation: E = 20 in every cell, chi2 = 4 * (10^2 / 20) = 20,
    # V = sqrt(20 / (80 * 1)) = 0.5
    result = chi_square_independence([[30, 10], [10, 30]])
    assert result.chi_square == pytest.approx(20.0, abs=1e-9)
    assert result.cramers_v == pytest.approx(0.5, abs=1e-9)

    identical = [(f"p{i}", "a", "A") for i in range(30)] + [
        (f"p{i}", "b", "A") for i in range(30)
    ]
    report = agreement(identical)
    assert (report.percent_agreement, report.cohens_kappa) == (1.0, 1.0)

    # one annotator constant, the other an exact 50/50 split: po = pe = 0.5
    rows = []
    for index in range(100):
        rows.append((f"q{index}", "a", "A"))
        rows.append((f"q{index}", "b", "A" if index < 50 else "B"))
    degenerate = agreement(rows)
    assert degenerate.cohens_kappa == 0.0
    _passed(8, "chi2=20, V=0.5 exact to 1e-9; kappa degenerate fixtures exact")


def test_criterion_09_gateway_protocol(mock_endpoint):
    config = config_for(mock_endpoint)

    # logprob extraction: three fixtures
    mock_endpoint.enqueue_fixture("logprob_top2")
    top2 = complete(config, "s", "u", want_logprobs=True).token_probabilities
    assert top2["YES"] == pytest.approx(0.8, abs=1e-9)
    mock_endpoint.enqueue_fixture("logprob_complement")
    complement = complete(config, "s", "u", want_logprobs=True).token_probabilities
    assert complement["YES"] == pytest.approx(0.1, abs=1e-9)
    mock_endpoint.enqueue_fixture("logprob_aggregate")
    aggregate = complete(config, "s", "u", want_logprobs=True).token_probabilities
    assert aggregate["YES"] == pytest.approx(0.73, abs=1e-9)

    # retry behavior: three scenarios
    mock_endpoint.enqueue(500, {"error": "x"})
    mock_endpoint.enqueue(500, {"error": "x"})
    mock_endpoint.enqueue_fixture("retry_success")
    assert (
        complete(config_for(mock_endpoint, max_retries=3), "s", "u").text == "YES"
    )
    mock_endpoint.enqueue(401, {"error": "denied"})
    with pytest.raises(RequestRejected):
        complete(config, "s", "u")
    mock_endpoint.enqueue(500, {"error": "x"})
    with pytest.raises(EndpointUnavailable):
        complete(config_for(mock_endpoint, max_retries=0), "s", "u")

    # reward-score parsing: three fixtures
    mock_endpoint.enqueue_fixture("reward_ok")
    assert score(config, "p", "c") == 1.25
    mock_endpoint.enqueue_fixture("reward_nan")
    with pytest.raises(BadScore):
        score(config, "p", "c")
    mock_endpoint.enqueue_fixture("reward_missing")
    with pytest.raises(ProtocolError):
        score(config, "p", "c")
    _passed(9, "logprob extraction, retries, and reward parsing match contracts offline")


def test_criterion_10_pipeline_determinism(tmp_path):
    fixture = str(fixture_corpus_path())
    for name in ("run1", "run2"):
        code = cli.main(
            ["pipeline", "--corpus", fixture, "--out-dir", str(tmp_path / name),
             "--seed", "11"]
        )
        assert code == 0
    files_1 = sorted((tmp_path / "run1").iterdir())
    assert files_1, "pipeline produced no artifacts"
    for artifact in files_1:
        twin = tmp_path / "run2" / artifact.name
        assert twin.read_bytes() == artifact.read_bytes(), artifact.name
    _passed(10, f"{len(files_1)} pipeline artifacts byte-identical across two runs")


def test_comparator_composition_sanity(mock_endpoint):
    """Cross-module spot check: gateway-backed comparators feed the eta rule."""
    config = config_for(mock_endpoint)
    a, b = make_message("a"), make_message("b")
    # s_ab asks with b in the new slot, s_ba with a
    mock_endpoint.answer = answer_by_new_message(
        {b.text: "logprob_top2", a.text: "logprob_complement"}  # P(YES) = 0.8, 0.1
    )
    outcome = compare(LogprobComparator(config), a, b)
    assert outcome.eta == pytest.approx(0.7, abs=1e-9)
    assert outcome.winner is Winner.B

    mock_endpoint.answer = answer_by_new_message(
        {b.text: "reward_high", a.text: "reward_low"}  # 2.0, -1.0
    )
    outcome = compare(RewardComparator(config), a, b)
    expected = 1.0 / (1.0 + math.exp(-3.0)) - 1.0 / (1.0 + math.exp(3.0))
    assert outcome.eta == pytest.approx(expected, abs=1e-12)
    assert outcome.winner is Winner.B
