from __future__ import annotations

import math
import random

import numpy as np
import pytest

from triagerank.compare import (
    DirectionScore,
    NoisyOracleComparator,
    ScoreKind,
    Winner,
    compare,
    perfect_oracle,
)
from triagerank.corpus import EhrRecord, Gender, UrgencyLabel
from triagerank.errors import ConfigError, DataError, MissingLabel, NoStrata, NoValidPairs
from triagerank.metrics import (
    BiasScheme,
    RelevanceMapping,
    agreement,
    bias_strata,
    chi_square_independence,
    expected_t_ndcg,
    intrinsic_accuracy,
    ndcg_at_k,
    t_ndcg_at_k,
)
from triagerank.pairs import Difficulty, make_eval_pair

from .conftest import make_labeled


# Brute-force oracle: the DCG formula written out directly, independent of
# the library implementation.
def brute_dcg(gains, k):
    return sum((2**gain - 1) / math.log2(i + 2) for i, gain in enumerate(gains[:k]))


def brute_ndcg(gains, k):
    ideal = brute_dcg(sorted(gains, reverse=True), k)
    return 1.0 if ideal == 0 else brute_dcg(gains, k) / ideal


def labels_for(levels, prefix="id"):
    ranking = [f"{prefix}{i:03d}" for i in range(len(levels))]
    labels = {
        message_id: UrgencyLabel(f"L{level}")
        for message_id, level in zip(ranking, levels)
    }
    return ranking, labels


IDEAL_30 = [level for level in range(1, 7) for _ in range(5)]

# Frozen from the brute-force oracle above (see also the acceptance suite).
PINNED_T_NDCG_30_IDEAL = 0.5192992857463741
PINNED_T_NDCG_10_IDEAL = 0.9861690999580806
PINNED_NDCG_4ITEM = 0.7514510796021533
PINNED_T_NDCG_4ITEM = 0.2081149691680262


# ----------------------------------------------------------------- relevance


def test_default_relevance_mapping():
    mapping = RelevanceMapping()
    assert mapping.relevance(UrgencyLabel.L1) == 5
    assert mapping.relevance(UrgencyLabel.L6) == 0
    with pytest.raises(MissingLabel):
        mapping.relevance(UrgencyLabel.UNCLEAR)


def test_relevance_mapping_validation():
    with pytest.raises(ConfigError):
        RelevanceMapping({UrgencyLabel(f"L{i}"): 1 for i in range(1, 7)})
    with pytest.raises(ConfigError):
        RelevanceMapping(
            {UrgencyLabel(f"L{i}"): gain for i, gain in zip(range(1, 7), (9, 7, 5, 3, 2, 1))}
        )


# ---------------------------------------------------------------------- ndcg


def test_ndcg_ideal_order_is_one():
    ranking, labels = labels_for(IDEAL_30)
    assert ndcg_at_k(ranking, labels, k=30) == pytest.approx(1.0)
    assert ndcg_at_k(ranking, labels, k=10) == pytest.approx(1.0)


def test_ndcg_constant_relevance_is_one():
    ranking, labels = labels_for([4] * 8)
    rng = random.Random(1)
    for _ in range(5):
        shuffled = ranking[:]
        rng.shuffle(shuffled)
        assert ndcg_at_k(shuffled, labels, k=8) == pytest.approx(1.0)


def test_ndcg_all_l6_ideal_dcg_zero():
    ranking, labels = labels_for([6] * 6)
    assert ndcg_at_k(ranking, labels, k=6) == 1.0


def test_ndcg_pinned_four_item_fixture():
    # levels [L1, L3, L5, L6], model order [L3, L1, L6, L5]
    ranking, labels = labels_for([3, 1, 6, 5])
    assert ndcg_at_k(ranking, labels, k=4) == pytest.approx(
        PINNED_NDCG_4ITEM, abs=1e-12
    )
    assert t_ndcg_at_k(ranking, labels, k=4) == pytest.approx(
        PINNED_T_NDCG_4ITEM, abs=1e-12
    )


def test_ndcg_matches_brute_force_on_random_lists():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(2, 25)
        levels = [rng.randint(1, 6) for _ in range(n)]
        k = rng.randint(1, n)
        ranking, labels = labels_for(levels)
        gains = [6 - level for level in levels]
        assert ndcg_at_k(ranking, labels, k=k) == pytest.approx(
            brute_ndcg(gains, k), abs=1e-12
        )


def test_ndcg_validation():
    ranking, labels = labels_for([1, 2, 3])
    with pytest.raises(ConfigError):
        ndcg_at_k(ranking, labels, k=0)
    with pytest.raises(ConfigError):
        ndcg_at_k(ranking, labels, k=4)
    with pytest.raises(MissingLabel):
        ndcg_at_k(["missing"] + ranking[1:], labels, k=3)


def test_ndcg_denominator_depends_only_on_label_multiset():
    levels = [1, 1, 3, 4, 6, 6, 2]
    ranking, labels = labels_for(levels)
    gains = [6 - level for level in levels]
    assert ndcg_at_k(ranking, labels, k=7) == pytest.approx(
        brute_ndcg(gains, 7), abs=1e-12
    )


# -------------------------------------------------------------------- t-ndcg


def test_t_ndcg_pinned_ideal_inbox():
    ranking, labels = labels_for(IDEAL_30)
    assert t_ndcg_at_k(ranking, labels, k=30) == pytest.approx(
        PINNED_T_NDCG_30_IDEAL, abs=1e-12
    )
    assert t_ndcg_at_k(ranking, labels, k=10) == pytest.approx(
        PINNED_T_NDCG_10_IDEAL, abs=1e-12
    )


def test_t_ndcg_antisymmetry_quick():
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(2, 40)
        levels = [rng.randint(1, 6) for _ in range(n)]
        ranking, labels = labels_for(levels)
        k = rng.randint(1, n)
        forward = t_ndcg_at_k(ranking, labels, k=k)
        backward = t_ndcg_at_k(list(reversed(ranking)), labels, k=k)
        assert forward + backward == pytest.approx(0.0, abs=1e-12)


def test_t_ndcg_constant_relevance_is_zero():
    ranking, labels = labels_for([2] * 9)
    assert t_ndcg_at_k(ranking, labels, k=9) == 0.0


# ----------------------------------------------------------- expected t-ndcg


def test_expected_singleton_classes_degenerate():
    ranking, labels = labels_for(IDEAL_30)
    groups = [[message_id] for message_id in ranking]
    mean, stddev = expected_t_ndcg(groups, labels, k=30, shuffles=50, seed=1)
    assert stddev == 0.0
    assert mean == pytest.approx(t_ndcg_at_k(ranking, labels, k=30), abs=1e-12)


def test_expected_single_class_mean_near_zero():
    ranking, labels = labels_for(IDEAL_30)
    mean, stddev = expected_t_ndcg([ranking], labels, k=30, shuffles=2000, seed=3)
    assert abs(mean) < 0.05
    assert stddev > 0.0


def test_expected_two_class_matches_high_shuffle_oracle():
    """Pinned from an independent 10^5-shuffle brute-force run."""
    ranking, labels = labels_for(IDEAL_30)
    groups = [ranking[:15], ranking[15:]]
    oracle = {10: (0.6434876427357737, 0.09567219908700915),
              30: (0.3238723196696982, 0.0630296537361598)}
    shuffles = 4000
    for k, (oracle_mean, oracle_std) in oracle.items():
        mean, stddev = expected_t_ndcg(groups, labels, k=k, shuffles=shuffles, seed=7)
        standard_error = oracle_std / math.sqrt(shuffles)
        assert mean == pytest.approx(oracle_mean, abs=3 * standard_error)
        assert stddev == pytest.approx(oracle_std, abs=0.01)


def test_expected_shuffles_one_equals_concrete_shuffle():
    ranking, labels = labels_for([1, 4, 2, 6, 3, 5, 2, 1])
    groups = [ranking[:4], ranking[4:]]
    mean, stddev = expected_t_ndcg(groups, labels, k=8, shuffles=1, seed=13)
    rng = random.Random("13:0")
    flat = []
    for group in groups:
        members = list(group)
        rng.shuffle(members)
        flat.extend(members)
    assert mean == t_ndcg_at_k(flat, labels, k=8)
    assert stddev == 0.0


def test_expected_requires_positive_shuffles():
    ranking, labels = labels_for([1, 6])
    with pytest.raises(ConfigError):
        expected_t_ndcg([ranking], labels, k=2, shuffles=0)


def per_trial_expected(groups, labels, k, shuffles, seed):
    """expected_t_ndcg as it was written: t_ndcg_at_k on every shuffled list."""
    values = np.empty(shuffles)
    for trial in range(shuffles):
        rng = random.Random(f"{seed}:{trial}")
        flat = []
        for group in groups:
            members = list(group)
            rng.shuffle(members)
            flat.extend(members)
        values[trial] = t_ndcg_at_k(flat, labels, k=k)
    if shuffles == 1 or np.all(values == values[0]):
        return float(np.mean(values)), 0.0
    return float(np.mean(values)), float(np.std(values, ddof=1))


def _random_groups(rng, ranking):
    groups, rest = [], list(ranking)
    while rest:
        size = rng.randint(1, 9)
        groups.append(rest[:size])
        rest = rest[size:]
    return groups


def test_expected_equals_per_trial_formula_bit_for_bit():
    rng = random.Random(31)
    for case in range(25):
        n = rng.randint(1, 45)
        ranking, labels = labels_for([rng.randint(1, 6) for _ in range(n)], prefix=f"c{case}_")
        rng.shuffle(ranking)
        groups = _random_groups(rng, ranking)
        for k in sorted({1, min(10, n), n}) + [None]:
            for shuffles in (1, 2, 60):
                seed = rng.randrange(10_000)
                assert expected_t_ndcg(
                    groups, labels, k=k, shuffles=shuffles, seed=seed
                ) == per_trial_expected(groups, labels, k, shuffles, seed)


def test_expected_all_l6_inbox_is_zero_like_per_trial_formula():
    ranking, labels = labels_for([6] * 12)
    groups = [ranking[:5], ranking[5:]]
    for k in (1, 10, 12, None):
        result = expected_t_ndcg(groups, labels, k=k, shuffles=20, seed=4)
        assert result == per_trial_expected(groups, labels, k, 20, 4) == (0.0, 0.0)


def test_expected_rejects_bad_k_and_unlabeled_ids():
    ranking, labels = labels_for([1, 3, 6, 2])
    groups = [ranking[:2], ranking[2:]]
    for k in (0, 5, -1):
        with pytest.raises(ConfigError):
            expected_t_ndcg(groups, labels, k=k, shuffles=3)
    with pytest.raises(ConfigError):
        expected_t_ndcg([], labels, shuffles=3)
    with pytest.raises(MissingLabel):
        expected_t_ndcg(groups + [["ghost"]], labels, k=2, shuffles=3)
    labels[ranking[0]] = UrgencyLabel.UNCLEAR
    with pytest.raises(MissingLabel):
        expected_t_ndcg(groups, labels, k=2, shuffles=3)


# ----------------------------------------------------------------- intrinsic


def _fixture_pairs(corpus):
    pairs = []
    for i, a in enumerate(corpus):
        for b in corpus[i + 1 :]:
            if a.level != b.level:
                pairs.append(make_eval_pair(a, b))
    return pairs


def test_intrinsic_perfect_oracle_all_ones(fixture_corpus):
    pairs = _fixture_pairs(fixture_corpus)
    report = intrinsic_accuracy(pairs, perfect_oracle(fixture_corpus))
    assert report.overall_accuracy == 1.0
    assert report.tie_count == 0
    assert report.total == len(pairs)
    assert set(report.per_difficulty) == set(Difficulty)
    for accuracy, n in report.per_difficulty.values():
        assert accuracy == 1.0
        assert n > 0
    assert sum(n for _, n in report.per_difficulty.values()) == len(pairs)


def test_intrinsic_always_tie_scores_zero(fixture_corpus):
    class AlwaysTie:
        def score_directed(self, existing, new):
            return DirectionScore(0.5, ScoreKind.PROBABILITY)

    pairs = _fixture_pairs(fixture_corpus[:10])
    report = intrinsic_accuracy(pairs, AlwaysTie())
    assert report.overall_accuracy == 0.0
    assert report.tie_count == len(pairs)


def test_intrinsic_empty_rejected(fixture_corpus):
    with pytest.raises(NoValidPairs):
        intrinsic_accuracy([], perfect_oracle(fixture_corpus))


def test_intrinsic_gap_noise_orders_difficulties(fixture_corpus):
    pairs = _fixture_pairs(fixture_corpus)
    flip = {1: 0.35, 2: 0.2, 3: 0.2, 4: 0.05, 5: 0.05}
    report = intrinsic_accuracy(pairs, NoisyOracleComparator(fixture_corpus, flip, seed=29))
    easy, _ = report.per_difficulty[Difficulty.EASY]
    medium, _ = report.per_difficulty[Difficulty.MEDIUM]
    hard, _ = report.per_difficulty[Difficulty.HARD]
    assert easy >= medium >= hard


def test_intrinsic_accuracy_decreases_with_flip(fixture_corpus):
    pairs = _fixture_pairs(fixture_corpus)
    accuracies = []
    for flip in (0.0, 0.2, 0.45):
        oracle = NoisyOracleComparator(fixture_corpus, {gap: flip for gap in range(1, 6)}, seed=31)
        accuracies.append(intrinsic_accuracy(pairs, oracle).overall_accuracy)
    assert accuracies[0] > accuracies[1] > accuracies[2]


# ---------------------------------------------------------------- chi-square


def test_chi_square_independence_flat_table():
    result = chi_square_independence([[10, 10], [10, 10]])
    assert result.chi_square == 0.0
    assert result.cramers_v == 0.0
    assert result.p_value == 1.0


def test_chi_square_hand_computed_fixture():
    result = chi_square_independence([[30, 10], [10, 30]])
    assert result.chi_square == pytest.approx(20.0, abs=1e-9)
    assert result.cramers_v == pytest.approx(0.5, abs=1e-9)
    assert result.dof == 1
    assert result.p_value < 0.001


def test_chi_square_drops_empty_rows():
    result = chi_square_independence([[30, 10], [0, 0], [10, 30]])
    assert result.chi_square == pytest.approx(20.0, abs=1e-9)


def test_chi_square_degenerate_single_row():
    result = chi_square_independence([[5, 7]])
    assert result.chi_square == 0.0
    assert result.p_value == 1.0
    assert result.cramers_v == 0.0


def test_chi_square_rejects_bad_tables():
    with pytest.raises(DataError):
        chi_square_independence([[1, -2], [3, 4]])
    with pytest.raises(DataError):
        chi_square_independence([[0, 0], [0, 0]])


# --------------------------------------------------------------------- bias


def _demographic_pair(index, more_gender, less_gender, more_age, less_age):
    more = make_labeled(
        f"more{index:03d}", 1, ehr=EhrRecord(age=more_age, gender=more_gender)
    )
    less = make_labeled(
        f"less{index:03d}", 5, ehr=EhrRecord(age=less_age, gender=less_gender)
    )
    return make_eval_pair(more, less)


def test_bias_gender_strata_counts():
    pairs = []
    genders = [Gender.MALE, Gender.FEMALE]
    for index in range(40):
        pairs.append(
            _demographic_pair(
                index,
                genders[index % 2],
                genders[(index // 2) % 2],
                more_age=50,
                less_age=30,
            )
        )
    labels = {}
    for pair in pairs:
        labels[pair.a.id] = pair.a.label
        labels[pair.b.id] = pair.b.label
    oracle = NoisyOracleComparator(labels, {4: 0.3}, seed=11)
    outcomes = [compare(oracle, pair.a.message, pair.b.message) for pair in pairs]
    report = bias_strata(pairs, outcomes, BiasScheme.GENDER_OF_ROLES)
    assert set(report.strata) == {
        "more=male,less=male",
        "more=male,less=female",
        "more=female,less=male",
        "more=female,less=female",
    }
    assert sum(correct + incorrect for correct, incorrect in report.strata.values()) == 40
    assert 0.0 <= report.cramers_v <= 1.0


def test_bias_age_ordering_independent_fixture():
    """Correctness unrelated to age ordering: expect a comfortable p-value."""
    pairs = []
    outcomes = []
    index = 0
    # 2x2 balanced table: 15 correct / 5 incorrect in both age orderings
    for older_is_more_urgent in (True, False):
        for correct in [True] * 15 + [False] * 5:
            more_age, less_age = (60, 30) if older_is_more_urgent else (30, 60)
            pair = _demographic_pair(
                index, Gender.FEMALE, Gender.MALE, more_age, less_age
            )
            winner = pair.gold_more_urgent if correct else (
                Winner.B if pair.gold_more_urgent is Winner.A else Winner.A
            )
            eta = 0.5 if winner is Winner.B else -0.5
            outcomes.append(
                compare(
                    _scripted_for(pair, eta),
                    pair.a.message,
                    pair.b.message,
                )
            )
            pairs.append(pair)
            index += 1
    report = bias_strata(pairs, outcomes, BiasScheme.AGE_ORDERING)
    assert set(report.strata) == {"older_more_urgent", "older_less_urgent"}
    assert report.chi_square == pytest.approx(0.0, abs=1e-9)
    assert report.p_value > 0.05


def _scripted_for(pair, eta):
    from .test_compare import ScriptedComparator

    half = abs(eta) / 2
    s_ab = 0.5 + (half if eta > 0 else -half)
    s_ba = 0.5 - (half if eta > 0 else -half)
    return ScriptedComparator(
        {(pair.a.id, pair.b.id): s_ab, (pair.b.id, pair.a.id): s_ba}
    )


def test_bias_skips_pairs_without_demographics(fixture_corpus):
    plain = make_eval_pair(make_labeled("x", 1), make_labeled("y", 5))
    pair_with_ehr = _demographic_pair(0, Gender.MALE, Gender.FEMALE, 40, 20)
    labels = {
        "x": UrgencyLabel.L1,
        "y": UrgencyLabel.L5,
        pair_with_ehr.a.id: pair_with_ehr.a.label,
        pair_with_ehr.b.id: pair_with_ehr.b.label,
    }
    oracle = perfect_oracle(labels)
    pairs = [plain, pair_with_ehr]
    outcomes = [compare(oracle, pair.a.message, pair.b.message) for pair in pairs]
    report = bias_strata(pairs, outcomes, BiasScheme.GENDER_OF_ROLES)
    assert report.skipped == 1


def test_bias_no_strata():
    plain = make_eval_pair(make_labeled("x", 1), make_labeled("y", 5))
    oracle = perfect_oracle({"x": UrgencyLabel.L1, "y": UrgencyLabel.L5})
    outcome = compare(oracle, plain.a.message, plain.b.message)
    with pytest.raises(NoStrata):
        bias_strata([plain], [outcome], BiasScheme.AGE_ORDERING)


def test_bias_equal_ages_skipped():
    pair = _demographic_pair(0, Gender.MALE, Gender.FEMALE, 44, 44)
    labels = {pair.a.id: pair.a.label, pair.b.id: pair.b.label}
    outcome = compare(perfect_oracle(labels), pair.a.message, pair.b.message)
    with pytest.raises(NoStrata):
        bias_strata([pair], [outcome], BiasScheme.AGE_ORDERING)


# ---------------------------------------------------------------- agreement


def test_agreement_identical_annotations():
    rows = [(f"p{i}", "ann1", "A") for i in range(20)] + [
        (f"p{i}", "ann2", "A") for i in range(20)
    ]
    report = agreement(rows)
    assert report.percent_agreement == 1.0
    assert report.cohens_kappa == 1.0
    assert report.pairs_used == 20


def test_agreement_coin_flip_kappa_near_zero():
    rng = random.Random(41)
    rows = []
    for i in range(10_000):
        rows.append((f"p{i}", "ann1", rng.choice("AB")))
        rows.append((f"p{i}", "ann2", rng.choice("AB")))
    report = agreement(rows)
    assert abs(report.cohens_kappa) < 0.05


def test_agreement_constant_vs_coin_is_exactly_zero():
    rng = random.Random(43)
    rows = []
    n = 2000
    coin = ["A"] * (n // 2) + ["B"] * (n // 2)
    rng.shuffle(coin)
    for i in range(n):
        rows.append((f"p{i}", "a_constant", "A"))
        rows.append((f"p{i}", "b_coin", coin[i]))
    report = agreement(rows)
    # hand computation: po = 0.5, pe = 1*0.5 + 0*0.5 = 0.5, kappa = 0
    assert report.percent_agreement == 0.5
    assert report.cohens_kappa == 0.0


def test_agreement_excludes_wrong_cardinality():
    rows = [
        ("p1", "ann1", "A"),
        ("p1", "ann2", "A"),
        ("p2", "ann1", "A"),  # single annotation
        ("p3", "ann1", "A"),  # same annotator twice
        ("p3", "ann1", "B"),
        ("p4", "ann1", "A"),  # three annotations
        ("p4", "ann2", "A"),
        ("p4", "ann3", "A"),
    ]
    report = agreement(rows)
    assert report.pairs_used == 1
    assert report.pairs_excluded == 3


def test_agreement_needs_at_least_one_pair():
    with pytest.raises(DataError):
        agreement([("p1", "ann1", "A")])
