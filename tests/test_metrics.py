from __future__ import annotations

import itertools
import math
import random
import statistics

import pytest

from triagerank.compare import (
    DirectionScore,
    NoisyOracleComparator,
    ScoreKind,
    Winner,
    perfect_oracle,
)
from triagerank.corpus import EhrRecord, Gender, UrgencyLabel
from triagerank.errors import ConfigError, DataError, MissingLabel, NoStrata, NoValidPairs
from triagerank.metrics import (
    BiasScheme,
    _chi2_upper_tail,
    _dcg,
    agreement,
    bias_strata,
    chi_square_independence,
    expected_t_ndcg,
    intrinsic_accuracy,
    ndcg_at_k,
    t_ndcg_at_k,
)
from triagerank.pairs import Difficulty, EvalPair

from .conftest import make_labeled
from .test_compare import ScriptedComparator


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
    # the gain is 6 - level: L1 -> 5, L2 -> 4, L6 -> 0; a sentinel has none
    ranking, labels = labels_for([2, 1, 6])
    assert ndcg_at_k(ranking, labels, k=3) == pytest.approx(brute_ndcg([4, 5, 0], 3))
    for sentinel in (UrgencyLabel.UNCLEAR, UrgencyLabel.SUPPORTIVE_CARE):
        with pytest.raises(MissingLabel):
            ndcg_at_k(ranking, {**labels, ranking[2]: sentinel}, k=3)


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


def test_dcg_is_correctly_rounded():
    # summed left to right, as builtin sum() does before Python 3.12, these
    # terms land one ulp away from their correctly rounded sum
    gains = [5, 3, 3, 2]
    terms = [
        (2.0**gain - 1.0) / math.log2(position + 1)
        for position, gain in enumerate(gains, start=1)
    ]
    left_to_right = 0.0
    for term in terms:
        left_to_right += term
    assert left_to_right != math.fsum(terms)
    assert _dcg(gains, k=4) == math.fsum(terms)


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
    mean, stddev = expected_t_ndcg(groups, labels, k=30)
    assert stddev == 0.0
    assert mean == pytest.approx(t_ndcg_at_k(ranking, labels, k=30), abs=1e-12)


def test_expected_single_class_mean_near_zero():
    ranking, labels = labels_for(IDEAL_30)
    mean, stddev = expected_t_ndcg([ranking], labels, k=30)
    assert abs(mean) < 0.05
    assert stddev > 0.0


def test_expected_two_class_matches_high_shuffle_oracle():
    """Pinned from an independent 10^5-shuffle brute-force run.

    The tolerance is 3 standard errors of that run: sigma / sqrt(N) for
    its mean and, in the normal approximation, sigma / sqrt(2N) for its
    standard deviation.
    """
    ranking, labels = labels_for(IDEAL_30)
    groups = [ranking[:15], ranking[15:]]
    oracle = {10: (0.6434876427357737, 0.09567219908700915),
              30: (0.3238723196696982, 0.0630296537361598)}
    oracle_shuffles = 100_000
    for k, (oracle_mean, oracle_std) in oracle.items():
        mean, stddev = expected_t_ndcg(groups, labels, k=k)
        assert mean == pytest.approx(oracle_mean, abs=3 * oracle_std / math.sqrt(oracle_shuffles))
        assert stddev == pytest.approx(
            oracle_std, abs=3 * oracle_std / math.sqrt(2 * oracle_shuffles)
        )


def _random_groups(rng, ranking, max_size=9):
    groups, rest = [], list(ranking)
    while rest:
        size = rng.randint(1, max_size)
        groups.append(rest[:size])
        rest = rest[size:]
    return groups


def _orderings(groups):
    """Every ranking the groups allow, each group permuted in place."""
    for combination in itertools.product(*map(itertools.permutations, groups)):
        yield [message_id for group in combination for message_id in group]


def test_expected_equals_exhaustive_enumeration():
    rng = random.Random(17)
    cases = 0
    while cases < 40:
        n = rng.randint(1, 8)
        ranking, labels = labels_for([rng.randint(1, 6) for _ in range(n)], prefix=f"e{cases}_")
        groups = _random_groups(rng, ranking, max_size=5)
        if math.prod(math.factorial(len(group)) for group in groups) > 2000:
            continue
        cases += 1
        for k in sorted({1, max(1, n // 2), n}):
            values = [t_ndcg_at_k(ordering, labels, k=k) for ordering in _orderings(groups)]
            mean, stddev = expected_t_ndcg(groups, labels, k=k)
            assert mean == pytest.approx(statistics.fmean(values), abs=1e-12)
            assert stddev == pytest.approx(statistics.pstdev(values), abs=1e-12)


def per_trial_expected(groups, labels, k, shuffles, seed):
    """Seeded Monte Carlo reference: mean and sample stddev of t_ndcg_at_k
    over ``shuffles`` independently shuffled rankings."""
    values = []
    for trial in range(shuffles):
        rng = random.Random(f"{seed}:{trial}")
        flat = []
        for group in groups:
            members = list(group)
            rng.shuffle(members)
            flat.extend(members)
        values.append(t_ndcg_at_k(flat, labels, k=k))
    return statistics.fmean(values), statistics.stdev(values)


def test_expected_within_four_standard_errors_of_monte_carlo():
    rng = random.Random(31)
    ranking, labels = labels_for([rng.randint(1, 6) for _ in range(45)], prefix="mc_")
    rng.shuffle(ranking)
    groups = _random_groups(rng, ranking)
    shuffles = 2000
    for k in (1, 10, 45):
        mc_mean, mc_std = per_trial_expected(groups, labels, k, shuffles, seed=k)
        mean, stddev = expected_t_ndcg(groups, labels, k=k)
        assert mean == pytest.approx(mc_mean, abs=4 * mc_std / math.sqrt(shuffles))
        assert stddev == pytest.approx(mc_std, abs=4 * mc_std / math.sqrt(2 * shuffles))


def test_expected_all_l6_inbox_is_zero_like_per_trial_formula():
    ranking, labels = labels_for([6] * 12)
    groups = [ranking[:5], ranking[5:]]
    for k in (1, 10, 12, None):
        result = expected_t_ndcg(groups, labels, k=k)
        assert result == per_trial_expected(groups, labels, k, 20, 4) == (0.0, 0.0)


def test_expected_rejects_bad_k_and_unlabeled_ids():
    ranking, labels = labels_for([1, 3, 6, 2])
    groups = [ranking[:2], ranking[2:]]
    for k in (0, 5, -1):
        with pytest.raises(ConfigError):
            expected_t_ndcg(groups, labels, k=k)
    with pytest.raises(ConfigError):
        expected_t_ndcg([], labels)
    with pytest.raises(MissingLabel):
        expected_t_ndcg(groups + [["ghost"]], labels, k=2)
    labels[ranking[0]] = UrgencyLabel.UNCLEAR
    with pytest.raises(MissingLabel):
        expected_t_ndcg(groups, labels, k=2)


# ----------------------------------------------------------------- intrinsic


def _fixture_pairs(corpus):
    pairs = []
    for i, a in enumerate(corpus):
        for b in corpus[i + 1 :]:
            if a.level != b.level:
                pairs.append(EvalPair(a, b))
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


@pytest.mark.parametrize(
    "table",
    [[[1, 2], [3]], [[1, math.nan], [3, 4]], [[1, math.inf], [3, 4]], [1, 2], [[[1]]], [], [[]]],
    ids=["ragged", "nan", "inf", "one-dimensional", "three-dimensional", "empty", "empty-row"],
)
def test_chi_square_rejects_malformed_tables(table):
    with pytest.raises(DataError):
        chi_square_independence(table)


# SciPy 1.17.1 ``chi2.sf(x, dof)`` at CHI2_XS, recorded once; the tests
# compare against these literals and need no SciPy.
CHI2_XS = (0.0, 0.5, 1.0, 3.84, 10.0, 50.0, 200.0, 700.0, 1400.0)
CHI2_SF = {
    1: (
        1.0, 0.47950012218695337, 0.31731050786291115,
        0.05004352124870519, 0.001565402258002549, 1.537459794428033e-12,
        2.0884875837625688e-45, 2.990226975124623e-154, 2.1010145162644003e-306,
    ),
    2: (
        1.0, 0.7788007830714049, 0.6065306597126334,
        0.14660696213035013, 0.006737946999085468, 1.3887943864964e-11,
        3.7200759760208177e-44, 9.929590396265143e-153, 9.85967654375939e-305,
    ),
    3: (
        1.0, 0.9188914116546758, 0.8012519569012009,
        0.27926761711860965, 0.01856613546304325, 7.989179244951495e-11,
        4.218541107192018e-43, 2.0991308534204487e-151, 2.945619361016289e-303,
    ),
    4: (
        1.0, 0.9735009788392561, 0.9097959895689501,
        0.4280923294206225, 0.04042768199451279, 3.610865404890647e-10,
        3.75727673578106e-42, 3.4852862290889247e-150, 6.911633257175853e-302,
    ),
    5: (
        1.0, 0.9921232932326296, 0.9625657732472964,
        0.5726744598320888, 0.07523524614651217, 1.3857973367009573e-09,
        2.8406228986415534e-41, 4.911986103573117e-149, 1.3765875143943142e-300,
    ),
    6: (
        1.0, 0.9978385033102375, 0.9856123220330293,
        0.6983182820192837, 0.12465201948308108, 4.701068998290324e-09,
        1.8976107553682236e-40, 6.116726980003133e-148, 2.4225323864784486e-299,
    ),
    7: (
        1.0, 0.9994464813904249, 0.9948285365165155,
        0.79801091503604, 0.18857346751344997, 1.4444852779215397e-08,
        1.147781224014262e-39, 6.896512574090415e-147, 3.85996318123752e-298,
    ),
    8: (
        1.0, 0.999866630349486, 0.9982483774437092,
        0.871262891682427, 0.2650259152973616, 4.0867589479967445e-08,
        6.389887702238276e-39, 7.156687073797783e-146, 5.660673748047227e-297,
    ),
    9: (
        1.0, 0.9999695662588389, 0.9994375026978325,
        0.9216240561764936, 0.3504852123233613, 1.0772382022574693e-07,
        3.312992393909567e-38, 6.916357838795454e-145, 7.730994243998953e-296,
    ),
    10: (
        1.0, 0.999993388289439, 0.9998278843700441,
        0.9542763043207358, 0.44049328506521257, 2.669083424904495e-07,
        1.6139305336977317e-37, 6.280146699235733e-144, 9.92039147980046e-295,
    ),
    25: (
        1.0, 1.0, 0.9999999999999364,
        0.9999996531639935, 0.996652640733739, 0.002131151919103168,
        3.0673491634731327e-29, 1.3550525784141208e-131, 3.832215930973459e-280,
    ),
    200: (
        1.0, 1.0, 1.0,
        1.0, 1.0, 1.0,
        0.48670120172085135, 1.079900895730226e-56, 5.684208283879863e-179,
    ),
}


@pytest.mark.parametrize("dof", sorted(CHI2_SF))
def test_chi2_upper_tail_matches_recorded_values(dof):
    for x, expected in zip(CHI2_XS, CHI2_SF[dof]):
        assert _chi2_upper_tail(x, dof) == pytest.approx(expected, rel=1e-12, abs=0), x


# --------------------------------------------------------------------- bias


def _demographic_pair(index, more_gender, less_gender, more_age, less_age):
    more = make_labeled(
        f"more{index:03d}", 1, ehr=EhrRecord(age=more_age, gender=more_gender)
    )
    less = make_labeled(
        f"less{index:03d}", 5, ehr=EhrRecord(age=less_age, gender=less_gender)
    )
    return EvalPair(more, less)


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
    report = bias_strata(pairs, oracle, BiasScheme.GENDER_OF_ROLES)
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
    table = {}
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
            table.update(_scripted_scores(pair, eta))
            pairs.append(pair)
            index += 1
    report = bias_strata(pairs, ScriptedComparator(table), BiasScheme.AGE_ORDERING)
    assert set(report.strata) == {"older_more_urgent", "older_less_urgent"}
    assert report.chi_square == pytest.approx(0.0, abs=1e-9)
    assert report.p_value > 0.05


def _scripted_scores(pair, eta):
    """The two directed scores of ``pair`` whose outcome has this eta."""
    half = abs(eta) / 2
    s_ab = 0.5 + (half if eta > 0 else -half)
    s_ba = 0.5 - (half if eta > 0 else -half)
    return {(pair.a.id, pair.b.id): s_ab, (pair.b.id, pair.a.id): s_ba}


def test_bias_skips_pairs_without_demographics(fixture_corpus):
    plain = EvalPair(make_labeled("x", 1), make_labeled("y", 5))
    pair_with_ehr = _demographic_pair(0, Gender.MALE, Gender.FEMALE, 40, 20)
    # the oracle knows no label of the plain pair, so asking it about that pair would raise
    labels = {
        pair_with_ehr.a.id: pair_with_ehr.a.label,
        pair_with_ehr.b.id: pair_with_ehr.b.label,
    }
    oracle = perfect_oracle(labels)
    report = bias_strata([plain, pair_with_ehr], oracle, BiasScheme.GENDER_OF_ROLES)
    assert report.skipped == 1


def test_bias_no_strata():
    plain = EvalPair(make_labeled("x", 1), make_labeled("y", 5))
    oracle = perfect_oracle({"x": UrgencyLabel.L1, "y": UrgencyLabel.L5})
    with pytest.raises(NoStrata):
        bias_strata([plain], oracle, BiasScheme.AGE_ORDERING)


def test_bias_equal_ages_skipped():
    pair = _demographic_pair(0, Gender.MALE, Gender.FEMALE, 44, 44)
    labels = {pair.a.id: pair.a.label, pair.b.id: pair.b.label}
    with pytest.raises(NoStrata):
        bias_strata([pair], perfect_oracle(labels), BiasScheme.AGE_ORDERING)


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
