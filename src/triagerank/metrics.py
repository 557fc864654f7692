"""Intrinsic and extrinsic evaluation metrics.

Extrinsic ranking quality uses graded-relevance NDCG with exponential
gain and its tail-normalized variant:

    DCG@k    = sum_{i=1..k} (2^rel_i - 1) / log2(i + 1)
    NDCG@k   = DCG@k / ideal DCG@k            in [0, 1]
    T-NDCG@k = NDCG@k(L) - NDCG@k(reverse(L)) in [-1, 1]

The reversal term penalizes urgent messages sorted to the bottom, which
plain NDCG ignores. The relevance of a message is 6 - level: gain 5 at
level 1 down to gain 0 at level 6 (no medical attention needed).

Multi-class rankings with intra-class ties are scored by the exact
expected T-NDCG over uniform intra-class shuffles and its population
standard deviation, both in closed form.

Float sums use ``math.fsum``: builtin ``sum`` of floats is compensated
from Python 3.12 on, and a correctly rounded sum keeps every report
byte-identical across Python versions.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .compare import Comparator, Winner, compare
from .corpus import UrgencyLabel
from .errors import ConfigError, DataError, MissingLabel, NoStrata, NoValidPairs
from .pairs import Difficulty, EvalPair


@dataclass(frozen=True)
class IntrinsicReport:
    """Pairwise accuracy, overall and per difficulty stratum."""

    overall_accuracy: float
    per_difficulty: dict[Difficulty, tuple[float, int]]
    tie_count: int
    total: int

    def to_record(self) -> dict:
        return {
            "overall_accuracy": self.overall_accuracy,
            "per_difficulty": {
                difficulty.value: {"accuracy": accuracy, "n": n}
                for difficulty, (accuracy, n) in sorted(
                    self.per_difficulty.items(), key=lambda item: item[0].value
                )
            },
            "tie_count": self.tie_count,
            "total": self.total,
        }


def intrinsic_accuracy(
    pairs: Sequence[EvalPair], comparator: Comparator
) -> IntrinsicReport:
    """Score a comparator on gold pairs.

    A pair counts correct iff the winner matches the gold side; a TIE is
    incorrect (an undecided comparator has not triaged) and increments
    tie_count.
    """
    if not pairs:
        raise NoValidPairs("intrinsic evaluation needs at least one pair")
    correct_total = 0
    ties = 0
    by_difficulty: dict[Difficulty, list[bool]] = defaultdict(list)
    for pair in pairs:
        outcome = compare(comparator, pair.a.message, pair.b.message)
        if outcome.winner is Winner.TIE:
            ties += 1
            is_correct = False
        else:
            is_correct = outcome.winner is pair.gold_more_urgent
        correct_total += is_correct
        by_difficulty[pair.difficulty].append(is_correct)
    per_difficulty = {
        difficulty: (sum(results) / len(results), len(results))
        for difficulty, results in by_difficulty.items()
    }
    return IntrinsicReport(
        overall_accuracy=correct_total / len(pairs),
        per_difficulty=per_difficulty,
        tie_count=ties,
        total=len(pairs),
    )


def _gain_vector(ranking: Sequence[str], labels: Mapping[str, UrgencyLabel]) -> list[int]:
    gains = []
    for message_id in ranking:
        if message_id not in labels:
            raise MissingLabel(f"no label for ranked id {message_id!r}")
        label = labels[message_id]
        if not label.is_ordinal:
            raise MissingLabel(f"{label.value} has no relevance")
        gains.append(6 - label.level)
    return gains


def _dcg(gains: Sequence[int], k: int) -> float:
    return math.fsum(
        (2.0**gain - 1.0) / math.log2(position + 1)
        for position, gain in enumerate(gains[:k], start=1)
    )


def ndcg_at_k(
    ranking: Sequence[str],
    labels: Mapping[str, UrgencyLabel],
    k: int | None = None,
) -> float:
    """NDCG@k with exponential gain; 1.0 when the ideal DCG is 0.

    The ideal ordering is the ranking's own label multiset sorted by
    relevance descending, so the denominator is permutation-invariant.
    """
    if k is None:
        k = len(ranking)
    if not 1 <= k <= len(ranking):
        raise ConfigError(f"k must be in 1..{len(ranking)}, got {k}")
    gains = _gain_vector(ranking, labels)
    ideal = _dcg(sorted(gains, reverse=True), k)
    if ideal == 0.0:
        return 1.0
    return _dcg(gains, k) / ideal


def t_ndcg_at_k(
    ranking: Sequence[str],
    labels: Mapping[str, UrgencyLabel],
    k: int | None = None,
) -> float:
    """Tail-normalized NDCG: NDCG@k(L) - NDCG@k(exact reversal of L)."""
    reversed_ranking = list(reversed(ranking))
    return ndcg_at_k(ranking, labels, k) - ndcg_at_k(reversed_ranking, labels, k)


def expected_t_ndcg(
    class_groups: Sequence[Sequence[str]],
    labels: Mapping[str, UrgencyLabel],
    k: int | None = None,
) -> tuple[float, float]:
    """Exact mean and population stddev of T-NDCG over intra-class shuffles.

    ``class_groups`` is the predicted ranking as ordered groups of ids,
    most urgent class first; order within a group is meaningless, and each
    group is permuted uniformly and independently.

    T-NDCG@k is linear in the gain values x = 2^gain - 1: position p of n
    carries the weight c_p = [p <= k]/log2(p+1) - [n-p+1 <= k]/log2(n-p+2),
    its discount in the ranking minus its discount in the reversal. For a
    group of m values with mean mu and population variance s^2 over the
    positions P (the tie-aware expectation of McSherry & Najork, ECIR 2008):

        E   = sum_g mu_g sum_{p in P_g} c_p / idealDCG
        Var = sum_{g, m > 1} s_g^2 (m sum c_p^2 - (sum c_p)^2) / (m - 1) / idealDCG^2

    Singleton groups and groups of equal gains add exactly zero variance.
    """
    n = sum(len(group) for group in class_groups)
    if k is None:
        k = n
    if not 1 <= k <= n:
        raise ConfigError(f"k must be in 1..{n}, got {k}")
    group_gains = [_gain_vector(group, labels) for group in class_groups]
    ideal = _dcg(sorted((gain for group in group_gains for gain in group), reverse=True), k)
    if ideal == 0.0:
        # NDCG is 1.0 for every ranking and its reversal
        return 0.0, 0.0
    weights = [
        (1.0 / math.log2(p + 1) if p <= k else 0.0)
        - (1.0 / math.log2(n - p + 2) if n - p + 1 <= k else 0.0)
        for p in range(1, n + 1)
    ]
    mean = variance = 0.0
    start = 0
    for gains in group_gains:
        m = len(gains)
        x = [2.0**gain - 1.0 for gain in gains]
        c = weights[start:start + m]
        start += m
        mean += statistics.fmean(x) * math.fsum(c)
        if m > 1:
            # m sum c_p^2 - (sum c_p)^2 is m^2 times the population variance of c
            variance += m * m * statistics.pvariance(x) * statistics.pvariance(c) / (m - 1)
    return mean / ideal, math.sqrt(variance) / ideal


@dataclass(frozen=True)
class ChiSquareResult:
    chi_square: float
    dof: int
    p_value: float
    cramers_v: float
    n: int


def _chi2_upper_tail(x: float, dof: int) -> float:
    """P(X > x) for X ~ chi-square with an integer dof >= 1.

    With y = x/2 (Abramowitz & Stegun 26.4.4-5), an even dof 2m is the
    Poisson sum of e^-y y^a / Gamma(a+1) over a = 0..m-1, and an odd dof
    2m+1 is erfc(sqrt(y)) plus the same terms over a = 1/2..m-1/2. Each
    term is formed from its logarithm, so no factor of it overflows or
    underflows on its own.
    """
    if x <= 0.0:
        return 1.0
    y = x / 2.0
    if dof % 2:
        tail, powers = math.erfc(math.sqrt(y)), [j - 0.5 for j in range(1, dof // 2 + 1)]
    else:
        tail, powers = 0.0, range(dof // 2)
    log_y = math.log(y)
    terms = [math.exp(a * log_y - math.lgamma(a + 1) - y) for a in powers]
    # near 1 the rounded sum can land an ulp above it
    return min(1.0, math.fsum([tail, *terms]))


def chi_square_independence(table: Sequence[Sequence[float]]) -> ChiSquareResult:
    """Pearson chi-square test of independence, no continuity correction.

    ``table`` is a rectangle of finite, non-negative counts. Rows or
    columns summing to zero are dropped before computing. The p-value
    comes from the chi-square distribution with (r-1)(c-1) degrees of
    freedom; Cramér's V = sqrt(chi2 / (n * min(r-1, c-1))).
    """
    try:
        observed = [[float(count) for count in row] for row in table]
    except (TypeError, ValueError):
        observed = []
    if not observed or not observed[0] or any(len(row) != len(observed[0]) for row in observed):
        raise DataError("contingency table must be 2-dimensional and non-empty")
    if not all(0.0 <= count < math.inf for row in observed for count in row):
        raise DataError("contingency table counts must be finite and non-negative")
    observed = [row for row in observed if math.fsum(row) > 0]
    columns = [column for column in zip(*observed) if math.fsum(column) > 0]
    n = math.fsum(map(math.fsum, columns))
    if n == 0:
        raise DataError("contingency table is empty")
    rows, cols = len(observed), len(columns)
    dof = (rows - 1) * (cols - 1)
    if dof == 0:
        return ChiSquareResult(0.0, 0, 1.0, 0.0, int(n))
    col_sums = [math.fsum(column) for column in columns]
    chi_square = 0.0
    for i, row_sum in enumerate(map(math.fsum, observed)):
        for column, col_sum in zip(columns, col_sums):
            expected = row_sum * col_sum / n
            chi_square += (column[i] - expected) ** 2 / expected
    p_value = _chi2_upper_tail(chi_square, dof)
    cramers_v = math.sqrt(chi_square / (n * min(rows - 1, cols - 1)))
    return ChiSquareResult(chi_square, dof, p_value, cramers_v, int(n))


class BiasScheme(Enum):
    GENDER_OF_ROLES = "gender_of_roles"
    AGE_ORDERING = "age_ordering"


@dataclass(frozen=True)
class BiasReport:
    """Correctness stratified by a demographic scheme, with effect size."""

    scheme: BiasScheme
    strata: dict[str, tuple[int, int]]
    chi_square: float
    p_value: float
    cramers_v: float
    skipped: int

    def to_record(self) -> dict:
        return {
            "scheme": self.scheme.value,
            "strata": {
                name: {"correct": correct, "incorrect": incorrect}
                for name, (correct, incorrect) in sorted(self.strata.items())
            },
            "chi_square": self.chi_square,
            "p_value": self.p_value,
            "cramers_v": self.cramers_v,
            "skipped": self.skipped,
        }


def _roles(pair: EvalPair) -> tuple:
    """(more urgent, less urgent) messages of a pair."""
    if pair.gold_more_urgent is Winner.A:
        return pair.a.message, pair.b.message
    return pair.b.message, pair.a.message


def _stratum_for(pair: EvalPair, scheme: BiasScheme) -> str | None:
    more, less = _roles(pair)
    if more.ehr is None or less.ehr is None:
        return None
    if scheme is BiasScheme.GENDER_OF_ROLES:
        genders = {"male", "female"}
        g_more = more.ehr.gender.value
        g_less = less.ehr.gender.value
        if g_more not in genders or g_less not in genders:
            return None
        return f"more={g_more},less={g_less}"
    if more.ehr.age == less.ehr.age:
        return None
    return "older_more_urgent" if more.ehr.age > less.ehr.age else "older_less_urgent"


def bias_strata(
    pairs: Sequence[EvalPair],
    comparator: Comparator,
    scheme: BiasScheme,
) -> BiasReport:
    """Test whether a comparator's correctness is independent of a demographic ordering.

    A pair lacking the demographics the scheme needs is skipped and
    counted, and never sent to the comparator. As in intrinsic_accuracy, a
    TIE is incorrect.
    """
    counts: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    skipped = 0
    for pair in pairs:
        stratum = _stratum_for(pair, scheme)
        if stratum is None:
            skipped += 1
            continue
        outcome = compare(comparator, pair.a.message, pair.b.message)
        is_correct = outcome.winner is pair.gold_more_urgent
        counts[stratum][0 if is_correct else 1] += 1
    if not counts:
        raise NoStrata(f"no pair is usable for scheme {scheme.value}")
    names = sorted(counts)
    table = [counts[name] for name in names]
    result = chi_square_independence(table)
    return BiasReport(
        scheme=scheme,
        strata={name: (counts[name][0], counts[name][1]) for name in names},
        chi_square=result.chi_square,
        p_value=result.p_value,
        cramers_v=result.cramers_v,
        skipped=skipped,
    )


@dataclass(frozen=True)
class AgreementReport:
    percent_agreement: float
    cohens_kappa: float
    pairs_used: int
    pairs_excluded: int

    def to_record(self) -> dict:
        return {
            "percent_agreement": self.percent_agreement,
            "cohens_kappa": self.cohens_kappa,
            "pairs_used": self.pairs_used,
            "pairs_excluded": self.pairs_excluded,
        }


def agreement(
    annotations: Iterable[tuple[str, str, str]],
) -> AgreementReport:
    """Percent agreement and Cohen's kappa over doubly-annotated pairs.

    ``annotations`` holds (pair id, annotator id, choice) rows. Only pairs
    with exactly two annotations from distinct annotators are used; the
    rest are excluded and counted. Within a pair, rater slots are assigned
    by ascending annotator id so marginals are well defined.
    """
    by_pair: dict[str, list[tuple[str, str]]] = defaultdict(list)
    for pair_id, annotator_id, choice in annotations:
        by_pair[pair_id].append((annotator_id, choice))
    slot_1: list[str] = []
    slot_2: list[str] = []
    excluded = 0
    for pair_id, rows in by_pair.items():
        if len(rows) != 2 or rows[0][0] == rows[1][0]:
            excluded += 1
            continue
        first, second = sorted(rows)
        slot_1.append(first[1])
        slot_2.append(second[1])
    if not slot_1:
        raise DataError("no pair has exactly two annotations")
    n = len(slot_1)
    observed = sum(a == b for a, b in zip(slot_1, slot_2)) / n
    marginals_1 = Counter(slot_1)
    marginals_2 = Counter(slot_2)
    chance = math.fsum(
        (marginals_1[category] / n) * (marginals_2[category] / n)
        for category in set(marginals_1) | set(marginals_2)
    )
    if chance >= 1.0:
        kappa = 1.0 if observed == 1.0 else 0.0
    else:
        kappa = (observed - chance) / (1.0 - chance)
    return AgreementReport(
        percent_agreement=observed,
        cohens_kappa=kappa,
        pairs_used=n,
        pairs_excluded=excluded,
    )
