from __future__ import annotations

import itertools
import random

import pytest

from triagerank.annotate import (
    JudgedPair,
    JudgeVariant,
    KeywordResponseClassifier,
    OrdinalPairJudge,
    Verdict,
    apply_inclusion,
    auto_label_corpus,
    filter_pairs,
    is_adult,
    read_judged_pairs,
    sextile_labels_from_winrate,
    write_judged_pairs,
)
from triagerank.compare import Winner
from triagerank.corpus import EhrRecord, LabeledMessage, UrgencyLabel
from triagerank.errors import BadLabel, DataError, EqualLabels, TooFewMessages

from .conftest import make_labeled, make_message


# ----------------------------------------------------------------- classifier


def test_classifier_ed_directive_is_l1():
    classifier = KeywordResponseClassifier()
    label = classifier.classify("go to the emergency room now", "chest pain")
    assert label is UrgencyLabel.L1


def test_classifier_self_care_is_l5():
    classifier = KeywordResponseClassifier()
    label = classifier.classify("self-care strategies: rest and hydrate", "cold")
    assert label is UrgencyLabel.L5


def test_classifier_supportive_care_sentinel():
    classifier = KeywordResponseClassifier()
    label = classifier.classify(
        "I recommend physical therapy twice a week for this", "knee"
    )
    assert label is UrgencyLabel.SUPPORTIVE_CARE


def test_classifier_unmatched_is_unclear():
    classifier = KeywordResponseClassifier()
    assert classifier.classify("thanks for the update", "note") is UrgencyLabel.UNCLEAR


def test_classifier_reproduces_fixture_labels(fixture_corpus):
    classifier = KeywordResponseClassifier()
    for labeled in fixture_corpus:
        derived = classifier.classify(
            labeled.message.clinician_response, labeled.message.text
        )
        assert derived is labeled.label, labeled.id


# ----------------------------------------------------------------- auto-label


def test_auto_label_skips_missing_response(caplog):
    messages = [
        make_message("a", response="go to the emergency room now"),
        make_message("b"),  # no response
    ]
    with caplog.at_level("WARNING"):
        labeled = auto_label_corpus(messages, KeywordResponseClassifier())
    assert [item.id for item in labeled] == ["a"]
    assert labeled[0].label is UrgencyLabel.L1
    assert any("MissingResponse" in record.message for record in caplog.records)


def test_auto_label_retains_sentinels():
    messages = [make_message("a", response="see your physical therapist")]
    labeled = auto_label_corpus(messages, KeywordResponseClassifier())
    assert labeled[0].label is UrgencyLabel.SUPPORTIVE_CARE


# ------------------------------------------------------------------ filtration


class ScriptedJudge:
    def __init__(self, verdicts: dict[JudgeVariant, Verdict]):
        self.verdicts = verdicts

    def judge(self, a, b, variant):
        return self.verdicts[variant]


def _pair():
    return make_labeled("a", 1), make_labeled("b", 4)


def test_filter_pairs_accepts_double_confirmation():
    judge = ScriptedJudge(
        {JudgeVariant.V1: Verdict.A_MORE_URGENT, JudgeVariant.V2: Verdict.A_MORE_URGENT}
    )
    (judged,) = filter_pairs([_pair()], judge)
    assert judged.auto_label is Winner.A
    assert judged.accepted is True


def test_filter_pairs_unclear_rejects():
    judge = ScriptedJudge(
        {JudgeVariant.V1: Verdict.A_MORE_URGENT, JudgeVariant.V2: Verdict.UNCLEAR}
    )
    (judged,) = filter_pairs([_pair()], judge)
    assert judged.accepted is False


def test_filter_pairs_disagreement_rejects():
    # auto-label favors B (levels 4 vs 1 flipped) but both verdicts say A
    pair = (make_labeled("a", 4), make_labeled("b", 1))
    judge = ScriptedJudge(
        {JudgeVariant.V1: Verdict.A_MORE_URGENT, JudgeVariant.V2: Verdict.A_MORE_URGENT}
    )
    (judged,) = filter_pairs([pair], judge)
    assert judged.auto_label is Winner.B
    assert judged.accepted is False


def test_filter_pairs_equal_labels_error():
    with pytest.raises(EqualLabels):
        filter_pairs([(make_labeled("a", 3), make_labeled("b", 3))], OrdinalPairJudge())


def test_filter_pairs_sentinel_error():
    sentinel = LabeledMessage(make_message("s"), UrgencyLabel.UNCLEAR)
    with pytest.raises(BadLabel):
        filter_pairs([(sentinel, make_labeled("b", 3))], OrdinalPairJudge())


@pytest.mark.parametrize(
    "last, error",
    [
        ((make_labeled("c", 3), make_labeled("d", 3)), EqualLabels),
        ((make_labeled("c", 3), LabeledMessage(make_message("s"), UrgencyLabel.UNCLEAR)), BadLabel),
    ],
    ids=["equal-levels", "sentinel"],
)
def test_filter_pairs_checks_every_pair_before_judging(last, error):
    calls = []

    class CountingJudge(OrdinalPairJudge):
        def judge(self, a, b, variant):
            calls.append((a.id, b.id, variant))
            return super().judge(a, b, variant)

    with pytest.raises(error):
        filter_pairs([_pair(), _pair(), last], CountingJudge())
    assert calls == []


def test_acceptance_monotone_in_unclear():
    """Flipping any verdict to UNCLEAR never turns a rejection into an acceptance."""
    verdicts = list(Verdict)
    for auto_side, v1, v2 in itertools.product((Winner.A, Winner.B), verdicts, verdicts):
        pair = (
            (make_labeled("a", 1), make_labeled("b", 4))
            if auto_side is Winner.A
            else (make_labeled("a", 4), make_labeled("b", 1))
        )
        judge = ScriptedJudge({JudgeVariant.V1: v1, JudgeVariant.V2: v2})
        (base,) = filter_pairs([pair], judge)
        for position in (JudgeVariant.V1, JudgeVariant.V2):
            flipped_verdicts = {JudgeVariant.V1: v1, JudgeVariant.V2: v2}
            flipped_verdicts[position] = Verdict.UNCLEAR
            (flipped,) = filter_pairs([pair], ScriptedJudge(flipped_verdicts))
            if not base.accepted:
                assert not flipped.accepted


def test_judged_pair_consistency_enforced():
    with pytest.raises(DataError):
        JudgedPair(
            a_id="a",
            b_id="b",
            auto_label=Winner.A,
            verdict_v1=Verdict.UNCLEAR,
            verdict_v2=Verdict.A_MORE_URGENT,
            accepted=True,
        )


def test_ordinal_mock_judge():
    judge = OrdinalPairJudge()
    a, b = make_labeled("a", 2), make_labeled("b", 5)
    assert judge.judge(a, b, JudgeVariant.V1) is Verdict.A_MORE_URGENT
    assert judge.judge(b, a, JudgeVariant.V1) is Verdict.B_MORE_URGENT
    cautious = OrdinalPairJudge(unclear_below_gap=4)
    assert cautious.judge(a, b, JudgeVariant.V1) is Verdict.UNCLEAR


def test_audit_log_round_trip(tmp_path):
    judge = OrdinalPairJudge()
    judged = filter_pairs([_pair(), (make_labeled("c", 5), make_labeled("d", 2))], judge)
    path = tmp_path / "audit.jsonl"
    assert write_judged_pairs(judged, path) == 2
    assert read_judged_pairs(path) == judged


# -------------------------------------------------------------------- sextile


def test_sextile_30_messages_five_per_level():
    inbox = [(f"m{i:02d}", 100.0 - i) for i in range(30)]
    labels = sextile_labels_from_winrate(inbox)
    for index in range(30):
        expected_level = index // 5 + 1
        assert labels[f"m{index:02d}"].level == expected_level


def test_sextile_six_distinct_one_per_level():
    inbox = [("f", 0.1), ("a", 0.9), ("c", 0.5), ("b", 0.7), ("e", 0.2), ("d", 0.3)]
    labels = sextile_labels_from_winrate(inbox)
    assert labels["a"] is UrgencyLabel.L1
    assert labels["f"] is UrgencyLabel.L6
    assert sorted(label.level for label in labels.values()) == [1, 2, 3, 4, 5, 6]


def test_sextile_tie_at_boundary_broken_by_id():
    """Brute-force over permutations of tied ids: the assignment is fixed."""
    # x and y tie exactly at a block boundary of a 6-message inbox
    base = [("a", 0.9), ("x", 0.5), ("y", 0.5), ("d", 0.3), ("e", 0.2), ("f", 0.1)]
    expected = sextile_labels_from_winrate(base)
    assert expected["x"].level < expected["y"].level  # ascending id wins the tie
    for permutation in itertools.permutations(base):
        assert sextile_labels_from_winrate(list(permutation)) == expected


def test_sextile_block_sizes_differ_by_at_most_one():
    for n in (6, 7, 11, 13, 29, 30, 31):
        inbox = [(f"id{i:03d}", float(n - i)) for i in range(n)]
        labels = sextile_labels_from_winrate(inbox)
        sizes = [
            sum(1 for label in labels.values() if label.level == level)
            for level in range(1, 7)
        ]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        # larger blocks sit at the most-urgent end
        assert sizes == sorted(sizes, reverse=True)


def test_sextile_assigns_every_id_once_order_invariant():
    rng = random.Random(5)
    inbox = [(f"id{i:03d}", rng.random()) for i in range(17)]
    labels = sextile_labels_from_winrate(inbox)
    assert set(labels) == {message_id for message_id, _ in inbox}
    shuffled = inbox[:]
    rng.shuffle(shuffled)
    assert sextile_labels_from_winrate(shuffled) == labels


def test_sextile_too_few_and_nonfinite():
    with pytest.raises(TooFewMessages):
        sextile_labels_from_winrate([("a", 1.0)] * 5)
    with pytest.raises(DataError):
        sextile_labels_from_winrate(
            [("a", float("nan"))] + [(f"b{i}", 1.0) for i in range(5)]
        )
    with pytest.raises(DataError):
        sextile_labels_from_winrate(
            [("dup", 1.0), ("dup", 0.9)] + [(f"c{i}", 0.5) for i in range(4)]
        )


# ------------------------------------------------------------------ inclusion


def test_is_adult_from_ehr():
    adult = make_message("a", ehr=EhrRecord(age=18))
    minor = make_message("b", ehr=EhrRecord(age=17))
    assert is_adult(adult)
    assert not is_adult(minor)


def test_is_adult_text_fallback():
    message = make_message("a", text="I am 34 years old with a rash")
    assert not is_adult(message)  # no EHR, no predicate: excluded
    assert is_adult(message, text_predicate=lambda text: "34" in text)


def test_apply_inclusion_filters():
    corpus = [
        make_labeled("a", 2, ehr=EhrRecord(age=40)),
        make_labeled("b", 3, ehr=EhrRecord(age=12)),
        make_labeled("c", 4),
    ]
    kept = apply_inclusion(corpus, is_adult)
    assert [labeled.id for labeled in kept] == ["a"]
