from __future__ import annotations

import itertools
import random

import pytest

from triagerank.annotate import auto_label_corpus, classify_response, sextile_classes
from triagerank.compare import NoisyOracleComparator, perfect_oracle
from triagerank.corpus import UrgencyLabel
from triagerank.errors import TooFewMessages
from triagerank.rank import run_tournament

from .conftest import make_labeled, make_message


# ----------------------------------------------------------------- classifier


def test_classifier_ed_directive_is_l1():
    assert classify_response("go to the emergency room now") is UrgencyLabel.L1


def test_classifier_self_care_is_l5():
    label = classify_response("self-care strategies: rest and hydrate")
    assert label is UrgencyLabel.L5


def test_classifier_supportive_care_sentinel():
    label = classify_response("I recommend physical therapy twice a week for this")
    assert label is UrgencyLabel.SUPPORTIVE_CARE


def test_classifier_unmatched_is_unclear():
    assert classify_response("thanks for the update") is UrgencyLabel.UNCLEAR


def test_classifier_reproduces_fixture_labels(fixture_corpus):
    for labeled in fixture_corpus:
        derived = classify_response(labeled.message.clinician_response)
        assert derived is labeled.label, labeled.id


# ----------------------------------------------------------------- auto-label


def test_auto_label_skips_missing_response(caplog):
    messages = [
        make_message("a", response="go to the emergency room now"),
        make_message("b"),  # no response
    ]
    with caplog.at_level("WARNING"):
        labeled = auto_label_corpus(messages)
    assert [item.id for item in labeled] == ["a"]
    assert labeled[0].label is UrgencyLabel.L1
    assert any("MissingResponse" in record.message for record in caplog.records)


def test_auto_label_retains_sentinels():
    messages = [make_message("a", response="see your physical therapist")]
    labeled = auto_label_corpus(messages)
    assert labeled[0].label is UrgencyLabel.SUPPORTIVE_CARE


# -------------------------------------------------------------------- sextile


def _ranking(n):
    return [f"id{i:03d}" for i in range(n)]


def test_sextile_30_messages_five_per_level():
    ranking = _ranking(30)
    assert sextile_classes(ranking) == [ranking[start:start + 5] for start in range(0, 30, 5)]


def test_sextile_six_distinct_one_per_level():
    assert sextile_classes(("a", "b", "c", "d", "e", "f")) == [
        ["a"], ["b"], ["c"], ["d"], ["e"], ["f"],
    ]


def test_sextile_tie_at_boundary_broken_by_id():
    """Brute-force over inbox permutations: the classes of the ranking are fixed."""
    # x and y tie exactly and sit either side of a class boundary of a 6-message inbox
    corpus = [
        make_labeled("a", 1), make_labeled("x", 3), make_labeled("y", 3),
        make_labeled("d", 4), make_labeled("e", 5), make_labeled("f", 6),
    ]
    oracle = perfect_oracle(corpus)
    for permutation in itertools.permutations(corpus):
        result = run_tournament([labeled.message for labeled in permutation], oracle)
        assert result.scores["x"] == result.scores["y"]
        # ascending id wins the tie
        assert sextile_classes(result.ranking) == [["a"], ["x"], ["y"], ["d"], ["e"], ["f"]]


def test_sextile_block_sizes_differ_by_at_most_one():
    for n in range(6, 32):
        ranking = _ranking(n)
        classes = sextile_classes(ranking)
        sizes = [len(group) for group in classes]
        # contiguous slices, in ranking order, each id once
        assert [message_id for group in classes for message_id in group] == ranking
        assert len(sizes) == 6
        assert max(sizes) - min(sizes) <= 1
        # larger blocks sit at the most-urgent end
        assert sizes == sorted(sizes, reverse=True)


def test_sextile_assigns_every_id_once_order_invariant():
    """A tournament's classes hold every id once, whatever the inbox order."""
    rng = random.Random(5)
    corpus = [make_labeled(f"id{i:03d}", rng.randint(1, 6)) for i in range(17)]
    oracle = NoisyOracleComparator(corpus, {1: 0.3, 2: 0.15}, seed=5)
    result = run_tournament([labeled.message for labeled in corpus], oracle)
    classes = sextile_classes(result.ranking)
    assert sorted(message_id for group in classes for message_id in group) == sorted(
        labeled.id for labeled in corpus
    )
    shuffled = corpus[:]
    rng.shuffle(shuffled)
    result = run_tournament([labeled.message for labeled in shuffled], oracle)
    assert sextile_classes(result.ranking) == classes


def test_sextile_classes_need_six_messages():
    for n in range(6):
        with pytest.raises(TooFewMessages):
            sextile_classes(_ranking(n))
