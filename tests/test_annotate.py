from __future__ import annotations

import itertools
import random

import pytest

from triagerank.annotate import (
    auto_label_corpus,
    classify_response,
    sextile_labels_from_winrate,
)
from triagerank.corpus import UrgencyLabel
from triagerank.errors import DataError, TooFewMessages

from .conftest import make_message


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

