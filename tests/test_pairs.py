from __future__ import annotations

import dataclasses
import json
import random
from collections import Counter

import pytest

from triagerank.compare import Winner
from triagerank.corpus import LabeledMessage, UrgencyLabel, save_corpus
from triagerank.errors import (
    BadLabel,
    ConfigError,
    EqualLabels,
    ExportFailed,
    InsufficientLevel,
    NoTriplets,
    NoValidPairs,
)
from triagerank.pairs import (
    Difficulty,
    EvalPair,
    _CrossLevelPairs,
    InboxSpec,
    Triplet,
    assemble_inbox,
    build_eval_pairs,
    build_triplets,
    difficulty_for_gap,
    export_reward,
    export_sft,
    read_eval_pairs,
    read_triplets,
    write_eval_pairs,
    write_triplets,
)

from .conftest import level_corpus, make_labeled, make_message


# ---------------------------------------------------------------- difficulty


def test_difficulty_examples():
    easy = EvalPair(make_labeled("a", 1), make_labeled("b", 5))
    assert easy.difficulty is Difficulty.EASY and easy.gap == 4
    hard = EvalPair(make_labeled("a", 2), make_labeled("b", 3))
    assert hard.difficulty is Difficulty.HARD and hard.gap == 1
    medium = EvalPair(make_labeled("a", 1), make_labeled("b", 3))
    assert medium.difficulty is Difficulty.MEDIUM and medium.gap == 2


def test_difficulty_for_all_gaps():
    assert difficulty_for_gap(5) is Difficulty.EASY
    assert difficulty_for_gap(4) is Difficulty.EASY
    assert difficulty_for_gap(3) is Difficulty.MEDIUM
    assert difficulty_for_gap(2) is Difficulty.MEDIUM
    assert difficulty_for_gap(1) is Difficulty.HARD
    with pytest.raises(EqualLabels):
        difficulty_for_gap(0)


def test_swap_flips_gold_preserves_difficulty():
    rng = random.Random(2)
    for _ in range(200):
        level_a = rng.randint(1, 6)
        level_b = rng.randint(1, 6)
        if level_a == level_b:
            continue
        pair = EvalPair(make_labeled("a", level_a), make_labeled("b", level_b))
        swapped = EvalPair(pair.b, pair.a)
        assert swapped.gold_more_urgent is not pair.gold_more_urgent
        assert swapped.difficulty is pair.difficulty
        assert swapped.gap == pair.gap


def test_equal_levels_rejected():
    with pytest.raises(EqualLabels):
        EvalPair(make_labeled("a", 3), make_labeled("b", 3))


def test_eval_pair_holds_only_its_two_messages():
    assert [field.name for field in dataclasses.fields(EvalPair)] == ["a", "b"]
    with pytest.raises(BadLabel):
        EvalPair(LabeledMessage(make_message("s"), UrgencyLabel.UNCLEAR), make_labeled("b", 3))


# ---------------------------------------------------------------- build pairs


def test_build_eval_pairs_count_and_fields(fixture_corpus):
    pairs = build_eval_pairs(fixture_corpus, count=50, seed=1)
    assert len(pairs) == 50
    for pair in pairs:
        assert pair.a.level != pair.b.level
        assert pair.gap == abs(pair.a.level - pair.b.level)
        more = pair.a if pair.gold_more_urgent is Winner.A else pair.b
        less = pair.b if pair.gold_more_urgent is Winner.A else pair.a
        assert more.level < less.level


def test_build_eval_pairs_returns_all_feasible_when_short():
    corpus = level_corpus({1: 1, 6: 1})
    pairs = build_eval_pairs(corpus, count=10, seed=0)
    assert len(pairs) == 1


def test_build_eval_pairs_single_level_error():
    with pytest.raises(NoValidPairs):
        build_eval_pairs(level_corpus({3: 10}), count=5, seed=0)


def test_build_eval_pairs_reproducible(fixture_corpus):
    first = build_eval_pairs(fixture_corpus, count=40, seed=9)
    second = build_eval_pairs(fixture_corpus, count=40, seed=9)
    assert first == second
    different = build_eval_pairs(fixture_corpus, count=40, seed=10)
    assert first != different


def test_build_eval_pairs_orientation_varies(fixture_corpus):
    pairs = build_eval_pairs(fixture_corpus, count=60, seed=3)
    golds = Counter(pair.gold_more_urgent for pair in pairs)
    assert golds[Winner.A] > 5
    assert golds[Winner.B] > 5


def test_build_eval_pairs_quotas(fixture_corpus):
    quotas = {Difficulty.EASY: 7, Difficulty.HARD: 11}
    pairs = build_eval_pairs(fixture_corpus, count=0, seed=4, difficulty_quotas=quotas)
    counts = Counter(pair.difficulty for pair in pairs)
    assert counts[Difficulty.EASY] == 7
    assert counts[Difficulty.HARD] == 11
    assert counts[Difficulty.MEDIUM] == 0


def test_eval_pairs_file_round_trip(tmp_path, fixture_corpus):
    pairs = build_eval_pairs(fixture_corpus, count=12, seed=5)
    path = tmp_path / "pairs.jsonl"
    assert write_eval_pairs(pairs, path) == 12
    assert read_eval_pairs(path) == pairs


def test_read_eval_pairs_derives_fields_from_levels(tmp_path):
    record = EvalPair(make_labeled("a", 1), make_labeled("b", 3)).to_record()
    record.update(gold_more_urgent="B", difficulty="hard", gap=5)
    path = tmp_path / "pairs.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    (pair,) = read_eval_pairs(path)
    assert pair.gold_more_urgent is Winner.A
    assert pair.gap == 2
    assert pair.difficulty is Difficulty.MEDIUM


def _random_corpus(rng: random.Random, size: int, id_pool: int | None = None):
    """Random levels with some sentinel records; ``id_pool`` reuses ids."""
    corpus = []
    for index in range(size):
        message_id = f"r{rng.randrange(id_pool) if id_pool else index:03d}"
        token = rng.choice(["L1", "L2", "L3", "L4", "L5", "L6", "UNCLEAR", "SUPPORTIVE_CARE"])
        corpus.append(LabeledMessage(message=make_message(message_id), label=UrgencyLabel(token)))
    return corpus


# level gaps of all pairs, then of the easy, medium and hard strata
STRATUM_GAPS = (range(1, 6), (4, 5), (2, 3), (1,))


def test_cross_level_index_equals_materialised_list():
    rng = random.Random(17)
    for _ in range(60):
        corpus = _random_corpus(rng, rng.randrange(0, 40))
        levels = [labeled.level for labeled in corpus if labeled.label.is_ordinal]
        for gaps in STRATUM_GAPS:
            expected = [
                (i, j)
                for i in range(len(levels))
                for j in range(i + 1, len(levels))
                if abs(levels[i] - levels[j]) in gaps
            ]
            index = _CrossLevelPairs(levels, gaps)
            assert len(index) == len(expected)
            assert [index[k] for k in range(len(index))] == expected
            assert list(index) == expected
            for out_of_range in (len(expected), -len(expected) - 1):
                with pytest.raises(IndexError):
                    index[out_of_range]


def _materialised_eval_pairs(corpus, count, seed, difficulty_quotas=None):
    """build_eval_pairs as it was written over the full candidate list."""
    ordinal = [labeled for labeled in corpus if labeled.label.is_ordinal]
    candidates = [
        (i, j)
        for i in range(len(ordinal))
        for j in range(i + 1, len(ordinal))
        if ordinal[i].level != ordinal[j].level
    ]
    rng = random.Random(seed)

    def _draw(pool, wanted):
        chosen = pool if wanted >= len(pool) else rng.sample(pool, wanted)
        drawn = []
        for i, j in chosen:
            first, second = (i, j) if rng.random() < 0.5 else (j, i)
            drawn.append(EvalPair(ordinal[first], ordinal[second]))
        return drawn

    if difficulty_quotas is None:
        return _draw(candidates, count)
    pairs = []
    for difficulty in Difficulty:
        wanted = difficulty_quotas.get(difficulty, 0)
        if wanted > 0:
            pool = [
                (i, j)
                for i, j in candidates
                if difficulty_for_gap(abs(ordinal[i].level - ordinal[j].level)) is difficulty
            ]
            pairs.extend(_draw(pool, wanted))
    return pairs


def test_build_eval_pairs_same_sample_as_materialised_candidates():
    rng = random.Random(23)
    checked = 0
    while checked < 40:
        corpus = _random_corpus(rng, rng.randrange(2, 70))
        if len({labeled.level for labeled in corpus if labeled.label.is_ordinal}) < 2:
            continue
        checked += 1
        seed = rng.randrange(1000)
        # count >= len(pool) takes every candidate; below that, random.sample
        # copies a small pool into a list and indexes a large one directly
        for count in (0, 1, 7, 200, 10_000):
            assert build_eval_pairs(corpus, count, seed) == _materialised_eval_pairs(
                corpus, count, seed
            )
        quotas = {difficulty: rng.randrange(0, 40) for difficulty in Difficulty}
        for stratum in Difficulty:
            quotas_one = {stratum: rng.randrange(1, 400)}
            assert build_eval_pairs(corpus, 0, seed, quotas_one) == _materialised_eval_pairs(
                corpus, 0, seed, quotas_one
            )
        assert build_eval_pairs(corpus, 0, seed, quotas) == _materialised_eval_pairs(
            corpus, 0, seed, quotas
        )


# ------------------------------------------------------------------- triplets


def test_forced_triplet_composition():
    corpus = [make_labeled("hi", 1), make_labeled("mid", 3), make_labeled("lo", 6)]
    (triplet,) = build_triplets(corpus, max_uses_per_message=4, seed=0)
    assert triplet.anchor.id == "mid"
    assert triplet.more_urgent.id == "hi"
    assert triplet.less_urgent.id == "lo"


def test_no_triplets_from_extreme_levels_only():
    with pytest.raises(NoTriplets):
        build_triplets(level_corpus({1: 3, 6: 3}), max_uses_per_message=4, seed=0)


def test_partner_usage_cap_respected():
    # two anchors share the single L1 message; with cap=1 it appears once
    corpus = [
        make_labeled("only_l1", 1),
        make_labeled("anchor1", 3),
        make_labeled("anchor2", 4),
        make_labeled("low1", 6),
        make_labeled("low2", 6),
    ]
    triplets = build_triplets(corpus, max_uses_per_message=1, seed=0)
    uses = Counter()
    for triplet in triplets:
        uses[triplet.more_urgent.id] += 1
        uses[triplet.less_urgent.id] += 1
    assert uses["only_l1"] <= 1
    assert max(uses.values()) <= 1


def test_partner_usage_cap_respected_at_scale():
    corpus = level_corpus({level: 6 for level in range(1, 7)})
    cap = 3
    triplets = build_triplets(corpus, max_uses_per_message=cap, seed=7, count=200)
    uses = Counter()
    for triplet in triplets:
        uses[triplet.more_urgent.id] += 1
        uses[triplet.less_urgent.id] += 1
    assert max(uses.values()) <= cap


def test_triplet_levels_valid(fixture_corpus):
    for triplet in build_triplets(fixture_corpus, max_uses_per_message=4, seed=1):
        assert 2 <= triplet.anchor.level <= 5
        assert triplet.more_urgent.level < triplet.anchor.level
        assert triplet.less_urgent.level > triplet.anchor.level


def test_triplets_reproducible(fixture_corpus):
    assert build_triplets(fixture_corpus, 4, seed=2) == build_triplets(
        fixture_corpus, 4, seed=2
    )


def _rescanning_triplets(corpus, max_uses_per_message, seed, count=None):
    """build_triplets as it was written, rescanning every level per pick."""
    levels = {}
    for labeled in corpus:
        if labeled.label.is_ordinal:
            levels.setdefault(labeled.level, []).append(labeled)
    anchors = [labeled for level in (2, 3, 4, 5) for labeled in levels.get(level, ())]
    rng = random.Random(seed)
    usage = Counter()
    triplets = []

    def _pick_partner(eligible_levels):
        available = [
            level
            for level in eligible_levels
            if any(usage[m.id] < max_uses_per_message for m in levels.get(level, ()))
        ]
        if not available:
            return None
        level = rng.choice(available)
        return rng.choice([m for m in levels[level] if usage[m.id] < max_uses_per_message])

    while True:
        progressed = False
        for anchor in rng.sample(anchors, len(anchors)):
            if count is not None and len(triplets) >= count:
                break
            more = _pick_partner(list(range(1, anchor.level)))
            less = _pick_partner(list(range(anchor.level + 1, 7)))
            if more is None or less is None:
                continue
            usage[more.id] += 1
            usage[less.id] += 1
            triplets.append(Triplet(anchor=anchor, more_urgent=more, less_urgent=less))
            progressed = True
        if count is None or len(triplets) >= count or not progressed:
            break
    return triplets


def test_build_triplets_same_as_rescanning_partners():
    rng = random.Random(29)
    checked = 0
    while checked < 40:
        # every third corpus reuses ids across levels, which share one cap
        id_pool = 15 if checked % 3 == 0 else None
        corpus = _random_corpus(rng, rng.randrange(3, 60), id_pool)
        seed = rng.randrange(1000)
        expected = _rescanning_triplets(corpus, 1, seed)
        if not expected:
            continue
        checked += 1
        for cap, count in ((1, None), (2, None), (4, None), (2, 5), (3, 500)):
            assert build_triplets(corpus, cap, seed, count) == _rescanning_triplets(
                corpus, cap, seed, count
            )


def test_triplet_invariant_enforced():
    with pytest.raises(NoTriplets):
        Triplet(
            anchor=make_labeled("a", 1),
            more_urgent=make_labeled("b", 2),
            less_urgent=make_labeled("c", 3),
        )


def test_bad_cap_rejected(fixture_corpus):
    with pytest.raises(ConfigError):
        build_triplets(fixture_corpus, max_uses_per_message=0, seed=0)
    with pytest.raises(ConfigError):
        build_triplets(fixture_corpus, max_uses_per_message=4, seed=0, count=0)
    with pytest.raises(ConfigError):
        build_eval_pairs(fixture_corpus, count=-1, seed=0)


def test_triplets_file_round_trip(tmp_path, fixture_corpus):
    triplets = build_triplets(fixture_corpus, 4, seed=3)
    path = tmp_path / "triplets.jsonl"
    write_triplets(triplets, path)
    assert read_triplets(path) == triplets


# -------------------------------------------------------------------- exports


def test_sft_export_cardinality_and_balance(tmp_path):
    corpus = [make_labeled("hi", 1), make_labeled("mid", 3), make_labeled("lo", 6)]
    (triplet,) = build_triplets(corpus, 4, seed=0)
    summary = export_sft([triplet], tmp_path / "sft.jsonl")
    assert summary.records == 4
    lines = [
        json.loads(line)
        for line in (tmp_path / "sft.jsonl").read_text().splitlines()
    ]
    targets = Counter(line["completion"] for line in lines)
    assert targets == {"YES": 2, "NO": 2}


def test_sft_export_linear_count(tmp_path, fixture_corpus):
    triplets = build_triplets(fixture_corpus, 4, seed=1, count=10)
    assert len(triplets) == 10
    summary = export_sft(triplets, tmp_path / "sft.jsonl")
    assert summary.records == 40


def _written(path):
    """The records of a written JSONL file."""
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_sft_anchor_more_records_target_yes(tmp_path):
    corpus = [make_labeled("hi", 1), make_labeled("mid", 3), make_labeled("lo", 6)]
    (triplet,) = build_triplets(corpus, 4, seed=0)
    export_sft([triplet], tmp_path / "sft.jsonl")
    records = _written(tmp_path / "sft.jsonl")
    anchor_text = triplet.anchor.message.text
    more_text = triplet.more_urgent.message.text
    for record in records:
        existing = record["prompt"].split("### Existing Patient: ")[1].split("\n")[0]
        new = record["prompt"].split("### New Patient: ")[1].split("\n")[0]
        if existing == anchor_text and new == more_text:
            assert record["completion"] == "YES"
        if existing == more_text and new == anchor_text:
            assert record["completion"] == "NO"


def test_reward_export_pairing(tmp_path):
    corpus = [make_labeled("hi", 1), make_labeled("mid", 3), make_labeled("lo", 6)]
    (triplet,) = build_triplets(corpus, 4, seed=0)
    summary = export_reward([triplet], tmp_path / "reward.jsonl")
    assert summary.records == 2
    forward, inverse = [
        json.loads(line)
        for line in (tmp_path / "reward.jsonl").read_text().splitlines()
    ]
    assert "more medically urgent" in forward["prompt"]
    assert forward["chosen"] == triplet.more_urgent.message.text
    assert forward["rejected"] == triplet.less_urgent.message.text
    assert "less medically urgent" in inverse["prompt"]
    assert inverse["chosen"] == triplet.less_urgent.message.text
    assert inverse["rejected"] == triplet.more_urgent.message.text


def test_reward_count_is_half_of_sft(tmp_path, fixture_corpus):
    triplets = build_triplets(fixture_corpus, 4, seed=6, count=5)
    export_reward(triplets, tmp_path / "reward.jsonl")
    export_sft(triplets, tmp_path / "sft.jsonl")
    reward = _written(tmp_path / "reward.jsonl")
    assert len(reward) * 2 == len(_written(tmp_path / "sft.jsonl"))


def test_sft_export_exactly_balanced_any_triplets(tmp_path, fixture_corpus):
    triplets = build_triplets(fixture_corpus, 4, seed=8)
    export_sft(triplets, tmp_path / "sft.jsonl")
    records = _written(tmp_path / "sft.jsonl")
    targets = Counter(record["completion"] for record in records)
    assert targets["YES"] == targets["NO"] == len(triplets) * 2


def test_exports_byte_identical_across_runs(tmp_path, fixture_corpus):
    for name, exporter in (("sft", export_sft), ("reward", export_reward)):
        first = tmp_path / f"{name}_1.jsonl"
        second = tmp_path / f"{name}_2.jsonl"
        exporter(build_triplets(fixture_corpus, 4, seed=5), first)
        exporter(build_triplets(fixture_corpus, 4, seed=5), second)
        assert first.read_bytes() == second.read_bytes()


def test_export_empty_rejected(tmp_path):
    with pytest.raises(NoTriplets):
        export_sft([], tmp_path / "sft.jsonl")
    with pytest.raises(NoTriplets):
        export_reward([], tmp_path / "reward.jsonl")


def _triplets(corpus):
    return build_triplets(corpus, 4, seed=0, count=1)


# each record-file writer, with what it writes drawn from the corpus
_WRITERS = {
    "save_corpus": (save_corpus, list),
    "write_eval_pairs": (write_eval_pairs, lambda corpus: build_eval_pairs(corpus, 2, 0)),
    "write_triplets": (write_triplets, _triplets),
    "export_sft": (export_sft, _triplets),
    "export_reward": (export_reward, _triplets),
}


@pytest.mark.parametrize("writer_name", list(_WRITERS))
def test_export_io_failure(tmp_path, fixture_corpus, writer_name):
    writer, items = _WRITERS[writer_name]
    with pytest.raises(ExportFailed):
        writer(items(fixture_corpus), tmp_path / "missing_dir" / "out.jsonl")


# --------------------------------------------------------------------- inbox


def test_assemble_uniform_inbox(fixture_corpus):
    inbox = assemble_inbox(fixture_corpus, InboxSpec((5,) * 6, seed=0))
    assert len(inbox) == 30
    counts = Counter(labeled.level for labeled in inbox)
    assert all(counts[level] == 5 for level in range(1, 7))


def test_assemble_skewed_inbox():
    corpus = level_corpus({level: 8 for level in range(1, 7)})
    spec = InboxSpec((5, 3, 5, 7, 7, 4), seed=1)
    inbox = assemble_inbox(corpus, spec)
    assert len(inbox) == 31
    counts = Counter(labeled.level for labeled in inbox)
    assert [counts[level] for level in range(1, 7)] == [5, 3, 5, 7, 7, 4]


def test_assemble_insufficient_level():
    corpus = level_corpus({1: 3, 2: 5, 3: 5, 4: 5, 5: 5, 6: 5})
    with pytest.raises(InsufficientLevel) as excinfo:
        assemble_inbox(corpus, InboxSpec((5,) * 6, seed=0))
    assert excinfo.value.label.value == "L1"


def test_assemble_seeded_and_shuffled(fixture_corpus):
    spec = InboxSpec((5,) * 6, seed=11)
    first = assemble_inbox(fixture_corpus, spec)
    second = assemble_inbox(fixture_corpus, spec)
    assert first == second
    levels = [labeled.level for labeled in first]
    assert levels != sorted(levels)  # initial order is shuffled, not grouped


def test_inbox_spec_validation():
    for counts in ((5,) * 5, (5,) * 7, (5, 5, 5, 5, 5, -1), (1, 0, 0, 0, 0, 0)):
        with pytest.raises(ConfigError):
            InboxSpec(counts, seed=0)
    assert InboxSpec([1, 0, 0, 0, 0, 1]).counts == (1, 0, 0, 0, 0, 1)
