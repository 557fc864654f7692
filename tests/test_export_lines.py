"""The joined writers equal ``json.dumps(record, sort_keys=True)`` byte for byte.

``write_triplets``, ``export_sft`` and ``export_reward`` join each line from
pieces encoded once. The references here build every record whole, with
``prompts.render``, and dump it, as the exports did before they joined
pieces; the messages hold what JSON escapes, what the templates and ``%``
formats treat as markers, and code points outside the BMP.
"""

from __future__ import annotations

import json

import pytest

from triagerank import prompts
from triagerank.corpus import EhrRecord, Gender, LabeledMessage, Message, UrgencyLabel
from triagerank.pairs import (
    Triplet,
    build_triplets,
    export_reward,
    export_sft,
    write_triplets,
)

_TEXTS = [
    'He said "stop" and \\ left, \\"twice\\"',
    "tab\there\rreturn\nnewline\x00nul\x01\x1f\x7f\x85 end",
    "caf\u00e9 \u4e2d\u6587 \u2028 \u2029 \ufeff",
    "astral \U0001f600 \U0001f9e0 \U00010000 \U0010ffff",
    "lone \ud800 high, lone \udfff low, split \ud83d|\ude00",
    "ends in a high surrogate \ud83d",
    "asks {message_2} and {ehr_1} and {message} and {nope}",
    "percent %s %(message_1)s %% %",
    "### New Patient: a fake header\nEHR: not available",
    "\udc00 starts with a low surrogate",
]

_EHRS = [
    None,
    EhrRecord(),
    EhrRecord(
        problem_list=('a"b', "c\\d", "{ehr_2}", "%(ehr_1)s"),
        recent_diagnoses=("\U0001f600", "\ud800", "\t"),
        active_medications=("café",),
        age=150,
        gender=Gender.OTHER,
    ),
    EhrRecord(problem_list=("",), recent_diagnoses=(), active_medications=("; ",), age=3),
]


def _messages() -> list[LabeledMessage]:
    """Every text with every EHR, at levels 1..6 in turn."""
    corpus = []
    for index, text in enumerate(_TEXTS):
        for variant, ehr in enumerate(_EHRS):
            number = index * len(_EHRS) + variant
            corpus.append(
                LabeledMessage(
                    Message(
                        id=f'm{number} "ü\\',
                        text=text,
                        ehr=ehr,
                        clinician_response=None if number % 3 else f"reply {text}",
                    ),
                    UrgencyLabel(f"L{number % 6 + 1}"),
                )
            )
    return corpus


def _triplets() -> list[Triplet]:
    """Triplets that share message objects, plus ones built from equal copies."""
    corpus = _messages()
    shared = build_triplets(corpus, max_uses_per_message=4, seed=2, count=60)
    copies = [Triplet.from_record(triplet.to_record()) for triplet in shared[:10]]
    return shared + copies


def _reference_sft(triplets):
    for triplet in triplets:
        layout = (
            (triplet.anchor, triplet.more_urgent, "YES"),
            (triplet.anchor, triplet.less_urgent, "NO"),
            (triplet.more_urgent, triplet.anchor, "NO"),
            (triplet.less_urgent, triplet.anchor, "YES"),
        )
        for existing, new, target in layout:
            prompt = prompts.render(
                prompts.URGENT_SFT, prompts.pair_bindings(existing.message, new.message)
            )
            yield {"prompt": prompt, "completion": target}


def _reference_reward(triplets):
    for triplet in triplets:
        anchor_block = prompts.message_block(triplet.anchor.message)
        more_block = prompts.message_block(triplet.more_urgent.message)
        less_block = prompts.message_block(triplet.less_urgent.message)
        yield {
            "prompt": prompts.render(prompts.URGENT_REWARD, {"message": anchor_block}),
            "chosen": more_block,
            "rejected": less_block,
        }
        yield {
            "prompt": prompts.render(prompts.URGENT_REWARD_INVERSE, {"message": anchor_block}),
            "chosen": less_block,
            "rejected": more_block,
        }


def _reference_bytes(records) -> bytes:
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records).encode()


def test_the_messages_reach_every_case():
    triplets = _triplets()
    used = {id(labeled) for t in triplets for labeled in (t.anchor, t.more_urgent, t.less_urgent)}
    assert len(used) < 3 * len(triplets)  # some message objects recur
    texts = {labeled.message.text for t in triplets for labeled in (t.anchor, t.less_urgent)}
    assert texts == set(_TEXTS)
    ehrs = {labeled.message.ehr for t in triplets for labeled in (t.anchor, t.more_urgent)}
    assert ehrs == set(_EHRS)


@pytest.mark.parametrize(
    "export, reference",
    [(export_sft, _reference_sft), (export_reward, _reference_reward)],
    ids=["sft", "reward"],
)
def test_export_equals_the_dumped_records(tmp_path, export, reference):
    triplets = _triplets()
    summary = export(triplets, tmp_path / "out.jsonl")
    expected = _reference_bytes(reference(triplets))
    assert (tmp_path / "out.jsonl").read_bytes() == expected
    assert summary.records == expected.count(b"\n")


def test_write_triplets_equals_the_dumped_records(tmp_path):
    triplets = _triplets()
    assert write_triplets(triplets, tmp_path / "triplets.jsonl") == len(triplets)
    expected = _reference_bytes(triplet.to_record() for triplet in triplets)
    assert (tmp_path / "triplets.jsonl").read_bytes() == expected


def test_write_triplets_from_a_stream_of_short_lived_triplets(tmp_path):
    # each triplet is dropped once its line is joined, so a freed message's
    # id may be reused by the next one; the lines must not mix them up
    records = [triplet.to_record() for triplet in _triplets()]
    stream = (Triplet.from_record(record) for record in records)
    assert write_triplets(stream, tmp_path / "triplets.jsonl") == len(records)
    assert (tmp_path / "triplets.jsonl").read_bytes() == _reference_bytes(records)
