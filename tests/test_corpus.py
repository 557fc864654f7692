from __future__ import annotations

import json
import os
import stat
from collections import Counter

import pytest

from triagerank import cli, corpus
from triagerank.corpus import (
    EhrRecord,
    Gender,
    LabeledMessage,
    Message,
    UrgencyLabel,
    load_corpus,
    load_messages,
    save_corpus,
    split_ordinal,
)
from triagerank.errors import (
    BadLabel,
    DataError,
    DuplicateId,
    EmptyMessage,
    ExportFailed,
    MalformedRecord,
)
from triagerank.pairs import EvalPair, Triplet, read_eval_pairs, read_triplets

from .conftest import make_labeled, make_message


def write_lines(tmp_path, lines, name="corpus.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def record(message_id="a", text="I feel unwell.", label="L3", **extra):
    base = {"id": message_id, "text": text, "label": label, "source": "synthetic_test"}
    base.update(extra)
    return json.dumps(base)


def test_load_two_valid_lines(tmp_path):
    path = write_lines(tmp_path, [record("a"), record("b", label="L1")])
    corpus = load_corpus(path)
    assert [labeled.id for labeled in corpus] == ["a", "b"]
    assert corpus[1].label is UrgencyLabel.L1


def test_unknown_label_reports_line_number(tmp_path):
    path = write_lines(tmp_path, [record("a"), record("b"), record("c", label="L7")])
    with pytest.raises(BadLabel) as excinfo:
        load_corpus(path)
    assert excinfo.value.line == 3


@pytest.mark.parametrize(
    "bad_id", [None, True, ["a"], 1.5], ids=["null", "true", "array", "float"]
)
def test_non_string_id_rejected_with_its_line(tmp_path, capsys, bad_id):
    path = write_lines(tmp_path, [record("a"), record(bad_id)])
    with pytest.raises(MalformedRecord) as excinfo:
        load_corpus(path)
    assert excinfo.value.line == 2
    assert cli.main(["load-validate", "--corpus", str(path)]) == 3
    assert "line 2: " in capsys.readouterr().err


def test_integer_id_loads_as_string(tmp_path):
    assert load_corpus(write_lines(tmp_path, [record(7)]))[0].id == "7"


def test_duplicate_id_rejected(tmp_path):
    path = write_lines(tmp_path, [record("a"), record("a")])
    for loader in (load_corpus, load_messages):
        with pytest.raises(DuplicateId) as excinfo:
            loader(path)
        assert excinfo.value.message_id == "a"
        assert excinfo.value.line == 2


def test_empty_text_rejected(tmp_path):
    path = write_lines(tmp_path, [record("a", text="   ")])
    with pytest.raises(EmptyMessage) as excinfo:
        load_corpus(path)
    assert excinfo.value.line == 1


def test_malformed_json_rejected_whole_file(tmp_path):
    path = write_lines(tmp_path, [record("a"), "{not json"])
    with pytest.raises(MalformedRecord) as excinfo:
        load_corpus(path)
    assert excinfo.value.line == 2


def test_round_trip_is_identity(tmp_path, fixture_corpus):
    out = tmp_path / "copy.jsonl"
    save_corpus(fixture_corpus, out)
    reloaded = load_corpus(out)
    assert reloaded == fixture_corpus
    # and a second round trip is byte-identical
    out2 = tmp_path / "copy2.jsonl"
    save_corpus(reloaded, out2)
    assert out.read_bytes() == out2.read_bytes()


def test_fixture_corpus_shape(fixture_corpus):
    assert len(fixture_corpus) == 30
    counts = Counter(labeled.label for labeled in fixture_corpus)
    assert all(counts[UrgencyLabel(f"L{level}")] == 5 for level in range(1, 7))
    assert all(labeled.message.clinician_response for labeled in fixture_corpus)
    assert all(labeled.message.ehr is not None for labeled in fixture_corpus)


def test_filter_ordinal_drops_sentinels():
    l2 = make_labeled("a", 2)
    unclear = LabeledMessage(message=l2.message, label=UrgencyLabel.UNCLEAR)
    l5 = make_labeled("b", 5)
    assert split_ordinal([l2, unclear, l5])[0] == [l2, l5]


def test_filter_ordinal_supportive_care_and_empty():
    supportive = LabeledMessage(
        message=make_labeled("s", 3).message, label=UrgencyLabel.SUPPORTIVE_CARE
    )
    assert split_ordinal([supportive])[0] == []
    assert split_ordinal([])[0] == []


def test_filter_ordinal_idempotent_and_counts():
    corpus = [
        make_labeled("a", 1),
        LabeledMessage(make_labeled("u", 1).message, UrgencyLabel.UNCLEAR),
        LabeledMessage(make_labeled("v", 1).message, UrgencyLabel.SUPPORTIVE_CARE),
        LabeledMessage(make_labeled("w", 1).message, UrgencyLabel.UNCLEAR),
    ]
    kept, removed = split_ordinal(corpus)
    assert [labeled.id for labeled in kept] == ["a"]
    assert removed[UrgencyLabel.UNCLEAR] == 2
    assert removed[UrgencyLabel.SUPPORTIVE_CARE] == 1
    assert split_ordinal(kept)[0] == kept


def test_ehr_validation():
    with pytest.raises(MalformedRecord):
        EhrRecord(age=151)
    with pytest.raises(MalformedRecord):
        EhrRecord(age=-1)
    ehr = EhrRecord(problem_list=["asthma"], age=150, gender=Gender.FEMALE)
    assert ehr.problem_list == ("asthma",)


def test_label_ordering_and_sentinels():
    assert UrgencyLabel.L1.level == 1
    assert UrgencyLabel.L6.level == 6
    assert not UrgencyLabel.UNCLEAR.is_ordinal
    with pytest.raises(BadLabel):
        UrgencyLabel.SUPPORTIVE_CARE.level
    with pytest.raises(BadLabel):
        UrgencyLabel.from_token("L0")


@pytest.mark.parametrize("label", list(UrgencyLabel), ids=lambda label: label.value)
def test_label_level_table_equals_the_rule_on_the_value(label):
    # the rule the table replaced: the two sentinels have no level, and an
    # ordinal label's level is the digit of its value
    ordinal = label not in (UrgencyLabel.UNCLEAR, UrgencyLabel.SUPPORTIVE_CARE)
    assert label.is_ordinal is ordinal
    if ordinal:
        assert label.level == int(label.value[1])
    else:
        with pytest.raises(BadLabel) as excinfo:
            label.level
        assert str(excinfo.value) == f"{label.value} has no ordinal level"


def test_load_messages_ignores_labels(tmp_path):
    path = write_lines(
        tmp_path,
        [record("a"), json.dumps({"id": "b", "text": "hi", "source": "reddit"})],
    )
    messages = load_messages(path)
    assert [message.id for message in messages] == ["a", "b"]
    assert isinstance(messages[0], Message)
    assert messages[1].source.value == "reddit"


def test_message_invariants():
    with pytest.raises(EmptyMessage):
        Message(id="x", text=" \n ")
    with pytest.raises(MalformedRecord):
        Message(id="  ", text="fine")


@pytest.mark.parametrize("bad_id", [7, None, b"a"], ids=repr)
def test_message_id_must_be_a_string(bad_id):
    # a record file's integer id is turned into a string by from_record
    with pytest.raises(MalformedRecord):
        Message(id=bad_id, text="fine")


def test_record_shape_validation(tmp_path):
    bad_records = [
        {"id": "a", "text": 5, "label": "L1"},
        {"id": "a", "text": "hi", "label": "L1", "ehr": "not an object"},
        {"id": "a", "text": "hi", "label": "L1", "clinician_response": 7},
        {"id": "a", "text": "hi", "label": "L1", "ehr": {"problem_list": "oops"}},
        {"id": "a", "text": "hi", "label": "L1", "ehr": {"age": "forty"}},
        {"id": "a", "text": "hi", "label": "L1", "ehr": {"gender": "robot"}},
    ]
    for record_dict in bad_records:
        path = write_lines(tmp_path, [json.dumps(record_dict)])
        with pytest.raises(MalformedRecord):
            load_corpus(path)


NON_STRING_ITEMS = pytest.mark.parametrize(
    "item", [None, 7, True, {"a": 1}], ids=["null", "number", "bool", "object"]
)


@NON_STRING_ITEMS
@pytest.mark.parametrize("field", ["problem_list", "recent_diagnoses", "active_medications"])
def test_ehr_list_item_must_be_a_string(item, field):
    with pytest.raises(MalformedRecord, match=field):
        EhrRecord.from_record({field: ["asthma", item]})


@NON_STRING_ITEMS
def test_ehr_non_string_item_exits_three(tmp_path, capsys, item):
    ehr = {"problem_list": ["asthma", item]}
    path = write_lines(tmp_path, [record("a"), record("b", ehr=ehr)])
    with pytest.raises(MalformedRecord) as excinfo:
        load_corpus(path)
    assert excinfo.value.line == 2
    assert cli.main(["load-validate", "--corpus", str(path)]) == 3
    assert "line 2: " in capsys.readouterr().err


# ------------------------------------------------------ record-file readers


def _without(record: dict, key: str) -> dict:
    return {name: value for name, value in record.items() if name != key}


_LABELED = make_labeled("b", 3).to_record()
_PAIR = EvalPair(make_labeled("a", 1), make_labeled("b", 3)).to_record()
_TRIPLET = Triplet(
    anchor=make_labeled("a", 3),
    more_urgent=make_labeled("b", 1),
    less_urgent=make_labeled("c", 6),
).to_record()
# reader, a valid line-1 record, then line-2 records with a missing field,
# with a bad enum value and with a lone surrogate in a string
_READERS = {
    "load_corpus": (
        load_corpus,
        make_labeled("a", 1).to_record(),
        _without(_LABELED, "text"),
        {**_LABELED, "label": "L9"},
        {**_LABELED, "text": "pain \ud800"},
    ),
    "load_messages": (
        load_messages,
        make_message("a").to_record(),
        _without(_LABELED, "id"),
        {**_LABELED, "source": "bogus"},
        {**_LABELED, "id": "\ud800"},
    ),
    "read_eval_pairs": (
        read_eval_pairs,
        _PAIR,
        _without(_PAIR, "b"),
        {**_PAIR, "a": {**_PAIR["a"], "label": "L9"}},
        {**_PAIR, "b": {**_PAIR["b"], "text": "\udfff pain"}},
    ),
    "read_triplets": (
        read_triplets,
        _TRIPLET,
        _without(_TRIPLET, "anchor"),
        {**_TRIPLET, "anchor": {**_TRIPLET["anchor"], "source": "bogus"}},
        {**_TRIPLET, "anchor": {**_TRIPLET["anchor"], "text": "\ud800\ud800"}},
    ),
}


@pytest.mark.parametrize(
    "case", ["invalid_json", "not_object", "missing_field", "bad_enum", "lone_surrogate"]
)
@pytest.mark.parametrize("reader_name", sorted(_READERS))
def test_reader_rejects_bad_line_with_its_number(tmp_path, reader_name, case):
    reader, valid, missing_field, bad_enum, lone_surrogate = _READERS[reader_name]
    second = {
        "invalid_json": "{not json",
        "not_object": "[1, 2]",
        "missing_field": json.dumps(missing_field),
        "bad_enum": json.dumps(bad_enum),
        "lone_surrogate": json.dumps(lone_surrogate),
    }[case]
    path = write_lines(tmp_path, [json.dumps(valid), second])
    with pytest.raises(DataError) as excinfo:
        reader(path)
    assert excinfo.value.line == 2
    assert str(excinfo.value).startswith("line 2: ")


def _lines_failing_with(error):
    yield "first\n"
    yield "second\n"
    raise error


@pytest.mark.parametrize(
    "error, expected",
    [(OSError(28, "No space left on device"), ExportFailed), (TypeError("not a str"), TypeError)],
    ids=["oserror", "typeerror"],
)
def test_failed_write_lines_keeps_previous_file(tmp_path, error, expected):
    path = tmp_path / "out.jsonl"
    assert corpus.write_lines(["old\n"], path) == 1
    with pytest.raises(expected):
        corpus.write_lines(_lines_failing_with(error), path)
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


def test_write_lines_syncs_the_directory_after_the_rename(tmp_path, monkeypatch):
    path = tmp_path / "out.jsonl"
    fsync = os.fsync
    synced = []

    def spy(fd):
        is_directory = stat.S_ISDIR(os.fstat(fd).st_mode)
        synced.append((is_directory, path.exists() and path.read_text() == "new\n"))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    corpus.write_lines(["new\n"], path)
    # the temporary file before the rename, then its directory after it
    assert synced == [(False, False), (True, True)]


def test_write_lines_file_mode_follows_umask(tmp_path):
    plain = tmp_path / "plain.jsonl"
    with open(plain, "w", encoding="utf-8"):
        pass
    written = tmp_path / "written.jsonl"
    corpus.write_lines(["line\n"], written)
    assert os.stat(written).st_mode == os.stat(plain).st_mode


def _lines_never_pulled():
    pytest.fail("a line was pulled for a target that cannot be written")
    yield "line\n"


@pytest.mark.parametrize("target", [".", "sub"])
def test_write_lines_onto_a_directory_is_export_failed(tmp_path, monkeypatch, capsys, target):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    with pytest.raises(ExportFailed, match="cannot write .*: is a directory"):
        corpus.write_lines(_lines_never_pulled(), target)
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]
    assert list((tmp_path / "sub").iterdir()) == []
    fixture = str(corpus.fixture_corpus_path())
    assert cli.main(["build-pairs", "--corpus", fixture, "--out", target]) == 3
    assert "is a directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]


def test_write_lines_replaces_a_symlink_to_a_directory(tmp_path):
    (tmp_path / "sub").mkdir()
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "sub")
    assert corpus.write_lines(["line\n"], link) == 1
    assert not link.is_symlink() and link.read_text() == "line\n"
    assert list((tmp_path / "sub").iterdir()) == []


def test_remove_temporaries_removes_only_what_write_lines_names(tmp_path):
    target = tmp_path / "rank.outcomes.jsonl"
    left = ["rank.outcomes.jsonl.123.tmp", "rank.outcomes.jsonl.4194304.tmp"]
    kept = [
        "rank.outcomes.jsonl", "rank.outcomes.jsonl.tmp", "rank.outcomes.jsonl.12a.tmp",
        "rank.outcomes.jsonl.123.tmp.bak", "xrank.outcomes.jsonl.123.tmp",
        "rank.json.123.tmp", "notes.tmp",
    ]
    for name in left + kept:
        (tmp_path / name).write_text("x\n")
    corpus.remove_temporaries(target)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(kept)
    corpus.remove_temporaries(tmp_path / "missing" / "rank.json")  # no directory, no error


def test_line_format_places_encoded_values_in_sorted_key_order():
    record = {"zeta": [1, {"b": None, "a": 2.5}], "a{b}": 'x"é', "mid": {"k": "\ud800"}}
    keys = tuple(record)
    line = corpus.line_format(keys).format(*(corpus.encode_json(record[key]) for key in keys))
    assert line == json.dumps(record, sort_keys=True) + "\n"
