"""Canonical data model for patient messages, and JSONL record I/O.

A corpus file is UTF-8 line-delimited JSON, one message per line, with
fields ``id``, ``text``, ``label``, ``source`` and optional ``ehr`` and
``clinician_response``. Every record file of the package (corpus, eval
pairs, triplets, exports, annotations) is read by
``read_jsonl`` and written by ``write_jsonl``: reading rejects the whole
file on the first bad line with a DataError that carries the line number,
and a failed write raises ExportFailed. ``write_jsonl`` writes through
``write_lines``, the package's one writer of whole files (reports and
outcome logs too), which replaces each file atomically;
``remove_temporaries`` clears the temporary files a killed writer left.
Writers that repeat a value across many lines (triplets, training exports)
join each line from pieces encoded once, with ``encode_text`` and
``line_format``, in the bytes ``write_jsonl`` would write.

All types here are frozen: values are safe to share across concurrent
consumers after load.
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from .errors import (
    BadLabel,
    DataError,
    DuplicateId,
    EmptyMessage,
    ExportFailed,
    MalformedRecord,
)

T = TypeVar("T")


class UrgencyLabel(Enum):
    """Six ordered urgency levels plus two non-ordinal filtration sentinels.

    L1 is most urgent (emergency attention needed), L6 least urgent (no
    medical attention needed). UNCLEAR and SUPPORTIVE_CARE never enter
    pair or triplet generation.
    """

    L1 = "L1"
    L2 = "L2"
    L3 = "L3"
    L4 = "L4"
    L5 = "L5"
    L6 = "L6"
    UNCLEAR = "UNCLEAR"
    SUPPORTIVE_CARE = "SUPPORTIVE_CARE"

    @property
    def is_ordinal(self) -> bool:
        return self._value_ in _LEVEL_OF_VALUE

    @property
    def level(self) -> int:
        """Numeric level 1..6; lower means more urgent."""
        level = _LEVEL_OF_VALUE.get(self._value_)
        if level is None:
            raise BadLabel(f"{self._value_} has no ordinal level")
        return level

    @classmethod
    def from_token(cls, token: str) -> "UrgencyLabel":
        try:
            return cls(token)
        except ValueError:
            raise BadLabel(f"unknown label token {token!r}") from None


# the level of each ordinal label, by value: read per pair and per triplet, so
# it is looked up, not derived from the value
_LEVEL_OF_VALUE = {f"L{level}": level for level in range(1, 7)}


def label_for_level(level: int) -> UrgencyLabel:
    """Inverse of ``UrgencyLabel.level`` for 1..6."""
    if not 1 <= level <= 6:
        raise BadLabel(f"no urgency label for level {level}")
    return UrgencyLabel(f"L{level}")


class Gender(Enum):
    MALE = "male"
    FEMALE = "female"
    OTHER = "other"
    UNKNOWN = "unknown"


class Source(Enum):
    REDDIT = "reddit"
    SYNTH = "synth"
    REAL = "real"
    SYNTHETIC_TEST = "synthetic_test"


@dataclass(frozen=True)
class EhrRecord:
    """Structured patient context attached to a message.

    Lists may be empty. Age is whole years, 0..150. Demographics live here
    because bias stratification reads them; messages without an EHR are
    excluded from stratification rather than defaulted.
    """

    problem_list: tuple[str, ...] = ()
    recent_diagnoses: tuple[str, ...] = ()
    active_medications: tuple[str, ...] = ()
    age: int = 0
    gender: Gender = Gender.UNKNOWN

    def __post_init__(self):
        for name in ("problem_list", "recent_diagnoses", "active_medications"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        if not isinstance(self.age, int) or isinstance(self.age, bool):
            raise MalformedRecord(f"ehr age must be an integer, got {self.age!r}")
        if not 0 <= self.age <= 150:
            raise MalformedRecord(f"ehr age out of range: {self.age}")

    def to_record(self) -> dict:
        return {
            "problem_list": list(self.problem_list),
            "recent_diagnoses": list(self.recent_diagnoses),
            "active_medications": list(self.active_medications),
            "age": self.age,
            "gender": self.gender.value,
        }

    @classmethod
    def from_record(cls, record: Mapping) -> "EhrRecord":
        try:
            gender = Gender(record.get("gender", "unknown"))
        except ValueError:
            raise MalformedRecord(f"unknown gender {record.get('gender')!r}") from None

        def _strings(name: str) -> tuple[str, ...]:
            value = record.get(name, ())
            if isinstance(value, str) or not isinstance(value, (list, tuple)):
                raise MalformedRecord(f"ehr field {name!r} must be a string array")
            for item in value:
                if not isinstance(item, str):
                    raise MalformedRecord(
                        f"ehr field {name!r} must be a string array, holds {item!r}"
                    )
            return tuple(value)

        return cls(
            problem_list=_strings("problem_list"),
            recent_diagnoses=_strings("recent_diagnoses"),
            active_medications=_strings("active_medications"),
            age=record.get("age", 0),
            gender=gender,
        )


@dataclass(frozen=True)
class Message:
    """One patient query, optionally with EHR context and a clinician reply."""

    id: str
    text: str
    ehr: EhrRecord | None = None
    clinician_response: str | None = None
    source: Source = Source.SYNTHETIC_TEST

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id.strip():
            raise MalformedRecord("message id must be a non-empty string")
        if not self.text or not self.text.strip():
            raise EmptyMessage(f"message {self.id!r} has empty text")

    def to_record(self) -> dict:
        record: dict = {"id": self.id, "text": self.text, "source": self.source.value}
        if self.ehr is not None:
            record["ehr"] = self.ehr.to_record()
        if self.clinician_response is not None:
            record["clinician_response"] = self.clinician_response
        return record

    @classmethod
    def from_record(cls, record: Mapping) -> "Message":
        for field in ("id", "text"):
            if field not in record:
                raise MalformedRecord(f"record is missing field {field!r}")
        message_id = record["id"]
        if not isinstance(message_id, (str, int)) or isinstance(message_id, bool):
            raise MalformedRecord(
                f"field 'id' must be a string or an integer, got {message_id!r}"
            )
        if not isinstance(record["text"], str):
            raise MalformedRecord("field 'text' must be a string")
        try:
            source = Source(record.get("source", "synthetic_test"))
        except ValueError:
            raise MalformedRecord(f"unknown source {record.get('source')!r}") from None
        ehr = record.get("ehr")
        if ehr is not None and not isinstance(ehr, Mapping):
            raise MalformedRecord("field 'ehr' must be an object")
        response = record.get("clinician_response")
        if response is not None and not isinstance(response, str):
            raise MalformedRecord("field 'clinician_response' must be a string")
        return cls(
            id=str(message_id),
            text=record["text"],
            ehr=EhrRecord.from_record(ehr) if ehr is not None else None,
            clinician_response=response,
            source=source,
        )


@dataclass(frozen=True)
class LabeledMessage:
    """A message plus its urgency label.

    Only L1..L6 labels may enter the pair/triplet pipeline; use
    ``split_ordinal`` to drop sentinel-labeled records first.
    """

    message: Message
    label: UrgencyLabel

    @property
    def id(self) -> str:
        return self.message.id

    @property
    def level(self) -> int:
        return self.label.level

    def to_record(self) -> dict:
        record = self.message.to_record()
        record["label"] = self.label.value
        return record

    @classmethod
    def from_record(cls, record: Mapping) -> "LabeledMessage":
        if "label" not in record:
            raise MalformedRecord("record is missing field 'label'")
        return cls(
            message=Message.from_record(record),
            label=UrgencyLabel.from_token(record["label"]),
        )


def read_jsonl(path: str | Path, parse: Callable[[dict], T]) -> list[T]:
    """Parse every non-blank line of a JSONL record file with ``parse``.

    The whole file is rejected on the first bad line, and the error carries
    a ``line`` attribute. A DataError from ``parse`` keeps its type and
    context; invalid JSON, a line that is not an object, a string holding a
    lone surrogate, or a KeyError, TypeError or ValueError from ``parse``
    becomes MalformedRecord.
    """
    records: list[T] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise MalformedRecord("record is not an object")
                # the file decodes as strict UTF-8, so a lone surrogate can
                # only come from a \u escape
                if "\\u" in line:
                    json.dumps(record, ensure_ascii=False).encode("utf-8")
                records.append(parse(record))
            except DataError as exc:
                error: DataError = exc
            except json.JSONDecodeError as exc:
                error = MalformedRecord(f"invalid JSON ({exc.msg})")
            except UnicodeEncodeError:
                error = MalformedRecord("lone surrogate in a string (not encodable as UTF-8)")
            except KeyError as exc:
                error = MalformedRecord(f"record is missing field {exc}")
            except (TypeError, ValueError) as exc:
                error = MalformedRecord(f"bad record ({exc})")
            else:
                continue
            context = {**vars(error), "line": line_number}
            raise type(error)(f"line {line_number}: {error}", **context) from None
    return records


def write_lines(lines: Iterable[str], path: str | Path) -> int:
    """Replace ``path`` with the lines, each ending in a newline, and return the count.

    The lines go to a temporary file beside ``path``, synced and renamed onto
    it, so a failed write leaves the old file whole; an OSError -> ExportFailed.
    The directory is synced after the rename, so a power cut cannot undo it
    (power loss itself cannot be simulated in a test, only the sync seen).
    A directory at ``path`` is refused before a line is pulled.
    """
    path = Path(path)
    if path.is_dir() and not path.is_symlink():  # a symlink is replaced, as os.replace does
        raise ExportFailed(f"cannot write {path}: is a directory")
    temporary = Path(f"{path}.{os.getpid()}.tmp")  # not with_name: "." has no name
    count = 0
    try:
        with temporary.open("w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line)
                count += 1
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)
        directory = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
    except BaseException as exc:
        temporary.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise ExportFailed(f"cannot write {path}: {exc}") from exc
        raise
    return count


def remove_temporaries(path: str | Path) -> None:
    """Remove the ``<name>.<pid>.tmp`` files beside ``path`` that killed writers left.

    A SIGKILL skips ``write_lines``' cleanup, and a later run has another
    pid, so it never reuses the name. Call this only where no other process
    writes ``path``.
    """
    path = Path(path)
    pattern = re.compile(re.escape(path.name) + r"\.[0-9]+\.tmp")
    try:
        siblings = list(path.parent.iterdir())
    except (FileNotFoundError, NotADirectoryError):
        return  # nothing can be left there; writing the path reports the error
    for sibling in siblings:
        if pattern.fullmatch(sibling.name):
            sibling.unlink(missing_ok=True)


# json.dumps(record, sort_keys=True) without building an encoder per call;
# encode keeps no state between calls, so threads may share it
_ENCODER = json.JSONEncoder(sort_keys=True)


def encode_json(value: object) -> str:
    """A value as ``write_jsonl`` encodes it: sorted-key JSON, escaped to ASCII."""
    return _ENCODER.encode(value)


def write_jsonl(records: Iterable[dict], path: str | Path) -> int:
    """Write records as sorted-key JSONL and return the count; OSError -> ExportFailed."""
    return write_lines((encode_json(record) + "\n" for record in records), path)


def encode_text(text: str) -> str:
    """``json.dumps(text)`` without its quotes.

    JSON escapes each code point on its own (to ASCII, a lone surrogate
    too), so the encoding of a concatenation is the concatenation of the
    encodings: a line can be joined from pieces encoded once.
    """
    return encode_basestring_ascii(text)[1:-1]


def line_format(keys: Sequence[str]) -> str:
    """A ``str.format`` format of the ``write_jsonl`` line of an object with these keys.

    Given the ``encode_json`` of each value, in the order of ``keys``, it
    formats the line ``write_jsonl`` writes for the object: sorted-key JSON
    encodes a nested value as it encodes it alone.
    """
    fields = (
        json.dumps(keys[index]).replace("{", "{{").replace("}", "}}") + f": {{{index}}}"
        for index in sorted(range(len(keys)), key=keys.__getitem__)
    )
    return "{{" + ", ".join(fields) + "}}\n"


def _unique_ids(from_record: Callable[[Mapping], T]) -> Callable[[dict], T]:
    """Wrap a record parser so a repeated message id raises DuplicateId."""
    seen: set[str] = set()

    def parse(record: dict) -> T:
        item = from_record(record)
        if item.id in seen:
            raise DuplicateId(f"duplicate id {item.id!r}", message_id=item.id)
        seen.add(item.id)
        return item

    return parse


def load_corpus(path: str | Path) -> list[LabeledMessage]:
    """Load and validate a labeled corpus file.

    The whole file is rejected on any malformed line. Raises DuplicateId,
    BadLabel, EmptyMessage or MalformedRecord with a ``line`` attribute.
    """
    return read_jsonl(path, _unique_ids(LabeledMessage.from_record))


def load_messages(path: str | Path) -> list[Message]:
    """Load a message file, ignoring any label field (for auto-labeling)."""
    return read_jsonl(path, _unique_ids(Message.from_record))


def save_corpus(records: Iterable[LabeledMessage], path: str | Path) -> int:
    """Write a labeled corpus as JSONL; returns the record count.

    Output is deterministic (sorted keys), so load -> save -> load
    round-trips to an identical corpus.
    """
    return write_jsonl((labeled.to_record() for labeled in records), path)


def split_ordinal(
    corpus: Sequence[LabeledMessage],
) -> tuple[list[LabeledMessage], Counter]:
    """Split a corpus into ordinal records and per-sentinel removal counts."""
    kept: list[LabeledMessage] = []
    removed: Counter = Counter()
    for labeled in corpus:
        if labeled.label.is_ordinal:
            kept.append(labeled)
        else:
            removed[labeled.label] += 1
    return kept, removed


def labels_by_id(corpus: Iterable[LabeledMessage]) -> dict[str, UrgencyLabel]:
    return {labeled.id: labeled.label for labeled in corpus}


def by_level(corpus: Iterable[LabeledMessage]) -> dict[int, list[LabeledMessage]]:
    """Bucket ordinal records by numeric level; sentinels are skipped."""
    buckets: dict[int, list[LabeledMessage]] = {}
    for labeled in corpus:
        if labeled.label.is_ordinal:
            buckets.setdefault(labeled.level, []).append(labeled)
    return buckets


def fixture_corpus_path() -> Path:
    """Path of the bundled 30-message synthetic fixture (5 per level)."""
    return Path(
        str(resources.files("triagerank").joinpath("data/fixture_corpus.jsonl"))
    )
