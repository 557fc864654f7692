"""Canonical prompt templates and their rendering.

Templates use ``{name}`` placeholders. Rendering substitutes every
placeholder in one pass (inserted text is never re-scanned), so a bound
render can leave no residual markers. Section headers like
``### Existing Patient:`` double as unique delimiters, keeping renders of
distinct message bindings distinct.

The training exports write each prompt as a JSON string, and
``render_json`` renders it straight into that form from bindings encoded
once per message (``encode_message``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

from .corpus import EhrRecord, Message, encode_text
from .errors import MissingBinding

CATALOG_VERSION = "1.0"

_PLACEHOLDER = re.compile(r"\{([a-z][a-z0-9_]*)\}")


@dataclass(frozen=True)
class PromptTemplate:
    """A named body, split once at its placeholders.

    A render joins the literal text with the bound strings, so it never
    re-scans what it inserted. The JSON parts hold the literal text already
    encoded, with the string's quotes at the ends.
    """

    name: str
    body: str
    _parts: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _json_parts: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # literal text at even indices, placeholder names at odd ones
        parts = _PLACEHOLDER.split(self.body)
        encoded = [part if index % 2 else encode_text(part) for index, part in enumerate(parts)]
        encoded[0] = f'"{encoded[0]}'
        encoded[-1] = f'{encoded[-1]}"'
        object.__setattr__(self, "_parts", tuple(parts))
        object.__setattr__(self, "_json_parts", tuple(encoded))


def _join(template: PromptTemplate, parts: tuple[str, ...], bindings: Mapping[str, str]) -> str:
    pieces = list(parts)
    for index in range(1, len(parts), 2):
        name = parts[index]
        if name not in bindings:
            raise MissingBinding(
                f"template {template.name!r} has unbound placeholder {name!r}",
                placeholder=name,
            )
        pieces[index] = str(bindings[name])
    return "".join(pieces)


def render(template: PromptTemplate, bindings: Mapping[str, str]) -> str:
    """Substitute all placeholders; raises MissingBinding on the first unbound one."""
    return _join(template, template._parts, bindings)


def render_json(template: PromptTemplate, encoded: Mapping[str, str]) -> str:
    """``json.dumps(render(template, bindings))``, from each binding's ``encode_text``.

    JSON escapes each code point on its own, so the encoded render is the
    template's encoded literal text joined with the encoded bindings. Raises
    MissingBinding as ``render`` does.
    """
    return _join(template, template._json_parts, encoded)


def format_ehr_block(ehr: EhrRecord | None) -> str:
    """Render an EHR record as a labeled block, or the not-available line."""
    if ehr is None:
        return "EHR: not available"
    return "\n".join(
        [
            "EHR:",
            "- Problem List: " + ("; ".join(ehr.problem_list) or "none"),
            "- Recent Diagnoses: " + ("; ".join(ehr.recent_diagnoses) or "none"),
            "- Active Medications: " + ("; ".join(ehr.active_medications) or "none"),
            f"- Demographics: age {ehr.age}, gender {ehr.gender.value}",
        ]
    )


def message_block(message: Message) -> str:
    """Message text with its EHR block appended when one is attached."""
    if message.ehr is None:
        return message.text
    return f"{message.text}\n{format_ehr_block(message.ehr)}"


def pair_bindings(existing: Message, new: Message) -> dict[str, str]:
    """Bindings for two-message templates: existing patient is slot 1."""
    return {
        "message_1": existing.text,
        "ehr_1": format_ehr_block(existing.ehr),
        "message_2": new.text,
        "ehr_2": format_ehr_block(new.ehr),
    }


class EncodedMessage(NamedTuple):
    """The strings the templates bind of a message, each as ``encode_text`` gives it."""

    text: str
    ehr_block: str  # format_ehr_block
    block: str  # message_block


def encode_message(message: Message) -> EncodedMessage:
    text = encode_text(message.text)
    ehr_block = encode_text(format_ehr_block(message.ehr))
    if message.ehr is None:
        return EncodedMessage(text, ehr_block, text)
    # message_block's join, encoded piece by piece
    return EncodedMessage(text, ehr_block, text + encode_text("\n") + ehr_block)


def encoded_pair_bindings(existing: EncodedMessage, new: EncodedMessage) -> dict[str, str]:
    """``pair_bindings`` for ``render_json``."""
    return {
        "message_1": existing.text,
        "ehr_1": existing.ehr_block,
        "message_2": new.text,
        "ehr_2": new.ehr_block,
    }


SYSTEM = PromptTemplate(
    "system",
    '### Role: You are a medical expert. You specialize in understanding the urgency of medical queries.\n'
    "\n"
    '### Definitions: Triage nurses can categorize patients into 1 / 6 categories, where 1 is "most urgent" and 6 is "least urgent".\n'
    "- Level 1 --> Patient has life-threatening issue that needs immediate attention.\n"
    "- Level 2 --> Patient has non life-threatening issue that would benefit from same-day treatment (e.g. urgent care)\n"
    "- Level 3 --> Patient should make an appointment with a doctor soon (1-3 days).\n"
    "- Level 4 --> Patient should see their doctor sometime in the near future (could be more than 3 days)\n"
    "- Level 5 --> Patient has symptoms that can be treated at home, and would benefit from a message instructing them on what to do.\n"
    "- Level 6 --> Patient presents something that is a non-issue and no further steps are needed.\n"
    "\n"
    "You can use this context to help think about which of two patients are more urgent.\n"
    "\n"
    "### Important Note: Patient messages may or may not be presented alongside structured EHR information such as medications, diagnoses, problem list, or demographics. These fields when available may contribute to medical urgency.\n"
    "\n"
    "### Relevant Context: Use the following information about medical urgency to help guide your response:\n"
    "- Patients who are more medically urgent will benefit more from priority medical care.\n"
    "- Sometimes, a patient may be lower urgency because they have already been seen by a physician for this exact issue very recently.\n"
    "- Sometimes, the patient writes a message in a tone which is more urgent than their actual medical issue. Medical urgency must be based on objective medical content, not tone. E.g. health anxiety is not medically urgent.\n"
    "- Sometimes, a patient with a more severe chronic issue may be less urgent than a patient with a less severe acute issue, as the chronic patient may not have a time-sensitive issue.\n"
    "- Consider the risk factors of each patient. Two patients with the same symptoms may have different needs based on demographics or prior diagnosis that make them higher risk patients.",
)

URGENT_SFT = PromptTemplate(
    "urgent_sft",
    "### CONTEXT ###\n"
    "\n"
    "You are a triage nurse who excels at determining the medical urgency of patient messages.\n"
    'There is a message already in your inbox from "Existing Patient".\n'
    "\n"
    'A new message from "New Patient" has just arrived.\n'
    "\n"
    "### Existing Patient: {message_1}\n"
    "{ehr_1}\n"
    "\n"
    "### New Patient: {message_2}\n"
    "{ehr_2}\n"
    "\n"
    '### Instruction: Your job is to answer the question "Is the new message from "New Patient" *more* medically urgent than the existing message from "Existing Patient"?\n'
    'If the answer is YES, then "New Patient" will be seen by a doctor first. If the answer is NO, "Existing Patient" will be seen first.\n'
    "\n"
    '### Response Format: Output "YES" or "NO" and nothing else.',
)

URGENT_REWARD = PromptTemplate(
    "urgent_reward",
    "### Instruction: You are provided with a patient message sent to a clinician.\n"
    "Your job is to generate a new patient message that is **more medically urgent** than the provided patient message.\n"
    "\n"
    "Output the **more urgent** patient message and nothing else.\n"
    "\n"
    "### Patient Message: {message}\n"
    "\n"
    "### More Urgent Patient Message:",
)

URGENT_REWARD_INVERSE = PromptTemplate(
    "urgent_reward_inverse",
    "### Instruction: You are provided with a patient message sent to a clinician.\n"
    "Your job is to generate a new patient message that is **less medically urgent** than the provided patient message.\n"
    "\n"
    "Output the **less urgent** patient message and nothing else.\n"
    "\n"
    "### Patient Message: {message}\n"
    "\n"
    "### Less Urgent Patient Message:",
)
