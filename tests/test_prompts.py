from __future__ import annotations

import json
import random
import re

import pytest

from triagerank import prompts
from triagerank.corpus import EhrRecord, Gender
from triagerank.errors import MissingBinding

from .conftest import make_message


def test_urgent_sft_has_both_patient_sections():
    rendered = prompts.render(
        prompts.URGENT_SFT,
        prompts.pair_bindings(make_message("a"), make_message("b")),
    )
    assert "Existing Patient" in rendered
    assert "New Patient" in rendered
    assert 'Output "YES" or "NO" and nothing else.' in rendered


def test_urgent_reward_trailer():
    rendered = prompts.render(
        prompts.URGENT_REWARD, {"message": "my arm hurts"}
    )
    assert rendered.rstrip().endswith("More Urgent Patient Message:")
    inverse = prompts.render(
        prompts.URGENT_REWARD_INVERSE, {"message": "my arm hurts"}
    )
    assert inverse.rstrip().endswith("Less Urgent Patient Message:")
    assert "**less medically urgent**" in inverse


def test_system_prompt_preamble():
    assert prompts.SYSTEM.body.startswith("### Role: You are a medical expert.")
    assert "Level 1 --> Patient has life-threatening issue" in prompts.SYSTEM.body
    assert "may or may not be presented alongside structured EHR" in prompts.SYSTEM.body


def test_missing_binding():
    with pytest.raises(MissingBinding) as excinfo:
        prompts.render(prompts.URGENT_SFT, {"message_1": "x", "ehr_1": "y"})
    # the first unbound name in text order, found by the substitution itself
    assert excinfo.value.placeholder == "message_2"
    assert str(excinfo.value) == "template 'urgent_sft' has unbound placeholder 'message_2'"


def test_no_residual_markers_after_render():
    rendered = prompts.render(
        prompts.URGENT_SFT,
        prompts.pair_bindings(make_message("a"), make_message("b")),
    )
    assert re.search(r"\{[a-z][a-z0-9_]*\}", rendered) is None


def test_ehr_block_rendering():
    assert prompts.format_ehr_block(None) == "EHR: not available"
    ehr = EhrRecord(
        problem_list=("asthma", "eczema"),
        active_medications=("albuterol",),
        age=41,
        gender=Gender.FEMALE,
    )
    block = prompts.format_ehr_block(ehr)
    assert block.splitlines()[0] == "EHR:"
    assert "- Problem List: asthma; eczema" in block
    assert "- Recent Diagnoses: none" in block
    assert "- Active Medications: albuterol" in block
    assert "- Demographics: age 41, gender female" in block


def test_message_block_appends_ehr_only_when_present():
    bare = make_message("a", text="hello")
    assert prompts.message_block(bare) == "hello"
    with_ehr = make_message("b", text="hello", ehr=EhrRecord(age=30))
    assert prompts.message_block(with_ehr).startswith("hello\nEHR:")


def test_render_injective_over_message_bindings():
    rng = random.Random(7)
    seen = {}
    for _ in range(300):
        text_1 = " ".join(rng.choices(["ache", "fever", "cough", "rash"], k=rng.randint(1, 6)))
        text_2 = " ".join(rng.choices(["dizzy", "tired", "numb"], k=rng.randint(1, 6)))
        rendered = prompts.render(
            prompts.URGENT_SFT,
            prompts.pair_bindings(
                make_message("a", text=text_1), make_message("b", text=text_2)
            ),
        )
        key = (text_1, text_2)
        if rendered in seen:
            assert seen[rendered] == key
        seen[rendered] = key



# literal text that a % format or JSON would read as markers, around placeholders
_MARKED = prompts.PromptTemplate(
    "marked",
    'a "quoted" \\ 100% %s %(first)s {first}\t{second}\n{Not_a_name} {} café \U0001f600',
)


def test_render_fills_the_placeholders_and_keeps_the_literal_text():
    bindings = {"first": "{second} %(second)s", "second": "\ud800"}
    rendered = prompts.render(_MARKED, bindings)
    assert rendered == (
        'a "quoted" \\ 100% %s %(first)s {second} %(second)s\t\ud800\n'
        "{Not_a_name} {} café \U0001f600"
    )


@pytest.mark.parametrize("template", [_MARKED, prompts.URGENT_SFT, prompts.SYSTEM])
def test_render_json_equals_the_dumped_render(template):
    bindings = {
        name: f'{name} "{{first}}" %s \\ \ud83d\n'
        for name in ("first", "second", "message_1", "ehr_1", "message_2", "ehr_2")
    }
    encoded = {name: json.dumps(text)[1:-1] for name, text in bindings.items()}
    assert prompts.render_json(template, encoded) == json.dumps(prompts.render(template, bindings))


def test_render_json_raises_the_missing_binding_render_raises():
    with pytest.raises(MissingBinding) as excinfo:
        prompts.render_json(prompts.URGENT_SFT, {"message_1": "x", "ehr_1": "y"})
    assert excinfo.value.placeholder == "message_2"
    assert str(excinfo.value) == "template 'urgent_sft' has unbound placeholder 'message_2'"


@pytest.mark.parametrize(
    "message",
    [
        make_message("a", text='bare "text" \\ \ud800'),
        make_message("b", text="with\tehr", ehr=EhrRecord(problem_list=("a\nb",), age=9)),
    ],
    ids=["no-ehr", "ehr"],
)
def test_encode_message_encodes_each_bound_string(message):
    encoded = prompts.encode_message(message)
    assert json.loads(f'"{encoded.text}"') == message.text
    assert json.loads(f'"{encoded.ehr_block}"') == prompts.format_ehr_block(message.ehr)
    assert json.loads(f'"{encoded.block}"') == prompts.message_block(message)
    assert f'"{encoded.block}"' == json.dumps(prompts.message_block(message))
