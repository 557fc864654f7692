"""Seeded synthetic inputs: labelled patient messages over the six urgency levels.

Every message carries an urgency tag ``[triage:N]`` in its text, which the
mock model endpoint reads to answer like a perfect comparator. Text length
and EHR presence vary per message, so prompts and corpus records vary in
size the way real inboxes do. The same seed always gives the same records.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

TAG_FORMAT = "[triage:{level}]"

_COMPLAINTS = {
    1: [
        "I have crushing chest pain that spreads to my jaw",
        "my throat is closing up after a bee sting",
        "one side of my face is drooping and my speech is slurred",
        "I am coughing up a lot of bright red blood",
        "I cannot catch my breath even sitting still",
    ],
    2: [
        "I have a fever of 103 and a stiff painful neck",
        "the cut on my hand is hot, red and streaking up my arm",
        "I have had severe belly pain on the right side since this morning",
        "my insulin pump failed and my sugar is over 400",
        "I fell and my wrist is swollen and bent",
    ],
    3: [
        "my cough has lasted ten days and now I get short of breath on stairs",
        "it burns when I pee and my back is starting to ache",
        "my blood pressure readings have been around 170 over 100",
        "the rash from my new medicine is spreading",
        "my ankle is still swollen a week after I twisted it",
    ],
    4: [
        "I would like to talk about my cholesterol results",
        "my knee aches after running for the last month",
        "I have been sleeping badly for a few weeks",
        "the mole on my back seems a little bigger",
        "I want to discuss tapering my antidepressant",
    ],
    5: [
        "I have a runny nose and a mild sore throat",
        "I got a small paper cut that stings",
        "my muscles are sore after a new workout",
        "I have mild heartburn after spicy dinners",
        "my seasonal allergies are acting up",
    ],
    6: [
        "thank you for the visit last week",
        "I just wanted to confirm my appointment time",
        "can you update my mailing address",
        "I picked up my refill and everything is fine",
        "please send a copy of my vaccination record",
    ],
}

_DETAILS = [
    "It started a couple of days ago.",
    "I tried resting but it has not changed much.",
    "My partner thinks I should write to you.",
    "I am not sure whether this is related to my usual medicines.",
    "I have not travelled recently.",
    "I took some ibuprofen earlier today.",
    "Nothing like this has happened before.",
    "I am available for a call any time this week.",
    "I looked it up online but the advice was confusing.",
    "Work has been stressful lately.",
    "I have been drinking plenty of water.",
    "My neighbour had something similar last month.",
]

_PROBLEMS = ["hypertension", "type 2 diabetes", "asthma", "atrial fibrillation",
             "depression", "osteoarthritis", "hypothyroidism", "COPD"]
_DIAGNOSES = ["bronchitis", "urinary tract infection", "sprain", "migraine",
              "gastritis", "anxiety disorder", "cellulitis"]
_MEDICATIONS = ["lisinopril", "metformin", "albuterol", "apixaban", "sertraline",
                "levothyroxine", "atorvastatin", "omeprazole", "insulin glargine"]
_GENDERS = ["male", "female", "other", "unknown"]


def _text(rng: random.Random, level: int) -> str:
    details = rng.sample(_DETAILS, rng.randint(0, 8))
    body = " ".join([rng.choice(_COMPLAINTS[level]).capitalize() + "."] + details)
    return f"{TAG_FORMAT.format(level=level)} {body}"


def _ehr(rng: random.Random) -> dict:
    return {
        "problem_list": rng.sample(_PROBLEMS, rng.randint(0, 4)),
        "recent_diagnoses": rng.sample(_DIAGNOSES, rng.randint(0, 3)),
        "active_medications": rng.sample(_MEDICATIONS, rng.randint(0, 5)),
        "age": rng.randint(18, 95),
        "gender": rng.choice(_GENDERS),
    }


def _record(rng: random.Random, ids: set[str], level: int, label: str) -> dict:
    while True:
        message_id = f"m{rng.getrandbits(40):010x}"
        if message_id not in ids:
            ids.add(message_id)
            break
    record = {
        "id": message_id,
        "text": _text(rng, level),
        "label": label,
        "source": "synthetic_test",
    }
    if rng.random() < 0.7:
        record["ehr"] = _ehr(rng)
    return record


def corpus_records(seed: int, per_level: int, sentinels: int) -> list[dict]:
    """``per_level`` messages at each of L1..L6 plus ``sentinels`` UNCLEAR /
    SUPPORTIVE_CARE records, shuffled."""
    rng = random.Random(f"corpus|{seed}")
    ids: set[str] = set()
    records = [
        _record(rng, ids, level, f"L{level}")
        for level in range(1, 7)
        for _ in range(per_level)
    ]
    for index in range(sentinels):
        label = "UNCLEAR" if index % 2 == 0 else "SUPPORTIVE_CARE"
        records.append(_record(rng, ids, rng.randint(1, 6), label))
    rng.shuffle(records)
    return records


def inbox_records(seed: int, count: int) -> list[dict]:
    """``count`` messages whose levels are drawn uniformly per message, in
    arrival order."""
    rng = random.Random(f"inbox|{seed}")
    ids: set[str] = set()
    records = []
    for _ in range(count):
        level = rng.randint(1, 6)
        records.append(_record(rng, ids, level, f"L{level}"))
    return records


def write_jsonl(records: list[dict], path: Path) -> Path:
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path
